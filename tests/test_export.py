"""Tests for Pajek/DOT/JSON serialization, glyphs, and the report table."""

import json
import math
import re
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from citenet import (
    CentralityReport,
    CentralityRow,
    Direction,
    NodeGlyph,
    SimilarityGraph,
    export_dot,
    export_json,
    export_pajek,
    extract_environment,
    make_glyphs,
    parse_citation_csv,
    report_table,
)
from citenet.export import json_text
from citenet.matrix import _validate_id
from oracles import parse_pajek


def sim_graph(nodes, edges, threshold=0.2, basis=Direction.CITED):
    return SimilarityGraph(tuple(nodes), edges, threshold, basis)


def glyphs_for(nodes, gross=10, net=7):
    return [NodeGlyph(node, gross, net) for node in nodes]


class TestNodeGlyph:
    def test_round_glyph_without_self_citations(self):
        glyph = NodeGlyph("J", 10, 10)
        assert glyph.x_extent == glyph.y_extent

    def test_all_self_citations_flattens_x(self):
        glyph = NodeGlyph("J", 10, 0)
        assert glyph.x_extent == 0.0
        assert glyph.y_extent > 0.0

    def test_log_extents(self):
        glyph = NodeGlyph("J", 99, 9)
        assert glyph.y_extent == 2.0
        assert glyph.x_extent == 1.0

    def test_net_cannot_exceed_gross(self):
        with pytest.raises(ValueError):
            NodeGlyph("J", 5, 6)
        with pytest.raises(ValueError):
            NodeGlyph("J", 5, -1)

    def test_extents_monotone_in_counts(self):
        extents = [NodeGlyph("J", g, g).y_extent for g in range(0, 200, 7)]
        assert extents == sorted(extents)
        assert extents[0] == 0.0  # zero-citation glyph still drawable

    def test_round_iff_no_self_cites(self):
        for gross in range(0, 30):
            for net in range(0, gross + 1):
                glyph = NodeGlyph("J", gross, net)
                assert (glyph.x_extent == glyph.y_extent) == (net == gross)

    def test_make_glyphs_in_member_order(self):
        m = parse_citation_csv("A,A,4\nB,A,6\nA,S,60\nB,S,40", 2005)
        env = extract_environment(m, "S", Direction.CITED, 0.01)
        glyphs = make_glyphs(env)
        assert [g.journal for g in glyphs] == list(env.members)
        by_journal = {g.journal: g for g in glyphs}
        assert by_journal["A"].gross_cites == 10
        assert by_journal["A"].net_of_self == 6


class TestPajek:
    def test_edge_line_format(self):
        g = sim_graph("AB", {("A", "B"): 0.35})
        text = export_pajek(g, glyphs_for("AB"))
        assert "1 2 0.3500\n" in text
        assert text.startswith("*Vertices 2\n")

    def test_empty_edge_set_keeps_header(self):
        g = sim_graph("AB", {})
        text = export_pajek(g, glyphs_for("AB"))
        assert text.endswith("*Edges\n")

    def test_round_trip(self):
        g = sim_graph("ABC", {("A", "B"): 0.35, ("B", "C"): 1 / 3})
        glyphs = [NodeGlyph("A", 99, 9), NodeGlyph("B", 10, 10), NodeGlyph("C", 0, 0)]
        parsed = parse_pajek(export_pajek(g, glyphs))
        assert parsed.labels == g.nodes
        for glyph in glyphs:
            assert parsed.x_facts[glyph.journal] == glyph.x_extent
            assert parsed.y_facts[glyph.journal] == glyph.y_extent
        assert parsed.edges == {("A", "B"): 0.35, ("B", "C"): float(f"{1 / 3:.4f}")}

    def test_deterministic(self):
        g = sim_graph("ABC", {("A", "B"): 0.4, ("A", "C"): 0.7})
        glyphs = glyphs_for("ABC")
        assert export_pajek(g, glyphs) == export_pajek(g, glyphs)

    def test_missing_glyph_rejected(self):
        g = sim_graph("AB", {("A", "B"): 0.5})
        with pytest.raises(ValueError, match="missing"):
            export_pajek(g, glyphs_for("A"))

    def test_lf_endings_only(self):
        g = sim_graph("AB", {("A", "B"): 0.5})
        assert "\r" not in export_pajek(g, glyphs_for("AB"))


class TestDot:
    def test_triangle_has_exactly_three_edge_statements(self):
        g = sim_graph("ABC", {("A", "B"): 0.3, ("A", "C"): 0.4, ("B", "C"): 0.5})
        text = export_dot(g, glyphs_for("ABC"))
        assert text.count(" -- ") == 3

    def test_deterministic(self):
        g = sim_graph("ABC", {("B", "C"): 0.5, ("A", "B"): 0.3})
        glyphs = glyphs_for("ABC")
        assert export_dot(g, glyphs) == export_dot(g, glyphs)

    def test_penwidth_follows_weight(self):
        g = sim_graph("ABC", {("A", "B"): 0.3, ("B", "C"): 0.9})
        text = export_dot(g, glyphs_for("ABC"))
        assert "penwidth=1.5000" in text
        assert "penwidth=4.5000" in text

    def test_penwidth_strictly_increasing_in_weight(self):
        g = sim_graph("ABC", {("A", "B"): 0.3, ("A", "C"): 0.6, ("B", "C"): 0.9})
        statements = re.findall(
            r'"(\w)" -- "(\w)" \[penwidth=([0-9.]+)', export_dot(g, glyphs_for("ABC"))
        )
        by_weight = sorted(statements, key=lambda s: g.edges[(s[0], s[1])])
        widths = [float(width) for _, _, width in by_weight]
        assert len(widths) == 3
        assert all(a < b for a, b in zip(widths, widths[1:]))


class TestJson:
    def _report(self):
        rows = {
            "A": CentralityRow("A", 2, 3, 1, 0.5, 1 / 3, 0.123456789012345),
            "B": CentralityRow("B", 1, 1, 1, 1.0, 0.0, 0.5),
        }
        return CentralityReport(rows, "local", "global")

    def test_round_trip_full_precision(self):
        g = sim_graph("AB", {("A", "B"): 1 / 3})
        glyphs = [NodeGlyph("A", 99, 9), NodeGlyph("B", 7, 0)]
        document = json.loads(export_json(g, glyphs, self._report()))
        assert document["edges"] == [{"source": "A", "target": "B", "weight": 1 / 3}]
        node_a = document["nodes"][0]
        assert node_a["x_extent"] == math.log10(10)
        assert node_a["y_extent"] == math.log10(100)
        row_a = document["report"]["rows"][0]
        assert row_a["betweenness"] == 1 / 3
        assert row_a["eigenvector"] == 0.123456789012345

    def test_report_optional(self):
        g = sim_graph("AB", {})
        document = json.loads(export_json(g, glyphs_for("AB")))
        assert document["report"] is None
        assert document["basis"] == "cited"
        assert document["threshold"] == 0.2

    def test_deterministic(self):
        g = sim_graph("AB", {("A", "B"): 0.25})
        glyphs = glyphs_for("AB")
        assert export_json(g, glyphs, self._report()) == export_json(
            g, glyphs, self._report()
        )

    def test_same_edge_multiset_as_pajek(self):
        g = sim_graph("ABCD", {("A", "B"): 0.3, ("C", "D"): 0.8, ("A", "D"): 0.55})
        glyphs = glyphs_for("ABCD")
        parsed = parse_pajek(export_pajek(g, glyphs))
        document = json.loads(export_json(g, glyphs))
        json_edges = {
            (e["source"], e["target"]): float(f"{e['weight']:.4f}")
            for e in document["edges"]
        }
        assert json_edges == dict(parsed.edges)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children, max_size=4)
    | st.tuples(children, children)
    | st.dictionaries(st.text(max_size=3), children, max_size=4),
    max_leaves=30,
)


@given(JSON_VALUES)
def test_json_text_is_the_indented_encoding(value):
    assert json_text(value) == json.dumps(value, indent=2) + "\n"


def test_json_text_keeps_no_token_strings():
    # A document shaped like a 3,000-member graph's.  json.dumps holds a
    # string per token until it joins them, ~8 times the text here.
    document = {
        "edges": [{"source": f"J{i:04d}", "target": "J0000", "weight": i / 7} for i in range(3000)]
    }
    tracemalloc.start()
    try:
        text = json_text(document)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * len(text)


# A DOT quoted string: any characters but '"', with backslash escapes.
_DOT_ID = r'"((?:[^"\\]|\\.)*)"'
_DOT_NODE = re.compile(rf"^  {_DOT_ID} \[width=[^\]]*\];$")
_DOT_EDGE = re.compile(rf"^  {_DOT_ID} -- {_DOT_ID} \[penwidth=[^\]]*\];$")


def _accepted(token):
    try:
        _validate_id(token)
    except ValueError:
        return False
    return True


class TestIds:
    @pytest.mark.parametrize("bad", ['A"x', "A\\x", "A x"])
    def test_unquotable_id_rejected_by_pajek_and_dot(self, bad):
        g = sim_graph(["A", bad], {("A", bad): 0.5})
        for exporter in (export_pajek, export_dot):
            with pytest.raises(ValueError, match="must not contain"):
                exporter(g, glyphs_for(["A", bad]))

    @given(
        st.lists(st.text(min_size=1, max_size=8).filter(_accepted),
                 min_size=2, max_size=4, unique=True)
    )
    def test_every_accepted_id_round_trips(self, ids):
        edges = {(ids[0], v): 0.5 for v in ids[1:]}
        g = sim_graph(ids, edges)
        glyphs = glyphs_for(ids)

        parsed = parse_pajek(export_pajek(g, glyphs))
        assert parsed.labels == tuple(ids)
        assert set(parsed.edges) == set(edges)

        lines = export_dot(g, glyphs).split("\n")
        nodes = [m.group(1) for m in map(_DOT_NODE.match, lines) if m]
        dot_edges = [m.groups() for m in map(_DOT_EDGE.match, lines) if m]
        assert nodes == ids
        assert set(dot_edges) == set(edges)

        document = json.loads(export_json(g, glyphs))
        assert [node["id"] for node in document["nodes"]] == ids
        assert {(e["source"], e["target"]) for e in document["edges"]} == set(edges)


def _row(journal, betweenness, degree_local, degree_in, degree_out):
    return CentralityRow(
        journal, degree_in, degree_out, degree_local, 0.0, betweenness, 0.0
    )


class TestReportTable:
    def test_row_rendering(self):
        report = CentralityReport(
            {
                "JEvolEcon": _row("JEvolEcon", 0.1587, 26, 41, 48),
                "EconJ": _row("EconJ", 0.1690, 24, 316, 118),
            },
            "local",
            "global",
        )
        text = report_table(report, {"JEvolEcon": 0.53, "EconJ": 1.44})
        lines = text.splitlines()
        assert lines[0] == "# local basis: local"
        assert lines[1] == "# global basis: global"
        assert lines[3].split() == ["EconJ", "16.90", "24", "316", "118", "1.44"]
        assert lines[4].split() == ["JEvolEcon", "15.87", "26", "41", "48", "0.53"]

    def test_sorted_by_three_keys_then_id(self):
        rows = {
            "D": _row("D", 0.5, 9, 0, 1),
            "C": _row("C", 0.5, 9, 0, 2),
            "B": _row("B", 0.5, 10, 0, 1),
            "A": _row("A", 0.4, 99, 0, 99),
            "E": _row("E", 0.5, 9, 0, 1),
        }
        report = CentralityReport(rows, "l", "g")
        ordered = [
            line.split()[0]
            for line in report_table(report).splitlines()[3:]
        ]
        assert ordered == ["B", "C", "D", "E", "A"]

    def test_all_zero_rows_sorted_lexicographically(self):
        rows = {j: _row(j, 0.0, 0, 0, 0) for j in ("zeta", "alpha", "mid")}
        report = CentralityReport(rows, "l", "g")
        ordered = [
            line.split()[0]
            for line in report_table(report).splitlines()[3:]
        ]
        assert ordered == ["alpha", "mid", "zeta"]

    def test_missing_impact_factor_renders_blank(self):
        report = CentralityReport(
            {
                "JEvolEcon": _row("JEvolEcon", 0.2, 1, 1, 1),
                "EconJ": _row("EconJ", 0.1, 1, 1, 1),
            },
            "l",
            "g",
        )
        text = report_table(report, {"EconJ": 1.44})
        row = next(line for line in text.splitlines() if line.startswith("JEvolEcon"))
        assert row.split() == ["JEvolEcon", "20.00", "1", "1", "1"]

    def test_deterministic(self):
        report = CentralityReport(
            {
                "JEvolEcon": _row("JEvolEcon", 0.2, 1, 1, 1),
                "EconJ": _row("EconJ", 0.1, 1, 1, 1),
            },
            "l",
            "g",
        )
        assert report_table(report) == report_table(report)
