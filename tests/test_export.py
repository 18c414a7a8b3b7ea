"""Tests for Pajek/DOT/JSON serialization, glyphs, and the report table."""

import dataclasses
import json
import math
import re
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

import citenet.matrix
from citenet import (
    CentralityReport,
    CentralityRow,
    Direction,
    Journal,
    SeedEnvironment,
    export_dot,
    export_json,
    export_pajek,
    extract_environment,
    parse_citation_csv,
    report_table,
    similarity_graph,
)
from citenet.export import json_text
from citenet.matrix import _validate_id
from oracles import matrix_of, parse_pajek, similarity_graph_of


def sim_graph(nodes, edges, threshold=0.2, totals=None):
    """A graph with *edges* over an environment of *nodes*, seeded at the first.

    Node j's ``(gross, net_of_self)`` citation totals are ``totals[j]``, by
    default ``(10, 7)``: the next node cites it net times and it cites itself
    gross - net times.
    """
    nodes = list(nodes)
    cells = {}
    for i, j in enumerate(nodes):
        gross, net = (totals or {}).get(j, (10, 7))
        cells[(nodes[(i + 1) % len(nodes)], j)] = net
        cells[(j, j)] = gross - net
    m = matrix_of(2005, [Journal(j, j) for j in nodes], cells)
    env = SeedEnvironment(nodes[0], Direction.CITED, 0.01, tuple(nodes), m)
    return similarity_graph_of(env, edges, threshold)


def written_glyphs(g):
    """``node -> (gross_cites, net_of_self, x_extent, y_extent)`` as export_json
    writes them, in node order, once the Pajek x_fact/y_fact are checked equal."""
    parsed = parse_pajek(export_pajek(g))
    glyphs = {}
    for node in json.loads(export_json(g))["nodes"]:
        extents = (node["x_extent"], node["y_extent"])
        assert (parsed.x_facts[node["id"]], parsed.y_facts[node["id"]]) == extents
        glyphs[node["id"]] = (node["gross_cites"], node["net_of_self"], *extents)
    return glyphs


class TestNodeGlyph:
    """The ellipse a node is drawn as, as the exporters write it."""

    def test_round_glyph_without_self_citations(self):
        glyphs = written_glyphs(sim_graph("JK", {}, totals={"J": (10, 10)}))
        _, _, x_extent, y_extent = glyphs["J"]
        assert x_extent == y_extent

    def test_all_self_citations_flattens_x(self):
        glyphs = written_glyphs(sim_graph("JK", {}, totals={"J": (10, 0)}))
        _, _, x_extent, y_extent = glyphs["J"]
        assert x_extent == 0.0
        assert y_extent > 0.0

    def test_log_extents(self):
        glyph = written_glyphs(sim_graph("JK", {}, totals={"J": (99, 9)}))["J"]
        assert glyph == (99, 9, 1.0, 2.0)

    def test_extents_monotone_in_counts(self):
        totals = {f"J{g:03d}": (g, g) for g in range(0, 200, 7)}
        glyphs = written_glyphs(sim_graph(totals, {}, totals=totals))
        extents = [y_extent for _, _, _, y_extent in glyphs.values()]
        assert extents == sorted(extents)
        assert extents[0] == 0.0  # zero-citation glyph still drawable

    def test_round_iff_no_self_cites(self):
        totals = {
            f"J{gross}_{net}": (gross, net)
            for gross in range(0, 30)
            for net in range(0, gross + 1)
        }
        glyphs = written_glyphs(sim_graph(totals, {}, totals=totals))
        assert [(gross, net) for gross, net, _, _ in glyphs.values()] == list(totals.values())
        for gross, net, x_extent, y_extent in glyphs.values():
            assert (x_extent == y_extent) == (net == gross)

    def test_make_glyphs_in_member_order(self):
        m = parse_citation_csv("A,A,4\nB,A,6\nA,S,60\nB,S,40", 2005)
        env = extract_environment(m, "S", Direction.CITED, 0.01)
        glyphs = written_glyphs(similarity_graph(env, 0.2))
        assert list(glyphs) == list(env.members)
        assert glyphs["A"][:2] == (10, 6)


class TestPajek:
    def test_edge_line_format(self):
        g = sim_graph("AB", {("A", "B"): 0.35})
        text = export_pajek(g)
        assert "1 2 0.3500\n" in text
        assert text.startswith("*Vertices 2\n")

    def test_empty_edge_set_keeps_header(self):
        g = sim_graph("AB", {})
        text = export_pajek(g)
        assert text.endswith("*Edges\n")

    def test_round_trip(self):
        totals = {"A": (99, 9), "B": (10, 10), "C": (0, 0)}
        g = sim_graph("ABC", {("A", "B"): 0.35, ("B", "C"): 1 / 3}, totals=totals)
        parsed = parse_pajek(export_pajek(g))
        assert parsed.labels == g.nodes
        for journal, (gross, net) in totals.items():
            assert parsed.x_facts[journal] == math.log10(1 + net)
            assert parsed.y_facts[journal] == math.log10(1 + gross)
        assert parsed.edges == {("A", "B"): 0.35, ("B", "C"): float(f"{1 / 3:.4f}")}

    def test_deterministic(self):
        g = sim_graph("ABC", {("A", "B"): 0.4, ("A", "C"): 0.7})
        assert export_pajek(g) == export_pajek(g)

    def test_lf_endings_only(self):
        g = sim_graph("AB", {("A", "B"): 0.5})
        assert "\r" not in export_pajek(g)


class TestDot:
    def test_triangle_has_exactly_three_edge_statements(self):
        g = sim_graph("ABC", {("A", "B"): 0.3, ("A", "C"): 0.4, ("B", "C"): 0.5})
        text = export_dot(g)
        assert text.count(" -- ") == 3

    def test_deterministic(self):
        g = sim_graph("ABC", {("B", "C"): 0.5, ("A", "B"): 0.3})
        assert export_dot(g) == export_dot(g)

    def test_penwidth_follows_weight(self):
        g = sim_graph("ABC", {("A", "B"): 0.3, ("B", "C"): 0.9})
        text = export_dot(g)
        assert "penwidth=1.5000" in text
        assert "penwidth=4.5000" in text

    def test_penwidth_strictly_increasing_in_weight(self):
        g = sim_graph("ABC", {("A", "B"): 0.3, ("A", "C"): 0.6, ("B", "C"): 0.9})
        statements = re.findall(
            r'"(\w)" -- "(\w)" \[penwidth=([0-9.]+)', export_dot(g)
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
        g = sim_graph("AB", {("A", "B"): 1 / 3}, totals={"A": (99, 9), "B": (7, 0)})
        document = json.loads(export_json(g, self._report()))
        assert document["edges"] == [{"source": "A", "target": "B", "weight": 1 / 3}]
        node_a = document["nodes"][0]
        assert (node_a["gross_cites"], node_a["net_of_self"]) == (99, 9)
        assert node_a["x_extent"] == math.log10(10)
        assert node_a["y_extent"] == math.log10(100)
        row_a = document["report"]["rows"][0]
        assert row_a["betweenness"] == 1 / 3
        assert row_a["eigenvector"] == 0.123456789012345

    def test_report_rows_hold_every_field_in_field_order(self):
        report = self._report()
        rows = json.loads(export_json(sim_graph("AB", {}), report))["report"]["rows"]
        assert rows == [dataclasses.asdict(row) for row in report]
        names = [field.name for field in dataclasses.fields(CentralityRow)]
        assert all(list(row) == names for row in rows)

    def test_report_optional(self):
        g = sim_graph("AB", {})
        document = json.loads(export_json(g))
        assert document["report"] is None
        assert document["basis"] == "cited"
        assert document["threshold"] == 0.2

    def test_deterministic(self):
        g = sim_graph("AB", {("A", "B"): 0.25})
        assert export_json(g, self._report()) == export_json(g, self._report())

    def test_same_edge_multiset_as_pajek(self):
        g = sim_graph("ABCD", {("A", "B"): 0.3, ("C", "D"): 0.8, ("A", "D"): 0.55})
        parsed = parse_pajek(export_pajek(g))
        document = json.loads(export_json(g))
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
    def test_unquotable_id_rejected_by_pajek_and_dot(self, bad, monkeypatch):
        # A matrix that took the id unchecked; the exporters check it again.
        with monkeypatch.context() as patch:
            patch.setattr(citenet.matrix, "_validate_id", str)
            g = sim_graph(["A", bad], {("A", bad): 0.5})
        for exporter in (export_pajek, export_dot):
            with pytest.raises(ValueError, match="must not contain"):
                exporter(g)

    @given(
        st.lists(st.text(min_size=1, max_size=8).filter(_accepted),
                 min_size=2, max_size=4, unique=True)
    )
    def test_every_accepted_id_round_trips(self, ids):
        edges = {(ids[0], v): 0.5 for v in ids[1:]}
        g = sim_graph(ids, edges)

        parsed = parse_pajek(export_pajek(g))
        assert parsed.labels == tuple(ids)
        assert set(parsed.edges) == set(edges)

        lines = export_dot(g).split("\n")
        nodes = [m.group(1) for m in map(_DOT_NODE.match, lines) if m]
        dot_edges = [m.groups() for m in map(_DOT_EDGE.match, lines) if m]
        assert nodes == ids
        assert set(dot_edges) == set(edges)

        document = json.loads(export_json(g))
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
