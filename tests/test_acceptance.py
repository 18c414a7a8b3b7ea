"""Acceptance suite: one test per release criterion, at pinned tolerances.

Run with ``pytest -s tests/test_acceptance.py`` to see a pass/fail line per
criterion.  Each criterion is self-contained: fixtures are built inline and
checked against independent expectations (hand enumeration, explicit geodesic
search, or golden files), never against the code path under test.
"""

import functools
import json
import time
from pathlib import Path

import numpy as np

from citenet import (
    CentralityReport,
    CentralityRow,
    CitationMatrix,
    Direction,
    Graph,
    Journal,
    build_report,
    eigenvector_centrality,
    export_json,
    export_pajek,
    extract_environment,
    h_index,
    impact_factor,
    make_glyphs,
    merge_indices,
    parse_citation_csv,
    quasi_impact_factor,
    report_table,
    similarity_graph,
)
from citenet.centrality import _sweep
from oracles import brute_force_betweenness, cosine, pearson, restricted_matrix

DATA_DIR = Path(__file__).parent / "data"


def criterion(number, description):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"[FAIL] criterion {number}: {description}")
                raise
            print(f"[PASS] criterion {number}: {description}")
            return result

        return run

    return wrap


def _random_graph(rng):
    n = int(rng.integers(3, 9))
    density = float(rng.uniform(0.2, 0.8))
    directed = bool(rng.integers(0, 2))
    nodes = [f"N{i}" for i in range(n)]
    edges = {}
    for i in range(n):
        for j in range(n):
            if i == j or (not directed and j < i):
                continue
            if rng.random() < density:
                edges[(nodes[i], nodes[j])] = float(rng.uniform(0.1, 1.0))
    return Graph(nodes, edges, directed=directed)


@criterion(1, "betweenness equals brute-force enumeration on 500 random graphs")
def test_betweenness_oracle_equivalence():
    rng = np.random.default_rng(2005)
    start = time.perf_counter()
    for _ in range(500):
        g = _random_graph(rng)
        fast = _sweep(g)[0]
        slow = brute_force_betweenness(g)
        for node in g.nodes:
            assert abs(fast[node] - slow[node]) <= 1e-9, (g.nodes, node)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"oracle sweep took {elapsed:.1f}s"


@criterion(2, "analytic fixtures: star/path/cycle betweenness, closeness, eigenvector")
def test_analytic_fixtures():
    star = Graph("CABDE", {("C", leaf): 1.0 for leaf in "ABDE"}, directed=False)
    p3 = Graph("ABC", {("A", "B"): 1.0, ("B", "C"): 1.0}, directed=False)
    c4 = Graph(
        "ABCD",
        {("A", "B"): 1.0, ("B", "C"): 1.0, ("C", "D"): 1.0, ("D", "A"): 1.0},
        directed=False,
    )
    complete = Graph(
        "ABCD",
        {(u, v): 1.0 for i, u in enumerate("ABCD") for v in "ABCD"[i + 1 :]},
        directed=False,
    )

    star_b = _sweep(star)[0]
    assert star_b["C"] == 1.0
    assert all(star_b[leaf] == 0.0 for leaf in "ABDE")
    p3_b, p3_c = _sweep(p3)
    assert p3_b["B"] == 1.0
    for value in _sweep(c4)[0].values():
        assert abs(value - 1 / 6) <= 1e-12

    assert p3_c["B"] == 1.0
    assert abs(p3_c["A"] - 2 / 3) <= 1e-12
    assert _sweep(complete)[1] == dict.fromkeys("ABCD", 1.0)

    star_e = eigenvector_centrality(star)
    assert abs(star_e["C"] - 0.7071067811865476) <= 1e-6
    for leaf in "ABDE":
        assert abs(star_e[leaf] - 0.35355339059327373) <= 1e-6


@criterion(3, "cosine properties on 1000 random pairs plus divergence fixtures")
def test_cosine_properties():
    assert cosine((1, 1, 0), (1, 0, 1)) == 0.5
    assert pearson((1, 1, 0), (1, 0, 1)) == -0.5

    rng = np.random.default_rng(42)
    for _ in range(1000):
        n = int(rng.integers(2, 16))
        x = rng.uniform(0.0, 10.0, size=n).tolist()
        y = rng.uniform(0.0, 10.0, size=n).tolist()
        if not any(x):
            x[0] = 1.0
        if not any(y):
            y[0] = 1.0
        value = cosine(x, y)
        assert value == cosine(y, x)
        assert 0.0 <= value <= 1.0
        lam = float(rng.uniform(0.01, 100.0))
        assert abs(cosine([lam * v for v in x], y) - value) <= 1e-9

        ints = rng.integers(0, 50, size=int(rng.integers(1, 12))).tolist()
        if not any(ints):
            ints[0] = 1
        scale = int(rng.integers(1, 9))
        assert cosine(ints, [scale * v for v in ints]) == 1.0


@criterion(4, "environment: strict 1% threshold, monotone, idempotent")
def test_environment_semantics():
    exact = parse_citation_csv("A,S,1\nB,S,99", 2005)
    env = extract_environment(exact, "S", Direction.CITED, 0.01)
    assert "A" not in env.members  # exactly 1% is excluded

    above = parse_citation_csv("A,S,101\nB,S,9899", 2005)
    env = extract_environment(above, "S", Direction.CITED, 0.01)
    assert "A" in env.members  # 1.01% is included
    at_boundary = parse_citation_csv("A,S,100\nB,S,9900", 2005)
    env = extract_environment(at_boundary, "S", Direction.CITED, 0.01)
    assert "A" not in env.members

    rng = np.random.default_rng(7)
    for _ in range(25):
        rows = [f"J{i},S,{int(rng.integers(1, 60))}" for i in range(15)]
        for i in range(15):
            for j in range(15):
                if rng.random() < 0.2:
                    rows.append(f"J{i},J{j},{int(rng.integers(1, 9))}")
        m = parse_citation_csv("\n".join(rows), 2005)
        previous = None
        for threshold in (0.005, 0.02, 0.05, 0.2):
            members = set(extract_environment(m, "S", Direction.CITED, threshold).members)
            if previous is not None:
                assert members <= previous
            previous = members
        env = extract_environment(m, "S", Direction.CITED, 0.01)
        again = extract_environment(restricted_matrix(m, env.members), "S", Direction.CITED, 0.01)
        assert again.members == env.members


@criterion(5, "merging 6088- and 1747-journal indices with 301 shared gives 7534")
def test_merge_count_identity():
    rng = np.random.default_rng(301)
    shared = [f"S{i:04d}" for i in range(301)]
    sci_ids = [f"A{i:04d}" for i in range(6088 - 301)] + shared
    ssci_ids = [f"B{i:04d}" for i in range(1747 - 301)] + shared

    def cells_for(ids, count):
        chosen = rng.choice(len(ids), size=(count, 2))
        return {
            (ids[int(u)], ids[int(v)]): int(rng.integers(1, 30)) for u, v in chosen
        }

    start = time.perf_counter()
    sci = CitationMatrix(2005, [Journal(i, i) for i in sci_ids], cells_for(sci_ids, 5000))
    ssci = CitationMatrix(
        2005, [Journal(i, i) for i in ssci_ids], cells_for(ssci_ids, 5000)
    )
    merged = merge_indices(sci, ssci)
    elapsed = time.perf_counter() - start
    assert len(merged) == 7534
    assert len(merged) == len(sci) + len(ssci) - 301
    assert elapsed < 5.0, f"merge took {elapsed:.1f}s"


@criterion(6, "impact factor fixtures 0.6 and 1.26; quasi <= IF on 1000 inputs")
def test_metrics():
    assert impact_factor(30, 30, 50, 50) == 0.6
    assert impact_factor(63, 63, 50, 50) == 1.26
    assert quasi_impact_factor(30, 30, 50, 50, 5, 5) == 0.5

    rng = np.random.default_rng(8)
    for _ in range(1000):
        c1, c2 = int(rng.integers(0, 400)), int(rng.integers(0, 400))
        n1, n2 = int(rng.integers(0, 150)), int(rng.integers(1, 150))
        s1, s2 = int(rng.integers(0, c1 + 1)), int(rng.integers(0, c2 + 1))
        assert quasi_impact_factor(c1, c2, n1, n2, s1, s2) <= impact_factor(c1, c2, n1, n2)

    assert h_index([10, 8, 5, 4, 3]) == 4
    assert h_index([]) == 0
    assert h_index([1, 1, 1]) == 1


@criterion(7, "report table reproduces the two-journal golden file byte-for-byte")
def test_report_table_golden():
    rows = {
        "JEvolEcon": CentralityRow("JEvolEcon", 41, 48, 26, 0.0, 0.1587, 0.0),
        "EconJ": CentralityRow("EconJ", 316, 118, 24, 0.0, 0.1690, 0.0),
    }
    report = CentralityReport(
        rows,
        "similarity graph (cited, cosine > 0.2, seed JEvolEcon)",
        "citation matrix 2005 (7534 journals)",
    )
    text = report_table(report, {"JEvolEcon": 0.53, "EconJ": 1.44})
    golden = (DATA_DIR / "report_table_golden.txt").read_bytes()
    assert text.encode("utf-8") == golden


def _reparse_pajek(text):
    """Minimal independent .net reader (labels contain no whitespace)."""
    lines = text.splitlines()
    count = int(lines[0].split()[1])
    labels, x_facts, y_facts = [], {}, {}
    for line in lines[1 : 1 + count]:
        parts = line.split(" ")
        assert parts[2] == "x_fact" and parts[4] == "y_fact", line
        label = parts[1].strip('"')
        labels.append(label)
        x_facts[label] = float(parts[3])
        y_facts[label] = float(parts[5])
    assert lines[1 + count] == "*Edges"
    edges = {}
    for line in lines[2 + count :]:
        i, j, w = line.split(" ")
        edges[(labels[int(i) - 1], labels[int(j) - 1])] = float(w)
    return labels, x_facts, y_facts, edges


@criterion(8, "Pajek and JSON exports round-trip exactly and deterministically")
def test_export_round_trips():
    m = parse_citation_csv(
        "A,S,50\nB,S,30\nC,S,19\nA,A,9\nA,B,5\nB,A,5\nC,B,3\nS,A,2\nB,B,1", 2005
    )
    env = extract_environment(m, "S", Direction.CITED, 0.01)
    graph = similarity_graph(env, 0.0)
    assert graph.edges, "fixture must produce edges"
    glyphs = make_glyphs(env)
    report = build_report(graph, m)

    pajek = export_pajek(graph, glyphs)
    assert pajek == export_pajek(graph, glyphs)
    labels, x_facts, y_facts, edges = _reparse_pajek(pajek)
    assert tuple(labels) == graph.nodes
    for glyph in glyphs:
        assert x_facts[glyph.journal] == glyph.x_extent
        assert y_facts[glyph.journal] == glyph.y_extent
    assert edges == {pair: float(f"{w:.4f}") for pair, w in graph.edges.items()}

    text = export_json(graph, glyphs, report)
    assert text == export_json(graph, glyphs, report)
    document = json.loads(text)
    assert [node["id"] for node in document["nodes"]] == list(graph.nodes)
    for node, glyph in zip(document["nodes"], glyphs):
        assert node["x_extent"] == glyph.x_extent
        assert node["y_extent"] == glyph.y_extent
    assert {
        (edge["source"], edge["target"]): edge["weight"]
        for edge in document["edges"]
    } == dict(graph.edges)
    for row in document["report"]["rows"]:
        original = report.rows[row["journal"]]
        assert row["betweenness"] == original.betweenness
        assert row["eigenvector"] == original.eigenvector
        assert row["closeness"] == original.closeness


def _synthetic_edge_csv(rng, n_journals=7534, n_cells=500_000, contributors=45):
    ids = [f"J{i:04d}" for i in range(n_journals)]
    pairs = rng.integers(0, n_journals, size=(n_cells, 2))
    counts = rng.integers(1, 20, size=n_cells)
    lines = [f"{ids[u]},{ids[v]},{c}" for (u, v), c in zip(pairs, counts)]
    # Guarantee a meaningful environment around the seed J0000: a cluster of
    # journals citing the seed heavily and exchanging citations among
    # themselves (duplicates with the uniform background simply sum).
    for i in range(1, contributors + 1):
        lines.append(f"{ids[i]},J0000,400")
        for j in rng.integers(0, contributors + 1, size=8):
            if int(j) != i:
                lines.append(f"{ids[i]},{ids[int(j)]},{int(rng.integers(1, 30))}")
    return "\n".join(lines)


@criterion(9, "full pipeline on a 7534-journal matrix in <60s; 200-node betweenness <1s")
def test_performance():
    rng = np.random.default_rng(7534)
    csv_text = _synthetic_edge_csv(rng)

    start = time.perf_counter()
    m = parse_citation_csv(csv_text, 2005)
    env = extract_environment(m, "J0000", Direction.CITED, 0.01)
    graph = similarity_graph(env, 0.2)
    report = build_report(graph, m)
    glyphs = make_glyphs(env)
    pajek = export_pajek(graph, glyphs)
    document = export_json(graph, glyphs, report)
    elapsed = time.perf_counter() - start

    assert len(m) == 7534
    assert len(env.members) > 20
    assert pajek and document
    assert elapsed < 60.0, f"pipeline took {elapsed:.1f}s"

    nodes = [f"V{i}" for i in range(200)]
    edges = {}
    for i in range(200):
        for j in range(i + 1, 200):
            if rng.random() < 0.1:
                edges[(nodes[i], nodes[j])] = float(rng.uniform(0.2001, 1.0))
    thresholded = Graph(nodes, edges, directed=False)
    start = time.perf_counter()
    values = _sweep(thresholded)[0]
    elapsed = time.perf_counter() - start
    assert len(values) == 200
    assert elapsed < 1.0, f"200-node betweenness took {elapsed:.2f}s"
