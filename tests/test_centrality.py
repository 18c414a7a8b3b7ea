"""Tests for degree, closeness, betweenness (fast vs oracle), eigenvector."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from citenet import (
    ConvergenceError,
    Graph,
    UnknownNodeError,
    betweenness_centrality,
    build_report,
    citation_degrees,
    closeness_centrality,
    degree_centrality,
    eigenvector_centrality,
    parse_citation_csv,
)
from oracles import brute_force_betweenness, geodesic_ledger


def undirected(nodes, pairs, weight=1.0):
    return Graph(nodes, {pair: weight for pair in pairs}, directed=False)


def star():
    return undirected("CABDE", [("C", leaf) for leaf in "ABDE"])


def path3():
    return undirected("ABC", [("A", "B"), ("B", "C")])


def cycle4():
    return undirected("ABCD", [("A", "B"), ("B", "C"), ("C", "D"), ("D", "A")])


def _reachable(g, source):
    seen = {source}
    stack = [source]
    while stack:
        for w in g.successors(stack.pop()):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen)


def random_graph(rng, n=None, density=None, directed=None):
    n = int(rng.integers(3, 9)) if n is None else n
    density = float(rng.uniform(0.2, 0.8)) if density is None else density
    directed = bool(rng.integers(0, 2)) if directed is None else directed
    nodes = [f"N{i}" for i in range(n)]
    edges = {}
    for i in range(n):
        for j in range(n):
            if i == j or (not directed and j < i):
                continue
            if rng.random() < density:
                edges[(nodes[i], nodes[j])] = float(rng.uniform(0.1, 1.0))
    return Graph(nodes, edges, directed=directed)


class TestGraph:
    def test_unknown_endpoint_rejected(self):
        with pytest.raises(ValueError, match="endpoint"):
            Graph(["A"], {("A", "B"): 1.0}, directed=True)

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            Graph(["A", "B"], {("A", "B"): 0.0}, directed=False)

    def test_duplicate_undirected_pair_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Graph(["A", "B"], {("A", "B"): 1.0, ("B", "A"): 2.0}, directed=False)

    def test_undirected_pair_stored_once_in_node_order(self):
        g = Graph(["A", "B"], {("B", "A"): 1.0}, directed=False)
        assert set(g.edges) == {("A", "B")}

    def test_from_citation_matrix_drops_self_loops(self):
        m = parse_citation_csv("A,B,5\nA,A,7", 2005)
        g = Graph.from_citation_matrix(m)
        assert g.directed
        assert set(g.edges) == {("A", "B")}
        assert ("A", "A") not in g.edges

    def test_from_citation_matrix_node_subset(self):
        m = parse_citation_csv("A,B,5\nB,C,2\nC,A,1", 2005)
        g = Graph.from_citation_matrix(m, nodes=["B", "A"])
        assert g.nodes == ("B", "A")
        assert set(g.edges) == {("A", "B")}
        with pytest.raises(UnknownNodeError):
            Graph.from_citation_matrix(m, nodes=["A", "nope"])


class TestDegree:
    def test_star_center(self):
        assert degree_centrality(star(), "C") == (4, 4)

    def test_isolated_node(self):
        g = Graph(["A", "B", "C"], {("A", "B"): 1.0}, directed=False)
        assert degree_centrality(g, "C") == (0, 0)

    def test_directed_counts(self):
        g = Graph("ABC", {("A", "B"): 1.0, ("C", "B"): 1.0}, directed=True)
        assert degree_centrality(g, "B") == (2, 0)
        assert degree_centrality(g, "A") == (0, 1)

    def test_unknown_node(self):
        with pytest.raises(UnknownNodeError):
            degree_centrality(star(), "missing")

    def test_adding_an_edge_never_decreases_degree_or_reachability(self):
        rng = np.random.default_rng(50)
        for _ in range(30):
            g = random_graph(rng)
            missing = [
                (u, v)
                for u in g.nodes
                for v in g.nodes
                if u != v and v not in g.successors(u)
            ]
            if not missing:
                continue
            u, v = missing[int(rng.integers(0, len(missing)))]
            edges = dict(g.edges)
            edges[(u, v)] = 1.0
            bigger = Graph(g.nodes, edges, directed=g.directed)
            for node in g.nodes:
                before, after = degree_centrality(g, node), degree_centrality(bigger, node)
                assert after[0] >= before[0] and after[1] >= before[1]
                assert _reachable(bigger, node) >= _reachable(g, node)


class TestCloseness:
    def test_path_middle(self):
        assert closeness_centrality(path3(), "B") == 1.0

    def test_path_end(self):
        assert closeness_centrality(path3(), "A") == pytest.approx(2 / 3)

    def test_complete_graph(self):
        nodes = "ABCD"
        g = undirected(
            nodes, [(u, v) for i, u in enumerate(nodes) for v in nodes[i + 1 :]]
        )
        for node in nodes:
            assert closeness_centrality(g, node) == 1.0

    def test_isolate_is_zero(self):
        g = Graph(["A", "B", "C"], {("A", "B"): 1.0}, directed=False)
        assert closeness_centrality(g, "C") == 0.0

    def test_reachable_set_formulation_on_disconnected_graph(self):
        g = Graph("ABCDE", {("A", "B"): 1.0, ("B", "C"): 1.0, ("D", "E"): 1.0},
                  directed=False)
        # B reaches A and C at distance 1 each; D/E are invisible to it
        assert closeness_centrality(g, "B") == 1.0
        assert closeness_centrality(g, "A") == pytest.approx(2 / 3)
        assert closeness_centrality(g, "D") == 1.0

    def test_directed_uses_outgoing_paths(self):
        g = Graph("ABC", {("A", "B"): 1.0, ("B", "C"): 1.0}, directed=True)
        assert closeness_centrality(g, "A") == pytest.approx(2 / 3)
        assert closeness_centrality(g, "C") == 0.0

    def test_needs_two_nodes(self):
        g = Graph(["A"], {}, directed=False)
        with pytest.raises(ValueError):
            closeness_centrality(g, "A")


class TestBetweennessFixtures:
    def test_star_center_and_leaves(self):
        values = betweenness_centrality(star())
        assert values["C"] == 1.0
        assert all(values[leaf] == 0.0 for leaf in "ABDE")

    def test_path_middle(self):
        assert betweenness_centrality(path3())["B"] == 1.0

    def test_four_cycle(self):
        values = betweenness_centrality(cycle4())
        for node in "ABCD":
            assert values[node] == pytest.approx(1 / 6, abs=1e-12)

    def test_directed_path(self):
        g = Graph("ABC", {("A", "B"): 1.0, ("B", "C"): 1.0}, directed=True)
        values = betweenness_centrality(g)
        assert values == {"A": 0.0, "B": 0.5, "C": 0.0}

    def test_directed_cycle(self):
        g = Graph(
            "ABCD",
            {("A", "B"): 1.0, ("B", "C"): 1.0, ("C", "D"): 1.0, ("D", "A"): 1.0},
            directed=True,
        )
        values = betweenness_centrality(g)
        for node in "ABCD":
            assert values[node] == pytest.approx(0.5, abs=1e-12)

    def test_small_graphs_are_zero(self):
        for g in (Graph(["A"], {}, directed=False),
                  Graph(["A", "B"], {("A", "B"): 1.0}, directed=False)):
            assert set(betweenness_centrality(g).values()) == {0.0}

    def test_disconnected_pairs_contribute_zero(self):
        g = Graph("ABCDE", {("A", "B"): 1.0, ("B", "C"): 1.0}, directed=False)
        values = betweenness_centrality(g)
        # B sits on the single geodesic of the only distant pair (A, C)
        assert values["B"] == pytest.approx(1 / 6, abs=1e-12)
        assert values["D"] == values["E"] == 0.0


class TestBruteForceOracle:
    def test_single_edge_both_zero(self):
        g = Graph(["A", "B"], {("A", "B"): 1.0}, directed=False)
        assert brute_force_betweenness(g) == {"A": 0.0, "B": 0.0}

    def test_four_cycle_matches_hand_enumeration(self):
        values = brute_force_betweenness(cycle4())
        for node in "ABCD":
            assert values[node] == pytest.approx(1 / 6, abs=1e-12)

    def test_oracle_scale_limit(self):
        nodes = [f"N{i}" for i in range(65)]
        g = Graph(nodes, {(nodes[0], nodes[1]): 1.0}, directed=False)
        with pytest.raises(ValueError, match="64"):
            brute_force_betweenness(g)

    def test_fast_equals_oracle_on_random_graphs(self):
        rng = np.random.default_rng(51)
        for _ in range(150):
            g = random_graph(rng)
            fast = betweenness_centrality(g)
            slow = brute_force_betweenness(g)
            for node in g.nodes:
                assert fast[node] == pytest.approx(slow[node], abs=1e-9)

    def test_raw_sum_matches_ledger_interior_positions(self):
        rng = np.random.default_rng(52)
        for _ in range(50):
            g = random_graph(rng, directed=False)
            n = len(g)
            norm = (n - 1) * (n - 2) / 2
            raw_total = sum(betweenness_centrality(g).values()) * norm
            ledger_total = sum(
                sum(pair.through.values()) / pair.count
                for pair in geodesic_ledger(g).values()
            )
            assert raw_total == pytest.approx(ledger_total, abs=1e-9)


class TestInvariances:
    def test_relabeling_leaves_values_unchanged(self):
        rng = np.random.default_rng(53)
        for _ in range(30):
            g = random_graph(rng)
            permuted = list(g.nodes)
            rng.shuffle(permuted)
            mapping = dict(zip(g.nodes, permuted))
            relabeled = Graph(
                [mapping[v] for v in g.nodes],
                {(mapping[u], mapping[v]): w for (u, v), w in g.edges.items()},
                directed=g.directed,
            )
            original_b = betweenness_centrality(g)
            relabeled_b = betweenness_centrality(relabeled)
            for node in g.nodes:
                assert relabeled_b[mapping[node]] == pytest.approx(
                    original_b[node], abs=1e-12
                )
                assert closeness_centrality(relabeled, mapping[node]) == pytest.approx(
                    closeness_centrality(g, node), abs=1e-12
                )

    def test_weight_scaling_leaves_hop_measures_and_eigenvector_unchanged(self):
        rng = np.random.default_rng(54)
        for _ in range(10):
            g = random_graph(rng, directed=False)
            if not g.edges:
                continue
            scaled = Graph(
                g.nodes,
                {pair: 7.5 * w for pair, w in g.edges.items()},
                directed=False,
            )
            assert betweenness_centrality(g) == betweenness_centrality(scaled)
            base_eig = eigenvector_centrality(g)
            scaled_eig = eigenvector_centrality(scaled)
            for node in g.nodes:
                assert scaled_eig[node] == pytest.approx(base_eig[node], abs=1e-8)
                assert closeness_centrality(scaled, node) == closeness_centrality(g, node)


class TestEigenvector:
    def test_two_nodes_one_edge(self):
        g = Graph(["A", "B"], {("A", "B"): 1.0}, directed=False)
        values = eigenvector_centrality(g)
        expected = math.sqrt(2) / 2
        assert values["A"] == pytest.approx(expected, abs=1e-6)
        assert values["B"] == pytest.approx(expected, abs=1e-6)

    def test_star_loadings(self):
        values = eigenvector_centrality(star())
        assert values["C"] == pytest.approx(2 / math.sqrt(8), abs=1e-6)
        for leaf in "ABDE":
            assert values[leaf] == pytest.approx(1 / math.sqrt(8), abs=1e-6)

    def test_cycle_loadings_equal(self):
        values = eigenvector_centrality(cycle4())
        assert all(v == pytest.approx(0.5, abs=1e-6) for v in values.values())

    def test_unit_norm_and_nonnegative(self):
        rng = np.random.default_rng(55)
        for _ in range(20):
            g = random_graph(rng)
            if not g.edges:
                continue
            values = np.array(list(eigenvector_centrality(g).values()))
            assert np.all(values >= 0)
            assert np.linalg.norm(values) == pytest.approx(1.0, abs=1e-9)

    def test_eigen_relation_with_rayleigh_quotient(self):
        rng = np.random.default_rng(56)
        for _ in range(20):
            g = random_graph(rng, directed=False)
            if not g.edges:
                continue
            n = len(g)
            index = {node: i for i, node in enumerate(g.nodes)}
            adjacency = np.zeros((n, n))
            for (u, v), w in g.edges.items():
                if u == v:
                    adjacency[index[u], index[u]] = w
                else:
                    adjacency[index[u], index[v]] = w
                    adjacency[index[v], index[u]] = w
            vector = np.array([eigenvector_centrality(g)[node] for node in g.nodes])
            lam = vector @ adjacency @ vector
            residual = np.linalg.norm(adjacency @ vector - lam * vector)
            assert residual / np.linalg.norm(vector) <= 1e-8

    def test_no_edges_rejected(self):
        g = Graph(["A", "B"], {}, directed=False)
        with pytest.raises(ValueError, match="edge"):
            eigenvector_centrality(g)

    def test_non_convergence_reports_iterations(self):
        with pytest.raises(ConvergenceError, match="1 iteration") as excinfo:
            eigenvector_centrality(star(), max_iter=1)
        assert excinfo.value.iterations == 1

    def test_deterministic_across_runs(self):
        g = star()
        assert eigenvector_centrality(g) == eigenvector_centrality(g)


def reference_eigenvector(g, *, tol=1e-10, max_iter=10_000):
    """Power iteration on A + I with A @ x summed row by row in column order.

    Each row's sum starts from 0.0, as in a CSR matrix-vector product; the
    shipped kernel must give bit-identical loadings.
    """
    n = len(g)
    index = {node: i for i, node in enumerate(g.nodes)}
    rows = [{} for _ in range(n)]
    for (u, v), weight in g.edges.items():
        i, j = index[u], index[v]
        rows[i][j] = rows[i].get(j, 0.0) + weight
        if i != j:
            rows[j][i] = rows[j].get(i, 0.0) + weight
    vector = np.full(n, 1.0 / np.sqrt(n))
    for _ in range(max_iter):
        candidate = []
        for i in range(n):
            acc = 0.0
            for j in sorted(rows[i]):
                acc += rows[i][j] * vector[j]
            candidate.append(acc + vector[i])
        candidate = np.array(candidate)
        candidate /= np.linalg.norm(candidate)
        step = float(np.linalg.norm(candidate - vector))
        vector = candidate
        if step <= tol:
            break
    else:
        raise ConvergenceError(max_iter, step)
    if vector.sum() < 0:
        vector = -vector
    return {node: float(vector[i]) for i, node in enumerate(g.nodes)}


@st.composite
def weighted_graphs(draw):
    """Undirected graphs, or directed ones with both edge directions, with
    self-loops and weights from cosines to raw counts."""
    nodes = [f"N{i}" for i in range(draw(st.integers(1, 7)))]
    directed = draw(st.booleans())
    weight = st.one_of(
        st.floats(1e-3, 1.0), st.integers(1, 10**6).map(float), st.just(1.0)
    )
    pairs = st.tuples(st.sampled_from(nodes), st.sampled_from(nodes))
    edges = draw(st.dictionaries(pairs, weight, min_size=1, max_size=20))
    if not directed:
        edges = {tuple(sorted(pair)): w for pair, w in edges.items()}
    return Graph(nodes, edges, directed=directed)


@given(weighted_graphs())
@settings(max_examples=150, deadline=None)
def test_eigenvector_is_bit_identical_to_the_row_order_reference(g):
    try:
        expected = reference_eigenvector(g, max_iter=2_000)
    except ConvergenceError as exc:
        with pytest.raises(ConvergenceError) as excinfo:
            eigenvector_centrality(g, max_iter=2_000)
        assert str(excinfo.value) == str(exc)
        assert excinfo.value.residual == exc.residual
        return
    assert eigenvector_centrality(g, max_iter=2_000) == expected


@st.composite
def hop_graphs(draw):
    """Directed or undirected unit-weight graphs of 1-25 nodes, self-loops
    and disconnected graphs included."""
    n = draw(st.integers(1, 25))
    nodes = [f"N{i}" for i in range(n)]
    directed = draw(st.booleans())
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=60))
    edges = {}
    for i, j in pairs:
        if not directed and i > j:
            i, j = j, i
        edges[(nodes[i], nodes[j])] = 1.0
    return Graph(nodes, edges, directed=directed)


def reference_closeness(g, source):
    """Closeness from a level-by-level BFS over the outgoing edges in g.edges."""
    out = {node: set() for node in g.nodes}
    for u, v in g.edges:
        if u != v:
            out[u].add(v)
            if not g.directed:
                out[v].add(u)
    dist = {source: 0}
    frontier = {source}
    level = 0
    while frontier:
        level += 1
        frontier = {w for v in frontier for w in out[v] if w not in dist}
        dist.update(dict.fromkeys(frontier, level))
    reachable = len(dist) - 1
    return reachable / sum(dist.values()) if reachable else 0.0


@given(hop_graphs())
@settings(max_examples=300, deadline=None)
def test_report_rows_equal_the_public_measures_and_the_references(g):
    report = build_report(g)
    betweenness = betweenness_centrality(g)
    oracle = brute_force_betweenness(g)
    for node in g.nodes:
        row = report.rows[node]
        assert row.betweenness == betweenness[node]
        assert row.betweenness == pytest.approx(oracle[node], abs=1e-9)
        assert row.closeness == reference_closeness(g, node)
        if len(g) >= 2:
            assert row.closeness == closeness_centrality(g, node)


class TestReport:
    def test_combines_local_and_global_measures(self):
        m = parse_citation_csv(
            "A,S,50\nB,S,50\nA,B,5\nB,A,5\nS,A,2\nX,A,9\nA,X,3", 2005
        )
        local = Graph("SAB", {("S", "A"): 0.9, ("S", "B"): 0.5}, directed=False)
        report = build_report(
            local, citation_degrees(m), local_basis="sim", global_basis="full matrix"
        )
        row = report.rows["A"]
        assert row.degree_local == 1
        assert row.degree_in == 3  # cited by B, S, X
        assert row.degree_out == 3  # cites S, B, X
        assert report.local_basis == "sim"
        assert report.global_basis == "full matrix"

    def test_zero_eigenvector_when_no_edges(self):
        local = Graph("SAB", {}, directed=False)
        report = build_report(local)
        assert all(row.eigenvector == 0.0 for row in report)

    def test_local_graph_doubles_as_global_when_absent(self):
        local = Graph("AB", {("A", "B"): 1.0}, directed=False)
        report = build_report(local, local_basis="only")
        assert report.global_basis == "only"
        assert report.rows["A"].degree_in == 1
