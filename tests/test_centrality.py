"""Tests for degree, closeness, betweenness (fast vs oracle), eigenvector."""

import math
import pickle
import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import citenet.centrality
from citenet import (
    CitationMatrix,
    ConvergenceError,
    Graph,
    Journal,
    UnknownJournalError,
    build_report,
    eigenvector_centrality,
    parse_citation_csv,
)
from citenet.centrality import _sweep
from oracles import (
    brute_force_betweenness,
    degree_centrality,
    geodesic_ledger,
    neighbours,
    reference_sweep,
)


def betweenness_of(g):
    return _sweep(g)[0]


def closeness_of(g):
    return _sweep(g)[1]


def edgeless_matrix(nodes):
    """A citation matrix of *nodes* without cells: every global degree is (0, 0)."""
    return CitationMatrix(2005, [Journal(node, node) for node in nodes], {})


def undirected(nodes, pairs, weight=1.0):
    return Graph(nodes, {pair: weight for pair in pairs}, directed=False)


def star():
    return undirected("CABDE", [("C", leaf) for leaf in "ABDE"])


def path3():
    return undirected("ABC", [("A", "B"), ("B", "C")])


def cycle4():
    return undirected("ABCD", [("A", "B"), ("B", "C"), ("C", "D"), ("D", "A")])


def _reachable(g, source):
    succ = neighbours(g)[0]
    seen = {source}
    stack = [source]
    while stack:
        for w in succ[stack.pop()]:
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


MATRIX_IDS = ["A", "B", "C", "D", "E", "F"]


class TestGraph:
    def test_unknown_endpoint_rejected(self):
        with pytest.raises(ValueError, match="endpoint"):
            Graph(["A"], {("A", "B"): 1.0}, directed=True)

    def test_nonpositive_weight_rejected(self):
        for weight in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="positive and finite"):
                Graph(["A", "B"], {("A", "B"): weight}, directed=False)

    def test_duplicate_undirected_pair_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Graph(["A", "B"], {("A", "B"): 1.0, ("B", "A"): 2.0}, directed=False)

    def test_undirected_pair_stored_once_in_node_order(self):
        g = Graph(["A", "B"], {("B", "A"): 1.0}, directed=False)
        assert set(g.edges) == {("A", "B")}

    def test_edges_are_read_only(self):
        # A written edge would reach the eigenvector adjacency but not the BFS.
        g = path3()
        with pytest.raises(TypeError):
            g.edges[("A", "C")] = 5.0
        assert dict(g.edges) == {("A", "B"): 1.0, ("B", "C"): 1.0}

    def test_edges_list_in_node_order_whatever_the_mapping_order(self):
        rng = np.random.default_rng(57)
        for _ in range(30):
            g = random_graph(rng)
            items = list(g.edges.items())
            rng.shuffle(items)
            if not g.directed:
                # Undirected keys may name either endpoint first.
                items = [((v, u) if rng.random() < 0.5 else (u, v), w) for (u, v), w in items]
            shuffled = Graph(g.nodes, dict(items), directed=g.directed)
            assert list(shuffled.edges.items()) == list(g.edges.items())
            index = {node: i for i, node in enumerate(g.nodes)}
            order = [(index[u], index[v]) for u, v in shuffled.edges]
            assert order == sorted(order)

    def test_weights_come_back_as_floats(self):
        g = Graph("AB", {("B", "A"): 2}, directed=False)
        assert list(g.edges.items()) == [(("A", "B"), 2.0)]
        assert type(g.edges[("A", "B")]) is float

    def test_edges_are_built_once(self, monkeypatch):
        g = random_graph(np.random.default_rng(58), n=30, density=0.5)
        edges = g.edges
        monkeypatch.setattr(citenet.centrality, "_row_ids", _no_rebuild)
        for pair, weight in edges.items():
            assert g.edges[pair] == weight
        assert g.edges is edges

    def test_from_citation_matrix_drops_self_loops(self):
        m = parse_citation_csv("A,B,5\nA,A,7", 2005)
        g = Graph.from_citation_matrix(m, sorted(m.journals))
        assert g.directed
        assert set(g.edges) == {("A", "B")}
        assert ("A", "A") not in g.edges

    def test_from_citation_matrix_node_subset(self):
        m = parse_citation_csv("A,B,5\nB,C,2\nC,A,1", 2005)
        g = Graph.from_citation_matrix(m, nodes=["B", "A"])
        assert g.nodes == ("B", "A")
        assert set(g.edges) == {("A", "B")}
        with pytest.raises(UnknownJournalError):
            Graph.from_citation_matrix(m, nodes=["A", "nope"])

    def test_from_citation_matrix_reads_an_iterator_once(self):
        m = parse_citation_csv("A,B,5\nB,C,2\nC,A,1", 2005)
        listed = Graph.from_citation_matrix(m, ["C", "A", "B"])
        read = Graph.from_citation_matrix(m, iter(["C", "A", "B"]))
        assert read.nodes == listed.nodes == ("C", "A", "B")
        assert read.edges == listed.edges and len(read.edges) == 3
        with pytest.raises(UnknownJournalError):
            Graph.from_citation_matrix(m, iter(["A", "nope"]))

    @settings(max_examples=150, deadline=None)
    @given(
        cells=st.dictionaries(
            st.tuples(st.sampled_from(MATRIX_IDS), st.sampled_from(MATRIX_IDS)),
            st.integers(1, 9),
            max_size=30,
        ),
        order=st.permutations(MATRIX_IDS),
        size=st.integers(0, len(MATRIX_IDS)),
    )
    def test_from_citation_matrix_reads_the_cells_among_the_nodes(self, cells, order, size):
        m = CitationMatrix(2005, [Journal(j, j) for j in MATRIX_IDS], cells)
        nodes = order[:size]
        place = {node: i for i, node in enumerate(nodes)}
        expected = sorted(
            ((place[u], place[v]), (u, v), float(count))
            for (u, v), count in m.cells.items()
            if u in place and v in place and u != v
        )
        g = Graph.from_citation_matrix(m, nodes)
        assert g.directed and g.nodes == tuple(nodes)
        assert list(g.edges.items()) == [(pair, count) for _, pair, count in expected]
        with pytest.raises(UnknownJournalError):
            Graph.from_citation_matrix(m, [*nodes, "nope"])
        if nodes:
            with pytest.raises(ValueError, match="duplicate"):
                Graph.from_citation_matrix(m, [*nodes, nodes[-1]])


def _no_rebuild(*args):
    raise AssertionError("the edge mapping was rebuilt")


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

    def test_adding_an_edge_never_decreases_degree_or_reachability(self):
        rng = np.random.default_rng(50)
        for _ in range(30):
            g = random_graph(rng)
            succ = neighbours(g)[0]
            missing = [(u, v) for u in g.nodes for v in g.nodes if u != v and v not in succ[u]]
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
        assert closeness_of(path3())["B"] == 1.0

    def test_path_end(self):
        assert closeness_of(path3())["A"] == pytest.approx(2 / 3)

    def test_complete_graph(self):
        nodes = "ABCD"
        g = undirected(
            nodes, [(u, v) for i, u in enumerate(nodes) for v in nodes[i + 1 :]]
        )
        assert closeness_of(g) == dict.fromkeys(nodes, 1.0)

    def test_isolate_is_zero(self):
        g = Graph(["A", "B", "C"], {("A", "B"): 1.0}, directed=False)
        assert closeness_of(g)["C"] == 0.0

    def test_reachable_set_formulation_on_disconnected_graph(self):
        g = Graph("ABCDE", {("A", "B"): 1.0, ("B", "C"): 1.0, ("D", "E"): 1.0},
                  directed=False)
        closeness = closeness_of(g)
        # B reaches A and C at distance 1 each; D/E are invisible to it
        assert closeness["B"] == 1.0
        assert closeness["A"] == pytest.approx(2 / 3)
        assert closeness["D"] == 1.0

    def test_directed_uses_outgoing_paths(self):
        g = Graph("ABC", {("A", "B"): 1.0, ("B", "C"): 1.0}, directed=True)
        closeness = closeness_of(g)
        assert closeness["A"] == pytest.approx(2 / 3)
        assert closeness["C"] == 0.0


class TestBetweennessFixtures:
    def test_star_center_and_leaves(self):
        values = betweenness_of(star())
        assert values["C"] == 1.0
        assert all(values[leaf] == 0.0 for leaf in "ABDE")

    def test_path_middle(self):
        assert betweenness_of(path3())["B"] == 1.0

    def test_four_cycle(self):
        values = betweenness_of(cycle4())
        for node in "ABCD":
            assert values[node] == pytest.approx(1 / 6, abs=1e-12)

    def test_directed_path(self):
        g = Graph("ABC", {("A", "B"): 1.0, ("B", "C"): 1.0}, directed=True)
        values = betweenness_of(g)
        assert values == {"A": 0.0, "B": 0.5, "C": 0.0}

    def test_directed_cycle(self):
        g = Graph(
            "ABCD",
            {("A", "B"): 1.0, ("B", "C"): 1.0, ("C", "D"): 1.0, ("D", "A"): 1.0},
            directed=True,
        )
        values = betweenness_of(g)
        for node in "ABCD":
            assert values[node] == pytest.approx(0.5, abs=1e-12)

    def test_small_graphs_are_zero(self):
        for g in (Graph(["A"], {}, directed=False),
                  Graph(["A", "B"], {("A", "B"): 1.0}, directed=False)):
            assert set(betweenness_of(g).values()) == {0.0}

    def test_disconnected_pairs_contribute_zero(self):
        g = Graph("ABCDE", {("A", "B"): 1.0, ("B", "C"): 1.0}, directed=False)
        values = betweenness_of(g)
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
            fast = betweenness_of(g)
            slow = brute_force_betweenness(g)
            for node in g.nodes:
                assert fast[node] == pytest.approx(slow[node], abs=1e-9)

    @pytest.mark.parametrize("directed", [True, False])
    def test_oracles_do_not_walk_the_sweeps_hop_adjacency(self, monkeypatch, directed):
        # With one entry dropped from the adjacency the sweep walks, the sweep
        # must disagree with both oracles: neither may read that adjacency.
        g = random_graph(np.random.default_rng(62), n=10, density=0.3, directed=directed)
        hop_csr = citenet.centrality._hop_csr

        def one_edge_short(graph):
            indptr, heads = hop_csr(graph)
            return np.maximum(indptr - 1, 0), heads[1:]

        honest = _sweep(g)
        monkeypatch.setattr(citenet.centrality, "_hop_csr", one_edge_short)
        short = _sweep(g)
        assert reference_sweep(g) == honest != short
        slow = brute_force_betweenness(g)
        assert all(honest[0][v] == pytest.approx(slow[v], abs=1e-9) for v in g.nodes)
        assert any(abs(short[0][v] - slow[v]) > 1e-9 for v in g.nodes)

    def test_raw_sum_matches_ledger_interior_positions(self):
        rng = np.random.default_rng(52)
        for _ in range(50):
            g = random_graph(rng, directed=False)
            n = len(g)
            norm = (n - 1) * (n - 2) / 2
            raw_total = sum(betweenness_of(g).values()) * norm
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
            original_b, original_c = _sweep(g)
            relabeled_b, relabeled_c = _sweep(relabeled)
            for node in g.nodes:
                assert relabeled_b[mapping[node]] == pytest.approx(
                    original_b[node], abs=1e-12
                )
                assert relabeled_c[mapping[node]] == pytest.approx(
                    original_c[node], abs=1e-12
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
            assert betweenness_of(g) == betweenness_of(scaled)
            base_eig = eigenvector_centrality(g)
            scaled_eig = eigenvector_centrality(scaled)
            for node in g.nodes:
                assert scaled_eig[node] == pytest.approx(base_eig[node], abs=1e-8)
            assert closeness_of(scaled) == closeness_of(g)


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

    @pytest.mark.parametrize("directed", [False, True])
    @pytest.mark.parametrize("nodes", ["A", "ABC"])
    def test_no_edges_give_zero_loadings(self, nodes, directed):
        g = Graph(nodes, {}, directed=directed)
        assert eigenvector_centrality(g) == dict.fromkeys(nodes, 0.0)
        report = build_report(g, edgeless_matrix(nodes))
        assert [row.eigenvector for row in report] == [0.0] * len(nodes)
        # 0 is what the iteration drives isolated nodes toward once there is an edge.
        with_edge = eigenvector_centrality(Graph("YZ" + nodes, {("Y", "Z"): 1.0}, directed=directed))
        assert all(0.0 <= with_edge[node] < 1e-9 for node in nodes)

    def test_non_convergence_reports_iterations(self):
        with patch.object(citenet.centrality, "_MAX_ITER", 1):
            with pytest.raises(ConvergenceError, match="1 iteration") as excinfo:
                eigenvector_centrality(star())
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
        with patch.object(citenet.centrality, "_MAX_ITER", 2_000):
            with pytest.raises(ConvergenceError) as excinfo:
                eigenvector_centrality(g)
        assert str(excinfo.value) == str(exc)
        assert excinfo.value.residual == exc.residual
        return
    with patch.object(citenet.centrality, "_MAX_ITER", 2_000):
        assert eigenvector_centrality(g) == expected


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
def test_report_rows_equal_the_sweep_and_the_references(g):
    report = build_report(g, edgeless_matrix(g.nodes))
    betweenness, closeness = _sweep(g)
    oracle = brute_force_betweenness(g)
    for node in g.nodes:
        row = report.rows[node]
        assert row.betweenness == betweenness[node]
        assert row.betweenness == pytest.approx(oracle[node], abs=1e-9)
        assert row.closeness == reference_closeness(g, node)
        assert row.closeness == closeness[node]


def _level_order_cases():
    """The 200 sparse random graphs, then graphs of 1 and 2 nodes, graphs of
    two components and a graph of isolates, each directed and undirected."""
    rng = np.random.default_rng(13)
    for _ in range(200):
        n = int(rng.integers(5, 31))
        directed = bool(rng.integers(0, 2))
        nodes = [f"N{i}" for i in range(n)]
        density = float(rng.uniform(0.1, 0.4))
        pairs = [
            (nodes[i], nodes[j])
            for i in range(n)
            for j in range(n)
            if (i != j if directed else i < j) and rng.random() < density
        ]
        if not directed:
            # Undirected keys may name either endpoint first.
            pairs = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in pairs]
        rng.shuffle(pairs)
        yield Graph(nodes, dict.fromkeys(pairs, 1.0), directed=directed)
    rng = np.random.default_rng(14)
    for directed in (False, True):
        for n in (1, 2):
            nodes = [f"N{i}" for i in range(n)]
            yield Graph(nodes, {}, directed=directed)
            yield Graph(nodes, {(nodes[0], nodes[-1]): 1.0}, directed=directed)
        for _ in range(20):
            g = random_graph(rng, n=int(rng.integers(3, 12)), directed=directed)
            nodes = [f"{side}{node}" for side in "AB" for node in g.nodes]
            twice = {
                (f"{side}{u}", f"{side}{v}"): w
                for side in "AB"
                for (u, v), w in g.edges.items()
            }
            yield Graph(nodes, twice, directed=directed)
        yield Graph("ABCDE", {}, directed=directed)


def test_sweep_is_bit_identical_to_the_level_order_reference():
    # Summing in another order (per term, or over neighbours in insertion
    # order, say) keeps every value within 1e-16 of this reference but moves
    # last bits, which the report prints at full precision.
    for g in _level_order_cases():
        betweenness, closeness = reference_sweep(g)
        assert _sweep(g) == (betweenness, closeness)
        report = build_report(g, edgeless_matrix(g.nodes))
        for node in g.nodes:
            assert report.rows[node].betweenness == betweenness[node]
            assert report.rows[node].closeness == closeness[node]


def _batched(g, monkeypatch, sources_per_batch):
    """``_sweep(g)`` with batches of *sources_per_batch* sources."""
    edges = sum(map(len, neighbours(g)[0].values()))
    with monkeypatch.context() as patch:
        patch.setattr(citenet.centrality, "_BATCH_ENTRIES", sources_per_batch * max(edges, len(g)))
        return citenet.centrality._sweep(g)


def test_sweep_bits_do_not_depend_on_the_batch_size(monkeypatch):
    rng = np.random.default_rng(15)
    graphs = [random_graph(rng, n=int(rng.integers(20, 41)), density=0.1) for _ in range(6)]
    # The default runs the small graphs in one batch and this one in eight.
    graphs.append(random_graph(rng, n=120, density=0.5, directed=False))
    # Path counts above 2**53, rounded in the order the code fixes.
    graphs += [_layered(directed=False), _layered(directed=True)]
    for g in graphs:
        default = citenet.centrality._sweep(g)
        n = len(g)
        assert _batched(g, monkeypatch, 1) == default
        # Two batches, the first ending mid-way through the node order.
        assert _batched(g, monkeypatch, n // 2 + 1) == default
        assert default == reference_sweep(g)


def _dense_graph(rng, n, directed):
    """Edge probability 0.3-0.9 per tail, so a directed graph's in- and
    out-degrees differ."""
    nodes = [f"N{i:02d}" for i in range(n)]
    p = rng.uniform(0.3, 0.9, n)
    edges = {
        (nodes[i], nodes[j]): 1.0
        for i in range(n)
        for j in range(n)
        if (i != j if directed else i < j) and rng.random() < p[i]
    }
    return Graph(nodes, edges, directed=directed)


@pytest.mark.parametrize("directed", [False, True])
def test_dense_sweeps_scan_both_directions_and_keep_the_bits(monkeypatch, directed):
    rng = np.random.default_rng(16)
    graphs = [_dense_graph(rng, int(rng.integers(12, 41)), directed) for _ in range(6)]
    # Which CSR each level scans: the transpose's rows are a bottom-up level.
    in_csrs, scanned = [], []
    transpose, row_entries = citenet.centrality._transpose, citenet.centrality._row_entries

    def spy_transpose(indptr, heads):
        in_csrs.append(transpose(indptr, heads))
        return in_csrs[-1]

    def spy_row_entries(indptr, rows):
        scanned.append(any(indptr is in_indptr for in_indptr, _ in in_csrs))
        return row_entries(indptr, rows)

    monkeypatch.setattr(citenet.centrality, "_transpose", spy_transpose)
    monkeypatch.setattr(citenet.centrality, "_row_entries", spy_row_entries)
    for g in graphs:
        expected = pickle.dumps(reference_sweep(g))
        for sources_per_batch in (1, 7):
            assert pickle.dumps(_batched(g, monkeypatch, sources_per_batch)) == expected
        assert pickle.dumps(_sweep(g)) == expected
    assert True in scanned and False in scanned


def test_path_longer_than_255_levels():
    n = 400
    nodes = [f"N{i:03d}" for i in range(n)]
    g = undirected(nodes, list(zip(nodes, nodes[1:])))
    betweenness, closeness = reference_sweep(g)
    fast_betweenness, fast_closeness = _sweep(g)
    assert fast_betweenness == betweenness
    assert fast_closeness[nodes[0]] == closeness[nodes[0]] == 2 / n
    pairs = (n - 1) * (n - 2) / 2
    for k, node in enumerate(nodes):
        assert betweenness[node] == pytest.approx(k * (n - 1 - k) / pairs, abs=1e-12)


def _layered(directed):
    """20 layers of 13 nodes, consecutive layers fully linked: a first-layer
    node reaches each last-layer node along 13**18 geodesics.  Powers of 13
    above 2**53 are not float64 numbers (powers of 12 would be), so the
    counts are rounded."""
    layers, width = 20, 13
    assert float(width ** (layers - 2)) != width ** (layers - 2)
    names = [[f"L{layer:02d}_{k:02d}" for k in range(width)] for layer in range(layers)]
    edges = {
        (u, v): 1.0 for upper, lower in zip(names, names[1:]) for u in upper for v in lower
    }
    return Graph([node for layer in names for node in layer], edges, directed=directed)


@pytest.mark.parametrize("directed", [False, True])
def test_geodesic_counts_above_2_to_the_53(directed):
    g = _layered(directed)
    betweenness, closeness = reference_sweep(g)
    fast_betweenness, fast_closeness = _sweep(g)
    for node in g.nodes:
        assert fast_betweenness[node] == pytest.approx(betweenness[node], abs=1e-9)
    assert fast_closeness == closeness


def _float_path_counts(g, source):
    """Geodesic counts from node number *source* in float64, each summed
    from 0.0 over the node's predecessors in node order, level by level."""
    succ, pred = neighbours(g)
    index = {node: i for i, node in enumerate(g.nodes)}
    dist, sigma = {g.nodes[source]: 0}, {g.nodes[source]: 1.0}
    frontier = [g.nodes[source]]
    while frontier:
        reached = sorted({w for v in frontier for w in succ[v] if w not in dist}, key=index.get)
        for w in reached:
            dist[w] = dist[frontier[0]] + 1
        for w in reached:
            sigma[w] = 0.0
            for v in pred[w]:
                if dist.get(v) == dist[w] - 1:
                    sigma[w] += sigma[v]
        frontier = reached
    return [sigma.get(node, 0.0) for node in g.nodes]


@pytest.mark.parametrize("directed", [False, True])
def test_counts_above_2_to_the_53_are_summed_in_ascending_predecessor_order(directed):
    # 20 randomly linked layers of 13 nodes, then one node after the last
    # layer: counts differ from node to node and pass 2**53, so another
    # order of adding a node's predecessors would round differently.
    rng = np.random.default_rng(17)
    names = [[f"L{layer:02d}_{k:02d}" for k in range(13)] for layer in range(20)] + [["Z"]]
    edges = {
        (u, v): 1.0
        for upper, lower in zip(names, names[1:])
        for u in upper
        for v in lower
        if len(lower) == 1 or rng.random() < 0.7
    }
    g = Graph([node for layer in names for node in layer], edges, directed=directed)
    out_csr = citenet.centrality._hop_csr(g)
    in_csr = citenet.centrality._transpose(*out_csr)
    expected = [_float_path_counts(g, source) for source in range(len(g))]
    assert max(map(max, expected)) > 2**53
    _, sigma, _ = citenet.centrality._bfs(out_csr, in_csr, np.arange(len(g)))
    assert sigma.tolist() == expected
    for source in range(len(g)):
        _, sigma, _ = citenet.centrality._bfs(out_csr, in_csr, np.array([source]))
        assert sigma[0].tolist() == expected[source]


def test_report_memory_stays_bounded():
    # 351 nodes and ~7.5k edges, the size of the largest sweep graph: the
    # batched sweep's transient arrays stay near 3 MB, and all sources in one
    # batch would take ~75 MB.  1,500 nodes and ~4.5k edges: a dense n-by-n
    # float64 adjacency alone would take 18 MB.
    for n, m in ((351, 7500), (1500, 4500)):
        rng = np.random.default_rng(n)
        nodes = [f"N{i:03d}" for i in range(n)]
        rows, cols = np.triu_indices(len(nodes), 1)
        keep = rng.random(len(rows)) < m / len(rows)
        edges = {
            (nodes[i], nodes[j]): float(w)
            for i, j, w in zip(rows[keep], cols[keep], rng.uniform(0.05, 1.0, keep.sum()))
        }
        g = Graph(nodes, edges, directed=False)
        matrix = edgeless_matrix(g.nodes)
        tracemalloc.start()
        try:
            build_report(g, matrix)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6, f"build_report peaked at {peak / 1e6:.1f} MB"


class TestReport:
    def test_combines_local_and_global_measures(self):
        m = parse_citation_csv(
            "A,S,50\nB,S,50\nA,B,5\nB,A,5\nS,A,2\nX,A,9\nA,X,3", 2005
        )
        local = Graph("SAB", {("S", "A"): 0.9, ("S", "B"): 0.5}, directed=False)
        report = build_report(local, m, local_basis="sim")
        row = report.rows["A"]
        assert row.degree_local == 1
        assert row.degree_in == 3  # cited by B, S, X
        assert row.degree_out == 3  # cites S, B, X
        assert report.local_basis == "sim"
        assert report.global_basis == "citation matrix 2005 (4 journals)"

    def test_a_node_without_global_degrees_rejected(self):
        local = Graph("SAB", {("S", "A"): 0.9}, directed=False)
        with pytest.raises(UnknownJournalError, match=r"not in matrix: \['B'\]"):
            build_report(local, edgeless_matrix("SA"))

    def test_zero_eigenvector_when_no_edges(self):
        local = Graph("SAB", {}, directed=False)
        report = build_report(local, edgeless_matrix(local.nodes))
        assert all(row.eigenvector == 0.0 for row in report)

    def test_a_node_outside_the_matrix_fails_before_the_sweep(self, monkeypatch):
        def no_sweep(g):
            raise AssertionError("the sweep ran")

        monkeypatch.setattr(citenet.centrality, "_sweep", no_sweep)
        local = Graph("SAB", {("S", "A"): 0.9}, directed=False)
        with pytest.raises(UnknownJournalError, match=r"not in matrix: \['B'\]"):
            build_report(local, edgeless_matrix("SA"))
