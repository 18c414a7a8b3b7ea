"""Centrality measures on citation and similarity graphs.

Geodesics are hop-count shortest paths: edge weights never define path
lengths here, they only matter for the eigenvector adjacency.  One
breadth-first search per source gives both betweenness (accumulated over the
source's shortest-path DAG) and closeness (from the same distances).
Betweenness is also computed by an explicit enumeration oracle
(:func:`brute_force_betweenness`) that every release is tested against.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ConvergenceError, UnknownNodeError
from .matrix import CitationMatrix, _canonical, _row_ids
from .similarity import SimilarityGraph

Node = str

BRUTE_FORCE_MAX_NODES = 64


class Graph:
    """Weighted graph with a fixed node order.

    Undirected graphs store each pair once, keyed with endpoints in node
    order.  Self-loops are kept (they carry self-citation weight into the
    eigenvector adjacency) but are ignored by degree counts and geodesics.
    """

    __slots__ = ("_nodes", "_index", "_edges", "_directed", "_succ", "_pred")

    def __init__(
        self,
        nodes: Sequence[Node],
        edges: Mapping[tuple[Node, Node], float],
        directed: bool,
    ) -> None:
        self._nodes = tuple(nodes)
        self._index = {node: i for i, node in enumerate(self._nodes)}
        if len(self._index) != len(self._nodes):
            raise ValueError("duplicate node ids")
        self._directed = directed

        succ: dict[Node, dict[Node, float]] = {node: {} for node in self._nodes}
        pred: dict[Node, dict[Node, float]] = {node: {} for node in self._nodes}
        stored: dict[tuple[Node, Node], float] = {}
        for (u, v), weight in edges.items():
            if u not in self._index or v not in self._index:
                raise ValueError(f"edge ({u}, {v}): endpoint not in node set")
            if weight <= 0:
                raise ValueError(f"edge ({u}, {v}): weight must be positive")
            if not directed and self._index[u] > self._index[v]:
                u, v = v, u
            if (u, v) in stored:
                raise ValueError(f"duplicate edge ({u}, {v})")
            stored[(u, v)] = weight
            if u == v:
                continue
            succ[u][v] = weight
            pred[v][u] = weight
            if not directed:
                succ[v][u] = weight
                pred[u][v] = weight

        self._edges = stored
        self._succ = succ
        self._pred = pred

    @classmethod
    def from_similarity(cls, g: SimilarityGraph) -> "Graph":
        """Undirected view of a similarity graph (node order preserved)."""
        return cls(g.nodes, g.edges, directed=False)

    @classmethod
    def from_citation_matrix(
        cls, m: CitationMatrix, nodes: Sequence[Node] | None = None
    ) -> "Graph":
        """Directed graph of raw citation links, weights = counts.

        *nodes* restricts (and orders) the node set; default is all journals
        sorted by id.  Self-citation loops are dropped.
        """
        if nodes is None:
            nodes = sorted(m.journals)
        node_set = set(nodes)
        unknown = node_set - set(m.journals)
        if unknown:
            raise UnknownNodeError(f"not in matrix: {sorted(unknown)}")
        edges = {
            (citing, cited): float(count)
            for (citing, cited), count in m.cells.items()
            if citing in node_set and cited in node_set and citing != cited
        }
        return cls(nodes, edges, directed=True)

    @property
    def nodes(self) -> tuple[Node, ...]:
        return self._nodes

    @property
    def directed(self) -> bool:
        return self._directed

    @property
    def edges(self) -> Mapping[tuple[Node, Node], float]:
        return self._edges

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node: Node) -> bool:
        return node in self._index

    def successors(self, node: Node) -> Mapping[Node, float]:
        self._require(node)
        return self._succ[node]

    def predecessors(self, node: Node) -> Mapping[Node, float]:
        self._require(node)
        return self._pred[node]

    def _require(self, node: Node) -> None:
        if node not in self._index:
            raise UnknownNodeError(f"unknown node {node!r}")


def degree_centrality(g: Graph, j: Node) -> tuple[int, int]:
    """Distinct (incoming, outgoing) neighbor counts; loops excluded.

    Both entries equal the plain neighbor count on undirected graphs.
    """
    g._require(j)
    return len(g.predecessors(j)), len(g.successors(j))


def closeness_centrality(g: Graph, j: Node) -> float:
    """Reachable-node count divided by the sum of geodesic distances.

    Computed within j's reachable set, so it equals (n-1)/sum(d) on a
    connected graph; a node that reaches nothing has closeness 0 by
    convention.
    """
    g._require(j)
    if len(g) < 2:
        raise ValueError("closeness needs at least 2 nodes")
    return _closeness(_shortest_paths(g, j)[3])


def betweenness_centrality(g: Graph) -> dict[Node, float]:
    """Normalized betweenness of every node, via per-source accumulation.

    For each node k the raw score sums, over pairs (i, j) with i != j != k,
    the fraction of i-j geodesics passing through k; the result is divided
    by (n-1)(n-2) on directed graphs and (n-1)(n-2)/2 on undirected ones.
    Graphs with fewer than 3 nodes score 0 everywhere.  Sources are processed
    in node order, so results are bit-reproducible.
    """
    return _sweep(g)[0]


def _shortest_paths(
    g: Graph, source: Node
) -> tuple[list[Node], dict[Node, list[Node]], dict[Node, int], dict[Node, int]]:
    """Hop-count BFS from *source* over outgoing edges.

    Returns ``(order, preds, sigma, dist)``: the nodes in visit order, each
    reached node's predecessors on its geodesics from *source*, its number
    of such geodesics, and its distance.
    """
    order: list[Node] = []
    preds: dict[Node, list[Node]] = {source: []}
    sigma = {source: 1}
    dist = {source: 0}
    queue = deque([source])
    while queue:
        v = queue.popleft()
        order.append(v)
        next_dist = dist[v] + 1
        for w in g.successors(v):
            if w not in dist:
                dist[w] = next_dist
                sigma[w] = 0
                preds[w] = []
                queue.append(w)
            if dist[w] == next_dist:
                sigma[w] += sigma[v]
                preds[w].append(v)
    return order, preds, sigma, dist


def _closeness(dist: Mapping[Node, int]) -> float:
    reachable = len(dist) - 1
    if reachable == 0:
        return 0.0
    return reachable / sum(dist.values())


def _sweep(g: Graph) -> tuple[dict[Node, float], dict[Node, float]]:
    """``(betweenness, closeness)`` of every node from one BFS per source."""
    nodes = g.nodes
    n = len(nodes)
    raw = dict.fromkeys(nodes, 0.0)
    closeness: dict[Node, float] = {}
    for source in nodes:
        order, preds, sigma, dist = _shortest_paths(g, source)
        closeness[source] = _closeness(dist)
        delta = dict.fromkeys(order, 0.0)
        for w in reversed(order):
            coefficient = (1.0 + delta[w]) / sigma[w]
            for v in preds[w]:
                delta[v] += sigma[v] * coefficient
            if w != source:
                raw[w] += delta[w]

    if n < 3:
        return dict.fromkeys(nodes, 0.0), closeness
    # An undirected source sweep visits every unordered pair twice, matching
    # the ordered-pair sweep, so one scale factor covers both cases.
    scale = 1.0 / ((n - 1) * (n - 2))
    return {node: raw[node] * scale for node in nodes}, closeness


@dataclass(frozen=True)
class PairGeodesics:
    """All geodesics of one node pair: path count plus interior tallies."""

    count: int
    through: Mapping[Node, int]


def geodesic_ledger(g: Graph) -> dict[tuple[Node, Node], PairGeodesics]:
    """Explicitly enumerate every geodesic of every connected node pair.

    Distances come from Floyd-Warshall and the paths from recursive
    expansion over the distance matrix, deliberately sharing nothing with
    the accumulation in :func:`betweenness_centrality`.  Pairs are ordered
    on directed graphs and unordered (u before v in node order) otherwise.
    """
    nodes = g.nodes
    n = len(nodes)
    index = {node: i for i, node in enumerate(nodes)}
    inf = float("inf")

    dist = [[inf] * n for _ in range(n)]
    for i in range(n):
        dist[i][i] = 0.0
    for u, v in g.edges:
        if u == v:
            continue
        dist[index[u]][index[v]] = 1.0
        if not g.directed:
            dist[index[v]][index[u]] = 1.0
    for k in range(n):
        dk = dist[k]
        for i in range(n):
            dik = dist[i][k]
            if dik == inf:
                continue
            di = dist[i]
            for j in range(n):
                if dik + dk[j] < di[j]:
                    di[j] = dik + dk[j]

    def paths(s: int, t: int) -> list[list[int]]:
        if s == t:
            return [[t]]
        found = []
        for w in g.successors(nodes[s]):
            wi = index[w]
            if dist[wi][t] == dist[s][t] - 1.0:
                for tail in paths(wi, t):
                    found.append([s] + tail)
        return found

    ledger: dict[tuple[Node, Node], PairGeodesics] = {}
    for s in range(n):
        targets = range(n) if g.directed else range(s + 1, n)
        for t in targets:
            if s == t or dist[s][t] == inf:
                continue
            geodesics = paths(s, t)
            through: dict[Node, int] = {}
            for path in geodesics:
                for interior in path[1:-1]:
                    node = nodes[interior]
                    through[node] = through.get(node, 0) + 1
            ledger[(nodes[s], nodes[t])] = PairGeodesics(len(geodesics), through)
    return ledger


def brute_force_betweenness(g: Graph) -> dict[Node, float]:
    """Reference betweenness from the explicit geodesic ledger.

    Only intended as an oracle: refuses graphs above
    ``BRUTE_FORCE_MAX_NODES`` nodes.
    """
    n = len(g)
    if n > BRUTE_FORCE_MAX_NODES:
        raise ValueError(f"oracle limited to {BRUTE_FORCE_MAX_NODES} nodes, got {n}")
    result = {node: 0.0 for node in g.nodes}
    if n < 3:
        return result
    for pair in geodesic_ledger(g).values():
        for node, through in pair.through.items():
            result[node] += through / pair.count
    pairs = (n - 1) * (n - 2) if g.directed else (n - 1) * (n - 2) / 2
    return {node: value / pairs for node, value in result.items()}


def _symmetric_adjacency(g: Graph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(rows, cols, weights)`` of the symmetric adjacency, sorted by row
    then column, each cell stored once."""
    index = {node: i for i, node in enumerate(g.nodes)}
    n = len(g.nodes)
    rows: list[int] = []
    cols: list[int] = []
    data: list[float] = []
    for (u, v), weight in g.edges.items():
        i, j = index[u], index[v]
        if i == j:
            rows.append(i)
            cols.append(i)
            data.append(weight)
            continue
        rows.extend((i, j))
        cols.extend((j, i))
        data.extend((weight, weight))
    # Directed inputs are symmetrized by summing opposite-direction weights;
    # a sum of two floats is the same in either order.
    indptr, cols_, weights = _canonical(n, rows, cols, np.array(data))
    return _row_ids(indptr), cols_, weights


def eigenvector_centrality(
    g: Graph, *, tol: float = 1e-10, max_iter: int = 10_000
) -> dict[Node, float]:
    """Loadings on the dominant eigenvector of the weighted adjacency.

    Power iteration on A + I from the uniform vector, so runs are
    deterministic and bipartite-like spectra (where |lambda_min| equals the
    Perron root of A) still converge; the +I shift leaves eigenvectors
    unchanged.  The result has unit Euclidean norm and nonnegative sign.

    Raises ``ValueError`` for a graph without edges and
    :class:`ConvergenceError` when *max_iter* is exhausted.
    """
    n = len(g)
    if not g.edges:
        raise ValueError("eigenvector centrality needs at least one edge")
    rows, cols, weights = _symmetric_adjacency(g)
    vector = np.full(n, 1.0 / np.sqrt(n))
    step = np.inf
    for _ in range(max_iter):
        # A @ vector, each row summed from 0.0 in column order, as a CSR
        # product does, so the loadings do not depend on BLAS.
        candidate = np.bincount(rows, weights * vector[cols], minlength=n) + vector
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


@dataclass(frozen=True)
class CentralityRow:
    """All centrality values of one journal, local and global."""

    journal: Node
    degree_in: int
    degree_out: int
    degree_local: int
    closeness: float
    betweenness: float
    eigenvector: float


@dataclass(frozen=True)
class CentralityReport:
    """Per-journal centrality values, labeled with the graphs they came from.

    ``betweenness`` is stored as a fraction in [0, 1]; rendering as a
    percentage happens at report time.
    """

    rows: Mapping[Node, CentralityRow]
    local_basis: str
    global_basis: str

    def __iter__(self) -> Iterable[CentralityRow]:
        return iter(self.rows.values())


def build_report(
    local: Graph,
    degrees: Mapping[Node, tuple[int, int]] | None = None,
    *,
    local_basis: str = "local graph",
    global_basis: str | None = None,
) -> CentralityReport:
    """Assemble a :class:`CentralityReport` for the local graph's nodes.

    Closeness, betweenness, eigenvector, and the local degree come from
    *local*.  In/out degrees come from *degrees*, a ``node -> (in, out)``
    mapping such as :func:`~citenet.matrix.citation_degrees` of the whole
    matrix, when given (every local node must be present there), otherwise
    from *local* itself.  The local degree counts distinct neighbors in
    either direction, so it reads the same on undirected similarity graphs
    and directed raw-link graphs.
    Graphs without edges get eigenvector loadings of 0, and single-node
    graphs get closeness 0, mirroring the isolate convention.
    """
    betweenness, closeness = _sweep(local)
    if local.edges:
        eigenvector = eigenvector_centrality(local)
    else:
        eigenvector = {node: 0.0 for node in local.nodes}

    if degrees is None:
        degrees = {node: degree_centrality(local, node) for node in local.nodes}
        global_basis = local_basis
    elif global_basis is None:
        global_basis = "citation graph"
    missing = [node for node in local.nodes if node not in degrees]
    if missing:
        raise UnknownNodeError(f"no global degrees for {missing}")

    rows: dict[Node, CentralityRow] = {}
    for node in local.nodes:
        degree_in, degree_out = degrees[node]
        neighbors = set(local.successors(node)) | set(local.predecessors(node))
        rows[node] = CentralityRow(
            journal=node,
            degree_in=degree_in,
            degree_out=degree_out,
            degree_local=len(neighbors),
            closeness=closeness[node],
            betweenness=betweenness[node],
            eigenvector=eigenvector[node],
        )
    return CentralityReport(rows, local_basis, global_basis)
