"""Centrality measures on citation and similarity graphs.

Geodesics are hop-count shortest paths: edge weights never define path
lengths here, they only matter for the eigenvector adjacency.  One
breadth-first search per source gives both betweenness (accumulated over the
source's shortest-path DAG) and closeness (from the same distances).
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ConvergenceError, UnknownNodeError
from .matrix import CitationMatrix, _canonical, _row_ids
from .similarity import SimilarityGraph

Node = str

class Graph:
    """Weighted graph with a fixed node order.

    Undirected graphs store each pair once, keyed with endpoints in node
    order.  Self-loops are kept (they carry self-citation weight into the
    eigenvector adjacency) but are ignored by degree counts and geodesics.
    """

    __slots__ = ("_nodes", "_index", "_edges", "_directed", "_out", "_in")

    def __init__(
        self,
        nodes: Sequence[Node],
        edges: Mapping[tuple[Node, Node], float],
        directed: bool,
    ) -> None:
        self._nodes = tuple(nodes)
        self._index = index = {node: i for i, node in enumerate(self._nodes)}
        if len(index) != len(self._nodes):
            raise ValueError("duplicate node ids")
        self._directed = directed

        # Neighbour numbers in edge-insertion order; traversals depend on it.
        self._out: list[list[int]] = [[] for _ in self._nodes]
        self._in: list[list[int]] = [[] for _ in self._nodes]
        self._edges: dict[tuple[Node, Node], float] = {}
        for (u, v), weight in edges.items():
            if u not in index or v not in index:
                raise ValueError(f"edge ({u}, {v}): endpoint not in node set")
            if weight <= 0:
                raise ValueError(f"edge ({u}, {v}): weight must be positive")
            i, j = index[u], index[v]
            if not directed and i > j:
                u, v, i, j = v, u, j, i
            if (u, v) in self._edges:
                raise ValueError(f"duplicate edge ({u}, {v})")
            self._edges[(u, v)] = weight
            if i == j:
                continue
            self._out[i].append(j)
            self._in[j].append(i)
            if not directed:
                self._out[j].append(i)
                self._in[i].append(j)

    @classmethod
    def from_similarity(cls, g: SimilarityGraph) -> "Graph":
        """Undirected view of a similarity graph (node order preserved)."""
        return cls(g.nodes, g.edges, directed=False)

    @classmethod
    def from_citation_matrix(cls, m: CitationMatrix, nodes: Sequence[Node]) -> "Graph":
        """Directed graph of raw citation links among *nodes*, weights = counts.

        The graph keeps the order of *nodes*; self-citation loops are dropped.
        """
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
        return MappingProxyType(self._edges)

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node: Node) -> bool:
        return node in self._index

    def successors(self, node: Node) -> tuple[Node, ...]:
        return tuple(self._nodes[k] for k in self._out[self._require(node)])

    def predecessors(self, node: Node) -> tuple[Node, ...]:
        return tuple(self._nodes[k] for k in self._in[self._require(node)])

    def _require(self, node: Node) -> int:
        """The number of *node*; raises for a node not in the graph."""
        if node not in self._index:
            raise UnknownNodeError(f"unknown node {node!r}")
        return self._index[node]


def closeness_centrality(g: Graph, j: Node) -> float:
    """Reachable-node count divided by the sum of geodesic distances.

    Computed within j's reachable set, so it equals (n-1)/sum(d) on a
    connected graph; a node that reaches nothing has closeness 0 by
    convention.
    """
    source = g._require(j)
    if len(g) < 2:
        raise ValueError("closeness needs at least 2 nodes")
    return _shortest_paths(g._out, source)[3]


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
    out: Sequence[Sequence[int]], source: int
) -> tuple[list[int], list[list[int]], list[int], float]:
    """Hop-count BFS from node number *source* over the out-lists *out*.

    Returns ``(order, preds, sigma, closeness)``: the reached nodes in visit
    order, each node's predecessors on its geodesics from *source*, its
    number of such geodesics, and the closeness of *source*: reached nodes
    over their summed distance, 0 when it reaches nothing.
    """
    n = len(out)
    order = [source]
    preds: list[list[int]] = [[] for _ in range(n)]
    sigma = [0] * n
    sigma[source] = 1
    dist = [-1] * n
    dist[source] = 0
    # The loop visits the nodes appended to *order* while it runs.
    for v in order:
        next_dist = dist[v] + 1
        for w in out[v]:
            if dist[w] < 0:
                dist[w] = next_dist
                order.append(w)
            if dist[w] == next_dist:
                sigma[w] += sigma[v]
                preds[w].append(v)
    reachable = len(order) - 1
    closeness = reachable / sum(dist[v] for v in order) if reachable else 0.0
    return order, preds, sigma, closeness


def _sweep(g: Graph) -> tuple[dict[Node, float], dict[Node, float]]:
    """``(betweenness, closeness)`` of every node from one BFS per source."""
    nodes = g.nodes
    n = len(nodes)
    raw = [0.0] * n
    closeness: dict[Node, float] = {}
    for source in range(n):
        order, preds, sigma, closeness[nodes[source]] = _shortest_paths(g._out, source)
        delta = [0.0] * n
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
    return {node: raw[i] * scale for i, node in enumerate(nodes)}, closeness


def _symmetric_adjacency(g: Graph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(rows, cols, weights)`` of the symmetric adjacency, sorted by row
    then column, each cell stored once."""
    index = g._index
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
    degrees: Mapping[Node, tuple[int, int]],
    *,
    local_basis: str = "local graph",
    global_basis: str = "citation graph",
) -> CentralityReport:
    """Assemble a :class:`CentralityReport` for the local graph's nodes.

    Closeness, betweenness, eigenvector, and the local degree come from
    *local*.  In/out degrees come from *degrees*, a ``node -> (in, out)``
    mapping such as :func:`~citenet.matrix.citation_degrees` of the whole
    matrix, in which every local node must be present.  The local degree
    counts distinct neighbors in either direction, so it reads the same on
    undirected similarity graphs and directed raw-link graphs.
    Graphs without edges get eigenvector loadings of 0, and single-node
    graphs get closeness 0, mirroring the isolate convention.
    """
    betweenness, closeness = _sweep(local)
    if local.edges:
        eigenvector = eigenvector_centrality(local)
    else:
        eigenvector = {node: 0.0 for node in local.nodes}

    missing = [node for node in local.nodes if node not in degrees]
    if missing:
        raise UnknownNodeError(f"no global degrees for {missing}")

    rows: dict[Node, CentralityRow] = {}
    for i, node in enumerate(local.nodes):
        degree_in, degree_out = degrees[node]
        rows[node] = CentralityRow(
            journal=node,
            degree_in=degree_in,
            degree_out=degree_out,
            degree_local=len(set(local._out[i]) | set(local._in[i])),
            closeness=closeness[node],
            betweenness=betweenness[node],
            eigenvector=eigenvector[node],
        )
    return CentralityReport(rows, local_basis, global_basis)
