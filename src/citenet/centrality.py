"""Centrality measures on citation and similarity graphs.

Geodesics are hop-count shortest paths: edge weights never define path
lengths here, they only matter for the eigenvector adjacency.  Betweenness
and closeness come from one level-synchronous breadth-first search over a
batch of sources at a time (Brandes, *J. Math. Sociol.* 25:163, 2001).  Each
level of the forward pass finds the shortest-path DAG edges into newly
reached nodes, scanning either the frontier's rows of the graph's hop CSR or
the unreached nodes' rows of its transpose, whichever side has fewer entries
(Beamer, Asanovic & Patterson, SC 2012), and sums each newly reached node's
path count over its predecessors in ascending (source, predecessor) order:
exact below 2**53, rounded in that order above.  The backward pass walks the
recorded edges deepest level first.  Every float sum of both passes is a
``bincount`` in a fixed order, so the results depend neither on the batch
size, nor on the direction each level is scanned in, nor on the BLAS build.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ConvergenceError
from .matrix import CitationMatrix, _canonical, _row_entries, _row_ids, citation_degrees

Node = str

# Cap on sources per batch times hop edges (each undirected edge counted in
# both directions): a batch gathers at most that many CSR entries over all its
# levels and records at most that many DAG entries, so its arrays stay near 3 MB.
_BATCH_ENTRIES = 120_000

# Power iteration stops at a step of at most _TOL, or fails after _MAX_ITER steps.
_TOL = 1e-10
_MAX_ITER = 10_000


class Graph:
    """Weighted graph with a fixed node order.

    The edges are stored once, as a canonical weighted CSR over the node
    numbers; an undirected pair is stored in the row of its endpoint that
    comes first in node order.  Self-loops given to the constructor are kept
    (they carry weight into the eigenvector adjacency) but are ignored by
    degree counts and geodesics; :meth:`from_citation_matrix` drops them.
    """

    __slots__ = ("_nodes", "_directed", "_csr", "_edges")

    def __init__(
        self,
        nodes: Sequence[Node],
        edges: Mapping[tuple[Node, Node], float],
        directed: bool,
    ) -> None:
        nodes = tuple(nodes)
        index = _node_index(nodes)
        rows: list[int] = []
        cols: list[int] = []
        for (u, v), weight in edges.items():
            if u not in index or v not in index:
                raise ValueError(f"edge ({u}, {v}): endpoint not in node set")
            if not 0 < weight < np.inf:
                raise ValueError(f"edge ({u}, {v}): weight must be positive and finite")
            i, j = index[u], index[v]
            if not directed and i > j:
                if (v, u) in edges:
                    raise ValueError(f"duplicate edge ({v}, {u})")
                i, j = j, i
            rows.append(i)
            cols.append(j)
        weights = np.fromiter(edges.values(), dtype=np.float64, count=len(edges))
        self._assign(nodes, directed, rows, cols, weights)

    @classmethod
    def _from_arrays(
        cls, nodes: Sequence[Node], rows, cols, weights: np.ndarray, directed: bool
    ) -> "Graph":
        """A graph of checked edges ``rows[k] -> cols[k]``, ``rows <= cols`` if undirected."""
        g = cls.__new__(cls)
        nodes = tuple(nodes)
        _node_index(nodes)  # rejects duplicate node ids
        g._assign(nodes, directed, rows, cols, weights)
        return g

    def _assign(self, nodes, directed, rows, cols, weights) -> None:
        self._nodes, self._directed = nodes, directed
        self._csr = _canonical(len(nodes), rows, cols, weights)
        self._edges = None

    @classmethod
    def from_citation_matrix(cls, m: CitationMatrix, nodes: Iterable[Node]) -> "Graph":
        """Directed graph of raw citation links among *nodes*, weights = counts.

        The graph keeps the order of *nodes*; self-citation loops are dropped.
        """
        nodes = tuple(nodes)  # read once: an iterator is read only once
        # The nodes' rows, their columns renumbered in node order (-1 outside).
        positions = m._positions(nodes)
        rows, entries = _row_entries(m._indptr, positions)
        cols = m._lookup(positions)[m._indices[entries]]
        links = (cols >= 0) & (cols != rows)
        counts = m._data[entries[links]].astype(np.float64)
        return cls._from_arrays(nodes, rows[links], cols[links], counts, directed=True)

    @property
    def nodes(self) -> tuple[Node, ...]:
        return self._nodes

    @property
    def directed(self) -> bool:
        return self._directed

    @property
    def edges(self) -> Mapping[tuple[Node, Node], float]:
        """Read-only ``(u, v) -> weight`` in node order, built on first use."""
        if self._edges is None:
            indptr, cols, weights = self._csr
            name = self._nodes.__getitem__
            keys = zip(map(name, _row_ids(indptr).tolist()), map(name, cols.tolist()))
            self._edges = MappingProxyType(dict(zip(keys, weights.tolist())))
        return self._edges

    def __len__(self) -> int:
        return len(self._nodes)


def _node_index(nodes: tuple[Node, ...]) -> dict[Node, int]:
    index = {node: i for i, node in enumerate(nodes)}
    if len(index) != len(nodes):
        raise ValueError("duplicate node ids")
    return index


def _bfs(
    out_csr: tuple[np.ndarray, np.ndarray],
    in_csr: tuple[np.ndarray, np.ndarray],
    sources: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
    """Level-synchronous BFS from each of *sources* over the hop CSR
    *out_csr* ``(indptr, heads)`` and its transpose *in_csr* ``(indptr,
    tails)``, one row per source.

    Returns ``(dist, sigma, levels)``: hop distances (-1 where unreached),
    shortest-path counts, and each level's shortest-path DAG entries
    ``(v, w)``, the edges v -> w with ``dist[w] == dist[v] + 1``.  v and w
    are flat indices ``s * n + node`` in (source, tail, head) order.

    Each level scans the side with fewer CSR entries (Beamer, Asanovic &
    Patterson, SC 2012): top-down, the frontier's out-rows, kept where they
    reach an unreached cell; bottom-up, the unreached cells' in-rows, kept
    where they come from the frontier and then sorted.  Both find the same
    entries, since bottom-up never stops a row early: every predecessor
    counts.  One ``bincount`` sums each new cell's count over its
    predecessors in ascending (source, predecessor) order.  The counts are
    integers, so the sums are exact below 2**53 and rounded in that fixed
    order above.

    A level costs in proportion to its entries, not to the batch: a running
    total of the unreached cells' in-entries picks the side, the unreached
    cells are listed at the first bottom-up level and only filtered after
    it, and the sums run over all cells only for a level with at least a
    sixteenth as many entries as cells.
    """
    (indptr, heads), (in_indptr, tails) = out_csr, in_csr
    n = len(indptr) - 1
    out_degree, in_degree = np.diff(indptr), np.diff(in_indptr)
    dist = np.full(len(sources) * n, -1, dtype=np.int32)
    sigma = np.zeros(dist.shape)
    frontier, nodes = np.arange(len(sources)) * n + sources, sources
    dist[frontier] = 0
    sigma[frontier] = 1.0
    # The in-entries of the cells not yet reached, which a bottom-up level
    # scans, and those cells, listed at the first bottom-up level.
    unreached_entries = len(sources) * len(tails)
    unreached = None
    levels = []
    while True:
        unreached_entries -= int(in_degree[nodes].sum())
        if not unreached_entries:
            break
        if out_degree[nodes].sum() <= unreached_entries:
            # Rebinding the entries to their heads frees them before the next gather.
            rows, w = _row_entries(indptr, nodes)
            w = heads[w]
            w += (frontier - nodes)[rows]
            keep = np.flatnonzero(dist[w] < 0)
            v, w = frontier[rows[keep]], w[keep]
        else:
            # The cells reached since the previous listing leave the list.
            if unreached is None:
                unreached = np.flatnonzero(dist < 0)
            else:
                unreached = unreached[dist[unreached] < 0]
            cells = unreached % n
            rows, v = _row_entries(in_indptr, cells)
            v = tails[v]
            v += (unreached - cells)[rows]
            keep = np.flatnonzero(dist[v] == len(levels))
            # Sorted (tail, head) keys give (source, tail, head) order.
            keys = v[keep] * len(dist) + unreached[rows[keep]]
            keys.sort()
            v, w = np.divmod(keys, len(dist))
        if not len(v):
            break
        levels.append((v, w))
        if 16 * len(w) >= len(dist):
            # Path counts are at least 1, so the new cells are the positive sums.
            counts = np.bincount(w, sigma[v])
            frontier = np.flatnonzero(counts > 0)
            counts = counts[frontier]
        else:
            # Far fewer entries than cells: number the new cells instead.
            frontier, new = np.unique(w, return_inverse=True)
            counts = np.bincount(new, sigma[v])
        dist[frontier] = len(levels)
        sigma[frontier] = counts
        nodes = frontier % n
    return dist.reshape(-1, n), sigma.reshape(-1, n), levels


def _closeness(dist: np.ndarray) -> np.ndarray:
    """Closeness of each BFS row: reached nodes over their summed distance."""
    reached = np.count_nonzero(dist > 0, axis=1)
    total = np.where(dist > 0, dist, 0).sum(axis=1)
    return np.where(reached > 0, reached / np.maximum(total, 1), 0.0)


def _dependencies(levels: list[tuple[np.ndarray, np.ndarray]], sigma: np.ndarray) -> np.ndarray:
    """Brandes dependencies ``delta[s, v]`` of each BFS row's source s.

    Walking the DAG *levels* of :func:`_bfs` deepest first,
    ``delta[s, v] = sigma[s, v] * sum_w (1 + delta[s, w]) / sigma[s, w]``
    over v's DAG successors w, summed from 0.0 in ascending w by
    ``bincount``; a node without DAG successors keeps 0.
    """
    delta = np.zeros(sigma.size)
    flat = sigma.ravel()
    for v, w in reversed(levels):
        first = np.ones(len(v), dtype=bool)
        first[1:] = v[1:] != v[:-1]
        sums = np.bincount(np.cumsum(first) - 1, (1.0 + delta[w]) / flat[w])
        targets = v[first]
        delta[targets] = flat[targets] * sums
    return delta.reshape(sigma.shape)


def _sweep(g: Graph) -> tuple[dict[Node, float], dict[Node, float]]:
    """``(betweenness, closeness)`` of every node from batched BFS.

    Sources run in node order, in batches whose size times the larger of
    the hop edge and node counts is at most ``_BATCH_ENTRIES``.  Each
    source's dependencies are added to the raw scores one source at a time,
    so the sums do not depend on the batch size.
    """
    nodes = g.nodes
    n = len(nodes)
    indptr, heads = _hop_csr(g)
    hops = (indptr, heads), _transpose(indptr, heads)
    batch = max(1, _BATCH_ENTRIES // max(1, len(heads), n))
    raw = np.zeros(n)
    closeness = np.zeros(n)
    for start in range(0, n, batch):
        sources = np.arange(start, min(start + batch, n))
        dist, sigma, levels = _bfs(*hops, sources)
        closeness[sources] = _closeness(dist)
        delta = _dependencies(levels, sigma)
        # A source's dependency on itself is no betweenness.
        delta[np.arange(len(sources)), sources] = 0.0
        for row in delta:
            raw += row

    if n < 3:
        return dict.fromkeys(nodes, 0.0), dict(zip(nodes, closeness.tolist()))
    # An undirected source sweep visits every unordered pair twice, matching
    # the ordered-pair sweep, so one scale factor covers both cases.
    scale = 1.0 / ((n - 1) * (n - 2))
    return dict(zip(nodes, (raw * scale).tolist())), dict(zip(nodes, closeness.tolist()))


def _hop_csr(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """The hop adjacency ``(indptr, heads)`` the sweep walks: each node's
    out-neighbours, both endpoints' neighbours when undirected, ascending
    in node number and without loops."""
    if g.directed:
        tails, heads = _row_ids(g._csr[0]), g._csr[1]
    else:
        tails, heads, _ = _symmetric_adjacency(g)
    hop = tails != heads
    indptr = np.zeros(len(g) + 1, dtype=np.int64)
    np.cumsum(np.bincount(tails[hop], minlength=len(g)), out=indptr[1:])
    return indptr, heads[hop]


def _transpose(indptr: np.ndarray, heads: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The CSR ``(indptr, tails)`` of the reversed edges: each node's
    in-neighbours, ascending."""
    tails = _row_ids(indptr)[np.argsort(heads, kind="stable")]
    in_indptr = np.zeros_like(indptr)
    np.cumsum(np.bincount(heads, minlength=len(indptr) - 1), out=in_indptr[1:])
    return in_indptr, tails


def _symmetric_adjacency(g: Graph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(rows, cols, weights)`` of A + A^T with the diagonal counted once,
    sorted by row then column, each cell stored once.  A cell sums at most
    two weights, opposite directions of a directed pair, in either order alike.
    """
    indptr, cols, weights = g._csr
    rows = _row_ids(indptr)
    off = rows != cols
    indptr, cols, weights = _canonical(
        len(g),
        np.concatenate((rows, cols[off])),
        np.concatenate((cols, rows[off])),
        np.concatenate((weights, weights[off])),
    )
    return _row_ids(indptr), cols, weights


def eigenvector_centrality(g: Graph) -> dict[Node, float]:
    """Loadings on the dominant eigenvector of the weighted adjacency.

    Power iteration on A + I from the uniform vector, so runs are
    deterministic and bipartite-like spectra (where |lambda_min| equals the
    Perron root of A) still converge; the +I shift leaves eigenvectors
    unchanged.  The result has unit Euclidean norm and nonnegative sign: A + I
    is nonnegative, so every iterate from the positive start stays so.

    A graph without edges gets loadings of 0, the value the iteration drives
    every isolated node toward in a graph with edges.  Raises
    :class:`ConvergenceError` when ``_MAX_ITER`` steps are exhausted.
    """
    n = len(g)
    if not g._csr[2].size:
        return dict.fromkeys(g.nodes, 0.0)
    rows, cols, weights = _symmetric_adjacency(g)
    vector = np.full(n, 1.0 / np.sqrt(n))
    step = np.inf
    for _ in range(_MAX_ITER):
        # A @ vector, each row summed from 0.0 in column order, as a CSR
        # product does, without BLAS.  Each np.linalg.norm below is a BLAS
        # dot, so the last bits of the loadings may depend on the BLAS build.
        candidate = np.bincount(rows, weights * vector[cols], minlength=n) + vector
        candidate /= np.linalg.norm(candidate)
        step = float(np.linalg.norm(candidate - vector))
        vector = candidate
        if step <= _TOL:
            break
    else:
        raise ConvergenceError(_MAX_ITER, step)
    return {node: float(vector[i]) for i, node in enumerate(g.nodes)}


@dataclass(frozen=True)
class CentralityRow:
    """All centrality values of one journal, local and global.

    ``degree_in`` and ``degree_out`` are global; the rest come from the local
    graph of n nodes, with hop-count geodesics along its edge directions.
    ``degree_local`` counts distinct neighbours in either direction.
    ``closeness`` is the number of nodes the journal reaches over the sum of
    its hop distances to them, so (n-1)/sum(d) on a connected graph, and 0
    for a journal that reaches nothing.  ``betweenness`` sums, over pairs of
    other nodes, the fraction of their geodesics through the journal, and
    divides by (n-1)(n-2) on directed graphs and (n-1)(n-2)/2 on undirected
    ones, where pairs are unordered; it is 0 on graphs of fewer than 3 nodes.
    """

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
    local: Graph, matrix: CitationMatrix, *, local_basis: str = "local graph"
) -> CentralityReport:
    """Assemble a :class:`CentralityReport` for the local graph's nodes.

    Closeness, betweenness, eigenvector, and the local degree come from
    *local*.  In/out degrees are ``citation_degrees(matrix, local.nodes)``,
    read first, so a node not in *matrix* raises :class:`UnknownJournalError`
    before the sweep; the global basis names the matrix's year and size.
    The local degree counts distinct neighbors in either direction, so it
    reads the same on undirected similarity graphs and directed raw-link
    graphs.  Single-node graphs get closeness 0, mirroring the isolate
    convention.

    Closeness and betweenness come from one sweep whose sums all run in a
    fixed order, so they are bit-reproducible.  Geodesic counts are exact
    below 2**53; above it they are rounded, summed in ascending (source,
    predecessor) order.
    """
    degrees = citation_degrees(matrix, local.nodes)
    betweenness, closeness = _sweep(local)
    eigenvector = eigenvector_centrality(local)

    # Distinct neighbours in either direction: the off-diagonal cells of each
    # row of A + A^T.
    tails, heads, _ = _symmetric_adjacency(local)
    degree_local = np.bincount(tails[tails != heads], minlength=len(local)).tolist()

    rows: dict[Node, CentralityRow] = {}
    for i, node in enumerate(local.nodes):
        degree_in, degree_out = degrees[node]
        rows[node] = CentralityRow(
            journal=node,
            degree_in=degree_in,
            degree_out=degree_out,
            degree_local=degree_local[i],
            closeness=closeness[node],
            betweenness=betweenness[node],
            eigenvector=eigenvector[node],
        )
    global_basis = f"citation matrix {matrix.year} ({len(matrix)} journals)"
    return CentralityReport(rows, local_basis, global_basis)
