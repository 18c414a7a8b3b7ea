"""Reference implementations that the tests compare the package against.

Each oracle is written for clarity, not speed, and shares no code with the
path it checks: a scalar cosine (and Pearson's r beside it), a parser for
the Pajek files :func:`citenet.export_pajek` writes, betweenness from an
explicit enumeration of every geodesic, a scalar Brandes sweep that sums in
the batched sweep's level order, neighbour-count degrees, a matrix writer
that formats one cell and one journal at a time, the regular expression
that once picked the edge-list blocks the parser splits in bulk, the
row-id check of canonical CSR arrays the cache loader once made, and the
members' own matrix that a seed environment once held as a copy.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from citenet.centrality import Graph, Node
from citenet.errors import CitenetError
from citenet.ingest import EDGE_HEADER, MERGE_POLICY
from citenet.matrix import MAX_COUNT, CitationMatrix

BRUTE_FORCE_MAX_NODES = 64


class UndefinedSimilarityError(CitenetError):
    """Cosine similarity is undefined for an all-zero vector."""


class ZeroVarianceError(CitenetError):
    """Pearson correlation is undefined for a constant vector."""


def cosine(x: Sequence[float], y: Sequence[float]) -> float:
    """Cosine of the angle between two vectors.

    For nonnegative vectors the result lies in [0, 1]; 1.0 for parallel
    vectors, 0.0 for orthogonal ones.  Summation order is fixed, so repeated
    calls are bit-identical.

    Raises ``ValueError`` on a length mismatch or empty input, and
    :class:`UndefinedSimilarityError` for an all-zero vector (the similarity
    is undefined, never silently 0).
    """
    if len(x) != len(y):
        raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")
    if len(x) == 0:
        raise ValueError("vectors must have at least one entry")
    norm_x_sq = math.fsum(v * v for v in x)
    norm_y_sq = math.fsum(v * v for v in y)
    if norm_x_sq == 0.0:
        raise UndefinedSimilarityError("first vector is all-zero")
    if norm_y_sq == 0.0:
        raise UndefinedSimilarityError("second vector is all-zero")
    dot = math.fsum(xv * yv for xv, yv in zip(x, y))
    value = dot / math.sqrt(norm_x_sq * norm_y_sq)
    # Guard against float overshoot at the Cauchy-Schwarz bound.
    return max(-1.0, min(1.0, value))


def pearson(x: Sequence[float], y: Sequence[float]) -> float:
    """Product-moment correlation, for side-by-side comparison with cosine.

    Unlike the cosine, values are centered on their arithmetic mean first,
    so the result is translation-invariant and lies in [-1, 1].

    Raises :class:`ZeroVarianceError` when either vector is constant.
    """
    if len(x) != len(y):
        raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")
    if len(x) < 2:
        raise ValueError("vectors must have at least two entries")
    mean_x = math.fsum(x) / len(x)
    mean_y = math.fsum(y) / len(y)
    dev_x = [v - mean_x for v in x]
    dev_y = [v - mean_y for v in y]
    var_x = math.fsum(v * v for v in dev_x)
    var_y = math.fsum(v * v for v in dev_y)
    if var_x == 0.0:
        raise ZeroVarianceError("first vector has zero variance")
    if var_y == 0.0:
        raise ZeroVarianceError("second vector has zero variance")
    cov = math.fsum(a * b for a, b in zip(dev_x, dev_y))
    return max(-1.0, min(1.0, cov / math.sqrt(var_x * var_y)))


@dataclass(frozen=True)
class ParsedPajek:
    """Contents of a Pajek .net file as written by :func:`export_pajek`."""

    labels: tuple[str, ...]
    x_facts: Mapping[str, float]
    y_facts: Mapping[str, float]
    edges: Mapping[tuple[str, str], float]


_VERTEX_RE = re.compile(r'^(\d+) "([^"]*)" x_fact (\S+) y_fact (\S+)$')
_EDGE_RE = re.compile(r"^(\d+) (\d+) (\S+)$")


def parse_pajek(text: str) -> ParsedPajek:
    """Re-read a Pajek .net file produced by :func:`export_pajek`."""
    lines = text.splitlines()
    if not lines or not lines[0].startswith("*Vertices "):
        raise ValueError("missing *Vertices header")
    count = int(lines[0].split()[1])
    if len(lines) < count + 2:
        raise ValueError("truncated file: vertex section or *Edges missing")
    labels: list[str] = []
    x_facts: dict[str, float] = {}
    y_facts: dict[str, float] = {}
    for line in lines[1 : 1 + count]:
        match = _VERTEX_RE.match(line)
        if not match:
            raise ValueError(f"malformed vertex line: {line!r}")
        label = match.group(2)
        labels.append(label)
        x_facts[label] = float(match.group(3))
        y_facts[label] = float(match.group(4))
    if len(labels) != count or lines[1 + count] != "*Edges":
        raise ValueError("vertex count does not match *Edges position")
    edges: dict[tuple[str, str], float] = {}
    for line in lines[2 + count :]:
        if not line:
            continue
        match = _EDGE_RE.match(line)
        if not match:
            raise ValueError(f"malformed edge line: {line!r}")
        u, v = labels[int(match.group(1)) - 1], labels[int(match.group(2)) - 1]
        edges[(u, v)] = float(match.group(3))
    return ParsedPajek(tuple(labels), x_facts, y_facts, edges)


@dataclass(frozen=True)
class PairGeodesics:
    """All geodesics of one node pair: path count plus interior tallies."""

    count: int
    through: Mapping[Node, int]


def neighbours(g: Graph) -> tuple[dict[Node, tuple[Node, ...]], dict[Node, tuple[Node, ...]]]:
    """``(successors, predecessors)`` of every node, read off ``g.edges``.

    Each tuple lists distinct nodes in node order; loops are excluded, and an
    undirected edge makes each endpoint a successor and a predecessor of the
    other.
    """
    succ: dict[Node, set[Node]] = {node: set() for node in g.nodes}
    pred: dict[Node, set[Node]] = {node: set() for node in g.nodes}
    for u, v in g.edges:
        if u != v:
            succ[u].add(v)
            pred[v].add(u)
            if not g.directed:
                succ[v].add(u)
                pred[u].add(v)
    order = {node: i for i, node in enumerate(g.nodes)}.__getitem__
    return tuple({node: tuple(sorted(found, key=order)) for node, found in side.items()}
                 for side in (succ, pred))


def geodesic_ledger(g: Graph) -> dict[tuple[Node, Node], PairGeodesics]:
    """Explicitly enumerate every geodesic of every connected node pair.

    Distances come from Floyd-Warshall and the paths from recursive
    expansion over the distance matrix and :func:`neighbours`, deliberately
    sharing nothing with the batched sweep behind :func:`citenet.build_report`.
    Pairs are ordered on directed graphs and unordered (u before v in node
    order) otherwise.
    """
    nodes = g.nodes
    succ = neighbours(g)[0]
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
        for w in succ[nodes[s]]:
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


def degree_centrality(g: Graph, j: Node) -> tuple[int, int]:
    """Distinct (incoming, outgoing) neighbor counts; loops excluded.

    Both entries equal the plain neighbor count on undirected graphs.  On
    ``Graph.from_citation_matrix(m, sorted(m.journals))`` this is the
    reference for ``citenet.citation_degrees(m, journal_ids)`` at each of
    *journal_ids*.
    """
    succ, pred = neighbours(g)
    return len(pred[j]), len(succ[j])


def _shortest_paths(
    succ: Sequence[Sequence[int]], source: int
) -> tuple[list[list[int]], list[int], list[int]]:
    """Hop-count BFS from node number *source*, one level at a time.

    Returns ``(levels, dist, sigma)``: the node numbers at each distance,
    each node's distance (-1 where unreached) and its number of geodesics
    from *source*, as an exact Python int.
    """
    n = len(succ)
    dist = [-1] * n
    sigma = [0] * n
    dist[source] = 0
    sigma[source] = 1
    levels = [[source]]
    while True:
        reached = []
        for v in levels[-1]:
            for w in succ[v]:
                if dist[w] < 0:
                    dist[w] = len(levels)
                    reached.append(w)
                if dist[w] == len(levels):
                    sigma[w] += sigma[v]
        if not reached:
            return levels, dist, sigma
        levels.append(reached)


def reference_sweep(g: Graph) -> tuple[dict[Node, float], dict[Node, float]]:
    """``(betweenness, closeness)`` from a scalar Brandes sweep in level order.

    Neighbours come from :func:`neighbours`, not the graph's own arrays.
    Dependencies are accumulated deepest level first, as
    ``delta[v] = sigma[v] * sum((1 + delta[w]) / sigma[w])`` over v's
    geodesic successors w in ascending node number, the sum starting from
    0.0; each source's dependencies are then added to the raw scores, sources
    in node order.  The package's batched sweep adds the same floats in the
    same order, so the two agree bit for bit while path counts stay below
    2**53, where float64 holds them exactly.
    """
    nodes = g.nodes
    n = len(nodes)
    index = {node: i for i, node in enumerate(nodes)}
    succ = [[index[w] for w in out] for out in neighbours(g)[0].values()]
    raw = [0.0] * n
    closeness: dict[Node, float] = {}
    for source in range(n):
        levels, dist, sigma = _shortest_paths(succ, source)
        reachable = sum(len(level) for level in levels[1:])
        total = sum(dist[v] for level in levels for v in level)
        closeness[nodes[source]] = reachable / total if reachable else 0.0
        delta = [0.0] * n
        for level in reversed(levels):
            for v in level:
                acc = 0.0
                for w in succ[v]:
                    if dist[w] == dist[v] + 1:
                        acc += (1.0 + delta[w]) / sigma[w]
                delta[v] = sigma[v] * acc
        for v in range(n):
            if v != source:
                raw[v] += delta[v]

    if n < 3:
        return dict.fromkeys(nodes, 0.0), closeness
    scale = 1.0 / ((n - 1) * (n - 2))
    return {node: raw[i] * scale for i, node in enumerate(nodes)}, closeness


def reference_csv_bytes(m: CitationMatrix) -> bytes:
    """The edge-list CSV :func:`citenet.write_matrix` writes, one line per
    cell, formatted in Python over the cells in id order."""
    lines = [EDGE_HEADER + "\n"]
    lines.extend(f"{a},{b},{c}\n" for (a, b), c in m.cells.items())
    return "".join(lines).encode("utf-8")


def reference_write_matrix(m: CitationMatrix, path: Path) -> None:
    """Write the files :func:`citenet.write_matrix` writes, one cell and one
    journal at a time: the CSV at *path*, its ``.csr.npz`` cache and its
    ``.meta.json`` sidecar."""
    data = reference_csv_bytes(m)
    meta = {
        "format": "citation-matrix",
        "year": m.year,
        "merge_policy": MERGE_POLICY,
        "csv_sha256": hashlib.sha256(data).hexdigest(),
        "journals": [
            {
                "id": journal.id,
                "display_name": journal.display_name,
                "source_index": journal.source_index.value,
            }
            for journal in m.journals.values()
        ],
    }
    sidecar = (json.dumps(meta, indent=2) + "\n").encode("utf-8")
    path.write_bytes(data)
    with open(f"{path}.csr.npz", "wb") as binary:
        np.savez(
            binary,
            indptr=m._indptr,
            indices=m._indices,
            data=m._data,
            csv_sha256=np.array(hashlib.sha256(data).hexdigest()),
            sidecar_sha256=np.array(hashlib.sha256(sidecar).hexdigest()),
        )
    Path(f"{path}.meta.json").write_bytes(sidecar)


# Rows the parser may split in bulk: two nonempty ids free of whitespace,
# quoting characters and lone surrogates, and one to ten ASCII digits per line
# (``\s`` matches exactly the characters str.isspace accepts).
_ID = r'[^\s,"\\\ud800-\udfff]+'
CANONICAL_ROWS = re.compile(rf"(?:{_ID},{_ID},[0-9]{{1,10}}\n)*")


def restricted_matrix(m: CitationMatrix, members: Sequence[str]) -> CitationMatrix:
    """The matrix of *members* alone and the cells among them."""
    cells = {(a, b): c for (a, b), c in m.cells.items() if {a, b} <= set(members)}
    return CitationMatrix(m.year, [m.journals[j] for j in members], cells)


def bulk_rows_accepted(text: str, start: int) -> bool:
    """Whether ``text[start:]``, which ends in a newline, holds only
    canonical rows whose counts are at most ``MAX_COUNT``."""
    if CANONICAL_ROWS.fullmatch(text, start) is None:
        return False
    lines = text[start:].split("\n")[:-1]
    return all(int(line.rpartition(",")[2]) <= MAX_COUNT for line in lines)


def canonical_csr(indptr, indices, data, n: int) -> bool:
    """Whether the arrays form an n-by-n CSR with sorted indices and valid
    counts: the check the cache loader once made, with the row of every
    stored entry spelled out and each step compared within its row."""
    if any(a.ndim != 1 or a.dtype.kind != "i" for a in (indptr, indices, data)):
        return False
    if len(indptr) != n + 1 or indptr[0] != 0 or np.any(np.diff(indptr) < 0):
        return False
    if not len(indices) == len(data) == indptr[-1]:
        return False
    if not len(data):
        return True
    if indices.min() < 0 or indices.max() >= n:
        return False
    if data.min() < 1 or data.max() > MAX_COUNT:
        return False
    rows = np.repeat(np.arange(n), np.diff(indptr))
    same_row = rows[1:] == rows[:-1]
    return bool(np.all(np.diff(indices)[same_row] > 0))
