"""Reference implementations that the tests compare the package against.

Each oracle is written for clarity, not speed, and shares no code with the
path it checks: a scalar cosine (and Pearson's r beside it), a parser for
the Pajek files :func:`citenet.export_pajek` writes, betweenness from an
explicit enumeration of every geodesic, a dict-keyed Brandes sweep over
neighbours listed in edge-insertion order, and neighbour-count degrees.
"""

from __future__ import annotations

import math
import re
from collections import deque
from dataclasses import dataclass
from typing import Mapping, Sequence

from citenet.centrality import Graph, Node
from citenet.errors import CitenetError

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


def degree_centrality(g: Graph, j: Node) -> tuple[int, int]:
    """Distinct (incoming, outgoing) neighbor counts; loops excluded.

    Both entries equal the plain neighbor count on undirected graphs.  On
    ``Graph.from_citation_matrix(m, sorted(m.journals))`` this is the
    reference for :func:`citenet.citation_degrees`.
    """
    return len(g.predecessors(j)), len(g.successors(j))


def _shortest_paths(
    succ: Mapping[Node, Mapping[Node, float]], source: Node
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
        for w in succ[v]:
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


def reference_sweep(g: Graph) -> tuple[dict[Node, float], dict[Node, float]]:
    """``(betweenness, closeness)`` from a dict-keyed Brandes sweep.

    Neighbours are visited in edge-insertion order, read off ``g.edges``
    rather than the graph's own lists.  The package's sweep must visit them
    in that order too, and then adds the same floats in the same order, so
    the two agree bit for bit; a reordered traversal shows as a difference
    in the last bits.
    """
    nodes = g.nodes
    n = len(nodes)
    succ: dict[Node, dict[Node, float]] = {node: {} for node in nodes}
    for (u, v), weight in g.edges.items():
        if u != v:
            succ[u][v] = weight
            if not g.directed:
                succ[v][u] = weight
    raw = dict.fromkeys(nodes, 0.0)
    closeness: dict[Node, float] = {}
    for source in nodes:
        order, preds, sigma, dist = _shortest_paths(succ, source)
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
    scale = 1.0 / ((n - 1) * (n - 2))
    return {node: raw[node] * scale for node in nodes}, closeness
