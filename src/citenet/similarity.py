"""Cosine-normalized similarity graphs over citation profiles.

Citation counts are size-dependent, so raw profiles are normalized with the
vector-space cosine before journals are compared.  Edges below (or at) the
visualization threshold are dropped; the inequality is strict, mirroring the
contribution rule used for environment membership.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from .centrality import Graph
from .environment import Direction, SeedEnvironment
from .matrix import JournalId, _row_ids

# Rows of the Gram product computed at once: each block holds a few arrays of
# _BLOCK_ROWS x members floats, instead of members x members.
_BLOCK_ROWS = 64

# Entry pairs added at once: a few arrays of _PAIR_CHUNK integers per chunk.
_PAIR_CHUNK = 1 << 16


class SimilarityGraph(Graph):
    """Undirected cosine-weighted graph over an environment's members.

    ``nodes`` are ``env.members``, in member order, and ``env.direction`` is
    the profile direction compared.  Edges are keyed ``(u, v)`` with u before
    v in node order; every stored weight strictly exceeds ``threshold``.
    Members whose profile was all-zero stay in ``nodes`` as isolated vertices,
    and :func:`similarity_graph` lists them in ``warnings``.
    """

    __slots__ = ("_env", "_threshold", "_warnings")

    def __init__(
        self,
        env: SeedEnvironment,
        edges: Mapping[tuple[JournalId, JournalId], float],
        threshold: float,
    ) -> None:
        super().__init__(env.members, edges, directed=False)
        self._env, self._threshold, self._warnings = env, threshold, ()

    @property
    def env(self) -> SeedEnvironment:
        return self._env

    @property
    def threshold(self) -> float:
        return self._threshold

    @property
    def warnings(self) -> tuple[str, ...]:
        return self._warnings


def similarity_graph(env: SeedEnvironment, threshold: float) -> SimilarityGraph:
    """Build the cosine similarity graph over an environment's members.

    Each member's profile is its row (citing) or column (cited) of
    ``env.links`` as ``env.direction`` says: the members are the coordinate
    axes, and a member's own (self-citation) coordinate is zero.  An edge is
    stored iff its cosine strictly exceeds *threshold*.

    All cosines come from a Gram product G of the profiles, computed in row
    blocks, as ``G[i, j] / sqrt(G[i, i] * G[j, j])``.  A block adds up the
    products of the nonzero entries that share an axis, in ascending axis
    order (Gustavson, *ACM TOMS* 4:250, 1978), without BLAS.  No entry of G,
    nor any product or partial sum forming it, exceeds the largest squared
    row norm, which picks:

    - below 2^53, float64, whose integer sums are all exact;
    - from 2^53 to 2^62, int64, squared norms too, exact as nothing can wrap;
    - from 2^62, float64, rounded but free of wraparound, in that fixed
      order; the squared norms are summed apart, each float64 square
      rounded as the exact integer square is.

    Below 2^62 G therefore equals the exact integer Gram, and on counts whose
    squares stay below 2^53 each weight is bit-identical to the scalar
    cosine ``dot / sqrt(|x|^2 * |y|^2)`` with all three sums exact.  At any
    size the result depends on neither the block size nor the BLAS build.
    """
    if len(env.members) < 2:
        raise ValueError("environment must have at least 2 members")
    if not 0.0 <= threshold < 1.0:
        raise ValueError(f"threshold must be in [0, 1), got {threshold}")
    indptr, cols, counts = env.links._csr
    rows = _row_ids(indptr)
    if env.direction is Direction.CITED:
        rows, cols = cols, rows
    # Each square is the exact one rounded, so this sum is exact below 2^53 and
    # at least 2^53 otherwise: the first test below is exact, and the second
    # keeps a factor-2 margin below 2^63 (int64 wraps).
    norms_sq = np.bincount(rows, counts * counts, len(env.members))
    if 2.0**53 <= norms_sq.max() < 2.0**62:
        counts = counts.astype(np.int64)
        np.add.at(exact := np.zeros(len(env.members), np.int64), rows, counts * counts)
        norms_sq = exact.astype(np.float64)
    warnings = tuple(
        f"member {m!r} has an all-zero {env.direction.value} profile; kept as isolated node"
        for m, norm_sq in zip(env.members, norms_sq)
        if norm_sq == 0.0
    )

    # Rows a:b against rows a: give the upper triangle's block in row-major
    # order; its cosines are computed in place, beside its Gram block.  A cell
    # on or below G's diagonal stays 0, so its cosine is 0 (or 0/0 = nan for a
    # zero-profile member), and neither passes a threshold >= 0.
    found = []
    for a, gram in _gram_blocks(len(env.members), rows, cols, counts):
        weights = np.sqrt(np.multiply.outer(norms_sq[a : a + _BLOCK_ROWS], norms_sq[a:]))
        with np.errstate(invalid="ignore"):
            np.minimum(np.divide(gram, weights, out=weights), 1.0, out=weights)
        r, c = np.nonzero(weights > threshold)
        found.append((r + a, c + a, weights[r, c]))
    rows, cols, weights = map(np.concatenate, zip(*found))
    graph = SimilarityGraph._from_arrays(env.members, rows, cols, weights, directed=False)
    graph._env, graph._threshold, graph._warnings = env, threshold, warnings
    return graph


def _gram_blocks(n: int, owners: np.ndarray, axes: np.ndarray, counts: np.ndarray):
    """``(a, G[a : a + _BLOCK_ROWS, a:])`` in *counts*' dtype, filled above G's diagonal,
    for the Gram product G of the n profiles with *counts* at (*owners*, *axes*)."""
    axis_len = np.bincount(axes, minlength=n)
    # Each axis's entries in ascending owner order (the CSR's owners ascend within
    # each axis, and the sort is stable): an entry pairs with the later ones, and
    # a block takes its rows' entries in that order.
    order = np.argsort(axes, kind="stable")
    owners, counts = owners[order], counts[order]
    partners = np.repeat(np.cumsum(axis_len), axis_len) - np.arange(len(order)) - 1
    blocks = owners // _BLOCK_ROWS
    for a in range(0, n, _BLOCK_ROWS):
        gram = np.zeros((min(_BLOCK_ROWS, n - a), n - a), counts.dtype)
        for first, second in _pair_chunks(np.flatnonzero(blocks == a // _BLOCK_ROWS), partners):
            cells = (owners[first] - a) * (n - a) + owners[second] - a
            np.add.at(gram.reshape(-1), cells, counts[first] * counts[second])
        yield a, gram


def _pair_chunks(entries: np.ndarray, partners: np.ndarray):
    """``(first, second)`` positions of the pairs of *entries*, in order, at most
    ``_PAIR_CHUNK`` at a time: entry p pairs with p + 1, ..., p + partners[p]."""
    ends = np.cumsum(partners[entries])
    starts = ends - partners[entries]
    shift = entries + 1 - starts
    for s in range(0, partners[entries].sum(), _PAIR_CHUNK):
        stop = min(s + _PAIR_CHUNK, ends[-1])
        lo, hi = np.searchsorted(ends, [s, stop - 1], "right") + [0, 1]
        k = np.minimum(ends[lo:hi], stop) - np.maximum(starts[lo:hi], s)
        yield np.repeat(entries[lo:hi], k), np.repeat(shift[lo:hi], k) + np.arange(s, stop)
