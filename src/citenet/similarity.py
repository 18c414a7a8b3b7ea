"""Cosine-normalized similarity graphs over citation profiles.

Citation counts are size-dependent, so raw profiles are normalized with the
vector-space cosine before journals are compared.  Edges below (or at) the
visualization threshold are dropped; the inequality is strict, mirroring the
contribution rule used for environment membership.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from .centrality import Graph
from .environment import Direction, SeedEnvironment
from .matrix import JournalId, _row_ids

# Rows of the Gram product computed at once: each block holds a few arrays of
# _BLOCK_ROWS x members floats, instead of members x members.
_BLOCK_ROWS = 64


class SimilarityGraph(Graph):
    """Undirected cosine-weighted graph over an environment's members.

    ``nodes`` are ``env.members``, in member order, and ``env.direction`` is
    the profile direction compared.  Edges are keyed ``(u, v)`` with u before
    v in node order; every stored weight strictly exceeds ``threshold``.
    Members whose profile was all-zero stay in ``nodes`` as isolated vertices
    and are listed in ``warnings``.
    """

    __slots__ = ("_env", "_threshold", "_warnings")

    def __init__(
        self,
        env: SeedEnvironment,
        edges: Mapping[tuple[JournalId, JournalId], float],
        threshold: float,
        warnings: Sequence[str] = (),
    ) -> None:
        super().__init__(env.members, edges, directed=False)
        self._label(env, threshold, warnings)

    def _label(self, env: SeedEnvironment, threshold: float, warnings: Sequence[str]) -> None:
        self._env, self._threshold, self._warnings = env, threshold, tuple(warnings)

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

    Each member's profile is its row (citing) or column (cited) of the raw
    citation links among the members, ``Graph.from_citation_matrix``, as
    ``env.direction`` says: the members are the coordinate axes, and a
    member's own (self-citation) coordinate is zero.  An edge is stored iff
    its cosine strictly exceeds *threshold*.

    All cosines come from a Gram product G of the profiles, computed in row
    blocks, as ``G[i, j] / sqrt(G[i, i] * G[j, j])``.  No entry of G, nor any
    product or partial sum forming it, exceeds the largest squared row norm,
    which picks the product:

    - below 2^53, a float64 BLAS product, whose integer terms are all exact;
    - from 2^53 to 2^62, an int64 product, exact as nothing can wrap;
    - from 2^62, a float64 product, rounded but free of wraparound; the BLAS
      build picks its rounding order per block, and the squared norms on the
      diagonal are summed from the counts apart from it, each float64 square
      rounded as the exact integer square is.

    Below 2^62 G therefore equals the exact integer Gram, so the result does
    not depend on the block size, and on counts whose squares stay below
    2^53 each weight is bit-identical to the scalar cosine
    ``dot / sqrt(|x|^2 * |y|^2)`` of the two profiles with all three sums
    exact.
    """
    if len(env.members) < 2:
        raise ValueError("environment must have at least 2 members")
    if not 0.0 <= threshold < 1.0:
        raise ValueError(f"threshold must be in [0, 1), got {threshold}")
    indptr, cols, counts = Graph.from_citation_matrix(env.matrix, env.members)._csr
    rows = _row_ids(indptr)
    if env.direction is Direction.CITED:
        rows, cols = cols, rows
    # Each square is the exact one rounded, so this sum is exact below 2^53 and
    # at least 2^53 otherwise: the first test below is exact, and the second
    # keeps a factor-2 margin below 2^63 (int64 wraps).
    norms_sq = np.bincount(rows, counts * counts, len(env.members))
    profiles = np.zeros((len(env.members), len(env.members)))
    profiles[rows, cols] = counts
    if 2.0**53 <= norms_sq.max() < 2.0**62:
        profiles = profiles.astype(np.int64)
        norms_sq = np.einsum("ij,ij->i", profiles, profiles).astype(np.float64)
    warnings = tuple(
        f"member {m!r} has an all-zero {env.direction.value} profile; kept as isolated node"
        for m, norm_sq in zip(env.members, norms_sq)
        if norm_sq == 0.0
    )

    # Rows a:b against rows a: give the upper triangle's block in row-major
    # order; its cosines are computed in place, beside its Gram block.  A
    # zero-profile member's cosines are 0/0 = nan, which no threshold passes.
    found = []
    for a in range(0, len(profiles), _BLOCK_ROWS):
        gram = profiles[a : a + _BLOCK_ROWS] @ profiles[a:].T
        weights = np.sqrt(np.multiply.outer(norms_sq[a : a + _BLOCK_ROWS], norms_sq[a:]))
        with np.errstate(invalid="ignore"):
            np.minimum(np.divide(gram, weights, out=weights), 1.0, out=weights)
        r, c = np.nonzero(np.triu(weights > threshold, 1))
        found.append((r + a, c + a, weights[r, c]))
    rows, cols, weights = map(np.concatenate, zip(*found))
    graph = SimilarityGraph._from_arrays(env.members, rows, cols, weights, directed=False)
    graph._label(env, threshold, warnings)
    return graph
