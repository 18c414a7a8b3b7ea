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


class SimilarityGraph(Graph):
    """Undirected cosine-weighted graph over environment members.

    Edges are keyed ``(u, v)`` with u before v in node order; every stored
    weight strictly exceeds ``threshold``.  ``basis`` records which profile
    direction was compared.  Members whose profile was all-zero stay in
    ``nodes`` as isolated vertices and are listed in ``warnings``.
    """

    __slots__ = ("_threshold", "_basis", "_warnings")

    def __init__(
        self,
        nodes: Sequence[JournalId],
        edges: Mapping[tuple[JournalId, JournalId], float],
        threshold: float,
        basis: Direction,
        warnings: Sequence[str] = (),
    ) -> None:
        super().__init__(nodes, edges, directed=False)
        self._label(threshold, basis, warnings)

    def _label(self, threshold: float, basis: Direction, warnings: Sequence[str]) -> None:
        self._threshold, self._basis, self._warnings = threshold, basis, tuple(warnings)

    @property
    def threshold(self) -> float:
        return self._threshold

    @property
    def basis(self) -> Direction:
        return self._basis

    @property
    def warnings(self) -> tuple[str, ...]:
        return self._warnings


def similarity_graph(env: SeedEnvironment, threshold: float) -> SimilarityGraph:
    """Build the cosine similarity graph over an environment's members.

    Each member's profile is its row (citing) or column (cited) of
    ``env.submatrix``, as ``env.direction`` says, with the members as
    coordinate axes and its own diagonal (self-citation) entry zeroed.  An
    edge is stored iff its cosine strictly exceeds *threshold*.

    All cosines come from one Gram matrix G of the profiles, as
    ``G[i, j] / sqrt(G[i, i] * G[j, j])``, over the axes where some member
    is nonzero.  No entry of G, nor any product or partial sum forming it,
    exceeds the largest squared row norm, which picks the product:

    - below 2^53, a float64 BLAS product, whose integer terms are all exact;
    - from 2^53 to 2^62, an int64 product, exact as nothing can wrap;
    - from 2^62, a float64 product, rounded but free of wraparound.

    Below 2^62 G therefore equals the exact integer Gram, and on counts whose
    squares stay below 2^53 each weight is bit-identical to the scalar cosine
    ``dot / sqrt(|x|^2 * |y|^2)`` of the two profiles with all three sums
    exact.
    """
    if len(env.members) < 2:
        raise ValueError("environment must have at least 2 members")
    if not 0.0 <= threshold < 1.0:
        raise ValueError(f"threshold must be in [0, 1), got {threshold}")
    basis, sub = env.direction, env.submatrix

    # Row k is member k; columns are the submatrix journals in id order.
    own = sub._positions(env.members)
    profiles = np.zeros((len(own), len(own)), dtype=np.int64)
    rows, cols = _row_ids(sub._indptr), sub._indices
    if basis is Direction.CITED:
        rows, cols = cols, rows
    profiles[sub._lookup(own)[rows], cols] = sub._data
    profiles[np.arange(len(own)), own] = 0
    profiles = profiles[:, profiles.any(axis=0)]
    as_float = profiles.astype(np.float64)
    # On nonnegative integers this float64 sum is exact below 2^53 and at
    # least 2^53 otherwise, so the first test is exact; the second keeps a
    # factor-2 margin below 2^63, where int64 would wrap.
    largest = (as_float * as_float).sum(axis=1).max()
    if largest < 2.0**53 or largest >= 2.0**62:
        gram = as_float @ as_float.T
    else:
        gram = profiles @ profiles.T
    norms_sq = gram.diagonal().astype(np.float64)
    warnings = tuple(
        f"member {m!r} has an all-zero {basis.value} profile; kept as isolated node"
        for m, norm_sq in zip(env.members, norms_sq)
        if norm_sq == 0.0
    )

    # A zero-profile member's cosines are 0/0 = nan, which no threshold passes.
    with np.errstate(invalid="ignore"):
        weights = np.minimum(gram / np.sqrt(np.multiply.outer(norms_sq, norms_sq)), 1.0)
    rows, cols = np.nonzero(np.triu(weights > threshold, 1))
    graph = SimilarityGraph._from_arrays(
        env.members, rows, cols, weights[rows, cols], directed=False
    )
    graph._label(threshold, basis, warnings)
    return graph
