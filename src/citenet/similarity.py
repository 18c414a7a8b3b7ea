"""Cosine-normalized similarity graphs over citation profiles.

Citation counts are size-dependent, so raw profiles are normalized with the
vector-space cosine before journals are compared.  Edges below (or at) the
visualization threshold are dropped; the inequality is strict, mirroring the
contribution rule used for environment membership.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .environment import Direction, SeedEnvironment
from .matrix import CitationMatrix, JournalId, citation_profiles

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class SimilarityGraph:
    """Undirected cosine-weighted graph over environment members.

    Edges are keyed ``(u, v)`` with u before v in node order; every stored
    weight strictly exceeds ``threshold``.  ``basis`` records which profile
    direction was compared.  Members whose profile was all-zero stay in
    ``nodes`` as isolated vertices and are listed in ``warnings``.
    """

    nodes: tuple[JournalId, ...]
    edges: Mapping[tuple[JournalId, JournalId], float]
    threshold: float
    basis: Direction
    warnings: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "edges", MappingProxyType(dict(self.edges)))

    def weight(self, u: JournalId, v: JournalId) -> float | None:
        """Edge weight between two nodes, or None when no edge is stored."""
        return self.edges.get((u, v), self.edges.get((v, u)))


def similarity_graph(
    env: SeedEnvironment,
    threshold: float,
    *,
    direction: Direction | None = None,
    full_matrix: CitationMatrix | None = None,
) -> SimilarityGraph:
    """Build the cosine similarity graph over an environment's members.

    Member profiles are compared along the environment member list as
    coordinate axes, with each member's own diagonal (self-citation) entry
    zeroed first.  An edge is stored iff its cosine strictly exceeds
    *threshold*; edges are stored in node order, row by row.

    *direction* overrides the profile basis (default: the environment's own
    direction).  Passing *full_matrix* switches the coordinate axes to the
    full journal set of that matrix, for sensitivity analysis.

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
    basis = env.direction if direction is None else direction
    source = env.submatrix if full_matrix is None else full_matrix

    profiles = citation_profiles(source, env.members, citing=basis is Direction.CITING)
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
    for message in warnings:
        logger.warning(message)

    # A zero-profile member's cosines are 0/0 = nan, which no threshold passes.
    with np.errstate(invalid="ignore"):
        weights = np.minimum(gram / np.sqrt(np.multiply.outer(norms_sq, norms_sq)), 1.0)
    rows, cols = np.nonzero(np.triu(weights > threshold, 1))
    pairs = zip(rows.tolist(), cols.tolist(), weights[rows, cols].tolist())
    edges = {(env.members[i], env.members[j]): weight for i, j, weight in pairs}
    return SimilarityGraph(env.members, edges, threshold, basis, warnings)
