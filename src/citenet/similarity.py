"""Cosine-normalized similarity graphs over citation profiles.

Citation counts are size-dependent, so raw profiles are normalized with the
vector-space cosine before journals are compared.  Edges below (or at) the
visualization threshold are dropped; the inequality is strict, mirroring the
contribution rule used for environment membership.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .environment import Direction, SeedEnvironment
from .errors import UndefinedSimilarityError, ZeroVarianceError
from .matrix import CitationMatrix, JournalId, citation_profiles

logger = logging.getLogger(__name__)


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
    squares stay below 2^53 each weight is bit-identical to :func:`cosine`
    of the two profiles.
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
