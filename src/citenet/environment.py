"""Local citation environment of a seed journal.

A journal belongs to the seed's environment in one direction when its direct
link to the seed contributes strictly more than a threshold fraction of the
seed's total citations in that direction.  Contributions are measured against
the seed's full-matrix total, not a total among the members, so the member set
does not depend on itself.  An environment keeps the whole matrix it was drawn
from, and ``env.links``, the members' raw links cut out of it once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .centrality import Graph
from .errors import IsolatedSeedError, UnknownJournalError
from .matrix import CitationMatrix, JournalId, _row_ids


class Direction(Enum):
    """Which side of the citation relation the analysis looks at."""

    CITING = "citing"
    CITED = "cited"


@dataclass(frozen=True)
class SeedEnvironment:
    """Journals around a seed, and the matrix they were drawn from.

    ``members`` starts with the seed, then qualifying journals by descending
    contribution (ties broken by id).  ``contributions`` maps every member to
    its fraction of the seed's relevant total; the seed's own entry is its
    self-citation share.  ``links``, not a dataclass field, is the members'
    raw-link graph ``Graph.from_citation_matrix(matrix, members)``, built
    once, which checks that the members are distinct journals of ``matrix``.
    ``totals``, not a field either, maps each member to its citation totals.
    """

    seed: JournalId
    direction: Direction
    threshold: float
    members: tuple[JournalId, ...]
    matrix: CitationMatrix
    contributions: Mapping[JournalId, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.members or self.members[0] != self.seed:
            raise ValueError("seed must be the first member")
        object.__setattr__(self, "direction", Direction(self.direction))
        object.__setattr__(
            self, "contributions", MappingProxyType(dict(self.contributions))
        )
        object.__setattr__(self, "links", Graph.from_citation_matrix(self.matrix, self.members))

    @cached_property
    def totals(self) -> Mapping[JournalId, tuple[int, int]]:
        """Read-only ``member -> (gross, net_of_self)`` citation totals, in member order.

        A member's totals count its citations among the members in the
        environment's direction: net sums its column (cited) or row (citing) of
        ``links``, which leave out self-citations; gross adds the self-citation
        cell.  Computed on first read.
        """
        indptr, cols, counts = self.links._csr
        axis = cols if self.direction is Direction.CITED else _row_ids(indptr)
        # float64 sums of counts below 2^31, exact for fewer than 2^22 members
        net = np.bincount(axis, counts, len(self.members)).astype(np.int64).tolist()
        return MappingProxyType(
            {j: (n + self.matrix.cell(j, j), n) for j, n in zip(self.members, net)}
        )


def extract_environment(
    m: CitationMatrix,
    seed: JournalId,
    direction: Direction,
    threshold: float,
) -> SeedEnvironment:
    """Extract the seed's environment under a strict contribution threshold.

    For ``Direction.CITED`` a journal j qualifies iff
    ``cells[(j, seed)] / cited_total(seed) > threshold``; for
    ``Direction.CITING`` the roles are swapped.  The inequality is strict:
    a journal contributing exactly the threshold fraction is excluded.

    Raises :class:`UnknownJournalError` for an unknown seed and
    :class:`IsolatedSeedError` when the seed's relevant total is zero.
    """
    direction = Direction(direction)
    if seed not in m:
        raise UnknownJournalError(f"unknown seed journal {seed!r}")
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must be in (0, 1), got {threshold}")

    links = m.col(seed) if direction is Direction.CITED else m.row(seed)
    total = sum(links.values())
    if total == 0:
        raise IsolatedSeedError(
            f"seed {seed!r} is isolated: no {direction.value} citations"
        )

    qualifying = [
        (journal_id, count)
        for journal_id, count in links.items()
        if journal_id != seed and count / total > threshold
    ]
    qualifying.sort(key=lambda item: (-item[1], item[0]))

    members = (seed,) + tuple(journal_id for journal_id, _ in qualifying)
    contributions = {seed: links.get(seed, 0) / total}
    contributions.update(
        (journal_id, count / total) for journal_id, count in qualifying
    )

    return SeedEnvironment(seed, direction, threshold, members, m, contributions)
