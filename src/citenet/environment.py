"""Local citation environment of a seed journal.

A journal belongs to the seed's environment in one direction when its direct
link to the seed contributes strictly more than a threshold fraction of the
seed's total citations in that direction.  Contributions are measured against
the seed's full-matrix total, not the submatrix total, so the member set does
not depend on itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from types import MappingProxyType
from typing import Mapping

from .errors import IsolatedSeedError, UnknownJournalError
from .matrix import CitationMatrix, JournalId, totals


class Direction(Enum):
    """Which side of the citation relation the analysis looks at."""

    CITING = "citing"
    CITED = "cited"


@dataclass(frozen=True)
class SeedEnvironment:
    """Journals around a seed, with the submatrix restricted to them.

    ``members`` starts with the seed, then qualifying journals by descending
    contribution (ties broken by id).  ``contributions`` maps every member to
    its fraction of the seed's relevant total; the seed's own entry is its
    self-citation share.
    """

    seed: JournalId
    direction: Direction
    threshold: float
    members: tuple[JournalId, ...]
    submatrix: CitationMatrix
    contributions: Mapping[JournalId, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.members or self.members[0] != self.seed:
            raise ValueError("seed must be the first member")
        if sorted(self.members) != list(self.submatrix.journals):
            raise ValueError("the submatrix must hold exactly the members, each once")
        object.__setattr__(self, "direction", Direction(self.direction))
        object.__setattr__(
            self, "contributions", MappingProxyType(dict(self.contributions))
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

    return SeedEnvironment(
        seed, direction, threshold, members, m.submatrix(members), contributions
    )


def environment_totals(env: SeedEnvironment, j: JournalId) -> tuple[int, int]:
    """Return ``(gross, net_of_self)`` citation totals of a member.

    Gross is the member's total within the submatrix in the environment's
    direction, diagonal included; net subtracts the self-citation cell.
    """
    if j not in env.members:
        raise UnknownJournalError(f"{j!r} is not a member of this environment")
    cited, citing, self_cites = totals(env.submatrix, j)
    gross = cited if env.direction is Direction.CITED else citing
    return gross, gross - self_cites
