"""Journal-level bibliometric indicators.

The impact factor takes explicit per-year inputs instead of deriving them
from a :class:`~citenet.matrix.CitationMatrix`, because a matrix aggregates a
single year and carries no publication-year attribution.  Values are exact
quotients here and rounded only at report time.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from .errors import UnknownJournalError

if TYPE_CHECKING:
    from .matrix import CitationMatrix, JournalId


def impact_factor(
    cites_to_t1: int, cites_to_t2: int, citable_t1: int, citable_t2: int
) -> float:
    """Citations in year t to items from t-1 and t-2, per citable item."""
    values = (cites_to_t1, cites_to_t2, citable_t1, citable_t2)
    if any(v < 0 for v in values):
        raise ValueError(f"inputs must be nonnegative, got {values}")
    citable = citable_t1 + citable_t2
    if citable == 0:
        raise ValueError("no citable items in either year")
    return (cites_to_t1 + cites_to_t2) / citable


def quasi_impact_factor(
    cites_to_t1: int,
    cites_to_t2: int,
    citable_t1: int,
    citable_t2: int,
    self_cites_to_t1: int,
    self_cites_to_t2: int,
) -> float:
    """Impact factor with within-journal self-citations removed."""
    if self_cites_to_t1 < 0 or self_cites_to_t2 < 0:
        raise ValueError("self-citation counts must be nonnegative")
    if self_cites_to_t1 > cites_to_t1 or self_cites_to_t2 > cites_to_t2:
        raise ValueError("self-citations cannot exceed total citations")
    return impact_factor(
        cites_to_t1 - self_cites_to_t1,
        cites_to_t2 - self_cites_to_t2,
        citable_t1,
        citable_t2,
    )


def h_index(citation_counts: Iterable[int]) -> int:
    """Largest h such that at least h items have at least h citations."""
    counts = sorted(citation_counts, reverse=True)
    if any(c < 0 for c in counts):
        raise ValueError("citation counts must be nonnegative")
    h = 0
    for position, count in enumerate(counts, start=1):
        if count >= position:
            h = position
        else:
            break
    return h


def self_citation_rate(m: CitationMatrix, j: JournalId) -> float:
    """Fraction of a journal's incoming citations that it supplied itself."""
    if j not in m:
        raise UnknownJournalError(f"unknown journal {j!r}")
    cited_total = sum(m.col(j).values())
    if cited_total == 0:
        raise ValueError(f"journal {j!r} has no incoming citations")
    return m.cell(j, j) / cited_total

