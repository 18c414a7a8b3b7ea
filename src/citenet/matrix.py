"""Journal-to-journal citation matrices: parsing, merging, persistence, degrees.

The interchange format is a plain edge-list CSV:

    citing,cited,count

one directed edge per line, counts as base-10 nonnegative integers of at
most ``MAX_COUNT``, UTF-8 (a leading byte-order mark is ignored), LF line
endings.  Diagonal entries (``citing == cited``) are within-journal
self-citations and are stored like any other cell; downstream code decides
whether to exclude them.  Duplicate ``(citing, cited)`` rows are summed so
per-issue extracts can be concatenated.

A persisted matrix is the edge-list CSV plus a sidecar JSON document
(``<path>.meta.json``) holding the year, the journal registry (including
journals that have no citation links at all) and the CSV's sha256.  A third
file, ``<path>.csr.npz``, caches the matrix's CSR arrays keyed on the sha256
of the exact CSV and sidecar bytes it was written with.  It only makes loads
faster: a missing, stale or damaged cache is ignored and the CSV is parsed,
so deleting it is always safe, and matrices persisted without one load by
parsing.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import operator
import os
import re
from collections.abc import ItemsView, Mapping, ValuesView
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from types import MappingProxyType
from typing import IO, Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    EdgeListParseError,
    SidecarError,
    UnknownJournalError,
    YearMismatchError,
)

JournalId = str
# A canonical CSR's (indptr, indices, data); a matrix holds int64, int32, int32.
CSR = tuple[np.ndarray, np.ndarray, np.ndarray]

EDGE_HEADER = "citing,cited,count"
REGISTRY_HEADER = ("id", "display_name", "source_index")
SIDECAR_SUFFIX = ".meta.json"
BINARY_SUFFIX = ".csr.npz"

# Cell counts for journals indexed in both source databases are summed on
# merge; the sidecar records this so persisted matrices are self-describing.
MERGE_POLICY = "sum"

# Largest count a row or a stored cell may carry: it fits in int32, and every
# int64 sum of counts stays below 2^63: a cell summed over fewer than 2^32
# duplicate rows, a row or column total, and the cell-wise sum of a merge.
MAX_COUNT = 2**31 - 1

BOM = "\ufeff"

# Ids that _validate_id accepts, one per line: ``\s`` matches exactly the
# characters str.isspace accepts, the newline among them.
_ID_LINES = re.compile(r'(?:[^\s",\\\ud800-\udfff]+\n)*')
_BLOCK_CHARS = 1 << 20
_HASH_BYTES = 1 << 18
_COUNT_CELLS = 1 << 16


class SourceIndex(Enum):
    """Which citation index a journal record came from."""

    SCI = "SCI"
    SSCI = "SSCI"
    BOTH = "BOTH"


_SOURCES = {source.value: source for source in SourceIndex}


def _valid_ids(tokens: Sequence[str]) -> bool:
    """Whether :func:`_validate_id` accepts every one of *tokens*."""
    lines = "\n".join([*tokens, ""])
    # A token holding a newline would otherwise read as two valid lines.
    return lines.count("\n") == len(tokens) and _ID_LINES.fullmatch(lines) is not None


def _validate_id(token: str) -> str:
    if not token:
        raise ValueError("journal id must be nonempty")
    if any(ch.isspace() for ch in token):
        raise ValueError(f"journal id {token!r} must not contain whitespace")
    # Pajek and DOT put ids in double quotes; DOT reads a backslash as an escape.
    if '"' in token or "\\" in token:
        raise ValueError(f"journal id {token!r} must not contain '\"' or a backslash")
    # The persisted CSV writes ids unquoted between commas.
    if "," in token:
        raise ValueError(f"journal id {token!r} must not contain a comma")
    # Every file the toolkit writes is UTF-8, which cannot encode one.
    if re.search(r"[\ud800-\udfff]", token):
        raise ValueError(f"journal id {token!r} must not contain a lone surrogate")
    return token


@dataclass(frozen=True)
class Journal:
    """A journal keyed by its abbreviation token."""

    id: JournalId
    display_name: str
    source_index: SourceIndex = SourceIndex.SCI

    def __post_init__(self) -> None:
        _validate_id(self.id)
        if not self.display_name:
            raise ValueError(f"journal {self.id!r}: display_name must be nonempty")
        object.__setattr__(self, "source_index", SourceIndex(self.source_index))


class _Registry(Mapping):
    """Read-only ``id -> Journal`` view of journal columns in id order.

    Holds three parallel tuples (ids, display names, source indices) and
    builds a :class:`Journal` from them on each access.
    """

    __slots__ = ("_ids", "_names", "_sources", "_index")

    def __init__(
        self, ids: Sequence[JournalId], names: Sequence[str], sources: Sequence[SourceIndex]
    ) -> None:
        """Columns of distinct, already validated journals, in any order."""
        if any(a > b for a, b in zip(ids, ids[1:])):
            order = sorted(range(len(ids)), key=ids.__getitem__)
            ids, names, sources = ([column[k] for k in order] for column in (ids, names, sources))
        self._ids, self._names, self._sources = tuple(ids), tuple(names), tuple(sources)
        self._index = {journal_id: k for k, journal_id in enumerate(self._ids)}

    @classmethod
    def _of(cls, journals: Iterable[Journal]) -> "_Registry":
        """The registry of *journals*, whose ids are distinct."""
        journals = list(journals)
        return cls(
            [journal.id for journal in journals],
            [journal.display_name for journal in journals],
            [journal.source_index for journal in journals],
        )

    def __getitem__(self, journal_id: JournalId) -> Journal:
        k = self._index[journal_id]
        return Journal(self._ids[k], self._names[k], self._sources[k])

    def __iter__(self) -> Iterator[JournalId]:
        return iter(self._ids)

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, journal_id: object) -> bool:
        return journal_id in self._index

    def __repr__(self) -> str:
        return f"{type(self).__name__}({dict(self)!r})"


def _canonical(n: int, rows, cols, values: np.ndarray) -> CSR:
    """``(indptr, indices, data)`` of the n-by-n CSR holding the given cells.

    Duplicate cells are summed, zero sums dropped and each row's indices
    sorted.  *values* keeps its dtype.  The sort is not stable, so
    duplicates are summed in no fixed order.  Every caller's sums are
    exact in any order: integer sums are, ``Graph`` cells are distinct, and
    ``_symmetric_adjacency`` sums at most two floats per cell, which commute.
    """
    assert n * n < 2**63, "cell keys row * n + col must fit in int64"
    key = np.asarray(rows, dtype=np.int64) * n + np.asarray(cols, dtype=np.int64)
    order = np.argsort(key)
    key, values = key[order], values[order]
    if len(key):
        first = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
        key, values = key[first], np.add.reduceat(values, first)
        nonzero = values != 0
        key, values = key[nonzero], values[nonzero]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(key // n, minlength=n), out=indptr[1:])
    return indptr, key % n, values


def _row_ids(indptr: np.ndarray) -> np.ndarray:
    """The row of every stored entry of a CSR with this *indptr*."""
    return np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))


def _row_entries(indptr: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(place in *rows*, entry) of every stored entry of *rows*, in that order."""
    starts = indptr[rows]
    lengths = indptr[rows + 1] - starts
    first = np.cumsum(lengths) - lengths
    entries = np.repeat(starts - first, lengths)
    entries += np.arange(len(entries))
    return np.repeat(np.arange(len(rows)), lengths), entries


class CitationMatrix:
    """Sparse directed weighted journal-to-journal citation counts for one year.

    Journal ids are sorted and numbered once; the counts live in one
    canonical CSR over those numbers: numpy arrays ``indptr`` (int64),
    ``indices`` and ``data`` (int32).  There is no column-major copy, so ``col``
    scans every stored index.  Immutable once constructed: all accessors
    return read-only views, so a matrix can be shared across concurrent
    computations without coordination.  Only strictly positive counts are
    stored; every journal referenced by a cell is present in the registry
    (the registry may contain additional, isolated journals).  The registry
    is kept as columns of ids, display names and source indices, and
    ``journals`` builds each :class:`Journal` when it is read.  ``cells``,
    ``journals``, ``row`` and ``col`` iterate in journal-id order.
    """

    __slots__ = ("_year", "_journals", "_ids", "_index", "_indptr", "_indices", "_data")

    def __init__(
        self,
        year: int,
        journals: Iterable[Journal],
        cells: Mapping[tuple[JournalId, JournalId], int],
    ) -> None:
        registry: dict[JournalId, Journal] = {}
        for journal in journals:
            existing = registry.get(journal.id)
            if existing is not None and existing != journal:
                raise ValueError(f"conflicting registry entries for {journal.id!r}")
            registry[journal.id] = journal
        registry = _Registry._of(registry.values())
        index = registry._index

        rows: list[int] = []
        cols: list[int] = []
        counts: list[int] = []
        for (citing, cited), count in cells.items():
            try:
                count = operator.index(count)
            except TypeError:
                raise ValueError(
                    f"cell ({citing}, {cited}): count {count!r} is not an integer"
                ) from None
            if count < 0:
                raise ValueError(f"cell ({citing}, {cited}): negative count {count}")
            if count > MAX_COUNT:
                raise ValueError(
                    f"cell ({citing}, {cited}): count {count} exceeds {MAX_COUNT}"
                )
            if count == 0:
                continue
            if citing not in index:
                raise ValueError(f"cell ({citing}, {cited}): unknown citing journal")
            if cited not in index:
                raise ValueError(f"cell ({citing}, {cited}): unknown cited journal")
            rows.append(index[citing])
            cols.append(index[cited])
            counts.append(count)
        csr = _canonical(len(index), rows, cols, np.array(counts, dtype=np.int64))
        self._assign(year, registry, csr)

    @classmethod
    def _from_csr(cls, year: int, registry: _Registry, csr: CSR) -> "CitationMatrix":
        """Wrap a canonical CSR whose axes are the journals of *registry*."""
        m = cls.__new__(cls)
        m._assign(year, registry, csr)
        return m

    def _assign(self, year: int, registry: _Registry, csr: CSR) -> None:
        self._year = year
        self._journals = registry
        self._ids, self._index = registry._ids, registry._index
        self._indptr, self._indices, self._data = (
            a.astype(dtype, copy=False) for a, dtype in zip(csr, (np.int64, np.int32, np.int32)))

    @property
    def year(self) -> int:
        return self._year

    @property
    def journals(self) -> Mapping[JournalId, Journal]:
        """Read-only ``id -> Journal`` view in id order."""
        return self._journals

    @property
    def cells(self) -> Mapping[tuple[JournalId, JournalId], int]:
        return _Cells(self)

    def __contains__(self, journal_id: JournalId) -> bool:
        return journal_id in self._journals

    def __len__(self) -> int:
        return len(self._journals)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CitationMatrix):
            return NotImplemented
        return (
            self._year == other._year
            and self._journals == other._journals
            and np.array_equal(self._indptr, other._indptr)
            and np.array_equal(self._indices, other._indices)
            and np.array_equal(self._data, other._data)
        )

    def __repr__(self) -> str:
        return (
            f"CitationMatrix(year={self._year}, journals={len(self._journals)}, "
            f"cells={len(self._data)})"
        )

    def cell(self, citing: JournalId, cited: JournalId) -> int:
        """Count of citations from *citing* to *cited* (0 if absent)."""
        i = self._index.get(citing)
        j = self._index.get(cited)
        if i is None or j is None:
            return 0
        start, end = self._indptr[i], self._indptr[i + 1]
        k = start + np.searchsorted(self._indices[start:end], j)
        if k < end and self._indices[k] == j:
            return int(self._data[k])
        return 0

    def row(self, citing: JournalId) -> Mapping[JournalId, int]:
        """Outgoing counts of *citing*: cited journal -> count."""
        i = self._index.get(citing)
        if i is None:
            return MappingProxyType({})
        entries = slice(self._indptr[i], self._indptr[i + 1])
        return self._line(self._indices[entries], self._data[entries])

    def col(self, cited: JournalId) -> Mapping[JournalId, int]:
        """Incoming counts of *cited*: citing journal -> count."""
        j = self._index.get(cited)
        if j is None:
            return MappingProxyType({})
        entries = np.flatnonzero(self._indices == j)
        rows = np.searchsorted(self._indptr, entries, side="right") - 1
        return self._line(rows, self._data[entries])

    def _line(self, others: np.ndarray, counts: np.ndarray) -> Mapping[JournalId, int]:
        journal_ids = map(self._ids.__getitem__, others.tolist())
        return MappingProxyType(dict(zip(journal_ids, counts.tolist())))

    def _lookup(self, positions: np.ndarray) -> np.ndarray:
        """Journal number -> its place in *positions*, or -1 if absent."""
        lookup = np.full(len(self._ids), -1, dtype=np.int64)
        lookup[positions] = np.arange(len(positions))
        return lookup

    def _positions(self, journal_ids: Iterable[JournalId]) -> np.ndarray:
        unknown = [journal_id for journal_id in journal_ids if journal_id not in self._index]
        if unknown:
            raise UnknownJournalError(f"not in matrix: {unknown}")
        return np.array([self._index[j] for j in journal_ids], dtype=np.int64)

    def _triples(self) -> tuple[Iterator[JournalId], Iterator[JournalId], list[int]]:
        """(citing ids, cited ids, counts) of every cell, in id order."""
        citing = map(self._ids.__getitem__, _row_ids(self._indptr).tolist())
        cited = map(self._ids.__getitem__, self._indices.tolist())
        return citing, cited, self._data.tolist()


class _Cells(Mapping):
    """Read-only ``(citing, cited) -> count`` view of a matrix's stored cells."""

    __slots__ = ("_matrix",)

    def __init__(self, matrix: CitationMatrix) -> None:
        self._matrix = matrix

    def __getitem__(self, key: tuple[JournalId, JournalId]) -> int:
        try:
            citing, cited = key
        except (TypeError, ValueError):
            raise KeyError(key) from None
        count = self._matrix.cell(citing, cited)
        if count == 0:
            raise KeyError(key)
        return count

    def __len__(self) -> int:
        return len(self._matrix._data)

    def __iter__(self) -> Iterator[tuple[JournalId, JournalId]]:
        citing, cited, _ = self._matrix._triples()
        return zip(citing, cited)

    def items(self) -> ItemsView:
        return _CellItems(self)

    def values(self) -> ValuesView:
        return _CellValues(self)


class _CellItems(ItemsView):
    def __iter__(self):
        citing, cited, counts = self._mapping._matrix._triples()
        return zip(zip(citing, cited), counts)


class _CellValues(ValuesView):
    def __iter__(self):
        return iter(self._mapping._matrix._data.tolist())


def _parse_count(field: str, line_no: int) -> int:
    if field.isascii() and field.isdigit():
        digits = field.lstrip("0") or "0"
        if len(digits) <= len(str(MAX_COUNT)) and int(digits) <= MAX_COUNT:
            return int(digits)
        raise EdgeListParseError(line_no, f"count {field} exceeds {MAX_COUNT}")
    try:
        value = int(field)
    except ValueError:
        raise EdgeListParseError(line_no, f"non-integer count {field!r}") from None
    if value < 0:
        raise EdgeListParseError(line_no, f"negative count {value}")
    # Reject forms like "+5" or "1_0" that int() would accept.
    raise EdgeListParseError(line_no, f"malformed count {field!r}")


def _blocks(stream: IO[str]) -> Iterator[tuple[int, str]]:
    """``(first line number, text)`` pieces of the stream, cut after a newline."""
    line_no = 1
    carry = ""
    while True:
        chunk = stream.read(_BLOCK_CHARS)
        if not chunk:
            break
        chunk = carry + chunk
        cut = chunk.rfind("\n") + 1
        carry = chunk[cut:]
        if cut:
            yield line_no, chunk[:cut]
            line_no += chunk.count("\n", 0, cut)
    if carry:
        yield line_no, carry


def _intern(token: str, line_no: int, seen: dict[JournalId, int]) -> int:
    """The number of *token* in *seen*, validated and added when first met."""
    if token not in seen:
        try:
            _validate_id(token)
        except ValueError as exc:
            raise EdgeListParseError(line_no, str(exc)) from None
        seen[token] = len(seen)
    return seen[token]


def _parse_block(text: str, first_line: int, seen: dict[JournalId, int]):
    """Rows of one block as ``(citing, cited, count, line number)`` arrays.

    Ids are numbered in *seen*, each validated when first met.  Blocks of
    canonical rows are split in bulk; any other block, or one with a count
    above ``MAX_COUNT``, goes line by line, which raises the exact error.
    """
    start = 0
    if first_line == 1:
        text = text.removeprefix(BOM)
        end = text.find("\n") + 1 or len(text)
        if text[:end].strip().lower() == EDGE_HEADER:
            start = end
    if not text.endswith("\n"):
        text += "\n"
    data_line = first_line + text.count("\n", 0, start)
    bulk = _bulk_rows(text, start, data_line, seen)
    return bulk if bulk is not None else _parse_lines(text, start, data_line, seen)


def _bulk_rows(text: str, start: int, data_line: int, seen: dict[JournalId, int]):
    """The rows of ``text[start:]`` split in bulk, or None (leaving *seen* as
    it was) unless each line is two ids :func:`_valid_ids` accepts and a
    count of one to ten ASCII digits, at most ``MAX_COUNT``.  Checked on the
    UTF-8 bytes, where no multibyte character holds a comma or newline byte.

    Id fields are numbered from their bytes (:func:`_field_numbers`); only
    one field per distinct id is decoded, checked and numbered in *seen*."""
    raw = text[start:].encode("utf-8", "surrogatepass") + bytes(8)
    data = np.frombuffer(raw, dtype=np.uint8)[:-8]
    ends = np.flatnonzero(data == ord("\n"))
    commas = np.flatnonzero(data == ord(","))
    if len(commas) != 2 * len(ends):
        return None
    # As many comma pairs as lines, and (checked below) only digits after the
    # second comma of each pair up to its line's end: each line holds one pair.
    width = ends - commas[1::2] - 1
    if not np.all((width > 0) & (width <= 10)):
        return None
    counts = np.zeros(len(ends), dtype=np.int64)
    for place in range(10):  # one decimal place per pass, from the right
        lines = np.flatnonzero(width > place)
        digits = data[ends[lines] - 1 - place] - np.uint8(ord("0"))
        if digits.max(initial=0) > 9:
            return None
        counts[lines] += digits * np.int64(10) ** place
    if counts.max(initial=0) > MAX_COUNT:
        return None
    # Field 2k is line k's citing id, field 2k + 1 its cited id; field j
    # ends at commas[j] and starts after the newline or comma before it.
    firsts = np.zeros(len(commas), dtype=np.int64)
    firsts[1::2] = commas[0::2] + 1
    firsts[2::2] = ends[:-1] + 1
    numbers = _field_numbers(raw, firsts, commas)
    # Fields with one number hold the same bytes: any of them stands for it.
    sample = np.empty(numbers.max(initial=-1) + 1, dtype=np.int64)
    sample[numbers] = np.arange(len(numbers))
    tokens = [raw[a:b].decode("utf-8", "surrogatepass")
              for a, b in zip(firsts[sample].tolist(), commas[sample].tolist())]
    if not _valid_ids(tokens):
        return None
    ids = np.array([seen.setdefault(token, len(seen)) for token in tokens], dtype=np.int64)
    ids = ids[numbers]
    line_nos = np.arange(data_line, data_line + len(counts), dtype=np.int64)
    return ids[0::2], ids[1::2], counts, line_nos


# Keeps the first k bytes of a little-endian 8-byte word, k = 0..8.
_WORD_MASKS = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64)


def _field_numbers(raw: bytes, firsts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Numbers 0, 1, ... of the fields ``raw[firsts[j]:ends[j]]``,
    equal exactly when the fields' bytes are.  *raw* ends in 8 bytes that no
    field covers.

    Fields are grouped by length, then regrouped by each 8-byte word in turn,
    read little-endian and masked to the field's length: two fields share a
    number only if their lengths and all their words are equal.
    """
    lengths = ends - firsts
    words = np.ndarray((len(raw) - 7,), "<u8", raw, 0, (1,))  # words[p]: raw[p:p + 8]
    numbers = lengths
    for offset in range(0, int(lengths.max(initial=0)), 8):
        word = words[np.minimum(firsts + offset, len(words) - 1)]
        word &= _WORD_MASKS[np.clip(lengths - offset, 0, 8)]
        _, word_numbers = np.unique(word, return_inverse=True)
        key = numbers * (word_numbers.max() + 1) + word_numbers
        _, numbers = np.unique(key, return_inverse=True)
    return numbers


def _parse_lines(text: str, start: int, data_line: int, seen: dict[JournalId, int]):
    """The rows of ``text[start:]`` one line at a time, raising
    :class:`EdgeListParseError` at the first malformed one."""
    rows, cols, counts, line_nos = [], [], [], []
    for line_no, raw_line in enumerate(text[start:-1].split("\n"), start=data_line):
        line = raw_line.rstrip("\r")
        if not line.strip():
            continue
        fields = line.split(",")
        if len(fields) != 3:
            raise EdgeListParseError(line_no, f"expected 3 fields, got {len(fields)}")
        citing_field, cited_field, count_field = (f.strip() for f in fields)
        rows.append(_intern(citing_field, line_no, seen))
        cols.append(_intern(cited_field, line_no, seen))
        counts.append(_parse_count(count_field, line_no))
        line_nos.append(line_no)
    return tuple(np.array(column, dtype=np.int64) for column in (rows, cols, counts, line_nos))


def _first_overflow(rows: np.ndarray, cols: np.ndarray, counts: np.ndarray) -> int:
    """Index of the first row at which its cell's running sum passes MAX_COUNT."""
    order = np.lexsort((cols, rows))
    sorted_counts = counts[order]
    running = np.cumsum(sorted_counts)
    new_cell = np.ones(len(order), dtype=bool)
    new_cell[1:] = (np.diff(rows[order]) != 0) | (np.diff(cols[order]) != 0)
    before = np.maximum.accumulate(np.where(new_cell, running - sorted_counts, 0))
    return int(order[running - before > MAX_COUNT].min())


def parse_citation_csv(
    stream: IO[str] | str,
    year: int,
    *,
    source: SourceIndex = SourceIndex.SCI,
    registry: Mapping[JournalId, Journal] | None = None,
) -> CitationMatrix:
    """Parse an edge-list CSV into a :class:`CitationMatrix`.

    A byte-order mark and a ``citing,cited,count`` header on line 1 are
    skipped; blank lines are ignored.  Duplicate ``(citing, cited)`` rows are
    summed.  Journals seen in the edge list default to ``display_name == id``
    and the given *source* unless *registry* supplies a record; all registry
    journals are included even when they have no edges.

    Raises :class:`EdgeListParseError` (with the offending line number) on a
    malformed row, a count above ``MAX_COUNT`` or a duplicate row that takes
    its cell above it, and for input containing no data rows at all unless
    a *registry* is given (the matrix then has its journals and no cells).
    """
    source = SourceIndex(source)
    if isinstance(stream, str):
        stream = io.StringIO(stream)

    seen: dict[JournalId, int] = {}
    blocks = [_parse_block(text, line_no, seen) for line_no, text in _blocks(stream)]
    if registry is None and not any(len(block[2]) for block in blocks):
        raise EdgeListParseError(0, "empty input: no edge rows")
    parts = zip(*blocks) if blocks else [[np.zeros(0, dtype=np.int64)]] * 4
    rows, cols, counts, line_nos = map(np.concatenate, parts)

    # Ids in *seen* are validated: an id the registry lacks needs no checks.
    given = {journal.id: journal for journal in (registry or {}).values()}
    ids = sorted(seen.keys() | given.keys())
    journals = _Registry(
        ids,
        [given[j].display_name if j in given else j for j in ids],
        [given[j].source_index if j in given else source for j in ids],
    )
    renumber = np.array([journals._index[journal_id] for journal_id in seen], dtype=np.int64)
    rows, cols = renumber[rows], renumber[cols]

    csr = _canonical(len(journals), rows, cols, counts)
    if csr[2].max(initial=0) > MAX_COUNT:
        k = _first_overflow(rows, cols, counts)
        ids = journals._ids
        raise EdgeListParseError(
            int(line_nos[k]),
            f"cell ({ids[rows[k]]}, {ids[cols[k]]}) sums to more than {MAX_COUNT}",
        )
    return CitationMatrix._from_csr(year, journals, csr)


def _merged_record(a: _Registry, b: _Registry, journal_id: JournalId) -> tuple[str, SourceIndex]:
    """``(display name, source)`` of *journal_id* in the merge of *a* and *b*."""
    i, j = a._index.get(journal_id), b._index.get(journal_id)
    if j is None:
        return a._names[i], a._sources[i]
    if i is None:
        return b._names[j], b._sources[j]
    # Present in both inputs: mark as doubly indexed, prefer a non-default
    # display name from the first operand.
    name = a._names[i] if a._names[i] != journal_id else b._names[j]
    return name, SourceIndex.BOTH


def merge_indices(a: CitationMatrix, b: CitationMatrix) -> CitationMatrix:
    """Merge two same-year matrices: union of journals, cell counts summed.

    Journals present in both inputs get ``SourceIndex.BOTH``.  Raises
    :class:`YearMismatchError` when the years differ, and ``ValueError`` when
    a summed cell exceeds ``MAX_COUNT``.
    """
    if a.year != b.year:
        raise YearMismatchError(f"cannot merge year {a.year} with year {b.year}")
    ids = sorted(a._index.keys() | b._index.keys())
    records = [_merged_record(a._journals, b._journals, journal_id) for journal_id in ids]
    journals = _Registry(ids, [name for name, _ in records], [source for _, source in records])
    position = journals._index
    rows, cols, counts = [], [], []
    for m in (a, b):
        renumber = np.array([position[j] for j in m._ids], dtype=np.int64)
        rows.append(renumber[_row_ids(m._indptr)])
        cols.append(renumber[m._indices])
        counts.append(m._data.astype(np.int64))
    csr = _canonical(
        len(ids), np.concatenate(rows), np.concatenate(cols), np.concatenate(counts)
    )
    indptr, indices, data = csr
    if data.max(initial=0) > MAX_COUNT:
        k = int(np.argmax(data))
        citing = ids[int(np.searchsorted(indptr, k, side="right")) - 1]
        raise ValueError(
            f"merged cell ({citing}, {ids[indices[k]]}): count "
            f"{data[k]} exceeds {MAX_COUNT}"
        )
    return CitationMatrix._from_csr(a.year, journals, csr)


def citation_degrees(
    m: CitationMatrix, journal_ids: Iterable[JournalId]
) -> dict[JournalId, tuple[int, int]]:
    """``journal -> (in, out)`` distinct-neighbour degrees of *journal_ids*, in order.

    In counts the other journals that cite it, out the other journals it
    cites; self-citations are excluded.  ``build_report`` reads a report's
    global degrees here.  Read off the stored cells per row and per column,
    minus the diagonal, so it equals the neighbour counts of
    ``Graph.from_citation_matrix(m, sorted(m.journals))`` without the graph.
    Raises :class:`UnknownJournalError` for an id that is not in *m*.
    """
    journal_ids = list(journal_ids)
    positions = m._positions(journal_ids)
    place, entries = _row_entries(m._indptr, positions)
    diagonal = place[m._indices[entries] == positions[place]]
    self_cited = np.bincount(diagonal, minlength=len(positions))
    degree_out = m._indptr[positions + 1] - m._indptr[positions] - self_cited
    # Counted in pieces: bincount would copy all of the int32 indices to int64.
    pieces = np.array_split(m._indices, len(m._indices) // _COUNT_CELLS + 1)
    degree_in = sum(np.bincount(piece, minlength=len(m)) for piece in pieces)
    degree_in = degree_in[positions] - self_cited
    return dict(zip(journal_ids, zip(degree_in.tolist(), degree_out.tolist())))


def _csv_bytes(m: CitationMatrix) -> bytes:
    """Deterministic edge-list CSV as UTF-8 bytes (sorted cells, LF endings),
    built in numpy: each id is encoded once and gathered into every line naming
    it, and each count is written one decimal digit per pass, from the right."""
    header = np.frombuffer((EDGE_HEADER + "\n").encode(), dtype=np.uint8)
    names = [journal_id.encode("utf-8") for journal_id in m._ids]
    pool = np.frombuffer(b"".join(names), dtype=np.uint8)
    length = np.fromiter(map(len, names), np.int64, len(names))
    offset = np.cumsum(length) - length
    rows, left = _row_ids(m._indptr), m._data
    citing, cited = length[rows], length[m._indices]
    # Two ids, a count of 1 to 10 digits, two commas and a newline.
    line = np.searchsorted(10 ** np.arange(1, 10), left, side="right") + 4 + citing + cited
    ends = np.cumsum(line) + (len(header) - 1)  # the newline of each line
    out = np.empty(len(header) + line.sum(), dtype=np.uint8)
    out[: len(header)] = header
    starts = ends + 1 - line
    _gather(out, starts, pool, offset[rows], citing)
    _gather(out, starts + citing + 1, pool, offset[m._indices], cited)
    out[starts + citing] = out[starts + citing + 1 + cited] = ord(",")
    out[ends] = ord("\n")
    place = ends - 1
    while len(left):
        out[place] = ord("0") + left % 10
        left = left // 10
        place, left = place[left > 0] - 1, left[left > 0]
    return out.tobytes()


def _gather(out: np.ndarray, starts, pool: np.ndarray, first, length) -> None:
    """Copy ``pool[first[k]:first[k] + length[k]]`` into *out* at ``starts[k]``."""
    source = np.repeat(first - np.cumsum(length) + length, length)
    source += np.arange(len(source))
    target = np.repeat(starts - first, length)
    target += source
    out[target] = pool[source]


def _sidecar_bytes(m: CitationMatrix, csv_sha256: str) -> bytes:
    """The sidecar: ``json.dumps(meta, indent=2)`` and a newline, byte for
    byte, with each journal filled into the template that call would give it."""
    text = json.dumps({"format": "citation-matrix", "year": m.year, "merge_policy": MERGE_POLICY,
                       "csv_sha256": csv_sha256, "journals": []}, indent=2)
    entry = '    {\n      "id": %s,\n      "display_name": %s,\n      "source_index": %s\n    }'
    quote = json.encoder.encode_basestring_ascii
    registry = m._journals
    entries = [
        entry % (quote(journal_id), quote(name), quote(source.value))
        for journal_id, name, source in zip(registry._ids, registry._names, registry._sources)
    ]
    if entries:
        text = text.removesuffix("[]\n}") + "[\n" + ",\n".join(entries) + "\n  ]\n}"
    return (text + "\n").encode()


def _sidecar_path(path: Path) -> Path:
    return path.with_name(path.name + SIDECAR_SUFFIX)


def _replace(path: Path, data: bytes) -> None:
    """Write *data* beside *path* under a temporary name, then move it there."""
    temporary = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        temporary.write_bytes(data)
        os.replace(temporary, path)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise


def _binary_path(path: Path) -> Path:
    return path.with_name(path.name + BINARY_SUFFIX)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _file_sha256(path: Path) -> str:
    """The sha256 of the file at *path*, read through one reused buffer."""
    digest = hashlib.sha256()
    buffer = bytearray(_HASH_BYTES)
    view = memoryview(buffer)
    with path.open("rb", buffering=0) as stream:
        while size := stream.readinto(buffer):
            digest.update(view[:size])
    return digest.hexdigest()


def write_matrix(m: CitationMatrix, path: str | Path) -> None:
    """Persist a matrix: edge-list CSV at *path*, its CSR cache, a sidecar.

    Each file is written under a temporary name and moved into place, the
    sidecar last, so a reader never sees a half-written file.  The cache
    records the sha256 of the CSV and sidecar bytes written with it.
    """
    path = Path(path)
    data = _csv_bytes(m)
    digest = _sha256(data)
    sidecar = _sidecar_bytes(m, digest)
    binary = io.BytesIO()
    np.savez(binary, indptr=m._indptr, indices=m._indices, data=m._data,
             csv_sha256=np.array(digest), sidecar_sha256=np.array(_sha256(sidecar)))
    _replace(path, data)
    _replace(_binary_path(path), binary.getvalue())
    _replace(_sidecar_path(path), sidecar)


def _sidecar_object(pairs: list[tuple[str, object]]) -> tuple | dict:
    """A decoded sidecar object: the tuple of its values if its keys are
    :data:`REGISTRY_HEADER` in that order, as :func:`write_matrix` writes each
    journal (a third of a dict's memory), else a dict, in which a repeated
    key keeps its last value.  JSON arrays decode to lists, so every tuple in
    a decoded sidecar is such an entry."""
    keys, values = zip(*pairs) if pairs else ((), ())
    return values if keys == REGISTRY_HEADER else dict(pairs)


def _entry_fields(entry: object) -> tuple:
    """A journals entry's values under :data:`REGISTRY_HEADER`, None where absent."""
    if isinstance(entry, tuple):
        return entry
    if isinstance(entry, dict):
        return tuple(entry.get(key) for key in REGISTRY_HEADER)
    return (None, None, None)


def _read_sidecar(sidecar: Path, raw: bytes) -> tuple[int, _Registry, str]:
    """``(year, registry, recorded CSV sha256)`` from sidecar bytes."""
    try:
        meta = json.loads(raw.decode("utf-8"), object_pairs_hook=_sidecar_object)
    except (ValueError, RecursionError) as exc:
        raise SidecarError(f"{sidecar}: not a JSON document ({exc})") from None
    if isinstance(meta, tuple):
        meta = dict(zip(REGISTRY_HEADER, meta))
    if not isinstance(meta, dict):
        raise SidecarError(f"{sidecar}: expected a JSON object")
    year = meta.get("year")
    if not isinstance(year, int) or isinstance(year, bool):
        raise SidecarError(f"{sidecar}: no integer \"year\"")
    entries = meta.get("journals")
    if not isinstance(entries, list):
        raise SidecarError(f"{sidecar}: no \"journals\" list")
    rows = [_entry_fields(entry) for entry in entries]
    registry = _journals_in_bulk(rows)
    if registry is None:
        # Some entry is malformed or repeats an id: check one at a time to
        # name the first.
        journals = {}
        for k, fields in enumerate(rows):
            try:
                if not all(isinstance(field, str) for field in fields):
                    raise ValueError(f"needs string fields {', '.join(REGISTRY_HEADER)}")
                if fields[0] in journals:
                    raise ValueError(f"repeats the id {fields[0]!r}")
                journals[fields[0]] = Journal(fields[0], fields[1], SourceIndex(fields[2]))
            except ValueError as exc:
                raise SidecarError(
                    f"{sidecar}: malformed journals entry {k}: {exc}"
                ) from None
        registry = _Registry._of(journals.values())
    digest = meta.get("csv_sha256")
    if not isinstance(digest, str):
        raise SidecarError(f"{sidecar}: no string \"csv_sha256\"")
    return year, registry, digest


def _journals_in_bulk(rows: list[tuple]) -> _Registry | None:
    """The registry of sidecar entries' ``(id, display_name, source_index)``
    *rows*, or None if any is malformed or two share an id.

    Makes the checks of :class:`Journal` once over all entries, so that a
    valid registry costs no per-journal validation.
    """
    ids, names, sources = zip(*rows) if rows else ((), (), ())
    # Decoded JSON strings are of type str exactly.
    if not (
        set(map(type, ids + names + sources)) <= {str}
        and _valid_ids(ids)
        and all(names)
        and set(sources) <= _SOURCES.keys()
    ):
        return None
    registry = _Registry(ids, names, [_SOURCES[source] for source in sources])
    return registry if len(registry._index) == len(ids) else None


def _is_canonical_csr(indptr, indices, data, n: int) -> bool:
    """Whether the arrays form an n-by-n CSR with sorted indices and valid counts."""
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
    # A step down (or a repeat) is allowed only where a new row starts.
    unsorted = indices[1:] <= indices[:-1]
    starts = indptr[1:-1]
    unsorted[starts[(starts > 0) & (starts < len(indices))] - 1] = False
    return not unsorted.any()


def _load_binary(
    path: Path, n: int, csv_sha256: str, sidecar_sha256: str
) -> CSR | None:
    """The CSR cached at *path*, or None if the file is unreadable, was
    written with other CSV or sidecar bytes, or is not a canonical n-by-n CSR."""
    try:
        with np.load(path, allow_pickle=False) as npz:
            if (
                npz["csv_sha256"].tolist() != csv_sha256
                or npz["sidecar_sha256"].tolist() != sidecar_sha256
            ):
                return None
            indptr, indices, data = npz["indptr"], npz["indices"], npz["data"]
    except Exception:
        # Foreign bytes reach zipfile and numpy's format reader, which raise
        # many exception types; for a disposable cache each is only a miss.
        return None
    if not _is_canonical_csr(indptr, indices, data, n):
        return None
    return indptr, indices, data


def read_matrix(path: str | Path, *, year: int | None = None) -> CitationMatrix:
    """Load a persisted matrix (CSV plus sidecar, and the CSR cache if valid).

    Without a sidecar the *year* argument is required and all journals
    default to SCI with ``display_name == id``.  A sidecar must record the
    sha256 of the CSV, and it must match.  A header-only CSV loads as a
    matrix with the sidecar's journals and no cells.  Raises
    :class:`SidecarError` for a malformed or mismatched sidecar.

    After those checks the ``.csr.npz`` cache is used when it records the
    sha256 of these exact CSV and sidecar bytes and holds a canonical CSR
    over the sidecar's journals; otherwise the CSV is parsed.  The CSV is
    hashed in pieces and read whole only to be parsed, and a
    :class:`SidecarError` is raised if the bytes read then are not the
    bytes hashed.
    """
    path = Path(path)
    sidecar = _sidecar_path(path)
    if not sidecar.exists():
        # Read before the year check, so that a missing CSV is reported as such.
        data = path.read_bytes()
        if year is None:
            raise ValueError(f"no sidecar at {sidecar} and no year given")
        return parse_citation_csv(_text(data), year)
    meta = sidecar.read_bytes()
    year, registry, digest = _read_sidecar(sidecar, meta)
    csv_sha256 = _file_sha256(path)
    if csv_sha256 != digest:
        raise SidecarError(
            f"{sidecar} does not belong to {path}: the CSV's sha256 differs "
            "from the one the sidecar records"
        )
    csr = _load_binary(_binary_path(path), len(registry), csv_sha256, _sha256(meta))
    if csr is not None:
        return CitationMatrix._from_csr(year, registry, csr)
    data = path.read_bytes()
    if _sha256(data) != csv_sha256:
        raise SidecarError(f"{path} changed while it was being read")
    return parse_citation_csv(_text(data), year, registry=registry)


def _text(data: bytes) -> IO[str]:
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")


def _records(reader) -> Iterator[tuple[int, list[str]]]:
    """(first line, record) of each of the reader's records, with the csv
    module's own errors made parse errors."""
    line_no = 1
    try:
        for fields in reader:
            yield line_no, fields
            line_no = reader.line_num + 1
    except csv.Error as exc:
        raise EdgeListParseError(reader.line_num, str(exc)) from None


def read_registry(stream: IO[str] | str) -> dict[JournalId, Journal]:
    """Parse a journal registry CSV: ``id,display_name,source_index``."""
    if isinstance(stream, str):
        stream = io.StringIO(stream)
    reader = csv.reader(stream)
    registry: dict[JournalId, Journal] = {}
    for line_no, fields in _records(reader):
        if line_no == 1 and fields:
            fields[0] = fields[0].removeprefix(BOM)
        if not fields or not any(f.strip() for f in fields):
            continue
        if line_no == 1 and tuple(f.strip().lower() for f in fields) == REGISTRY_HEADER:
            continue
        if len(fields) != 3:
            raise EdgeListParseError(line_no, f"expected 3 fields, got {len(fields)}")
        journal_id, display_name, source_field = (f.strip() for f in fields)
        try:
            source = SourceIndex(source_field.upper())
        except ValueError:
            raise EdgeListParseError(
                line_no, f"unknown source_index {source_field!r}"
            ) from None
        if journal_id in registry:
            raise EdgeListParseError(line_no, f"repeats the id {journal_id!r}")
        try:
            registry[journal_id] = Journal(journal_id, display_name, source)
        except ValueError as exc:
            raise EdgeListParseError(line_no, str(exc)) from None
    if not registry:
        raise EdgeListParseError(0, "empty registry")
    return registry
