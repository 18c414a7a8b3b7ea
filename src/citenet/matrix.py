"""Journal-to-journal citation matrices: the model, id checks, loading, degrees.

:func:`read_matrix` loads a matrix that :func:`citenet.ingest.write_matrix`
persisted: the edge-list CSV at ``<path>``, the sidecar JSON document
``<path>.meta.json`` holding the year, the journal registry and the CSV's
sha256, and ``<path>.csr.npz``, which caches the matrix's CSR arrays keyed on
the sha256 of the exact CSV and sidecar bytes it was written with.  The cache
only makes loads faster: a missing, stale or damaged cache is ignored and the
CSV is parsed, so deleting it is always safe, and matrices persisted without
one load by parsing.  A CSV without its sidecar does not load; ``citenet
ingest`` persists an edge list.
"""

from __future__ import annotations

import hashlib
import io
import json
import operator
import re
from collections.abc import ItemsView, Mapping, ValuesView
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import SidecarError, UnknownJournalError

JournalId = str
# A canonical CSR's (indptr, indices, data); a matrix holds int64, int32, int32.
CSR = tuple[np.ndarray, np.ndarray, np.ndarray]

REGISTRY_HEADER = ("id", "display_name", "source_index")
SIDECAR_SUFFIX = ".meta.json"
BINARY_SUFFIX = ".csr.npz"

# Largest count a row or a stored cell may carry: it fits in int32, and every
# int64 sum of counts stays below 2^63: a cell summed over fewer than 2^32
# duplicate rows, a row or column total, and the cell-wise sum of a merge.
MAX_COUNT = 2**31 - 1

# Ids that _validate_id accepts, one per line: ``\s`` matches exactly the
# characters str.isspace accepts, the newline among them.
_ID_LINES = re.compile(r'(?:[^\s",\\\ud800-\udfff]+\n)*')
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
    sorted.  Float *values* keep their dtype; integer ones are summed in
    int64, so a sum of int32 counts cannot wrap.  The sort is not stable, so
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
        total = np.promote_types(values.dtype, np.int64)
        key, values = key[first], np.add.reduceat(values, first, dtype=total)
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

    def _positions(self, journal_ids: Sequence[JournalId]) -> np.ndarray:
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


def _sidecar_path(path: Path) -> Path:
    return path.with_name(path.name + SIDECAR_SUFFIX)


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


def _sidecar_object(pairs: list[tuple[str, object]]) -> tuple | dict:
    """A decoded sidecar object: the tuple of its values if its keys are
    :data:`REGISTRY_HEADER` in that order, as ``write_matrix`` writes each
    journal (a third of a dict's memory), else a dict, in which a repeated
    key keeps its last value.  JSON arrays decode to lists, so every tuple in
    a decoded sidecar is such an entry.

    An entry's values pass through :func:`_entry`.  That happens here, as
    the decoder reads each entry, because the strings it drops are then freed
    before the next entry is decoded, which reuses their memory; the same
    sharing done once the whole document is decoded leaves them as holes
    between the strings that stay, and a load peaks no lower."""
    keys, values = zip(*pairs) if pairs else ((), ())
    return _entry(*values) if keys == REGISTRY_HEADER else dict(pairs)


def _entry(journal_id: object, name: object, source: object) -> tuple:
    """A journals entry's values, each field kept once: a display name equal
    to its id is the id object, and a source naming a :class:`SourceIndex`
    is that member.  Any other value is kept as decoded, for the checks."""
    if type(name) is str and name == journal_id:
        name = journal_id
    if type(source) is str:
        source = _SOURCES.get(source, source)
    return journal_id, name, source


def _entry_fields(entry: object) -> tuple:
    """A journals entry's values under :data:`REGISTRY_HEADER`, as
    :func:`_entry` gives them, None where absent."""
    if isinstance(entry, tuple):
        return entry
    if isinstance(entry, dict):
        return _entry(*(entry.get(key) for key in REGISTRY_HEADER))
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
        # Some entry is malformed or repeats an id.  These checks reject
        # exactly what the bulk check rejects, so they raise on the first.
        seen = set()
        for k, (journal_id, name, source) in enumerate(rows):
            try:
                if not (
                    isinstance(journal_id, str)
                    and isinstance(name, str)
                    and isinstance(source, (str, SourceIndex))
                ):
                    raise ValueError(f"needs string fields {', '.join(REGISTRY_HEADER)}")
                if journal_id in seen:
                    raise ValueError(f"repeats the id {journal_id!r}")
                Journal(journal_id, name, SourceIndex(source))
                seen.add(journal_id)
            except ValueError as exc:
                raise SidecarError(
                    f"{sidecar}: malformed journals entry {k}: {exc}"
                ) from None
    digest = meta.get("csv_sha256")
    if not isinstance(digest, str):
        raise SidecarError(f"{sidecar}: no string \"csv_sha256\"")
    return year, registry, digest


def _journals_in_bulk(rows: list[tuple]) -> _Registry | None:
    """The registry of sidecar entries' ``(id, display_name, source_index)``
    *rows*, as :func:`_entry` gives them, or None if any is malformed or two
    share an id.

    Makes the checks of :class:`Journal` once over all entries, so that a
    valid registry costs no per-journal validation.
    """
    ids, names, sources = zip(*rows) if rows else ((), (), ())
    # Decoded JSON strings are of type str exactly.
    if not (
        set(map(type, ids + names)) <= {str}
        and _valid_ids(ids)
        and all(names)
        and set(map(type, sources)) <= {SourceIndex}
    ):
        return None
    registry = _Registry(ids, names, sources)
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


def read_matrix(path: str | Path) -> CitationMatrix:
    """Load a persisted matrix (CSV plus sidecar, and the CSR cache if valid).

    Only a matrix that ``citenet ingest`` or ``citenet merge`` persisted
    loads: a CSV without its sidecar raises :class:`SidecarError` naming the
    sidecar, and a missing CSV raises :class:`FileNotFoundError` naming it.
    The sidecar must record the sha256 of the CSV, and it must match.  A
    header-only CSV loads as a matrix with the sidecar's journals and no
    cells.  Raises :class:`SidecarError` for a malformed or mismatched
    sidecar.

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
        path.stat()  # a missing CSV is reported as such
        raise SidecarError(
            f"no sidecar at {sidecar}: persist the edge list with citenet ingest first"
        )
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
    # Imported here: a load through a valid cache never compiles the parser.
    from .ingest import parse_citation_csv

    text = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
    return parse_citation_csv(text, year, registry=registry)
