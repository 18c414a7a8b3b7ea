"""Building persisted citation matrices: parsing, merging and writing.

Only ``citenet ingest`` and ``citenet merge`` run this module; an analysis
call loads a persisted matrix with :func:`citenet.matrix.read_matrix`, which
imports it only to parse a CSV that has no valid cache.

The interchange format is a plain edge-list CSV:

    citing,cited,count

one directed edge per line, counts as base-10 nonnegative integers of at
most ``MAX_COUNT``, UTF-8 (a leading byte-order mark is ignored), LF line
endings.  Diagonal entries (``citing == cited``) are within-journal
self-citations and are stored like any other cell; downstream code decides
whether to exclude them.  Duplicate ``(citing, cited)`` rows are summed so
per-issue extracts can be concatenated.  A journal registry is a CSV of
``id,display_name,source_index`` rows.

:func:`write_matrix` persists a matrix as three files.  ``<path>`` is the
edge-list CSV with its header, cells sorted by citing then cited id.
``<path>.meta.json`` is the sidecar: a JSON document holding the year, the
merge policy, the journal registry (including journals that have no
citation links at all) and the CSV's sha256.  ``<path>.csr.npz`` caches the
matrix's CSR arrays with the sha256 of the CSV and sidecar bytes written
beside it.  The output is deterministic: the same matrix gives the same
bytes in all three files.

Each stage is a few whole-array numpy passes, so what it costs is mostly its
sorts.  The parse reads blocks of ``_BLOCK_CHARS`` characters and numbers
each block's id fields from their bytes with one sort per 8-byte word; an id
is decoded and checked only the first time the file names it.  The merge
interleaves its two inputs' cells, each already one sorted run, without a
sort.  The writer lays out lines at a fixed width, ``_PIECE_BYTES`` at a
time, and streams them to the file through one running sha256.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
from collections.abc import Mapping
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterator

import numpy as np

from .errors import EdgeListParseError, YearMismatchError
from .matrix import (
    MAX_COUNT, REGISTRY_HEADER, CitationMatrix, Journal, JournalId, SourceIndex, _binary_path,
    _canonical, _Registry, _sha256, _sidecar_path, _valid_ids, _validate_id,
)

EDGE_HEADER = "citing,cited,count"

# Cell counts for journals indexed in both source databases are summed on
# merge; the sidecar records this so persisted matrices are self-describing.
MERGE_POLICY = "sum"

BOM = "\ufeff"
_BLOCK_CHARS = 1 << 19
# The most bytes of fixed-width CSV lines the writer lays out at once, and
# the byte it pads them with, which valid UTF-8 never holds.
_PIECE_BYTES = 1 << 20
_PAD = 0xFF


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


def _parse_block(
    text: str, first_line: int, seen: dict[JournalId, int], known: dict[bytes, int]
):
    """Rows of one block as ``(citing, cited, count, line number)`` arrays,
    int32 but for the int64 line numbers.

    Ids are numbered in *seen*, each validated when first met (*known* is
    :func:`_bulk_rows`'s map of id bytes to numbers).  Blocks of
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
    bulk = _bulk_rows(text, start, data_line, seen, known)
    return bulk if bulk is not None else _parse_lines(text, start, data_line, seen)


def _bulk_rows(
    text: str, start: int, data_line: int, seen: dict[JournalId, int], known: dict[bytes, int]
):
    """The rows of ``text[start:]`` split in bulk, or None (leaving *seen*
    and *known* as they were) unless each line is two ids :func:`_valid_ids`
    accepts and a count of one to ten ASCII digits, at most ``MAX_COUNT``.
    Checked on the UTF-8 bytes, where no multibyte character holds a comma or
    newline byte.

    Id fields are numbered from their bytes (:func:`_field_numbers`).  *known*
    maps the bytes of each id an earlier block numbered to its number in
    *seen*; only an id not met before is decoded, checked and numbered."""
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
    counts = counts.astype(np.int32)
    # Field 2k is line k's citing id, field 2k + 1 its cited id; field j
    # ends at commas[j] and starts after the newline or comma before it.
    firsts = np.zeros(len(commas), dtype=np.int64)
    firsts[1::2] = commas[0::2] + 1
    firsts[2::2] = ends[:-1] + 1
    numbers = _field_numbers(raw, firsts, commas)
    # Fields with one number hold the same bytes: any of them stands for it.
    sample = np.empty(numbers.max(initial=-1) + 1, dtype=np.int64)
    sample[numbers] = np.arange(len(numbers))
    fields = [raw[a:b] for a, b in zip(firsts[sample].tolist(), commas[sample].tolist())]
    unmet = [field for field in fields if field not in known]
    tokens = [field.decode("utf-8", "surrogatepass") for field in unmet]
    if not _valid_ids(tokens):
        return None
    for field, token in zip(unmet, tokens):
        known[field] = seen.setdefault(token, len(seen))
    ids = np.array([known[field] for field in fields], dtype=np.int32)[numbers]
    line_nos = np.arange(data_line, data_line + len(counts), dtype=np.int64)
    return ids[0::2], ids[1::2], counts, line_nos


# Keeps the first k bytes of a little-endian 8-byte word, k = 0..8.
_WORD_MASKS = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64)


def _field_numbers(raw: bytes, firsts: np.ndarray, commas: np.ndarray) -> np.ndarray:
    """Numbers 0, 1, ... of the fields ``raw[firsts[j]:commas[j]]``, each
    ended by the comma at ``commas[j]`` and holding none, equal exactly when
    the fields' bytes are.  *raw* ends in 8 bytes that no field covers.

    Each field is read with its comma as 8-byte words, little-endian and
    masked to the bytes it covers, and numbered by its first word, then
    renumbered by each further word in turn.  Two fields of different
    lengths differ in a word: at the shorter one's comma.  So fields of at
    most 7 bytes take one sort.
    """
    spans = commas + 1 - firsts
    words = np.ndarray((len(raw) - 7,), "<u8", raw, 0, (1,))  # words[p]: raw[p:p + 8]

    def word_numbers(offset: int) -> np.ndarray:
        word = words[np.minimum(firsts + offset, len(words) - 1)]
        word &= _WORD_MASKS[np.clip(spans - offset, 0, 8)]
        return np.unique(word, return_inverse=True)[1]

    numbers = word_numbers(0)
    for offset in range(8, int(spans.max(initial=0)), 8):
        word = word_numbers(offset)
        _, numbers = np.unique(numbers * (word.max() + 1) + word, return_inverse=True)
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
    return (*(np.array(column, dtype=np.int32) for column in (rows, cols, counts)),
            np.array(line_nos, dtype=np.int64))


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
    known: dict[bytes, int] = {}
    columns: list[list[np.ndarray]] = [
        [np.zeros(0, dtype=dtype)] for dtype in (np.int32, np.int32, np.int32, np.int64)]
    for line_no, text in _blocks(stream):
        for column, part in zip(columns, _parse_block(text, line_no, seen, known)):
            column.append(part)
    if registry is None and not any(map(len, columns[2])):
        raise EdgeListParseError(0, "empty input: no edge rows")
    # Each column is joined in turn, and its blocks' parts let go.
    rows, cols, counts, line_nos = (np.concatenate(columns.pop(0)) for _ in range(4))

    # Ids in *seen* are validated: an id the registry lacks needs no checks.
    given = {journal.id: journal for journal in (registry or {}).values()}
    ids = sorted(seen.keys() | given.keys())
    journals = _Registry(
        ids,
        [given[j].display_name if j in given else j for j in ids],
        [given[j].source_index if j in given else source for j in ids],
    )
    renumber = np.array([journals._index[journal_id] for journal_id in seen], dtype=np.int32)
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
    key, data = _merged_runs(
        _cell_keys(a, position), a._data, _cell_keys(b, position), b._data
    )
    if data.max(initial=0) > MAX_COUNT:
        k = int(np.argmax(data))
        citing, cited = divmod(int(key[k]), len(ids))
        raise ValueError(
            f"merged cell ({ids[citing]}, {ids[cited]}): count "
            f"{data[k]} exceeds {MAX_COUNT}"
        )
    indptr = np.searchsorted(key, np.arange(len(ids) + 1) * len(ids))
    return CitationMatrix._from_csr(a.year, journals, (indptr, key % len(ids), data))


def _cell_keys(m: CitationMatrix, position: Mapping[JournalId, int]) -> np.ndarray:
    """``row * n + col`` of each cell of *m* once its journals are renumbered
    by *position* into n of them: sorted, since the renumbering keeps order."""
    renumber = np.array([position[j] for j in m._ids], dtype=np.int64)
    return np.repeat(renumber * len(position), np.diff(m._indptr)) + renumber[m._indices]


def _merged_runs(key_a, data_a, key_b, data_b) -> tuple[np.ndarray, np.ndarray]:
    """The sorted union of two sorted runs of distinct keys, with the values
    of a key in both summed as int64."""
    place = np.searchsorted(key_a, key_b)  # where each key of b goes in a
    shared = place < len(key_a)
    shared[shared] = key_a[place[shared]] == key_b[shared]
    data = data_a.astype(np.int64)
    data[place[shared]] += data_b[shared]
    fresh = ~shared
    return (np.insert(key_a, place[fresh], key_b[fresh]),
            np.insert(data, place[fresh], data_b[fresh]))


def _csv_bytes(m: CitationMatrix) -> Iterator[bytes]:
    """The deterministic edge-list CSV (sorted cells, LF endings) as pieces
    of UTF-8 bytes, each laid out in numpy over a range of cells.

    Every line is first laid out at one fixed width: the citing id and its
    comma, then the cited id and its comma, each copied from a table holding
    one padded entry per journal, then the count's digits, written from the
    right, and the newline.  Padding is the byte 0xFF, which valid UTF-8
    never holds (ids hold no lone surrogate, so they encode as valid UTF-8):
    deleting every 0xFF leaves the lines.  A piece lays out at most
    ``_PIECE_BYTES`` (or one line), so its memory does not grow with the
    matrix.
    """
    yield (EDGE_HEADER + "\n").encode()
    if not len(m._data):
        return
    names = [journal_id.encode("utf-8") + b"," for journal_id in m._ids]
    width = max(map(len, names))
    table = np.array(names, dtype=f"S{width}").view(np.uint8).reshape(len(names), width)
    table[np.arange(width) >= np.fromiter(map(len, names), np.int64, len(names))[:, None]] = _PAD
    table = table.view(f"V{width}").ravel()
    digits = len(str(m._data.max()))
    line = np.dtype([("citing", table.dtype), ("cited", table.dtype),
                     ("count", np.uint8, (digits,)), ("newline", np.uint8)])
    step = max(1, _PIECE_BYTES // line.itemsize)
    cells = len(m._data)
    for first in range(0, cells, step):
        last = min(first + step, cells)
        piece = np.empty(last - first, dtype=line)
        piece["citing"] = np.repeat(table, np.diff(np.clip(m._indptr, first, last)))
        piece["cited"] = table[m._indices[first:last]]
        left, count = m._data[first:last], piece["count"]
        for column in range(digits - 1, -1, -1):
            quotient = left // 10
            count[:, column] = np.where(left > 0, left - 10 * quotient + ord("0"), _PAD)
            left = quotient
        piece["newline"] = ord("\n")
        yield piece.tobytes().translate(None, bytes([_PAD]))


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


@contextmanager
def _replacing(path: Path) -> Iterator[IO[bytes]]:
    """A file to write beside *path* under a temporary name, moved there
    once the block ends, and removed if it raises."""
    temporary = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with temporary.open("wb") as stream:
            yield stream
        os.replace(temporary, path)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise


def write_matrix(m: CitationMatrix, path: str | Path) -> None:
    """Persist a matrix: edge-list CSV at *path*, its CSR cache, a sidecar.

    Each file is written under a temporary name and moved into place, the
    sidecar last, so a reader never sees a half-written file.  The cache
    records the sha256 of the CSV and sidecar bytes written with it.
    """
    path = Path(path)
    digest = hashlib.sha256()
    with _replacing(path) as stream:
        for piece in _csv_bytes(m):
            digest.update(piece)
            stream.write(piece)
    csv_sha256 = digest.hexdigest()
    sidecar = _sidecar_bytes(m, csv_sha256)
    with _replacing(_binary_path(path)) as stream:
        np.savez(stream, indptr=m._indptr, indices=m._indices, data=m._data,
                 csv_sha256=np.array(csv_sha256), sidecar_sha256=np.array(_sha256(sidecar)))
    with _replacing(_sidecar_path(path)) as stream:
        stream.write(sidecar)


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
