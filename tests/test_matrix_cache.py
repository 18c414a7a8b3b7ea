"""The ``.csr.npz`` file beside a persisted matrix is an exact, disposable cache.

A read through the cache must give the matrix that parsing the CSV gives.
Every cache that was not written with the exact CSV and sidecar bytes
beside it, or that does not hold a canonical CSR over the sidecar's
journals, must be ignored: the CSV is parsed, nothing is raised and nothing
is unpickled.
"""

import hashlib
import pickle
import re
import shutil
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from citenet import (
    MAX_COUNT,
    CitationMatrix,
    Journal,
    SidecarError,
    SourceIndex,
    merge_indices,
    parse_citation_csv,
    read_matrix,
    write_matrix,
)
from citenet.ingest import _csv_bytes
from citenet.matrix import _is_canonical_csr
from oracles import canonical_csr, cells_of, matrix_of

IDS = ["A", "B", "C", "D", "E", "F"]


def _binary(path: Path) -> Path:
    return path.with_name(path.name + ".csr.npz")


def _sidecar(path: Path) -> Path:
    return path.with_name(path.name + ".meta.json")


def _parse_forbidden(*args, **kwargs):
    raise AssertionError("the CSV was parsed although the cache is valid")


def _reparsed(m: CitationMatrix) -> CitationMatrix:
    text = b"".join(_csv_bytes(m)).decode("utf-8")
    return parse_citation_csv(text, m.year, registry=m.journals)


@st.composite
def matrices(draw):
    """Matrices with diagonal cells, MAX_COUNT cells, registry-only journals,
    no cells at all, and no journals at all."""
    ids = draw(st.lists(st.sampled_from(IDS), unique=True))
    journals = [
        Journal(j, draw(st.sampled_from([j, f"Journal {j}"])), draw(st.sampled_from(SourceIndex)))
        for j in ids
    ]
    cells = {}
    if ids:
        keys = st.tuples(st.sampled_from(ids), st.sampled_from(ids))
        counts = st.one_of(st.integers(1, 9), st.just(MAX_COUNT))
        cells = draw(st.dictionaries(keys, counts, max_size=12))
    return matrix_of(draw(st.integers(1900, 2100)), journals, cells)


@given(matrices())
@settings(max_examples=150, deadline=None)
def test_round_trip_through_the_cache_equals_the_parse(m):
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "m.csv"
        write_matrix(m, path)
        with mock.patch("citenet.ingest.parse_citation_csv", _parse_forbidden):
            again = read_matrix(path)
        assert again == m
        assert again == _reparsed(m)
        assert list(again.journals.values()) == list(m.journals.values())
        assert _is_canonical_csr(again._indptr, again._indices, again._data, len(again))
        assert b"".join(_csv_bytes(again)) == path.read_bytes()
        # The cache is disposable: without it the CSV parses to the same matrix.
        _binary(path).unlink()
        assert read_matrix(path) == m


def _assert_dtypes(m: CitationMatrix) -> None:
    assert m._indptr.dtype == np.int64
    assert m._indices.dtype == m._data.dtype == np.int32


@given(matrices())
@settings(max_examples=50, deadline=None)
def test_cache_written_with_int64_arrays_still_loads(m):
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "m.csv"
        write_matrix(m, path)
        with np.load(_binary(path)) as npz:
            assert npz["indptr"].dtype == np.int64
            assert npz["indices"].dtype == npz["data"].dtype == np.int32
            wide = {key: npz[key].astype(np.int64) for key in ("indices", "data")}
        # The arrays as an int64 writer stored them, under the same hashes.
        _rewrite(path, **wide)
        with mock.patch("citenet.ingest.parse_citation_csv", _parse_forbidden):
            again = read_matrix(path)
        assert again == m == _reparsed(m)
        _assert_dtypes(again)


THREE_CELLS = "A,B,5\nB,A,2\nA,A,7\nC,C,3"


def test_every_path_holds_int64_indptr_and_int32_indices_and_data(tmp_path):
    parsed = parse_citation_csv(THREE_CELLS, 2005)
    constructed = matrix_of(2005, parsed.journals.values(), cells_of(parsed))
    merged = merge_indices(parsed, parse_citation_csv("A,B,1\nD,A,2", 2005))
    path = tmp_path / "m.csv"
    write_matrix(merged, path)
    with mock.patch("citenet.ingest.parse_citation_csv", _parse_forbidden):
        hit = read_matrix(path)
    _binary(path).unlink()
    miss = read_matrix(path)
    for m in (parsed, constructed, merged, hit, miss):
        _assert_dtypes(m)
    assert hit == miss == merged


@pytest.fixture()
def persisted(tmp_path):
    m = parse_citation_csv(THREE_CELLS, 2005)
    path = tmp_path / "m.csv"
    write_matrix(m, path)
    return m, path


@pytest.fixture()
def parses(monkeypatch):
    """Counts CSV parses and records any unpickling during a read."""
    calls = {"parse": 0, "unpickle": 0}
    real_parse = parse_citation_csv

    def parse(*args, **kwargs):
        calls["parse"] += 1
        return real_parse(*args, **kwargs)

    def unpickle(*args, **kwargs):
        calls["unpickle"] += 1
        raise pickle.UnpicklingError("unpickling is not allowed here")

    monkeypatch.setattr("citenet.ingest.parse_citation_csv", parse)
    monkeypatch.setattr(pickle, "load", unpickle)
    monkeypatch.setattr(pickle, "loads", unpickle)
    return calls


def _falls_back(path: Path, m: CitationMatrix, calls: dict) -> None:
    assert read_matrix(path) == m
    assert calls == {"parse": 1, "unpickle": 0}


def _rewrite(path: Path, **arrays) -> None:
    """Replace some arrays of the cache at *path*, keeping its recorded hashes."""
    with np.load(_binary(path)) as npz:
        contents = dict(npz)
    contents.update(arrays)
    np.savez(_binary(path), **contents)


def test_stale_cache_beside_a_rewritten_matrix(persisted, parses, tmp_path):
    m, path = persisted
    stale = tmp_path / "stale.npz"
    shutil.copy(_binary(path), stale)
    other = parse_citation_csv("A,B,1\nB,C,4", 2005)
    write_matrix(other, path)
    shutil.copy(stale, _binary(path))
    _falls_back(path, other, parses)


def test_cache_is_keyed_on_the_sidecar_as_well_as_the_csv(tmp_path, parses):
    # Same CSV, different isolated journals: C is column 2 in {A,B,C} and
    # column 1 in {A,C,D}, so a CSV-only key would read A->C as A->D.
    first = parse_citation_csv("A,C,1", 2005, registry={j: Journal(j, j) for j in "ABC"})
    second = parse_citation_csv("A,C,1", 2005, registry={j: Journal(j, j) for j in "ACD"})
    first_path, second_path = tmp_path / "abc.csv", tmp_path / "acd.csv"
    write_matrix(first, first_path)
    write_matrix(second, second_path)
    assert first_path.read_bytes() == second_path.read_bytes()
    shutil.copy(_binary(first_path), _binary(second_path))
    again = read_matrix(second_path)
    assert again == second
    assert cells_of(again) == {("A", "C"): 1}
    assert parses == {"parse": 1, "unpickle": 0}


@pytest.mark.parametrize(
    "damage",
    [
        lambda data: b"",
        lambda data: data[: len(data) // 2],
        lambda data: data[:-1],
        lambda data: np.random.default_rng(3).bytes(len(data)),
        lambda data: pickle.dumps({"indptr": [0]}),
    ],
    ids=["empty", "half", "last-byte-cut", "random", "pickle"],
)
def test_unreadable_cache(persisted, parses, damage):
    m, path = persisted
    _binary(path).write_bytes(damage(_binary(path).read_bytes()))
    _falls_back(path, m, parses)


def test_pickled_object_array_is_never_unpickled(persisted, parses):
    m, path = persisted
    with np.load(_binary(path)) as npz:
        data = npz["data"]
    _rewrite(path, data=data.astype(object))
    _falls_back(path, m, parses)


@pytest.mark.parametrize(
    "arrays",
    [
        {"indptr": np.array([0, 2, 3, 4, 4], dtype=np.int64)},
        {"indptr": np.array([0, 2, 3], dtype=np.int64)},
        {"indptr": np.array([1, 2, 3, 4], dtype=np.int64)},
        {"indptr": np.array([0, 3, 2, 4], dtype=np.int64)},
        {"indptr": np.array([0, 2, 3, 5], dtype=np.int64)},
        {"indptr": np.array([[0, 2, 3, 4]], dtype=np.int64)},
        {"indptr": np.array([0, 2, 3, 4], dtype=np.uint64)},
        {"indices": np.array([1, 0, 0, 2], dtype=np.int32)},
        {"indices": np.array([0, 0, 0, 2], dtype=np.int32)},
        {"indices": np.array([0, 1, 0, 3], dtype=np.int32)},
        {"indices": np.array([-1, 1, 0, 2], dtype=np.int32)},
        {"indices": np.array([0.0, 1.0, 0.0, 2.0])},
        {"data": np.array([7.0, 5.0, 2.0, 3.0])},
        {"data": np.array([7, 0, 2, 3], dtype=np.int64)},
        {"data": np.array([7, -5, 2, 3], dtype=np.int64)},
        {"data": np.array([7, MAX_COUNT + 1, 2, 3], dtype=np.int64)},
        {"data": np.array([7, 5, 2], dtype=np.int64)},
        {"data": np.array("7,5,2,3")},
        {"csv_sha256": np.array("0" * 64)},
        {"sidecar_sha256": np.array(["0" * 64])},
    ],
    ids=[
        "indptr-too-long",
        "indptr-too-short",
        "indptr-not-from-zero",
        "indptr-decreasing",
        "indptr-past-the-cells",
        "indptr-2d",
        "indptr-unsigned",
        "indices-unsorted",
        "indices-duplicate",
        "indices-out-of-range",
        "indices-negative",
        "indices-float",
        "data-float",
        "data-zero",
        "data-negative",
        "data-above-max-count",
        "data-too-short",
        "data-string",
        "wrong-csv-key",
        "key-not-a-scalar",
    ],
)
def test_malformed_cache_arrays(persisted, parses, arrays):
    m, path = persisted
    # The fixture's canonical CSR: rows A, B, C over columns A, B, C.
    with np.load(_binary(path)) as npz:
        assert npz["indptr"].tolist() == [0, 2, 3, 4]
        assert npz["indices"].tolist() == [0, 1, 0, 2]
        assert npz["data"].tolist() == [7, 5, 2, 3]
    _rewrite(path, **arrays)
    _falls_back(path, m, parses)


def test_missing_array_in_cache(persisted, parses):
    m, path = persisted
    with np.load(_binary(path)) as npz:
        contents = {key: npz[key] for key in npz.files if key != "indices"}
    np.savez(_binary(path), **contents)
    _falls_back(path, m, parses)


def test_deleted_cache(persisted, parses):
    m, path = persisted
    _binary(path).unlink()
    _falls_back(path, m, parses)
    assert not _binary(path).exists()


def test_csv_without_sidecar_does_not_load_despite_a_cache(persisted, parses):
    _, path = persisted
    _sidecar(path).unlink()
    with pytest.raises(SidecarError, match=re.escape(f"no sidecar at {_sidecar(path)}: ")):
        read_matrix(path)
    assert parses == {"parse": 0, "unpickle": 0}


def test_cache_is_not_rewritten_on_read(persisted):
    _, path = persisted
    _binary(path).write_bytes(b"not a cache")
    read_matrix(path)
    assert _binary(path).read_bytes() == b"not a cache"


def test_cache_records_the_bytes_it_was_written_with(persisted):
    _, path = persisted
    with np.load(_binary(path), allow_pickle=False) as npz:
        assert npz["csv_sha256"].tolist() == hashlib.sha256(path.read_bytes()).hexdigest()
        assert (
            npz["sidecar_sha256"].tolist()
            == hashlib.sha256(_sidecar(path).read_bytes()).hexdigest()
        )
        assert sorted(npz.files) == [
            "csv_sha256", "data", "indices", "indptr", "sidecar_sha256"
        ]


def _csr(rows: list[list[int]], counts: list[int] | None = None):
    """``(indptr, indices, data, n)`` of a CSR whose rows hold *rows*'
    indices, with *counts* as its data (all ones by default)."""
    indptr = np.cumsum([0] + [len(row) for row in rows], dtype=np.int64)
    indices = np.array([j for row in rows for j in row], dtype=np.int64)
    data = np.array([1] * len(indices) if counts is None else counts, dtype=np.int64)
    return indptr, indices, data, len(rows)


@st.composite
def csrs(draw):
    """CSRs with empty and single-entry rows anywhere, some with one row
    spoiled by a repeated index or by two indices swapped."""
    n = draw(st.integers(1, 7))
    rows = [sorted(draw(st.sets(st.integers(0, n - 1), max_size=3))) for _ in range(n)]
    damage = draw(st.sampled_from(["none", "repeat", "swap"]))
    spoilable = [row for row in rows if len(row) >= (1 if damage == "repeat" else 2)]
    if damage != "none" and spoilable:
        row = draw(st.sampled_from(spoilable))
        k = draw(st.integers(0, len(row) - (1 if damage == "repeat" else 2)))
        if damage == "repeat":
            row.insert(k, row[k])
        else:
            row[k], row[k + 1] = row[k + 1], row[k]
    size = sum(map(len, rows))
    return _csr(rows, draw(st.lists(st.sampled_from([1, MAX_COUNT]), min_size=size, max_size=size)))


@given(csrs())
@example(_csr([[], [0, 2], [], [1], []]))  # empty first, middle and last rows
@example(_csr([[2], [0], [1]]))  # single-entry rows, a step down between two
@example(_csr([[1, 2], [0, 1]]))  # a step down across a row boundary
@example(_csr([[0, 2], [], [1, 0]]))  # unsorted row right after an empty row
@example(_csr([[0], [1, 2, 2]]))  # a repeat in the last row
@example(_csr([[2, 1], [0]]))  # a step down inside the first row
@settings(max_examples=300, deadline=None)
def test_canonical_check_agrees_with_the_row_id_oracle(csr):
    assert _is_canonical_csr(*csr) == canonical_csr(*csr)


def _persisted(tmp_path: Path, text: str, registry=None) -> tuple[CitationMatrix, Path]:
    m = parse_citation_csv(text, 2005, registry=registry)
    path = tmp_path / "m.csv"
    write_matrix(m, path)
    return m, path


def test_empty_first_middle_and_last_rows_load_from_the_cache(tmp_path, parses):
    # Rows A, C and E cite nothing; B and D do.
    registry = {j: Journal(j, j) for j in "ABCDE"}
    m, path = _persisted(tmp_path, "B,A,1\nB,E,2\nD,B,3\nD,D,4", registry)
    with np.load(_binary(path)) as npz:
        assert npz["indptr"].tolist() == [0, 0, 2, 2, 4, 4]
    assert read_matrix(path) == m
    assert parses == {"parse": 0, "unpickle": 0}


def test_duplicate_in_the_last_row_falls_back(tmp_path, parses):
    m, path = _persisted(tmp_path, "A,B,5\nB,A,2\nC,B,1\nC,C,3")
    with np.load(_binary(path)) as npz:
        assert npz["indices"].tolist() == [1, 0, 1, 2]
    _rewrite(path, indices=np.array([1, 0, 2, 2], dtype=np.int64))
    _falls_back(path, m, parses)


def test_unsorted_row_after_an_empty_row_falls_back(tmp_path, parses):
    m, path = _persisted(tmp_path, "A,A,1\nA,B,2\nC,A,3\nC,C,4")
    with np.load(_binary(path)) as npz:
        assert npz["indptr"].tolist() == [0, 2, 2, 4]
        assert npz["indices"].tolist() == [0, 1, 0, 2]
    _rewrite(path, indices=np.array([0, 1, 2, 0], dtype=np.int64))
    _falls_back(path, m, parses)


def _hundred_k_cells(tmp_path: Path) -> tuple[CitationMatrix, Path]:
    # 3,000 journals and ~100k cells; ids of 14 characters, as abbreviated
    # journal titles often are, make the CSV twice the size of its CSR.
    rng = np.random.default_rng(3000)
    pairs = rng.integers(0, 3000, size=(100_000, 2)).tolist()
    counts = rng.integers(1, 100, size=100_000).tolist()
    text = "".join(f"J.Journal.{a:04d},J.Journal.{b:04d},{c}\n" for (a, b), c in zip(pairs, counts))
    return _persisted(tmp_path, text)


def _read_peak(path: Path) -> tuple[CitationMatrix, int]:
    """The matrix read from *path* and the read's tracemalloc peak."""
    tracemalloc.start()
    try:
        again = read_matrix(path)
        return again, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_cache_hit_memory_stays_bounded(tmp_path):
    m, path = _hundred_k_cells(tmp_path)
    csr_bytes = sum(a.nbytes for a in (m._indptr, m._indices, m._data))
    again, peak = _read_peak(path)
    assert again == m
    # The CSR, the journal columns and the cache reader's buffers: ~3.0 MB
    # with int64 cells.  Reading the CSV whole to hash it and building a
    # Journal per entry made it ~8.6 MB.
    assert peak < 4 * 2**20
    # A cache hit never holds the CSV whole beside the CSR it returns.
    assert peak < path.stat().st_size + csr_bytes


def test_cache_of_int32_cells_halves_the_file_and_the_hit(tmp_path):
    m, path = _hundred_k_cells(tmp_path)
    again, peak = _read_peak(path)
    assert again == m
    # 4 bytes of index and 4 of count per cell, 8 of indptr per journal and
    # the zip's headers and hashes: ~0.82 MB, where int64 cells made ~1.62 MB.
    assert _binary(path).stat().st_size <= 8 * len(cells_of(m)) + 8 * len(m) + 4096
    # ~2.3 MB: the int32 CSR, the journal columns and the reader's buffers;
    # int64 cells made it ~3.0 MB.
    assert peak < 2.5 * 2**20


def test_csv_rewritten_after_it_was_hashed_is_not_parsed(persisted, monkeypatch):
    _, path = persisted

    def rewrite_and_miss(*args):
        path.write_text("A,B,1\n")
        return None

    monkeypatch.setattr("citenet.matrix._load_binary", rewrite_and_miss)
    with pytest.raises(SidecarError, match=re.escape(f"{path} changed while it was being read")):
        read_matrix(path)


@pytest.mark.parametrize("cache", [True, False], ids=["with-cache", "without-cache"])
def test_csv_edited_after_write_fails_with_the_sidecar_message(persisted, cache):
    _, path = persisted
    if not cache:
        _binary(path).unlink()
    path.write_bytes(path.read_bytes() + b"C,A,1\n")
    message = (
        f"{_sidecar(path)} does not belong to {path}: the CSV's sha256 differs "
        "from the one the sidecar records"
    )
    with pytest.raises(SidecarError) as raised:
        read_matrix(path)
    assert str(raised.value) == message
