"""The bytes a persisted matrix is written as, and the rows the parser splits.

Golden files pin the CSV and sidecar bytes of a small matrix whose display
names hold non-ASCII, quoting and control characters and whose counts have
every width from one digit to ``MAX_COUNT``.  :func:`write_matrix` must
write the same bytes as the one-cell-at-a-time writer in ``oracles``, and
the parser's bulk path must give what its line-by-line path gives.
"""

import json
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
    EdgeListParseError,
    Graph,
    Journal,
    SidecarError,
    SourceIndex,
    merge_indices,
    parse_citation_csv,
    read_matrix,
    write_matrix,
)
from citenet.centrality import _symmetric_adjacency
from citenet.ingest import _bulk_rows, _csv_bytes, _field_numbers, _parse_block
from citenet.matrix import _valid_ids
from oracles import (
    bulk_rows_accepted,
    cells_of,
    matrix_of,
    reference_csv_bytes,
    reference_write_matrix,
)

DATA_DIR = Path(__file__).parent / "data"
SUFFIXES = ("", ".meta.json", ".csr.npz")

GOLDEN_JOURNALS = [
    Journal("A", "Acta Ärztliche Übersicht", SourceIndex.SCI),
    Journal("B", 'The "Best" \\ Review', SourceIndex.SSCI),
    Journal("C", "Tab\there, NUL\x00, bell\x07, unit\x1f, DEL\x7f, newline\n", SourceIndex.BOTH),
    Journal("É1", "Revue française — 日本語 𝔍", SourceIndex.SCI),
    Journal("日本", "日本", SourceIndex.SSCI),
    Journal("Z", "Zeta, cited by no one", SourceIndex.SCI),
]
GOLDEN_CELLS = {
    ("A", "A"): 1,
    ("A", "B"): 22,
    ("A", "C"): 333,
    ("A", "É1"): 4444,
    ("B", "A"): 55555,
    ("B", "日本"): 666666,
    ("C", "C"): 7777777,
    ("É1", "A"): 88888888,
    ("日本", "B"): 999999999,
    ("日本", "É1"): 1000000000,
    ("日本", "日本"): MAX_COUNT,
    ("C", "A"): 10,
}
GOLDEN = {
    "matrix_golden.csv": matrix_of(2005, GOLDEN_JOURNALS, GOLDEN_CELLS),
    "matrix_golden_empty.csv": matrix_of(2005, GOLDEN_JOURNALS[:2], {}),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_written_bytes_match_the_golden_files(tmp_path, name):
    m = GOLDEN[name]
    write_matrix(m, tmp_path / name)
    for suffix in SUFFIXES[:2]:
        golden = (DATA_DIR / (name + suffix)).read_bytes()
        assert (tmp_path / (name + suffix)).read_bytes() == golden, suffix
    assert read_matrix(DATA_DIR / name) == m


@st.composite
def matrices(draw):
    """Matrices over multibyte and long ids, with counts of every width."""
    pool = ["A", "B7", "É", "日本誌", "J" * 40, "\x00x", "\U0001d50d"]
    ids = draw(st.lists(st.sampled_from(pool), unique=True))
    names = st.one_of(st.sampled_from(['"', "\\", "\n", "\x7f", "é"]), st.text(min_size=1))
    journals = [Journal(j, draw(names), draw(st.sampled_from(SourceIndex))) for j in ids]
    counts = st.one_of(st.integers(0, 12), st.integers(0, MAX_COUNT))
    keys = st.tuples(st.sampled_from(ids), st.sampled_from(ids)) if ids else st.nothing()
    cells = draw(st.dictionaries(keys, counts))
    return matrix_of(draw(st.integers(0, 3000)), journals, cells)


def _written(m: CitationMatrix, writer) -> list[bytes]:
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "m.csv"
        writer(m, path)
        return [Path(f"{path}{suffix}").read_bytes() for suffix in SUFFIXES]


@settings(max_examples=100, deadline=None)
@given(matrices())
def test_write_matrix_equals_the_scalar_writer(m):
    reference = _written(m, reference_write_matrix)
    assert _written(m, write_matrix) == reference


# Ids of 1 to 40 UTF-8 bytes: ASCII, NUL, DEL and characters of two to four
# bytes, so that ids fill, cross and share the writer's padded table rows.
CSV_ID_PARTS = ["A", "z9", "\x00", "\x7f", "é", "日", "\U0001d50d", "ABCDEFGH"]
csv_ids = (
    st.lists(st.sampled_from(CSV_ID_PARTS), min_size=1, max_size=12)
    .map("".join)
    .filter(lambda token: len(token.encode()) <= 40)
)


@settings(max_examples=200, deadline=None)
@given(
    ids=st.lists(csv_ids, min_size=1, max_size=6, unique=True),
    counts=st.lists(st.one_of(st.sampled_from([1, MAX_COUNT]), st.integers(1, MAX_COUNT))),
    budget=st.integers(1, 400),
    data=st.data(),
)
def test_csv_pieces_equal_the_scalar_writer(ids, counts, budget, data):
    # A small piece budget splits pieces inside a matrix row and at its end;
    # a budget below one line gives one line per piece.
    keys = data.draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids)),
                              min_size=len(counts), max_size=len(counts), unique=True))
    m = matrix_of(2005, [Journal(j, j) for j in ids], dict(zip(keys, counts)))
    with mock.patch("citenet.ingest._PIECE_BYTES", budget):
        pieces = list(_csv_bytes(m))
    assert b"".join(pieces) == reference_csv_bytes(m)
    assert all(piece.endswith(b"\n") for piece in pieces)
    widest = max(len(j.encode()) for j in ids) * 2 + len(str(max(counts, default=1))) + 3
    assert len(pieces) == 1 + -(-len(counts) // max(1, budget // widest))


def test_csv_pieces_of_a_matrix_without_cells():
    m = matrix_of(2005, [Journal("日本", "x"), Journal("\x00", "y")], {})
    assert list(_csv_bytes(m)) == [b"citing,cited,count\n"] == [reference_csv_bytes(m)]


def test_one_long_id_bounds_each_piece_not_the_matrix():
    # One 1 KB id widens every line of the fixed-width layout to ~2 KB: the
    # layout of this 5,000-cell matrix would take ~10 MB at once.
    rng = np.random.default_rng(1024)
    ids = ["L" * 1024, *(f"S{k}" for k in range(200))]
    keys = rng.choice(len(ids) ** 2, size=5000, replace=False).tolist()
    cells = {(ids[k // len(ids)], ids[k % len(ids)]): 1 + k % 997 for k in keys}
    m = matrix_of(2005, [Journal(j, j) for j in ids], cells)
    budget = 1 << 16
    with mock.patch("citenet.ingest._PIECE_BYTES", budget):
        list(_csv_bytes(m))  # warm
        peak = _peak(lambda: [len(piece) for piece in _csv_bytes(m)])
        assert b"".join(_csv_bytes(m)) == reference_csv_bytes(m)
    # The id table and its padding mask, then a few copies of one piece.
    table = len(ids) * 1025
    assert peak < 3 * table + 6 * budget, f"{peak} bytes"


def test_lone_surrogate_id_is_rejected_by_the_parse():
    # The bulk path passes the surrogate through to the id check, and the
    # line path then names the line.
    with pytest.raises(EdgeListParseError, match="lone surrogate") as info:
        parse_citation_csv("\ud800,A,3\n", 2005)
    assert info.value.line_no == 1


def test_lone_surrogate_id_is_rejected_by_journal():
    with pytest.raises(ValueError, match="lone surrogate"):
        Journal("A\udfff", "x")


def test_lone_surrogate_id_in_a_sidecar_fails_the_load(tmp_path):
    path = tmp_path / "m.csv"
    write_matrix(parse_citation_csv("A,B,3\n", 2005), path)
    sidecar = tmp_path / "m.csv.meta.json"
    meta = json.loads(sidecar.read_text(encoding="utf-8"))
    meta["journals"].append({"id": "\ud800", "display_name": "x", "source_index": "SCI"})
    sidecar.write_text(json.dumps(meta), encoding="utf-8")
    with pytest.raises(SidecarError, match="entry 2: .*lone surrogate"):
        read_matrix(path)


def _peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_write_memory_stays_near_the_scalar_writer(tmp_path):
    rng = np.random.default_rng(200)
    n = 2000
    ids = [f"J{k:04d}" for k in range(n)]
    keys = rng.choice(n * n, size=200_000, replace=False)
    counts = rng.integers(1, 5000, size=len(keys))
    m = matrix_of(
        2005,
        [Journal(j, f"Journal {j}") for j in ids],
        {(ids[k // n], ids[k % n]): c for k, c in zip(keys.tolist(), counts.tolist())},
    )
    for writer in (write_matrix, reference_write_matrix):  # warm any lazy imports
        writer(GOLDEN["matrix_golden.csv"], tmp_path / "warm.csv")
    reference = _peak(lambda: reference_write_matrix(m, tmp_path / "slow.csv"))
    fast = _peak(lambda: write_matrix(m, tmp_path / "fast.csv"))
    assert fast <= 1.15 * reference, f"{fast / 1e6:.1f} MB against {reference / 1e6:.1f} MB"


@pytest.fixture(scope="module")
def seeded_100k(tmp_path_factory):
    """A seeded matrix of ~100k cells over 3,000 journals and its persisted
    path: a 1.6 MB CSV and a 0.8 MB CSR."""
    rng = np.random.default_rng(100)
    n = 3000
    ids = [f"J{k:04d}" for k in range(n)]
    keys = np.unique(rng.integers(0, n * n, 100_000)).tolist()
    counts = rng.integers(1, 1000, len(keys)).tolist()
    cells = {(ids[k // n], ids[k % n]): c for k, c in zip(keys, counts)}
    m = matrix_of(2005, [Journal(j, j) for j in ids], cells)
    path = tmp_path_factory.mktemp("seeded") / "m.csv"
    write_matrix(m, path)  # also warms any lazy imports
    return m, path


# Bounds on the traced peak of one write and one parse of the seeded matrix
# (measured: 3.4 and 10.5 MiB).  A writer that lays out the whole CSV at once
# (16.1 MiB) fails the first, and a parse of 1 M-character blocks that holds
# every block to the end (16.8 MiB) the second.
def test_write_peak_stays_within_its_bound(seeded_100k):
    m, path = seeded_100k
    peak = _peak(lambda: write_matrix(m, path))
    assert peak <= 6 * 2**20, f"write peaked at {peak / 2**20:.1f} MiB"


def test_parse_peak_stays_within_its_bound(seeded_100k):
    m, path = seeded_100k

    def parse():
        with path.open(encoding="utf-8") as stream:
            return parse_citation_csv(stream, 2005)

    assert parse() == m
    peak = _peak(parse)
    assert peak <= 13 * 2**20, f"parse peaked at {peak / 2**20:.1f} MiB"


# Ids and counts near the bulk path's acceptance rule: whitespace the
# regular expression's ``\s`` matches (no-break space, line separator, the
# information separators), quoting characters, a lone surrogate, NUL, a
# byte-order mark and multibyte characters, and an 8-byte part, so that ids
# fill, cross and share the 8-byte words the bulk path numbers them by;
# counts with leading zeros, ten digits above MAX_COUNT, eleven digits, bytes
# next to the digits, and forms int() accepts.
ID_PARTS = ["A", "B7", "É", "日本誌", "\U0001d50d", "\ufeff", "\x00", "ABCDEFGH"]
ID_FLAWS = ["\u00a0", "\u2028", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", '"', "\\", " ", "\t",
            "\ud800"]
COUNT_FLAWS = ["", "-1", "+5", "1_0", "\u0663", "\u00b2", "1.5", " 7", "x", "1:", "/", "5\r"]
good_ids = st.lists(st.sampled_from(ID_PARTS), min_size=1, max_size=3).map("".join)
bad_ids = st.one_of(
    st.just(""),
    st.tuples(st.sampled_from(["", "A"]), st.sampled_from(ID_FLAWS), st.sampled_from(["", "É"]))
    .map("".join),
)
good_counts = st.one_of(
    st.integers(0, 999).map(str),
    st.integers(0, MAX_COUNT).map(str),
    st.tuples(st.integers(1, 9), st.integers(0, 99_999)).map(lambda t: "0" * t[0] + str(t[1])),
)
bad_counts = st.one_of(
    st.integers(MAX_COUNT + 1, 10**11).map(str),
    st.integers(0, 99).map(lambda c: f"{c:011d}"),
    st.sampled_from(COUNT_FLAWS),
)
canonical_lines = st.tuples(good_ids, good_ids, good_counts).map(",".join)
flawed_lines = st.one_of(
    st.tuples(bad_ids, good_ids, good_counts).map(",".join),
    st.tuples(good_ids, bad_ids, good_counts).map(",".join),
    st.tuples(good_ids, good_ids, bad_counts).map(",".join),
    canonical_lines.map(lambda row: row + "\r"),
    canonical_lines.map(lambda row: f" {row} "),
    st.sampled_from(
        ["", " ", "\r", "A,B", "A,B,", "A,B,1,", "A,B,1,2", "A,B,1,2,3", "A,B,1:", "A,B,/1"]
    ),
)


@st.composite
def blocks(draw):
    """Edge-list text: canonical rows, with or without a few malformed,
    padded, CRLF or blank lines among them; any header and final newline."""
    lines = draw(st.lists(canonical_lines, max_size=12))
    for line in draw(st.lists(flawed_lines, max_size=2)):
        lines.insert(draw(st.integers(0, len(lines))), line)
    headers = ["", "citing,cited,count\n", "\ufeff", "\ufeffCITING,cited,count\r\n"]
    header = draw(st.sampled_from(headers))
    return header + "\n".join(lines) + draw(st.sampled_from(["\n", ""]))


def _outcome(text: str, first_line: int):
    """The block's rows by id, or the line and message of its parse error."""
    seen: dict[str, int] = {}
    try:
        rows, cols, counts, line_nos = _parse_block(text, first_line, seen, {})
    except EdgeListParseError as exc:
        return exc.line_no, str(exc)
    assert rows.dtype == cols.dtype == counts.dtype == np.int32 and line_nos.dtype == np.int64
    ids = list(seen)
    return [ids[i] for i in rows], [ids[j] for j in cols], counts.tolist(), line_nos.tolist()


@settings(max_examples=400, deadline=None)
@given(blocks(), st.sampled_from([1, 9]))
@example("A,B,7\nA,B,\n", 9)  # an empty count
@example("A,B,7\nA,B,1:\n", 9)  # the byte after "9"
@example("A,B,7\nA,B,1,2,3\n", 9)  # two pairs of commas on one line
# Ids of 7, 8, 9, 16 and 17 bytes, two sharing their first 8 bytes, and
# pairs that differ only by a trailing NUL, inside a word and past its end.
@example("ABCDEFG,ABCDEFGH,1\nABCDEFGHI,ABCDEFGHIJKLMNOP,2\nABCDEFGHIJKLMNOPQ,A,3\n"
         "ABCDEFG\x00,ABCDEFGH\x00,4\nABCDEFGHIJKLMNOP\x00,ABCDEFGHI,5\n", 1)
@example("日本誌,日本誌\x00,1\n日本,日本誌,2\n", 1)  # multibyte across a word
@example("A,AB,1\nAB,A\x00,2\nABC,A,3\n", 1)  # ids that are prefixes of each other
def test_bulk_path_agrees_with_the_line_path_and_the_old_rule(text, first_line):
    bulk = _outcome(text, first_line)
    with mock.patch("citenet.ingest._bulk_rows", return_value=None):
        assert _outcome(text, first_line) == bulk
    body = text if text.endswith("\n") else text + "\n"
    taken = _bulk_rows(body, 0, first_line, {}, {}) is not None
    assert taken == bulk_rows_accepted(body, 0)


def test_bulk_path_takes_canonical_blocks():
    # Multibyte ids, ten-digit counts and a missing final newline stay bulk.
    text = "日本誌,\U0001d50d,0000000001\n\x00A,É,2147483647\nA,A,7"
    assert bulk_rows_accepted(text + "\n", 0)
    with mock.patch("citenet.ingest._parse_lines", side_effect=AssertionError):
        m = parse_citation_csv(text, 2005)
    assert m.cell("日本誌", "\U0001d50d") == 1 and m.cell("\x00A", "É") == MAX_COUNT


def _seeded_ids(rng, count: int) -> list[str]:
    """*count* distinct ids of 1 to 24 UTF-8 bytes, about half of them ASCII."""
    ascii_chars, multibyte = ["A", "b", "7", "_", "\x00"], ["é", "日", "\U0001d50d"]
    ids = set()
    while len(ids) < count:
        size = rng.integers(1, 25)
        alphabet = ascii_chars + multibyte * int(rng.random() < 0.5)
        token = ""
        while len(token.encode()) < size:
            token += alphabet[rng.integers(len(alphabet))]
        ids.add(token if len(token.encode()) <= 24 else token[:-1])
    return sorted(ids)


def test_bulk_numbering_of_many_ids_across_small_blocks(monkeypatch):
    rng = np.random.default_rng(2005)
    ids = _seeded_ids(rng, 5000)
    citing, cited = rng.integers(0, len(ids), (2, 50_000)).tolist()
    counts = rng.integers(0, 10**6, 50_000).tolist()
    text = "".join(f"{ids[a]},{ids[b]},{c}\n" for a, b, c in zip(citing, cited, counts))
    monkeypatch.setattr("citenet.ingest._BLOCK_CHARS", 4096)
    with mock.patch("citenet.ingest._parse_lines", side_effect=AssertionError):
        bulk = parse_citation_csv(text, 2005)
    with mock.patch("citenet.ingest._bulk_rows", return_value=None):
        assert parse_citation_csv(text, 2005) == bulk
    assert len(bulk) == len(set(citing + cited))

    # One invalid id among valid ones: the block is refused and ids met in
    # it are not numbered.
    seen = {ids[0]: 0, ids[1]: 1}
    known = {ids[0].encode(): 0}
    for flaw in ['"', "\u00a0", "\\"]:
        lines = text.splitlines(keepends=True)[:200]
        lines.insert(100, f"{ids[7]},{ids[8]}{flaw}A,3\n")
        assert _bulk_rows("".join(lines), 0, 1, seen, known) is None
        assert seen == {ids[0]: 0, ids[1]: 1} and known == {ids[0].encode(): 0}
        with pytest.raises(EdgeListParseError) as raised:
            parse_citation_csv("".join(lines), 2005)
        assert raised.value.line_no == 101


# Ids that are prefixes of each other, that differ only by a trailing NUL,
# inside a word and past its end, and ids of 7, 8, 9, 16 and 17 bytes sharing
# their first 8 (one differing only in its second word); then 2,000 seeded ids.
FIELD_IDS = [
    ["A", "AB", "ABC", "B", "BA", "BAB"],
    ["A", "A\x00", "A\x00\x00", "\x00", "\x00\x00", "ABCDEFG", "ABCDEFG\x00",
     "ABCDEFGH\x00"],
    ["ABCDEFG", "ABCDEFGH", "ABCDEFGHI", "ABCDEFGHIJKLMNOP", "ABCDEFGHIJKLMNOPQ",
     "ABCDEFGHIJKLMNOX"],
    _seeded_ids(np.random.default_rng(2006), 2000),
]


@pytest.mark.parametrize("ids", FIELD_IDS, ids=["prefixes", "nuls", "words", "seeded"])
def test_field_numbers_are_equal_exactly_when_the_bytes_are(ids):
    # One number per distinct id, not per field: each is decoded once.
    rng = np.random.default_rng(len(ids))
    fields = [ids[k].encode("utf-8") for k in rng.integers(0, len(ids), 20_000)]
    raw = b"".join(field + b"," for field in fields) + bytes(8)
    lengths = np.array([len(field) for field in fields])
    ends = np.cumsum(lengths + 1) - 1
    numbers = _field_numbers(raw, ends - lengths, ends).tolist()
    distinct = set(fields)
    assert len(set(numbers)) == len(distinct) == max(numbers) + 1
    assert len(set(zip(numbers, fields))) == len(distinct)


def test_each_distinct_id_is_decoded_once_per_file(monkeypatch):
    rng = np.random.default_rng(2007)
    ids = _seeded_ids(rng, 3000)
    citing, cited = rng.integers(0, len(ids), (2, 30_000)).tolist()
    text = "".join(f"{ids[a]},{ids[b]},1\n" for a, b in zip(citing, cited))
    monkeypatch.setattr("citenet.ingest._BLOCK_CHARS", 4096)
    checked = []

    def counting(tokens):
        checked.extend(tokens)
        return _valid_ids(tokens)

    monkeypatch.setattr("citenet.ingest._valid_ids", counting)
    with mock.patch("citenet.ingest._parse_lines", side_effect=AssertionError):
        m = parse_citation_csv(text, 2005)
    assert len(text) > 100 * 4096
    assert sorted(checked) == sorted(m.journals) == sorted({ids[k] for k in citing + cited})


def test_shuffled_rows_give_an_identical_csr():
    rng = np.random.default_rng(11)
    ids = [f"J{k}" for k in range(30)]
    rows = [(ids[a], ids[b], int(c)) for a, b, c in
            zip(rng.integers(0, 30, 3000), rng.integers(0, 30, 3000), rng.integers(0, 9, 3000))]
    lines = [f"{a},{b},{c}" for a, b, c in rows]
    parsed = parse_citation_csv("\n".join(lines), 2005)
    cells = cells_of(parsed)
    summed = {}
    for a, b, c in rows:
        summed[(a, b)] = summed.get((a, b), 0) + c
    assert cells == {key: c for key, c in summed.items() if c}
    journals = list(parsed.journals.values())
    for _ in range(5):
        order = rng.permutation(len(lines))
        shuffled = parse_citation_csv("\n".join(lines[k] for k in order), 2005)
        assert shuffled == parsed
        keys = list(cells)
        rng.shuffle(keys)
        assert matrix_of(2005, journals[::-1], {k: cells[k] for k in keys}) == parsed
        assert merge_indices(shuffled, parsed) == merge_indices(parsed, parsed)


def test_symmetric_adjacency_ignores_edge_order():
    rng = np.random.default_rng(12)
    nodes = list(range(25))
    edges = {}
    for u, v in zip(rng.integers(0, 25, 150).tolist(), rng.integers(0, 25, 150).tolist()):
        edges[(u, v)] = float(rng.random()) / 3
        edges[(v, u)] = float(rng.random()) * 7
    # Node k is node number k, so the edge keys are their own arrays.
    rows, cols = np.array(list(edges)).T
    weights = np.array(list(edges.values()))
    expected = _symmetric_adjacency(Graph(nodes, rows, cols, weights, directed=True))
    got = {(i, j): w for i, j, w in zip(*[a.tolist() for a in expected])}
    for (u, v), w in edges.items():
        assert got[(u, v)] == (w + edges[(v, u)] if u != v else w)
    for _ in range(5):
        order = rng.permutation(len(weights))
        shuffled = Graph(nodes, rows[order], cols[order], weights[order], directed=True)
        for a, b in zip(_symmetric_adjacency(shuffled), expected):
            assert a.dtype == b.dtype and np.array_equal(a, b)
