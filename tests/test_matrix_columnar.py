"""The columnar matrix against a plain-dict reference built from the same rows.

Rows are drawn with duplicates, diagonal cells and zero counts, over ids
that include isolated registry journals; the reference sums them into a
dict and derives every view from it the direct way.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from citenet import (
    Graph,
    Journal,
    citation_degrees,
    merge_indices,
    parse_citation_csv,
)
from citenet.ingest import _csv_bytes
from oracles import cells_of, degree_centrality, matrix_of

IDS = ["A", "B", "C", "D", "E", "F", "G", "H"]

rows_strategy = st.lists(
    st.tuples(st.sampled_from(IDS), st.sampled_from(IDS), st.integers(0, 9)),
    min_size=1,
    max_size=40,
)
registry_strategy = st.sets(st.sampled_from(IDS + ["Y", "Z"]), max_size=4)


class Reference:
    """Cells summed into a dict; rows and columns read off it."""

    def __init__(self, rows, extra_ids=()):
        self.cells = {}
        for citing, cited, count in rows:
            self.cells[(citing, cited)] = self.cells.get((citing, cited), 0) + count
        self.cells = {key: count for key, count in self.cells.items() if count > 0}
        self.ids = sorted({r[0] for r in rows} | {r[1] for r in rows} | set(extra_ids))

    def row(self, j):
        return {cited: c for (citing, cited), c in self.cells.items() if citing == j}

    def col(self, j):
        return {citing: c for (citing, cited), c in self.cells.items() if cited == j}

    def csv(self):
        lines = ["citing,cited,count"]
        lines += [f"{a},{b},{c}" for (a, b), c in sorted(self.cells.items())]
        return "\n".join(lines) + "\n"


def _text(rows):
    return "\n".join(f"{a},{b},{c}" for a, b, c in rows)


def _check_views(m, ref):
    assert list(m.journals) == ref.ids
    assert cells_of(m) == ref.cells
    assert list(cells_of(m)) == sorted(ref.cells)
    for j in ref.ids:
        # A journal's column and row as the environment reads them.
        for cited, line in ((True, ref.col(j)), (False, ref.row(j))):
            others, counts = m._line(j, cited)
            assert [ref.ids[k] for k in others.tolist()] == sorted(line)
            assert counts.tolist() == [line[k] for k in sorted(line)]
        for k in ref.ids + ["nope"]:
            assert m.cell(j, k) == ref.cells.get((j, k), 0)
            assert m.cell("nope", k) == 0


def _check_degrees(m):
    oracle = Graph.from_citation_matrix(m, sorted(m.journals))
    # Any order and any subset: the result follows the ids asked for.
    ids = list(m.journals)[::-1]
    degrees = citation_degrees(m, ids)
    assert list(degrees) == ids
    for j in ids:
        assert degrees[j] == degree_centrality(oracle, j)
    assert citation_degrees(m, ids[1::2]) == {j: degrees[j] for j in ids[1::2]}


@settings(max_examples=150, deadline=None)
@given(rows_strategy, registry_strategy)
def test_parsed_matrix_matches_dict_reference(rows, extra):
    registry = {j: Journal(j, f"Journal {j}") for j in extra}
    m = parse_citation_csv(_text(rows), 2005, registry=registry)
    ref = Reference(rows, extra)
    _check_views(m, ref)
    _check_degrees(m)
    text = b"".join(_csv_bytes(m)).decode("utf-8")
    assert text == ref.csv()
    if not ref.cells:
        return  # a header-only CSV has no data rows to parse
    # The registry travels in the sidecar, as in read_matrix.
    again = parse_citation_csv(text, 2005, registry=m.journals)
    assert again == m
    assert b"".join(_csv_bytes(again)).decode("utf-8") == text


@settings(max_examples=150, deadline=None)
@given(rows_strategy, registry_strategy)
def test_constructed_matrix_equals_parsed_one(rows, extra):
    ref = Reference(rows, extra)
    journals = [Journal(j, j) for j in ref.ids]
    constructed = matrix_of(2005, journals, ref.cells)
    _check_views(constructed, ref)
    assert constructed == parse_citation_csv(
        _text(rows), 2005, registry={j: Journal(j, j) for j in extra}
    )


@settings(max_examples=100, deadline=None)
@given(rows_strategy, rows_strategy)
def test_merge_matches_summed_reference(rows_a, rows_b):
    merged = merge_indices(parse_citation_csv(_text(rows_a), 2005),
                           parse_citation_csv(_text(rows_b), 2005))
    ref = Reference(rows_a + rows_b)
    _check_views(merged, ref)
    _check_degrees(merged)


def test_seeded_random_matrices_across_parse_blocks(monkeypatch):
    # Small blocks mix bulk-split and line-by-line blocks within one parse.
    monkeypatch.setattr("citenet.ingest._BLOCK_CHARS", 64)
    rng = np.random.default_rng(2005)
    ids = [f"J{k:02d}" for k in range(30)]
    for _ in range(20):
        n = int(rng.integers(1, 300))
        rows = [
            (ids[a], ids[b], int(c))
            for a, b, c in zip(rng.integers(0, 30, n), rng.integers(0, 30, n),
                               rng.integers(0, 50, n))
        ]
        lines = [f"{a},{b},{c}" for a, b, c in rows]
        for k in rng.integers(0, n, size=int(rng.integers(0, 3))):
            lines[k] = " " + lines[k] + "\r"  # padded rows force a slow block
        m = parse_citation_csv("citing,cited,count\n" + "\n".join(lines), 2005)
        ref = Reference(rows)
        _check_views(m, ref)
        _check_degrees(m)
        # A member set's raw links: its cells, self-citations left out.
        members = sorted(set(m.journals).intersection(rng.choice(ids, size=8, replace=False)))
        assert Graph.from_citation_matrix(m, members).edges == {
            (a, b): float(c) for (a, b), c in ref.cells.items()
            if a != b and {a, b} <= set(members)
        }
