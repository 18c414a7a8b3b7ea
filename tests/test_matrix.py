"""Tests for citation matrix parsing, merging, row and column sums, and persistence."""

import hashlib
import json
import os
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from citenet import (
    MAX_COUNT,
    EdgeListParseError,
    Graph,
    Journal,
    SidecarError,
    SourceIndex,
    UnknownJournalError,
    YearMismatchError,
    citation_degrees,
    merge_indices,
    parse_citation_csv,
    read_matrix,
    read_registry,
    self_citation_rate,
    write_matrix,
)
from citenet.ingest import _csv_bytes
from citenet.matrix import (
    REGISTRY_HEADER,
    _entry,
    _journals_in_bulk,
    _read_sidecar,
    _valid_ids,
    _validate_id,
)
from oracles import cells_of, degree_centrality, matrix_of

THREE_CELLS = "A,B,5\nB,A,2\nA,A,7"


def _cited(m, j):
    return sum(count for (_, cited), count in cells_of(m).items() if cited == j)


def _citing(m, j):
    return sum(count for (citing, _), count in cells_of(m).items() if citing == j)


def _random_matrix(rng, n_journals=8, n_cells=20, year=2005):
    ids = [f"J{i}" for i in range(n_journals)]
    cells = {}
    for _ in range(n_cells):
        citing, cited = rng.choice(ids), rng.choice(ids)
        cells[(citing, cited)] = cells.get((citing, cited), 0) + int(rng.integers(1, 9))
    return matrix_of(year, [Journal(i, i) for i in ids], cells)


class TestParse:
    def test_direct_transcription(self):
        m = parse_citation_csv(THREE_CELLS, 2005)
        assert cells_of(m) == {("A", "B"): 5, ("B", "A"): 2, ("A", "A"): 7}
        assert set(m.journals) == {"A", "B"}
        assert m.year == 2005

    def test_duplicate_rows_are_summed(self):
        m = parse_citation_csv("A,B,3\nA,B,4", 2005)
        assert m.cell("A", "B") == 7

    def test_negative_count_rejected_with_line_number(self):
        with pytest.raises(EdgeListParseError, match="line 1") as excinfo:
            parse_citation_csv("A,B,-1", 2005)
        assert excinfo.value.line_no == 1

    def test_header_line_is_skipped(self):
        m = parse_citation_csv("citing,cited,count\nA,B,5", 2005)
        assert m.cell("A", "B") == 5

    def test_empty_input_rejected(self):
        with pytest.raises(EdgeListParseError, match="empty"):
            parse_citation_csv("", 2005)
        with pytest.raises(EdgeListParseError, match="empty"):
            parse_citation_csv("citing,cited,count\n", 2005)

    def test_no_rows_with_registry_gives_registry_journals_without_cells(self):
        registry = {"A": Journal("A", "A"), "B": Journal("B", "B")}
        for text in ("", "citing,cited,count\n"):
            m = parse_citation_csv(text, 2005, registry=registry)
            assert list(m.journals) == ["A", "B"]
            assert cells_of(m) == {}

    @pytest.mark.parametrize(
        "row, line_no",
        [
            ("A,B", 1),
            ("A,B,5,9", 1),
            ("A,B,x", 1),
            ("A,B,5\nA,B,2.5", 2),
            ("A,B,+5", 1),
            ("A B,C,1", 1),
            (",B,1", 1),
            ('A,B,1\nA"x,B,1', 2),
            ("A,B,1\nA,B\\x,1", 2),
        ],
    )
    def test_malformed_rows(self, row, line_no):
        with pytest.raises(EdgeListParseError) as excinfo:
            parse_citation_csv(row, 2005)
        assert excinfo.value.line_no == line_no

    def test_zero_count_registers_journals_without_cell(self):
        m = parse_citation_csv("A,B,0", 2005)
        assert set(m.journals) == {"A", "B"}
        assert cells_of(m) == {}

    def test_registry_supplies_names_and_extra_journals(self):
        registry = read_registry(
            'id,display_name,source_index\nA,"Journal A",SSCI\nZ,"Zeta Review",SCI\n'
        )
        m = parse_citation_csv("A,B,5", 2005, registry=registry)
        assert m.journals["A"].display_name == "Journal A"
        assert m.journals["A"].source_index is SourceIndex.SSCI
        assert m.journals["B"].source_index is SourceIndex.SCI
        assert "Z" in m.journals  # isolated registry journal retained
        assert (_cited(m, "Z"), _citing(m, "Z"), m.cell("Z", "Z")) == (0, 0, 0)

    def test_registry_skips_a_blank_record_between_journals(self):
        registry = read_registry(
            "id,display_name,source_index\nA,Alpha,SCI\n\n , ,\nB,Beta,SSCI\n"
        )
        assert registry == {
            "A": Journal("A", "Alpha", SourceIndex.SCI),
            "B": Journal("B", "Beta", SourceIndex.SSCI),
        }

    def test_registry_rejects_unknown_source(self):
        with pytest.raises(EdgeListParseError, match="source_index"):
            read_registry("A,Journal A,XXX")

    def test_registry_rejects_an_id_with_a_comma(self):
        with pytest.raises(EdgeListParseError, match="line 3: .*'A,B' must not contain a comma"):
            read_registry('id,display_name,source_index\nC,Cee,SCI\n"A,B",First,SCI\n')

    def test_registry_rejects_a_repeated_id(self):
        with pytest.raises(EdgeListParseError, match="line 3: repeats the id 'A'"):
            read_registry("id,display_name,source_index\nA,First,SCI\nA,Second,SSCI\n")

    @pytest.mark.parametrize(
        "row, message", [("B,Beta,XXX", "unknown source_index 'XXX'"),
                         ("A,Again,SCI", "repeats the id 'A'")]
    )
    def test_registry_errors_name_the_line_after_a_multi_line_name(self, row, message):
        text = f'id,display_name,source_index\nA,"Alpha\nJournal",SCI\n{row}\n'
        with pytest.raises(EdgeListParseError, match=re.escape(f"line 4: {message}")):
            read_registry(text)

    def test_byte_order_mark_before_header_is_skipped(self):
        m = parse_citation_csv("\ufeffciting,cited,count\nA,B,5", 2005)
        assert cells_of(m) == {("A", "B"): 5}
        registry = read_registry("\ufeffid,display_name,source_index\nA,Journal A,SSCI\n")
        assert set(registry) == {"A"}

    def test_byte_order_mark_before_first_row(self):
        m = parse_citation_csv("\ufeffA,B,5\n", 2005)
        assert set(m.journals) == {"A", "B"}

    def test_errors_keep_line_numbers_across_blocks(self, monkeypatch):
        monkeypatch.setattr("citenet.ingest._BLOCK_CHARS", 16)
        rows = [f"J{k},J{k + 1},{k}" for k in range(40)]
        m = parse_citation_csv("citing,cited,count\n" + "\n".join(rows), 2005)
        assert len(cells_of(m)) == 39 and m.cell("J39", "J40") == 39
        rows[30] = "J30,J31"
        with pytest.raises(EdgeListParseError) as excinfo:
            parse_citation_csv("citing,cited,count\n\n" + "\n".join(rows), 2005)
        assert excinfo.value.line_no == 33

    def test_padded_and_crlf_rows_parse_like_canonical_ones(self):
        canonical = parse_citation_csv("A,B,5\nB,A,2\nA,A,7\n", 2005)
        assert parse_citation_csv("A, B ,5\r\n\r\n  B,A,2\r\nA,A,7", 2005) == canonical


class TestCountBound:
    def test_largest_count_accepted(self):
        m = parse_citation_csv(f"A,B,{MAX_COUNT}\nB,A,0{MAX_COUNT}", 2005)
        assert m.cell("A", "B") == m.cell("B", "A") == MAX_COUNT

    @pytest.mark.parametrize(
        "count", [str(MAX_COUNT + 1), "99999999999999999999999", "9" * 5000]
    )
    def test_larger_count_rejected_with_line_number(self, count):
        with pytest.raises(EdgeListParseError, match="exceeds") as excinfo:
            parse_citation_csv(f"citing,cited,count\nA,B,1\nA,B,{count}", 2005)
        assert excinfo.value.line_no == 3

    def test_duplicate_rows_summing_past_the_bound_rejected(self):
        half = MAX_COUNT // 2 + 1
        text = f"A,B,{half}\nC,D,{MAX_COUNT}\nA,B,{half - 1}\nA,B,1\nA,B,5"
        with pytest.raises(EdgeListParseError, match=r"\(A, B\)") as excinfo:
            parse_citation_csv(text, 2005)
        assert excinfo.value.line_no == 4

    def test_merge_rejects_cell_above_bound(self):
        a = parse_citation_csv(f"A,B,{MAX_COUNT - 1}", 2005)
        b = parse_citation_csv("A,B,1", 2005)
        assert merge_indices(a, b).cell("A", "B") == MAX_COUNT
        with pytest.raises(ValueError, match=r"\(A, B\)"):
            merge_indices(merge_indices(a, b), b)

    def test_merge_of_two_largest_cells_is_summed_in_int64(self):
        # Stored counts are int32, where MAX_COUNT + MAX_COUNT wraps to -2.
        a = parse_citation_csv(f"A,A,1\nB,A,{MAX_COUNT}\nB,B,3", 2005)
        message = f"merged cell (B, A): count {2 * MAX_COUNT} exceeds {MAX_COUNT}"
        with pytest.raises(ValueError, match=re.escape(message)):
            merge_indices(a, a)


class TestMatrixInvariants:
    def test_only_positive_counts_stored(self):
        m = parse_citation_csv("A,B,0\nB,A,2\nA,B,0", 2005)
        assert cells_of(m) == {("B", "A"): 2}
        assert cells_of(merge_indices(m, parse_citation_csv("A,B,0", 2005))) == cells_of(m)

    def test_negative_count_rejected(self):
        for count in ("-1", str(-MAX_COUNT - 1)):
            with pytest.raises(EdgeListParseError, match=f"line 2: negative count {count}$"):
                parse_citation_csv(f"A,B,1\nA,A,{count}", 2005)

    def test_non_integer_count_rejected(self):
        for count in ("2.7", "2.0", "3.0", "1e3", "0x10"):
            with pytest.raises(EdgeListParseError, match=f"line 2: non-integer count '{count}'"):
                parse_citation_csv(f"A,B,1\nB,A,{count}", 2005)
        # Leading zeros are still integers.
        assert cells_of(parse_citation_csv("A,B,002\nB,A,03", 2005)) == {
            ("A", "B"): 2, ("B", "A"): 3}

    def test_views_are_read_only(self):
        m = parse_citation_csv(THREE_CELLS, 2005)
        with pytest.raises(TypeError):
            m.journals["A"] = Journal("A", "other")

    def test_cell_of_an_unknown_journal_or_an_absent_cell_is_zero(self):
        m = parse_citation_csv(THREE_CELLS, 2005, registry={"Z": Journal("Z", "Z")})
        assert m.cell("A", "Z") == m.cell("Z", "A") == m.cell("A", "nope") == 0
        assert m.cell("nope", "A") == m.cell("nope", "nope") == 0

    def test_a_matrix_equals_no_other_type(self):
        m = parse_citation_csv(THREE_CELLS, 2005)
        assert m.__eq__(1) is NotImplemented
        assert (m == 1) is False and m != "A,B,5"

    def test_journal_id_validation(self):
        with pytest.raises(ValueError):
            Journal("", "name")
        with pytest.raises(ValueError):
            Journal("has space", "name")
        for bad in ('a"b', "a\\b"):
            with pytest.raises(ValueError, match="or a backslash"):
                Journal(bad, "name")
        with pytest.raises(ValueError, match="comma"):
            Journal("A,B", "name")
        with pytest.raises(ValueError):
            Journal("A", "")


class TestMerge:
    def test_year_mismatch(self):
        a = parse_citation_csv("A,B,1", 2004)
        b = parse_citation_csv("A,B,1", 2005)
        with pytest.raises(YearMismatchError):
            merge_indices(a, b)

    def test_disjoint_sets_union_without_summation(self):
        a = parse_citation_csv("A,B,3", 2005)
        b = parse_citation_csv("C,D,4", 2005)
        merged = merge_indices(a, b)
        assert cells_of(merged) == {("A", "B"): 3, ("C", "D"): 4}
        assert set(merged.journals) == {"A", "B", "C", "D"}

    def test_self_merge_doubles_counts(self):
        a = parse_citation_csv(THREE_CELLS, 2005)
        merged = merge_indices(a, a)
        assert set(merged.journals) == set(a.journals)
        assert cells_of(merged) == {key: 2 * count for key, count in cells_of(a).items()}

    def test_overlap_marked_both(self):
        a = parse_citation_csv("A,B,1", 2005, source=SourceIndex.SCI)
        b = parse_citation_csv("B,C,1", 2005, source=SourceIndex.SSCI)
        merged = merge_indices(a, b)
        assert merged.journals["A"].source_index is SourceIndex.SCI
        assert merged.journals["B"].source_index is SourceIndex.BOTH
        assert merged.journals["C"].source_index is SourceIndex.SSCI

    def test_merged_registry_rule(self):
        # Named: a non-default name of the first operand wins over the
        # second's; a default (== id) first name gives way to the second's.
        a = matrix_of(2005, [
            Journal("Both1", "First name", SourceIndex.SCI),
            Journal("Both2", "Both2", SourceIndex.SSCI),
            Journal("Both3", "First again", SourceIndex.BOTH),
            Journal("Both4", "Both4", SourceIndex.SCI),
            Journal("OnlyA", "Only in a", SourceIndex.SSCI),
            Journal("OnlyA2", "OnlyA2", SourceIndex.BOTH),
        ], {("OnlyA", "Both1"): 2})
        b = matrix_of(2005, [
            Journal("Both1", "Second name", SourceIndex.SSCI),
            Journal("Both2", "Second wins", SourceIndex.SCI),
            Journal("Both3", "Both3", SourceIndex.SCI),
            Journal("Both4", "Both4", SourceIndex.SSCI),
            Journal("OnlyB", "Only in b", SourceIndex.BOTH),
            Journal("OnlyB2", "OnlyB2", SourceIndex.SCI),
        ], {})
        expected = {
            "Both1": Journal("Both1", "First name", SourceIndex.BOTH),
            "Both2": Journal("Both2", "Second wins", SourceIndex.BOTH),
            "Both3": Journal("Both3", "First again", SourceIndex.BOTH),
            "Both4": Journal("Both4", "Both4", SourceIndex.BOTH),
            "OnlyA": Journal("OnlyA", "Only in a", SourceIndex.SSCI),
            "OnlyA2": Journal("OnlyA2", "OnlyA2", SourceIndex.BOTH),
            "OnlyB": Journal("OnlyB", "Only in b", SourceIndex.BOTH),
            "OnlyB2": Journal("OnlyB2", "OnlyB2", SourceIndex.SCI),
        }
        merged = merge_indices(a, b)
        assert merged.journals == expected
        assert list(merged.journals) == sorted(expected)
        swapped = merge_indices(b, a).journals
        assert swapped["Both1"].display_name == "Second name"
        assert swapped["Both3"].display_name == "First again"
        assert swapped["OnlyA"] == expected["OnlyA"] and swapped["OnlyB"] == expected["OnlyB"]

    def test_journal_count_identity(self):
        # |merged| == |a| + |b| - |overlap| on small synthetic indices
        a_ids = [f"A{i}" for i in range(40)] + [f"S{i}" for i in range(10)]
        b_ids = [f"B{i}" for i in range(25)] + [f"S{i}" for i in range(10)]
        a = matrix_of(2005, [Journal(i, i) for i in a_ids], {})
        b = matrix_of(2005, [Journal(i, i) for i in b_ids], {})
        merged = merge_indices(a, b)
        assert len(merged) == 50 + 35 - 10

    def test_commutative_and_associative_over_cells_and_ids(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = _random_matrix(rng)
            b = _random_matrix(rng)
            c = _random_matrix(rng)
            ab, ba = merge_indices(a, b), merge_indices(b, a)
            assert cells_of(ab) == cells_of(ba)
            assert set(ab.journals) == set(ba.journals)
            left = merge_indices(merge_indices(a, b), c)
            right = merge_indices(a, merge_indices(b, c))
            assert cells_of(left) == cells_of(right)
            assert set(left.journals) == set(right.journals)


class TestTotalsAndProfiles:
    """Row and column sums (both include the diagonal cell) and degrees."""

    def test_totals_hand_summed(self):
        m = parse_citation_csv(THREE_CELLS, 2005)
        assert (_cited(m, "A"), _citing(m, "A"), m.cell("A", "A")) == (9, 12, 7)
        assert (_cited(m, "B"), _citing(m, "B"), m.cell("B", "B")) == (5, 2, 0)

    def test_totals_isolated_journal(self):
        registry = {"C": Journal("C", "C")}
        m = parse_citation_csv(THREE_CELLS, 2005, registry=registry)
        assert (_cited(m, "C"), _citing(m, "C"), m.cell("C", "C")) == (0, 0, 0)

    def test_degrees_of_an_unknown_journal(self):
        m = parse_citation_csv(THREE_CELLS, 2005)
        assert citation_degrees(m, ["B", "A"]) == {"B": (1, 1), "A": (1, 1)}
        with pytest.raises(UnknownJournalError, match=r"not in matrix: \['Z'\]"):
            citation_degrees(m, ["A", "Z"])

    @pytest.mark.parametrize("piece", [1, 3, 64])
    def test_degrees_counted_in_pieces(self, monkeypatch, piece):
        m = _random_matrix(np.random.default_rng(piece), n_journals=9, n_cells=60)
        oracle = Graph.from_citation_matrix(m, sorted(m.journals))
        monkeypatch.setattr("citenet.matrix._COUNT_CELLS", piece)
        degrees = citation_degrees(m, list(m.journals))
        assert degrees == {j: degree_centrality(oracle, j) for j in m.journals}

    def test_totals_unknown_journal(self):
        m = parse_citation_csv(THREE_CELLS, 2005)
        assert m.cell("nope", "nope") == m.cell("A", "nope") == 0
        with pytest.raises(UnknownJournalError, match="unknown journal 'nope'"):
            self_citation_rate(m, "nope")

    def test_grand_total_identity(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            m = _random_matrix(rng)
            cited = sum(_cited(m, j) for j in m.journals)
            citing = sum(_citing(m, j) for j in m.journals)
            assert cited == citing == sum(cells_of(m).values())


class TestPersistence:
    def test_serialize_parse_round_trip(self):
        m = parse_citation_csv(THREE_CELLS, 2005)
        again = parse_citation_csv(b"".join(_csv_bytes(m)).decode("utf-8"), m.year)
        assert again == m

    def test_write_read_round_trip_keeps_isolated_journals(self, tmp_path):
        registry = {
            "A": Journal("A", "Journal A", SourceIndex.SSCI),
            "Z": Journal("Z", "Zeta Review", SourceIndex.BOTH),
        }
        m = parse_citation_csv(THREE_CELLS, 2005, registry=registry)
        path = tmp_path / "m.csv"
        write_matrix(m, path)
        again = read_matrix(path)
        assert again == m
        assert again.journals["Z"].source_index is SourceIndex.BOTH

    def test_write_matrix_returns_the_number_of_cells_written(self, tmp_path):
        registry = {"Z": Journal("Z", "Zeta Review")}
        m = parse_citation_csv(THREE_CELLS + "\nB,B,0", 2005, registry=registry)
        assert write_matrix(m, tmp_path / "m.csv") == len(cells_of(m)) == 3
        merged = merge_indices(m, parse_citation_csv("Z,A,4\nA,B,1", 2005))
        assert write_matrix(merged, tmp_path / "merged.csv") == 4
        empty = parse_citation_csv("", 2005, registry=registry)
        assert write_matrix(empty, tmp_path / "empty.csv") == 0
        assert read_matrix(tmp_path / "empty.csv") == empty

    def test_a_load_keeps_one_string_per_journal_field(self, tmp_path):
        # A display name equal to its id is the id object, as the sidecar
        # decoder shares it, and every source is a SourceIndex member.  Ids
        # are longer than one character, which CPython keeps one copy of.
        registry = {"AA": Journal("AA", "Journal A", SourceIndex.SSCI)}
        m = parse_citation_csv("AA,BB,5\nBB,AA,2\nCC,AA,1", 2005, registry=registry)
        path = tmp_path / "m.csv"
        write_matrix(m, path)
        again = read_matrix(path)._journals
        assert again._names == ("Journal A", "BB", "CC")
        assert [name is journal_id for journal_id, name in zip(again._ids, again._names)] == [
            False, True, True]
        assert all(type(source) is SourceIndex for source in again._sources)

    def test_a_registry_parse_keeps_one_string_per_display_name_equal_to_its_id(
        self, tmp_path
    ):
        # Registry names equal to their ids are separate string objects here.
        registry = read_registry("id,display_name,source_index\nAA,AA,SSCI\nCC,Sea,SCI\n")
        assert registry["AA"].display_name is not registry["AA"].id
        m = parse_citation_csv("AA,BB,5\nBB,AA,2\nCC,AA,1", 2005, registry=registry)
        path = tmp_path / "m.csv"
        write_matrix(m, path)
        (tmp_path / "m.csv.csr.npz").unlink()
        for journals in (m._journals, read_matrix(path)._journals):
            assert journals._names == ("AA", "BB", "Sea")
            assert [name is journal_id for journal_id, name in zip(
                journals._ids, journals._names)] == [True, True, False]

    def test_source_given_as_a_string_is_coerced(self, tmp_path):
        registry = {"Z": Journal("Z", "Zeta Review", "BOTH")}
        m = parse_citation_csv(THREE_CELLS, 2005, source="SSCI", registry=registry)
        path = tmp_path / "m.csv"
        write_matrix(m, path)
        again = read_matrix(path)
        assert again == m
        assert again.journals["A"].source_index is SourceIndex.SSCI
        assert again.journals["Z"].source_index is SourceIndex.BOTH
        with pytest.raises(ValueError, match="XYZ"):
            parse_citation_csv(THREE_CELLS, 2005, source="XYZ")
        with pytest.raises(ValueError, match="XYZ"):
            Journal("A", "A", "XYZ")

    def test_matrix_without_cells_reloads(self, tmp_path):
        m = parse_citation_csv("A,B,0", 2005)
        path = tmp_path / "m.csv"
        write_matrix(m, path)
        assert path.read_text(encoding="utf-8") == "citing,cited,count\n"
        assert read_matrix(path) == m

    def test_matrix_without_journals_reloads_with_and_without_its_cache(self, tmp_path):
        m = matrix_of(2005, [], {})
        path = tmp_path / "m.csv"
        write_matrix(m, path)
        assert read_matrix(path) == m
        (tmp_path / "m.csv.csr.npz").unlink()
        assert read_matrix(path) == m

    def test_read_without_sidecar_fails_naming_it_and_parses_nothing(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "bare.csv"
        path.write_text("citing,cited,count\nA,B,5\n", encoding="utf-8")

        def parse(*args, **kwargs):
            raise AssertionError("a CSV without a sidecar was parsed")

        monkeypatch.setattr("citenet.ingest.parse_citation_csv", parse)
        sidecar = re.escape(str(tmp_path / "bare.csv.meta.json"))
        with pytest.raises(SidecarError, match=f"^no sidecar at {sidecar}: .*citenet ingest"):
            read_matrix(path)

    def test_sidecar_records_csv_hash_and_files_are_replaced_atomically(
        self, tmp_path, monkeypatch
    ):
        m = parse_citation_csv(THREE_CELLS, 2005)
        path = tmp_path / "m.csv"
        replaced = []
        real_replace = os.replace
        monkeypatch.setattr(
            "citenet.ingest.os.replace",
            lambda src, dst: (replaced.append(Path(dst).name), real_replace(src, dst)),
        )
        write_matrix(m, path)
        files = ["m.csv", "m.csv.csr.npz", "m.csv.meta.json"]
        assert replaced == files
        assert sorted(p.name for p in tmp_path.iterdir()) == files
        meta = json.loads((tmp_path / "m.csv.meta.json").read_text(encoding="utf-8"))
        assert meta["csv_sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()

    def test_failed_write_keeps_the_previous_files(self, tmp_path, monkeypatch):
        path = tmp_path / "m.csv"
        write_matrix(parse_citation_csv(THREE_CELLS, 2005), path)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr("citenet.ingest.os.replace", fail)
        with pytest.raises(OSError):
            write_matrix(parse_citation_csv("A,B,1", 2005), path)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_write_that_fails_midway_leaves_no_temporary_file(self, tmp_path, monkeypatch):
        def fail(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr("citenet.ingest.np.savez", fail)
        with pytest.raises(OSError):
            write_matrix(parse_citation_csv(THREE_CELLS, 2005), tmp_path / "m.csv")
        assert [p.name for p in tmp_path.iterdir()] == ["m.csv"]

    def test_stale_sidecar_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        write_matrix(parse_citation_csv(THREE_CELLS, 2005), path)
        path.write_text("citing,cited,count\nA,B,6\n", encoding="utf-8")
        with pytest.raises(SidecarError, match="m.csv.meta.json.*m.csv"):
            read_matrix(path)

    def test_sidecar_without_hash_is_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        write_matrix(parse_citation_csv(THREE_CELLS, 2005), path)
        sidecar = tmp_path / "m.csv.meta.json"
        meta = json.loads(sidecar.read_text(encoding="utf-8"))
        del meta["csv_sha256"]
        for digest in ({}, {"csv_sha256": 5}):
            sidecar.write_text(json.dumps({**meta, **digest}), encoding="utf-8")
            with pytest.raises(SidecarError, match='m.csv.meta.json: no string "csv_sha256"'):
                read_matrix(path)

    def test_sidecar_that_is_not_a_json_object_is_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        write_matrix(parse_citation_csv(THREE_CELLS, 2005), path)
        (tmp_path / "m.csv.meta.json").write_text("[2005]", encoding="utf-8")
        with pytest.raises(SidecarError, match="m.csv.meta.json: expected a JSON object"):
            read_matrix(path)

    @pytest.mark.parametrize("cached", [False, True])
    def test_unsorted_sidecar_loads_in_id_order(self, tmp_path, cached):
        m = parse_citation_csv(THREE_CELLS, 2005, registry={"C": Journal("C", "C")})
        path = tmp_path / "m.csv"
        write_matrix(m, path)
        sidecar = tmp_path / "m.csv.meta.json"
        meta = json.loads(sidecar.read_text(encoding="utf-8"))
        meta["journals"].reverse()
        sidecar.write_text(json.dumps(meta), encoding="utf-8")
        if cached:
            # Key the cache on the rewritten sidecar, so the load uses it.
            cache = tmp_path / "m.csv.csr.npz"
            with np.load(cache) as npz:
                arrays = dict(npz)
            arrays["sidecar_sha256"] = np.array(hashlib.sha256(sidecar.read_bytes()).hexdigest())
            with cache.open("wb") as f:
                np.savez(f, **arrays)
        again = read_matrix(path)
        assert again == m
        assert list(again.journals) == ["A", "B", "C"]
        assert [again.cell(j, "A") for j in "ABC"] == [7, 2, 0]

    def test_serialization_is_deterministic(self):
        m = parse_citation_csv("B,A,2\nA,A,7\nA,B,5", 2005)
        assert b"".join(_csv_bytes(m)) == b"".join(_csv_bytes(m))
        assert b"".join(_csv_bytes(m)) == b"citing,cited,count\nA,A,7\nA,B,5\nB,A,2\n"


WHITESPACE = "".join(ch for ch in map(chr, range(sys.maxunicode + 1)) if ch.isspace())


def _accepted(token):
    try:
        _validate_id(token)
    except ValueError:
        return False
    return True


@given(
    st.lists(
        st.text(st.one_of(st.characters(), st.sampled_from(WHITESPACE + '",\\')), max_size=4),
        max_size=4,
    )
)
def test_bulk_id_check_accepts_exactly_what_validate_id_accepts(tokens):
    assert _valid_ids(tokens) == all(map(_accepted, tokens))


def _first_rejected(rows):
    """The index of the first row that fails alone as a Journal or repeats an
    earlier id, or None."""
    seen = set()
    for k, (journal_id, name, source) in enumerate(rows):
        if not all(isinstance(field, str) for field in (journal_id, name, source)):
            return k
        if journal_id in seen:
            return k
        try:
            Journal(journal_id, name, SourceIndex(source))
        except ValueError:
            return k
        seen.add(journal_id)
    return None


NOT_STRINGS = st.one_of(st.none(), st.integers(-1, 1), st.booleans(), st.just([]))
GOOD_FIELDS = (
    st.sampled_from(["A", "B", "C", "D", "E", "F"]),
    st.sampled_from(["Alpha", "é"]),
    st.sampled_from(["SCI", "SSCI"]),
)
BAD_FIELDS = (
    st.one_of(st.sampled_from(["", " A", "A,B", 'A"', "A\\", "\ud800", "A\u2028"]), NOT_STRINGS),
    st.one_of(st.just(""), NOT_STRINGS),
    st.one_of(st.sampled_from(["XXX", "sci", ""]), NOT_STRINGS),
)


@st.composite
def sidecar_rows(draw):
    """Up to four ``(id, display_name, source_index)`` rows: most valid, with
    ids from six so that some repeat, the rest with one field bad."""
    rows = []
    for _ in range(draw(st.integers(0, 4))):
        bad = draw(st.sampled_from([None] * 6 + [0, 1, 2]))
        rows.append(tuple(draw((BAD_FIELDS if i == bad else GOOD_FIELDS)[i]) for i in range(3)))
    return rows


@settings(max_examples=300, deadline=None)
@given(sidecar_rows())
@example([("B", "Beta", "SSCI"), ("A", "Alpha", "SCI")])
@example([("A", "Alpha", "SCI"), ("A", "Beta", "SCI")])
def test_sidecar_fallback_only_names_what_the_bulk_check_rejects(rows):
    entries = [dict(zip(REGISTRY_HEADER, row)) for row in rows]
    meta = {"year": 2005, "journals": entries, "csv_sha256": "0" * 64}
    raw = json.dumps(meta).encode("utf-8")
    sidecar = Path("m.csv.meta.json")
    first = _first_rejected(rows)
    # The rows as the sidecar decoder hands them to the bulk check.
    if _journals_in_bulk([_entry(*row) for row in rows]) is not None:
        assert first is None
        journals = [Journal(j, name, SourceIndex(source)) for j, name, source in rows]
        _, registry, _ = _read_sidecar(sidecar, raw)
        assert list(registry.items()) == sorted((journal.id, journal) for journal in journals)
    else:
        assert first is not None
        with pytest.raises(SidecarError, match=f"malformed journals entry {first}: "):
            _read_sidecar(sidecar, raw)


class TestSidecarEntries:
    GOOD = {"id": "A", "display_name": "Alpha", "source_index": "SCI"}

    @pytest.mark.parametrize(
        "entry, message",
        [
            ("A", "needs string fields id, display_name, source_index"),
            ({"id": "B", "display_name": "B"}, "needs string fields"),
            ({"id": 5, "display_name": "B", "source_index": "SCI"}, "needs string fields"),
            ({"id": "B", "display_name": "B", "source_index": "XXX"}, "'XXX' is not a valid"),
            ({"id": "B", "display_name": "B", "source_index": "sci"}, "'sci' is not a valid"),
            ({"id": "B", "display_name": "B", "source_index": 5}, "needs string fields"),
            ({"id": "", "display_name": "B", "source_index": "SCI"}, "must be nonempty"),
            ({"id": "B\u00a0C", "display_name": "B", "source_index": "SCI"}, "whitespace"),
            ({"id": "B\u2028", "display_name": "B", "source_index": "SCI"}, "whitespace"),
            ({"id": 'B"', "display_name": "B", "source_index": "SCI"}, "backslash"),
            ({"id": "B\\", "display_name": "B", "source_index": "SCI"}, "backslash"),
            ({"id": "B", "display_name": "", "source_index": "SCI"}, "display_name must"),
            ({"id": "B,C", "display_name": "B", "source_index": "SCI"}, "comma"),
            ({"id": "B", "display_name": 5, "source_index": "SCI"}, "needs string fields"),
        ],
    )
    @pytest.mark.parametrize(
        "later", [[], ["also bad"], [{"id": "Y", "display_name": "Y", "source_index": "SSCI"}]]
    )
    def test_first_malformed_entry_is_named(self, tmp_path, entry, message, later):
        path = tmp_path / "m.csv"
        write_matrix(parse_citation_csv("A,A,1", 2005), path)
        sidecar = tmp_path / "m.csv.meta.json"
        meta = json.loads(sidecar.read_text(encoding="utf-8"))
        meta["journals"] = [self.GOOD, dict(self.GOOD, id="Z"), entry, *later]
        sidecar.write_text(json.dumps(meta), encoding="utf-8")
        pattern = f"{re.escape(str(sidecar))}: malformed journals entry 2: .*{re.escape(message)}"
        with pytest.raises(SidecarError, match=pattern):
            read_matrix(path)

    @pytest.mark.parametrize(
        "entry",
        [
            '{"source_index": "SSCI", "id": "B", "display_name": "Beta"}',
            '{"id": "B", "display_name": "Beta", "source_index": "SSCI", "note": 1}',
            '{"id": "Z", "display_name": "Beta", "source_index": "SSCI", "id": "B"}',
            '{"id": "B", "display_name": "Zeta", "display_name": "Beta", "source_index": "SSCI"}',
        ],
    )
    def test_entries_read_as_json_objects_whatever_their_keys(self, tmp_path, entry):
        # Key order and extra keys do not matter, and a repeated key keeps
        # its last value, as in any JSON object.
        path = tmp_path / "m.csv"
        write_matrix(parse_citation_csv("A,B,1", 2005), path)
        sidecar = tmp_path / "m.csv.meta.json"
        text = sidecar.read_text(encoding="utf-8")
        start = text.index('{\n      "id": "B"')
        sidecar.write_text(text[:start] + entry + text[text.index("}", start) + 1:])
        assert read_matrix(path).journals["B"] == Journal("B", "Beta", SourceIndex.SSCI)

    def test_a_top_level_shaped_like_an_entry_lacks_the_year(self, tmp_path):
        path = tmp_path / "m.csv"
        write_matrix(parse_citation_csv("A,B,1", 2005), path)
        sidecar = tmp_path / "m.csv.meta.json"
        sidecar.write_text('{"id": "A", "display_name": "A", "source_index": "SCI"}')
        with pytest.raises(SidecarError, match=f'^{re.escape(str(sidecar))}: no integer "year"$'):
            read_matrix(path)

    @pytest.mark.parametrize("cached", [True, False])
    def test_repeated_id_names_the_later_entry(self, tmp_path, cached):
        path = tmp_path / "m.csv"
        write_matrix(parse_citation_csv("A,B,1", 2005), path)
        if not cached:
            (tmp_path / "m.csv.csr.npz").unlink()
        sidecar = tmp_path / "m.csv.meta.json"
        meta = json.loads(sidecar.read_text(encoding="utf-8"))
        meta["journals"].append({"id": "A", "display_name": "Other name", "source_index": "SSCI"})
        sidecar.write_text(json.dumps(meta), encoding="utf-8")
        pattern = f"{re.escape(str(sidecar))}: malformed journals entry 2: repeats the id 'A'"
        with pytest.raises(SidecarError, match=pattern):
            read_matrix(path)
