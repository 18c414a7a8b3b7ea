"""Tests for impact factor, quasi impact factor, h-index, self-citation rate."""

import numpy as np
import pytest

from citenet import (
    UnknownJournalError,
    h_index,
    impact_factor,
    parse_citation_csv,
    quasi_impact_factor,
    self_citation_rate,
)


class TestImpactFactor:
    def test_point_six(self):
        assert impact_factor(30, 30, 50, 50) == 0.6

    def test_one_point_two_six(self):
        assert impact_factor(63, 63, 50, 50) == 1.26

    def test_zero_cites(self):
        assert impact_factor(0, 0, 10, 10) == 0.0

    def test_zero_citable_items_rejected(self):
        with pytest.raises(ValueError, match="citable"):
            impact_factor(5, 5, 0, 0)

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            impact_factor(-1, 0, 10, 10)

    def test_homogeneous_under_doubling(self):
        rng = np.random.default_rng(60)
        for _ in range(500):
            c1, c2 = int(rng.integers(0, 500)), int(rng.integers(0, 500))
            n1, n2 = int(rng.integers(0, 200)), int(rng.integers(1, 200))
            assert impact_factor(2 * c1, 2 * c2, 2 * n1, 2 * n2) == impact_factor(
                c1, c2, n1, n2
            )


class TestQuasiImpactFactor:
    def test_half(self):
        assert quasi_impact_factor(30, 30, 50, 50, 5, 5) == 0.5

    def test_zero_self_cites_reduces_to_impact_factor(self):
        assert quasi_impact_factor(30, 30, 50, 50, 0, 0) == impact_factor(30, 30, 50, 50)

    def test_all_self_cites(self):
        assert quasi_impact_factor(30, 30, 50, 50, 30, 30) == 0.0

    @pytest.mark.parametrize("self_cites", [(-1, 0), (0, -1)])
    def test_negative_self_cites_rejected(self, self_cites):
        with pytest.raises(ValueError, match="self-citation counts must be nonnegative"):
            quasi_impact_factor(10, 10, 50, 50, *self_cites)

    def test_self_cites_cannot_exceed_cites(self):
        with pytest.raises(ValueError, match="exceed"):
            quasi_impact_factor(10, 10, 50, 50, 11, 0)

    def test_never_exceeds_impact_factor(self):
        rng = np.random.default_rng(61)
        for _ in range(1000):
            c1, c2 = int(rng.integers(0, 500)), int(rng.integers(0, 500))
            n1, n2 = int(rng.integers(0, 200)), int(rng.integers(1, 200))
            s1, s2 = int(rng.integers(0, c1 + 1)), int(rng.integers(0, c2 + 1))
            quasi = quasi_impact_factor(c1, c2, n1, n2, s1, s2)
            full = impact_factor(c1, c2, n1, n2)
            assert quasi <= full
            if s1 == 0 and s2 == 0:
                assert quasi == full


class TestHIndex:
    def test_definition_check(self):
        assert h_index([10, 8, 5, 4, 3]) == 4

    def test_empty(self):
        assert h_index([]) == 0

    def test_all_ones(self):
        assert h_index([1, 1, 1]) == 1

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            h_index([3, -1])

    def test_permutation_invariant_and_monotone(self):
        rng = np.random.default_rng(62)
        for _ in range(300):
            counts = rng.integers(0, 30, size=int(rng.integers(1, 15))).tolist()
            shuffled = counts[:]
            rng.shuffle(shuffled)
            assert h_index(counts) == h_index(shuffled)
            bumped = counts[:]
            bumped[int(rng.integers(0, len(bumped)))] += int(rng.integers(1, 5))
            assert h_index(bumped) >= h_index(counts)


class TestSelfCitationRate:
    def test_hand_value(self):
        m = parse_citation_csv("A,A,4\nB,A,6", 2005)
        assert self_citation_rate(m, "A") == 0.4

    def test_no_diagonal_cell(self):
        m = parse_citation_csv("B,A,6", 2005)
        assert self_citation_rate(m, "A") == 0.0

    def test_only_self_cites(self):
        m = parse_citation_csv("A,A,4", 2005)
        assert self_citation_rate(m, "A") == 1.0

    def test_zero_cited_total_rejected(self):
        m = parse_citation_csv("A,B,3", 2005)
        with pytest.raises(ValueError, match="incoming"):
            self_citation_rate(m, "A")

    def test_unknown_journal(self):
        m = parse_citation_csv("A,B,3", 2005)
        with pytest.raises(UnknownJournalError):
            self_citation_rate(m, "nope")

    def test_range(self):
        rng = np.random.default_rng(63)
        ids = [f"J{i}" for i in range(6)]
        for _ in range(50):
            rows = []
            for u in ids:
                for v in ids:
                    if rng.random() < 0.4:
                        rows.append(f"{u},{v},{int(rng.integers(1, 20))}")
            if not rows:
                continue
            m = parse_citation_csv("\n".join(rows), 2005)
            for j in ids:
                if j in m and sum(m.col(j).values()) > 0:
                    assert 0.0 <= self_citation_rate(m, j) <= 1.0
