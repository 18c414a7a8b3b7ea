"""Tests for seed environment extraction and member totals."""

import numpy as np
import pytest

from citenet import (
    Direction,
    IsolatedSeedError,
    SeedEnvironment,
    UnknownJournalError,
    environment_totals,
    extract_environment,
    parse_citation_csv,
)


def _matrix_with_cited_seed(counts):
    """Seed S cited by each journal in *counts*; keys are citing journals."""
    rows = [f"{citing},S,{count}" for citing, count in counts.items()]
    return parse_citation_csv("\n".join(rows), 2005)


class TestThresholdSemantics:
    def test_two_percent_contribution_qualifies(self):
        m = _matrix_with_cited_seed({"A": 2, "B": 98})
        env = extract_environment(m, "S", Direction.CITED, 0.01)
        assert "A" in env.members

    def test_exactly_one_percent_is_excluded(self):
        # 1 of 100 cites == the threshold; membership requires strictly more
        m = _matrix_with_cited_seed({"A": 1, "B": 99})
        env = extract_environment(m, "S", Direction.CITED, 0.01)
        assert "A" not in env.members
        assert env.members == ("S", "B")

    def test_just_above_one_percent_is_included(self):
        m = _matrix_with_cited_seed({"A": 11, "B": 989})
        env = extract_environment(m, "S", Direction.CITED, 0.01)
        assert "A" in env.members

    def test_ties_broken_by_journal_id(self):
        m = _matrix_with_cited_seed({"B": 50, "A": 50})
        env = extract_environment(m, "S", Direction.CITED, 0.01)
        assert env.members == ("S", "A", "B")

    def test_members_ordered_by_descending_contribution(self):
        m = _matrix_with_cited_seed({"A": 10, "B": 70, "C": 20})
        env = extract_environment(m, "S", Direction.CITED, 0.01)
        assert env.members == ("S", "B", "C", "A")
        assert env.contributions["B"] == 0.7

    def test_citing_direction_uses_row(self):
        m = parse_citation_csv("S,A,30\nS,B,70\nC,S,100", 2005)
        env = extract_environment(m, "S", Direction.CITING, 0.01)
        assert env.members == ("S", "B", "A")


class TestErrors:
    def test_unknown_seed(self):
        m = _matrix_with_cited_seed({"A": 5})
        with pytest.raises(UnknownJournalError):
            extract_environment(m, "nope", Direction.CITED, 0.01)

    def test_isolated_seed_distinguished(self):
        m = parse_citation_csv("S,A,5", 2005)  # S cites but is never cited
        with pytest.raises(IsolatedSeedError, match="isolated"):
            extract_environment(m, "S", Direction.CITED, 0.01)

    def test_threshold_must_be_a_fraction(self):
        m = _matrix_with_cited_seed({"A": 5})
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                extract_environment(m, "S", Direction.CITED, bad)

    def test_direction_given_as_a_string(self):
        m = parse_citation_csv("B,S,50\nC,S,50\nS,D,9\nS,E,9", 2005)
        for direction in Direction:
            env = extract_environment(m, "S", direction.value, 0.01)
            assert env == extract_environment(m, "S", direction, 0.01)
            assert env.direction is direction
        assert extract_environment(m, "S", "cited", 0.01).members == ("S", "B", "C")
        with pytest.raises(ValueError, match="sideways"):
            extract_environment(m, "S", "sideways", 0.01)
        with pytest.raises(ValueError, match="sideways"):
            SeedEnvironment("S", "sideways", 0.01, ("S", "B"), m.submatrix(["S", "B"]))

    def test_submatrix_must_hold_exactly_the_members(self):
        m = parse_citation_csv("B,S,50\nC,S,50\nS,D,9\nS,E,9", 2005)
        for members, journals in (
            (("S", "B"), ["S", "B", "C"]),
            (("S", "B", "C"), ["S", "B"]),
            (("S", "B", "B"), ["S", "B"]),
        ):
            with pytest.raises(ValueError, match="exactly the members"):
                SeedEnvironment("S", Direction.CITED, 0.01, members, m.submatrix(journals))


class TestEnvironmentStructure:
    def test_submatrix_restricted_to_members(self):
        m = parse_citation_csv("A,S,50\nB,S,1\nA,B,7\nC,A,9", 2005)
        env = extract_environment(m, "S", Direction.CITED, 0.05)
        assert env.members == ("S", "A")
        assert set(env.submatrix.journals) == {"S", "A"}
        # (A,B) and (C,A) touch non-members and are dropped
        assert dict(env.submatrix.cells) == {("A", "S"): 50}

    def test_every_nonseed_member_has_a_direct_link(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            m = _random_env_matrix(rng)
            env = extract_environment(m, "S", Direction.CITED, 0.01)
            for member in env.members[1:]:
                assert m.cell(member, "S") > 0

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            m = _random_env_matrix(rng)
            previous = None
            for threshold in (0.01, 0.05, 0.1, 0.3):
                members = set(
                    extract_environment(m, "S", Direction.CITED, threshold).members
                )
                if previous is not None:
                    assert members <= previous
                previous = members

    def test_vanishing_threshold_admits_every_linked_journal(self):
        m = _matrix_with_cited_seed({"A": 1, "B": 1, "C": 99998})
        env = extract_environment(m, "S", Direction.CITED, 1e-9)
        assert set(env.members) == {"S", "A", "B", "C"}

    def test_extraction_is_idempotent(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            m = _random_env_matrix(rng)
            env = extract_environment(m, "S", Direction.CITED, 0.01)
            again = extract_environment(env.submatrix, "S", Direction.CITED, 0.01)
            assert again.members == env.members


def _random_env_matrix(rng):
    ids = [f"J{i}" for i in range(12)]
    rows = []
    for j in ids:
        if rng.random() < 0.7:
            rows.append(f"{j},S,{int(rng.integers(1, 40))}")
        for k in ids:
            if rng.random() < 0.15:
                rows.append(f"{j},{k},{int(rng.integers(1, 10))}")
    rows.append("J0,S,40")  # seed is never isolated
    return parse_citation_csv("\n".join(rows), 2005)


class TestEnvironmentTotals:
    def test_gross_and_net_hand_summed(self):
        m = parse_citation_csv("A,A,4\nB,A,6\nA,S,60\nB,S,40", 2005)
        env = extract_environment(m, "S", Direction.CITED, 0.01)
        assert set(env.members) == {"S", "A", "B"}
        assert environment_totals(env, "A") == (10, 6)

    def test_no_self_citations_means_gross_equals_net(self):
        m = parse_citation_csv("B,A,6\nA,S,60\nB,S,40", 2005)
        env = extract_environment(m, "S", Direction.CITED, 0.01)
        gross, net = environment_totals(env, "A")
        assert gross == net == 6

    def test_only_self_citations_means_zero_net(self):
        m = parse_citation_csv("A,A,4\nA,S,100", 2005)
        env = extract_environment(m, "S", Direction.CITED, 0.01)
        assert environment_totals(env, "A") == (4, 0)

    def test_citing_direction_totals(self):
        m = parse_citation_csv("S,A,50\nA,A,4\nA,B,6\nA,S,2", 2005)
        env = extract_environment(m, "S", Direction.CITING, 0.01)
        assert "A" in env.members
        # A's outgoing within {S, A}: 4 self + 2 to seed; (A,B) is outside
        assert environment_totals(env, "A") == (6, 2)

    def test_non_member_rejected(self):
        m = _matrix_with_cited_seed({"A": 100})
        env = extract_environment(m, "S", Direction.CITED, 0.01)
        with pytest.raises(UnknownJournalError):
            environment_totals(env, "B")
