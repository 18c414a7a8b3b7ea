"""Tests for seed environment extraction and member totals."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from citenet import (
    Direction,
    Graph,
    IsolatedSeedError,
    Journal,
    SeedEnvironment,
    UnknownJournalError,
    build_report,
    export_json,
    extract_environment,
    parse_citation_csv,
    similarity_graph,
)
from oracles import matrix_of, restricted_matrix


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
            SeedEnvironment("S", "sideways", 0.01, ("S", "B"), m)

    def test_members_must_be_distinct_journals_of_the_matrix_seed_first(self):
        m = parse_citation_csv("B,S,50\nC,S,50\nS,D,9\nS,E,9", 2005)
        for members in ((), ("B", "S")):
            with pytest.raises(ValueError, match="seed must be the first"):
                SeedEnvironment("S", Direction.CITED, 0.01, members, m)
        # Building the members' link graph checks the rest.
        with pytest.raises(ValueError, match="duplicate node ids"):
            SeedEnvironment("S", Direction.CITED, 0.01, ("S", "B", "C", "B"), m)
        for members, unknown in ((("S", "B", "X"), "X"), (("S", "s"), "s")):
            with pytest.raises(UnknownJournalError, match=rf"not in matrix: \['{unknown}'\]"):
                SeedEnvironment("S", Direction.CITED, 0.01, members, m)


class TestEnvironmentStructure:
    def test_members_links_are_cut_from_the_whole_matrix(self):
        m = parse_citation_csv("A,S,50\nB,S,1\nA,B,7\nC,A,9", 2005)
        env = extract_environment(m, "S", Direction.CITED, 0.05)
        assert env.members == ("S", "A")
        assert env.matrix is m
        # (A,B) and (C,A) touch non-members and are dropped
        assert dict(env.links.edges) == {("A", "S"): 50.0}

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
            restricted = restricted_matrix(m, env.members)
            again = extract_environment(restricted, "S", Direction.CITED, 0.01)
            assert again.members == env.members


class TestSharedLinks:
    # S cites and is cited by A, B and C, so both directions have the same
    # members; D cites only A and stays outside.
    EDGES = (
        "A,S,50\nB,S,30\nC,S,20\nS,A,40\nS,B,30\nS,C,10\nS,S,4\n"
        "A,B,5\nB,A,7\nC,A,3\nA,C,2\nA,A,9\nD,A,6"
    )

    @pytest.mark.parametrize("direction", list(Direction))
    def test_no_stage_writes_into_the_environments_links(self, direction):
        env = extract_environment(parse_citation_csv(self.EDGES, 2005), "S", direction, 0.01)
        assert env.members == ("S", "A", "B", "C")
        graph = similarity_graph(env, 0.0)
        env.totals
        export_json(graph, build_report(env.links, env.matrix))
        fresh = Graph.from_citation_matrix(env.matrix, env.members)._csr
        for shared, built in zip(env.links._csr, fresh, strict=True):
            assert shared.dtype == built.dtype
            assert shared.tolist() == built.tolist()


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
        assert env.members == ("S", "A", "B")
        assert list(env.totals.items()) == [
            ("S", (100, 100)), ("A", (10, 6)), ("B", (0, 0))
        ]

    def test_no_self_citations_means_gross_equals_net(self):
        m = parse_citation_csv("B,A,6\nA,S,60\nB,S,40", 2005)
        env = extract_environment(m, "S", Direction.CITED, 0.01)
        gross, net = env.totals["A"]
        assert gross == net == 6

    def test_only_self_citations_means_zero_net(self):
        m = parse_citation_csv("A,A,4\nA,S,100", 2005)
        env = extract_environment(m, "S", Direction.CITED, 0.01)
        assert env.totals["A"] == (4, 0)

    def test_citing_direction_totals(self):
        m = parse_citation_csv("S,A,50\nA,A,4\nA,B,6\nA,S,2", 2005)
        env = extract_environment(m, "S", Direction.CITING, 0.01)
        assert env.members == ("S", "A")
        # A's outgoing within {S, A}: 4 self + 2 to seed; (A,B) is outside
        assert env.totals == {"S": (50, 50), "A": (6, 2)}

    def test_equal_the_cell_sums_over_the_members(self):
        rng = np.random.default_rng(32)
        ids = ["S"] + [f"J{k}" for k in range(15)]
        seen_self = seen_outside = 0
        for _ in range(30):
            picks = zip(*(rng.integers(0, len(ids), 120) for _ in range(2)),
                        rng.integers(1, 50, 120))
            cells = {(ids[a], ids[b]): int(c) for a, b, c in picks}
            cells[("S", "J0")] = cells[("J0", "S")] = 60  # the seed is never isolated
            m = matrix_of(2005, [Journal(j, j) for j in ids], cells)
            for direction in Direction:
                env = extract_environment(m, "S", direction, 0.02)

                def total(j, others):
                    if direction is Direction.CITED:
                        return sum(m.cell(i, j) for i in others)
                    return sum(m.cell(j, i) for i in others)

                expected = {
                    j: (total(j, env.members), total(j, set(env.members) - {j}))
                    for j in env.members
                }
                found = env.totals
                assert list(found.items()) == list(expected.items())
                assert all(type(n) is int for pair in found.values() for n in pair)
                seen_self += any(m.cell(j, j) for j in env.members)
                seen_outside += len(env.members) < len(ids)
        assert seen_self and seen_outside


TRANSPOSE_IDS = ["S", "A", "B", "C", "D", "E", "F"]


def _reference_citing_environment(cells, seed, threshold):
    """``(members, contributions)`` of the seed's citing environment, read
    off a ``{(citing, cited): count}`` dict one cell at a time."""
    line = {cited: c for (citing, cited), c in cells.items() if citing == seed and c}
    total = sum(line.values())
    qualifying = sorted(
        ((journal_id, count) for journal_id, count in line.items()
         if journal_id != seed and count / total > threshold),
        key=lambda item: (-item[1], item[0]),
    )
    contributions = {seed: line.get(seed, 0) / total}
    contributions.update((journal_id, count / total) for journal_id, count in qualifying)
    return (seed, *(journal_id for journal_id, _ in qualifying)), contributions


@settings(max_examples=100, deadline=None)
@given(
    cells=st.dictionaries(
        st.tuples(st.sampled_from(TRANSPOSE_IDS), st.sampled_from(TRANSPOSE_IDS)),
        st.one_of(st.integers(0, 3), st.integers(1, 60)),
        max_size=30,
    ),
    threshold=st.sampled_from([0.01, 0.1, 0.25]),
    cosine=st.sampled_from([0.0, 0.2]),
)
def test_citing_on_a_matrix_equals_cited_on_its_transpose(cells, threshold, cosine):
    journals = [Journal(j, j) for j in TRANSPOSE_IDS]
    m = matrix_of(2005, journals, cells)
    transposed = {(cited, citing): count for (citing, cited), count in cells.items()}
    t = matrix_of(2005, journals, transposed)
    for seed in TRANSPOSE_IDS:
        try:
            citing = extract_environment(m, seed, Direction.CITING, threshold)
        except IsolatedSeedError:
            with pytest.raises(IsolatedSeedError):
                extract_environment(t, seed, Direction.CITED, threshold)
            continue
        cited = extract_environment(t, seed, Direction.CITED, threshold)
        members, contributions = _reference_citing_environment(cells, seed, threshold)
        assert citing.members == cited.members == members
        assert list(citing.contributions.items()) == list(contributions.items())
        assert list(cited.contributions.items()) == list(contributions.items())
        assert list(citing.totals.items()) == list(cited.totals.items())
        if len(members) < 2:
            continue  # a similarity graph needs two members
        citing_graph = similarity_graph(citing, cosine)
        cited_graph = similarity_graph(cited, cosine)
        assert list(citing_graph.edges.items()) == list(cited_graph.edges.items())
        citing_rows = build_report(citing_graph, m).rows
        cited_rows = build_report(cited_graph, t).rows
        assert [
            dataclasses.replace(row, degree_in=row.degree_out, degree_out=row.degree_in)
            for row in citing_rows.values()
        ] == list(cited_rows.values())
