"""Tests for cosine, Pearson, and similarity graph construction."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import citenet.centrality
import citenet.similarity
from citenet import (
    MAX_COUNT,
    Direction,
    Graph,
    Journal,
    SeedEnvironment,
    extract_environment,
    parse_citation_csv,
    similarity_graph,
)
from oracles import (
    UndefinedSimilarityError,
    ZeroVarianceError,
    cosine,
    graph_of,
    matrix_of,
    neighbours,
    pearson,
    similarity_graph_of,
)

TRIANGLE = "B,A,3\nC,A,3\nA,B,3\nC,B,3\nA,C,3\nB,C,3"


class TestCosine:
    def test_parallel_vectors(self):
        assert cosine((1, 2, 3), (2, 4, 6)) == 1.0

    def test_orthogonal_vectors(self):
        assert cosine((1, 0), (0, 1)) == 0.0

    def test_half_overlap(self):
        # dot 1 over sqrt(2) * sqrt(2)
        assert cosine((1, 1, 0), (1, 0, 1)) == 0.5

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            cosine((1, 2), (1, 2, 3))

    def test_empty_vectors(self):
        with pytest.raises(ValueError):
            cosine((), ())

    def test_zero_vector_is_undefined_not_zero(self):
        with pytest.raises(UndefinedSimilarityError):
            cosine((0, 0), (1, 2))
        with pytest.raises(UndefinedSimilarityError):
            cosine((1, 2), (0, 0))

    def test_symmetry_exact(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            n = int(rng.integers(2, 12))
            x = rng.uniform(0, 10, size=n).tolist()
            y = rng.uniform(0, 10, size=n).tolist()
            assert cosine(x, y) == cosine(y, x)

    def test_range_on_nonnegative_vectors(self):
        rng = np.random.default_rng(43)
        for _ in range(1000):
            n = int(rng.integers(2, 12))
            x = rng.uniform(0, 10, size=n).tolist()
            y = rng.uniform(0, 10, size=n).tolist()
            value = cosine(x, y)
            assert 0.0 <= value <= 1.0

    def test_self_similarity_is_one(self):
        rng = np.random.default_rng(44)
        for _ in range(1000):
            n = int(rng.integers(1, 12))
            x = rng.integers(0, 50, size=n).tolist()
            if not any(x):
                x[0] = 1
            assert cosine(x, x) == 1.0

    def test_integer_parallel_vectors_are_exactly_one(self):
        rng = np.random.default_rng(45)
        for _ in range(1000):
            n = int(rng.integers(1, 12))
            x = rng.integers(0, 50, size=n).tolist()
            if not any(x):
                x[0] = 1
            scale = int(rng.integers(1, 9))
            assert cosine(x, [scale * v for v in x]) == 1.0

    def test_scale_invariance(self):
        rng = np.random.default_rng(46)
        for _ in range(1000):
            n = int(rng.integers(2, 12))
            x = rng.uniform(0.1, 10, size=n).tolist()
            y = rng.uniform(0.1, 10, size=n).tolist()
            lam = float(rng.uniform(0.01, 100))
            scaled = cosine([lam * v for v in x], y)
            assert scaled == pytest.approx(cosine(x, y), abs=1e-12)


class TestPearson:
    def test_perfect_linear_relation(self):
        assert pearson((1, 2, 3), (2, 4, 6)) == 1.0

    def test_perfect_inverse_relation(self):
        assert pearson((1, 2, 3), (3, 2, 1)) == -1.0

    def test_mean_centering_divergence_from_cosine(self):
        x, y = (1, 1, 0), (1, 0, 1)
        assert cosine(x, y) == 0.5
        assert pearson(x, y) == -0.5

    def test_zero_variance(self):
        with pytest.raises(ZeroVarianceError):
            pearson((2, 2, 2), (1, 2, 3))
        with pytest.raises(ZeroVarianceError):
            pearson((1, 2, 3), (5, 5, 5))

    def test_needs_two_entries(self):
        with pytest.raises(ValueError):
            pearson((1,), (2,))

    def test_translation_invariance_where_cosine_is_not(self):
        x, y = (1.0, 2.0, 3.0), (3.0, 1.0, 2.0)
        shifted = tuple(v + 10.0 for v in x)
        assert pearson(shifted, y) == pytest.approx(pearson(x, y), abs=1e-12)
        assert abs(cosine(shifted, y) - cosine(x, y)) > 0.1

    def test_translation_invariance_random(self):
        rng = np.random.default_rng(47)
        for _ in range(200):
            n = int(rng.integers(3, 12))
            x = rng.uniform(0, 10, size=n)
            y = rng.uniform(0, 10, size=n)
            if np.ptp(x) == 0 or np.ptp(y) == 0:
                continue
            c = float(rng.uniform(-100, 100))
            assert pearson((x + c).tolist(), y.tolist()) == pytest.approx(
                pearson(x.tolist(), y.tolist()), abs=1e-9
            )


def _triangle_env():
    m = parse_citation_csv(TRIANGLE, 2005)
    return extract_environment(m, "A", Direction.CITED, 0.01)


class TestSimilarityGraph:
    def test_complete_triangle_at_half_weight(self):
        env = _triangle_env()
        g = similarity_graph(env, 0.2)
        assert g.nodes == ("A", "B", "C")
        assert dict(g.edges) == {
            ("A", "B"): 0.5,
            ("A", "C"): 0.5,
            ("B", "C"): 0.5,
        }
        assert g.env.direction is Direction.CITED

    def test_identical_profiles_give_weight_one(self):
        # B and C receive identical citation columns within the environment
        m = parse_citation_csv("B,S,50\nC,S,50\nS,B,7\nS,C,7", 2005)
        env = extract_environment(m, "S", Direction.CITED, 0.01)
        g = similarity_graph(env, 0.2)
        assert g.edges[("B", "C")] == 1.0

    def test_exact_threshold_is_excluded(self):
        env = _triangle_env()
        # all pairwise cosines are exactly 0.5; strict inequality drops them
        assert dict(similarity_graph(env, 0.5).edges) == {}
        assert len(similarity_graph(env, 0.4999).edges) == 3

    def test_boundary_with_computed_cosine(self):
        m = parse_citation_csv("B,S,50\nC,S,50\nB,B,0\nS,B,3\nS,C,9\nB,C,2", 2005)
        env = extract_environment(m, "S", Direction.CITED, 0.01)
        reference = similarity_graph(env, 0.0)
        for pair, weight in reference.edges.items():
            at = similarity_graph(env, weight)
            assert pair not in at.edges  # cosine == threshold: no edge
            below = similarity_graph(env, weight - 1e-9)
            assert pair in below.edges

    def test_zero_profile_member_kept_isolated_with_warning(self):
        m = parse_citation_csv("A,S,50\nB,S,50\nS,A,10", 2005)
        env = extract_environment(m, "S", Direction.CITED, 0.01)
        g = similarity_graph(env, 0.0)
        assert g.nodes == ("S", "A", "B")
        assert all("B" not in pair for pair in g.edges)
        assert any("'B'" in warning for warning in g.warnings)

    def test_no_self_loops_and_weights_exceed_threshold(self):
        rng = np.random.default_rng(48)
        for _ in range(20):
            _, g = _random_similarity_graph(rng, threshold=0.2)
            for (u, v), weight in g.edges.items():
                assert u != v
                assert weight > g.threshold

    def test_lowering_threshold_only_adds_edges(self):
        rng = np.random.default_rng(49)
        for _ in range(20):
            env, high = _random_similarity_graph(rng, threshold=0.5)
            low = similarity_graph(env, 0.1)
            for pair, weight in high.edges.items():
                assert low.edges[pair] == weight
            assert set(high.edges) <= set(low.edges)

    def test_diagonal_excluded_from_profiles(self):
        # A's huge self-citation must not dominate its profile
        m = parse_citation_csv("A,A,10000\nA,S,50\nB,S,50\nS,A,1\nS,B,1", 2005)
        env = extract_environment(m, "S", Direction.CITED, 0.01)
        g = similarity_graph(env, 0.0)
        # profiles of A and B over (S,A,B) are both (1,0,0): identical
        assert g.edges[("A", "B")] == 1.0

    def test_too_few_members_rejected(self):
        m = parse_citation_csv("A,S,100\nA,A,1", 2005)
        env = extract_environment(m, "A", Direction.CITED, 0.99)
        assert env.members == ("A",)
        with pytest.raises(ValueError, match="2 members"):
            similarity_graph(env, 0.2)

    def test_threshold_validation(self):
        env = _triangle_env()
        for bad in (-0.1, 1.0, 1.5):
            with pytest.raises(ValueError):
                similarity_graph(env, bad)

    def test_is_an_undirected_graph(self):
        g = similarity_graph(_triangle_env(), 0.2)
        assert isinstance(g, Graph)
        assert not g.directed
        assert neighbours(g) == ({"A": ("B", "C"), "B": ("A", "C"), "C": ("A", "B")},) * 2

    def test_labels_are_read_only(self):
        env = _triangle_env()
        g = similarity_graph(env, 0.2)
        for name, value in (("threshold", 0.5), ("env", _triangle_env()), ("warnings", ())):
            with pytest.raises(AttributeError):
                setattr(g, name, value)
        assert g.env is env
        assert (g.threshold, g.warnings) == (0.2, ())

    def test_weight_lookups_do_not_rebuild_the_edges(self, monkeypatch):
        g = similarity_graph(_triangle_env(), 0.2)
        edges = g.edges

        def rebuild(*args):
            raise AssertionError("the edge mapping was rebuilt")

        monkeypatch.setattr(citenet.centrality, "_row_ids", rebuild)
        for _ in range(3):
            for (u, v), weight in edges.items():
                assert g.edges[(u, v)] == weight and (v, u) not in g.edges
        assert g.edges is edges


def _random_similarity_graph(rng, threshold):
    ids = [f"J{i}" for i in range(8)]
    rows = [f"{j},S,{int(rng.integers(2, 40))}" for j in ids]
    for j in ids:
        for k in ids + ["S"]:
            if rng.random() < 0.4:
                rows.append(f"{j},{k},{int(rng.integers(1, 10))}")
    m = parse_citation_csv("\n".join(rows), 2005)
    env = extract_environment(m, "S", Direction.CITED, 0.01)
    return env, similarity_graph(env, threshold)


# The largest count whose square, and so every product of two counts, is
# below 2^53: each term cosine() sums is then an exact float.
EXACT_COUNT = 94_906_265
GRAM_IDS = ["A", "B", "C", "D", "E", "F"]


def _env(m, members, direction):
    """An environment with the given member order, bypassing the thresholds."""
    return SeedEnvironment(members[0], direction, 0.01, tuple(members), m)


def _reference_edges(m, env, basis, axes, threshold):
    """Edges of the pairwise scalar path: cosine() over dense profiles."""
    profiles = {}
    for member in env.members:
        profiles[member] = [
            0 if a == member
            else m.cell(a, member) if basis is Direction.CITED
            else m.cell(member, a)
            for a in axes
        ]
    edges = []
    for i, u in enumerate(env.members):
        for v in env.members[i + 1 :]:
            if any(profiles[u]) and any(profiles[v]):
                value = cosine(profiles[u], profiles[v])
                if value > threshold:
                    edges.append(((u, v), value))
    zero = [member for member in env.members if not any(profiles[member])]
    return edges, zero


GRAM_CASES = dict(
    cells=st.dictionaries(
        st.tuples(st.sampled_from(GRAM_IDS), st.sampled_from(GRAM_IDS)),
        st.one_of(st.integers(0, 9), st.integers(0, EXACT_COUNT)),
        max_size=30,
    ),
    members=st.permutations(GRAM_IDS).flatmap(
        lambda ids: st.integers(2, len(ids)).map(lambda k: ids[:k])
    ),
    basis=st.sampled_from(Direction),
    threshold=st.one_of(st.just(0.0), st.floats(0.0, 0.99)),
)


def _bits(edges):
    """``(pair, weight)`` items with each weight as its exact float bits."""
    return [(pair, weight.hex()) for pair, weight in edges]


def _zero_warnings(zero, basis):
    return tuple(
        f"member {j!r} has an all-zero {basis.value} profile; kept as isolated node"
        for j in zero
    )


# Citing profiles of A and B over the axes C to G, one per side of each
# Gram regime boundary.  Every count product is exact in float64, so
# cosine() is correctly rounded and the Gram weight must equal it bit for
# bit while G is exact (below 2^62).  From 2^53 up, float64 partial sums
# would round.
GRAM_REGIMES = [
    # largest squared norm just below 2^53: the float64 product
    ((EXACT_COUNT, 10_000, 1, 0, 0), (EXACT_COUNT - 1, 3, 1, 0, 0), 2**52, 2**53),
    # just above 2^53: int64; float64 would sum A.A term by term to
    # 2^53 + 2^50, not 2^53 + 2^50 + 3
    ((3 * 2**25, 1, 1, 1, 0), (3 * 2**25, 5_000, 1, 0, 0), 2**53, 2**54),
    # just below 2^62: still int64
    ((2**30, 2**30, 2**30, 1, 0), (2**30, 2**29, 1, 1, 0), 2**61, 2**62),
    # just above 2^62: float64 again, within the tolerance below
    ((2**30, 2**30, 2**30, 2**30, 1), (2**30, 3, 2**29, 1, 7), 2**62, 2**63),
]


# The Gram blocks' pair chunks cut to one, two and three pairs.
PAIR_CHUNKS = [pytest.param(k, id=f"chunk{k}") for k in (1, 2, 3)]


def _assert_scalar_cosine_exactly(cells, members, basis, threshold):
    m = matrix_of(2005, [Journal(j, j) for j in GRAM_IDS], cells)
    env = _env(m, members, basis)
    g = similarity_graph(env, threshold)
    edges, zero = _reference_edges(m, env, basis, sorted(members), threshold)
    # Same pairs, same insertion order, bit-identical weights.
    assert list(g.edges.items()) == edges
    assert all(type(weight) is float for weight in g.edges.values())
    assert g.warnings == _zero_warnings(zero, basis)


def _assert_block_size_does_not_change_the_graph(cells, members, basis, threshold):
    m = matrix_of(2005, [Journal(j, j) for j in GRAM_IDS], cells)
    env = _env(m, members, basis)
    default = similarity_graph(env, threshold)
    edges, zero = _reference_edges(m, env, basis, sorted(members), threshold)
    for rows in (1, 2, 3):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(citenet.similarity, "_BLOCK_ROWS", rows)
            g = similarity_graph(env, threshold)
        # Same pairs, same order, same float bits.
        assert _bits(g.edges.items()) == _bits(default.edges.items()) == _bits(edges)
        assert g.warnings == default.warnings == _zero_warnings(zero, basis)


def test_the_oracle_graph_builders_match_the_library():
    """From a graph's own edges, graph_of and similarity_graph_of build the
    CSR the library built, array for array."""
    rng = np.random.default_rng(61)
    built = []
    for _ in range(15):
        ids = [f"J{i:02d}" for i in range(int(rng.integers(2, 25)))]
        cells = {(a, b): int(rng.integers(1, 50)) for a in ids for b in ids if rng.random() < 0.3}
        m = matrix_of(2005, [Journal(j, j) for j in ids], cells)
        members = [ids[k] for k in rng.permutation(len(ids))]
        for direction in Direction:
            env = _env(m, members, direction)
            built.append((env.links, graph_of(members, dict(env.links.edges), directed=True)))
            for threshold in (0.0, 0.05, 0.2, 0.5):
                g = similarity_graph(env, threshold)
                built.append((g, graph_of(members, dict(g.edges), directed=False)))
                built.append((g, similarity_graph_of(env, dict(g.edges), threshold)))
    for g, oracle in built:
        assert oracle.nodes == g.nodes and oracle.directed == g.directed
        for a, b in zip(oracle._csr, g._csr, strict=True):
            assert a.dtype == b.dtype and np.array_equal(a, b)


def _hub_environment(n, hubs, rng):
    """n members that each cite the first *hubs* members once and 5 others
    1-30 times: each hub's axis holds nearly every member."""
    ids = [f"J{i:04d}" for i in range(n)]
    cells = {(j, ids[h]): 1 for j in ids for h in range(hubs) if j != ids[h]}
    for i, j in enumerate(ids):
        for k, c in zip(rng.choice(n - hubs, 5, replace=False) + hubs, rng.integers(1, 31, 5)):
            if k != i:
                cells[(j, ids[k])] = int(c)
    m = matrix_of(2005, [Journal(j, j) for j in ids], cells)
    return _env(m, ids, Direction.CITING)


def _entry_pairs(env):
    """Pairs of nonzero profile entries that share an axis."""
    indptr, cols, _ = env.links._csr
    if env.direction is Direction.CITED:
        axis_len = np.diff(indptr)
    else:
        axis_len = np.bincount(cols, minlength=len(env.members))
    return int((axis_len * (axis_len - 1) // 2).sum())


class TestGramPath:
    @given(**GRAM_CASES)
    def test_weights_equal_scalar_cosine_exactly(self, cells, members, basis, threshold):
        _assert_scalar_cosine_exactly(cells, members, basis, threshold)

    @given(**GRAM_CASES)
    def test_block_size_does_not_change_the_graph(self, cells, members, basis, threshold):
        _assert_block_size_does_not_change_the_graph(cells, members, basis, threshold)

    @pytest.mark.parametrize("chunk", PAIR_CHUNKS)
    @given(**GRAM_CASES)
    def test_weights_equal_scalar_cosine_exactly_in_pair_chunks(
        self, chunk, cells, members, basis, threshold
    ):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(citenet.similarity, "_PAIR_CHUNK", chunk)
            _assert_scalar_cosine_exactly(cells, members, basis, threshold)

    @pytest.mark.parametrize("chunk", PAIR_CHUNKS)
    @given(**GRAM_CASES)
    def test_block_size_does_not_change_the_graph_in_pair_chunks(
        self, chunk, cells, members, basis, threshold
    ):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(citenet.similarity, "_PAIR_CHUNK", chunk)
            _assert_block_size_does_not_change_the_graph(cells, members, basis, threshold)

    @pytest.mark.parametrize("chunk", PAIR_CHUNKS)
    @given(**{name: GRAM_CASES[name] for name in ("cells", "members", "basis")})
    def test_gram_blocks_fill_nothing_on_or_below_the_diagonal(
        self, chunk, cells, members, basis
    ):
        # similarity_graph reads every cell of a block, so an unfilled one
        # must have a cosine no threshold passes: 0, or nan for a zero profile.
        m = matrix_of(2005, [Journal(j, j) for j in GRAM_IDS], cells)
        indptr, cols, counts = _env(m, members, basis).links._csr
        owners, axes = citenet.centrality._row_ids(indptr), cols
        if basis is Direction.CITED:
            owners, axes = axes, owners
        for rows in (1, 2, 3, citenet.similarity._BLOCK_ROWS):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(citenet.similarity, "_BLOCK_ROWS", rows)
                patch.setattr(citenet.similarity, "_PAIR_CHUNK", chunk)
                blocks = citenet.similarity._gram_blocks(len(members), owners, axes, counts)
                for a, gram in blocks:
                    assert gram.shape == (min(rows, len(members) - a), len(members) - a)
                    assert not np.tril(gram).any()

    @pytest.mark.parametrize("a_row, b_row, low, high", GRAM_REGIMES)
    def test_weights_around_the_gram_regimes(self, a_row, b_row, low, high):
        axes = "CDEFG"
        cells = {("A", j): c for j, c in zip(axes, a_row) if c}
        cells.update({("B", j): c for j, c in zip(axes, b_row) if c})
        m = matrix_of(2005, [Journal(j, j) for j in "AB" + axes], cells)
        assert low <= max(sum(c * c for c in row) for row in (a_row, b_row)) < high
        env = _env(m, ["A", "B", *axes], Direction.CITING)
        g = similarity_graph(env, 0.0)
        edges, _ = _reference_edges(m, env, Direction.CITING, sorted(m.journals), 0.0)
        assert list(g.edges) == [pair for pair, _ in edges]
        assert edges[0][1] < 1.0
        if high <= 2**62:
            assert list(g.edges.items()) == edges
        else:
            assert g.edges[("A", "B")] == pytest.approx(edges[0][1], abs=1e-12)

    @pytest.mark.parametrize("a_row, b_row, low, high", GRAM_REGIMES)
    def test_weights_around_the_gram_regimes_in_one_row_blocks(
        self, monkeypatch, a_row, b_row, low, high
    ):
        monkeypatch.setattr(citenet.similarity, "_BLOCK_ROWS", 1)
        self.test_weights_around_the_gram_regimes(a_row, b_row, low, high)

    @pytest.mark.parametrize("rows", [64, 1])
    @pytest.mark.parametrize("a_row, b_row, low, high", GRAM_REGIMES)
    @pytest.mark.parametrize("chunk", PAIR_CHUNKS)
    def test_weights_around_the_gram_regimes_in_pair_chunks(
        self, monkeypatch, chunk, a_row, b_row, low, high, rows
    ):
        monkeypatch.setattr(citenet.similarity, "_BLOCK_ROWS", rows)
        monkeypatch.setattr(citenet.similarity, "_PAIR_CHUNK", chunk)
        self.test_weights_around_the_gram_regimes(a_row, b_row, low, high)

    def test_sums_above_2_to_the_62_keep_their_bits_in_any_block_or_chunk(self):
        # A's squared norm is about 2^63, so the Gram sums are float64 and
        # round.  A.B's terms are about 2^62 (ulp 512), 300 and 300: added in
        # ascending axis order they round up twice, added the other way they
        # give a weight one ulp lower.
        big = MAX_COUNT
        a_row, b_row = (big, 15, 15, big), (big, 20, 20, 0)
        axes = "CDEF"
        cells = {("A", j): c for j, c in zip(axes, a_row)}
        cells.update({("B", j): c for j, c in zip(axes, b_row) if c})
        m = matrix_of(2005, [Journal(j, j) for j in "AB" + axes], cells)
        env = _env(m, ["A", "B", *axes], Direction.CITING)

        def in_axis_order(terms):
            total = 0.0
            for term in terms:
                total += float(term)
            return total

        norm_a, norm_b = (in_axis_order(float(c) ** 2 for c in row) for row in (a_row, b_row))
        assert norm_a >= 2.0**62
        dot = in_axis_order(x * y for x, y in zip(a_row, b_row))
        assert dot != in_axis_order(x * y for x, y in zip(a_row[::-1], b_row[::-1]))
        expected = [(("A", "B"), min(dot / math.sqrt(norm_a * norm_b), 1.0).hex())]
        for rows in (64, 1):
            for chunk in (1, 2, 3, citenet.similarity._PAIR_CHUNK):
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(citenet.similarity, "_BLOCK_ROWS", rows)
                    patch.setattr(citenet.similarity, "_PAIR_CHUNK", chunk)
                    assert _bits(similarity_graph(env, 0.0).edges.items()) == expected

    @pytest.mark.parametrize("basis", Direction)
    def test_all_zero_profiles_give_no_edges_and_a_warning_each(self, basis):
        # A, B and C cite only themselves; D has no cell at all.  The raw
        # links among the members are none, so every profile is zero.
        members = ["C", "A", "D", "B"]
        m = matrix_of(2005, [Journal(j, j) for j in "ABCD"], {(j, j): 5 for j in "ABC"})
        g = similarity_graph(_env(m, members, basis), 0.0)
        assert g.nodes == tuple(members)
        assert dict(g.edges) == {}
        assert g.warnings == _zero_warnings(members, basis)

    def test_memory_stays_within_members_times_axes(self):
        # 1,500 members that each cite 20 others: about as many axes as
        # members.  One members x members float64 array is 17 MiB, and
        # computing every pair at once holds several of them (86 MiB).
        rng = np.random.default_rng(1500)
        ids = [f"J{i:04d}" for i in range(1500)]
        citing = np.repeat(np.arange(len(ids)), 20)
        cited = rng.integers(0, len(ids), size=len(citing))
        pairs = zip(map(ids.__getitem__, citing.tolist()), map(ids.__getitem__, cited.tolist()))
        cells = dict(zip(pairs, rng.integers(1, 30, len(citing)).tolist()))
        m = matrix_of(2005, [Journal(j, j) for j in ids], cells)
        env = _env(m, ids, Direction.CITED)
        tracemalloc.start()
        try:
            g = similarity_graph(env, 0.2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(g.nodes) == 1500 and g.edges
        assert peak <= 30 * 2**20

    def test_counts_that_would_wrap_int64_use_float(self):
        # A's citing profile has three MAX_COUNT cells: its squared norm
        # passes 2^63, so an int64 Gram product would wrap.
        assert 3 * MAX_COUNT**2 >= 2**63
        cells = {
            ("A", "S"): MAX_COUNT, ("A", "B"): MAX_COUNT, ("A", "C"): MAX_COUNT,
            ("B", "S"): MAX_COUNT, ("B", "A"): 1, ("B", "C"): 5,
            ("C", "A"): 7, ("C", "C"): MAX_COUNT, ("S", "A"): 3,
        }
        m = matrix_of(2005, [Journal(j, j) for j in "ABCS"], cells)
        env = _env(m, ["S", "A", "B", "C"], Direction.CITING)
        g = similarity_graph(env, 0.0)
        edges, _ = _reference_edges(m, env, Direction.CITING, "ABCS", 0.0)
        assert list(g.edges) == [pair for pair, _ in edges]
        for pair, value in edges:
            assert 0.0 <= g.edges[pair] <= 1.0
            assert g.edges[pair] == pytest.approx(value, abs=1e-12)

    def test_hub_axes_stay_within_blocks_and_chunks(self, monkeypatch):
        # 2,000 members on 8 hub axes: 16M entry pairs, 1M of them in each row
        # block.  Held at once, one int64 array of a block's pairs is 8 MB and
        # of all pairs 128 MB; chunk by chunk the peak depends on neither.
        rng = np.random.default_rng(2000)
        env = _hub_environment(2000, 8, rng)
        pairs = _entry_pairs(env)
        assert pairs > 16 * 10**6
        sizes = []
        chunks = citenet.similarity._pair_chunks

        def counted(entries, partners):
            for first, second in chunks(entries, partners):
                sizes.append(len(first))
                yield first, second

        monkeypatch.setattr(citenet.similarity, "_pair_chunks", counted)
        tracemalloc.start()
        try:
            g = similarity_graph(env, 0.2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(sizes) == pairs and max(sizes) == citenet.similarity._PAIR_CHUNK
        assert len(g.nodes) == 2000 and g.edges
        assert peak <= 12 * 2**20
