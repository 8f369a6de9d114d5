import math
import random
import sys
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from qexp.corpus import Category, Document, build_index
import qexp.exposure
from qexp.exposure import (
    MAX_DISTINCT_VALUES,
    ExposureDistribution,
    _bin_thresholds,
    _exact_bin_counts,
    _sampled_sums,
    achievable_exposure,
    group_exposure,
    log_orderings,
    normalize_exposure,
    orderings,
    position_exposure,
    realized_exposure,
)
from qexp.retrieval import Ranking

from oracles import (
    oracle_achievable_exposure,
    oracle_sampled_histogram,
    oracle_sampled_values,
)


class TestPositionExposure:
    def test_top_position_is_one(self):
        assert position_exposure(1) == 1.0

    def test_position_five(self):
        assert position_exposure(5) == pytest.approx(0.38685, abs=1e-4)

    def test_position_three(self):
        assert position_exposure(3) == pytest.approx(0.5)

    def test_strictly_decreasing(self):
        values = [position_exposure(p) for p in range(1, 200)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert all(0 < v <= 1 for v in values)

    def test_invalid_position(self):
        with pytest.raises(ValueError):
            position_exposure(0)


def _two_group_index():
    docs = [
        Document(f"d{i}", "t000", {"c": "a" if i < 5 else "b"}) for i in range(10)
    ]
    return build_index(docs, [Category("c", ("a", "b"))])


def _ranking(doc_ids):
    n = len(doc_ids)
    entries = tuple((d, float(n - i)) for i, d in enumerate(doc_ids))
    return Ranking("q", entries)


class TestGroupExposure:
    def test_positions_one_and_five(self):
        idx = _two_group_index()
        # group "a" docs at positions 1 and 5, "b" elsewhere
        ranking = _ranking(["d0", "d5", "d6", "d7", "d1"])
        totals = group_exposure(ranking, idx, "c")
        assert totals["a"] == pytest.approx(1.38685, abs=1e-4)

    def test_swap_positions_total_unchanged(self):
        idx = _two_group_index()
        before = group_exposure(_ranking(["d0", "d5", "d6", "d7", "d1"]), idx, "c")
        after = group_exposure(_ranking(["d1", "d5", "d6", "d7", "d0"]), idx, "c")
        assert before["a"] == pytest.approx(after["a"], abs=1e-12)
        assert before["b"] == pytest.approx(after["b"], abs=1e-12)

    def test_group_without_ranked_docs(self):
        idx = _two_group_index()
        totals = group_exposure(_ranking(["d0", "d1"]), idx, "c")
        assert totals["b"] == 0.0

    def test_conservation(self):
        idx = _two_group_index()
        ranking = _ranking(["d0", "d5", "d1", "d6"])
        totals = group_exposure(ranking, idx, "c")
        available = sum(position_exposure(p) for p in range(1, 5))
        assert sum(totals.values()) == pytest.approx(available, abs=1e-9)

    def test_unlabeled_doc_rejected(self):
        idx = _two_group_index()
        with pytest.raises(KeyError, match="ghost"):
            group_exposure(_ranking(["ghost"]), idx, "c")

    @pytest.mark.parametrize(
        "doc_ids, category, message",
        [
            (["d0", "ghost"], "c", "unknown document 'ghost'"),
            (["d0"], "nope", "unknown category 'nope'"),
            # the category is named first when both are unknown
            (["ghost"], "nope", "unknown category 'nope'"),
        ],
    )
    def test_unknown_document_or_category_messages(self, doc_ids, category, message):
        idx = _two_group_index()
        with pytest.raises(KeyError) as group_error:
            group_exposure(_ranking(doc_ids), idx, category)
        with pytest.raises(KeyError) as doc_error:
            idx.doc_group(doc_ids[-1], category)
        assert group_error.value.args == doc_error.value.args == (message,)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_permutation_invariance(self, seed):
        # permuting which docs sit on a fixed position set leaves totals alone
        rng = random.Random(seed)
        idx = _two_group_index()
        a_docs = rng.sample(["d0", "d1", "d2", "d3", "d4"], 2)
        b_docs = rng.sample(["d5", "d6", "d7", "d8", "d9"], 2)
        base = group_exposure(_ranking([a_docs[0], b_docs[0], a_docs[1], b_docs[1]]), idx, "c")
        swapped = group_exposure(_ranking([a_docs[1], b_docs[1], a_docs[0], b_docs[0]]), idx, "c")
        assert base == pytest.approx(swapped)


class TestNormalizeExposure:
    def test_symmetric(self):
        d = normalize_exposure("c", ["a", "b"], {"a": 1.0, "b": 1.0})
        assert d.values == (0.5, 0.5)
        assert not d.degenerate

    def test_single_mass(self):
        d = normalize_exposure("c", ["a", "b", "x"], {"a": 1.38685})
        assert d.values == pytest.approx((1.0, 0.0, 0.0))

    def test_all_zero_uniform_degenerate(self):
        d = normalize_exposure("c", ["a", "b"], {})
        assert d.values == (0.5, 0.5)
        assert d.degenerate

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            normalize_exposure("c", ["a"], {"a": -0.1})

    def test_realized_exposure(self):
        idx = _two_group_index()
        dist = realized_exposure(_ranking(["d0", "d5"]), idx, "c")
        total = 1.0 + position_exposure(2)
        assert dist.values == pytest.approx((1.0 / total, position_exposure(2) / total))

    def test_distribution_validation(self):
        with pytest.raises(ValueError):
            ExposureDistribution("c", ("a", "b"), (0.7, 0.7))
        with pytest.raises(ValueError):
            ExposureDistribution("c", ("a",), (0.5, 0.5))

    @pytest.mark.parametrize("values", [(math.nan, 1.0), (0.5, math.nan), (math.nan, math.nan)])
    def test_nan_share_rejected(self, values):
        with pytest.raises(ValueError):
            ExposureDistribution("c", ("a", "b"), values)


class TestAchievableExposure:
    def test_k3_m1_distinct_values(self):
        hist = achievable_exposure(3, 1)
        values = [b[0] for b in hist.bins]
        counts = [b[2] for b in hist.bins]
        assert values == pytest.approx([0.5, 0.63093, 1.0], abs=1e-4)
        assert counts == [1.0, 1.0, 1.0]
        assert hist.subsets == 3

    def test_k3_m3_single_subset(self):
        hist = achievable_exposure(3, 3)
        assert len(hist.bins) == 1
        assert hist.bins[0][0] == pytest.approx(2.13093, abs=1e-4)
        assert hist.bins[0][2] == 1.0

    def test_m0(self):
        hist = achievable_exposure(3, 0)
        assert hist.bins == ((0.0, 0.0, 1.0),)

    @pytest.mark.parametrize("k, m", [(5, 0), (5, 5), (60, 60)])
    def test_one_subset_gives_the_same_float_bin_in_both_modes(self, k, m):
        # 49 samples of the one subset, each counted 1/49, would add up to 0.9999999999999999
        exact = achievable_exposure(k, m)
        sampled = achievable_exposure(k, m, "sampled", samples=49)
        assert exact.bins == sampled.bins == oracle_achievable_exposure(k, m)[0]
        assert sampled.bins == oracle_sampled_histogram(k, m, 49, 0)
        assert [type(v) for v in exact.bins[0] + sampled.bins[0]] == [float] * 6
        assert (exact.sample_size, sampled.sample_size) == (None, 49)

    def test_budget_exceeded(self):
        with pytest.raises(ValueError, match="sampled"):
            achievable_exposure(100, 50, "exact")

    def test_sampled_mode_rejects_a_subset_count_past_the_largest_float(self):
        # C(1030, 499) is about 1.74e308; C(1030, 500) and C(1100, 550) exceed a float
        assert math.comb(1030, 499) <= sys.float_info.max < math.comb(1030, 500)
        hist = achievable_exposure(1030, 499, "sampled", samples=10)
        assert math.isfinite(math.fsum(count for _, _, count in hist.bins))
        for k, m in ((1030, 500), (1100, 550)):
            with pytest.raises(ValueError, match=rf"^sampled mode scales by C\({k},{m}\), which"):
                achievable_exposure(k, m, "sampled", samples=10)

    def test_invalid_m(self):
        with pytest.raises(ValueError):
            achievable_exposure(3, 4)

    @pytest.mark.parametrize("k", [1, 4, 8])
    def test_exact_matches_subset_brute_force(self, k):
        weights = [position_exposure(p) for p in range(1, k + 1)]
        for m in range(k + 1):
            hist = achievable_exposure(k, m)
            sums = sorted(
                round(sum(weights[i] for i in c), 12)
                for c in combinations(range(k), m)
            )
            assert sum(b[2] for b in hist.bins) == math.comb(k, m)
            assert hist.bins[0][0] == pytest.approx(sums[0], abs=1e-9)
            assert hist.bins[-1][1] == pytest.approx(sums[-1], abs=1e-9)

    @given(
        st.integers(0, 40).flatmap(
            lambda k: st.tuples(
                st.just(k),
                st.sampled_from(sorted({*range(min(k, 4) + 1), *range(max(k - 4, 0), k + 1)})),
            )
        )
    )
    @settings(max_examples=40, deadline=None)
    @example((24, 4))  # the smallest k whose m=4 sums take equal-width bins
    @example((40, 4))
    @example((24, 16))  # the last m that branches on the positions kept ...
    @example((24, 17))  # ... and the first that branches on those left out
    @example((40, 36))
    @example((40, 40))
    def test_exact_equals_the_enumeration_oracle(self, k_m):
        k, m = k_m
        hist = achievable_exposure(k, m)
        bins, subsets = oracle_achievable_exposure(k, m)
        assert hist.bins == bins
        assert hist.subsets == subsets

    @given(
        st.integers(1, 20).flatmap(
            lambda k: st.tuples(
                st.just(k),
                st.sampled_from([m for m in range(1, k + 1) if math.comb(k, m) <= 5_000]),
            )
        )
    )
    @settings(max_examples=40, deadline=None)
    @example((5, 1))
    @example((24, 4))
    @example((16, 10))  # the last m that counts by bisection ...
    @example((16, 11))  # ... and the first that counts each sum
    def test_equal_width_counts_in_any_prefix_block_equal_the_oracle(self, k_m):
        # with no distinct-value bins allowed, every 0 < m < k takes equal-width bins
        k, m = k_m
        bins = oracle_achievable_exposure(k, m, max_distinct=0)[0]
        for block in (1, 7, qexp.exposure.PREFIX_BLOCK):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(qexp.exposure, "MAX_DISTINCT_VALUES", 0)
                patch.setattr(qexp.exposure, "PREFIX_BLOCK", block)
                assert achievable_exposure(k, m).bins == bins

    @given(
        st.lists(st.integers(0, 6), min_size=2, max_size=9).flatmap(
            lambda ints: st.tuples(st.just(ints), st.integers(1, len(ints) - 1))
        ),
        st.lists(st.integers(0, 40), min_size=2, max_size=2, unique=True),
    )
    @settings(max_examples=150, deadline=None)
    def test_exact_bin_counts_equal_per_value_bins_where_sums_tie_with_bounds(self, ints_m, ends):
        # integer weights give exact sums that tie with each other and with
        # bin boundaries; [lo, hi] need not cover them, so both ends clamp,
        # and a weight of 0 puts sums below any lo > 0
        ints, m = ints_m
        weights = [float(v) for v in ints]
        lo, hi = (v / 4 for v in sorted(ends))
        width = (hi - lo) / 200
        expected = [0] * 200
        for subset in combinations(weights, m):
            expected[min(max(int((math.fsum(subset) - lo) / width), 0), 199)] += 1
        thresholds = _bin_thresholds(lo, hi)
        for block in (1, 7, qexp.exposure.PREFIX_BLOCK):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(qexp.exposure, "PREFIX_BLOCK", block)
                assert _exact_bin_counts(weights, m, thresholds) == expected

    @given(
        st.floats(0, 1e3),
        st.floats(0, 1e3).filter(lambda span: span > 0),
    )
    @settings(max_examples=200, deadline=None)
    @example(0.6020599913279624, 2.5642760267770087)  # achievable_exposure's lo, hi at k=100, m=4
    @example(1.0, math.nextafter(1.0, math.inf))  # every bin but the first starts at hi
    def test_each_threshold_is_the_least_float_of_its_bin(self, lo, span):
        hi = lo + span
        width = (hi - lo) / 200
        assume(width > 0)
        thresholds = _bin_thresholds(lo, hi)
        assert len(thresholds) == 199
        for b, t in enumerate(thresholds, start=1):
            assert int((t - lo) / width) >= b
            assert int((math.nextafter(t, -math.inf) - lo) / width) < b

    @pytest.mark.parametrize("k, equal_width", [(23, False), (24, True)])
    def test_more_than_max_distinct_values_take_equal_width_bins(self, k, equal_width):
        # every m=4 sum is distinct here, so C(k, 4) decides the path
        assert (math.comb(k, 4) > MAX_DISTINCT_VALUES) == equal_width
        hist = achievable_exposure(k, 4)
        assert len(hist.bins) == (200 if equal_width else math.comb(k, 4))
        assert all((low < high) == equal_width for low, high, _ in hist.bins)

    @pytest.mark.parametrize("k, m", [(12, 3), (12, 10)])  # prefix and skip branches
    @pytest.mark.parametrize("extra", [-1, 0, None])
    def test_exact_walks_again_only_past_max_distinct(self, monkeypatch, k, m, extra):
        # extra=None: a bound of 40, below C(k, m); otherwise the number of
        # distinct sums plus extra, so extra=0 sits exactly at the bound
        distinct = len(oracle_achievable_exposure(k, m, max_distinct=math.comb(k, m))[0])
        bound = 40 if extra is None else distinct + extra
        walks = []
        prefix_walks = []  # calls from outside _prefix_sums' own recursion
        real_subset_sums = qexp.exposure._subset_sums
        real_prefix_sums = qexp.exposure._prefix_sums

        def counted(weights, m):
            walks.append(m)
            return real_subset_sums(weights, m)

        def counted_prefixes(weights, n, *rest):
            if not rest:
                prefix_walks.append(n)
            return real_prefix_sums(weights, n, *rest)

        monkeypatch.setattr(qexp.exposure, "MAX_DISTINCT_VALUES", bound)
        monkeypatch.setattr(qexp.exposure, "_subset_sums", counted)
        monkeypatch.setattr(qexp.exposure, "_prefix_sums", counted_prefixes)
        hist = achievable_exposure(k, m)
        assert hist.bins == oracle_achievable_exposure(k, m, max_distinct=bound)[0]
        equal_width = distinct > bound
        assert len(hist.bins) == (200 if equal_width else distinct)
        if 2 * (k - m) < m:  # the skip branch counts each sum on a second walk
            assert walks == [m] * (2 if equal_width else 1)
            assert prefix_walks == []
        else:  # the prefix branch walks the prefixes again, not the subsets
            assert walks == [m]
            assert prefix_walks == [m - 1] * (2 if equal_width else 1)

    def test_exact_memory_does_not_grow_with_the_subsets(self):
        achievable_exposure(6, 2)  # imports and caches outside the trace
        for k, subsets in [
            (40, 91_390),  # held as a list of floats these sums take about 2.9 MB
            (60, 487_635),  # its C(59, 3) = 32,509 prefix sums fill more than one PREFIX_BLOCK
        ]:
            tracemalloc.start()
            try:
                hist = achievable_exposure(k, 4)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert hist.subsets == subsets
            assert len(hist.bins) == 200
            assert peak < 1 << 20

    def test_min_max_are_worst_and_best_positions(self):
        hist = achievable_exposure(10, 3)
        worst = sum(position_exposure(p) for p in (8, 9, 10))
        best = sum(position_exposure(p) for p in (1, 2, 3))
        assert hist.bins[0][0] == pytest.approx(worst, abs=1e-9)
        assert hist.bins[-1][1] == pytest.approx(best, abs=1e-9)

    def test_sampled_mean_close_to_linearity(self):
        # E[exposure] = m/k * total exposure, by symmetry of uniform subsets
        hist = achievable_exposure(100, 5, "sampled", samples=20_000, seed=3)
        expected = 5 / 100 * sum(position_exposure(p) for p in range(1, 101))
        # the bins' midpoints, weighted by their estimated counts
        mean = sum((low + high) / 2 * count for low, high, count in hist.bins) / hist.subsets
        assert mean == pytest.approx(expected, rel=0.02)
        assert hist.sample_size == 20_000
        # estimated counts integrate to C(k, m)
        assert sum(b[2] for b in hist.bins) == pytest.approx(math.comb(100, 5), rel=1e-9)

    def test_sampled_deterministic_for_seed(self):
        a = achievable_exposure(50, 4, "sampled", samples=2_000, seed=11)
        b = achievable_exposure(50, 4, "sampled", samples=2_000, seed=11)
        assert a == b


def _bits(values):
    # m=0 sums are the int 0 on both sides, so the type is compared too
    return [(type(v), float(v).hex()) for v in values]


class TestSampledSums:
    @given(
        st.integers(1, 130).flatmap(lambda k: st.tuples(st.just(k), st.integers(0, k))),
        st.integers(1, 40),
        st.integers(),
    )
    @settings(max_examples=150, deadline=None)
    @example((21, 5), 30, 0)  # the largest k that random.sample draws from a pool at m=5 ...
    @example((22, 5), 30, 0)  # ... and the smallest it draws from a set
    @example((85, 6), 30, 1)  # the same edge at m=6, where the set bound starts to grow
    @example((86, 6), 30, 1)
    @example((60, 0), 5, 7)
    @example((1, 1), 5, 7)
    @example((60, 60), 5, 7)
    @example((130, 130), 5, 7)
    @example((255, 22), 30, 2)  # sample draws from a pool up to k=277 at m=22: the last k read by top bytes ...
    @example((256, 22), 30, 2)  # ... and the first read by whole words
    @example((255, 21), 30, 3)  # the same edge where sample draws from a set (its bound is 85 at m=21)
    @example((256, 21), 30, 3)
    def test_equal_to_random_sample_bit_for_bit(self, k_m, samples, seed):
        k, m = k_m
        weights = [position_exposure(p) for p in range(1, k + 1)]
        got = _sampled_sums(weights, m, samples, seed)
        assert _bits(got) == _bits(oracle_sampled_values(k, m, samples, seed))

    @pytest.mark.parametrize(
        "k, m, samples, source",
        [
            (60, 50, 1_000, "_top_byte_block"),  # pool branch, about 65k words
            (100, 10, 2_000, "_top_byte_block"),  # set branch at the default k, about 24k words
            (255, 22, 1_000, "_top_byte_block"),  # pool branch, the last k read by top bytes, about 23k words
            (256, 22, 1_000, "_word_block"),  # pool branch, the first k read by whole words, about 24k words
            (1000, 10, 2_000, "_word_block"),  # set branch, about 21k words
        ],
    )
    @pytest.mark.parametrize("seed", [0, 5])
    def test_histogram_past_one_word_block_equals_the_oracle(
        self, monkeypatch, k, m, samples, source, seed
    ):
        blocks = {"_top_byte_block": 0, "_word_block": 0}

        def counted(name):
            real = getattr(qexp.exposure, name)

            def block(rng):
                blocks[name] += 1
                return real(rng)

            return block

        for name in blocks:
            monkeypatch.setattr(qexp.exposure, name, counted(name))
        hist = achievable_exposure(k, m, "sampled", samples=samples, seed=seed)
        assert blocks[source] >= 2
        assert sum(blocks.values()) == blocks[source]
        assert hist.bins == oracle_sampled_histogram(k, m, samples, seed)

    def test_sampled_memory_does_not_grow_with_the_samples(self):
        achievable_exposure(60, 10, "sampled", samples=10)  # imports and caches outside the trace
        tracemalloc.start()
        try:
            # held as a list of floats these sums take about 3.2 MB
            hist = achievable_exposure(60, 10, "sampled", samples=100_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert hist.sample_size == 100_000
        assert len(hist.bins) == 200
        assert peak < 1 << 20


class TestOrderings:
    def test_small_factorials(self):
        assert orderings(3) == 6
        assert orderings(10) == 3_628_800
        assert log_orderings(3) == pytest.approx(math.log10(6), abs=1e-12)

    def test_k100_against_big_integer_oracle(self):
        exact = math.log10(math.factorial(100))
        assert log_orderings(100) == pytest.approx(exact, abs=1e-9)
        assert log_orderings(100) == pytest.approx(157.97, abs=0.01)

    def test_zero(self):
        assert orderings(0) == 1
        assert log_orderings(0) == pytest.approx(0.0)
