import math
import random
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

from qexp.corpus import Category, Document, build_index
from qexp.exposure import (
    MAX_DISTINCT_VALUES,
    ExposureDistribution,
    achievable_exposure,
    group_exposure,
    log_orderings,
    normalize_exposure,
    orderings,
    position_exposure,
    realized_exposure,
)
from qexp.retrieval import Ranking

from oracles import oracle_achievable_exposure


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


def _ranking(doc_ids, k=None):
    n = len(doc_ids)
    entries = tuple((d, float(n - i)) for i, d in enumerate(doc_ids))
    return Ranking("q", entries, k or n)


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

    def test_budget_exceeded(self):
        with pytest.raises(ValueError, match="sampled"):
            achievable_exposure(100, 50, "exact")

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

    @pytest.mark.parametrize("k, equal_width", [(23, False), (24, True)])
    def test_more_than_max_distinct_values_take_equal_width_bins(self, k, equal_width):
        # every m=4 sum is distinct here, so C(k, 4) decides the path
        assert (math.comb(k, 4) > MAX_DISTINCT_VALUES) == equal_width
        hist = achievable_exposure(k, 4)
        assert len(hist.bins) == (200 if equal_width else math.comb(k, 4))
        assert all((low < high) == equal_width for low, high, _ in hist.bins)

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
