import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from qexp.corpus import Category, Document, build_index
from qexp.evaluation import (
    ModelRanker,
    QueryExpander,
    RunFileRanker,
    bonferroni,
    coefficient_of_variation,
    jsd,
    paired_t_test,
    run_experiment,
)
from qexp.exposure import ExposureDistribution, realized_exposure
from qexp.predictors import make_predictors
from qexp.retrieval import Query, write_run_file
from qexp.stats import betainc, student_t_two_sided_p

from oracles import t_two_sided_p_by_quadrature


def random_distribution(rng, n):
    cuts = sorted(rng.random() for _ in range(n - 1))
    values = []
    last = 0.0
    for c in cuts:
        values.append(c - last)
        last = c
    values.append(1.0 - last)
    total = sum(values)
    return [v / total for v in values]


class TestJSD:
    def test_identity_is_zero(self):
        assert jsd([0.3, 0.7], [0.3, 0.7]) == pytest.approx(0.0, abs=1e-12)

    def test_disjoint_support_is_one(self):
        assert jsd([1.0, 0.0], [0.0, 1.0]) == pytest.approx(1.0, abs=1e-9)

    def test_hand_evaluated_value(self):
        assert jsd([0.75, 0.25], [0.25, 0.75]) == pytest.approx(0.43443, abs=1e-4)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            jsd([1.0], [0.5, 0.5])

    def test_invalid_distribution(self):
        with pytest.raises(ValueError):
            jsd([0.6, 0.6], [0.5, 0.5])

    def test_accepts_exposure_distributions(self):
        p = ExposureDistribution("c", ("a", "b"), (0.5, 0.5))
        e = ExposureDistribution("c", ("a", "b"), (1.0, 0.0))
        assert jsd(p, e) == jsd((0.5, 0.5), (1.0, 0.0))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 100_000), st.integers(2, 8))
    def test_symmetry_and_bounds(self, seed, n):
        rng = random.Random(seed)
        p = random_distribution(rng, n)
        e = random_distribution(rng, n)
        d1, d2 = jsd(p, e), jsd(e, p)
        assert d1 == pytest.approx(d2, abs=1e-9)
        assert -1e-12 <= d1 <= 1.0 + 1e-9

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 100_000), st.integers(2, 6))
    def test_triangle_inequality(self, seed, n):
        rng = random.Random(seed)
        a = random_distribution(rng, n)
        b = random_distribution(rng, n)
        c = random_distribution(rng, n)
        assert jsd(a, c) <= jsd(a, b) + jsd(b, c) + 1e-9


class TestCoefficientOfVariation:
    def test_uniform_is_zero(self):
        assert coefficient_of_variation([0.25, 0.25, 0.25, 0.25]) == 0.0

    def test_fully_skewed(self):
        assert coefficient_of_variation([1, 0, 0, 0]) == pytest.approx(173.2, abs=0.1)

    def test_constant_vector(self):
        assert coefficient_of_variation([0.7, 0.7, 0.7]) == pytest.approx(0.0)

    def test_zero_mean_rejected(self):
        with pytest.raises(ValueError):
            coefficient_of_variation([0.0, 0.0])

    def test_sample_mode(self):
        pop = coefficient_of_variation([1, 0, 0, 0])
        samp = coefficient_of_variation([1, 0, 0, 0], sample=True)
        assert samp == pytest.approx(pop * math.sqrt(4 / 3), rel=1e-12)


class TestPairedT:
    def test_identical_samples_rejected(self):
        with pytest.raises(ValueError, match="zero-variance"):
            paired_t_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])

    def test_zero_mean_differences(self):
        t, p = paired_t_test([1.0, 2.0], [2.0, 1.0])
        assert t == pytest.approx(0.0)
        assert p == pytest.approx(1.0)

    def test_reference_critical_value(self):
        # t=2.262 with df=9 sits at the two-sided 5% point
        assert student_t_two_sided_p(2.262, 9) == pytest.approx(0.05, abs=0.002)

    @pytest.mark.parametrize("t,df", [(0.5, 3), (1.0, 9), (2.262, 9), (3.5, 14), (0.1, 29)])
    def test_p_matches_quadrature_oracle(self, t, df):
        oracle = t_two_sided_p_by_quadrature(t, df)
        assert student_t_two_sided_p(t, df) == pytest.approx(oracle, abs=1e-8)

    def test_sign_symmetry(self):
        a = [0.1, 0.4, 0.3, 0.9, 0.2]
        b = [0.2, 0.1, 0.5, 0.4, 0.3]
        t1, p1 = paired_t_test(a, b)
        t2, p2 = paired_t_test(b, a)
        assert t1 == pytest.approx(-t2)
        assert p1 == pytest.approx(p2)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            paired_t_test([1.0], [1.0, 2.0])

    def test_betainc_bounds(self):
        assert betainc(2.0, 3.0, 0.0) == 0.0
        assert betainc(2.0, 3.0, 1.0) == 1.0
        with pytest.raises(ValueError):
            betainc(2.0, 3.0, 1.5)


class TestBonferroni:
    def test_multiplies(self):
        assert bonferroni([0.004], 5) == [pytest.approx(0.02)]

    def test_clamps_at_one(self):
        assert bonferroni([0.5], 5) == [1.0]

    def test_identity_for_single_comparison(self):
        assert bonferroni([0.3], 1) == [pytest.approx(0.3)]

    def test_invalid_m(self):
        with pytest.raises(ValueError):
            bonferroni([0.5], 0)


# ------------------------------- experiments --------------------------------

def _experiment_index():
    rng = random.Random(42)
    docs = []
    for i in range(30):
        group = "A" if i < 15 else "B"
        tokens = []
        for _ in range(8):
            if group == "A":
                tokens.append(rng.choice(["t000", "t001", "t002", "t003"]))
            else:
                tokens.append(rng.choice(["t004", "t005", "t006", "t003"]))
        docs.append(Document(f"d{i:02d}", " ".join(tokens), {"c": group}))
    return build_index(docs, [Category("c", ("A", "B"))])


def _queries():
    return [
        Query.from_terms(["t000", "t001"], query_id="q1"),
        Query.from_terms(["t004", "t005"], query_id="q2"),
        Query.from_terms(["t000", "t004"], query_id="q3"),
    ]


class TestRunExperiment:
    def test_empty_queries_empty_report(self):
        idx = _experiment_index()
        report = run_experiment(
            idx, [], None, [ModelRanker("bm25")], [None],
            make_predictors(["gep"], k=10), k=10,
        )
        assert report.rows == [] and report.failures == []

    def test_row_counting_contract(self):
        idx = _experiment_index()
        predictors = make_predictors(["gep", "avidf", "uniform"], k=10)
        report = run_experiment(
            idx, _queries(), None, [ModelRanker("bm25"), ModelRanker("tfidf")],
            [None], predictors, k=10,
        )
        assert len(report.rows) == 2 * 3 * 1 * 3  # rankers x queries x cats x predictors
        assert len(report.cv_rows) == 2 * 3
        assert report.failures == []

    def test_identity_predictor_scores_zero(self):
        idx = _experiment_index()
        ranker = ModelRanker("bm25")
        realized = {}
        for q in _queries():
            r = ranker.rank(idx, q, 10)
            realized[q.query_id] = realized_exposure(r, idx, "c")

        def identity(index, query, category):
            from qexp.predictors import PredictorOutput

            dist = realized[query.query_id]
            return PredictorOutput("identity", category, dist.groups, dist.values, dist)

        report = run_experiment(
            idx, _queries(), None, [ranker], [None],
            {"identity": identity}, k=10, reference="identity",
        )
        assert all(row.jsd == pytest.approx(0.0, abs=1e-12) for row in report.rows)

    def test_duplicate_query_id_rejected_before_ranking(self):
        idx = _experiment_index()
        ranked = []

        class SpyRanker(ModelRanker):
            def rank(self, index, query, k):
                ranked.append(query.query_id)
                return super().rank(index, query, k)

        queries = [
            Query.from_terms(["t000"], query_id="q1"),
            Query.from_terms(["t002"], query_id="q1"),
        ]
        with pytest.raises(ValueError, match="duplicate query id 'q1'"):
            run_experiment(
                idx, queries, None, [SpyRanker("bm25")], [None],
                make_predictors(["gep"], k=10), k=10,
            )
        assert ranked == []

    def test_failed_query_recorded_and_skipped(self):
        idx = _experiment_index()
        queries = _queries() + [Query.from_terms([], query_id="qbad")]
        report = run_experiment(
            idx, queries, None, [ModelRanker("bm25")], [None],
            make_predictors(["gep"], k=10), k=10,
        )
        assert len(report.failures) == 1
        assert report.failures[0].query_id == "qbad"
        assert len(report.rows) == 3  # the good queries still produced rows

    def test_predictors_see_original_query(self):
        idx = _experiment_index()
        seen = []

        def spy(index, query, category):
            seen.append(tuple(query.terms))
            from qexp.predictors import predict_uniform

            return predict_uniform(index, query, category)

        expander = QueryExpander("rm3")
        run_experiment(
            idx, _queries(), None, [ModelRanker("bm25")], [expander],
            {"spy": spy}, k=10, reference="spy",
        )
        assert set(seen) <= {tuple(q.terms) for q in _queries()}

    def test_prf_pipeline_runs_and_summarizes(self):
        idx = _experiment_index()
        predictors = make_predictors(["gep", "avidf", "scs"], k=10)
        report = run_experiment(
            idx, _queries(), None, [ModelRanker("bm25")],
            [None, QueryExpander("rm3"), QueryExpander("klq")],
            predictors, k=10,
        )
        assert {s.expander for s in report.summaries} == {"none", "rm3", "klq"}
        for s in report.summaries:
            assert "gep" in s.mean_jsd["c"]
            comparisons = {c.baseline for c in s.significance["c"]}
            assert comparisons == {"avidf", "scs"}

    def test_run_file_ranker(self, tmp_path):
        idx = _experiment_index()
        ranker = ModelRanker("bm25")
        rankings = [ranker.rank(idx, q, 10) for q in _queries()]
        path = tmp_path / "ext.trec"
        write_run_file(path, rankings, tag="ext")
        external = RunFileRanker(path, name="ext")
        report = run_experiment(
            idx, _queries(), None, [external], [None],
            make_predictors(["gep"], k=10), k=10,
        )
        baseline = run_experiment(
            idx, _queries(), None, [ranker], [None],
            make_predictors(["gep"], k=10), k=10,
        )
        assert [r.jsd for r in report.rows] == pytest.approx(
            [r.jsd for r in baseline.rows]
        )

    def test_run_file_with_expander_rejected(self, tmp_path):
        idx = _experiment_index()
        path = tmp_path / "ext.trec"
        write_run_file(path, [ModelRanker("bm25").rank(idx, _queries()[0], 10)])
        with pytest.raises(ValueError, match="run-file"):
            run_experiment(
                idx, _queries(), None, [RunFileRanker(path)],
                [QueryExpander("rm3")], make_predictors(["gep"], k=10), k=10,
            )

    def test_report_rows_sorted(self):
        idx = _experiment_index()
        report = run_experiment(
            idx, list(reversed(_queries())), None,
            [ModelRanker("tfidf"), ModelRanker("bm25")], [None],
            make_predictors(["gep", "avidf"], k=10), k=10,
        )
        keys = [(r.ranker, r.expander, r.query_id, r.category, r.predictor) for r in report.rows]
        assert keys == sorted(keys)
