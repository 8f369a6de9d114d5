import json
import math
import random
import sys
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from qexp.corpus import Category, CollectionIndex, Document, build_index
from qexp.evaluation import (
    Failure,
    ModelRanker,
    QueryExpander,
    RunFileRanker,
    bonferroni,
    coefficient_of_variation,
    jsd,
    paired_t_test,
    run_experiment,
)
from qexp.expansion import EXPANDERS
from qexp.exposure import ExposureDistribution, realized_exposure
from qexp.predictors import PREDICTORS, make_predictors
from qexp.retrieval import RANKERS, Query, rank, write_run_file
from qexp.stats import betainc, student_t_two_sided_p

from conftest import random_labeled_corpus, stable_vocab
from oracles import oracle_experiment, oracle_tokenize, t_two_sided_p_by_quadrature


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


def distributions(n):
    """Distributions over n outcomes, some of them zero, so supports may be disjoint."""
    weights = st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 1.0)), min_size=n, max_size=n)
    return weights.filter(lambda w: sum(w) > 0).map(lambda w: [v / sum(w) for v in w])


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

    @pytest.mark.parametrize(
        "p, e",
        [
            ([math.nan, 1.0], [0.5, 0.5]),
            ([0.5, 0.5], [1.0, math.nan]),
            ([math.nan, math.nan], [0.5, 0.5]),
        ],
    )
    def test_nan_rejected(self, p, e):
        with pytest.raises(ValueError):
            jsd(p, e)

    @pytest.mark.parametrize("p, e", [([5e-324, 1.0], [0.0, 1.0]), ([0.0, 1.0], [5e-324, 1.0])])
    def test_subnormal_share(self, p, e):
        # half of 5e-324 + 0.0 underflows to 0: no ratio may divide by it
        d = jsd(p, e)
        assert math.isfinite(d) and 0.0 <= d <= 1.0
        assert jsd(e, p) == d

    def test_accepts_exposure_distributions(self):
        p = ExposureDistribution("c", ("a", "b"), (0.5, 0.5))
        e = ExposureDistribution("c", ("a", "b"), (1.0, 0.0))
        assert jsd(p, e) == jsd((0.5, 0.5), (1.0, 0.0))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 8).flatmap(lambda n: st.tuples(distributions(n), distributions(n))))
    def test_symmetry_and_bounds(self, pair):
        p, e = pair
        d1, d2 = jsd(p, e), jsd(e, p)
        # the sum runs in argument order, so the two may differ in the last bits
        assert d1 == pytest.approx(d2, abs=1e-9)
        # normalized inputs sum to 1 only within rounding, and so may reach 1 + 1 ulp
        assert 0.0 <= d1 <= 1.0 + 1e-12
        assert jsd(p, p) == 0.0 and jsd(e, e) == 0.0

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

    # exact bits as computed by the continued fraction, so a rewrite of it
    # that reorders one operation fails here; the comment names the branch
    @pytest.mark.parametrize("a,b,x,expected", [
        (0.5, 0.5, 0.3, 0.36901011956554497),  # lower
        (0.5, 0.5, 0.7, 0.6309898804344553),  # upper
        (1.0, 1.0, 0.25, 0.25),  # lower
        (2.0, 3.0, 0.1, 0.052300000000000006),  # lower
        (2.0, 3.0, 0.9, 0.9963),  # upper
        (5.0, 0.5, 0.2, 8.630216153154269e-05),  # lower
        (5.0, 0.5, 0.95, 0.48479121309839646),  # upper
        (0.5, 5.0, 0.05, 0.5152087869016032),  # lower
        (0.5, 5.0, 0.6, 0.9969059133137891),  # upper
        (10.0, 10.0, 0.5, 0.4999999999999979),  # upper
        (10.0, 10.0, 0.51, 0.5351971636766578),  # upper
        (30.0, 2.0, 0.8, 0.008665580274997716),  # lower
        (2.0, 30.0, 0.2, 0.9913344197250022),  # upper
        (250.0, 0.5, 0.999, 0.47960989887181193),  # upper
        (0.25, 0.5, 1e-06, 0.024120584014030166),  # lower
        (100.0, 100.0, 0.45, 0.0783879327122233),  # lower
    ])
    def test_betainc_bits(self, a, b, x, expected):
        assert betainc(a, b, x) == expected

    @pytest.mark.parametrize("t,df,expected", [
        (0.0, 5.0, 1.0),
        (1.0, 0.5, 0.6022432216826438),
        (0.5, 0.5, 0.7573180729294369),
        (2.0, 1.0, 0.29516723530086636),
        (-2.0, 1.0, 0.29516723530086636),
        (2.262, 9.0, 0.05001284550245452),
        (0.1, 29.0, 0.9210324444873697),
        (0.0001, 3.0, 0.9999264894812827),
        (0.01, 499.0, 0.9920252839845064),
        (3.5, 14.0, 0.003535208105858952),
        (1.96, 1e6, 0.04999606754949321),
        (7.0, 1e6, 2.561224109463659e-12),
        (50.0, 10.0, 2.4743103293026855e-13),
        (-50.0, 2.0, 0.0003997601598880801),
        (50.0, 500.0, 1.131991288954176e-196),
    ])
    def test_p_bits(self, t, df, expected):
        assert student_t_two_sided_p(t, df) == expected

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
            return PredictorOutput("identity", dist.values, dist)

        report = run_experiment(
            idx, _queries(), None, [ranker], [None], {"identity": identity}, k=10
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

    @pytest.mark.parametrize(
        "rankers, expanders, categories, predictors, message",
        [
            (("bm25", "tfidf", "bm25"), ("none",), None, ("gep",), "the ranker list repeats bm25"),
            (("bm25",), ("rm3", "none", "rm3"), None, ("gep",), "the expander list repeats rm3"),
            (("bm25",), ("none", "none"), None, ("gep",), "the expander list repeats none"),
            (("bm25",), ("none",), ("c", "c"), ("gep",), "the category list repeats c"),
            (("bm26",), ("none",), None, ("gep",), "unknown ranker 'bm26'"),
            ((), ("none",), None, ("gep",), "at least one ranker"),
            (("bm25",), (), None, ("gep",), "at least one expander"),
            (("bm25",), ("none",), None, (), "at least one predictor"),
        ],
    )
    def test_repeated_ranker_or_expander_name_rejected_before_ranking(
        self, rankers, expanders, categories, predictors, message
    ):
        ranked = []

        class SpyRanker(ModelRanker):
            def rank(self, index, query, k):
                ranked.append(query.query_id)
                return super().rank(index, query, k)

        with pytest.raises(ValueError, match=message):
            run_experiment(
                _experiment_index(), _queries(), categories, [SpyRanker(m) for m in rankers],
                [None if e == "none" else QueryExpander(e) for e in expanders],
                make_predictors(predictors, k=10) if predictors else {}, k=10,
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

    def test_score_overflow_recorded_as_a_ranking_failure(self):
        queries = _queries() + [Query(("t000",), (sys.float_info.max,), query_id="qbig")]
        report = run_experiment(
            _experiment_index(), queries, None, [ModelRanker(m) for m in RANKERS], [None],
            make_predictors(["gep"], k=10), k=10,
        )
        assert [(f.ranker, f.query_id, f.stage) for f in report.failures] == [
            (model, "qbig", "ranking") for model in RANKERS
        ]
        assert all(f.error.endswith("overflows the float range") for f in report.failures)
        assert len(report.rows) == len(RANKERS) * 3

    def test_weight_overflow_recorded_as_a_prediction_failure(self):
        class UnweightedRanker(ModelRanker):
            def rank(self, index, query, k):
                return super().rank(index, Query.from_terms(query.terms, query.query_id), k)

        big = Query(("t000", "t004"), (sys.float_info.max,) * 2, query_id="qbig")
        report = run_experiment(
            _experiment_index(), _queries() + [big], None, [UnweightedRanker("bm25")], [None],
            make_predictors(PREDICTORS, k=10), k=10,
        )
        assert [(f.query_id, f.stage, f.error) for f in report.failures] == [
            ("qbig", f"predict:{name}", "the total query weight overflows the float range")
            for name in PREDICTORS
        ]
        assert len(report.rows) == 3 * len(PREDICTORS)

    @pytest.mark.parametrize("models", [("bm25", "tfidf"), ("bm25", "bm25")])
    def test_first_pass_ranked_once_per_ranker_and_query(self, models):
        idx = _experiment_index()
        calls = []

        class SpyRanker(ModelRanker):
            def __init__(self, model, name):
                super().__init__(model)
                self.model, self.name = model, name

            def rank(self, index, query, k):
                calls.append((self, query.query_id))
                return rank(index, query, self.model, k)

        # two rankers may use one model; each still ranks its own first pass
        rankers = [SpyRanker(model, f"{model}-{i}") for i, model in enumerate(models)]
        queries = _queries()
        report = run_experiment(
            idx, queries, None, rankers, [None, QueryExpander("rm3"), QueryExpander("klq")],
            make_predictors(["gep"], k=10), k=10,
        )
        assert report.failures == []
        n = len(queries)
        # one first pass per (ranker, query), plus one re-rank per expander
        assert len(calls) == 2 * n + 4 * n
        assert Counter(calls) == {(r, q.query_id): 3 for r in rankers for q in queries}

    def test_failed_first_pass_fails_every_pipeline_in_order(self, tmp_path):
        idx = _experiment_index()
        queries = _queries() + [Query.from_terms([], query_id="qbad")]
        report = run_experiment(
            idx, queries, None, [ModelRanker("bm25"), ModelRanker("tfidf")],
            [None, QueryExpander("rm3"), QueryExpander("klq")],
            make_predictors(["gep"], k=10), k=10,
        )
        assert report.failures == [
            Failure(ranker, expander, "qbad", "ranking", "cannot rank an empty query")
            for ranker in ("bm25", "tfidf")
            for expander in ("none", "rm3", "klq")
        ]
        assert len(report.rows) == 2 * 3 * len(_queries())

        # a run file without the query fails it in each of its pipelines too
        paths = [tmp_path / "a.trec", tmp_path / "b.trec"]
        for path in paths:
            write_run_file(path, [ModelRanker("bm25").rank(idx, q, 10) for q in _queries()[:2]])
        report = run_experiment(
            idx, _queries(), None, [RunFileRanker(path) for path in paths],
            [None], make_predictors(["gep"], k=10), k=10,
        )
        message = "run file has no ranking for query 'q3'"
        assert report.failures == [
            Failure(f"runfile:{path}", "none", "q3", "ranking", message) for path in paths
        ]

    def test_predictors_see_original_query(self):
        idx = _experiment_index()
        seen = []

        def spy(index, query, category):
            seen.append(tuple(query.terms))
            return make_predictors(["uniform"])["uniform"](index, query, category)

        expander = QueryExpander("rm3")
        run_experiment(
            idx, _queries(), None, [ModelRanker("bm25")], [expander], {"spy": spy}, k=10
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
        pipelines = report.summary["pipelines"]
        assert {p["expander"] for p in pipelines} == {"none", "rm3", "klq"}
        for p in pipelines:
            assert "gep" in p["categories"]["c"]["mean_jsd"]
            assert p["categories"]["c"]["significance"].keys() == {"avidf", "scs"}

    def test_run_file_ranker(self, tmp_path):
        idx = _experiment_index()
        ranker = ModelRanker("bm25")
        rankings = [ranker.rank(idx, q, 10) for q in _queries()]
        path = tmp_path / "ext.trec"
        write_run_file(path, rankings, tag="ext")
        external = RunFileRanker(path)
        assert external.name == f"runfile:{path}"
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


class TestRunExperimentProperties:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    @example(13)  # an RM3 rounding difference once flipped a tie in the final ranking
    def test_shuffled_documents_and_queries_give_the_same_results(self, seed):
        rng = random.Random(seed)
        docs, cats = random_labeled_corpus(rng, num_docs=16, num_categories=2)
        vocab = stable_vocab(10)  # two terms the corpus never uses
        queries = [
            Query.from_text(" ".join(rng.choices(vocab, k=rng.randint(1, 4))), query_id=f"q{i}")
            for i in range(5)
        ]

        def results(docs, queries):
            report = run_experiment(
                build_index(docs, cats),
                queries,
                None,
                [ModelRanker("bm25"), ModelRanker("tfidf")],
                [None, QueryExpander("rm3"), QueryExpander("klq")],
                make_predictors(PREDICTORS, 3),
                3,
            )
            jsds = {(r.ranker, r.expander, r.query_id, r.category, r.predictor): r.jsd
                    for r in report.rows}
            cvs = {(r.ranker, r.expander, r.query_id, r.category): r.cv_percent
                   for r in report.cv_rows}
            return jsds, cvs

        shuffled_docs, shuffled_queries = docs[:], queries[:]
        rng.shuffle(shuffled_docs)
        rng.shuffle(shuffled_queries)
        # compared to rounding: the build order sets the order of float sums
        for before, after in zip(results(docs, queries),
                                 results(shuffled_docs, shuffled_queries)):
            assert after.keys() == before.keys()
            for key, value in before.items():
                assert after[key] == pytest.approx(value, abs=1e-9), key

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_a_loaded_index_gives_the_results_of_the_built_one(self, tmp_path_factory, seed):
        # qexp index builds and saves; every other command loads what it saved
        rng = random.Random(seed)
        docs, cats = random_labeled_corpus(
            rng, num_docs=20, num_groups=rng.randint(2, 4), num_categories=2
        )
        # the shuffled corpus order is the build order, which save and load keep
        rng.shuffle(docs)
        built = build_index(docs, cats)
        path = tmp_path_factory.mktemp("equiv") / "index.qx"
        built.save(path)
        vocab = stable_vocab(10)  # two terms the corpus never uses
        queries = [
            Query.from_text(" ".join(rng.choices(vocab, k=rng.randint(1, 4))), query_id=f"q{i}")
            for i in range(6)
        ] + [Query.from_terms([], query_id="qempty")]

        def run(index):
            return run_experiment(
                index, queries, None, [ModelRanker(name) for name in RANKERS],
                [None, *(QueryExpander(name) for name in EXPANDERS)],
                make_predictors(PREDICTORS, 3), 3,
            )

        built_report, loaded_report = run(built), run(CollectionIndex.load(path))
        assert built_report.failures  # the empty query fails every pipeline
        assert loaded_report.rows == built_report.rows
        assert loaded_report.cv_rows == built_report.cv_rows
        assert loaded_report.summary == built_report.summary
        assert loaded_report.failures == built_report.failures

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_one_grid_run_equals_one_run_per_expander(self, seed):
        rng = random.Random(seed)
        docs, cats = random_labeled_corpus(rng, num_docs=16, num_categories=2)
        index = build_index(docs, cats)
        vocab = stable_vocab(10)  # two terms the corpus never uses
        queries = [
            Query.from_text(" ".join(rng.choices(vocab, k=rng.randint(1, 4))), query_id=f"q{i}")
            for i in range(5)
        ] + [Query.from_terms([], query_id="qempty")]
        expanders = {"none": None, "rm3": QueryExpander("rm3"), "klq": QueryExpander("klq")}

        def run(expanders):
            return run_experiment(
                index, queries, None, [ModelRanker("bm25"), ModelRanker("tfidf")],
                expanders, make_predictors(PREDICTORS, 3), 3,
            )

        grid = run(list(expanders.values()))
        for name, expander in expanders.items():
            alone = run([expander])
            assert [r for r in grid.rows if r.expander == name] == alone.rows
            assert [r for r in grid.cv_rows if r.expander == name] == alone.cv_rows
            assert [f for f in grid.failures if f.expander == name] == alone.failures
            pipelines = [p for p in grid.summary["pipelines"] if p["expander"] == name]
            assert json.dumps(pipelines) == json.dumps(alone.summary["pipelines"])


class TestExperimentOracle:
    """run_experiment against oracle_experiment, which ranks, expands, measures
    and predicts every pipeline, query and category from raw tokens, with no
    memo. The oracle adds every float in the implementation's order, so
    every jsd.csv and cv.csv value, mean JSD and t statistic compares with
    ==: no tolerance is needed. The p-values are left to TestPairedT, whose
    quadrature oracle is itself approximate."""

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 2), st.sampled_from([2, 3, 5]))
    def test_reports_equal_the_oracle(self, seed, num_categories, k):
        rng = random.Random(seed)
        docs, cats = random_labeled_corpus(rng, num_docs=16, num_categories=num_categories)
        vocab = stable_vocab(9)  # the last word is in no document
        texts = [" ".join(rng.choices(vocab[:8], k=rng.randint(1, 4))) for _ in range(5)]
        texts += [vocab[8], "the of and"]  # an unseen word, then only stopwords
        queries = [Query.from_text(text, query_id=f"q{i}") for i, text in enumerate(texts)]
        report = run_experiment(
            build_index(docs, cats), queries, None, [ModelRanker(m) for m in RANKERS],
            [None, *(QueryExpander(e) for e in EXPANDERS)], make_predictors(PREDICTORS, k), k,
        )
        jsd_rows, cv_rows, failures, scores = oracle_experiment(
            {d.doc_id: oracle_tokenize(d.text) for d in docs},
            {d.doc_id: d.labels for d in docs},
            [(c.name, c.groups) for c in cats],
            [(f"q{i}", oracle_tokenize(text)) for i, text in enumerate(texts)],
            RANKERS, ("none", *EXPANDERS), PREDICTORS, k,
        )
        assert [(f.ranker, f.expander, f.query_id, f.stage) for f in report.failures] == failures
        assert len(report.rows) == len(jsd_rows) and len(report.cv_rows) == len(cv_rows)
        assert {row[:5]: row.jsd for row in report.rows} == jsd_rows
        assert {row[:4]: (row.cv_percent, row.degenerate) for row in report.cv_rows} == cv_rows
        assert len(report.summary["pipelines"]) == len(RANKERS) * (1 + len(EXPANDERS))
        assert {
            (pipeline["ranker"], pipeline["expander"], category): (
                score["mean_jsd"], {name: test["t"] for name, test in score["significance"].items()}
            )
            for pipeline in report.summary["pipelines"]
            for category, score in pipeline["categories"].items()
        } == scores
