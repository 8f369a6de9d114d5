import math
import random
import sys
import threading

import pytest
from hypothesis import example, given, settings, strategies as st

import qexp.predictors
from qexp.cli import load_queries_tsv, main
from qexp.corpus import Category, Document, build_index
from qexp.evaluation import ModelRanker, QueryExpander, run_experiment
from qexp.exposure import normalize_exposure
from qexp.predictors import (
    BASELINES,
    PREDICTORS,
    gep_group_term_score,
    gep_query_vector,
    make_predictors,
    query_group_stats,
)
from qexp.retrieval import Query
from qexp.text import tokenize

from conftest import random_labeled_corpus, stable_vocab
from oracles import oracle_distribution, oracle_raw_scores


def _index_from_tokens(doc_tokens, labels, groups, category="c"):
    docs = [
        Document(d, " ".join(toks), {category: labels[d]})
        for d, toks in doc_tokens.items()
    ]
    return build_index(docs, [Category(category, tuple(groups))])


def _term_score(index, term, category, group, k):
    stats = query_group_stats(index, Query.from_terms([term]), category)
    return gep_group_term_score(stats, term, group, k)


def _query_vector(index, query, category):
    return gep_query_vector(query_group_stats(index, query, category))


class TestGepTermScore:
    def test_hand_computed_top_k_average(self):
        # group of 10 docs, term in 1 doc with tf=4, k=5
        doc_tokens = {f"d{i}": ["t001"] for i in range(10)}
        doc_tokens["d0"] = ["t000"] * 4 + ["t001"]
        labels = {d: "g" for d in doc_tokens}
        idx = _index_from_tokens(doc_tokens, labels, ["g"])
        s = _term_score(idx, "t000", "c", "g", k=5)
        assert s == pytest.approx(4 * math.log2(9.5 / 1.5) / 5, abs=1e-9)
        assert s == pytest.approx(2.1304, abs=1e-4)

    def test_absent_term_is_zero(self, tiny_index):
        assert _term_score(tiny_index, "t004", "geo", "east", 5) == 0.0

    def test_k1_is_max(self):
        doc_tokens = {
            "d0": ["t000"] * 3,
            "d1": ["t000"],
            "d2": ["t000", "t000"],
            "d3": ["t001"],
            "d4": ["t001"],
            "d5": ["t001"],
            "d6": ["t001"],
        }
        labels = {d: "g" for d in doc_tokens}
        idx = _index_from_tokens(doc_tokens, labels, ["g"])
        idf = math.log2((7 - 3 + 0.5) / 3.5)
        assert _term_score(idx, "t000", "c", "g", k=1) == pytest.approx(3 * idf)

    def test_non_increasing_in_k(self):
        doc_tokens = {
            "d0": ["t000"] * 3,
            "d1": ["t000"],
            "d2": ["t001"] * 2,
            "d3": ["t001"],
            "d4": ["t001"],
            "d5": ["t001"],
            "d6": ["t001"],
            "d7": ["t001"],
        }
        labels = {d: "g" for d in doc_tokens}
        idx = _index_from_tokens(doc_tokens, labels, ["g"])
        scores = [_term_score(idx, "t000", "c", "g", k=k) for k in range(1, 8)]
        assert all(a >= b - 1e-12 for a, b in zip(scores, scores[1:]))


class TestGepQueryVector:
    def test_unseen_term_zero(self, tiny_index):
        assert _query_vector(tiny_index, Query.from_terms(["zz9"]), "geo")["zz9"] == 0.0

    def test_hand_computation_n100_df1(self):
        doc_tokens = {f"d{i:03d}": ["t001"] for i in range(100)}
        doc_tokens["d000"] = ["t000", "t001"]
        labels = {d: "g" for d in doc_tokens}
        idx = _index_from_tokens(doc_tokens, labels, ["g"])
        vec = _query_vector(idx, Query.from_terms(["t000"]), "c")
        assert vec["t000"] == pytest.approx(math.log2(99.5 / 1.5), abs=1e-9)
        assert vec["t000"] == pytest.approx(6.0516, abs=1e-4)

    def test_duplicate_term_doubles_weight(self, tiny_index):
        one = _query_vector(tiny_index, Query.from_terms(["t003"]), "geo")["t003"]
        two = _query_vector(tiny_index, Query.from_terms(["t003", "t003"]), "geo")["t003"]
        assert two == pytest.approx(2 * one)


class TestPredictGep:
    def test_exclusive_terms_give_full_mass(self):
        doc_tokens = {
            "a0": ["t000", "t001"],
            "a1": ["t000"],
            "a2": ["t001"],
            "a3": ["t001"],
            "a4": ["t001", "t001"],
            "a5": ["t001"],
            "b0": ["t002", "t003"],
            "b1": ["t003"],
            "b2": ["t002"],
            "b3": ["t003", "t002"],
            "b4": ["t002"],
            "b5": ["t003"],
        }
        labels = {d: ("A" if d.startswith("a") else "B") for d in doc_tokens}
        idx = _index_from_tokens(doc_tokens, labels, ["A", "B"])
        out = make_predictors(["gep"], 10)["gep"](idx, Query.from_terms(["t000"]), "c")
        assert out.distribution.values == pytest.approx((1.0, 0.0))
        assert not out.distribution.degenerate

    def test_unseen_terms_degenerate_uniform(self, tiny_index):
        out = make_predictors(["gep"], 10)["gep"](tiny_index, Query.from_terms(["zz9"]), "geo")
        assert out.distribution.values == (0.5, 0.5)
        assert out.distribution.degenerate

    def test_empty_query_rejected(self, tiny_index):
        with pytest.raises(ValueError):
            make_predictors(["gep"])["gep"](tiny_index, Query.from_terms([]), "geo")


class TestBaselineValues:
    def test_avidf_hand_value(self):
        # N_g = 8, df_g = 2 -> log2(4) = 2
        doc_tokens = {f"d{i}": ["t001"] for i in range(8)}
        doc_tokens["d0"] = ["t000", "t001"]
        doc_tokens["d1"] = ["t000"]
        labels = {d: "g" for d in doc_tokens}
        idx = _index_from_tokens(doc_tokens, labels, ["g"])
        out = make_predictors(["avidf"])["avidf"](idx, Query.from_terms(["t000"]), "c")
        assert out.raw_scores[0] == pytest.approx(2.0)

    def test_avidf_term_everywhere_floors_to_zero(self):
        doc_tokens = {f"d{i}": ["t000"] for i in range(4)}
        labels = {d: "g" for d in doc_tokens}
        idx = _index_from_tokens(doc_tokens, labels, ["g"])
        out = make_predictors(["avidf"])["avidf"](idx, Query.from_terms(["t000"]), "c")
        assert out.raw_scores[0] == pytest.approx(0.0)  # log2(1) pre-floor

    def test_cori_hand_value(self):
        # |G|=2, term only in group A with df_A=5, cw_A == avg_cw
        a_tokens = {f"a{i}": ["t000", "t001"] for i in range(5)}
        a_tokens["a5"] = ["t001", "t001"]
        b_tokens = {f"b{i}": ["t002", "t002"] for i in range(6)}
        doc_tokens = {**a_tokens, **b_tokens}
        labels = {d: ("A" if d.startswith("a") else "B") for d in doc_tokens}
        idx = _index_from_tokens(doc_tokens, labels, ["A", "B"])
        out = make_predictors(["cori"])["cori"](idx, Query.from_terms(["t000"]), "c")
        t_part = 5 / (5 + 50 + 150)
        i_part = math.log(2.5) / math.log(3.0)
        assert out.raw_scores[0] == pytest.approx(0.4 + 0.6 * t_part * i_part, abs=1e-9)
        assert out.raw_scores[0] == pytest.approx(0.41221, abs=1e-4)

    def test_cori_all_terms_unseen_degenerate(self, tiny_index):
        out = make_predictors(["cori"])["cori"](tiny_index, Query.from_terms(["zz9"]), "geo")
        assert out.distribution.degenerate
        assert out.distribution.values == (0.5, 0.5)

    def test_avpmi_cooccurrence_direction(self):
        # t000 and t001 always co-occur in A, never in B
        doc_tokens = {
            "a0": ["t000", "t001"],
            "a1": ["t000", "t001"],
            "a2": ["t002"],
            "a3": ["t002"],
            "b0": ["t000", "t002"],
            "b1": ["t001", "t002"],
            "b2": ["t002"],
            "b3": ["t002"],
        }
        labels = {d: ("A" if d.startswith("a") else "B") for d in doc_tokens}
        idx = _index_from_tokens(doc_tokens, labels, ["A", "B"])
        out = make_predictors(["avpmi"])["avpmi"](idx, Query.from_terms(["t000", "t001"]), "c")
        scores = dict(zip(out.distribution.groups, out.raw_scores))
        assert scores["A"] > scores["B"]

    def test_avpmi_single_term_falls_back_to_avidf(self, tiny_index):
        q = Query.from_terms(["t000"])
        pmi = make_predictors(["avpmi"])["avpmi"](tiny_index, q, "geo")
        idf = make_predictors(["avidf"])["avidf"](tiny_index, q, "geo")
        assert pmi.predictor == "avpmi"
        assert pmi.raw_scores == idf.raw_scores

    @pytest.mark.parametrize("name", PREDICTORS)
    def test_zero_weight_term_changes_no_raw_score(self, tiny_index, name):
        # AvPMI must not pair t000 with the zero-weight t004
        fn = make_predictors([name])[name]
        weighted = fn(tiny_index, Query(("t000", "t004"), (1.0, 0.0)), "geo")
        alone = fn(tiny_index, Query.from_terms(["t000"]), "geo")
        assert weighted.raw_scores == alone.raw_scores

    def test_identical_groups_uniform(self):
        # two groups with identical document multisets
        doc_tokens = {}
        labels = {}
        for g in ("A", "B"):
            for i, toks in enumerate((["t000", "t001"], ["t000"], ["t002", "t002"])):
                d = f"{g.lower()}{i}"
                doc_tokens[d] = list(toks)
                labels[d] = g
        idx = _index_from_tokens(doc_tokens, labels, ["A", "B"])
        q = Query.from_terms(["t000", "t002"])
        for name, fn in make_predictors(("gep",) + BASELINES, k=10).items():
            out = fn(idx, q, "c")
            assert out.distribution.values == pytest.approx((0.5, 0.5)), name

    def test_uniform_predictor(self, tiny_index):
        uniform = make_predictors(["uniform"])["uniform"]
        out = uniform(tiny_index, Query.from_terms(["t000"]), "geo")
        assert out.distribution.values == (0.5, 0.5)
        assert not out.distribution.degenerate


class TestPredictProperties:
    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(0, 10_000),
        st.sampled_from(PREDICTORS),
        st.integers(1, 2),
        st.sampled_from([1, 3, 100]),
    )
    def test_every_predictor_gives_a_distribution(self, seed, name, num_categories, k):
        rng = random.Random(seed)
        docs, cats = random_labeled_corpus(
            rng,
            num_docs=rng.randint(1, 20),
            num_groups=rng.randint(1, 4),
            num_categories=num_categories,
        )
        idx = build_index(docs, cats)
        # the corpus vocabulary has 8 terms, so some query terms are unindexed
        query = Query.from_terms(rng.choices(stable_vocab(10), k=rng.randint(1, 4)))
        bound = make_predictors(PREDICTORS, k)[name]
        for cat in cats:
            out = make_predictors([name], k)[name](idx, query, cat.name)
            values = out.distribution.values
            assert out.distribution.groups == cat.groups
            assert len(values) == len(out.raw_scores) == len(cat.groups)
            assert all(v >= 0.0 for v in values)
            assert abs(sum(values) - 1.0) <= 1e-9
            assert out.distribution.degenerate == all(max(0.0, r) == 0.0 for r in out.raw_scores)
            assert bound(idx, query, cat.name) == out

    @pytest.mark.parametrize("name", PREDICTORS)
    def test_raw_scores_are_floats_for_an_unindexed_query(self, name):
        # GEP summed no terms from an int start and returned (0, 0)
        idx = _index_from_tokens({"d1": ["t000"], "d2": ["t001"]}, {"d1": "a", "d2": "b"}, "ab")
        out = make_predictors([name], 10)[name](idx, Query.from_terms(["zzz9"]), "c")
        assert [type(r) for r in out.raw_scores] == [float, float]

    @pytest.mark.parametrize(
        "name, k, cori_belief, message",
        [
            ("gepp", 10, 0.4, "unknown predictor 'gepp'"),
            ("avidf", 0, 0.4, "k must be >= 1"),
            ("cori", 10, 1.5, r"cori belief must lie in \[0, 1\]"),
            ("gep", 10, -0.1, r"cori belief must lie in \[0, 1\]"),
        ],
    )
    def test_bad_arguments_rejected_when_bound(self, name, k, cori_belief, message):
        with pytest.raises(ValueError, match=message):
            make_predictors([name], k, cori_belief)


class TestWeightOverflow:
    """A weight past the float range is an error, never a silent uniform."""

    @pytest.mark.parametrize("name", PREDICTORS)
    def test_total_weight_overflow_rejected(self, tiny_index, name):
        query = Query(("t003", "t004"), (sys.float_info.max,) * 2)
        with pytest.raises(ValueError, match="^the total query weight overflows the float range$"):
            make_predictors([name])[name](tiny_index, query, "geo")

    @pytest.mark.parametrize("name", ["gep", "avidf", "avictf", "avpmi"])
    def test_score_overflow_rejected(self, tiny_index, name):
        # the total is finite, but GEP's query weight (max * idf) is not, nor
        # is the log-ratio sum max * log2(2 / 0.5) of the group without t003
        query = Query(("t003",), (sys.float_info.max,))
        message = f"^{name} scores in category 'geo' overflow the float range$"
        with pytest.raises(ValueError, match=message):
            make_predictors([name])[name](tiny_index, query, "geo")


class TestNormalizationProperties:
    @settings(max_examples=50, deadline=None)
    @given(
        # no subnormals: scaling one could underflow to zero, which is not a multiple
        st.lists(st.one_of(st.just(0.0), st.floats(1e-300, 100.0)), min_size=2, max_size=6),
        st.floats(0.01, 1000.0),
    )
    def test_scale_invariance(self, values, c):
        groups = tuple(f"g{i}" for i in range(len(values)))
        a = normalize_exposure("c", groups, values)
        b = normalize_exposure("c", groups, [v * c for v in values])
        assert a.values == pytest.approx(b.values, abs=1e-9)
        assert a.degenerate == b.degenerate


class TestOracleEquivalence:
    """Every predictor must match the straight-from-the-formula oracle bit for bit."""

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_matches_brute_force(self, seed):
        rng = random.Random(seed)
        vocab = stable_vocab(10)
        num_groups = rng.randint(2, 4)
        groups = [f"g{i}" for i in range(num_groups)]
        # on some draws one group is left without any documents
        empty = rng.choice([None, None] + groups)
        filled = [g for g in groups if g != empty]
        doc_tokens = {}
        labels = {}
        for d in range(rng.randint(4, 20)):
            doc_id = f"d{d:03d}"
            doc_tokens[doc_id] = rng.choices(vocab, k=rng.randint(1, 10))
            labels[doc_id] = rng.choice(filled)
        # every other group holds at least one document
        for i, g in enumerate(filled):
            doc_id = f"pad{i}"
            doc_tokens[doc_id] = rng.choices(vocab, k=3)
            labels[doc_id] = g
        idx = _index_from_tokens(doc_tokens, labels, groups)
        query_terms = rng.choices(vocab, k=rng.randint(1, 4))
        query = Query.from_terms(query_terms)
        k = rng.choice([1, 3, 100])

        for name, fn in make_predictors(PREDICTORS, k=k).items():
            out = fn(idx, query, "c")
            raw = oracle_raw_scores(name, doc_tokens, labels, groups, query_terms, k)
            assert list(out.raw_scores) == [raw[g] for g in groups], name
            assert list(out.distribution.values) == oracle_distribution(raw, groups), name


class TestSparseTable:
    """The table's group counts where most (term, group) cells are empty."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000))
    def test_counts_and_every_predictor_match_the_oracle(self, seed):
        rng = random.Random(seed)
        # few short documents over many groups and words: most cells are empty,
        # and some groups hold no document at all
        docs, (cat,) = random_labeled_corpus(
            rng, num_docs=rng.randint(4, 16), num_groups=rng.randint(5, 12),
            vocab_size=30, max_len=3,
        )
        idx = build_index(docs, [cat])
        doc_tokens = {d.doc_id: tokenize(d.text) for d in docs}
        labels = {d.doc_id: d.labels[cat.name] for d in docs}
        vocab = stable_vocab(31)  # the last word is in no document
        k = rng.choice([1, 3, 100])
        bundle = make_predictors(PREDICTORS, k)
        queries = [
            [rng.choice(vocab)],  # AvPMI falls back to AvIDF
            rng.choices(vocab, k=rng.randint(1, 5)) + [vocab[-1]],  # CORI skips the last term
        ]
        for terms in queries:
            query = Query.from_terms(terms)
            stats = query_group_stats(idx, query, cat.name)
            for term in stats.qtf:
                split = stats.postings[term]
                assert stats.df_g[term] == {g: len(plist) for g, plist in split.items()}
                assert stats.cf_g[term] == {g: sum(plist.values()) for g, plist in split.items()}
                for g in cat.groups:
                    in_g = [doc_tokens[d] for d in doc_tokens if labels[d] == g]
                    assert stats.df_g[term][g] == sum(term in toks for toks in in_g)
                    assert stats.cf_g[term][g] == sum(toks.count(term) for toks in in_g)
                collection = idx.term_stats(term)
                assert sum(stats.df_g[term].values()) == stats.df[term] == collection.df
                assert sum(stats.cf_g[term].values()) == collection.cf
            for name, predictor in bundle.items():
                raw = oracle_raw_scores(name, doc_tokens, labels, cat.groups, terms, k)
                out = predictor(idx, query, cat.name)
                assert list(out.raw_scores) == [raw[g] for g in cat.groups], name
                assert list(out.distribution.values) == oracle_distribution(raw, cat.groups), name


def _two_category_index(seed, num_docs=16):
    rng = random.Random(seed)
    docs, cats = random_labeled_corpus(
        rng, num_docs=num_docs, num_groups=rng.randint(2, 4), num_categories=2
    )
    return build_index(docs, cats)


class _CountBuilds:
    """Stands in for `query_group_stats`, counting the tables it builds."""

    def __init__(self):
        self.calls = 0

    def __call__(self, index, query, category):
        self.calls += 1
        return query_group_stats(index, query, category)


class TestSharedTable:
    """The callables of one `make_predictors` bundle share the last table."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 10_000),
        st.lists(
            st.tuples(
                st.sampled_from(PREDICTORS),
                st.integers(0, 1),  # index
                st.integers(0, 4),  # query
                st.sampled_from(["cat0", "cat1"]),
            ),
            min_size=1,
            max_size=40,
        ),
    )
    # the same query object on the other index, then in the other category
    @example(0, [("gep", 0, 0, "cat0"), ("gep", 1, 0, "cat0"), ("gep", 1, 0, "cat1")])
    def test_interleaved_calls_match_a_fresh_bundle(self, seed, calls):
        rng = random.Random(seed)
        indexes = [_two_category_index(seed), _two_category_index(seed + 1)]
        terms = [rng.choices(stable_vocab(10), k=rng.randint(1, 4)) for _ in range(3)]
        queries = [Query.from_terms(t) for t in terms]
        queries.append(Query.from_terms(terms[0]))  # equal to queries[0], another object
        queries.append(Query.from_terms(terms[1] + ["t000"]))
        assert queries[3] == queries[0] and queries[3] is not queries[0]
        bundle = make_predictors(PREDICTORS, 3)
        for name, i, q, category in calls:
            got = bundle[name](indexes[i], queries[q], category)
            fresh = make_predictors([name], 3)[name]
            assert got == fresh(indexes[i], queries[q], category), (name, i, q, category)

    def test_one_table_per_query_and_category(self, tmp_path, monkeypatch):
        num_queries = 5
        index = _two_category_index(7, num_docs=30)
        index.save(tmp_path / "index.qx")
        rng = random.Random(7)
        lines = [
            f"q{i}\t{' '.join(rng.choices(stable_vocab(10), k=rng.randint(1, 4)))}\n"
            for i in range(num_queries)
        ]
        (tmp_path / "queries.tsv").write_text("".join(lines), encoding="utf-8")
        builds = _CountBuilds()
        monkeypatch.setattr(qexp.predictors, "query_group_stats", builds)

        out = tmp_path / "pred.jsonl"
        code = main([
            "predict", "--index", str(tmp_path / "index.qx"),
            "--queries", str(tmp_path / "queries.tsv"), "--out", str(out),
            "--predictors", ",".join(PREDICTORS),
        ])
        assert code == 0
        assert len(out.read_text(encoding="utf-8").splitlines()) == num_queries * 2 * len(PREDICTORS)
        assert builds.calls == num_queries * 2

        builds.calls = 0
        report = run_experiment(
            index, load_queries_tsv(tmp_path / "queries.tsv"), None,
            [ModelRanker("bm25"), ModelRanker("tfidf")], [None, QueryExpander("rm3")],
            make_predictors(PREDICTORS, 10), k=10,
        )
        assert report.failures == []
        assert builds.calls == num_queries * 2

    def test_failed_build_stores_nothing(self, monkeypatch):
        index = _two_category_index(3)
        query = Query.from_terms(["t000", "t001"])
        bundle = make_predictors(PREDICTORS, 5)
        builds = _CountBuilds()
        monkeypatch.setattr(qexp.predictors, "query_group_stats", builds)
        fresh = make_predictors(["gep"], 5)["gep"]
        assert bundle["gep"](index, query, "cat0") == fresh(index, query, "cat0")
        assert builds.calls == 2  # the bundle's table, then the fresh bundle's
        for name in PREDICTORS:
            for _ in range(2):
                with pytest.raises(ValueError, match="^cannot predict for an empty query$"):
                    bundle[name](index, Query.from_terms([]), "cat0")
                with pytest.raises(KeyError, match="unknown category 'nope'"):
                    bundle[name](index, query, "nope")
        builds.calls = 0
        for name in PREDICTORS:
            fresh = make_predictors([name], 5)[name]
            assert bundle[name](index, query, "cat0") == fresh(index, query, "cat0")
        assert builds.calls == len(PREDICTORS)  # only the fresh bundles': the bundle kept its table

    def test_threads_sharing_one_bundle(self):
        index = _two_category_index(11, num_docs=40)
        bundle = make_predictors(PREDICTORS, 5)
        vocab = stable_vocab(10)
        per_thread = [
            [Query.from_terms(random.Random(t * 100 + i).choices(vocab, k=3)) for i in range(6)]
            for t in range(4)
        ]
        results: dict[int, list] = {}
        start = threading.Barrier(len(per_thread))

        def work(t):
            start.wait(timeout=30)
            results[t] = [
                (query, category, name, bundle[name](index, query, category))
                for query in per_thread[t]
                for category in ("cat0", "cat1")
                for name in PREDICTORS
            ]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            threads = [threading.Thread(target=work, args=(t,)) for t in range(len(per_thread))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(results) == list(range(len(per_thread)))
        for outputs in results.values():
            for query, category, name, got in outputs:
                assert got == make_predictors([name], 5)[name](index, query, category)
