import math

import pytest
from hypothesis import given, settings, strategies as st

from qexp.corpus import Category, Document, build_index
from qexp.expansion import FB_DOCS, FB_TERMS, RM3_LAMBDA, expand_klq, expand_rm3, kl_term_weight
from qexp.retrieval import Query, Ranking


@pytest.fixture
def feedback_index():
    docs = [
        Document("f1", "t000 t001", {"c": "g"}),
        Document("f2", "t000 t002 t002", {"c": "g"}),
        Document("f3", "t003", {"c": "g"}),
        Document("x1", "t004 t004 t004 t005", {"c": "g"}),
        Document("x2", "t005 t006", {"c": "g"}),
    ]
    return build_index(docs, [Category("c", ("g",))])


def _ranking(entries):
    return Ranking("q", tuple(entries))


FEEDBACK = [("f1", 10.0), ("f2", 5.0), ("f3", 0.0)]


def _wide_index():
    # the top FB_DOCS documents hold more than FB_TERMS candidate terms
    docs = [
        Document("w1", "t000 t000 t000 t001 t001 t002 t003 t004 t005", {"c": "g"}),
        Document("w2", "t006 t006 t007 t008 t009 t010 t011 t012", {"c": "g"}),
        Document("w3", "t013 t014 t014 t015 t016", {"c": "g"}),
        Document("w4", "t017 t017 t017 t017", {"c": "g"}),  # ranked past FB_DOCS
        Document("x1", "t000 t006 t013 t017 t018 t018", {"c": "g"}),
    ]
    return build_index(docs, [Category("c", ("g",))])


@pytest.fixture
def wide_index():
    return _wide_index()


WIDE_FEEDBACK = [("w1", 10.0), ("w2", 6.0), ("w3", 3.0), ("w4", 1.0)]


class TestRM3:
    def test_hand_enumerated_relevance_model(self, feedback_index):
        # priors (min-max): f1=1, f2=0.5, f3=0
        # rm mass: t000 = 1*(1/2) + 0.5*(1/3); t001 = 1/2; t002 = 0.5*(2/3)
        q = Query.from_terms(["t000", "t005"], query_id="q")
        res = expand_rm3(feedback_index, q, _ranking(FEEDBACK))
        rm = {"t000": (0.5 + 0.5 / 3) / 1.5, "t001": 0.5 / 1.5, "t002": (1 / 3) / 1.5}
        expected = {
            "t000": 0.5 * 0.5 + 0.5 * rm["t000"],
            "t005": 0.5 * 0.5,
            "t001": 0.5 * rm["t001"],
            "t002": 0.5 * rm["t002"],
        }
        total = sum(expected.values())
        weights = dict(zip(res.query.terms, res.query.weights))
        assert set(weights) == set(expected)
        for term, w in expected.items():
            assert weights[term] == pytest.approx(w / total, abs=1e-12)

    def test_truncation_to_fb_terms(self, wide_index):
        # priors (min-max over the FB_DOCS feedback docs): w1=1, w2=3/7, w3=0,
        # so the relevance model spans w1's and w2's 13 terms
        q = Query.from_terms(["t020"], query_id="q")
        res = expand_rm3(wide_index, q, _ranking(WIDE_FEEDBACK))
        assert res.expanded
        rm = {}
        for doc_id, prior in (("w1", 1.0), ("w2", 3 / 7)):
            length = wide_index.doc_length(doc_id)
            for term, tf in wide_index.doc_terms(doc_id).items():
                rm[term] = rm.get(term, 0.0) + prior * tf / length
        assert len(rm) > FB_TERMS
        mass = sum(rm.values())
        top = sorted(rm.items(), key=lambda tw: (-tw[1], tw[0]))[:FB_TERMS]
        expected = {"t020": 1.0 - RM3_LAMBDA}
        expected.update((t, RM3_LAMBDA * w / mass) for t, w in top)
        total = sum(expected.values())
        weights = dict(zip(res.query.terms, res.query.weights))
        assert set(weights) == set(expected)
        for term, w in expected.items():
            assert weights[term] == pytest.approx(w / total, abs=1e-12)

    def test_empty_ranking_passthrough(self, feedback_index):
        q = Query.from_terms(["t000"], query_id="q")
        res = expand_rm3(feedback_index, q, _ranking([]))
        assert not res.expanded
        assert res.query == q

    def test_empty_query_rejected(self, feedback_index):
        with pytest.raises(ValueError):
            expand_rm3(feedback_index, Query.from_terms([]), _ranking(FEEDBACK))


class TestKLQ:
    def test_feedback_only_term_positive(self):
        assert kl_term_weight(0.5, 0.1) > 0

    def test_equal_rates_zero_weight(self):
        assert kl_term_weight(0.25, 0.25) == 0.0

    def test_whole_corpus_as_feedback_never_expands(self):
        # P(t|F) == P(t|C) for every term, so no candidate scores positive
        docs = [
            Document("f1", "t000 t001", {"c": "g"}),
            Document("f2", "t002", {"c": "g"}),
        ]
        idx = build_index(docs, [Category("c", ("g",))])
        q = Query.from_terms(["t009"], query_id="q")
        res = expand_klq(idx, q, _ranking([("f1", 2.0), ("f2", 1.0)]))
        assert not res.expanded
        assert res.query == q

    def test_matches_enumerate_and_sort_oracle(self, wide_index):
        q = Query.from_terms(["t000"], query_id="q")
        res = expand_klq(wide_index, q, _ranking(WIDE_FEEDBACK))
        assert res.expanded

        # oracle: score every term of the FB_DOCS feedback docs straight from the formula
        fb_cf = {}
        for doc_id, _ in WIDE_FEEDBACK[:FB_DOCS]:
            for term, tf in wide_index.doc_terms(doc_id).items():
                fb_cf[term] = fb_cf.get(term, 0) + tf
        fb_tokens = sum(fb_cf.values())
        total_tokens = wide_index.total_tokens
        scores = {}
        for term, cf_f in fb_cf.items():
            if term == "t000":
                continue
            p_f = cf_f / fb_tokens
            p_c = wide_index.term_stats(term).cf / total_tokens
            w = p_f * math.log2(p_f / p_c)
            if w > 0:
                scores[term] = w
        assert len(scores) > FB_TERMS
        top = sorted(scores.items(), key=lambda tw: (-tw[1], tw[0]))[:FB_TERMS]

        weights = dict(zip(res.query.terms, res.query.weights))
        assert weights["t000"] == pytest.approx(0.5)  # original mass preserved 1:1
        expansion_mass = sum(w for _, w in top)
        for term, w in top:
            assert weights[term] == pytest.approx(0.5 * w / expansion_mass)
        assert set(res.query.terms) == {"t000"} | {t for t, _ in top}

    def test_original_relative_weights_preserved(self, feedback_index):
        q = Query(("t005", "t004"), (3.0, 1.0), query_id="q")
        res = expand_klq(feedback_index, q, _ranking(FEEDBACK))
        weights = dict(zip(res.query.terms, res.query.weights))
        assert weights["t005"] == pytest.approx(3 * weights["t004"])
        assert weights["t005"] + weights["t004"] == pytest.approx(0.5)

    def test_empty_ranking_passthrough(self, feedback_index):
        q = Query.from_terms(["t000"], query_id="q")
        res = expand_klq(feedback_index, q, _ranking([]))
        assert not res.expanded and res.query == q


WIDE_DOCS = ("w1", "w2", "w3", "w4", "x1")
WIDE_TERMS = [f"t{i:03d}" for i in range(21)]  # t019 and t020 are in no document


class TestExpansionInvariants:
    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.sampled_from(WIDE_TERMS), min_size=1, max_size=5),
        st.permutations(WIDE_DOCS),
        st.integers(0, len(WIDE_DOCS)),
        st.lists(st.floats(0.0, 20.0), min_size=len(WIDE_DOCS), max_size=len(WIDE_DOCS)),
    )
    def test_weights_nonnegative_finite_sum_one(self, terms, docs, depth, scores):
        wide_index = _wide_index()
        docs = docs[:depth]
        ranking = _ranking(list(zip(docs, sorted(scores, reverse=True))))
        feedback_terms = {t for d in docs[:FB_DOCS] for t in wide_index.doc_terms(d)}
        q = Query.from_terms(terms, query_id="q")
        for expander in (expand_rm3, expand_klq):
            res = expander(wide_index, q, ranking)
            assert all(w >= 0 and math.isfinite(w) for w in res.query.weights)
            assert sum(res.query.weights) == pytest.approx(1.0) or not res.expanded
            assert set(q.terms) <= set(res.query.terms)
            # only terms of the top FB_DOCS documents join, at most FB_TERMS of them
            added = set(res.query.terms) - set(q.terms)
            assert added <= feedback_terms
            assert len(added) <= FB_TERMS

    def test_fewer_candidates_than_fb_terms_all_join(self, feedback_index):
        q = Query.from_terms(["t005"], query_id="q")
        res = expand_klq(feedback_index, q, _ranking(FEEDBACK))
        # every positive-weight candidate included
        positive = set()
        fb_cf = {"t000": 2, "t001": 1, "t002": 2, "t003": 1}
        for term, cf_f in fb_cf.items():
            p_f = cf_f / 6
            p_c = feedback_index.term_stats(term).cf / feedback_index.total_tokens
            if kl_term_weight(p_f, p_c) > 0:
                positive.add(term)
        assert len(positive) < FB_TERMS
        assert set(res.query.terms) == {"t005"} | positive
