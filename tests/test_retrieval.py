import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from qexp.corpus import Category, Document, build_index
from qexp.retrieval import Query, Ranking, rank, read_run_file, top_k, write_run_file
from qexp.text import tokenize

from conftest import random_labeled_corpus, stable_vocab, with_duplicates
from oracles import oracle_rank


@pytest.fixture
def three_doc_index():
    docs = [
        Document("da", "t000 t001 t001", {"c": "g0"}),
        Document("db", "t002 t002", {"c": "g0"}),
        Document("dc", "t003", {"c": "g1"}),
    ]
    return build_index(docs, [Category("c", ("g0", "g1"))])


def scores(index, query, model):
    """doc_id -> score for every document with a nonzero score."""
    return dict(rank(index, query, model, k=index.num_docs).entries)


def brute_force_rank(docs, query, model, k):
    doc_tokens = {d.doc_id: tokenize(d.text) for d in docs}
    return oracle_rank(doc_tokens, query.terms, query.weights, model, k)


class TestScoreBM25:
    def test_hand_evaluated_fixture(self, three_doc_index):
        # N=3, avgdl=2; term t000: df=1, tf=1 in da, |da|=3
        idf = math.log2((3 - 1 + 0.5) / (1 + 0.5))
        denom = 1 + 1.2 * (1 - 0.75 + 0.75 * 3 / 2)
        expected = idf * 1 * (1.2 + 1) / denom
        got = scores(three_doc_index, Query.from_terms(["t000"]), "bm25")["da"]
        assert got == pytest.approx(expected, abs=1e-12)

    def test_absent_term_contributes_zero(self, three_doc_index):
        assert "dc" not in scores(three_doc_index, Query.from_terms(["t000"]), "bm25")

    def test_duplicate_term_doubles_score(self, three_doc_index):
        single = scores(three_doc_index, Query.from_terms(["t000"]), "bm25")["da"]
        double = scores(three_doc_index, Query.from_terms(["t000", "t000"]), "bm25")["da"]
        assert double == pytest.approx(2 * single, rel=1e-12)

    def test_weighted_query(self, three_doc_index):
        single = scores(three_doc_index, Query.from_terms(["t000"]), "bm25")["da"]
        weighted = scores(three_doc_index, Query(("t000",), (0.25,)), "bm25")["da"]
        assert weighted == pytest.approx(0.25 * single, rel=1e-12)


class TestScoreTFIDF:
    def test_hand_computation(self, tiny_index):
        # t004: df=1, tf=2 in d4, N=4 -> 2 * log2(4) = 4.0
        got = scores(tiny_index, Query.from_terms(["t004"]), "tfidf")["d4"]
        assert got == pytest.approx(4.0)

    def test_term_in_every_doc_floored(self):
        docs = [Document(f"d{i}", "t000 t001", {"c": "g"}) for i in range(3)]
        idx = build_index(docs, [Category("c", ("g",))])
        assert scores(idx, Query.from_terms(["t000"]), "tfidf") == {}


class TestRank:
    def test_fewer_candidates_than_k(self, tiny_index):
        r = rank(tiny_index, Query.from_terms(["t004"]), "tfidf", k=100)
        assert len(r.entries) == 1

    def test_ties_broken_by_doc_id(self):
        docs = [
            Document("db", "t000", {"c": "g"}),
            Document("da", "t000", {"c": "g"}),
            Document("dc", "t001", {"c": "g"}),
        ]
        idx = build_index(docs, [Category("c", ("g",))])
        r = rank(idx, Query.from_terms(["t000"]), "tfidf", k=10)
        assert r.doc_ids == ("da", "db")

    def test_zero_score_docs_excluded(self, three_doc_index):
        r = rank(three_doc_index, Query.from_terms(["t000"]), "tfidf", k=10)
        assert "dc" not in r.doc_ids

    def test_invalid_k(self, tiny_index):
        with pytest.raises(ValueError):
            rank(tiny_index, Query.from_terms(["t000"]), "bm25", k=0)

    def test_empty_query_rejected(self, tiny_index):
        with pytest.raises(ValueError):
            rank(tiny_index, Query.from_terms([]), "bm25")

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000), st.sampled_from(["bm25", "tfidf"]), st.sampled_from([1, 3, 10]))
    def test_matches_brute_force(self, seed, model, k):
        rng = random.Random(seed)
        docs, cats = random_labeled_corpus(rng, num_docs=30, vocab_size=12, max_len=8)
        idx = build_index(docs, cats)
        vocab = sorted(idx.vocabulary)
        query = Query.from_terms(rng.sample(vocab, min(3, len(vocab))))
        got = rank(idx, query, model, k)
        assert list(got.entries) == brute_force_rank(docs, query, model, k)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 10_000),
        # term indices past the corpus vocabulary (12) are never indexed
        st.lists(
            st.tuples(
                st.integers(0, 15),
                st.sampled_from([0.0, 0.5, 1.0, 2.5]) | st.floats(0.0, 4.0),
            ),
            min_size=1,
            max_size=6,
        ),
        st.sampled_from(["bm25", "tfidf"]),
        st.sampled_from([1, 5, 100]),
    )
    def test_weighted_queries_match_oracle(self, seed, occurrences, model, k):
        rng = random.Random(seed)
        docs, cats = random_labeled_corpus(rng, num_docs=30, vocab_size=12, max_len=8)
        idx = build_index(docs, cats)
        vocab = stable_vocab(16)
        # duplicated terms, zero and fractional weights, unindexed terms
        query = Query(
            tuple(vocab[i] for i, _ in occurrences), tuple(w for _, w in occurrences)
        )
        entries = rank(idx, query, model, k).entries
        assert list(entries) == brute_force_rank(docs, query, model, k)
        assert list(entries) == sorted(entries, key=lambda ds: (-ds[1], ds[0]))
        assert len({d for d, _ in entries}) == len(entries)
        assert all(s > 0.0 for _, s in entries)
        assert len(entries) <= k

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_adding_occurrence_never_decreases_scores(self, seed):
        rng = random.Random(seed)
        docs, cats = random_labeled_corpus(rng, num_docs=10, vocab_size=6, max_len=8)
        idx = build_index(docs, cats)
        target = rng.choice(docs)
        term = rng.choice(sorted(idx.vocabulary))
        grown = [
            Document(d.doc_id, d.text + " " + term, d.labels)
            if d.doc_id == target.doc_id
            else d
            for d in docs
        ]
        idx2 = build_index(grown, cats)
        q = Query.from_terms([term])
        for model in ("bm25", "tfidf"):
            before = scores(idx, q, model).get(target.doc_id, 0.0)
            assert scores(idx2, q, model).get(target.doc_id, 0.0) >= before - 1e-12


class TestTopK:
    def test_ties_by_ascending_key_and_only_positive_scores(self):
        scores = {"b": 1.0, "a": 1.0, "c": 2.0, "z": 0.0, "n": math.nan, "d": 1.0}
        assert top_k(scores, 1) == [("c", 2.0)]
        assert top_k(scores, 3) == [("c", 2.0), ("a", 1.0), ("b", 1.0)]
        assert top_k(scores, 10) == [("c", 2.0), ("a", 1.0), ("b", 1.0), ("d", 1.0)]
        assert top_k({"a": 0.0, "b": math.nan}, 5) == []

    @settings(max_examples=200, deadline=None)
    @given(
        # few distinct values, so most draws tie at the cut-off
        st.dictionaries(
            st.text("abcde", max_size=3), st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.5]), max_size=30
        ),
        st.integers(1, 35),
    )
    def test_matches_sorting_everything(self, scores, k):
        ranked = sorted(
            ((d, s) for d, s in scores.items() if s > 0.0), key=lambda ds: (-ds[1], ds[0])
        )
        assert top_k(scores, k) == ranked[:k]


class TestRankTies:
    # d5, d3 and d4 hold the same text, so they tie for positions 3-5
    TIED_DOCS = [
        Document(doc_id, text, {"c": "g"})
        for doc_id, text in [
            ("d1", "t009 t009 t000"),
            ("d5", "t009 t001"),
            ("d3", "t009 t001"),
            ("d2", "t008 t002"),
            ("d4", "t009 t001"),
            ("d6", "t001 t002"),
            ("d7", "t002 t003"),
            ("d8", "t003 t004"),
            ("d9", "t004 t005"),
            ("d0", "t005 t006"),
        ]
    ]
    QUERY = Query.from_terms(["t009", "t008"])

    @pytest.mark.parametrize("model", ["bm25", "tfidf"])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_cut_off_inside_around_and_past_a_tie(self, model, k):
        idx = build_index(self.TIED_DOCS, [Category("c", ("g",))])
        got = rank(idx, self.QUERY, model, k)
        assert list(got.entries) == brute_force_rank(self.TIED_DOCS, self.QUERY, model, k)
        assert got.doc_ids == ("d2", "d1", "d3", "d4", "d5")[:k]
        assert len({s for d, s in got.entries if d in ("d3", "d4", "d5")}) <= 1

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 10_000),
        st.sampled_from(["bm25", "tfidf"]),
        st.sampled_from([1, 2, 3, 5, 8, 100]),
    )
    def test_duplicated_documents_match_brute_force(self, seed, model, k):
        rng = random.Random(seed)
        docs, cats = random_labeled_corpus(rng, num_docs=15, vocab_size=8, max_len=6)
        docs = with_duplicates(rng, docs)
        idx = build_index(docs, cats)
        query = Query.from_terms(rng.sample(stable_vocab(8), rng.randint(1, 3)))
        got = rank(idx, query, model, k)
        assert list(got.entries) == brute_force_rank(docs, query, model, k)


class TestPerIndexTables:
    def test_ranking_another_index_in_between_changes_nothing(self):
        # the same doc ids, another avgdl; a large vocabulary keeps bm25_idf
        # positive, so BM25 ranks documents on both indexes
        rng = random.Random(5)
        docs_a, cats = random_labeled_corpus(rng, num_docs=20, vocab_size=30, max_len=4)
        docs_b, _ = random_labeled_corpus(rng, num_docs=20, vocab_size=30, max_len=12)
        idx_a, idx_b = build_index(docs_a, cats), build_index(docs_b, cats)
        assert idx_a.avg_doc_len != idx_b.avg_doc_len
        query = Query.from_terms(stable_vocab(5))
        for model in ("bm25", "tfidf"):
            for idx, docs in ((idx_a, docs_a), (idx_b, docs_b), (idx_a, docs_a)):
                got = rank(idx, query, model, k=100)
                assert len(got.entries) >= 3
                assert list(got.entries) == brute_force_rank(docs, query, model, 100)


class TestQueryType:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0])
    def test_rejects_weights_that_are_not_finite_and_nonnegative(self, bad):
        # a NaN weight dropped its term from rank and gave predictors NaN raw
        # scores, which floored to a "degenerate" uniform prediction; an
        # infinite one ranked documents at score inf
        for weights in ((bad, 1.0), (1.0, bad)):
            with pytest.raises(ValueError, match="^query weights must be finite and nonnegative$"):
                Query(("t000", "t001"), weights)

    def test_accepts_zero_and_large_finite_weights(self, three_doc_index):
        query = Query(("t000", "t003"), (0.0, 1e300))
        ((doc_id, score),) = rank(three_doc_index, query, "tfidf", k=3).entries
        assert doc_id == "dc" and math.isfinite(score)


class TestRankingType:
    def test_rejects_increasing_scores(self):
        with pytest.raises(ValueError):
            Ranking("q", (("a", 1.0), ("b", 2.0)))

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            Ranking("q", (("a", 2.0), ("a", 1.0)))

    def test_top_truncates(self):
        r = Ranking("q", (("a", 2.0), ("b", 1.0)))
        assert r.top(1).doc_ids == ("a",)


class TestRunFiles:
    def test_round_trip(self, tmp_path, tiny_index):
        r1 = rank(tiny_index, Query.from_terms(["t000"], query_id="q1"), "tfidf", k=10)
        r2 = rank(tiny_index, Query.from_terms(["t003"], query_id="q2"), "tfidf", k=10)
        path = tmp_path / "run.trec"
        write_run_file(path, [r1, r2], tag="test")
        loaded, repeated = read_run_file(path)
        assert set(loaded) == {"q1", "q2"} and repeated == {}
        assert tuple(d for d, _ in loaded["q1"]) == r1.doc_ids
        line = path.read_text().splitlines()[0].split()
        assert len(line) == 6 and line[1] == "Q0"

    def test_repeated_rank_is_reported_per_query(self, tmp_path):
        path = tmp_path / "run.trec"
        path.write_text(
            "q1 Q0 dB 2 5.0 x\nq1 Q0 dA 1 6.0 x\nq1 Q0 dC 2 5.0 x\nq2 Q0 dA 2 1.0 x\n"
        )
        loaded, repeated = read_run_file(path)
        assert repeated == {"q1": 2}
        assert loaded == {"q1": (("dA", 6.0), ("dB", 5.0), ("dC", 5.0)), "q2": (("dA", 1.0),)}

    @pytest.mark.parametrize("pos", ["0", "-2"])
    def test_rank_below_1_fails_the_file(self, tmp_path, pos):
        path = tmp_path / "run.trec"
        path.write_text(f"q1 Q0 dA 1 6.0 x\nq1 Q0 dB {pos} 7.0 x\n")
        with pytest.raises(ValueError, match="line 2: bad rank or score"):
            read_run_file(path)

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "bad.trec"
        path.write_text("q1 Q0 d1 1 2.0\n")
        with pytest.raises(ValueError, match="6"):
            read_run_file(path)
