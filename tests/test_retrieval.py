import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from qexp.corpus import Category, Document, build_index
from qexp.retrieval import Query, Ranking, rank, read_run_file, write_run_file
from qexp.text import tokenize

from conftest import random_labeled_corpus, stable_vocab
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
        loaded = read_run_file(path)
        assert set(loaded) == {"q1", "q2"}
        assert tuple(d for d, _ in loaded["q1"]) == r1.doc_ids
        line = path.read_text().splitlines()[0].split()
        assert len(line) == 6 and line[1] == "Q0"

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "bad.trec"
        path.write_text("q1 Q0 d1 1 2.0\n")
        with pytest.raises(ValueError, match="6"):
            read_run_file(path)
