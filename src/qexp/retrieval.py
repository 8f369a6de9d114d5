"""Lexical first-pass retrieval: BM25 and TF-IDF scoring with top-k ranking.

Scores are weighted sums over query term occurrences, so a duplicated
query term contributes exactly twice. Documents scoring zero are never
retrieved, and ties are broken by ascending doc_id for reproducibility.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple

from .corpus import CollectionIndex
from .text import tokenize


class _QueryFields(NamedTuple):
    terms: tuple[str, ...]
    weights: tuple[float, ...]
    query_id: str | None


class Query(_QueryFields):
    __slots__ = ()

    def __new__(cls, terms: tuple[str, ...], weights: tuple[float, ...],
                query_id: str | None = None):
        if len(terms) != len(weights):
            raise ValueError("terms and weights must have the same length")
        if any(w < 0 for w in weights):
            raise ValueError("query weights must be nonnegative")
        return super().__new__(cls, terms, weights, query_id)

    @classmethod
    def from_terms(cls, terms: Iterable[str], query_id: str | None = None) -> "Query":
        terms = tuple(terms)
        return cls(terms, (1.0,) * len(terms), query_id)

    @classmethod
    def from_text(cls, text: str, query_id: str | None = None) -> "Query":
        return cls.from_terms(tokenize(text), query_id)

    def qtf(self) -> dict[str, float]:
        """Total weight per distinct term, in first-occurrence order."""
        out: dict[str, float] = {}
        for t, w in zip(self.terms, self.weights):
            out[t] = out.get(t, 0.0) + w
        return out


class _RankingFields(NamedTuple):
    query_id: str | None
    entries: tuple[tuple[str, float], ...]  # (doc_id, score), best first


class Ranking(_RankingFields):
    __slots__ = ()

    def __new__(cls, query_id: str | None, entries: tuple[tuple[str, float], ...]):
        scores = [s for _, s in entries]
        if any(a < b for a, b in zip(scores, scores[1:])):
            raise ValueError("ranking scores must be non-increasing")
        ids = [d for d, _ in entries]
        if len(set(ids)) != len(ids):
            raise ValueError("ranking contains duplicate doc_ids")
        return super().__new__(cls, query_id, entries)

    @property
    def doc_ids(self) -> tuple[str, ...]:
        return tuple(d for d, _ in self.entries)

    def top(self, k: int) -> "Ranking":
        return Ranking(self.query_id, self.entries[:k])


BM25_K1 = 1.2
BM25_B = 0.75

RANKERS = ("bm25", "tfidf")


def bm25_idf(n: int, df: int) -> float:
    """Robertson idf of a term in ``df`` of ``n`` documents, floored at zero."""
    return max(0.0, math.log2((n - df + 0.5) / (df + 0.5)))


def rank(index: CollectionIndex, query: Query, model: str = "bm25", k: int = 100) -> Ranking:
    """Top-k documents by score; zero-score documents are excluded.

    Scores accumulate term at a time: each weighted query term occurrence
    adds its contribution to every document in its postings. BM25 uses
    `bm25_idf`, TF-IDF uses log2(N/df), both floored at zero.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not query.terms:
        raise ValueError("cannot rank an empty query")
    if model not in RANKERS:
        raise ValueError(f"unknown ranking model {model!r}")

    bm25 = model == "bm25"
    n, avgdl = index.num_docs, index.avg_doc_len
    scores: dict[str, float] = {}
    for term, weight in zip(query.terms, query.weights):
        if weight == 0.0:
            continue
        stats = index.term_stats(term)
        if stats.df == 0:
            continue
        if bm25:
            idf = bm25_idf(n, stats.df)
        else:
            idf = max(0.0, math.log2(n / stats.df))
        for doc_id, tf in stats.postings.items():
            if bm25:
                norm = BM25_K1 * (1.0 - BM25_B + BM25_B * index.doc_length(doc_id) / avgdl)
                contribution = weight * idf * tf * (BM25_K1 + 1.0) / (tf + norm)
            else:
                contribution = weight * tf * idf
            scores[doc_id] = scores.get(doc_id, 0.0) + contribution

    scored = [(d, s) for d, s in scores.items() if s > 0.0]
    scored.sort(key=lambda ds: (-ds[1], ds[0]))
    return Ranking(query.query_id, tuple(scored[:k]))


# ------------------------------ TREC run files ------------------------------

def write_run_file(path, rankings: Iterable[Ranking], tag: str = "qexp") -> None:
    """`qid Q0 docid rank score tag`, one line per retrieved document."""
    with open(path, "w", encoding="utf-8") as fh:
        for ranking in rankings:
            qid = ranking.query_id or "0"
            for pos, (doc_id, score) in enumerate(ranking.entries, start=1):
                fh.write(f"{qid} Q0 {doc_id} {pos} {score:.6f} {tag}\n")


def read_run_file(path) -> dict[str, tuple[tuple[str, float], ...]]:
    """Parse a TREC run file into (doc_id, score) entries per query id.

    Entries are in rank order. Only the line format is checked here; a
    malformed line, a non-finite score included, fails the whole file.
    Whether a query's entries form a valid :class:`Ranking` is left to
    the caller, so one bad query need not fail the others.
    """
    per_query: dict[str, list[tuple[int, str, float]]] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            parts = line.split()
            if len(parts) != 6:
                raise ValueError(
                    f"{path}: line {lineno}: expected 6 whitespace-separated fields"
                )
            qid, _, doc_id, pos, score, _ = parts
            try:
                position, value = int(pos), float(score)
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                raise ValueError(f"{path}: line {lineno}: bad rank or score")
            per_query.setdefault(qid, []).append((position, doc_id, value))
    return {
        qid: tuple((doc_id, score) for _, doc_id, score in sorted(rows, key=lambda r: r[:2]))
        for qid, rows in per_query.items()
    }
