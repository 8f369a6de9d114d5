"""Lexical first-pass retrieval: BM25 and TF-IDF scoring with top-k ranking.

Scores are weighted sums over query term occurrences, so a duplicated
query term contributes exactly twice. Documents scoring zero are never
retrieved, and ties are broken by ascending doc_id for reproducibility.
"""

from __future__ import annotations

import math
from itertools import compress
from typing import Iterable, NamedTuple

from .corpus import BM25_K1, CollectionIndex, read_lines, write_lines
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
        if not all(0 <= w < math.inf for w in weights):  # false for NaN
            raise ValueError("query weights must be finite and nonnegative")
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


_BM25_K1_PLUS_1 = BM25_K1 + 1.0
_POSITIVE = (0.0).__lt__  # false for NaN

RANKERS = ("bm25", "tfidf")


def bm25_idf(n: int, df: int) -> float:
    """Robertson idf of a term in ``df`` of ``n`` documents, floored at zero."""
    return max(0.0, math.log2((n - df + 0.5) / (df + 0.5)))


def top_k(scores: dict[str, float], k: int) -> list[tuple[str, float]]:
    """The k highest positive scores as (key, score), best first, ties by ascending key.

    When more than k scores are positive, the cut-off is the k-th largest
    of them, found by a float sort, and every key scoring at least that
    survives, ties at the cut included. The survivors are sorted by key,
    then stably by score from high to low, so equal scores keep ascending
    key order and no Python function runs per item. A NaN score is never
    selected.
    """
    values = scores.values()
    keep = _POSITIVE
    if len(values) > k:
        ranked = sorted(filter(_POSITIVE, values), reverse=True)
        if len(ranked) > k:
            keep = ranked[k - 1].__le__
    keys = sorted(compress(scores, map(keep, values)))
    keys.sort(key=scores.__getitem__, reverse=True)
    del keys[k:]
    return list(zip(keys, map(scores.__getitem__, keys)))


def rank(index: CollectionIndex, query: Query, model: str = "bm25", k: int = 100) -> Ranking:
    """Top-k documents by score; zero-score documents are excluded.

    Scores accumulate term at a time: each weighted query term occurrence
    adds its contribution to every document in its postings. BM25 uses
    `bm25_idf` and the index's length normalization table, TF-IDF uses
    log2(N/df), both floored at zero. The top k are chosen by `top_k`. A
    score past the float range raises ValueError: scores are nonnegative,
    so an overflow is +inf and ranked first.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not query.terms:
        raise ValueError("cannot rank an empty query")
    if model not in RANKERS:
        raise ValueError(f"unknown ranking model {model!r}")

    bm25 = model == "bm25"
    n = index.num_docs
    norms = index.bm25_norms() if bm25 else None
    scores: dict[str, float] = {}
    get = scores.get
    for term, weight in zip(query.terms, query.weights):
        if weight == 0.0:
            continue
        stats = index.term_stats(term)
        if stats.df == 0:
            continue
        if bm25:
            # weight * idf * tf * (k1+1) / (tf + norm), multiplied left to right
            a = weight * bm25_idf(n, stats.df)
            for doc_id, tf in stats.postings.items():
                scores[doc_id] = get(doc_id, 0.0) + a * tf * _BM25_K1_PLUS_1 / (tf + norms[doc_id])
        else:
            idf = max(0.0, math.log2(n / stats.df))
            for doc_id, tf in stats.postings.items():
                scores[doc_id] = get(doc_id, 0.0) + weight * tf * idf
    entries = top_k(scores, k)
    if entries and entries[0][1] == math.inf:
        raise ValueError(f"the score of document {entries[0][0]!r} overflows the float range")
    return Ranking(query.query_id, tuple(entries))


# ------------------------------ TREC run files ------------------------------

def write_run_file(path, rankings: Iterable[Ranking], tag: str = "qexp") -> None:
    """`qid Q0 docid rank score tag`, one line per retrieved document."""
    write_lines(path, (
        f"{ranking.query_id or '0'} Q0 {doc_id} {pos} {score:.6f} {tag}"
        for ranking in rankings
        for pos, (doc_id, score) in enumerate(ranking.entries, start=1)
    ))


def read_run_file(path) -> dict[str, list[tuple[int, str, float]]]:
    """Parse a TREC run file into (rank, doc_id, score) rows per query id.

    Rows are in rank order. Only the line format is checked here; a
    malformed line, a rank below 1 or a non-finite score included, fails
    the whole file. Whether a query's rows form a valid :class:`Ranking`
    is left to the caller, so one bad query need not fail the others.
    """
    per_query: dict[str, list[tuple[int, str, float]]] = {}
    for lineno, line in enumerate(read_lines(path), start=1):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 6:
            raise ValueError(f"{path}: line {lineno}: expected 6 whitespace-separated fields")
        qid, _, doc_id, pos, score, _ = parts
        try:
            position, value = int(pos), float(score)
        except ValueError:
            position, value = 0, math.nan
        if position < 1 or not math.isfinite(value):
            raise ValueError(f"{path}: line {lineno}: bad rank or score")
        per_query.setdefault(qid, []).append((position, doc_id, value))
    for rows in per_query.values():
        rows.sort()  # by rank
    return per_query
