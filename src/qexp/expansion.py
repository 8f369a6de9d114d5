"""Pseudo-relevance-feedback query expansion (RM3 and KL term selection).

Both expanders read the top feedback documents of a first-pass ranking
and emit a reweighted query whose weights sum to one. Original query
terms always survive expansion; an empty ranking passes the query
through unchanged with ``expanded=False``.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple

from .corpus import CollectionIndex, write_jsonl
from .exposure import float_sum
from .retrieval import Query, Ranking, top_k

#: feedback documents read from the top of the first-pass ranking
FB_DOCS = 3
#: expansion terms added besides the original query terms
FB_TERMS = 10
#: RM3's weight on the relevance model against the query model
RM3_LAMBDA = 0.5


class ExpansionResult(NamedTuple):
    query: Query
    expanded: bool


def _feedback_docs(index: CollectionIndex, ranking: Ranking):
    """Top feedback entries as (score, term->tf, length)."""
    return [
        (score, index.doc_terms(doc_id), index.doc_length(doc_id))
        for doc_id, score in ranking.entries[:FB_DOCS]
    ]


def _ml_query_model(query: Query) -> dict[str, float]:
    qtf = query.qtf()
    total = float_sum(qtf.values())
    return {t: w / total for t, w in qtf.items()}


def expand_rm3(
    index: CollectionIndex,
    query: Query,
    ranking: Ranking,
) -> ExpansionResult:
    """Interpolate the query model with a relevance model from feedback docs.

    w(t) = (1-RM3_LAMBDA) * P(t|Q) + RM3_LAMBDA * P_rm(t), with
    P_rm(t) proportional to sum over feedback docs of P(t|d) * prior(d),
    the prior being the doc's min-max-normalized retrieval score. Only
    the top ``FB_TERMS`` relevance-model terms (by `top_k`, ties by
    ascending term) survive besides the original query terms; weights are
    renormalized to sum to one.
    """
    if not query.terms:
        raise ValueError("cannot expand an empty query")
    feedback = _feedback_docs(index, ranking)
    if not feedback:
        return ExpansionResult(query, expanded=False)

    scores = [s for s, _, _ in feedback]
    s_min, s_max = min(scores), max(scores)
    if s_max > s_min:
        priors = [(s - s_min) / (s_max - s_min) for s in scores]
    else:
        priors = [1.0] * len(scores)

    rm: dict[str, float] = {}
    for (_, terms, length), prior in zip(feedback, priors):
        if length == 0 or prior == 0.0:
            continue
        for term, tf in sorted(terms.items()):  # so mass's bits do not depend on index order
            rm[term] = rm.get(term, 0.0) + prior * tf / length
    mass = float_sum(rm.values())
    if mass == 0.0:
        return ExpansionResult(query, expanded=False)
    rm = {t: w / mass for t, w in rm.items()}

    top = top_k(rm, FB_TERMS)
    ml = _ml_query_model(query)

    kept: dict[str, float] = {}
    for term in ml:  # originals first, in query order
        kept[term] = (1.0 - RM3_LAMBDA) * ml[term] + RM3_LAMBDA * rm.get(term, 0.0)
    for term, weight in top:
        if term not in kept:
            w = RM3_LAMBDA * weight
            if w > 0.0:  # zero-weight candidates are dropped
                kept[term] = w

    total = float_sum(kept.values())
    terms = tuple(kept)
    weights = tuple(kept[t] / total for t in terms)
    new_query = Query(terms, weights, query.query_id)
    return ExpansionResult(new_query, expanded=True)


def kl_term_weight(p_feedback: float, p_collection: float) -> float:
    """P(t|F) * log2(P(t|F) / P(t|C)); zero when the distributions agree."""
    if p_feedback <= 0.0:
        return 0.0
    return p_feedback * math.log2(p_feedback / p_collection)


def expand_klq(
    index: CollectionIndex,
    query: Query,
    ranking: Ranking,
) -> ExpansionResult:
    """Append the feedback terms that diverge most from the collection model.

    Candidate terms from the feedback set F are scored by
    P(t|F) * log2(P(t|F)/P(t|C)); the top ``FB_TERMS`` positive-weight
    candidates (by `top_k`, ties by ascending term) are appended. Expansion terms receive the same total mass
    as the original terms (1:1), whose relative weights are preserved.
    """
    if not query.terms:
        raise ValueError("cannot expand an empty query")
    feedback = _feedback_docs(index, ranking)
    if not feedback:
        return ExpansionResult(query, expanded=False)

    fb_tokens = sum(length for _, _, length in feedback)
    if fb_tokens == 0:
        return ExpansionResult(query, expanded=False)
    fb_cf: dict[str, int] = {}
    for _, terms, _ in feedback:
        for term, tf in terms.items():
            fb_cf[term] = fb_cf.get(term, 0) + tf

    original = set(query.terms)
    total_tokens = index.total_tokens
    candidates: dict[str, float] = {}
    for term, cf_f in fb_cf.items():
        if term in original:
            continue
        p_f = cf_f / fb_tokens
        p_c = index.term_stats(term).cf / total_tokens
        w = kl_term_weight(p_f, p_c)
        if w > 0.0:
            candidates[term] = w

    top = top_k(candidates, FB_TERMS)
    if not top:
        return ExpansionResult(query, expanded=False)

    ml = _ml_query_model(query)
    e_total = float_sum(w for _, w in top)
    terms = list(ml) + [t for t, _ in top]
    weights = [0.5 * p for p in ml.values()] + [0.5 * w / e_total for _, w in top]
    new_query = Query(tuple(terms), tuple(weights), query.query_id)
    return ExpansionResult(new_query, expanded=True)


EXPANDERS = {
    "rm3": expand_rm3,
    "klq": expand_klq,
}


def write_queries_jsonl(path, results: Iterable[tuple[str, ExpansionResult]]) -> None:
    """Audit trail of expanded queries: {query_id, terms, weights, expanded}."""
    write_jsonl(path, (
        {"query_id": query_id, "terms": list(res.query.terms),
         "weights": list(res.query.weights), "expanded": res.expanded}
        for query_id, res in results
    ))
