"""Pre-retrieval predictors of per-group exposure distributions.

The group exposure predictor (GEP) represents each group by the per-term
mean of its k largest tf-idf scores and dots that vector with a
collection-level query vector. The baselines adapt classic query
performance predictors (AvIDF, AvICTF, SCS, AvPMI) and the CORI
resource-selection belief to per-group scoring. Every predictor is a
formula giving raw group scores; the callables of `make_predictors`
floor them at zero and normalize them to a distribution, so outputs are
directly comparable to realized exposure.
"""

from __future__ import annotations

import math
from typing import Callable, Mapping, NamedTuple, Sequence

from .corpus import Category, CollectionIndex, reject_repeats
from .exposure import ExposureDistribution, float_sum, normalize_exposure
from .retrieval import Query, bm25_idf

#: replaces zero df/cf counts inside baseline logarithms
SMOOTH = 0.5

#: CORI's T = df_g / (df_g + CORI_DF_BASE + CORI_DF_SCALE * cw_g / mean_cw)
CORI_DF_BASE = 50.0
CORI_DF_SCALE = 150.0
#: CORI's default belief b, in [0, 1]
CORI_BELIEF = 0.4


class PredictorOutput(NamedTuple):
    predictor: str
    raw_scores: tuple[float, ...]  # one per group of distribution.groups
    distribution: ExposureDistribution

    def to_dict(self, query_id: str | None = None) -> dict:
        return {
            "query_id": query_id,
            "category": self.distribution.category,
            "predictor": self.predictor,
            "groups": list(self.distribution.groups),
            "distribution": list(self.distribution.values),
            "degenerate": self.distribution.degenerate,
        }


class QueryGroupStats(NamedTuple):
    """Every count a predictor reads for one query in one category.

    ``postings[term][group]`` maps the group's documents containing the
    term to its frequency there. The term's group df (the length of that
    mapping) and group cf (the sum of its values) are counted once, here,
    into ``df_g[term][group]`` and ``cf_g[term][group]``.
    """

    category: Category
    qtf: dict[str, float]        # weight per distinct query term, query order
    num_docs: int                # documents in the collection
    df: dict[str, int]           # collection df per distinct query term
    n_g: dict[str, int]          # documents per group
    tokens_g: dict[str, int]     # tokens per group
    df_g: dict[str, dict[str, int]]  # group df per distinct query term
    cf_g: dict[str, dict[str, int]]  # group cf per distinct query term
    postings: dict[str, dict[str, dict[str, int]]]


def query_group_stats(index: CollectionIndex, query: Query, category: str) -> QueryGroupStats:
    """Collect the query's per-group counts; rejects an empty query."""
    if not query.terms:
        raise ValueError("cannot predict for an empty query")
    cat = index.category(category)
    qtf = query.qtf()
    postings = {term: index.group_postings(term, category) for term in qtf}
    df_g = {term: {g: len(docs) for g, docs in split.items()} for term, split in postings.items()}
    return QueryGroupStats(
        category=cat,
        qtf=qtf,
        num_docs=index.num_docs,
        df={term: sum(counts.values()) for term, counts in df_g.items()},
        n_g={g: index.group_doc_count(category, g) for g in cat.groups},
        tokens_g={g: index.group_token_count(category, g) for g in cat.groups},
        df_g=df_g,
        cf_g={term: {g: sum(d.values()) for g, d in split.items()} for term, split in postings.items()},
        postings=postings,
    )


def _finish(name: str, stats: QueryGroupStats, k: int, cori_belief: float) -> PredictorOutput:
    """Run the named formula, floor its scores at zero and normalize them."""
    category = stats.category
    raw = _FORMULAS[name](stats, k, cori_belief)
    floored = {g: max(0.0, raw[g]) for g in category.groups}
    dist = normalize_exposure(category.name, category.groups, floored)
    return PredictorOutput(name, tuple(raw[g] for g in category.groups), dist)


# --------------------------------- GEP -------------------------------------

def gep_group_term_score(stats: QueryGroupStats, term: str, group: str, k: int) -> float:
    """Mean of the k largest tf-idf scores of the group's documents.

    The group idf is `bm25_idf` over the group's documents. Terms
    appearing in fewer than k group documents are padded with zeros, so
    a single high-scoring document cannot dominate: one document can
    occupy only one ranking position.
    """
    plist = stats.postings[term][group]
    if not plist:
        return 0.0
    idf = bm25_idf(stats.n_g[group], len(plist))
    scores = sorted((tf * idf for tf in plist.values()), reverse=True)
    return float_sum(scores[:k]) / k


def gep_query_vector(stats: QueryGroupStats) -> dict[str, float]:
    """qtf * collection `bm25_idf` per distinct query term; unindexed terms get 0."""
    return {
        term: qtf * bm25_idf(stats.num_docs, stats.df[term]) if stats.df[term] else 0.0
        for term, qtf in stats.qtf.items()
    }


def _gep(stats: QueryGroupStats, k: int, cori_belief: float) -> dict[str, float]:
    """Dot product of each group's top-k tf-idf vector with the query vector."""
    qvec = gep_query_vector(stats)
    raw = {}
    for group in stats.category.groups:
        raw[group] = float_sum(
            gep_group_term_score(stats, term, group, k) * qw
            for term, qw in qvec.items()
            if qw != 0.0
        )
    return raw


# ------------------------------- baselines ---------------------------------

def _mean_log_ratio(
    stats: QueryGroupStats,
    sizes: Mapping[str, int],
    counts: Mapping[str, Mapping[str, int]],
) -> dict[str, float]:
    """Query-weighted mean of log2(sizes[g] / counts[term][g]) per group.

    A zero count is smoothed to 0.5; a group of size zero scores 0.
    """
    total = float_sum(stats.qtf.values())
    raw = {}
    for group, size in sizes.items():
        if size == 0 or total == 0.0:
            raw[group] = 0.0
            continue
        acc = 0.0
        for term, w in stats.qtf.items():
            c = counts[term][group]
            acc += w * math.log2(size / (c if c > 0 else SMOOTH))
        raw[group] = acc / total
    return raw


def _avidf(stats: QueryGroupStats, k: int, cori_belief: float) -> dict[str, float]:
    """Mean log2(N_g / df_g) over query terms: average term specificity."""
    return _mean_log_ratio(stats, stats.n_g, stats.df_g)


def _avictf(stats: QueryGroupStats, k: int, cori_belief: float) -> dict[str, float]:
    """Mean log2(tokens_g / cf_g) over query terms."""
    return _mean_log_ratio(stats, stats.tokens_g, stats.cf_g)


def _scs(stats: QueryGroupStats, k: int, cori_belief: float) -> dict[str, float]:
    """KL of the query language model from each group's language model."""
    total = float_sum(stats.qtf.values())
    raw = {}
    for group, tokens_g in stats.tokens_g.items():
        if tokens_g == 0 or total == 0.0:
            raw[group] = 0.0
            continue
        acc = 0.0
        for term, w in stats.qtf.items():
            p_q = w / total
            if p_q == 0.0:
                continue
            cf_g = stats.cf_g[term][group]
            p_c = (cf_g if cf_g > 0 else SMOOTH) / tokens_g
            acc += p_q * math.log2(p_q / p_c)
        raw[group] = acc
    return raw


def _avpmi(stats: QueryGroupStats, k: int, cori_belief: float) -> dict[str, float]:
    """Mean pointwise mutual information over unordered query-term pairs.

    Probabilities are smoothed document-occurrence fractions within the
    group (counts + 0.5), so never-co-occurring terms stay finite.
    Queries with fewer than two distinct terms fall back to AvIDF.
    """
    terms = list(stats.qtf)
    if len(terms) < 2:  # AvIDF
        return _mean_log_ratio(stats, stats.n_g, stats.df_g)
    pairs = [(terms[i], terms[j]) for i in range(len(terms)) for j in range(i + 1, len(terms))]
    raw = {}
    for group, n_g in stats.n_g.items():
        if n_g == 0:
            raw[group] = 0.0
            continue
        p = {term: (stats.df_g[term][group] + SMOOTH) / n_g for term in terms}
        acc = 0.0
        for t1, t2 in pairs:
            docs1 = stats.postings[t1][group]
            docs2 = stats.postings[t2][group]
            both = len(docs1.keys() & docs2.keys()) if docs1 and docs2 else 0
            p12 = (both + SMOOTH) / n_g
            acc += math.log2(p12 / (p[t1] * p[t2]))
        raw[group] = acc / len(pairs)
    return raw


def _cori(stats: QueryGroupStats, k: int, cori_belief: float) -> dict[str, float]:
    """Mean CORI belief per group, treating each group as a collection.

    belief(t|g) = b + (1-b) * T * I with
    T = df_g / (df_g + 50 + 150 * cw_g / mean_cw) and
    I = ln((|G|+0.5)/gf(t)) / ln(|G|+1), gf(t) counting the groups that
    contain t. Terms in no group are skipped; if every term is skipped
    the output degenerates to uniform.
    """
    n_groups = len(stats.category.groups)
    mean_cw = sum(stats.tokens_g.values()) / n_groups
    gf = {term: sum(1 for c in counts.values() if c) for term, counts in stats.df_g.items()}
    # I once per term, in query order; a term in no group gets none and is skipped
    i_parts = {t: math.log((n_groups + 0.5) / n) / math.log(n_groups + 1.0) for t, n in gf.items() if n}

    b = cori_belief
    raw = {}
    for group, tokens_g in stats.tokens_g.items():
        acc = 0.0
        weight = 0.0
        for term, i_part in i_parts.items():
            w = stats.qtf[term]
            df_g = stats.df_g[term][group]
            if mean_cw > 0:
                t_part = df_g / (df_g + CORI_DF_BASE + CORI_DF_SCALE * tokens_g / mean_cw)
            else:
                t_part = 0.0
            acc += w * (b + (1.0 - b) * t_part * i_part)
            weight += w
        raw[group] = acc / weight if weight > 0 else 0.0
    return raw


def _uniform(stats: QueryGroupStats, k: int, cori_belief: float) -> dict[str, float]:
    """Query-independent uniform prediction; a floor for real predictors."""
    return dict.fromkeys(stats.category.groups, 1.0)


# ------------------------------- registry ----------------------------------

#: every predictor's raw group scores, by name; the only list of predictor names
_FORMULAS: dict[str, Callable[[QueryGroupStats, int, float], dict[str, float]]] = {
    "gep": _gep,
    "scs": _scs,
    "avidf": _avidf,
    "avictf": _avictf,
    "avpmi": _avpmi,
    "cori": _cori,
    "uniform": _uniform,
}
PREDICTORS = tuple(_FORMULAS)
BASELINES = PREDICTORS[1:-1]  # the adapted QPP baselines: all but GEP and uniform

PredictorFn = Callable[[CollectionIndex, Query, str], PredictorOutput]


def make_predictors(
    names: Sequence[str],
    k: int = 100,
    cori_belief: float = CORI_BELIEF,
) -> dict[str, PredictorFn]:
    """Bind predictor names to (index, query, category) callables.

    The callables share the last table they built: consecutive calls on
    the same index (the same object), an equal query and the same category
    build it once, so a caller that loops category, then predictor, builds
    one per (query, category). The names (at least one, none repeated),
    ``k`` and ``cori_belief`` are checked here, before any call.
    """
    if not names:
        raise ValueError("at least one predictor is required")
    reject_repeats("the predictor list", names)
    for name in names:
        if name not in _FORMULAS:
            raise ValueError(f"unknown predictor {name!r} (choose from {PREDICTORS})")
    if k < 1:
        raise ValueError("k must be >= 1")
    if not 0.0 <= cori_belief <= 1.0:
        raise ValueError("cori belief must lie in [0, 1]")
    # (index, query, category, table) of the last build, replaced whole, so
    # concurrent callers never pair one key with another key's table
    memo = (None, None, None, None)

    def bind(name: str) -> PredictorFn:
        def predictor(index: CollectionIndex, query: Query, category: str) -> PredictorOutput:
            nonlocal memo
            last = memo
            if last[0] is index and last[1] == query and last[2] == category:
                stats = last[3]
            else:
                stats = query_group_stats(index, query, category)
                memo = (index, query, category, stats)
            return _finish(name, stats, k, cori_belief)
        return predictor

    return {name: bind(name) for name in names}
