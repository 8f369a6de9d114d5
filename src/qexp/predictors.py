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
    into ``df_g[term][group]`` and ``cf_g[term][group]``. ``n_g`` and
    ``tokens_g`` are the index's own per-category mappings.
    """

    category: Category
    qtf: dict[str, float]        # weight per distinct query term, query order
    num_docs: int                # documents in the collection
    df: dict[str, int]           # collection df per distinct query term
    n_g: Mapping[str, int]       # documents per group, group order
    tokens_g: Mapping[str, int]  # tokens per group, group order
    df_g: dict[str, dict[str, int]]  # group df per distinct query term
    cf_g: dict[str, dict[str, int]]  # group cf per distinct query term
    postings: dict[str, dict[str, dict[str, int]]]


def query_group_stats(index: CollectionIndex, query: Query, category: str) -> QueryGroupStats:
    """Collect the query's per-group counts.

    Rejects an empty query and one whose total weight overflows the float range.
    """
    if not query.terms:
        raise ValueError("cannot predict for an empty query")
    cat = index.category(category)
    qtf = query.qtf()
    if not math.isfinite(float_sum(qtf.values())):
        raise ValueError("the total query weight overflows the float range")
    postings = {term: index.group_postings(term, category) for term in qtf}
    df_g = {term: {g: len(docs) for g, docs in split.items()} for term, split in postings.items()}
    return QueryGroupStats(
        category=cat,
        qtf=qtf,
        num_docs=index.num_docs,
        df={term: sum(counts.values()) for term, counts in df_g.items()},
        n_g=index.group_doc_counts(category),
        tokens_g=index.group_token_counts(category),
        df_g=df_g,
        cf_g={term: {g: sum(d.values()) for g, d in split.items()} for term, split in postings.items()},
        postings=postings,
    )


def _finish(name: str, stats: QueryGroupStats, k: int, cori_belief: float) -> PredictorOutput:
    """Run the named formula, floor its scores at zero and normalize them.

    Rejects scores whose sum is not finite, as a NaN or infinite score
    makes it: the floor would turn a NaN into 0.
    """
    category = stats.category
    raw = _FORMULAS[name](stats, k, cori_belief)
    if not math.isfinite(float_sum(raw)):
        raise ValueError(f"{name} scores in category {category.name!r} overflow the float range")
    dist = normalize_exposure(category.name, category.groups, [s if s > 0.0 else 0.0 for s in raw])
    return PredictorOutput(name, tuple(raw), dist)


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
    # idf >= 0, so the largest tfs give the largest tf * idf, in the same order
    tfs = sorted(plist.values(), reverse=True)
    del tfs[k:]
    return float_sum([tf * idf for tf in tfs]) / k


def gep_query_vector(stats: QueryGroupStats) -> dict[str, float]:
    """qtf * collection `bm25_idf` per distinct query term; unindexed terms get 0."""
    return {
        term: qtf * bm25_idf(stats.num_docs, stats.df[term]) if stats.df[term] else 0.0
        for term, qtf in stats.qtf.items()
    }


def _gep(stats: QueryGroupStats, k: int, cori_belief: float) -> list[float]:
    """Dot product of each group's top-k tf-idf vector with the query vector."""
    weighted = [(term, qw) for term, qw in gep_query_vector(stats).items() if qw != 0.0]
    raw = []
    for group in stats.category.groups:
        acc = 0.0
        for term, qw in weighted:
            acc += gep_group_term_score(stats, term, group, k) * qw
        raw.append(acc)
    return raw


# ------------------------------- baselines ---------------------------------

def _mean_log_ratio(
    stats: QueryGroupStats,
    sizes: Mapping[str, int],
    counts: Mapping[str, Mapping[str, int]],
) -> list[float]:
    """Query-weighted mean of log2(sizes[g] / counts[term][g]) per group.

    A zero count is smoothed to 0.5; a group of size zero scores 0.
    """
    total = float_sum(stats.qtf.values())
    rows = [(w, counts[term]) for term, w in stats.qtf.items()]
    raw = []
    for group, size in sizes.items():
        if size == 0 or total == 0.0:
            raw.append(0.0)
            continue
        acc = 0.0
        for w, row in rows:
            c = row[group]
            acc += w * math.log2(size / (c if c > 0 else SMOOTH))
        raw.append(acc / total)
    return raw


def _avidf(stats: QueryGroupStats, k: int, cori_belief: float) -> list[float]:
    """Mean log2(N_g / df_g) over query terms: average term specificity."""
    return _mean_log_ratio(stats, stats.n_g, stats.df_g)


def _avictf(stats: QueryGroupStats, k: int, cori_belief: float) -> list[float]:
    """Mean log2(tokens_g / cf_g) over query terms."""
    return _mean_log_ratio(stats, stats.tokens_g, stats.cf_g)


def _scs(stats: QueryGroupStats, k: int, cori_belief: float) -> list[float]:
    """KL of the query language model from each group's language model."""
    total = float_sum(stats.qtf.values())
    if total == 0.0:
        return [0.0] * len(stats.category.groups)
    rows = [(p_q, stats.cf_g[term]) for term, w in stats.qtf.items() if (p_q := w / total) != 0.0]
    raw = []
    for group, tokens_g in stats.tokens_g.items():
        if tokens_g == 0:
            raw.append(0.0)
            continue
        acc = 0.0
        for p_q, row in rows:
            cf_g = row[group]
            p_c = (cf_g if cf_g > 0 else SMOOTH) / tokens_g
            acc += p_q * math.log2(p_q / p_c)
        raw.append(acc)
    return raw


def _avpmi(stats: QueryGroupStats, k: int, cori_belief: float) -> list[float]:
    """Mean pointwise mutual information over unordered query-term pairs.

    Probabilities are smoothed document-occurrence fractions within the
    group (counts + 0.5), so never-co-occurring terms stay finite.
    Terms of zero weight form no pairs; queries with fewer than two
    distinct terms of nonzero weight fall back to AvIDF.
    """
    splits = [stats.postings[term] for term, w in stats.qtf.items() if w]
    n = len(splits)
    if n < 2:  # AvIDF
        return _mean_log_ratio(stats, stats.n_g, stats.df_g)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    raw = []
    for group, n_g in stats.n_g.items():
        if n_g == 0:
            raw.append(0.0)
            continue
        docs = [split[group] for split in splits]
        p = [(len(d) + SMOOTH) / n_g for d in docs]  # len(d) is the group df
        acc = 0.0
        for i, j in pairs:
            both = len(docs[i].keys() & docs[j].keys()) if docs[i] and docs[j] else 0
            acc += math.log2(((both + SMOOTH) / n_g) / (p[i] * p[j]))
        raw.append(acc / len(pairs))
    return raw


def _cori(stats: QueryGroupStats, k: int, cori_belief: float) -> list[float]:
    """Mean CORI belief per group, treating each group as a collection.

    belief(t|g) = b + (1-b) * T * I with
    T = df_g / (df_g + 50 + 150 * cw_g / mean_cw) and
    I = ln((|G|+0.5)/gf(t)) / ln(|G|+1), gf(t) counting the groups that
    contain t. Terms in no group are skipped; if every term is skipped
    the output degenerates to uniform.
    """
    n_groups = len(stats.category.groups)
    rows = []  # (qtf, group dfs, I) per term in some group, in query order
    for term, counts in stats.df_g.items():
        gf = sum(1 for c in counts.values() if c)
        if gf:
            i_part = math.log((n_groups + 0.5) / gf) / math.log(n_groups + 1.0)
            rows.append((stats.qtf[term], counts, i_part))
    if not rows:
        return [0.0] * n_groups
    # a term in some group makes the category's token count, and so mean_cw, positive
    mean_cw = sum(stats.tokens_g.values()) / n_groups
    weight = float_sum([w for w, _, _ in rows])
    b = cori_belief
    raw = []
    for group, tokens_g in stats.tokens_g.items():
        # df_g + CORI_DF_BASE + x adds x last, so x is computed once per group
        x = CORI_DF_SCALE * tokens_g / mean_cw
        acc = 0.0
        for w, counts, i_part in rows:
            df_g = counts[group]
            acc += w * (b + (1.0 - b) * (df_g / (df_g + CORI_DF_BASE + x)) * i_part)
        raw.append(acc / weight if weight > 0 else 0.0)
    return raw


def _uniform(stats: QueryGroupStats, k: int, cori_belief: float) -> list[float]:
    """Query-independent uniform prediction; a floor for real predictors."""
    return [1.0] * len(stats.category.groups)


# ------------------------------- registry ----------------------------------

#: every predictor's raw scores in group order, by name; the only list of predictor names
_FORMULAS: dict[str, Callable[[QueryGroupStats, int, float], list[float]]] = {
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
