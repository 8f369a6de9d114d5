"""Pre-retrieval predictors of per-group exposure distributions.

The group exposure predictor (GEP) represents each group by the per-term
mean of its k largest tf-idf scores and dots that vector with a
collection-level query vector. The baselines adapt classic query
performance predictors (AvIDF, AvICTF, SCS, AvPMI) and the CORI
resource-selection belief to per-group scoring. Every predictor emits
raw group scores floored at zero and normalized to a distribution, so
outputs are directly comparable to realized exposure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

from .corpus import Category, CollectionIndex
from .exposure import ExposureDistribution, normalize_exposure
from .retrieval import Query

#: replaces zero df/cf counts inside baseline logarithms
SMOOTH = 0.5

#: CORI's T = df_g / (df_g + CORI_DF_BASE + CORI_DF_SCALE * cw_g / mean_cw)
CORI_DF_BASE = 50.0
CORI_DF_SCALE = 150.0

#: collection idf variants of GEP's query vector, as f(N, df)
_QUERY_IDF: dict[str, Callable[[int, int], float]] = {
    "bm25": lambda n, df: math.log2((n - df + SMOOTH) / (df + SMOOTH)),
    "classic": lambda n, df: math.log2(n / df),
}
QUERY_IDFS = tuple(_QUERY_IDF)


@dataclass(frozen=True)
class PredictorConfig:
    floor_idf: bool = True        # clamp negative idf values at zero
    query_idf: str = "bm25"       # one of QUERY_IDFS: collection idf of GEP's query vector
    cori_belief: float = 0.4      # default belief (the b parameter)


DEFAULT_CONFIG = PredictorConfig()


@dataclass(frozen=True)
class PredictorOutput:
    predictor: str
    category: str
    groups: tuple[str, ...]
    raw_scores: tuple[float, ...]
    distribution: ExposureDistribution

    def to_dict(self, query_id: str | None = None) -> dict:
        return {
            "query_id": query_id,
            "category": self.category,
            "predictor": self.predictor,
            "groups": list(self.groups),
            "distribution": list(self.distribution.values),
            "degenerate": self.distribution.degenerate,
        }


@dataclass(frozen=True)
class QueryGroupStats:
    """Every count a predictor reads for one query in one category.

    ``postings[term][group]`` maps the group's documents containing the
    term to its frequency there, so a term's group df is the length and
    its group cf the sum of that mapping.
    """

    category: Category
    qtf: dict[str, float]        # weight per distinct query term, query order
    num_docs: int                # documents in the collection
    df: dict[str, int]           # collection df per distinct query term
    n_g: dict[str, int]          # documents per group
    tokens_g: dict[str, int]     # tokens per group
    postings: dict[str, dict[str, dict[str, int]]]


def query_group_stats(index: CollectionIndex, query: Query, category: str) -> QueryGroupStats:
    """Collect the query's per-group counts; rejects an empty query."""
    if not query.terms:
        raise ValueError("cannot predict for an empty query")
    cat = index.category(category)
    qtf = query.qtf()
    postings = {term: index.group_postings(term, category) for term in qtf}
    return QueryGroupStats(
        category=cat,
        qtf=qtf,
        num_docs=index.num_docs,
        df={term: sum(map(len, split.values())) for term, split in postings.items()},
        n_g={g: index.group_doc_count(category, g) for g in cat.groups},
        tokens_g={g: index.group_token_count(category, g) for g in cat.groups},
        postings=postings,
    )


def _finish(name: str, category: Category, raw: Mapping[str, float]) -> PredictorOutput:
    """Floor raw scores at zero and normalize them into a distribution."""
    floored = {g: max(0.0, raw[g]) for g in category.groups}
    dist = normalize_exposure(category.name, category.groups, floored)
    return PredictorOutput(
        name,
        category.name,
        category.groups,
        tuple(raw[g] for g in category.groups),
        dist,
    )


# --------------------------------- GEP -------------------------------------

def gep_group_term_score(
    stats: QueryGroupStats,
    term: str,
    group: str,
    k: int,
    config: PredictorConfig = DEFAULT_CONFIG,
) -> float:
    """Mean of the k largest tf-idf scores of the group's documents.

    The group idf is log2((|d_g| - df_g + 0.5) / (df_g + 0.5)), floored
    by default. Terms appearing in fewer than k group documents are
    padded with zeros, so a single high-scoring document cannot
    dominate: one document can occupy only one ranking position.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    plist = stats.postings[term][group]
    if not plist:
        return 0.0
    df_g = len(plist)
    idf = math.log2((stats.n_g[group] - df_g + SMOOTH) / (df_g + SMOOTH))
    if config.floor_idf:
        idf = max(0.0, idf)
    scores = sorted((tf * idf for tf in plist.values()), reverse=True)
    return sum(scores[:k]) / k


def gep_query_vector(
    stats: QueryGroupStats,
    config: PredictorConfig = DEFAULT_CONFIG,
) -> dict[str, float]:
    """qtf * collection idf per distinct query term; unindexed terms get 0."""
    if config.query_idf not in _QUERY_IDF:
        raise ValueError(f"unknown query idf variant {config.query_idf!r}")
    idf_of = _QUERY_IDF[config.query_idf]
    out: dict[str, float] = {}
    for term, qtf in stats.qtf.items():
        df = stats.df[term]
        if df == 0:
            out[term] = 0.0
            continue
        idf = idf_of(stats.num_docs, df)
        if config.floor_idf:
            idf = max(0.0, idf)
        out[term] = qtf * idf
    return out


def predict_gep(
    index: CollectionIndex,
    query: Query,
    category: str,
    k: int = 100,
    config: PredictorConfig = DEFAULT_CONFIG,
) -> PredictorOutput:
    """Dot product of each group's top-k tf-idf vector with the query vector."""
    stats = query_group_stats(index, query, category)
    qvec = gep_query_vector(stats, config)
    raw = {}
    for group in stats.category.groups:
        raw[group] = sum(
            gep_group_term_score(stats, term, group, k, config) * qw
            for term, qw in qvec.items()
            if qw != 0.0
        )
    return _finish("gep", stats.category, raw)


# ------------------------------- baselines ---------------------------------

def _mean_log_ratio(
    stats: QueryGroupStats,
    sizes: Mapping[str, int],
    count: Callable[[Mapping[str, int]], int],
) -> dict[str, float]:
    """Query-weighted mean of log2(sizes[g] / count(group postings)) per group.

    A zero count is smoothed to 0.5; a group of size zero scores 0.
    """
    total = sum(stats.qtf.values())
    raw = {}
    for group, size in sizes.items():
        if size == 0 or total == 0.0:
            raw[group] = 0.0
            continue
        acc = 0.0
        for term, w in stats.qtf.items():
            c = count(stats.postings[term][group])
            acc += w * math.log2(size / (c if c > 0 else SMOOTH))
        raw[group] = acc / total
    return raw


def _cf(plist: Mapping[str, int]) -> int:
    return sum(plist.values())


def predict_avidf(
    index: CollectionIndex,
    query: Query,
    category: str,
    config: PredictorConfig = DEFAULT_CONFIG,
) -> PredictorOutput:
    """Mean log2(N_g / df_g) over query terms: average term specificity."""
    stats = query_group_stats(index, query, category)
    return _finish("avidf", stats.category, _mean_log_ratio(stats, stats.n_g, len))


def predict_avictf(
    index: CollectionIndex,
    query: Query,
    category: str,
    config: PredictorConfig = DEFAULT_CONFIG,
) -> PredictorOutput:
    """Mean log2(tokens_g / cf_g) over query terms."""
    stats = query_group_stats(index, query, category)
    return _finish("avictf", stats.category, _mean_log_ratio(stats, stats.tokens_g, _cf))


def predict_scs(
    index: CollectionIndex,
    query: Query,
    category: str,
    config: PredictorConfig = DEFAULT_CONFIG,
) -> PredictorOutput:
    """KL of the query language model from each group's language model."""
    stats = query_group_stats(index, query, category)
    total = sum(stats.qtf.values())
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
            cf_g = _cf(stats.postings[term][group])
            p_c = (cf_g if cf_g > 0 else SMOOTH) / tokens_g
            acc += p_q * math.log2(p_q / p_c)
        raw[group] = acc
    return _finish("scs", stats.category, raw)


def predict_avpmi(
    index: CollectionIndex,
    query: Query,
    category: str,
    config: PredictorConfig = DEFAULT_CONFIG,
) -> PredictorOutput:
    """Mean pointwise mutual information over unordered query-term pairs.

    Probabilities are smoothed document-occurrence fractions within the
    group (counts + 0.5), so never-co-occurring terms stay finite.
    Queries with fewer than two distinct terms fall back to AvIDF.
    """
    stats = query_group_stats(index, query, category)
    terms = list(stats.qtf)
    if len(terms) < 2:  # AvIDF
        return _finish("avpmi", stats.category, _mean_log_ratio(stats, stats.n_g, len))
    pairs = [(terms[i], terms[j]) for i in range(len(terms)) for j in range(i + 1, len(terms))]
    raw = {}
    for group, n_g in stats.n_g.items():
        if n_g == 0:
            raw[group] = 0.0
            continue
        acc = 0.0
        for t1, t2 in pairs:
            docs1 = stats.postings[t1][group]
            docs2 = stats.postings[t2][group]
            p1 = (len(docs1) + SMOOTH) / n_g
            p2 = (len(docs2) + SMOOTH) / n_g
            p12 = (len(docs1.keys() & docs2.keys()) + SMOOTH) / n_g
            acc += math.log2(p12 / (p1 * p2))
        raw[group] = acc / len(pairs)
    return _finish("avpmi", stats.category, raw)


def predict_cori(
    index: CollectionIndex,
    query: Query,
    category: str,
    config: PredictorConfig = DEFAULT_CONFIG,
) -> PredictorOutput:
    """Mean CORI belief per group, treating each group as a collection.

    belief(t|g) = b + (1-b) * T * I with
    T = df_g / (df_g + 50 + 150 * cw_g / mean_cw) and
    I = ln((|G|+0.5)/gf(t)) / ln(|G|+1), gf(t) counting the groups that
    contain t. Terms in no group are skipped; if every term is skipped
    the output degenerates to uniform.
    """
    stats = query_group_stats(index, query, category)
    n_groups = len(stats.category.groups)
    mean_cw = sum(stats.tokens_g.values()) / n_groups
    gf = {term: sum(1 for docs in split.values() if docs) for term, split in stats.postings.items()}

    b = config.cori_belief
    raw = {}
    for group, tokens_g in stats.tokens_g.items():
        acc = 0.0
        weight = 0.0
        for term, w in stats.qtf.items():
            if gf[term] == 0:
                continue  # term absent from every group
            df_g = len(stats.postings[term][group])
            if mean_cw > 0:
                t_part = df_g / (df_g + CORI_DF_BASE + CORI_DF_SCALE * tokens_g / mean_cw)
            else:
                t_part = 0.0
            i_part = math.log((n_groups + 0.5) / gf[term]) / math.log(n_groups + 1.0)
            acc += w * (b + (1.0 - b) * t_part * i_part)
            weight += w
        raw[group] = acc / weight if weight > 0 else 0.0
    return _finish("cori", stats.category, raw)


def predict_uniform(
    index: CollectionIndex,
    query: Query,
    category: str,
    config: PredictorConfig = DEFAULT_CONFIG,
) -> PredictorOutput:
    """Query-independent uniform prediction; a floor for real predictors."""
    cat = query_group_stats(index, query, category).category
    return _finish("uniform", cat, dict.fromkeys(cat.groups, 1.0))


# ------------------------------- registry ----------------------------------

PredictorFn = Callable[[CollectionIndex, Query, str], PredictorOutput]

BASELINES = ("scs", "avidf", "avictf", "avpmi", "cori")
PREDICTORS = ("gep",) + BASELINES + ("uniform",)


def make_predictor(
    name: str,
    k: int = 100,
    config: PredictorConfig = DEFAULT_CONFIG,
) -> PredictorFn:
    """Bind a registered predictor name to a (index, query, category) callable."""
    if name == "gep":
        return lambda index, query, category: predict_gep(index, query, category, k, config)
    simple = {
        "avidf": predict_avidf,
        "avictf": predict_avictf,
        "scs": predict_scs,
        "avpmi": predict_avpmi,
        "cori": predict_cori,
        "uniform": predict_uniform,
    }
    if name not in simple:
        raise ValueError(f"unknown predictor {name!r}")
    fn = simple[name]
    return lambda index, query, category: fn(index, query, category, config)


def make_predictors(
    names: Sequence[str] | Iterable[str],
    k: int = 100,
    config: PredictorConfig = DEFAULT_CONFIG,
) -> dict[str, PredictorFn]:
    return {name: make_predictor(name, k, config) for name in names}
