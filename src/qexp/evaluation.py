"""Scoring predictions against realized exposure and running experiments.

Prediction quality is the Jensen-Shannon distance (base-2 logs, so the
range is [0, 1]) between the predicted and the realized exposure
distribution. The experiment driver ranks every query with every
configured pipeline, feeds predictors the original (unexpanded) query,
and aggregates means, per-query dispersion (coefficient of variation)
and paired t-tests with Bonferroni correction.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from .corpus import CollectionIndex
from .exposure import DCG, ExposureDistribution, realized_exposure
from .expansion import ExpansionConfig, ExpansionResult, EXPANDERS
from .predictors import PredictorFn, PredictorOutput
from .retrieval import Query, Ranking, rank, read_run_file
from .stats import student_t_two_sided_p


def _values(dist) -> Sequence[float]:
    return dist.values if isinstance(dist, ExposureDistribution) else dist


def _check_distribution(values: Sequence[float]) -> None:
    if any(v < 0 for v in values):
        raise ValueError("distribution values must be nonnegative")
    if abs(sum(values) - 1.0) > 1e-9:
        raise ValueError("distribution values must sum to 1")


def jsd(p, e) -> float:
    """Jensen-Shannon distance between two distributions of equal dimension."""
    pv, ev = _values(p), _values(e)
    if len(pv) != len(ev):
        raise ValueError("distributions must have the same dimension")
    _check_distribution(pv)
    _check_distribution(ev)
    acc = 0.0
    for pi, ei in zip(pv, ev):
        mi = 0.5 * (pi + ei)
        if pi > 0.0:
            acc += 0.5 * pi * math.log2(pi / mi)
        if ei > 0.0:
            acc += 0.5 * ei * math.log2(ei / mi)
    return math.sqrt(max(acc, 0.0))


def coefficient_of_variation(values: Sequence[float], sample: bool = False) -> float:
    """Standard deviation over mean, as a percentage.

    Population standard deviation by default: a group-exposure vector is
    a complete distribution, not a sample from one.
    """
    n = len(values)
    if n == 0:
        raise ValueError("empty input")
    mean = sum(values) / n
    if mean <= 0.0:
        raise ValueError("coefficient of variation requires a positive mean")
    denom = n - 1 if sample else n
    if denom == 0:
        raise ValueError("sample standard deviation needs at least two values")
    var = sum((v - mean) ** 2 for v in values) / denom
    return math.sqrt(var) / mean * 100.0


def paired_t_test(a: Sequence[float], b: Sequence[float]) -> tuple[float, float]:
    """Two-sided paired Student t-test; returns (t, p)."""
    if len(a) != len(b):
        raise ValueError("paired samples must have the same length")
    n = len(a)
    if n < 2:
        raise ValueError("paired t-test needs at least two pairs")
    diffs = [x - y for x, y in zip(a, b)]
    mean = sum(diffs) / n
    var = sum((d - mean) ** 2 for d in diffs) / (n - 1)
    if var == 0.0:
        raise ValueError("zero-variance differences: t statistic undefined")
    t = mean / math.sqrt(var / n)
    return t, student_t_two_sided_p(t, n - 1)


def bonferroni(p_values: Sequence[float], m: int) -> list[float]:
    """Adjust p-values for m comparisons: p' = min(1, p * m)."""
    if m < 1:
        raise ValueError("number of comparisons must be >= 1")
    return [min(1.0, p * m) for p in p_values]


# ------------------------------ experiment ----------------------------------

class ModelRanker:
    """Ranks with a retrieval model; usable as first pass and for re-ranking."""

    def __init__(self, model: str = "bm25"):
        self.name = model

    def rank(self, index: CollectionIndex, query: Query, k: int) -> Ranking:
        return rank(index, query, self.name, k)


class RunFileRanker:
    """Serves rankings from an externally produced TREC run file.

    A query whose entries are not a valid ranking (ranks that disagree
    with the scores, a repeated document) fails alone when it is ranked.
    """

    def __init__(self, path, name: str | None = None):
        self.path = path
        self.name = name or f"runfile:{path}"
        self._entries = read_run_file(path)

    def rank(self, index: CollectionIndex, query: Query, k: int) -> Ranking:
        entries = self._entries.get(query.query_id)
        if entries is None:
            raise KeyError(f"run file has no ranking for query {query.query_id!r}")
        try:
            ranking = Ranking(query.query_id, entries, len(entries))
        except ValueError as exc:
            raise ValueError(f"{self.path}: query {query.query_id!r}: {exc}") from None
        return ranking.top(k)


class QueryExpander:
    """Named PRF expander applied between the two ranking passes."""

    def __init__(self, method: str, config: ExpansionConfig = ExpansionConfig()):
        if method not in EXPANDERS:
            raise ValueError(f"unknown expander {method!r}")
        self.name = method
        self._fn = EXPANDERS[method]
        self.config = config

    def expand(self, index, query, ranking) -> ExpansionResult:
        return self._fn(index, query, ranking, self.config)


@dataclass(frozen=True)
class Row:
    ranker: str
    expander: str  # "none" when no PRF is applied
    query_id: str
    category: str
    predictor: str
    jsd: float


@dataclass(frozen=True)
class CvRow:
    ranker: str
    expander: str
    query_id: str
    category: str
    cv_percent: float
    degenerate: bool


@dataclass(frozen=True)
class Comparison:
    baseline: str
    t: float | None
    p: float | None
    adjusted_p: float | None
    significant: bool
    note: str = ""


@dataclass(frozen=True)
class Failure:
    ranker: str
    expander: str
    query_id: str
    stage: str
    error: str


@dataclass
class PipelineSummary:
    ranker: str
    expander: str
    # category -> predictor -> mean JSD
    mean_jsd: dict[str, dict[str, float]] = field(default_factory=dict)
    # category -> list of comparisons of the reference predictor vs baselines
    significance: dict[str, list[Comparison]] = field(default_factory=dict)


@dataclass
class PredictionReport:
    rows: list[Row]
    cv_rows: list[CvRow]
    summaries: list[PipelineSummary]
    failures: list[Failure]
    k: int
    alpha: float
    comparisons: int
    reference: str

    def write_jsd_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["ranker", "expander", "query_id", "category", "predictor", "jsd"])
            for r in self.rows:
                writer.writerow([r.ranker, r.expander, r.query_id, r.category, r.predictor, repr(r.jsd)])

    def write_cv_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["ranker", "expander", "query_id", "category", "cv_percent", "degenerate"])
            for r in self.cv_rows:
                writer.writerow([r.ranker, r.expander, r.query_id, r.category, repr(r.cv_percent), int(r.degenerate)])

    def to_summary_dict(self) -> dict:
        pipelines = []
        for s in self.summaries:
            pipelines.append(
                {
                    "ranker": s.ranker,
                    "expander": s.expander,
                    "categories": {
                        cat: {
                            "mean_jsd": s.mean_jsd[cat],
                            "significance": {
                                c.baseline: {
                                    "t": c.t,
                                    "p": c.p,
                                    "adjusted_p": c.adjusted_p,
                                    "significant": c.significant,
                                    "note": c.note,
                                }
                                for c in s.significance.get(cat, [])
                            },
                        }
                        for cat in s.mean_jsd
                    },
                }
            )
        return {
            "k": self.k,
            "alpha": self.alpha,
            "comparisons": self.comparisons,
            "reference": self.reference,
            "pipelines": pipelines,
            "failures": [
                {
                    "ranker": f.ranker,
                    "expander": f.expander,
                    "query_id": f.query_id,
                    "stage": f.stage,
                    "error": f.error,
                }
                for f in self.failures
            ],
        }

    def write_summary_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_summary_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def run_experiment(
    index: CollectionIndex,
    queries: Sequence[Query],
    categories: Sequence[str] | None,
    rankers: Sequence[ModelRanker | RunFileRanker],
    expanders: Sequence[QueryExpander | None],
    predictors: Mapping[str, PredictorFn],
    k: int = 100,
    *,
    alpha: float = 0.01,
    comparisons: int | None = None,
    exposure_formula: str = DCG,
    reference: str = "gep",
) -> PredictionReport:
    """Rank, measure realized exposure, score every predictor with JSD.

    Expansion rewrites the query between two ranking passes, but the
    predictors always see the original query: a pre-retrieval predictor
    has no knowledge of how the query might be changed downstream. A
    query that fails in any stage of a pipeline is recorded and skipped;
    it does not abort the experiment.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    category_names = (
        [c.name for c in index.categories] if categories is None else list(categories)
    )
    for name in category_names:
        index.category(name)
    seen: set[str] = set()
    for q in queries:
        if q.query_id is None:
            raise ValueError("experiment queries need a query_id")
        if q.query_id in seen:
            raise ValueError(f"duplicate query id {q.query_id!r}")
        seen.add(q.query_id)
    for r in rankers:
        if isinstance(r, RunFileRanker) and any(e is not None for e in expanders):
            raise ValueError(
                "run-file rankers cannot re-rank expanded queries; "
                "use expander 'none' with run files"
            )

    rows: list[Row] = []
    cv_rows: list[CvRow] = []
    failures: list[Failure] = []
    # (ranker, expander, category, predictor) -> {query_id: jsd}
    per_query: dict[tuple[str, str, str, str], dict[str, float]] = {}

    predictions_cache: dict[tuple[str, str, str], PredictorOutput] = {}

    for ranker in rankers:
        for expander in expanders:
            exp_name = expander.name if expander is not None else "none"
            for query in queries:
                qid = query.query_id
                try:
                    if expander is None:
                        final = ranker.rank(index, query, k)
                    else:
                        first = ranker.rank(index, query, k)
                        result = expander.expand(index, query, first)
                        final = ranker.rank(index, result.query, k)
                except Exception as exc:  # per-query failure, not fatal
                    failures.append(
                        Failure(ranker.name, exp_name, qid, "ranking", str(exc))
                    )
                    continue
                for category in category_names:
                    try:
                        realized = realized_exposure(
                            final, index, category, exposure_formula
                        )
                    except Exception as exc:
                        failures.append(
                            Failure(ranker.name, exp_name, qid, "exposure", str(exc))
                        )
                        continue
                    cv_rows.append(
                        CvRow(
                            ranker.name,
                            exp_name,
                            qid,
                            category,
                            coefficient_of_variation(realized.values),
                            realized.degenerate,
                        )
                    )
                    for pname, predictor in predictors.items():
                        cache_key = (qid, category, pname)
                        try:
                            prediction = predictions_cache.get(cache_key)
                            if prediction is None:
                                prediction = predictor(index, query, category)
                                predictions_cache[cache_key] = prediction
                            distance = jsd(prediction.distribution, realized)
                        except Exception as exc:
                            failures.append(
                                Failure(ranker.name, exp_name, qid, f"predict:{pname}", str(exc))
                            )
                            continue
                        rows.append(
                            Row(ranker.name, exp_name, qid, category, pname, distance)
                        )
                        per_query.setdefault(
                            (ranker.name, exp_name, category, pname), {}
                        )[qid] = distance

    rows.sort(key=lambda r: (r.ranker, r.expander, r.query_id, r.category, r.predictor))
    cv_rows.sort(key=lambda r: (r.ranker, r.expander, r.query_id, r.category))

    others = [p for p in predictors if p != reference]
    m = comparisons if comparisons is not None else max(1, len(others))
    summaries = []
    for ranker in rankers:
        for expander in expanders:
            exp_name = expander.name if expander is not None else "none"
            summary = PipelineSummary(ranker.name, exp_name)
            for category in category_names:
                means: dict[str, float] = {}
                for pname in predictors:
                    values = per_query.get((ranker.name, exp_name, category, pname), {})
                    if values:
                        means[pname] = sum(values.values()) / len(values)
                summary.mean_jsd[category] = means
                if reference in predictors:
                    summary.significance[category] = _compare_to_reference(
                        per_query, ranker.name, exp_name, category,
                        reference, others, m, alpha,
                    )
            summaries.append(summary)

    return PredictionReport(
        rows=rows,
        cv_rows=cv_rows,
        summaries=summaries,
        failures=failures,
        k=k,
        alpha=alpha,
        comparisons=m,
        reference=reference,
    )


def _compare_to_reference(per_query, ranker, expander, category, reference, others, m, alpha):
    ref = per_query.get((ranker, expander, category, reference), {})
    comparisons = []
    for baseline in others:
        base = per_query.get((ranker, expander, category, baseline), {})
        shared = sorted(set(ref) & set(base))
        if len(shared) < 2:
            comparisons.append(
                Comparison(baseline, None, None, None, False, "too few paired queries")
            )
            continue
        a = [ref[q] for q in shared]
        b = [base[q] for q in shared]
        try:
            t, p = paired_t_test(a, b)
        except ValueError as exc:
            comparisons.append(Comparison(baseline, None, None, None, False, str(exc)))
            continue
        adj = bonferroni([p], m)[0]
        comparisons.append(Comparison(baseline, t, p, adj, adj < alpha))
    return comparisons
