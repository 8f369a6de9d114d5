"""Scoring predictions against realized exposure and running experiments.

Prediction quality is the Jensen-Shannon distance (base-2 logs, so the
range is [0, 1]) between the predicted and the realized exposure
distribution. The experiment driver ranks every query with every
configured pipeline (a ranker's first pass once, shared by all its
expanders), feeds predictors the original (unexpanded) query,
and aggregates means, per-query dispersion (coefficient of variation)
and paired t-tests with Bonferroni correction.
"""

from __future__ import annotations

import csv
import json
import math
from typing import Mapping, NamedTuple, Sequence

from .corpus import CollectionIndex, reject_repeats
from .exposure import ExposureDistribution, check_distribution, float_sum, realized_exposure
from .expansion import ExpansionResult, EXPANDERS
from .predictors import PredictorFn, PredictorOutput
from .retrieval import RANKERS, Query, Ranking, rank, read_run_file
from .stats import student_t_two_sided_p

#: level of the Bonferroni-corrected t-tests; summary.json reports every raw p
ALPHA = 0.01
#: the predictor every other predictor is t-tested against
REFERENCE = "gep"


def _values(dist) -> Sequence[float]:
    return dist.values if isinstance(dist, ExposureDistribution) else dist


def jsd(p, e) -> float:
    """Jensen-Shannon distance between two distributions of equal dimension."""
    pv, ev = _values(p), _values(e)
    if len(pv) != len(ev):
        raise ValueError("distributions must have the same dimension")
    check_distribution(pv, "distribution values")
    check_distribution(ev, "distribution values")
    acc = 0.0
    for pi, ei in zip(pv, ev):
        mi = 0.5 * (pi + ei)
        if pi > 0.0:
            acc += 0.5 * pi * math.log2(pi / mi)
        if ei > 0.0:
            acc += 0.5 * ei * math.log2(ei / mi)
    return math.sqrt(max(acc, 0.0))


def coefficient_of_variation(values: Sequence[float]) -> float:
    """Population standard deviation over mean, as a percentage.

    A group-exposure vector is a complete distribution, not a sample
    from one.
    """
    n = len(values)
    if n == 0:
        raise ValueError("empty input")
    mean = float_sum(values) / n
    if mean <= 0.0:
        raise ValueError("coefficient of variation requires a positive mean")
    var = float_sum((v - mean) ** 2 for v in values) / n
    return math.sqrt(var) / mean * 100.0


def paired_t_test(a: Sequence[float], b: Sequence[float]) -> tuple[float, float]:
    """Two-sided paired Student t-test; returns (t, p)."""
    if len(a) != len(b):
        raise ValueError("paired samples must have the same length")
    n = len(a)
    if n < 2:
        raise ValueError("paired t-test needs at least two pairs")
    diffs = [x - y for x, y in zip(a, b)]
    mean = float_sum(diffs) / n
    var = float_sum((d - mean) ** 2 for d in diffs) / (n - 1)
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
        if model not in RANKERS:
            raise ValueError(f"unknown ranker {model!r} (choose from {sorted(RANKERS)})")
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
            ranking = Ranking(query.query_id, entries)
        except ValueError as exc:
            raise ValueError(f"{self.path}: query {query.query_id!r}: {exc}") from None
        return ranking.top(k)


class QueryExpander:
    """Named PRF expander applied between the two ranking passes."""

    def __init__(self, method: str):
        if method not in EXPANDERS:
            raise ValueError(f"unknown expander {method!r}")
        self.name = method
        self._fn = EXPANDERS[method]

    def expand(self, index, query, ranking) -> ExpansionResult:
        return self._fn(index, query, ranking)


class Row(NamedTuple):
    ranker: str
    expander: str  # "none" when no PRF is applied
    query_id: str
    category: str
    predictor: str
    jsd: float


class CvRow(NamedTuple):
    ranker: str
    expander: str
    query_id: str
    category: str
    cv_percent: float
    degenerate: bool


def error_message(exc: BaseException) -> str:
    """The exception's message; ``str`` of a KeyError would quote it."""
    if isinstance(exc, KeyError) and len(exc.args) == 1:
        return str(exc.args[0])
    return str(exc)


class Failure(NamedTuple):
    ranker: str
    expander: str
    query_id: str
    stage: str
    error: str


class PredictionReport:
    def __init__(self, rows: list[Row], cv_rows: list[CvRow], failures: list[Failure],
                 summary: dict):
        self.rows = rows
        self.cv_rows = cv_rows
        self.failures = failures
        # summary.json without its failures: k, alpha, comparisons, reference and
        # pipelines -> categories -> {mean_jsd, significance}
        self.summary = summary

    def write_jsd_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            # Row's fields are the columns in order, and csv writes a float as its repr
            writer.writerow(Row._fields)
            writer.writerows(self.rows)

    def write_cv_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["ranker", "expander", "query_id", "category", "cv_percent", "degenerate"])
            for r in self.cv_rows:
                writer.writerow([r.ranker, r.expander, r.query_id, r.category, repr(r.cv_percent), int(r.degenerate)])

    def write_summary_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            summary = {**self.summary, "failures": [f._asdict() for f in self.failures]}
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")


def check_experiment(
    categories: Sequence[str] | None, rankers: Sequence[ModelRanker | RunFileRanker],
    expanders: Sequence[QueryExpander | None], predictors: Mapping[str, PredictorFn], k: int,
) -> None:
    """Reject `run_experiment` arguments that are bad whatever the index and queries."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if not rankers:
        raise ValueError("at least one ranker or run file is required")
    if not expanders:
        raise ValueError("at least one expander is required ('none' for no expansion)")
    if not predictors:
        raise ValueError("at least one predictor is required")
    # rows and the summary are keyed by ranker, expander and category names
    reject_repeats("the ranker list", [r.name for r in rankers])
    reject_repeats("the expander list", ["none" if e is None else e.name for e in expanders])
    reject_repeats("the category list", categories or [])
    if any(isinstance(r, RunFileRanker) for r in rankers) and any(e is not None for e in expanders):
        raise ValueError(
            "run-file rankers cannot re-rank expanded queries; "
            "use expander 'none' with run files"
        )


def run_experiment(
    index: CollectionIndex,
    queries: Sequence[Query],
    categories: Sequence[str] | None,
    rankers: Sequence[ModelRanker | RunFileRanker],
    expanders: Sequence[QueryExpander | None],
    predictors: Mapping[str, PredictorFn],
    k: int = 100,
) -> PredictionReport:
    """Rank, measure realized exposure, score every predictor with JSD.

    Expansion rewrites the query between two ranking passes, but the
    predictors always see the original query: a pre-retrieval predictor
    has no knowledge of how the query might be changed downstream. A
    query that fails in any stage of a pipeline is recorded and skipped;
    it does not abort the experiment.
    """
    check_experiment(categories, rankers, expanders, predictors, k)
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
    pipelines = [
        (ranker, expander, "none" if expander is None else expander.name)
        for ranker in rankers
        for expander in expanders
    ]

    rows: list[Row] = []
    cv_rows: list[CvRow] = []
    failures: list[Failure] = []
    # (ranker, expander, category) -> predictor -> {query_id: jsd}, in query order
    per_query: dict[tuple[str, str, str], dict[str, dict[str, float]]] = {}

    predictions_cache: dict[tuple[str, str, str], PredictorOutput] = {}
    # (ranker, query_id) -> first-pass ranking, shared by every expander of
    # the ranker. A first pass that raised is not kept, so each pipeline
    # records it.
    first_passes: dict[tuple[object, str], Ranking] = {}

    for ranker, expander, exp_name in pipelines:
        for query in queries:
            qid = query.query_id
            try:
                first = first_passes.get((ranker, qid))
                if first is None:
                    first = first_passes[(ranker, qid)] = ranker.rank(index, query, k)
                if expander is None:
                    final = first
                else:
                    result = expander.expand(index, query, first)
                    final = ranker.rank(index, result.query, k)
            except Exception as exc:  # per-query failure, not fatal
                failures.append(
                    Failure(ranker.name, exp_name, qid, "ranking", error_message(exc))
                )
                continue
            for category in category_names:
                try:
                    realized = realized_exposure(final, index, category)
                except Exception as exc:
                    failures.append(
                        Failure(ranker.name, exp_name, qid, "exposure", error_message(exc))
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
                            Failure(ranker.name, exp_name, qid, f"predict:{pname}", error_message(exc))
                        )
                        continue
                    rows.append(Row(ranker.name, exp_name, qid, category, pname, distance))
                    per_query.setdefault((ranker.name, exp_name, category), {}).setdefault(
                        pname, {}
                    )[qid] = distance

    rows.sort(key=lambda r: (r.ranker, r.expander, r.query_id, r.category, r.predictor))
    cv_rows.sort(key=lambda r: (r.ranker, r.expander, r.query_id, r.category))

    others = [p for p in predictors if p != REFERENCE]
    m = max(1, len(others))
    baselines = others if REFERENCE in predictors else []
    summary = {
        "k": k,
        "alpha": ALPHA,
        "comparisons": m,
        "reference": REFERENCE,
        "pipelines": [
            {
                "ranker": ranker.name,
                "expander": exp_name,
                "categories": {
                    category: _score(
                        per_query.get((ranker.name, exp_name, category), {}),
                        baselines, m,
                    )
                    for category in category_names
                },
            }
            for ranker, _, exp_name in pipelines
        ],
    }
    return PredictionReport(rows, cv_rows, failures, summary)


def _score(jsds: Mapping[str, Mapping[str, float]], baselines, m) -> dict:
    """Mean JSD per predictor, and the reference's paired t-test against each baseline."""
    ref = jsds.get(REFERENCE, {})
    significance = {}
    for baseline in baselines:
        base = jsds.get(baseline, {})
        shared = sorted(set(ref) & set(base))
        test = {"t": None, "p": None, "adjusted_p": None, "significant": False, "note": ""}
        if len(shared) < 2:
            test["note"] = "too few paired queries"
        else:
            try:
                t, p = paired_t_test([ref[q] for q in shared], [base[q] for q in shared])
            except ValueError as exc:
                test["note"] = str(exc)
            else:
                adjusted = bonferroni([p], m)[0]
                test.update(t=t, p=p, adjusted_p=adjusted, significant=adjusted < ALPHA)
        significance[baseline] = test
    return {
        "mean_jsd": {name: float_sum(values.values()) / len(values) for name, values in jsds.items()},
        "significance": significance,
    }
