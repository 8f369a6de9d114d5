"""Per-layer metrics of a traced run, computed from its span file.

Layers are the program's modules. Times are self times (a span minus its
children) and, like counts, are given per root span of the phase they
ran in: per program set-up for spans under "setup", per operation for
spans under "op" and for the replayed evaluation calls under "replay".
A layer that a workload does not run reports 0.
"""

from __future__ import annotations

import re
import statistics

from spans import self_times
from workloads import PREDICTOR_NAMES, percentile

PER_LAYER = {
    "text.tokens": "count",
    "text.tokenize_s": "s",
    "text.distinct_word_ratio": "ratio",
    "corpus.read_s": "s",
    "corpus.build_self_s": "s",
    "corpus.save_s": "s",
    "corpus.load_s": "s",
    "corpus.index_bytes": "bytes",
    "corpus.terms": "count",
    "corpus.postings": "count",
    "retrieval.rank_calls": "count",
    "retrieval.first_pass_s": "s",
    "retrieval.rerank_s": "s",
    "retrieval.rank_p50_ms": "ms",
    "retrieval.rank_p95_ms": "ms",
    "retrieval.candidates_per_call": "count",
    "retrieval.returned_per_candidate": "ratio",
    "expansion.calls": "count",
    "expansion.s": "s",
    "expansion.expanded_ratio": "ratio",
    "expansion.terms_per_query": "count",
    "exposure.realized_calls": "count",
    "exposure.realized_s": "s",
    "exposure.degenerate_ratio": "ratio",
    "exposure.exact_s": "s",
    "exposure.sampled_s": "s",
    "exposure.subsets_evaluated": "count",
    **{f"predictors.{name}.s": "s" for name in PREDICTOR_NAMES},
    "predictors.calls": "count",
    "predictors.degenerate_ratio": "ratio",
    "evaluation.driver_self_s": "s",
    "evaluation.jsd_s": "s",
    "evaluation.stats_s": "s",
    "evaluation.report_write_s": "s",
    "cli.run_self_s": "s",
    "trace.spans": "count",
    "trace.untraced_op_s": "s",
    "trace.traced_op_s": "s",
    "trace.overhead_ratio": "ratio",
}

# metric -> the span names whose self times it sums
_SPAN_TIMES = {
    "text.tokenize_s": ("text.tokenize", "text.parse_queries"),
    "corpus.read_s": ("corpus.read",),
    "corpus.build_self_s": ("corpus.build",),
    "corpus.save_s": ("corpus.save",),
    "corpus.load_s": ("corpus.load",),
    "retrieval.first_pass_s": ("retrieval.first_pass",),
    "retrieval.rerank_s": ("retrieval.rerank",),
    "expansion.s": ("expansion.expand",),
    "exposure.realized_s": ("exposure.realized",),
    "exposure.exact_s": ("exposure.exact",),
    "exposure.sampled_s": ("exposure.sampled",),
    **{f"predictors.{name}.s": (f"predictors.{name}",) for name in PREDICTOR_NAMES},
    "evaluation.driver_self_s": ("evaluation.run_experiment",),
    "evaluation.jsd_s": ("evaluation.jsd",),
    "evaluation.stats_s": ("evaluation.stats",),
    "evaluation.report_write_s": ("evaluation.report_write",),
    "cli.run_self_s": ("op",),
}

_WORD_RE = re.compile(r"[a-z0-9]+")


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(spans: list[dict], workload, ops, traced) -> dict:
    """metric -> (value, unit, samples) for every PER_LAYER metric."""
    own = self_times(spans)
    root = _roots(spans)
    roots = {"setup": sum(1 for s in spans if s["name"] == "setup" and s["parent"] is None),
             "op": len(traced), "replay": len(traced)}

    per_root: dict[str, float] = {}
    samples: dict[str, int] = {}
    rank_ms = []
    for s, t, r in zip(spans, own, root):
        per_root[s["name"]] = per_root.get(s["name"], 0.0) + t / roots[r]
        samples[s["name"]] = samples.get(s["name"], 0) + 1
        if s["name"].startswith("retrieval."):
            rank_ms.append((s["end"] - s["start"]) * 1000.0)

    counts = {}
    for phase, n in (("setup", roots["setup"]), ("op", roots["op"])):
        for key, value in workload.counts[phase].items():
            counts[key] = counts.get(key, 0.0) + value / n
    words = [w for text in workload.texts for w in _WORD_RE.findall(text.lower())]
    untraced = statistics.mean(o.latency for o in ops)
    traced_s = statistics.mean(o.latency for o in traced)

    values = {metric: sum(per_root.get(n, 0.0) for n in names)
              for metric, names in _SPAN_TIMES.items()}
    n_of = {metric: sum(samples.get(n, 0) for n in names) for metric, names in _SPAN_TIMES.items()}
    c = counts.get
    values.update({
        "text.tokens": c("text.tokens", 0.0),
        "text.distinct_word_ratio": _ratio(len(set(words)), len(words)),
        "corpus.index_bytes": c("corpus.index_bytes", 0.0),
        "corpus.terms": c("corpus.terms", 0.0),
        "corpus.postings": c("corpus.postings", 0.0),
        "retrieval.rank_calls": c("retrieval.calls", 0.0),
        "retrieval.rank_p50_ms": statistics.median(rank_ms) if rank_ms else 0.0,
        "retrieval.rank_p95_ms": percentile(rank_ms, 95) if rank_ms else 0.0,
        "retrieval.candidates_per_call": _ratio(c("retrieval.candidates", 0.0), c("retrieval.calls", 0.0)),
        "retrieval.returned_per_candidate": _ratio(c("retrieval.returned", 0.0), c("retrieval.candidates", 0.0)),
        "expansion.calls": c("expansion.calls", 0.0),
        "expansion.expanded_ratio": _ratio(c("expansion.expanded", 0.0), c("expansion.calls", 0.0)),
        "expansion.terms_per_query": _ratio(c("expansion.terms", 0.0), c("expansion.calls", 0.0)),
        "exposure.realized_calls": c("exposure.realized_calls", 0.0),
        "exposure.degenerate_ratio": _ratio(c("exposure.degenerate", 0.0), c("exposure.realized_calls", 0.0)),
        "exposure.subsets_evaluated": c("exposure.subsets_evaluated", 0.0),
        "predictors.calls": c("predictors.calls", 0.0),
        "predictors.degenerate_ratio": _ratio(c("predictors.degenerate", 0.0), c("predictors.calls", 0.0)),
        "trace.spans": float(len(spans)),
        "trace.untraced_op_s": untraced,
        "trace.traced_op_s": traced_s,
        "trace.overhead_ratio": traced_s / untraced - 1.0,
    })
    n_of.update({"text.distinct_word_ratio": len(words), "retrieval.rank_p50_ms": len(rank_ms),
                 "retrieval.rank_p95_ms": len(rank_ms), "trace.untraced_op_s": len(ops),
                 "trace.traced_op_s": len(traced), "trace.overhead_ratio": len(traced)})
    return {m: (values[m], unit, n_of.get(m, len(traced))) for m, unit in PER_LAYER.items()}


def layer_sum(spans: list[dict], traced) -> float:
    """Self times of every span under an "op" root, per traced operation.

    Spans tile each operation, so this equals the traced wall time; it is
    what the per-layer times add up to.
    """
    root = _roots(spans)
    return sum(t for t, r in zip(self_times(spans), root) if r == "op") / len(traced)


def _roots(spans: list[dict]) -> list[str]:
    """The name of each span's root span; parents precede their children."""
    root: list[str] = []
    for s in spans:
        root.append(s["name"] if s["parent"] is None else root[s["parent"]])
    return root
