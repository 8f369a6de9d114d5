"""Command-line toolkit: index, rank, expand, predict, run, analyze-exposure.

All behavior is controlled by flags (no environment variables), every
run writes its resolved configuration next to its outputs, and outputs
are byte-identical for identical inputs and seed.

Exit codes: 0 success, 1 validation error, 2 partial failure (some
queries failed but the run completed).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .corpus import (
    CollectionIndex,
    CorpusError,
    build_index,
    load_categories_json,
    load_corpus_jsonl,
)
from .evaluation import ModelRanker, QueryExpander, RunFileRanker, error_message, run_experiment
from .expansion import EXPANDERS, ExpansionConfig, write_queries_jsonl
from .exposure import (
    DCG,
    FORMULAS,
    DEFAULT_SUBSET_BUDGET,
    achievable_exposure,
    log_orderings,
    orderings,
)
from .predictors import PREDICTORS, QUERY_IDFS, PredictorConfig, make_predictors
from .retrieval import RANKERS, Query, rank, write_run_file


def load_queries_tsv(path) -> list[Query]:
    """TSV with two columns: query id and query text; ids must be unique."""
    queries = []
    seen: set[str] = set()
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            parts = line.split("\t", 1)
            if len(parts) != 2:
                raise CorpusError(f"{path}: line {lineno}: expected 'qid<TAB>text'")
            qid, text = parts[0].strip(), parts[1]
            if qid in seen:
                raise CorpusError(f"{path}: line {lineno}: duplicate query id {qid!r}")
            seen.add(qid)
            queries.append(Query.from_text(text, query_id=qid))
    return queries


def _split_names(value: str) -> list[str]:
    return [v.strip() for v in value.split(",") if v.strip()]


@dataclass
class ExperimentConfig:
    """Resolved configuration of a `run` invocation, frozen to disk."""

    index: str | None
    corpus: str | None
    categories_file: str | None
    queries: str
    rankers: list[str]
    run_files: list[str]
    expanders: list[str]
    predictors: list[str]
    category_names: list[str] | None
    k: int = 100
    seed: int = 0
    alpha: float = 0.01
    comparisons: int | None = None
    fb_docs: int = 3
    fb_terms: int = 10
    rm3_lambda: float = 0.5
    floor_idf: bool = True
    query_idf: str = "bm25"
    cori_belief: float = 0.4
    exposure_formula: str = DCG
    reference: str = "gep"
    out_dir: str = "out"

    def validate(self) -> None:
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if self.index is None and (self.corpus is None or self.categories_file is None):
            raise ValueError("provide either --index or both --corpus and --categories")
        for path in filter(None, [self.index, self.corpus, self.categories_file, self.queries]):
            if not Path(path).exists():
                raise ValueError(f"file not found: {path}")
        for path in self.run_files:
            if not Path(path).exists():
                raise ValueError(f"run file not found: {path}")
        for name in self.rankers:
            if name not in RANKERS:
                raise ValueError(f"unknown ranker {name!r} (choose from {sorted(RANKERS)})")
        for name in self.expanders:
            if name != "none" and name not in EXPANDERS:
                raise ValueError(f"unknown expander {name!r}")
        if self.exposure_formula not in FORMULAS:
            raise ValueError(f"unknown exposure formula {self.exposure_formula!r}")
        if self.reference not in PREDICTORS:
            raise ValueError(f"unknown reference {self.reference!r} (choose from {PREDICTORS})")
        if self.comparisons is not None and self.comparisons < 1:
            raise ValueError("comparisons must be >= 1")
        if not self.rankers and not self.run_files:
            raise ValueError("at least one ranker or run file is required")
        if not self.predictors:
            raise ValueError("at least one predictor is required")


def _load_index(args) -> CollectionIndex:
    if getattr(args, "index", None):
        return CollectionIndex.load(args.index)
    docs = load_corpus_jsonl(args.corpus)
    categories = load_categories_json(args.categories)
    return build_index(docs, categories)


# ------------------------------- subcommands -------------------------------

def cmd_index(args) -> int:
    docs = load_corpus_jsonl(args.corpus)
    categories = load_categories_json(args.categories)
    index = build_index(docs, categories)
    index.save(args.out)
    print(
        f"docs={index.num_docs} terms={len(index.vocabulary)} "
        f"tokens={index.total_tokens} categories={len(index.categories)}"
    )
    return 0


def cmd_rank(args) -> int:
    index = _load_index(args)
    queries = load_queries_tsv(args.queries)
    rankings = [rank(index, q, args.model, args.k) for q in queries]
    write_run_file(args.out, rankings, tag=args.tag or args.model)
    print(f"wrote {sum(len(r.entries) for r in rankings)} lines to {args.out}")
    return 0


def cmd_expand(args) -> int:
    index = _load_index(args)
    queries = load_queries_tsv(args.queries)
    config = ExpansionConfig(args.fb_docs, args.fb_terms, args.rm3_lambda)
    expander = QueryExpander(args.method, config)
    results = []
    for query in queries:
        first = rank(index, query, args.model, args.k)
        results.append((query.query_id, expander.expand(index, query, first)))
    write_queries_jsonl(args.out, results)
    print(f"expanded {len(results)} queries with {args.method} into {args.out}")
    return 0


def cmd_predict(args) -> int:
    index = _load_index(args)
    queries = load_queries_tsv(args.queries)
    config = PredictorConfig(floor_idf=not args.no_idf_floor, query_idf=args.query_idf)
    predictors = make_predictors(_split_names(args.predictors), args.k, config)
    if args.category_names:
        categories = [index.category(name).name for name in _split_names(args.category_names)]
    else:
        categories = [c.name for c in index.categories]
    with open(args.out, "w", encoding="utf-8") as fh:
        for query in queries:
            for category in categories:
                for predictor in predictors.values():
                    out = predictor(index, query, category)
                    fh.write(json.dumps(out.to_dict(query.query_id), sort_keys=True) + "\n")
    print(f"wrote {len(queries) * len(categories) * len(predictors)} predictions to {args.out}")
    return 0


def cmd_run(args) -> int:
    config = ExperimentConfig(
        index=args.index,
        corpus=args.corpus,
        categories_file=args.categories,
        queries=args.queries,
        rankers=_split_names(args.rankers) if args.rankers else [],
        run_files=list(args.run_file or []),
        expanders=_split_names(args.expanders),
        predictors=_split_names(args.predictors),
        category_names=_split_names(args.category_names) if args.category_names else None,
        k=args.k,
        seed=args.seed,
        alpha=args.alpha,
        comparisons=args.comparisons,
        fb_docs=args.fb_docs,
        fb_terms=args.fb_terms,
        rm3_lambda=args.rm3_lambda,
        floor_idf=not args.no_idf_floor,
        query_idf=args.query_idf,
        cori_belief=args.cori_belief,
        exposure_formula=args.exposure_formula,
        reference=args.reference,
        out_dir=args.out_dir,
    )
    config.validate()
    predictor_config = PredictorConfig(
        floor_idf=config.floor_idf,
        query_idf=config.query_idf,
        cori_belief=config.cori_belief,
    )
    predictors = make_predictors(config.predictors, config.k, predictor_config)

    index = _load_index(args)
    queries = load_queries_tsv(config.queries)
    if config.category_names:
        for name in config.category_names:
            index.category(name)

    rankers = [ModelRanker(name) for name in config.rankers]
    rankers += [RunFileRanker(path) for path in config.run_files]
    expansion = ExpansionConfig(config.fb_docs, config.fb_terms, config.rm3_lambda)
    expanders = [
        None if name == "none" else QueryExpander(name, expansion)
        for name in config.expanders
    ]

    report = run_experiment(
        index,
        queries,
        config.category_names,
        rankers,
        expanders,
        predictors,
        config.k,
        alpha=config.alpha,
        comparisons=config.comparisons,
        exposure_formula=config.exposure_formula,
        reference=config.reference,
    )

    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "config.json", "w", encoding="utf-8") as fh:
        json.dump(asdict(config), fh, indent=2, sort_keys=True)
        fh.write("\n")
    report.write_jsd_csv(out_dir / "jsd.csv")
    report.write_cv_csv(out_dir / "cv.csv")
    report.write_summary_json(out_dir / "summary.json")

    print(
        f"rows={len(report.rows)} cv_rows={len(report.cv_rows)} "
        f"failures={len(report.failures)} -> {out_dir}"
    )
    return 2 if report.failures else 0


def _parse_m_values(args) -> list[int]:
    if args.m is not None:
        return [int(v) for v in _split_names(args.m)]
    lo, _, hi = args.m_range.partition(":")
    return list(range(int(lo), int(hi) + 1))


def cmd_analyze_exposure(args) -> int:
    m_values = _parse_m_values(args)
    for m in m_values:
        if not 0 <= m <= args.k:
            raise ValueError(f"m={m} outside 0..k={args.k}")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    with open(out_dir / "histogram.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["k", "m", "bin_low", "bin_high", "count"])
        for m in m_values:
            hist = achievable_exposure(
                args.k,
                m,
                args.mode,
                bins=args.bins,
                budget=args.budget,
                samples=args.samples,
                seed=args.seed,
                formula=args.exposure_formula,
            )
            for low, high, count in hist.bins:
                writer.writerow([args.k, m, repr(low), repr(high), repr(count)])

    with open(out_dir / "orderings.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["k", "log10_orderings", "exact_orderings"])
        for k in range(1, args.k + 1):
            exact = orderings(k) if k <= 20 else ""
            writer.writerow([k, repr(log_orderings(k)), exact])

    print(f"wrote histogram.csv and orderings.csv to {out_dir}")
    return 0


# --------------------------------- parser -----------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qexp",
        description="Predict and evaluate group exposure distributions in rankings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_index_source(p):
        p.add_argument("--index", help="path to a saved index")
        p.add_argument("--corpus", help="JSONL corpus (doc_id, text, labels)")
        p.add_argument("--categories", help="JSON category definitions")

    p = sub.add_parser("index", help="build and persist a collection index")
    p.add_argument("--corpus", required=True)
    p.add_argument("--categories", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("rank", help="rank queries and write a TREC run file")
    add_index_source(p)
    p.add_argument("--queries", required=True, help="TSV: qid<TAB>query text")
    p.add_argument("--model", default="bm25", choices=sorted(RANKERS))
    p.add_argument("--k", type=int, default=100)
    p.add_argument("--tag", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("expand", help="apply PRF expansion and dump the queries")
    add_index_source(p)
    p.add_argument("--queries", required=True)
    p.add_argument("--method", required=True, choices=tuple(EXPANDERS))
    p.add_argument("--model", default="bm25", choices=sorted(RANKERS))
    p.add_argument("--k", type=int, default=100)
    p.add_argument("--fb-docs", type=int, default=3)
    p.add_argument("--fb-terms", type=int, default=10)
    p.add_argument("--rm3-lambda", type=float, default=0.5)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("predict", help="emit per-group exposure predictions")
    add_index_source(p)
    p.add_argument("--queries", required=True)
    p.add_argument("--predictors", default="gep")
    p.add_argument("--category-names", default=None, help="comma-separated; default all")
    p.add_argument("--k", type=int, default=100)
    p.add_argument("--no-idf-floor", action="store_true")
    p.add_argument("--query-idf", default="bm25", choices=QUERY_IDFS)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("run", help="full experiment: rank, predict, evaluate")
    add_index_source(p)
    p.add_argument("--queries", required=True)
    p.add_argument("--rankers", default="bm25", help="comma-separated retrieval models")
    p.add_argument("--run-file", action="append", help="external TREC run file ranker")
    p.add_argument("--expanders", default="none",
                   help="comma-separated: none," + ",".join(EXPANDERS))
    p.add_argument("--predictors", default="gep,scs,avidf,avictf,avpmi,cori")
    p.add_argument("--category-names", default=None)
    p.add_argument("--k", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--alpha", type=float, default=0.01)
    p.add_argument("--comparisons", type=int, default=None,
                   help="Bonferroni m; default = number of baselines compared")
    p.add_argument("--fb-docs", type=int, default=3)
    p.add_argument("--fb-terms", type=int, default=10)
    p.add_argument("--rm3-lambda", type=float, default=0.5)
    p.add_argument("--no-idf-floor", action="store_true")
    p.add_argument("--query-idf", default="bm25", choices=QUERY_IDFS)
    p.add_argument("--cori-belief", type=float, default=0.4)
    p.add_argument("--exposure-formula", default=DCG, choices=FORMULAS)
    p.add_argument("--reference", default="gep")
    p.add_argument("--out-dir", default="out")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("analyze-exposure", help="achievable exposure and orderings data")
    p.add_argument("--k", type=int, default=100)
    p.add_argument("--m", default=None, help="comma-separated group document counts")
    p.add_argument("--m-range", default="0:5", help="inclusive range lo:hi")
    p.add_argument("--mode", default="exact", choices=("exact", "sampled"))
    p.add_argument("--bins", type=int, default=200)
    p.add_argument("--budget", type=int, default=DEFAULT_SUBSET_BUDGET)
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--exposure-formula", default=DCG, choices=FORMULAS)
    p.add_argument("--out-dir", default="out")
    p.set_defaults(func=cmd_analyze_exposure)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CorpusError, ValueError, OSError, KeyError) as exc:
        print(f"error: {error_message(exc)}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
