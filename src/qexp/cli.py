"""Command-line toolkit: index, rank, expand, predict, run, analyze-exposure.

All behavior is controlled by flags (no environment variables), every
run writes its parsed options next to its outputs, and outputs are
byte-identical for identical inputs and flags.

Exit codes: 0 success, 1 usage or validation error, 2 partial failure
(some queries failed but the run completed).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .corpus import (
    CollectionIndex,
    CorpusError,
    build_index,
    load_categories_json,
    load_corpus_jsonl,
    read_lines,
    reject_repeats,
    write_csv,
    write_json,
    write_jsonl,
)
from .evaluation import (
    ModelRanker, QueryExpander, RunFileRanker, check_experiment, error_message, run_experiment,
)
from .expansion import EXPANDERS, write_queries_jsonl
from .exposure import achievable_exposure, check_achievable_args, log_orderings, orderings
from .predictors import CORI_BELIEF, PREDICTORS, make_predictors
from .retrieval import RANKERS, Query, rank, write_run_file
from .text import stem_memo


def load_queries_tsv(path) -> list[Query]:
    """TSV with two columns: query id and query text.

    Ids must be unique, and non-empty and free of whitespace: an id is one
    field of a whitespace-separated TREC run file line.
    """
    queries = []
    seen: set[str] = set()
    # one memo for the file, so each distinct word is stemmed once
    with stem_memo():
        for lineno, line in enumerate(read_lines(path), start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            parts = line.split("\t", 1)
            if len(parts) != 2:
                raise CorpusError(f"{path}: line {lineno}: expected 'qid<TAB>text'")
            qid, text = parts[0].strip(), parts[1]
            if qid.split() != [qid]:
                raise CorpusError(
                    f"{path}: line {lineno}: query id {qid!r} is empty or contains whitespace"
                )
            if qid in seen:
                raise CorpusError(f"{path}: line {lineno}: duplicate query id {qid!r}")
            seen.add(qid)
            queries.append(Query.from_text(text, query_id=qid))
    return queries


def _split_names(value: str) -> list[str]:
    return [v.strip() for v in value.split(",") if v.strip()]


def _category_names(value: str) -> list[str] | None:
    # a list with no names also means every category, and config.json records it as null
    return _split_names(value) or None


def _split_ints(value: str) -> list[int]:
    try:
        return [int(v) for v in _split_names(value)]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {value!r}"
        ) from None


def _load_inputs(args) -> tuple[CollectionIndex, list[Query]]:
    """The index and queries of ``--index`` and ``--queries``, once ``--k`` is checked."""
    if args.k < 1:
        raise ValueError("k must be >= 1")
    return CollectionIndex.load(args.index), load_queries_tsv(args.queries)


def _per_query(queries: list[Query], fn) -> list:
    """``fn(query)`` for every query; a ValueError is raised again naming its query."""
    out = []
    for query in queries:
        try:
            out.append(fn(query))
        except ValueError as exc:
            raise ValueError(f"query {query.query_id!r}: {error_message(exc)}") from exc
    return out


# ------------------------------- subcommands -------------------------------

def cmd_index(args) -> int:
    docs, categories = load_corpus_jsonl(args.corpus), load_categories_json(args.categories_file)
    try:
        index = build_index(docs, categories)
    except CorpusError as exc:  # the categories were checked as they loaded: a document's error
        raise CorpusError(f"{args.corpus}: {exc}") from None
    index.save(args.out)
    print(
        f"docs={index.num_docs} terms={len(index.vocabulary)} "
        f"tokens={index.total_tokens} categories={len(index.categories)}"
    )
    return 0


def cmd_rank(args) -> int:
    index, queries = _load_inputs(args)
    rankings = _per_query(queries, lambda q: rank(index, q, args.model, args.k))
    write_run_file(args.out, rankings, tag=args.model)
    print(f"wrote {sum(len(r.entries) for r in rankings)} lines to {args.out}")
    return 0


def cmd_expand(args) -> int:
    expander = QueryExpander(args.method)
    index, queries = _load_inputs(args)

    def expand(query):
        first = rank(index, query, args.model, args.k)
        return query.query_id, expander.expand(index, query, first)

    results = _per_query(queries, expand)
    write_queries_jsonl(args.out, results)
    print(f"expanded {len(results)} queries with {args.method} into {args.out}")
    return 0


def cmd_predict(args) -> int:
    reject_repeats("--category-names", args.category_names or [])
    predictors = make_predictors(args.predictors, args.k)
    index, queries = _load_inputs(args)
    if args.category_names:
        categories = [index.category(name).name for name in args.category_names]
    else:
        categories = [c.name for c in index.categories]

    def query_records(query):
        return [
            predictor(index, query, category).to_dict(query.query_id)
            for category in categories
            for predictor in predictors.values()
        ]

    # every query is predicted before the file is opened: a failing one writes nothing
    records = [record for per_query in _per_query(queries, query_records) for record in per_query]
    write_jsonl(args.out, records)
    print(f"wrote {len(records)} predictions to {args.out}")
    return 0


def cmd_run(args) -> int:
    # b by position: perfbench's traced make_predictors takes exactly three arguments
    predictors = make_predictors(args.predictors, args.k, CORI_BELIEF)
    expanders = [None if name == "none" else QueryExpander(name) for name in args.expanders]
    rankers = [ModelRanker(name) for name in args.rankers]
    rankers += [RunFileRanker(path) for path in args.run_files]
    check_experiment(args.category_names, rankers, expanders, predictors, args.k)

    index, queries = _load_inputs(args)
    report = run_experiment(
        index, queries, args.category_names, rankers, expanders, predictors, args.k
    )

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    config = {key: value for key, value in vars(args).items() if key not in ("command", "func")}
    write_json(out_dir / "config.json", config)
    report.write_jsd_csv(out_dir / "jsd.csv")
    report.write_cv_csv(out_dir / "cv.csv")
    report.write_summary_json(out_dir / "summary.json")

    print(
        f"rows={len(report.rows)} cv_rows={len(report.cv_rows)} "
        f"failures={len(report.failures)} -> {out_dir}"
    )
    return 2 if report.failures else 0


def cmd_analyze_exposure(args) -> int:
    if not args.m:
        raise ValueError("at least one m is required")
    # every m is checked before the first histogram is computed
    reject_repeats("--m", args.m)
    for m in args.m:
        check_achievable_args(args.k, m, args.mode, samples=args.samples)
    histograms = [
        achievable_exposure(args.k, m, args.mode, samples=args.samples, seed=args.seed)
        for m in args.m
    ]
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    write_csv(out_dir / "histogram.csv", ["k", "m", "bin_low", "bin_high", "count"], (
        (args.k, hist.m, low, high, count) for hist in histograms for low, high, count in hist.bins
    ))
    write_csv(out_dir / "orderings.csv", ["k", "log10_orderings", "exact_orderings"], (
        (k, log_orderings(k), orderings(k) if k <= 20 else "") for k in range(1, args.k + 1)
    ))

    print(f"wrote histogram.csv and orderings.csv to {out_dir}")
    return 0


# --------------------------------- parser -----------------------------------

#: every option's add_argument keywords, declared once for all the commands that take it
OPTIONS = {
    "--corpus": dict(required=True, help="JSONL corpus (doc_id, text, labels)"),
    "--categories": dict(dest="categories_file", required=True, help="JSON category definitions"),
    "--index": dict(required=True, help="an index written by qexp index"),
    "--queries": dict(required=True, help="TSV: qid<TAB>query text"),
    "--method": dict(required=True, choices=tuple(EXPANDERS)),
    "--model": dict(default="bm25", choices=sorted(RANKERS)),
    "--rankers": dict(type=_split_names, default="bm25", help="comma-separated retrieval models"),
    # argparse appends to a copy of this list, so no parse sees another's run files
    "--run-file": dict(dest="run_files", action="append", default=[],
                       help="external TREC run file ranker"),
    "--expanders": dict(type=_split_names, default="none",
                        help="comma-separated: none," + ",".join(EXPANDERS)),
    "--predictors": dict(type=_split_names, default="gep"),
    "--category-names": dict(type=_category_names, default=None,
                             help="comma-separated; default all"),
    "--k": dict(type=int, default=100),
    # C(100, 4) = 3.9M subsets fits the subset budget; C(100, 5) would not
    "--m": dict(type=_split_ints, default="0,1,2,3,4", help="comma-separated group document counts"),
    "--mode": dict(default="exact", choices=("exact", "sampled")),
    "--samples": dict(type=int, default=100_000),
    "--seed": dict(type=int, default=0),
    "--out": dict(required=True),
    "--out-dir": dict(default="out"),
}

#: each command's help line, its options in usage order, and its set_defaults keywords
COMMANDS = {
    "index": ("build and persist a collection index", ("--corpus", "--categories", "--out"),
              dict(func=cmd_index)),
    "rank": ("rank queries and write a TREC run file",
             ("--index", "--queries", "--model", "--k", "--out"), dict(func=cmd_rank)),
    "expand": ("apply PRF expansion and dump the queries",
               ("--index", "--queries", "--method", "--model", "--k", "--out"),
               dict(func=cmd_expand)),
    "predict": ("emit per-group exposure predictions",
                ("--index", "--queries", "--predictors", "--category-names", "--k", "--out"),
                dict(func=cmd_predict)),
    "run": ("full experiment: rank, predict, evaluate",
            ("--index", "--queries", "--rankers", "--run-file", "--expanders", "--predictors",
             "--category-names", "--k", "--out-dir"),
            # a run compares every predictor but the uniform baseline by default
            dict(func=cmd_run,
                 predictors=",".join(name for name in PREDICTORS if name != "uniform"))),
    "analyze-exposure": ("achievable exposure and orderings data",
                         ("--k", "--m", "--mode", "--samples", "--seed", "--out-dir"),
                         dict(func=cmd_analyze_exposure)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qexp",
        description="Predict and evaluate group exposure distributions in rankings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, flags, defaults) in COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        for flag in flags:
            p.add_argument(flag, **OPTIONS[flag])
        p.set_defaults(**defaults)  # a default set here replaces the option's own
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 after --help
        return 1 if exc.code else 0
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError) as exc:  # a CorpusError is a ValueError
        print(f"error: {error_message(exc)}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
