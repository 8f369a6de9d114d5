#!/usr/bin/env python3
"""Full pipeline on a planted-skew synthetic corpus.

Writes a corpus where one group owns nearly all query-term mass, with
its categories and queries, then runs `qexp index` and `qexp run` on
those files: BM25 (optionally with PRF), every predictor, the first
category. Prints the mean JSD table and the significance markers, read
back from the `summary.json` the run wrote.
"""

import argparse
import json
from pathlib import Path

from qexp.cli import main as cli_main
from qexp.corpus import save_categories_json, save_corpus_jsonl, write_lines
from qexp.predictors import PREDICTORS
from qexp.synthetic import make_planted_skew_corpus


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--docs-per-group", type=int, default=150)
    parser.add_argument("--num-queries", type=int, default=40)
    parser.add_argument("--k", type=int, default=100)
    parser.add_argument("--expanders", default="none,rm3,klq")
    parser.add_argument("--out-dir", default="out/synthetic")
    args = parser.parse_args()

    docs, categories, queries = make_planted_skew_corpus(
        args.seed, args.docs_per_group, args.num_queries
    )
    category = categories[0].name
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_corpus_jsonl(out_dir / "corpus.jsonl", docs)
    save_categories_json(out_dir / "categories.json", categories)
    write_lines(out_dir / "queries.tsv", (f"{q.query_id}\t{' '.join(q.terms)}" for q in queries))

    if cli_main([
        "index", "--corpus", str(out_dir / "corpus.jsonl"),
        "--categories", str(out_dir / "categories.json"), "--out", str(out_dir / "index.qx"),
    ]) != 0:
        return 1
    code = cli_main([
        "run", "--index", str(out_dir / "index.qx"), "--queries", str(out_dir / "queries.tsv"),
        "--rankers", "bm25", "--expanders", args.expanders,
        "--predictors", ",".join(PREDICTORS), "--category-names", category,
        "--k", str(args.k), "--out-dir", str(out_dir),
    ])
    if code == 1:  # nothing was written
        return code

    with open(out_dir / "summary.json", encoding="utf-8") as fh:
        summary = json.load(fh)
    print(f"\nmean JSD per predictor ({category}, k={args.k}):")
    print("  " + "  ".join(f"{h:>8}" for h in ("pipeline",) + PREDICTORS))
    for p in summary["pipelines"]:
        pipeline = p["ranker"] if p["expander"] == "none" else f"{p['ranker']}+{p['expander']}"
        means = p["categories"][category]["mean_jsd"]
        cells = [f"{means.get(name, float('nan')):8.4f}" for name in PREDICTORS]
        print(f"  {pipeline:>8}  " + "  ".join(cells))
    significance = summary["pipelines"][0]["categories"][category]["significance"]
    marked = [name for name in PREDICTORS[1:] if significance[name]["significant"]]
    print(f"\nGEP significantly better than (alpha={summary['alpha']}, "
          f"Bonferroni m={summary['comparisons']}): {marked or 'none'}")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
