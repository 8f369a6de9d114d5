#!/usr/bin/env python3
"""Achievable-exposure curves for a ranking of a given size.

Runs `qexp analyze-exposure` once: it writes the histogram of exposure
amounts a group can reach for each document count m (exact subset
enumeration when every m is affordable, sampling otherwise) plus the
orderings-count curve. Then prints each m's achievable range and subset
total, read back from the histogram it wrote.
"""

import argparse
import csv
import math
from pathlib import Path

from qexp.cli import main as cli_main
from qexp.exposure import DEFAULT_SUBSET_BUDGET


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--k", type=int, default=100)
    parser.add_argument("--m", default="1,2,5,10,25,50")
    parser.add_argument("--samples", type=int, default=100_000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out-dir", default="out/exposure")
    args = parser.parse_args()

    m_values = [int(v) for v in args.m.split(",")]
    over_budget = any(math.comb(args.k, m) > DEFAULT_SUBSET_BUDGET for m in m_values)
    mode = "sampled" if over_budget else "exact"
    out_dir = Path(args.out_dir)
    code = cli_main([
        "analyze-exposure", "--k", str(args.k), "--m", args.m, "--mode", mode,
        "--samples", str(args.samples), "--seed", str(args.seed),
        "--out-dir", str(out_dir),
    ])
    if code != 0:
        return code

    bins: dict[int, list[dict]] = {}
    with open(out_dir / "histogram.csv", encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            bins.setdefault(int(row["m"]), []).append(row)
    print(f"k={args.k} [{mode}]")
    for m, rows in bins.items():
        total = sum(float(row["count"]) for row in rows)
        print(
            f"  m={m:3d} exposure range "
            f"[{float(rows[0]['bin_low']):.4f}, {float(rows[-1]['bin_high']):.4f}] "
            f"over {total:.6g} position subsets"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
