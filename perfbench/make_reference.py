#!/usr/bin/env python3
"""Record the output digests of the program for each workload and seed.

    python3 perfbench/make_reference.py --seeds 0-63

Writes ``perfbench/reference.json``, which ``run.py`` compares every
measured operation against. Run it only on the program whose outputs are
the reference; the digests belong to the workloads' default sizes.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

import run
from workloads import WORKLOADS

# the index workload checks the loaded index against the built one instead
RECORDED = ("experiment", "predict", "exposure-analysis")


def digests(name: str, seed: int) -> dict:
    work = run.HERE / "work"
    work.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"ref-{name}-", dir=work))
    try:
        result = run.measure(name, seed, 0.0, False, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if result["failed"]:
        raise RuntimeError(f"{name} seed {seed}: an output check failed")
    return result["digests"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, help="inclusive range lo-hi")
    parser.add_argument("--workloads", default=",".join(RECORDED))
    args = parser.parse_args()
    lo, hi = (int(v) for v in args.seeds.split("-"))
    sys.path.insert(0, str(run.ROOT / "src"))

    entries = {}
    for name in args.workloads.split(","):
        seeds = {}
        for seed in range(lo, hi + 1):
            seeds[str(seed)] = digests(name, seed)
            print(name, seed, seeds[str(seed)], flush=True)
        entries[name] = (repr(WORKLOADS[name].default_config()), seeds)

    # read the table only now, so runs for different workloads can overlap
    table = json.loads(run.REFERENCE.read_text("utf-8")) if run.REFERENCE.is_file() else {}
    for name, (config, seeds) in entries.items():
        entry = table.get(name, {})
        if entry.get("config") != config:
            entry = {"config": config, "seeds": {}}
        entry["seeds"].update(seeds)
        table[name] = entry
    run.REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", "utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
