#!/usr/bin/env python3
"""qexp benchmark: one workload per invocation, checked outputs, one JSON result.

    python3 perfbench/run.py --workload predict --seed 3 --seconds 20 --trace 0

Run from a checkout of the repository; the program is imported from its
``src/``. One closed-loop client, no threads: each operation starts when
the previous one has finished. Operations run until ``--seconds`` have
passed (a started operation completes), and longer only until every
output check has been covered once.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, with every
time scaled to reference machine speed (see calibration.py).
``--trace 1`` alternates an untraced and a traced run of each operation
on the same input, writes the spans to ``perfbench/work/spans-<workload>.jsonl``
and prints the per-layer metrics computed from that file, plus the
tracing overhead (traced against untraced wall time of the same operations).

The last line of standard output is the JSON result; the lines before it
name every metric with its unit and sample count, and the input properties.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
from calibration import REFERENCE_S, kernel_seconds  # noqa: E402
from spans import Tracer, read_spans  # noqa: E402
from workloads import WORKLOADS, latency_ms, throughput  # noqa: E402

#: an untraced run sets the program up at least this many times and for at
#: least this long, and reports the median as setup_s
SETUP_REPS = 3
SETUP_MIN_S = 1.0
#: machine speed is measured again after at least this much operation time
CALIBRATE_EVERY_S = 0.05
QEXP_MODULES = ("qexp", "qexp.cli", "qexp.corpus", "qexp.evaluation", "qexp.expansion",
                "qexp.exposure", "qexp.predictors", "qexp.retrieval", "qexp.text")
REFERENCE = HERE / "reference.json"
END_TO_END = {"setup_s": "s", "throughput_per_s": "1/s", "latency_p50_ms": "ms", "peak_rss_mb": "MB"}


class CheckoutError(Exception):
    """The directory holds no program to benchmark."""


def import_qexp():
    """Import the program afresh from the checkout; returns its modules by short name."""
    src = ROOT / "src"
    for name in [n for n in sys.modules if n == "qexp" or n.startswith("qexp.")]:
        del sys.modules[name]
    modules = {name.rsplit(".", 1)[-1]: importlib.import_module(name) for name in QEXP_MODULES}
    origin = Path(modules["qexp"].__file__).resolve()
    if src.resolve() not in origin.parents:
        raise CheckoutError(f"qexp imported from {origin}, not from {src}")
    return SimpleNamespace(**modules)


def reference_for(workload, seed: int) -> dict | None:
    """Digests the seed program produced for this workload and seed, if recorded."""
    if not REFERENCE.is_file():
        return None
    table = json.loads(REFERENCE.read_text("utf-8"))
    entry = table.get(workload.name, {})
    if entry.get("config") != repr(workload.default_config()):
        return None
    return entry.get("seeds", {}).get(str(seed))


def measure(name: str, seed: int, seconds: float, trace: bool, workdir: Path,
            config=None, expected: dict | None = None) -> dict:
    """Run one workload; returns the result with every metric and the counts."""
    workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[name](seed, workdir, config, expected)
    inputs = workload.generate()
    tracer = Tracer() if trace else None

    # every measured time is scaled to reference machine speed by the mean
    # of the kernel times measured just before and just after it
    kernels = [kernel_seconds()]
    setup_times: list[float] = []
    while True:
        start = perf_counter()
        if tracer is None:
            qx = import_qexp()
            workload.setup(qx, None)
        else:
            with tracer.span("setup"):
                qx = import_qexp()
                workload.setup(qx, tracer)
        elapsed = perf_counter() - start
        kernels.append(kernel_seconds())
        setup_times.append(elapsed * 2 * REFERENCE_S / sum(kernels[-2:]))
        if trace or len(setup_times) >= SETUP_REPS and sum(setup_times) >= SETUP_MIN_S:
            break
    inputs.update(workload.properties(qx))

    workload.phase = "op"
    ops, traced, pending = [], [], []
    kernels.append(kernel_seconds())
    deadline = perf_counter() + seconds
    i = 0
    while not ops or perf_counter() < deadline or not workload.enough():
        workload.prepare(i)
        ops.append(workload.op(i, qx, None))
        pending.append(ops[-1])
        if tracer is not None:
            traced.append(workload.op(i, qx, tracer))
        i += 1
        if sum(o.latency for o in pending) >= CALIBRATE_EVERY_S:
            _rescale(pending, kernels)
            pending = []
    if pending:
        _rescale(pending, kernels)

    attempted = len(ops) + len(traced)
    failed = min(attempted, sum(not o.ok for o in ops + traced) + workload.extra_failed)
    result = {"workload": name, "seed": seed, "attempted": attempted, "failed": failed,
              "inputs": inputs, "unit": workload.unit,
              "kernel_ms": statistics.median(kernels) * 1000.0, "digests": workload.digests()}
    if tracer is None:
        values = {
            "setup_s": (statistics.median(setup_times), len(setup_times)),
            "throughput_per_s": (throughput(ops, workload.round_ops()), len(ops)),
            "latency_p50_ms": (latency_ms(ops, workload.round_ops()), len(ops)),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
        }
        result["metrics"] = {m: (v, END_TO_END[m], n) for m, (v, n) in values.items()}
        result["named"] = {k: (v, u, len(ops)) for k, (v, u) in workload.named_metrics(ops).items()}
        result["named"]["failed_ratio"] = (failed / attempted, "ratio", attempted)
    else:
        span_file = workdir.parent / f"spans-{name}.jsonl"
        tracer.write(span_file)
        result["spans_file"] = str(span_file)
        spans = read_spans(span_file)
        result["metrics"] = layers.layer_metrics(spans, workload, ops, traced)
        result["layer_sum_s"] = layers.layer_sum(spans, traced)
    return result


def _rescale(ops, kernels: list[float]) -> None:
    """Scale ``ops`` to reference machine speed by the kernel times around them."""
    kernels.append(kernel_seconds())
    for op in ops:
        op.scale = 2 * REFERENCE_S / sum(kernels[-2:])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qexp" / "__init__.py").is_file():
        print(f"error: no program to benchmark: {ROOT / 'src' / 'qexp'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    work = HERE / "work"
    work.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work))
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), workdir,
                         expected=reference_for(WORKLOADS[args.workload], args.seed))
    except CheckoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{result['attempted']} operations, {result['failed']} failed; unit {result['unit']}")
    print("inputs " + json.dumps(result["inputs"], sort_keys=True))
    print(f"machine speed: median kernel run {result['kernel_ms']:.4g} ms; times are scaled "
          f"to {REFERENCE_S * 1000:g} ms")
    for key in ("metrics", "named"):
        for metric, (value, unit, n) in result.get(key, {}).items():
            print(f"metric {metric} = {value:.6g} {unit} (n={n})")
    if args.trace:
        m = result["metrics"]
        print(f"spans in {result['spans_file']}")
        print(f"layer self times sum to {result['layer_sum_s']:.6g} s per operation; "
              f"traced wall {m['trace.traced_op_s'][0]:.6g} s, untraced "
              f"{m['trace.untraced_op_s'][0]:.6g} s")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m: {"value": v, "unit": u} for m, (v, u, _) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
