"""Machine speed, measured between operations with a fixed pure-Python kernel.

On a shared host (measured on a 2-core Xeon VM at 2.1 GHz), other tenants
slow the machine down by up to 2x for seconds to minutes at a time, so
that whole runs can be slow. The kernel does the same kind of work as the
program (regex tokenizing, dict updates, float logs, sorting) and never
changes, so its time tracks the machine's speed.
A run scales each measured time by REFERENCE_S / (kernel time around it):
results read as times on a machine where one kernel run takes REFERENCE_S.
"""

from __future__ import annotations

import gc
import math
import re
from time import perf_counter

#: one kernel run on an unloaded 2-core Xeon VM at 2.1 GHz takes about this
REFERENCE_S = 0.001
#: runs per measurement; the median is kept
REPEATS = 3

_TEXT = " ".join(f"word{i % 97}ing the{i % 13} alpha{i * 7 % 31}s" for i in range(800))
_WORD = re.compile(r"[a-z0-9]+")


def _kernel() -> list:
    counts: dict[str, float] = {}
    for word in _WORD.findall(_TEXT):
        key = word[:-1] if word.endswith("s") else word
        counts[key] = counts.get(key, 0.0) + math.log2(len(key) + 1)
    return sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))


def kernel_seconds() -> float:
    """Median time of REPEATS kernel runs, with the cyclic GC paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(REPEATS):
            start = perf_counter()
            _kernel()
            times.append(perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return sorted(times)[REPEATS // 2]
