"""Position-bias exposure model and achievable-exposure combinatorics.

A document at rank position p receives exposure 1/log2(p+1), the DCG
discount; a group's exposure is the sum over the positions its documents
occupy.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate
from operator import add
from typing import Iterable, Iterator, Mapping, Sequence

from .corpus import CollectionIndex
from .retrieval import Ranking


def float_sum(values: Iterable[float], start: float = 0) -> float:
    """Sum left to right from start, on every Python version.

    Since 3.12 the builtin sum compensates float rounding and would change a
    report's last bits; every float sum that reaches a report uses this one.
    """
    return reduce(add, values, start)


def position_exposure(p: int) -> float:
    """Exposure weight of rank position p >= 1; strictly decreasing in p."""
    if p < 1:
        raise ValueError("rank positions start at 1")
    return 1.0 / math.log2(p + 1)


def group_exposure(
    ranking: Ranking,
    index: CollectionIndex,
    category: str,
) -> dict[str, float]:
    """Raw exposure accumulated by each of the category's groups."""
    cat = index.category(category)
    totals = {g: 0.0 for g in cat.groups}
    for pos, (doc_id, _) in enumerate(ranking.entries, start=1):
        totals[index.doc_group(doc_id, category)] += position_exposure(pos)
    return totals


def check_distribution(values: Sequence[float], what: str) -> None:
    """Reject values that are not a probability distribution, NaN included."""
    # written so that NaN fails both checks
    if not all(v >= 0.0 for v in values):
        raise ValueError(f"{what} must be nonnegative")
    if not abs(sum(values) - 1.0) <= 1e-9:
        raise ValueError(f"{what} must sum to 1")


@dataclass(frozen=True)
class ExposureDistribution:
    """Per-group exposure shares aligned to the category's group order."""

    category: str
    groups: tuple[str, ...]
    values: tuple[float, ...]
    degenerate: bool = False

    def __post_init__(self):
        if len(self.groups) != len(self.values):
            raise ValueError("one value per group required")
        check_distribution(self.values, "exposure shares")


def normalize_exposure(
    category_name: str,
    groups: Sequence[str],
    raw: Mapping[str, float],
) -> ExposureDistribution:
    """Divide raw per-group exposure by its sum.

    An all-zero input yields the uniform distribution flagged as
    degenerate; negative inputs are rejected.
    """
    values = [raw.get(g, 0.0) for g in groups]
    if any(v < 0 for v in values):
        raise ValueError("raw exposure values must be nonnegative")
    total = float_sum(values)
    if total == 0.0:
        n = len(groups)
        return ExposureDistribution(
            category_name, tuple(groups), (1.0 / n,) * n, degenerate=True
        )
    return ExposureDistribution(
        category_name, tuple(groups), tuple(v / total for v in values)
    )


def realized_exposure(
    ranking: Ranking,
    index: CollectionIndex,
    category: str,
) -> ExposureDistribution:
    cat = index.category(category)
    raw = group_exposure(ranking, index, category)
    return normalize_exposure(category, cat.groups, raw)


# ---------------------- achievable exposure analysis -----------------------

@dataclass(frozen=True)
class ExposureHistogram:
    """How often each amount of group exposure is achievable.

    A "ranking" here is a choice of m positions out of 1..k for the
    group's documents; permutations within a fixed position set all give
    the group the same exposure. Exact mode enumerates all C(k, m)
    position subsets. Sampled mode draws subsets uniformly and scales
    tallies up to estimated counts, recording the sample size.
    """

    k: int
    m: int
    mode: str
    bins: tuple[tuple[float, float, float], ...]  # (low, high, count)
    subsets: int  # C(k, m)
    sample_size: int | None = None


#: exact enumeration refuses to walk more position subsets than this
DEFAULT_SUBSET_BUDGET = 5_000_000
#: distinct-value histograms switch to equal-width bins above this
MAX_DISTINCT_VALUES = 10_000
#: the number of equal-width bins
HISTOGRAM_BINS = 200


def check_achievable_args(k: int, m: int, mode: str, *, samples: int) -> None:
    """Reject what achievable_exposure would reject, before any subset is walked."""
    if not 0 <= m <= k:
        raise ValueError(f"m={m} outside 0..k={k}")
    if mode not in ("exact", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    n_subsets = math.comb(k, m)
    if mode == "exact" and n_subsets > DEFAULT_SUBSET_BUDGET:
        raise ValueError(
            f"exact mode needs C({k},{m})={n_subsets} subset evaluations, "
            f"over the budget of {DEFAULT_SUBSET_BUDGET}; use sampled mode"
        )


def achievable_exposure(
    k: int,
    m: int,
    mode: str = "exact",
    *,
    samples: int = 100_000,
    seed: int = 0,
) -> ExposureHistogram:
    check_achievable_args(k, m, mode, samples=samples)
    weights = [position_exposure(p) for p in range(1, k + 1)]
    n_subsets = math.comb(k, m)
    lo = float_sum(weights[k - m :])  # m lowest positions
    hi = float_sum(weights[:m])  # m highest positions

    if mode == "exact":
        values = _subset_sums(weights, m)
        out_bins = _bin_values(values, lo, hi)
        return ExposureHistogram(k, m, "exact", out_bins, n_subsets)

    rng = random.Random(seed)
    # sampling the weights draws the same positions as sampling range(k)
    values = [float_sum(rng.sample(weights, m)) for _ in range(samples)]
    scale = n_subsets / samples
    tallies = _bin_values(values, lo, hi, force_equal_width=True)
    est = tuple((low, high, count * scale) for low, high, count in tallies)
    return ExposureHistogram(k, m, "sampled", est, n_subsets, sample_size=samples)


def _subset_sums(weights: list[float], m: int) -> list[float]:
    """The weight sum of every m-subset of positions, in combinations() order.

    Each sum is added left to right from 0, so it equals float_sum over the
    subset bit for bit, and a prefix that subsets share is added once.
    Branching on the first m-1 positions takes about C(k, m-1) Python
    steps; branching on the k-m positions left out takes about C(k, m),
    each summing the subset's last run in C, and is cheaper once
    m > 2(k-m).
    """
    k = len(weights)
    if m == 0:
        return [0]
    if 2 * (k - m) < m:
        return list(_skip_sums(weights, k - m))
    return [s + w for s, start in _prefix_sums(weights, m - 1) for w in weights[start:]]


def _prefix_sums(
    weights: list[float], n: int, start: int = 0, total: float = 0
) -> Iterator[tuple[float, int]]:
    """Yield (total + the n-subset's sum, the position after it) for every
    n-subset of positions start.. that leaves one position after it, in
    lexicographic order."""
    if n == 0:
        yield total, start
        return
    for i in range(start, len(weights) - n):
        yield from _prefix_sums(weights, n - 1, i + 1, total + weights[i])


def _skip_sums(weights: list[float], r: int, start: int = 0, total: float = 0) -> Iterator[float]:
    """Yield total + the sum of positions start.. but r left out, for every
    choice of the r, in lexicographic order of the positions kept."""
    if r == 0:
        yield float_sum(weights[start:], total)
        return
    # runs[j]: total plus positions start..start+j-1, if start+j is the next left out
    runs = list(accumulate(weights[start : len(weights) - r], initial=total))
    for q in reversed(range(start, len(weights) - r + 1)):
        yield from _skip_sums(weights, r - 1, q + 1, runs[q - start])


def _bin_values(values, lo, hi, force_equal_width=False):
    distinct: dict[float, int] = {}
    if not force_equal_width:
        for v in values:
            key = round(v, 12)
            distinct[key] = distinct.get(key, 0) + 1
            if len(distinct) > MAX_DISTINCT_VALUES:
                distinct = {}
                break
    if distinct:
        return tuple((v, v, float(c)) for v, c in sorted(distinct.items()))
    if hi == lo:
        return ((lo, hi, float(len(values))),)
    counts = [0] * HISTOGRAM_BINS
    width = (hi - lo) / HISTOGRAM_BINS
    # a value past either end (rounding at lo or hi) goes into the end bin
    for i, c in Counter(int((v - lo) / width) for v in values).items():
        counts[min(max(i, 0), HISTOGRAM_BINS - 1)] += c
    return tuple(
        (lo + i * width, lo + (i + 1) * width, float(c))
        for i, c in enumerate(counts)
    )


def log_orderings(k: int) -> float:
    """log10 of the number of orderings (k!) of a ranking of size k."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return math.lgamma(k + 1) / math.log(10.0)


def orderings(k: int) -> int:
    """Exact k! for small k; grows past 10^157 already at k=100."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return math.factorial(k)
