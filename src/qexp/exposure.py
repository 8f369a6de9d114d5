"""Position-bias exposure model and achievable-exposure combinatorics.

A document at rank position p receives exposure 1/log2(p+1), the DCG
discount; a group's exposure is the sum over the positions its documents
occupy. An alternative drop-off 1/(log2(p)+1) is available behind the
``formula`` switch for sensitivity checks.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import combinations
from typing import Mapping, Sequence

from .corpus import CollectionIndex
from .retrieval import Ranking

DCG = "dcg"
SHIFTED_LOG = "shifted-log"
FORMULAS = (DCG, SHIFTED_LOG)


def position_exposure(p: int, formula: str = DCG) -> float:
    """Exposure weight of rank position p >= 1; strictly decreasing in p."""
    if p < 1:
        raise ValueError("rank positions start at 1")
    if formula == DCG:
        return 1.0 / math.log2(p + 1)
    if formula == SHIFTED_LOG:
        return 1.0 / (math.log2(p) + 1.0)
    raise ValueError(f"unknown exposure formula {formula!r}")


def group_exposure(
    ranking: Ranking,
    index: CollectionIndex,
    category: str,
    formula: str = DCG,
) -> dict[str, float]:
    """Raw exposure accumulated by each of the category's groups."""
    cat = index.category(category)
    totals = {g: 0.0 for g in cat.groups}
    for pos, (doc_id, _) in enumerate(ranking.entries, start=1):
        try:
            group = index.doc_group(doc_id, category)
        except KeyError:
            raise KeyError(
                f"ranked document {doc_id!r} has no label for category {category!r}"
            ) from None
        totals[group] += position_exposure(pos, formula)
    return totals


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
        if any(v < 0 for v in self.values):
            raise ValueError("exposure shares must be nonnegative")
        if abs(sum(self.values) - 1.0) > 1e-9:
            raise ValueError("exposure shares must sum to 1")


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
    total = sum(values)
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
    formula: str = DCG,
) -> ExposureDistribution:
    cat = index.category(category)
    raw = group_exposure(ranking, index, category, formula)
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
    mean: float
    sample_size: int | None = None

    @property
    def min_value(self) -> float:
        return self.bins[0][0]

    @property
    def max_value(self) -> float:
        return self.bins[-1][1]


#: exact enumeration refuses to walk more position subsets than this
DEFAULT_SUBSET_BUDGET = 5_000_000
#: distinct-value histograms switch to equal-width bins above this
MAX_DISTINCT_VALUES = 10_000


def achievable_exposure(
    k: int,
    m: int,
    mode: str = "exact",
    *,
    bins: int = 200,
    budget: int = DEFAULT_SUBSET_BUDGET,
    samples: int = 100_000,
    seed: int = 0,
    formula: str = DCG,
) -> ExposureHistogram:
    if not 0 <= m <= k:
        raise ValueError("m must satisfy 0 <= m <= k")
    if mode not in ("exact", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")

    weights = [position_exposure(p, formula) for p in range(1, k + 1)]
    n_subsets = math.comb(k, m)
    lo = sum(weights[k - m :])  # m lowest positions
    hi = sum(weights[:m])  # m highest positions

    if mode == "exact":
        if n_subsets > budget:
            raise ValueError(
                f"exact mode needs C({k},{m})={n_subsets} subset evaluations, "
                f"over the budget of {budget}; use sampled mode"
            )
        values = [
            sum(weights[i] for i in subset)
            for subset in combinations(range(k), m)
        ]
        mean = sum(values) / len(values)
        out_bins = _bin_values(values, lo, hi, bins)
        return ExposureHistogram(k, m, "exact", out_bins, n_subsets, mean)

    rng = random.Random(seed)
    positions = list(range(k))
    values = [
        sum(weights[i] for i in rng.sample(positions, m)) for _ in range(samples)
    ]
    mean = sum(values) / len(values)
    scale = n_subsets / samples
    tallies = _bin_values(values, lo, hi, bins, force_equal_width=True)
    est = tuple((low, high, count * scale) for low, high, count in tallies)
    return ExposureHistogram(k, m, "sampled", est, n_subsets, mean, sample_size=samples)


def _bin_values(values, lo, hi, n_bins, force_equal_width=False):
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
    counts = [0] * n_bins
    width = (hi - lo) / n_bins
    for v in values:
        i = min(int((v - lo) / width), n_bins - 1)
        counts[max(i, 0)] += 1
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
