"""Position-bias exposure model and achievable-exposure combinatorics.

A document at rank position p receives exposure 1/log2(p+1), the DCG
discount; a group's exposure is the sum over the positions its documents
occupy.
"""

from __future__ import annotations

import math
import random
import sys
from bisect import bisect_left, bisect_right
from collections import Counter
from functools import partial, reduce
from itertools import accumulate, islice
from operator import add, sub
from typing import Iterable, Iterator, NamedTuple, Sequence

from .corpus import CollectionIndex
from .retrieval import Ranking


def float_sum(values: Iterable[float], start: float = 0.0) -> float:
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
    totals = {g: 0.0 for g in index.category(category).groups}
    doc_groups = index.doc_groups(category)
    for pos, (doc_id, _) in enumerate(ranking.entries, start=1):
        try:
            group = doc_groups[doc_id]
        except KeyError:
            raise KeyError(f"unknown document {doc_id!r}") from None
        totals[group] += position_exposure(pos)
    return totals


def check_distribution(values: Sequence[float], what: str) -> None:
    """Reject values that are not a probability distribution, NaN included."""
    # written so that NaN fails both checks
    if not all(v >= 0.0 for v in values):
        raise ValueError(f"{what} must be nonnegative")
    if not abs(sum(values) - 1.0) <= 1e-9:
        raise ValueError(f"{what} must sum to 1")


class _ExposureDistributionFields(NamedTuple):
    category: str
    groups: tuple[str, ...]
    values: tuple[float, ...]
    degenerate: bool


class ExposureDistribution(_ExposureDistributionFields):
    """Per-group exposure shares aligned to the category's group order."""

    __slots__ = ()

    def __new__(cls, category: str, groups: tuple[str, ...], values: tuple[float, ...],
                degenerate: bool = False):
        if len(groups) != len(values):
            raise ValueError("one value per group required")
        check_distribution(values, "exposure shares")
        return super().__new__(cls, category, groups, values, degenerate)


def normalize_exposure(
    category_name: str,
    groups: tuple[str, ...],
    values: Sequence[float],
) -> ExposureDistribution:
    """Divide raw per-group exposure, one value per group in group order, by its sum.

    An all-zero input yields the uniform distribution flagged as
    degenerate; negative inputs are rejected.
    """
    if len(values) != len(groups):
        raise ValueError("one value per group required")
    if min(values) < 0.0:
        raise ValueError("raw exposure values must be nonnegative")
    total = float_sum(values)
    if total == 0.0:
        n = len(groups)
        return ExposureDistribution(category_name, groups, (1.0 / n,) * n, degenerate=True)
    return ExposureDistribution(category_name, groups, tuple([v / total for v in values]))


def realized_exposure(
    ranking: Ranking,
    index: CollectionIndex,
    category: str,
) -> ExposureDistribution:
    cat = index.category(category)
    raw = group_exposure(ranking, index, category)
    return normalize_exposure(category, cat.groups, [raw[g] for g in cat.groups])


# ---------------------- achievable exposure analysis -----------------------

class ExposureHistogram(NamedTuple):
    """How often each amount of group exposure is achievable.

    A "ranking" here is a choice of m positions out of 1..k for the
    group's documents; permutations within a fixed position set all give
    the group the same exposure. Exact mode enumerates all C(k, m)
    position subsets. Sampled mode draws subsets uniformly and scales
    tallies up to estimated counts, recording the sample size. When m is
    0 or k there is one subset, and both modes give the one bin of its sum
    with a count of 1.0.

    A sampled draw takes the same positions, in the same order, as
    ``random.Random(seed).sample`` over the k weights, each position below
    n drawn by ``getrandbits(n.bit_length())`` until it is below n, and
    adds their weights left to right from 0. So the histogram depends on
    the generator's ``getrandbits``, not on the private ``_randbelow`` that
    ``random.sample`` calls. Sampled sums are binned as they are drawn, so
    no list of them is held, whatever the sample size.
    """

    k: int
    m: int
    mode: str
    bins: tuple[tuple[float, float, float], ...]  # (low, high, count)
    subsets: int  # C(k, m)
    sample_size: int | None = None


#: exact mode counts no more position subsets than this: it bounds time only, not memory
DEFAULT_SUBSET_BUDGET = 5_000_000
#: distinct-value histograms switch to equal-width bins above this
MAX_DISTINCT_VALUES = 10_000
#: the number of equal-width bins
HISTOGRAM_BINS = 200
#: the most prefix sums exact mode holds at once while it counts equal-width bins
PREFIX_BLOCK = 1 << 13


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
    if mode == "sampled" and n_subsets > sys.float_info.max:
        # sampled mode scales its counts by C(k, m) / samples, a float
        raise ValueError(
            f"sampled mode scales by C({k},{m}), which exceeds the largest float "
            f"{sys.float_info.max!r}"
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
    sample_size = samples if mode == "sampled" else None

    if lo == hi:  # m is 0 or k: one subset, its sum counted once
        bins = ((float(lo), float(hi), float(n_subsets)),)
        return ExposureHistogram(k, m, mode, bins, n_subsets, sample_size)
    if mode == "exact":
        out_bins = _distinct_bins(_subset_sums(weights, m))
        if out_bins is None:
            counts = _exact_bin_counts(weights, m, _bin_thresholds(lo, hi))
            out_bins = _equal_width_bins(counts, lo, hi)
        return ExposureHistogram(k, m, "exact", out_bins, n_subsets)

    values = _sampled_sums(weights, m, samples, seed)
    scale = n_subsets / samples
    tallies = _equal_width_bins(_bin_counts(values, _bin_thresholds(lo, hi)), lo, hi)
    est = tuple((low, high, count * scale) for low, high, count in tallies)
    return ExposureHistogram(k, m, "sampled", est, n_subsets, sample_size)


def _subset_sums(weights: list[float], m: int) -> Iterator[float]:
    """Yield every m-subset's weight sum, 0 < m < k, in combinations() order; hold no list.

    Each sum is added left to right from 0, so it equals float_sum over the
    subset bit for bit, and a prefix that subsets share is added once.
    Branching on the first m-1 positions takes one Python step per subset,
    each a single addition; branching on the k-m positions left out also
    takes about C(k, m), each summing the subset's last run in C, and is
    cheaper once m > 2(k-m). Exact mode walks these sums for its distinct
    values, and again for equal-width bins only on the second branch.
    """
    k = len(weights)
    if 2 * (k - m) < m:
        return _skip_sums(weights, k - m)
    return (s + w for s, start in _prefix_sums(weights, m - 1) for w in weights[start:])


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


def _sampled_sums(weights: list[float], m: int, samples: int, seed: int) -> Iterator[float]:
    """Yield the weight sums of `samples` draws of m positions without replacement; hold no list.

    Each draw takes the positions that random.Random(seed).sample(weights,
    m) takes, in its order, and adds their weights left to right from 0. It
    replays sample's two branches with the generator's getrandbits: a
    position below n is getrandbits(n.bit_length()), drawn again while it
    is n or more, as randbelow(n) does. Small populations are drawn from a
    pool that swap-removes each pick, larger ones from all k positions,
    drawing again on a position already picked.
    """
    getrandbits = random.Random(seed).getrandbits
    k = len(weights)
    setsize = 21  # sample's bound between its two branches
    if m > 5:
        setsize += 4 ** math.ceil(math.log(m * 3, 4))
    if k <= setsize:
        steps = [(n, n.bit_length(), n - 1) for n in range(k, k - m, -1)]
        for _ in range(samples):
            pool = weights[:]
            total = 0
            for n, bits, last in steps:
                j = getrandbits(bits)
                while j >= n:
                    j = getrandbits(bits)
                total += pool[j]
                pool[j] = pool[last]
            yield total
    else:
        bits = k.bit_length()
        for _ in range(samples):
            picked = set()
            total = 0
            for _ in range(m):
                j = getrandbits(bits)
                while j >= k or j in picked:
                    j = getrandbits(bits)
                picked.add(j)
                total += weights[j]
            yield total


def _distinct_bins(values: Iterable[float]) -> tuple | None:
    """A bin per distinct value rounded to 12 places; None past MAX_DISTINCT_VALUES of them."""
    distinct: dict[float, int] = {}
    for v in values:
        key = round(v, 12)
        distinct[key] = distinct.get(key, 0) + 1
        if len(distinct) > MAX_DISTINCT_VALUES:
            return None
    return tuple((v, v, float(c)) for v, c in sorted(distinct.items()))


def _bin_thresholds(lo: float, hi: float) -> list[float]:
    """The least float of each equal-width bin over [lo, hi], 0 <= lo < hi, but the first.

    The bin of v is int((v - lo) / width), clamped to 0..HISTOGRAM_BINS-1,
    so a value past either end (rounding at lo or hi) is in the end bin; it
    never falls as v grows, so it is the number of thresholds at or below
    v, bisect_right(thresholds, v). This table is the only copy of that rule.
    With lo >= 0, as every exposure sum is, each threshold lies a few floats
    from lo + b * width; below 0 the floats near one can be too many to step.
    """
    width = (hi - lo) / HISTOGRAM_BINS
    thresholds = []
    for b in range(1, HISTOGRAM_BINS):
        v = lo + b * width
        while int((v - lo) / width) < b:
            v = math.nextafter(v, math.inf)
        while int((math.nextafter(v, -math.inf) - lo) / width) >= b:
            v = math.nextafter(v, -math.inf)
        thresholds.append(v)
    return thresholds


def _bin_counts(values: Iterable[float], thresholds: list[float]) -> list[int]:
    """How many values fall into each bin, one bisection per value."""
    tally = Counter(map(partial(bisect_right, thresholds), values))
    return [tally[b] for b in range(HISTOGRAM_BINS)]


def _exact_bin_counts(weights: list[float], m: int, thresholds: list[float]) -> list[int]:
    """How many m-subset sums, 0 < m < k, fall into each bin.

    Where _subset_sums branches on the positions left out, each sum is
    counted as it is walked. Otherwise a subset's sum is s + w, s the sum
    of its first m-1 positions as _prefix_sums yields it and w the weight of
    its last position d, so it is added as in _subset_sums. For each d the
    prefix sums that end before d are kept sorted, and s + w is
    non-decreasing in s, so one bisection per threshold counts the sums
    below it: about C(k, m-1) Python steps in place of C(k, m). The
    thresholds above all of a d's sums take their count through one entry
    of a difference array, summed once at the end. At most PREFIX_BLOCK
    prefix sums are held at once; counts add over the blocks.
    """
    k = len(weights)
    if 2 * (k - m) < m:  # the branch _subset_sums takes on the positions left out
        return _bin_counts(_subset_sums(weights, m), thresholds)
    below = [0] * len(thresholds)  # per threshold, the sums below it that a bisection counts
    full = [0] * (len(thresholds) + 1)  # full[j]: sums below threshold j and every later one
    prefixes = _prefix_sums(weights, m - 1)
    while True:
        ending = [[] for _ in range(k)]  # ending[d]: the block's prefix sums with d next
        for s, start in islice(prefixes, PREFIX_BLOCK):
            ending[start].append(s)
        if not any(ending):
            break
        sums: list[float] = []
        for w, new in zip(weights, ending):
            if new:
                sums += new
                sums.sort()
            if sums:  # only thresholds between the least and the greatest s + w need a bisection
                i = bisect_right(thresholds, sums[0] + w)
                j = bisect_right(thresholds, sums[-1] + w)
                count = partial(bisect_left, sums, key=w.__add__)
                below[i:j] = map(add, below[i:j], map(count, thresholds[i:j]))
                full[j] += len(sums)
    edges = [0, *map(add, below, accumulate(full)), math.comb(k, m)]
    return list(map(sub, edges[1:], edges))


def _equal_width_bins(counts: list[int], lo: float, hi: float) -> tuple:
    """HISTOGRAM_BINS (low, high, count) bins of equal width over [lo, hi]."""
    width = (hi - lo) / HISTOGRAM_BINS
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
