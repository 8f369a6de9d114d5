"""Position-bias exposure model and achievable-exposure combinatorics.

A document at rank position p receives exposure 1/log2(p+1), the DCG
discount; a group's exposure is the sum over the positions its documents
occupy.
"""

from __future__ import annotations

import math
import random
import sys
from array import array
from collections import Counter
from functools import partial, reduce
from itertools import accumulate, chain, repeat
from operator import add
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

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
    ``random.Random(seed).sample`` over the k weights, read from the
    generator's 32-bit ``getrandbits`` words, and adds their weights left
    to right from 0. So the histogram depends on that word stream, not on
    the private ``_randbelow`` that ``random.sample`` calls. k must stay
    below 2**32 (one word per draw), which k weights held in memory imply.
    """

    k: int
    m: int
    mode: str
    bins: tuple[tuple[float, float, float], ...]  # (low, high, count)
    subsets: int  # C(k, m)
    sample_size: int | None = None


#: exact mode walks no more position subsets than this: it bounds time only, not memory
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
    sample_size = samples if mode == "sampled" else None

    if lo == hi:  # m is 0 or k: one subset, its sum counted once
        bins = ((float(lo), float(hi), float(n_subsets)),)
        return ExposureHistogram(k, m, mode, bins, n_subsets, sample_size)
    if mode == "exact":
        walk = partial(_subset_sums, weights, m)  # walked again past MAX_DISTINCT_VALUES
        out_bins = _distinct_bins(walk()) or _equal_width_bins(walk(), lo, hi)
        return ExposureHistogram(k, m, "exact", out_bins, n_subsets)

    values = _sampled_sums(weights, m, samples, seed)
    scale = n_subsets / samples
    tallies = _equal_width_bins(values, lo, hi)
    est = tuple((low, high, count * scale) for low, high, count in tallies)
    return ExposureHistogram(k, m, "sampled", est, n_subsets, sample_size)


def _subset_sums(weights: list[float], m: int) -> Iterator[float]:
    """Yield every m-subset's weight sum, 0 < m < k, in combinations() order; hold no list.

    Each sum is added left to right from 0, so it equals float_sum over the
    subset bit for bit, and a prefix that subsets share is added once.
    Branching on the first m-1 positions takes about C(k, m-1) Python
    steps; branching on the k-m positions left out takes about C(k, m),
    each summing the subset's last run in C, and is cheaper once
    m > 2(k-m).
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


#: 32-bit generator words fetched per getrandbits call (64 KB)
WORD_BLOCK = 1 << 14


def _word_block(rng: random.Random) -> array:
    """The generator's next WORD_BLOCK outputs, each as getrandbits(32) returns it.

    getrandbits(32 * n) puts the i-th output at bits 32i..32i+31.
    """
    words = array("I", rng.getrandbits(32 * WORD_BLOCK).to_bytes(4 * WORD_BLOCK, "little"))
    if sys.byteorder == "big":
        words.byteswap()
    return words


def _sampled_sums(weights: list[float], m: int, samples: int, seed: int) -> list[float]:
    """The weight sums of `samples` draws of m positions without replacement.

    Each draw takes the positions that random.Random(seed).sample(weights,
    m) takes, in its order, and adds their weights left to right from 0. It
    replays sample's two branches on one stream of 32-bit words: a position
    below n is the top n.bit_length() bits of the next word, drawn again
    while those bits are n or more, as randbelow(n) does. Small
    populations are drawn from a pool that swap-removes each pick, larger
    ones from all k positions, drawing again on a position already picked.
    """
    word = chain.from_iterable(map(_word_block, repeat(random.Random(seed)))).__next__
    k = len(weights)
    setsize = 21  # sample's bound between its two branches
    if m > 5:
        setsize += 4 ** math.ceil(math.log(m * 3, 4))
    values = []
    if k <= setsize:
        steps = [(n, 32 - n.bit_length(), n - 1) for n in range(k, k - m, -1)]
        for _ in range(samples):
            pool = weights[:]
            total = 0
            for n, shift, last in steps:
                j = word() >> shift
                while j >= n:
                    j = word() >> shift
                total += pool[j]
                pool[j] = pool[last]
            values.append(total)
    else:
        shift = 32 - k.bit_length()
        for _ in range(samples):
            picked = set()
            total = 0
            for _ in range(m):
                j = word() >> shift
                while j >= k or j in picked:
                    j = word() >> shift
                picked.add(j)
                total += weights[j]
            values.append(total)
    return values


def _distinct_bins(values: Iterable[float]) -> tuple | None:
    """A bin per distinct value rounded to 12 places; None past MAX_DISTINCT_VALUES of them."""
    distinct: dict[float, int] = {}
    for v in values:
        key = round(v, 12)
        distinct[key] = distinct.get(key, 0) + 1
        if len(distinct) > MAX_DISTINCT_VALUES:
            return None
    return tuple((v, v, float(c)) for v, c in sorted(distinct.items()))


def _equal_width_bins(values: Iterable[float], lo: float, hi: float) -> tuple:
    """HISTOGRAM_BINS (low, high, count) bins of equal width over [lo, hi]."""
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
