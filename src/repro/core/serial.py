"""Optimal serial histograms: the paper's V-OptHist algorithm (Section 4.1).

Serial histograms partition the *sorted* frequency set into contiguous runs.
By Theorem 3.3 the serial histogram minimising the self-join error
``Σ_i p_i·v_i`` (Proposition 3.1) is v-optimal for every query the relation
participates in, so finding it is a local, per-relation computation.

Two equivalent algorithms are provided:

* :func:`v_opt_hist_exhaustive` — the paper's V-OptHist: sort, then try every
  contiguous partition into β buckets.  Cost ``O(M log M + C(M−1, β−1))``
  (Theorem 4.1); only viable for small M/β, which is exactly the paper's
  point (Table 1).
* :func:`v_opt_hist_dp` — a dynamic program over the same search space.
  Because the optimal serial histogram is a contiguous partition of the
  sorted set and bucket costs are additive, the DP provably returns the
  same optimum; the test suite asserts equality against the exhaustive
  algorithm on all small inputs.  On sorted frequencies the optimal split
  points move monotonically, so each of its β levels is a divide and
  conquer (:func:`dp_sorted_partition`): ``O(β·M log M)`` in all.  Every
  serial ANALYZE and the figure sweeps use it.

:func:`dp_contiguous_partition` is the general ``O(M²·β)`` program for any
order.  Value-order histograms (:mod:`repro.core.valueorder`) need it,
because unsorted values break the monotonicity, and the tests use it as
the fast path's reference.
"""

from __future__ import annotations

from itertools import combinations
from math import comb
from typing import Iterator, Optional, Sequence

import numpy as np

from repro.core.frequency import FrequencyLike, as_frequency_array
from repro.core.histogram import Histogram
from repro.util.validation import ensure_positive_int

#: Partition-count threshold below which ``method="auto"`` picks the
#: exhaustive algorithm.  Above it the dynamic program is used.
AUTO_EXHAUSTIVE_LIMIT = 20_000


def _prepare(frequencies, buckets: int) -> tuple[np.ndarray, int]:
    freqs = as_frequency_array(frequencies)
    buckets = ensure_positive_int(buckets, "buckets")
    if buckets > freqs.size:
        raise ValueError(
            f"cannot build {buckets} buckets over {freqs.size} frequencies"
        )
    return freqs, buckets


def _prefix_sums(ordered: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Prefix sums of *ordered* and of its squares, each led by a 0.

    The values are first shifted down by their minimum, rounded down to
    an integer.  A bucket's SSE does not change under a shift, but
    computed as ``Σf² − (Σf)²/n`` from float64 sums it cancels to
    rounding noise once ``M·max²`` nears 2**53 — frequencies like
    ``1e9 + {0, 1, 2}`` — while the shifted sums stay as small as the
    spread of the values.  An integer shift is exact for every value
    below 2**53 and keeps integer frequencies integers.
    """
    if ordered.size:
        ordered = ordered - np.floor(ordered.min())
    prefix_sum = np.concatenate([[0.0], np.cumsum(ordered, dtype=np.float64)])
    prefix_sq = np.concatenate([[0.0], np.cumsum(ordered * ordered, dtype=np.float64)])
    return prefix_sum, prefix_sq


def _segment_sse(prefix_sum: np.ndarray, prefix_sq: np.ndarray, start: int, stop: int) -> float:
    """SSE (``p·v``) of the sorted-slice ``[start, stop)`` via prefix sums."""
    count = stop - start
    seg_sum = prefix_sum[stop] - prefix_sum[start]
    seg_sq = prefix_sq[stop] - prefix_sq[start]
    return seg_sq - seg_sum * seg_sum / count


def serial_error_from_sizes(frequencies: FrequencyLike, sizes: Sequence[int]) -> float:
    """Self-join error (formula (3)) of the serial histogram with *sizes*.

    *sizes* are bucket counts over the descending-sorted frequencies; the
    error is ``Σ_i p_i·v_i`` computed with prefix sums in ``O(M + β)``.
    """
    freqs = as_frequency_array(frequencies)
    sizes = tuple(int(s) for s in sizes)
    if any(s <= 0 for s in sizes):
        raise ValueError(f"bucket sizes must be positive, got {sizes}")
    if sum(sizes) != freqs.size:
        raise ValueError(
            f"bucket sizes {sizes} must sum to the number of frequencies "
            f"({freqs.size})"
        )
    prefix_sum, prefix_sq = _prefix_sums(np.sort(freqs)[::-1])
    error = 0.0
    start = 0
    for size in sizes:
        error += _segment_sse(prefix_sum, prefix_sq, start, start + size)
        start += size
    return float(max(error, 0.0))


def enumerate_serial_partitions(count: int, buckets: int) -> Iterator[tuple[int, ...]]:
    """Yield every composition of *count* into *buckets* positive parts.

    Each composition is the size tuple of one serial histogram over the
    sorted frequency set — the search space of the paper's V-OptHist.  There
    are ``C(count−1, buckets−1)`` of them.
    """
    count = ensure_positive_int(count, "count")
    buckets = ensure_positive_int(buckets, "buckets")
    if buckets > count:
        return
    for cuts in combinations(range(1, count), buckets - 1):
        edges = (0,) + cuts + (count,)
        yield tuple(edges[i + 1] - edges[i] for i in range(buckets))


def serial_partition_count(count: int, buckets: int) -> int:
    """Number of serial histograms with *buckets* buckets: ``C(M−1, β−1)``."""
    count = ensure_positive_int(count, "count")
    buckets = ensure_positive_int(buckets, "buckets")
    if buckets > count:
        return 0
    return comb(count - 1, buckets - 1)


def v_opt_hist_exhaustive(
    frequencies: FrequencyLike, buckets: int, values: Optional[Sequence] = None
) -> Histogram:
    """The paper's V-OptHist: exhaustive search over serial partitions.

    Sorts the frequency set, evaluates formula (3) for every contiguous
    partition into *buckets* buckets via prefix sums, and returns the
    histogram with minimum error.  Runs in
    ``O(M log M + C(M−1, β−1)·β)`` — exponential in practice (Table 1), so
    use :func:`v_opt_hist_dp` beyond small inputs.
    """
    freqs, buckets = _prepare(frequencies, buckets)
    prefix_sum, prefix_sq = _prefix_sums(np.sort(freqs)[::-1])

    best_sizes: Optional[tuple[int, ...]] = None
    best_error = np.inf
    for sizes in enumerate_serial_partitions(freqs.size, buckets):
        error = 0.0
        start = 0
        for size in sizes:
            error += _segment_sse(prefix_sum, prefix_sq, start, start + size)
            start += size
            if error >= best_error:
                break
        if error < best_error:
            best_error = error
            best_sizes = sizes
    assert best_sizes is not None  # buckets <= M guarantees a partition exists
    return Histogram.from_sorted_sizes(freqs, best_sizes, kind="serial", values=values)


def _split_costs(
    best: np.ndarray, prefix_sum: np.ndarray, prefix_sq: np.ndarray, splits, stops
) -> np.ndarray:
    """``best[s] + SSE([s, j))`` for each split ``s`` and stop ``j`` (broadcast).

    The one cost expression of both dynamic programs: a candidate scores
    the same float whichever program evaluates it.
    """
    seg_sum = prefix_sum[stops] - prefix_sum[splits]
    seg_sq = prefix_sq[stops] - prefix_sq[splits]
    return best[splits] + seg_sq - seg_sum * seg_sum / (stops - splits)


def _one_bucket_costs(prefix_sum: np.ndarray, prefix_sq: np.ndarray) -> np.ndarray:
    """DP level 1: the SSE of every prefix as one bucket (index 0 unused)."""
    best = np.full(prefix_sum.size, np.inf, dtype=np.float64)
    stops = np.arange(1, prefix_sum.size, dtype=np.int64)
    best[1:] = _split_costs(np.zeros(1, dtype=np.float64), prefix_sum, prefix_sq, 0, stops)
    return best


def _backtrack(back: np.ndarray, size: int) -> tuple[int, ...]:
    """Bucket sizes, first to last, from a table of chosen splits.

    ``back[k][j]`` is where the last of *k* buckets starts when they cover
    the first *j* values.
    """
    sizes_reversed = []
    j = size
    for k in range(back.shape[0] - 1, 1, -1):
        i = int(back[k][j])
        sizes_reversed.append(j - i)
        j = i
    sizes_reversed.append(j)
    return tuple(reversed(sizes_reversed))


def dp_contiguous_partition(ordered: np.ndarray, buckets: int) -> tuple[int, ...]:
    """Minimum-SSE partition of *ordered* into *buckets* contiguous runs.

    The order is the caller's; natural value order yields the value-range
    V-Optimal histogram used for range predicates.  ``O(M²·β)``: every
    prefix length tries every split, with the inner minimisation
    vectorised and ties going to the leftmost split.  Any order is
    allowed, because nothing here assumes the optimal splits move
    monotonically; on sorted input :func:`dp_sorted_partition` finds the
    same optimum in ``O(β·M log M)``, and the tests use this function as
    its reference.
    """
    buckets = ensure_positive_int(buckets, "buckets")
    size = int(ordered.size)
    prefix_sum, prefix_sq = _prefix_sums(ordered)
    best = _one_bucket_costs(prefix_sum, prefix_sq)
    back = np.zeros((buckets + 1, size + 1), dtype=np.int64)

    for k in range(2, buckets + 1):
        new_best = np.full(size + 1, np.inf, dtype=np.float64)
        for j in range(k, size + 1):
            splits = np.arange(k - 1, j, dtype=np.int64)
            costs = _split_costs(best, prefix_sum, prefix_sq, splits, j)
            choice = int(np.argmin(costs))
            new_best[j] = costs[choice]
            back[k][j] = splits[choice]
        best = new_best
    return _backtrack(back, size)


def _monotone_level(
    best: np.ndarray,
    prefix_sum: np.ndarray,
    prefix_sq: np.ndarray,
    first_split: int,
    first_row: int,
    last_row: int,
) -> tuple[np.ndarray, np.ndarray]:
    """One DP level by divide and conquer over monotone split points.

    Row ``j`` in ``[first_row, last_row]`` takes the leftmost minimum of
    :func:`_split_costs` over splits ``[first_split, j − 1]``.  Leftmost
    minima never move left as ``j`` grows, so solving the middle row of a
    range bounds the splits of both halves.  All ranges of one recursion
    depth are solved together as segments of one flat candidate array:
    about ``log M`` passes of ``O(M)`` numpy work.
    """
    new_best = np.full(best.size, np.inf, dtype=np.float64)
    choice = np.zeros(best.size, dtype=np.int64)
    # Pending row ranges [row_lo, row_hi], each with the window
    # [split_lo, split_hi] that the optima of its solved neighbours leave.
    row_lo = np.array([first_row], dtype=np.int64)
    row_hi = np.array([last_row], dtype=np.int64)
    split_lo = np.array([first_split], dtype=np.int64)
    split_hi = row_hi - 1
    while row_lo.size:
        mid = (row_lo + row_hi) // 2
        counts = np.minimum(split_hi, mid - 1) - split_lo + 1
        starts = np.cumsum(counts, dtype=np.int64) - counts
        total = int(starts[-1] + counts[-1])
        splits = np.arange(total, dtype=np.int64) - np.repeat(starts - split_lo, counts)
        costs = _split_costs(best, prefix_sum, prefix_sq, splits, np.repeat(mid, counts))
        # Leftmost minimum per segment: the first position equal to its min.
        minima = np.minimum.reduceat(costs, starts)
        hits = np.flatnonzero(costs == np.repeat(minima, counts))
        first = hits[np.searchsorted(hits, starts)]
        opt = splits[first]
        new_best[mid] = costs[first]
        choice[mid] = opt
        left = row_lo < mid
        right = mid < row_hi
        row_lo = np.concatenate([row_lo[left], mid[right] + 1])
        row_hi = np.concatenate([mid[left] - 1, row_hi[right]])
        split_lo = np.concatenate([split_lo[left], opt[right]])
        split_hi = np.concatenate([opt[left], split_hi[right]])
    return new_best, choice


def dp_sorted_partition(ordered: np.ndarray, buckets: int) -> tuple[int, ...]:
    """:func:`dp_contiguous_partition` for sorted input, in ``O(β·M log M)``.

    On sorted values the segment SSE obeys the quadrangle inequality, so
    the leftmost optimal last split is non-decreasing in the prefix length
    (the 1-D k-means property; Grønlund et al., "Fast Exact k-Means,
    k-Medians and Bregman Divergence Clustering in 1D").  Each level is
    then a divide and conquer over split windows (:func:`_monotone_level`)
    instead of a scan of every split.  Prefix sums, cost expression,
    leftmost tie rule and backtrack are those of
    :func:`dp_contiguous_partition`, so both return the same sizes
    wherever rounding keeps the monotonicity; on float input it can break
    an exact tie the other way, at the same error.  Unsorted input would
    break the monotonicity outright and is refused.
    """
    buckets = ensure_positive_int(buckets, "buckets")
    size = int(ordered.size)
    if buckets > size:
        raise ValueError(f"cannot build {buckets} buckets over {size} values")
    steps = np.diff(ordered)
    if not (np.all(steps <= 0) or np.all(steps >= 0)):
        raise ValueError("dp_sorted_partition needs sorted input")
    with np.errstate(over="ignore"):  # refused just below, with a reason
        prefix_sum, prefix_sq = _prefix_sums(ordered)
    if not np.isfinite(prefix_sq[-1]):
        raise ValueError("frequencies too large: their squares overflow float64")
    best = _one_bucket_costs(prefix_sum, prefix_sq)
    back = np.zeros((buckets + 1, size + 1), dtype=np.int64)
    for k in range(2, buckets + 1):
        # Level k feeds only the prefixes that leave one value for each
        # later bucket; the last level, only the whole set.
        first_row = size if k == buckets else k
        best, back[k] = _monotone_level(
            best, prefix_sum, prefix_sq, k - 1, first_row, size - buckets + k
        )
    return _backtrack(back, size)


def v_opt_hist_dp(
    frequencies: FrequencyLike, buckets: int, values: Optional[Sequence] = None
) -> Histogram:
    """Dynamic-program equivalent of V-OptHist in ``O(β·M log M)``.

    ``best[k][j]`` is the minimum total SSE of splitting the first *j* sorted
    frequencies into *k* buckets; bucket costs are additive so the optimal
    solution has optimal prefixes, and on the descending-sorted frequencies
    each level is solved by :func:`dp_sorted_partition`'s divide and
    conquer.  Returns the same optimum as the exhaustive search (asserted
    by the test suite on small inputs), possibly differing in tie-broken
    bucket boundaries of equal error.
    """
    freqs, buckets = _prepare(frequencies, buckets)
    ordered = np.sort(freqs)[::-1]
    sizes = dp_sorted_partition(ordered, buckets)
    return Histogram.from_sorted_sizes(freqs, sizes, kind="serial", values=values)


def v_optimal_serial_histogram(
    frequencies: FrequencyLike,
    buckets: int,
    values: Optional[Sequence] = None,
    method: str = "auto",
) -> Histogram:
    """Return the v-optimal serial histogram with *buckets* buckets.

    ``method`` selects the algorithm: ``"exhaustive"`` (the paper's
    V-OptHist), ``"dp"`` (the equivalent dynamic program), or ``"auto"``
    (exhaustive while the partition count stays below
    ``AUTO_EXHAUSTIVE_LIMIT``, DP otherwise).
    """
    freqs, buckets = _prepare(frequencies, buckets)
    if method == "auto":
        partitions = serial_partition_count(freqs.size, buckets)
        method = "exhaustive" if partitions <= AUTO_EXHAUSTIVE_LIMIT else "dp"
    if method == "exhaustive":
        return v_opt_hist_exhaustive(freqs, buckets, values=values)
    if method == "dp":
        return v_opt_hist_dp(freqs, buckets, values=values)
    raise ValueError(f"unknown method {method!r}; expected auto, exhaustive, or dp")


def all_serial_histograms(frequencies: FrequencyLike, buckets: int) -> Iterator[Histogram]:
    """Yield every serial histogram with *buckets* buckets (for small inputs).

    Used by the test suite to verify optimality claims exhaustively.
    """
    freqs, buckets = _prepare(frequencies, buckets)
    for sizes in enumerate_serial_partitions(freqs.size, buckets):
        yield Histogram.from_sorted_sizes(freqs, sizes, kind="serial")
