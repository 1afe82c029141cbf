"""Biased and end-biased histograms: V-OptBiasHist (Section 4.2).

A *biased* histogram keeps β−1 frequencies exact in univalued buckets and
approximates the rest with one multivalued bucket.  The serial members of
the class are *end-biased* — univalued buckets hold the highest and lowest
frequencies — and by Corollary 3.1 / Theorem 3.3 the v-optimal biased
histogram is end-biased.

Because every univalued bucket contributes zero variance, the v-optimal
end-biased histogram is the one whose multivalued (middle) bucket has the
least SSE.  Only ``β`` candidates exist (how many of the β−1 singletons come
from the top versus the bottom), so the paper's V-OptBiasHist runs in
``O(M + (β−1)·log M)`` using a heap to find the extreme frequencies
(Theorem 4.2).  :func:`v_opt_bias_hist` implements exactly that, with one
linear-time selection (``np.partition``) in place of the heap.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

import numpy as np

from repro.core.frequency import FrequencyLike, as_frequency_array
from repro.core.histogram import Histogram
from repro.util.validation import ensure_positive_int


def _prepare(frequencies, buckets: int) -> tuple[np.ndarray, int]:
    freqs = as_frequency_array(frequencies)
    buckets = ensure_positive_int(buckets, "buckets")
    if buckets > freqs.size:
        raise ValueError(
            f"cannot build {buckets} buckets over {freqs.size} frequencies"
        )
    return freqs, buckets


def end_biased_sizes(count: int, buckets: int, high: int) -> tuple[int, ...]:
    """Bucket-size tuple of the end-biased histogram with *high* top singletons.

    ``high`` singletons are carved off the top of the sorted order and
    ``buckets − 1 − high`` off the bottom; the remainder forms the single
    multivalued bucket.  Expressed as sizes over descending order:
    ``(1,)*high + (middle,) + (1,)*low``.
    """
    high = int(high)
    low = buckets - 1 - high
    if high < 0 or low < 0:
        raise ValueError(
            f"high singletons must lie in [0, {buckets - 1}], got {high}"
        )
    middle = count - (buckets - 1)
    if middle < 1:
        raise ValueError(
            f"{buckets} buckets need at least {buckets} frequencies, got {count}"
        )
    return (1,) * high + (middle,) + (1,) * low


def end_biased_histogram(
    frequencies: FrequencyLike, buckets: int, high: int, values: Optional[Sequence] = None
) -> Histogram:
    """Build the end-biased histogram with *high* top and β−1−high bottom singletons."""
    freqs, buckets = _prepare(frequencies, buckets)
    sizes = end_biased_sizes(freqs.size, buckets, high)
    return Histogram.from_sorted_sizes(freqs, sizes, kind="end-biased", values=values)


def v_opt_bias_hist(
    frequencies: FrequencyLike, buckets: int, values: Optional[Sequence] = None
) -> Histogram:
    """The paper's V-OptBiasHist: the v-optimal end-biased histogram.

    Selects the β−1 extreme frequencies with one selection (no full sort), then
    evaluates the β ways of splitting the singletons between the top and the
    bottom, returning the one whose middle bucket has minimal SSE
    (formula (3) with all univalued buckets contributing zero).  Ties prefer
    more *high* singletons, matching the practical sampling shortcut that can
    only find high frequencies (Section 4.2).
    """
    freqs, buckets = _prepare(frequencies, buckets)
    singles = buckets - 1

    if singles == 0:
        return Histogram.from_sorted_sizes(
            freqs, (freqs.size,), kind="end-biased", values=values
        )
    if freqs.size == buckets:
        # Every bucket univalued: the histogram is exact.
        return Histogram.from_sorted_sizes(
            freqs, (1,) * buckets, kind="end-biased", values=values
        )

    # Selection of the candidate extremes — O(M + singles·log singles).
    # Only their values are used, so which of several tied frequencies is
    # picked cannot change the chosen sizes.
    extremes = np.partition(freqs, (singles - 1, freqs.size - singles))
    top = np.sort(extremes[freqs.size - singles :])[::-1]
    bottom = np.sort(extremes[:singles])[::-1]

    total_sum = float(freqs.sum())
    total_sq = float(np.dot(freqs, freqs))

    top_sum = np.concatenate([[0.0], np.cumsum(top, dtype=np.float64)])
    top_sq = np.concatenate([[0.0], np.cumsum(top * top, dtype=np.float64)])
    bottom_rev = bottom[::-1]  # ascending: easiest-to-remove first
    bottom_sum = np.concatenate([[0.0], np.cumsum(bottom_rev, dtype=np.float64)])
    bottom_sq = np.concatenate([[0.0], np.cumsum(bottom_rev * bottom_rev, dtype=np.float64)])

    best_high = 0
    best_error = np.inf
    middle_count_base = freqs.size - singles
    for high in range(singles, -1, -1):
        low = singles - high
        seg_sum = total_sum - top_sum[high] - bottom_sum[low]
        seg_sq = total_sq - top_sq[high] - bottom_sq[low]
        error = seg_sq - seg_sum * seg_sum / middle_count_base
        if error < best_error - 1e-12:
            best_error = error
            best_high = high
    sizes = end_biased_sizes(freqs.size, buckets, best_high)
    return Histogram.from_sorted_sizes(freqs, sizes, kind="end-biased", values=values)


def all_end_biased_histograms(frequencies: FrequencyLike, buckets: int) -> Iterator[Histogram]:
    """Yield the β end-biased histograms with *buckets* buckets.

    The candidates differ only in how many singletons come from the top of
    the sorted order; there are fewer candidates than frequencies, the fact
    that makes V-OptBiasHist near-linear.
    """
    freqs, buckets = _prepare(frequencies, buckets)
    if buckets - 1 > freqs.size - 1:
        # All-singleton degenerate case has a single member.
        yield Histogram.from_sorted_sizes(freqs, (1,) * buckets, kind="end-biased")
        return
    for high in range(buckets):
        yield end_biased_histogram(freqs, buckets, high)


def all_biased_partitions(frequencies: FrequencyLike, buckets: int) -> Iterator[Histogram]:
    """Yield every *biased* histogram over the frequency indices (tiny inputs).

    A biased histogram keeps β−1 frequencies in singleton buckets and lumps
    the rest together; candidates are all (β−1)-subsets of the indices.  Used
    by tests to verify Corollary 3.1 (optimal biased is end-biased)
    exhaustively.
    """
    from itertools import combinations

    freqs, buckets = _prepare(frequencies, buckets)
    indices = range(freqs.size)
    singles = buckets - 1
    if singles >= freqs.size:
        return
    for chosen in combinations(indices, singles):
        rest = tuple(i for i in indices if i not in set(chosen))
        groups = [(i,) for i in chosen] + [rest]
        yield Histogram(freqs, groups, kind="biased")
