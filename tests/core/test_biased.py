"""Tests for repro.core.biased — V-OptBiasHist and the end-biased class."""

import heapq

import numpy as np
import pytest

from repro.core.biased import (
    all_biased_partitions,
    all_end_biased_histograms,
    end_biased_histogram,
    end_biased_sizes,
    v_opt_bias_hist,
)
from repro.core.histogram import Histogram
from repro.core.serial import v_opt_hist_exhaustive
from repro.data.synthetic import reverse_zipf_frequencies
from repro.data.zipf import zipf_frequencies


def heap_selection_sizes(freqs: np.ndarray, buckets: int) -> tuple[int, ...]:
    """V-OptBiasHist's bucket sizes with the extremes picked by heaps.

    The selection as first written (``heapq.nlargest``/``nsmallest`` over
    the frequency list), kept as the reference for the ``np.partition``
    one; valid for ``1 < buckets < len(freqs)``.
    """
    singles = buckets - 1
    values = freqs.tolist()
    top = np.sort(np.array(heapq.nlargest(singles, values), dtype=np.float64))[::-1]
    bottom = np.sort(np.array(heapq.nsmallest(singles, values), dtype=np.float64))[::-1]
    top_sum = np.concatenate([[0.0], np.cumsum(top, dtype=np.float64)])
    top_sq = np.concatenate([[0.0], np.cumsum(top * top, dtype=np.float64)])
    bottom_rev = bottom[::-1]
    bottom_sum = np.concatenate([[0.0], np.cumsum(bottom_rev, dtype=np.float64)])
    bottom_sq = np.concatenate([[0.0], np.cumsum(bottom_rev * bottom_rev, dtype=np.float64)])
    total_sum = float(freqs.sum())
    total_sq = float(np.dot(freqs, freqs))
    best_high, best_error = 0, np.inf
    for high in range(singles, -1, -1):
        low = singles - high
        seg_sum = total_sum - top_sum[high] - bottom_sum[low]
        seg_sq = total_sq - top_sq[high] - bottom_sq[low]
        error = seg_sq - seg_sum * seg_sum / (freqs.size - singles)
        if error < best_error - 1e-12:
            best_error, best_high = error, high
    return end_biased_sizes(freqs.size, buckets, best_high)


class TestEndBiasedSizes:
    def test_layout(self):
        assert end_biased_sizes(10, 4, high=2) == (1, 1, 7, 1)
        assert end_biased_sizes(10, 4, high=0) == (7, 1, 1, 1)
        assert end_biased_sizes(10, 4, high=3) == (1, 1, 1, 7)

    def test_sum(self):
        sizes = end_biased_sizes(10, 5, high=2)
        assert sum(sizes) == 10

    def test_rejects_bad_high(self):
        with pytest.raises(ValueError, match="high singletons"):
            end_biased_sizes(10, 3, high=5)

    def test_rejects_too_few_frequencies(self):
        with pytest.raises(ValueError, match="at least"):
            end_biased_sizes(3, 4, high=1)


class TestEndBiasedHistogram:
    def test_structure(self, zipf_small):
        hist = end_biased_histogram(zipf_small, 4, high=2)
        assert hist.is_end_biased()
        assert hist.is_serial()
        assert hist.bucket_count == 4

    def test_high_buckets_hold_top_frequencies(self, zipf_small):
        hist = end_biased_histogram(zipf_small, 3, high=2)
        singleton_values = sorted(
            b.frequencies[0] for b in hist.buckets if b.count == 1
        )
        top_two = sorted(np.sort(zipf_small)[-2:])
        assert singleton_values == pytest.approx(top_two)

    def test_low_buckets_hold_bottom_frequencies(self, zipf_small):
        hist = end_biased_histogram(zipf_small, 3, high=0)
        singleton_values = sorted(
            b.frequencies[0] for b in hist.buckets if b.count == 1
        )
        bottom_two = sorted(np.sort(zipf_small)[:2])
        assert singleton_values == pytest.approx(bottom_two)

    def test_kind(self, zipf_small):
        assert end_biased_histogram(zipf_small, 3, 1).kind == "end-biased"


class TestVOptBiasHist:
    def test_is_optimal_among_end_biased(self, zipf_small):
        best = v_opt_bias_hist(zipf_small, 4)
        for candidate in all_end_biased_histograms(zipf_small, 4):
            assert best.self_join_error() <= candidate.self_join_error() + 1e-9

    def test_is_optimal_among_all_biased(self, zipf_small):
        """Corollary 3.1: the optimal biased histogram is end-biased."""
        best = v_opt_bias_hist(zipf_small, 3)
        for candidate in all_biased_partitions(zipf_small, 3):
            assert best.self_join_error() <= candidate.self_join_error() + 1e-9

    def test_result_is_end_biased(self, zipf_medium):
        assert v_opt_bias_hist(zipf_medium, 7).is_end_biased()

    def test_zipf_prefers_high_singletons(self, zipf_medium):
        """Zipf skew → high frequencies in the univalued buckets (4.2)."""
        hist = v_opt_bias_hist(zipf_medium, 5)
        singles = [b.frequencies[0] for b in hist.buckets if b.count == 1]
        top = np.sort(zipf_medium)[-4:]
        assert sorted(singles) == pytest.approx(sorted(top))

    def test_reverse_zipf_prefers_low_singletons(self):
        """Reverse-Zipf shape → low frequencies singled out instead."""
        freqs = reverse_zipf_frequencies(1000, 100, 2.0)
        hist = v_opt_bias_hist(freqs, 5)
        singles = [b.frequencies[0] for b in hist.buckets if b.count == 1]
        bottom = np.sort(freqs)[:4]
        assert sorted(singles) == pytest.approx(sorted(bottom))

    def test_never_beats_optimal_serial(self, zipf_small):
        """End-biased is a subclass of serial: its optimum can't be better."""
        for beta in (2, 3, 4, 5):
            serial = v_opt_hist_exhaustive(zipf_small, beta)
            end_biased = v_opt_bias_hist(zipf_small, beta)
            assert serial.self_join_error() <= end_biased.self_join_error() + 1e-9

    def test_single_bucket(self, zipf_small):
        hist = v_opt_bias_hist(zipf_small, 1)
        assert hist.bucket_count == 1

    def test_beta_equals_m_exact(self, zipf_small):
        hist = v_opt_bias_hist(zipf_small, 10)
        assert hist.self_join_error() == 0.0
        assert hist.bucket_count == 10

    def test_beta_exceeds_m_rejected(self, zipf_small):
        with pytest.raises(ValueError, match="cannot build"):
            v_opt_bias_hist(zipf_small, 11)

    def test_error_monotone_in_buckets(self, zipf_medium):
        errors = [v_opt_bias_hist(zipf_medium, beta).self_join_error() for beta in range(1, 20)]
        for earlier, later in zip(errors, errors[1:]):
            assert later <= earlier + 1e-9

    def test_matches_bruteforce_split(self, zipf_small):
        """Cross-check against directly evaluating every high/low split."""
        beta = 4
        best_direct = min(
            Histogram.from_sorted_sizes(
                zipf_small, end_biased_sizes(10, beta, h)
            ).self_join_error()
            for h in range(beta)
        )
        assert v_opt_bias_hist(zipf_small, beta).self_join_error() == pytest.approx(best_direct)

    def test_selection_matches_the_heap_reference(self, rng):
        """2000 random frequency sets, heavy ties and floats included."""
        for trial in range(2000):
            size = int(rng.integers(3, 60))
            shape = trial % 4
            if shape == 0:  # heavy ties
                freqs = rng.integers(0, 4, size).astype(np.float64)
            elif shape == 1:  # floats
                freqs = rng.random(size) * 100.0
            elif shape == 2:  # a few distinct levels, far apart
                freqs = rng.choice([0.5, 7.0, 7.0, 1e6], size)
            else:  # skewed counts
                freqs = np.floor(rng.pareto(1.0, size) * 10.0)
            buckets = int(rng.integers(2, size))
            expected = Histogram.from_sorted_sizes(
                freqs, heap_selection_sizes(freqs, buckets), kind="end-biased"
            )
            chosen = v_opt_bias_hist(freqs, buckets)
            assert chosen.index_groups == expected.index_groups, (trial, freqs, buckets)

    def test_values_propagated(self):
        hist = v_opt_bias_hist([5.0, 1.0, 3.0], 2, values=["a", "b", "c"])
        assert hist.values == ("a", "b", "c")

    def test_uniform_any_split_zero_error(self):
        freqs = np.full(20, 5.0)
        assert v_opt_bias_hist(freqs, 5).self_join_error() == 0.0


class TestEnumerators:
    def test_end_biased_count(self, zipf_small):
        histograms = list(all_end_biased_histograms(zipf_small, 4))
        assert len(histograms) == 4  # one per high/low split

    def test_end_biased_all_valid(self, zipf_small):
        for hist in all_end_biased_histograms(zipf_small, 3):
            assert hist.is_end_biased()
            assert hist.bucket_count == 3

    def test_biased_partition_count(self):
        freqs = zipf_frequencies(100, 6, 1.0)
        histograms = list(all_biased_partitions(freqs, 3))
        assert len(histograms) == 15  # C(6, 2)

    def test_biased_partitions_are_biased(self):
        freqs = zipf_frequencies(100, 6, 1.0)
        assert all(h.is_biased() for h in all_biased_partitions(freqs, 3))
