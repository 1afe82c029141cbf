"""Tests for repro.core.serial — V-OptHist and its dynamic program."""

from fractions import Fraction

import numpy as np
import pytest

from repro.core.serial import (
    AUTO_EXHAUSTIVE_LIMIT,
    all_serial_histograms,
    dp_contiguous_partition,
    dp_sorted_partition,
    enumerate_serial_partitions,
    serial_error_from_sizes,
    serial_partition_count,
    v_opt_hist_dp,
    v_opt_hist_exhaustive,
    v_optimal_serial_histogram,
)
from repro.data.zipf import zipf_frequencies
from repro.util.rng import derive_rng


class TestEnumerateSerialPartitions:
    def test_counts_match_formula(self):
        for m, beta in [(5, 2), (6, 3), (7, 4), (8, 1)]:
            partitions = list(enumerate_serial_partitions(m, beta))
            assert len(partitions) == serial_partition_count(m, beta)

    def test_partitions_are_compositions(self):
        for sizes in enumerate_serial_partitions(6, 3):
            assert len(sizes) == 3
            assert sum(sizes) == 6
            assert all(s >= 1 for s in sizes)

    def test_all_distinct(self):
        partitions = list(enumerate_serial_partitions(7, 3))
        assert len(set(partitions)) == len(partitions)

    def test_beta_exceeds_m_yields_nothing(self):
        assert list(enumerate_serial_partitions(3, 4)) == []

    def test_beta_one(self):
        assert list(enumerate_serial_partitions(5, 1)) == [(5,)]

    def test_beta_equals_m(self):
        assert list(enumerate_serial_partitions(4, 4)) == [(1, 1, 1, 1)]


class TestSerialErrorFromSizes:
    def test_matches_histogram_error(self, zipf_small):
        from repro.core.histogram import Histogram

        sizes = (2, 3, 5)
        direct = serial_error_from_sizes(zipf_small, sizes)
        via_hist = Histogram.from_sorted_sizes(zipf_small, sizes).self_join_error()
        assert direct == pytest.approx(via_hist)

    def test_all_singletons_zero_error(self, zipf_small):
        assert serial_error_from_sizes(zipf_small, (1,) * 10) == 0.0

    def test_one_bucket_is_total_sse(self, zipf_small):
        error = serial_error_from_sizes(zipf_small, (10,))
        assert error == pytest.approx(zipf_small.size * zipf_small.var())

    def test_rejects_bad_sizes(self, zipf_small):
        with pytest.raises(ValueError, match="sum"):
            serial_error_from_sizes(zipf_small, (3, 3))


class TestVOptHistExhaustive:
    def test_is_minimum_over_all_serial(self, zipf_small):
        best = v_opt_hist_exhaustive(zipf_small, 3)
        for candidate in all_serial_histograms(zipf_small, 3):
            assert best.self_join_error() <= candidate.self_join_error() + 1e-9

    def test_result_is_serial(self, zipf_small):
        assert v_opt_hist_exhaustive(zipf_small, 4).is_serial()

    def test_bucket_count(self, zipf_small):
        assert v_opt_hist_exhaustive(zipf_small, 4).bucket_count == 4

    def test_one_bucket_equals_trivial(self, zipf_small):
        hist = v_opt_hist_exhaustive(zipf_small, 1)
        assert hist.bucket_count == 1
        assert hist.self_join_error() == pytest.approx(
            serial_error_from_sizes(zipf_small, (10,))
        )

    def test_beta_equals_m_is_exact(self, zipf_small):
        assert v_opt_hist_exhaustive(zipf_small, 10).self_join_error() == 0.0

    def test_beta_exceeds_m_rejected(self, zipf_small):
        with pytest.raises(ValueError, match="cannot build"):
            v_opt_hist_exhaustive(zipf_small, 11)

    def test_kind(self, zipf_small):
        assert v_opt_hist_exhaustive(zipf_small, 3).kind == "serial"

    def test_values_propagated(self):
        freqs = [5.0, 1.0, 3.0]
        hist = v_opt_hist_exhaustive(freqs, 2, values=["a", "b", "c"])
        assert hist.values == ("a", "b", "c")


class TestVOptHistDP:
    @pytest.mark.parametrize("m,beta", [(5, 2), (8, 3), (10, 4), (12, 5), (15, 3)])
    def test_matches_exhaustive_on_zipf(self, m, beta):
        freqs = zipf_frequencies(1000, m, 1.0)
        dp = v_opt_hist_dp(freqs, beta)
        exhaustive = v_opt_hist_exhaustive(freqs, beta)
        assert dp.self_join_error() == pytest.approx(exhaustive.self_join_error())

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_exhaustive_on_random(self, seed):
        gen = np.random.default_rng(seed)
        freqs = gen.uniform(0.0, 100.0, size=9)
        for beta in (2, 3, 4):
            dp = v_opt_hist_dp(freqs, beta)
            exhaustive = v_opt_hist_exhaustive(freqs, beta)
            assert dp.self_join_error() == pytest.approx(
                exhaustive.self_join_error()
            ), f"seed={seed} beta={beta}"

    def test_handles_duplicates(self):
        freqs = [4.0, 4.0, 4.0, 1.0, 1.0]
        dp = v_opt_hist_dp(freqs, 2)
        assert dp.self_join_error() == pytest.approx(0.0)

    def test_large_input(self, zipf_medium):
        hist = v_opt_hist_dp(zipf_medium, 10)
        assert hist.bucket_count == 10
        assert hist.is_serial()

    def test_monotone_in_buckets(self, zipf_medium):
        """The optimal serial error never increases with more buckets."""
        errors = [v_opt_hist_dp(zipf_medium, beta).self_join_error() for beta in range(1, 12)]
        for earlier, later in zip(errors, errors[1:]):
            assert later <= earlier + 1e-9

    def test_uniform_distribution_zero_error(self):
        freqs = np.full(50, 20.0)
        assert v_opt_hist_dp(freqs, 3).self_join_error() == 0.0


class TestVOptimalSerialHistogram:
    def test_auto_picks_exhaustive_for_small(self, zipf_small):
        hist = v_optimal_serial_histogram(zipf_small, 3, method="auto")
        assert hist.self_join_error() == pytest.approx(
            v_opt_hist_exhaustive(zipf_small, 3).self_join_error()
        )

    def test_auto_uses_dp_for_large(self, zipf_medium):
        assert serial_partition_count(100, 10) > AUTO_EXHAUSTIVE_LIMIT
        hist = v_optimal_serial_histogram(zipf_medium, 10, method="auto")
        assert hist.bucket_count == 10

    def test_explicit_methods_agree(self, zipf_small):
        a = v_optimal_serial_histogram(zipf_small, 4, method="exhaustive")
        b = v_optimal_serial_histogram(zipf_small, 4, method="dp")
        assert a.self_join_error() == pytest.approx(b.self_join_error())

    def test_unknown_method_rejected(self, zipf_small):
        with pytest.raises(ValueError, match="unknown method"):
            v_optimal_serial_histogram(zipf_small, 3, method="magic")

    def test_groups_similar_frequencies(self):
        """Serial optimum separates the two frequency clusters exactly."""
        freqs = [100.0, 99.0, 98.0, 2.0, 1.0]
        hist = v_optimal_serial_histogram(freqs, 2)
        sizes = sorted(b.count for b in hist.buckets)
        assert sizes == [2, 3]
        high = max(hist.buckets, key=lambda b: b.average)
        assert sorted(high.frequencies.tolist()) == [98.0, 99.0, 100.0]


class TestAllSerialHistograms:
    def test_yields_every_partition(self, zipf_small):
        histograms = list(all_serial_histograms(zipf_small, 3))
        assert len(histograms) == serial_partition_count(10, 3)
        assert all(h.is_serial() for h in histograms)


class TestDpContiguousPartition:
    def test_respects_given_order(self):
        """The DP partitions whatever order it is given (value order here)."""
        from repro.core.serial import dp_contiguous_partition

        ordered = np.array([1.0, 100.0, 1.0, 1.0])
        sizes = dp_contiguous_partition(ordered, 3)
        assert sum(sizes) == 4
        assert len(sizes) == 3
        # The spike must be isolated: splitting around index 1.
        edges = np.cumsum((0,) + sizes)
        blocks = [ordered[a:b] for a, b in zip(edges[:-1], edges[1:])]
        spike_block = next(b for b in blocks if 100.0 in b)
        assert spike_block.size == 1

    def test_single_bucket(self):
        from repro.core.serial import dp_contiguous_partition

        assert dp_contiguous_partition(np.array([3.0, 1.0]), 1) == (2,)

    def test_all_singletons(self):
        from repro.core.serial import dp_contiguous_partition

        assert dp_contiguous_partition(np.array([3.0, 1.0, 2.0]), 3) == (1, 1, 1)


class TestDpSortedPartition:
    @pytest.mark.parametrize("beta", [1, 2, 5, 16])
    def test_either_direction_matches_general_dp(self, zipf_medium, beta):
        ordered = np.sort(np.asarray(zipf_medium, dtype=np.float64))
        for order in (ordered[::-1], ordered):
            assert dp_sorted_partition(order, beta) == dp_contiguous_partition(order, beta)

    def test_unsorted_input_refused(self):
        with pytest.raises(ValueError, match="sorted"):
            dp_sorted_partition(np.array([1.0, 3.0, 2.0]), 2)

    def test_too_many_buckets_refused(self):
        with pytest.raises(ValueError, match="buckets"):
            dp_sorted_partition(np.array([3.0, 1.0]), 3)

    def test_overflowing_squares_refused(self):
        with pytest.raises(ValueError, match="overflow"):
            v_opt_hist_dp([1e200, 1e200, 1.0], 2)


def _exact_sse(ordered, sizes):
    """Σ p·v of the contiguous partition *sizes* of *ordered*, in Fractions."""
    values = [Fraction(int(v)) for v in ordered]
    total = Fraction(0)
    start = 0
    for size in sizes:
        block = values[start : start + size]
        mean = sum(block) / size
        total += sum((v - mean) ** 2 for v in block)
        start += size
    return total


class TestLargeNearEqualFrequencies:
    """Frequencies near 1e9 that differ by 0–2.  Raw float64 prefix sums
    of squares cancel to noise there; every search shifts by the minimum
    first and must find the exact optimum (checked in Fractions)."""

    FREQS = np.sort(1e9 + derive_rng(0).integers(0, 3, 34))

    @pytest.mark.parametrize("beta", [2, 3])
    def test_dps_find_the_exact_optimum(self, beta):
        ascending = self.FREQS
        descending = ascending[::-1].copy()
        for ordered in (ascending, descending):
            best = min(
                _exact_sse(ordered, sizes)
                for sizes in enumerate_serial_partitions(ordered.size, beta)
            )
            assert _exact_sse(ordered, dp_sorted_partition(ordered, beta)) == best
            assert _exact_sse(ordered, dp_contiguous_partition(ordered, beta)) == best

    def test_two_bucket_optimum(self):
        assert dp_sorted_partition(self.FREQS, 2) == (21, 13)
        assert dp_contiguous_partition(self.FREQS, 2) == (21, 13)

    def test_exhaustive_search_and_error_agree_with_fractions(self):
        descending = self.FREQS[::-1].copy()
        histogram = v_opt_hist_exhaustive(self.FREQS, 2)
        sizes = tuple(len(bucket) for bucket in histogram.buckets)
        best = min(
            _exact_sse(descending, sizes)
            for sizes in enumerate_serial_partitions(descending.size, 2)
        )
        assert _exact_sse(descending, sizes) == best
        assert serial_error_from_sizes(self.FREQS, sizes) == pytest.approx(
            float(best), rel=1e-12
        )
