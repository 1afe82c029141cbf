"""Property-based tests (hypothesis) on histogram invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.biased import v_opt_bias_hist
from repro.core.frequency import AttributeDistribution, FrequencySet
from repro.core.heuristic import equi_depth_histogram, equi_width_histogram, trivial_histogram
from repro.core.histogram import Histogram
from repro.core.serial import (
    dp_contiguous_partition,
    dp_sorted_partition,
    enumerate_serial_partitions,
    serial_error_from_sizes,
    v_opt_hist_dp,
    v_opt_hist_exhaustive,
)
from repro.core.valueorder import v_optimal_value_histogram

# Frequency multisets: positive, bounded, small enough for exhaustive oracles.
frequencies = st.lists(
    st.floats(min_value=0.01, max_value=1e4, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=12,
)
small_frequencies = st.lists(
    st.floats(min_value=0.01, max_value=1e3, allow_nan=False, allow_infinity=False),
    min_size=2,
    max_size=8,
)


# Inputs for the sorted-order fast path against the general DP.  Both take
# a bucket's SSE as Σf² − (Σf)²/n from float64 prefix sums, so the bounds
# keep M·max² < 2^53: the sums of squares stay exact for integers and the
# rounding stays far below any real gap between partitions.  Past that the
# costs of both programs cancel to rounding noise (on 34 values in
# 1e9 + {0, 1, 2} they differ by multiples of 4096 where the true errors
# are 5 and 18), so neither is a reference there.
integer_frequencies = st.lists(st.integers(min_value=1, max_value=1000), min_size=1, max_size=150)


@st.composite
def tie_heavy_frequencies(draw):
    """Up to 150 draws from a pool of at most 6 values: long runs of ties."""
    pool = draw(st.lists(st.integers(min_value=1, max_value=1000), min_size=1, max_size=6))
    return draw(st.lists(st.sampled_from(pool), min_size=1, max_size=150))


wide_float_frequencies = st.lists(
    st.floats(min_value=0.01, max_value=1e4, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=150,
)


@st.composite
def frequencies_and_buckets(draw, source=frequencies, max_buckets=None):
    freqs = draw(source)
    limit = len(freqs) if max_buckets is None else min(len(freqs), max_buckets)
    beta = draw(st.integers(min_value=1, max_value=limit))
    return freqs, beta


def descending(freqs):
    return np.sort(np.asarray(freqs, dtype=np.float64))[::-1]


class TestApproximationInvariants:
    @given(frequencies_and_buckets())
    @settings(max_examples=60)
    def test_bucket_averages_preserve_total(self, case):
        freqs, beta = case
        hist = v_opt_bias_hist(freqs, beta)
        assert hist.approximate_frequencies().sum() == pytest.approx(
            float(np.sum(freqs)), rel=1e-9
        )

    @given(frequencies_and_buckets())
    @settings(max_examples=60)
    def test_self_join_error_non_negative(self, case):
        freqs, beta = case
        hist = v_opt_bias_hist(freqs, beta)
        assert hist.self_join_error() >= -1e-9

    @given(frequencies_and_buckets())
    @settings(max_examples=60)
    def test_estimate_never_exceeds_exact(self, case):
        """Jensen's inequality: Σ f̂² <= Σ f² for bucket-average histograms."""
        freqs, beta = case
        hist = v_opt_hist_dp(freqs, beta)
        assert hist.self_join_estimate() <= float(np.dot(freqs, freqs)) + 1e-6

    @given(frequencies_and_buckets(), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=40)
    def test_approximate_array_permutation_invariance(self, case, seed):
        """Applying the histogram commutes with permuting the arrangement."""
        freqs, beta = case
        hist = v_opt_bias_hist(freqs, beta)
        gen = np.random.default_rng(seed)
        permutation = gen.permutation(len(freqs))
        base = np.asarray(freqs, dtype=float)
        approx_then_permute = hist.approximate_array(base)[permutation]
        permute_then_approx = hist.approximate_array(base[permutation])
        assert np.allclose(np.sort(approx_then_permute), np.sort(permute_then_approx))

    @given(frequencies)
    @settings(max_examples=40)
    def test_trivial_histogram_constant(self, freqs):
        hist = trivial_histogram(freqs)
        approx = hist.approximate_frequencies()
        assert np.allclose(approx, approx[0])


class TestSortedOrderFastPath:
    """``dp_sorted_partition`` (monotone splits) against the general DP."""

    @given(
        st.one_of(
            frequencies_and_buckets(integer_frequencies, max_buckets=24),
            frequencies_and_buckets(tie_heavy_frequencies(), max_buckets=24),
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_integer_sizes_identical_to_general_dp(self, case):
        freqs, beta = case
        ordered = descending(freqs)
        assert dp_sorted_partition(ordered, beta) == dp_contiguous_partition(ordered, beta)

    @given(frequencies_and_buckets(wide_float_frequencies, max_buckets=24))
    @settings(max_examples=100, deadline=None)
    def test_float_error_equal_to_general_dp(self, case):
        """Errors, not sizes: two partitions of one float set can both
        score 0.0 (a real tie, broken by rounding), so sizes may differ."""
        freqs, beta = case
        ordered = descending(freqs)
        fast = serial_error_from_sizes(freqs, dp_sorted_partition(ordered, beta))
        general = serial_error_from_sizes(freqs, dp_contiguous_partition(ordered, beta))
        # A bucket's SSE carries rounding noise of a few ulps of Σf².
        noise = 1e-12 * float(np.dot(ordered, ordered))
        assert fast == pytest.approx(general, rel=1e-9, abs=noise)

    def test_value_order_keeps_the_exact_dp(self):
        """Unsorted, the optimal splits need not move monotonically: on this
        input a monotone split search returns sizes (2, 2, 1), SSE 12.5,
        while the value-order optimum is (1, 3, 1), SSE 32/3."""
        freqs = [1.0, 4.0, 8.0, 4.0, 9.0]
        dist = AttributeDistribution(range(len(freqs)), freqs)
        ordered = np.asarray(freqs, dtype=np.float64)
        brute_force = min(
            sum(
                float(np.sum(part * part) - np.sum(part) ** 2 / part.size)
                for part in np.split(ordered, np.cumsum(sizes)[:-1])
            )
            for sizes in enumerate_serial_partitions(len(freqs), 3)
        )
        assert v_optimal_value_histogram(dist, 3).self_join_error() == pytest.approx(
            brute_force, rel=1e-12
        )
        assert brute_force == pytest.approx(32 / 3, rel=1e-12)
        with pytest.raises(ValueError, match="sorted"):
            dp_sorted_partition(ordered, 3)


class TestOptimalityProperties:
    @given(frequencies_and_buckets())
    @settings(max_examples=60, deadline=None)
    def test_dp_equals_exhaustive(self, case):
        freqs, beta = case
        dp = v_opt_hist_dp(freqs, beta)
        exhaustive = v_opt_hist_exhaustive(freqs, beta)
        assert dp.self_join_error() == pytest.approx(
            exhaustive.self_join_error(), rel=1e-9, abs=1e-7
        )

    @given(frequencies_and_buckets(), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=40)
    def test_serial_optimum_beats_random_partition(self, case, seed):
        freqs, beta = case
        best = v_opt_hist_dp(freqs, beta).self_join_error()
        gen = np.random.default_rng(seed)
        indices = gen.permutation(len(freqs))
        groups = [tuple(g) for g in np.array_split(indices, beta) if len(g)]
        if len(groups) < beta:
            return  # split produced empty groups; partition not comparable
        candidate = Histogram(freqs, groups).self_join_error()
        assert best <= candidate + 1e-6

    @given(frequencies_and_buckets())
    @settings(max_examples=40)
    def test_end_biased_optimum_is_serial_and_end_biased(self, case):
        freqs, beta = case
        hist = v_opt_bias_hist(freqs, beta)
        assert hist.is_serial()
        assert hist.is_end_biased()

    @given(small_frequencies)
    @settings(max_examples=30)
    def test_error_monotone_in_buckets(self, freqs):
        errors = [
            v_opt_hist_dp(freqs, beta).self_join_error()
            for beta in range(1, len(freqs) + 1)
        ]
        for earlier, later in zip(errors, errors[1:]):
            assert later <= earlier + 1e-6
        assert errors[-1] == pytest.approx(0.0, abs=1e-6)

    @given(frequencies_and_buckets())
    @settings(max_examples=40)
    def test_serial_error_formula_consistency(self, case):
        freqs, beta = case
        hist = v_opt_hist_dp(freqs, beta)
        sorted_sizes = tuple(
            len(g)
            for g in sorted(
                hist.index_groups,
                key=lambda g: -max(np.asarray(freqs, dtype=float)[list(g)]),
            )
        )
        # Prefix-sum SSE suffers catastrophic cancellation near zero error,
        # so the comparison uses a modest relative tolerance.
        assert serial_error_from_sizes(freqs, sorted_sizes) == pytest.approx(
            hist.self_join_error(), rel=1e-6, abs=1e-4
        )


class TestHeuristicProperties:
    @given(frequencies_and_buckets(), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=40)
    def test_equi_depth_total_balance(self, case, seed):
        freqs, beta = case
        gen = np.random.default_rng(seed)
        dist = AttributeDistribution(
            range(len(freqs)), gen.permutation(np.asarray(freqs, dtype=float))
        )
        hist = equi_depth_histogram(dist, beta)
        assert hist.bucket_count == beta
        target = dist.total / beta
        max_freq = float(dist.frequencies.max())
        for bucket in hist.buckets[:-1]:
            # Greedy quantile cuts keep each (non-final) bucket within one
            # maximal frequency of the target depth.
            assert bucket.total <= target + max_freq + 1e-9

    @given(frequencies_and_buckets())
    @settings(max_examples=40)
    def test_equi_width_value_counts(self, case):
        freqs, beta = case
        dist = AttributeDistribution(range(len(freqs)), freqs)
        hist = equi_width_histogram(dist, beta)
        counts = [b.count for b in hist.buckets]
        assert max(counts) - min(counts) <= 1
        assert sum(counts) == len(freqs)


class TestFrequencySetProperties:
    @given(frequencies)
    @settings(max_examples=40)
    def test_frequency_set_sorted(self, freqs):
        fset = FrequencySet(freqs)
        assert np.all(np.diff(fset.frequencies) <= 0)

    @given(frequencies, st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=40)
    def test_permutation_invariance(self, freqs, seed):
        gen = np.random.default_rng(seed)
        assert FrequencySet(freqs) == FrequencySet(gen.permutation(freqs))
