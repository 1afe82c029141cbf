"""Tests for repro.core.estimator."""

import numpy as np
import pytest

from repro.core.biased import v_opt_bias_hist
from repro.core.estimator import (
    approximate_chain,
    estimate_chain,
    estimate_equality,
    estimate_join,
    estimate_membership,
    estimate_not_equal,
    estimate_range,
    estimate_self_join,
    relative_error,
)
from repro.core.frequency import AttributeDistribution
from repro.core.heuristic import trivial_histogram
from repro.core.histogram import Histogram
from repro.core.matrix import FrequencyMatrix, arrange_frequency_set, chain_result_size
from repro.data.zipf import zipf_frequencies


def value_aware_hist(values, freqs, beta):
    return v_opt_bias_hist(freqs, beta, values=values)


class TestSelectionEstimates:
    def test_equality_explicit_value_is_exact(self):
        hist = value_aware_hist(["a", "b", "c", "d"], [50.0, 10.0, 9.0, 8.0], 2)
        assert estimate_equality(hist, "a") == 50.0

    def test_equality_bucketed_value_uses_average(self):
        hist = value_aware_hist(["a", "b", "c", "d"], [50.0, 10.0, 9.0, 8.0], 2)
        assert estimate_equality(hist, "c") == pytest.approx(9.0)

    def test_equality_unknown_value_zero(self):
        hist = value_aware_hist(["a", "b"], [5.0, 3.0], 2)
        assert estimate_equality(hist, "zzz") == 0.0

    def test_membership_sums(self):
        hist = value_aware_hist(["a", "b", "c"], [6.0, 3.0, 1.0], 3)
        assert estimate_membership(hist, ["a", "c"]) == pytest.approx(7.0)

    def test_membership_deduplicates(self):
        hist = value_aware_hist(["a", "b"], [6.0, 3.0], 2)
        assert estimate_membership(hist, ["a", "a"]) == 6.0

    def test_not_equal_is_complement(self):
        dist = AttributeDistribution(["a", "b", "c"], [6.0, 3.0, 1.0])
        hist = trivial_histogram(dist)
        total_approx = hist.approximate_frequencies().sum()
        assert estimate_not_equal(hist, "a") == pytest.approx(
            total_approx - hist.approx_of_value("a")
        )

    def test_range(self):
        hist = value_aware_hist([1, 2, 3, 4, 5], [10.0, 8.0, 6.0, 4.0, 2.0], 5)
        assert estimate_range(hist, low=2, high=4) == pytest.approx(8 + 6 + 4)

    def test_range_exclusive_bounds(self):
        hist = value_aware_hist([1, 2, 3], [5.0, 3.0, 1.0], 3)
        assert estimate_range(
            hist, low=1, high=3, include_low=False, include_high=False
        ) == pytest.approx(3.0)

    def test_range_open_ended(self):
        hist = value_aware_hist([1, 2, 3], [5.0, 3.0, 1.0], 3)
        assert estimate_range(hist, low=2) == pytest.approx(4.0)
        assert estimate_range(hist, high=2) == pytest.approx(8.0)

    def test_range_exact_with_perfect_histogram(self):
        """Section 6: with all values exact, range estimates are exact."""
        values = list(range(10))
        freqs = zipf_frequencies(100, 10, 1.0)
        hist = Histogram.from_sorted_sizes(freqs, (1,) * 10, values=values)
        dist = hist.approximate_distribution()
        expected = sum(dist.frequency_of(v) for v in values if 3 <= v <= 7)
        assert estimate_range(hist, 3, 7) == pytest.approx(expected)

    def test_requires_values(self, zipf_small):
        hist = Histogram.single_bucket(zipf_small)
        with pytest.raises(ValueError, match="requires a histogram"):
            estimate_equality(hist, "a")


class TestJoinEstimates:
    def test_perfect_histograms_give_exact_size(self):
        values = ["a", "b", "c"]
        f0 = np.array([5.0, 3.0, 1.0])
        f1 = np.array([2.0, 4.0, 6.0])
        h0 = Histogram.from_sorted_sizes(f0, (1, 1, 1), values=values)
        h1 = Histogram.from_sorted_sizes(f1, (1, 1, 1), values=values)
        # from_sorted_sizes keeps reference order, so values align to freqs.
        assert estimate_join(h0, h1) == pytest.approx(5 * 2 + 3 * 4 + 1 * 6)

    def test_disjoint_domains_estimate_zero(self):
        h0 = value_aware_hist(["a"], [5.0], 1)
        h1 = value_aware_hist(["b"], [5.0], 1)
        assert estimate_join(h0, h1) == 0.0

    def test_symmetry(self):
        values = list(range(6))
        f0 = zipf_frequencies(60, 6, 1.0)
        f1 = zipf_frequencies(40, 6, 0.5)
        h0 = v_opt_bias_hist(f0, 3, values=values)
        h1 = v_opt_bias_hist(f1, 2, values=values)
        assert estimate_join(h0, h1) == pytest.approx(estimate_join(h1, h0))

    def test_self_join_formula(self, zipf_small):
        hist = v_opt_bias_hist(zipf_small, 4)
        assert estimate_self_join(hist) == pytest.approx(hist.self_join_estimate())


class TestChainEstimates:
    def _chain_setup(self, rng):
        sets = [
            zipf_frequencies(100, 5, 1.0),
            zipf_frequencies(100, 25, 0.5),
            zipf_frequencies(100, 5, 2.0),
        ]
        matrices = [
            arrange_frequency_set(sets[0], (1, 5), rng),
            arrange_frequency_set(sets[1], (5, 5), rng),
            arrange_frequency_set(sets[2], (5, 1), rng),
        ]
        return sets, matrices

    def test_perfect_histograms_recover_exact_size(self, rng):
        sets, matrices = self._chain_setup(rng)
        histograms = [
            Histogram.from_sorted_sizes(s, (1,) * s.size) for s in sets
        ]
        exact = chain_result_size(matrices)
        assert estimate_chain(histograms, matrices) == pytest.approx(exact)

    def test_trivial_histograms_chain(self, rng):
        sets, matrices = self._chain_setup(rng)
        histograms = [Histogram.single_bucket(s) for s in sets]
        estimate = estimate_chain(histograms, matrices)
        # Uniform approximation of every relation: product of T/M based sums.
        assert estimate > 0

    def test_approximate_matrices_shapes(self, rng):
        sets, matrices = self._chain_setup(rng)
        histograms = [Histogram.single_bucket(s) for s in sets]
        approx = approximate_chain(histograms, matrices)
        assert [a.shape for a in approx] == [(1, 5), (5, 5), (5, 1)]

    def test_count_mismatch_rejected(self, rng):
        sets, matrices = self._chain_setup(rng)
        with pytest.raises(ValueError, match="histograms"):
            estimate_chain([Histogram.single_bucket(sets[0])], matrices)


class TestRelativeError:
    def test_basic(self):
        assert relative_error(100.0, 80.0) == pytest.approx(0.2)

    def test_overestimate(self):
        assert relative_error(100.0, 150.0) == pytest.approx(0.5)

    def test_both_zero(self):
        assert relative_error(0.0, 0.0) == 0.0

    def test_zero_exact_nonzero_estimate(self):
        assert relative_error(0.0, 5.0) == float("inf")

    def test_exact_match(self):
        assert relative_error(7.0, 7.0) == 0.0
