"""Tests for repro.serve.tables — compiled lookup tables."""

import numpy as np
import pytest

from repro.core.biased import v_opt_bias_hist
from repro.core.histogram import Histogram
from repro.engine.catalog import CompactEndBiased
from repro.serve.tables import (
    CompiledCompact,
    CompiledHistogram,
    compile_compact,
    compile_histogram,
)


@pytest.fixture
def numeric_hist():
    return v_opt_bias_hist(
        [50.0, 10.0, 9.0, 8.0, 2.0], 3, values=[10, 20, 30, 40, 50]
    )


@pytest.fixture
def large_hist():
    # 4096 codes: a domain as large as the perfbench ``bulk`` tables.
    n = 4096
    return v_opt_bias_hist(
        [float(f) for f in range(n, 0, -1)], 8, values=list(range(n))
    )


@pytest.fixture
def string_hist():
    return v_opt_bias_hist([6.0, 3.0, 1.0], 2, values=["a", "b", "c"])


class TestCompileHistogram:
    def test_caches_on_histogram(self, numeric_hist):
        first = compile_histogram(numeric_hist)
        second = compile_histogram(numeric_hist)
        assert first is second

    def test_rejects_non_histogram(self):
        with pytest.raises(TypeError, match="Histogram"):
            compile_histogram({"not": "a histogram"})

    def test_rejects_value_less_histogram(self):
        hist = Histogram.single_bucket(np.array([3.0, 2.0, 1.0]))
        with pytest.raises(ValueError, match="requires a histogram"):
            compile_histogram(hist)

    def test_numeric_fast_path_detected(self, numeric_hist, string_hist):
        assert compile_histogram(numeric_hist).is_numeric
        assert not compile_histogram(string_hist).is_numeric


class TestEquality:
    def test_matches_histogram_approximations(self, numeric_hist):
        table = compile_histogram(numeric_hist)
        for value in [10, 20, 30, 40, 50]:
            assert table.equality(value) == numeric_hist.approx_of_value(value)

    def test_unknown_value_zero(self, numeric_hist):
        assert compile_histogram(numeric_hist).equality(99) == 0.0

    def test_unhashable_probe_zero(self, numeric_hist):
        assert compile_histogram(numeric_hist).equality([1, 2]) == 0.0

    def test_batch_matches_scalar_exactly(self, numeric_hist, large_hist):
        n = 4096
        for hist, probes in (
            (numeric_hist, [10, 99, 30, -5, 50, 20]),
            (large_hist, [0, 17, n // 2, n - 1, n, -3]),
        ):
            table = compile_histogram(hist)
            batch = table.equality_batch(probes)
            scalar = [table.equality(v) for v in probes]
            assert np.array_equal(batch, np.asarray(scalar))

    def test_batch_generic_domain(self, string_hist):
        table = compile_histogram(string_hist)
        batch = table.equality_batch(["a", "zzz", "c"])
        scalar = [table.equality(v) for v in ["a", "zzz", "c"]]
        assert np.array_equal(batch, np.asarray(scalar))

    def test_membership_deduplicates(self, string_hist):
        table = compile_histogram(string_hist)
        assert table.membership(["a", "a"]) == table.equality("a")

    def test_membership_empty(self, string_hist):
        assert compile_histogram(string_hist).membership([]) == 0.0

    def test_not_equal_complement(self, numeric_hist):
        table = compile_histogram(numeric_hist)
        assert table.not_equal(10) == pytest.approx(table.total - table.equality(10))


class TestRanges:
    def test_inclusive_range(self, numeric_hist):
        table = compile_histogram(numeric_hist)
        expected = sum(table.equality(v) for v in [20, 30, 40])
        assert table.range_sum(20, 40) == pytest.approx(expected)

    def test_exclusive_bounds(self, numeric_hist):
        table = compile_histogram(numeric_hist)
        expected = table.equality(30)
        assert table.range_sum(
            20, 40, include_low=False, include_high=False
        ) == pytest.approx(expected)

    def test_open_ended(self, numeric_hist):
        table = compile_histogram(numeric_hist)
        assert table.range_sum(None, None) == pytest.approx(table.total)

    def test_empty_range_zero(self, numeric_hist):
        assert compile_histogram(numeric_hist).range_sum(41, 49) == 0.0

    def test_inverted_range_zero(self, numeric_hist):
        assert compile_histogram(numeric_hist).range_sum(40, 20) == 0.0

    def test_batch_matches_scalar_bitwise(self, numeric_hist, large_hist):
        n = 4096
        for hist, lows, highs in (
            (numeric_hist, [10, None, 35, 50, 40], [30, 25, None, 10, 20]),
            (large_hist, [-1, 0, n // 2, None, n - 1], [5, n // 3, None, 17, n + 5]),
        ):
            table = compile_histogram(hist)
            batch = table.range_batch(lows, highs)
            scalar = [table.range_sum(lo, hi) for lo, hi in zip(lows, highs)]
            assert np.array_equal(batch, np.asarray(scalar))

    def test_string_domain_ranges(self, string_hist):
        table = compile_histogram(string_hist)
        expected = table.equality("a") + table.equality("b")
        assert table.range_sum("a", "b") == pytest.approx(expected)

    def test_unorderable_domain_rejects_ranges(self):
        table = CompiledHistogram(["a", 1], [5.0, 3.0])
        assert table.equality("a") == 5.0  # equality still fine
        with pytest.raises(ValueError, match="orderable"):
            table.range_sum("a", "z")

    def test_misaligned_batch_rejected(self, numeric_hist):
        with pytest.raises(ValueError, match="align"):
            compile_histogram(numeric_hist).range_batch([1, 2], [3])


class TestJoins:
    def test_shared_domain_dot_product(self):
        values = [1, 2, 3]
        left = compile_histogram(
            v_opt_bias_hist([5.0, 3.0, 1.0], 3, values=values)
        )
        right = compile_histogram(
            v_opt_bias_hist([2.0, 4.0, 6.0], 3, values=values)
        )
        assert left.join_with(right) == pytest.approx(5 * 2 + 3 * 4 + 1 * 6)

    def test_partial_overlap(self):
        left = compile_histogram(v_opt_bias_hist([5.0, 3.0], 2, values=[1, 2]))
        right = compile_histogram(v_opt_bias_hist([7.0, 2.0], 2, values=[2, 3]))
        assert left.join_with(right) == pytest.approx(3.0 * 7.0)

    def test_generic_domain_join(self):
        left = compile_histogram(v_opt_bias_hist([5.0, 3.0], 2, values=["a", "b"]))
        right = compile_histogram(v_opt_bias_hist([2.0, 9.0], 2, values=["b", "c"]))
        assert left.join_with(right) == pytest.approx(3.0 * 2.0)

    def test_join_type_checked(self, numeric_hist):
        with pytest.raises(TypeError, match="CompiledHistogram"):
            compile_histogram(numeric_hist).join_with("nope")


class TestCompiledCompact:
    @pytest.fixture
    def compact(self):
        return CompactEndBiased(
            explicit={100: 40.0, 200: 25.0},
            remainder_count=4,
            remainder_average=2.5,
        )

    def test_compile_type_checked(self):
        with pytest.raises(TypeError, match="CompactEndBiased"):
            compile_compact({"explicit": {}})

    def test_frequency_rules(self, compact):
        table = compile_compact(compact)
        assert table.frequency(100) == 40.0
        assert table.frequency(7) == 2.5

    def test_total(self, compact):
        assert compile_compact(compact).total == pytest.approx(40 + 25 + 4 * 2.5)

    def test_batch_matches_scalar(self, compact):
        large = CompiledCompact({v: float(v % 7) for v in range(4096)}, 3, 1.5)
        for table, probes in (
            (compile_compact(compact), [100, 7, 200, -1]),
            (large, [0, 17, 2048, 4095, 4096, -3]),
        ):
            batch = table.frequency_batch(probes)
            scalar = [table.frequency(v) for v in probes]
            assert np.array_equal(batch, np.asarray(scalar))

    def test_batch_without_domain_assumption(self):
        # With no remainder bucket there is no domain to assume: a value
        # that is not stored explicitly answers 0, scalar and batch alike.
        table = CompiledCompact({100: 40.0, 200: 25.0}, 0, 0.0)
        batch = table.frequency_batch([100, 7])
        assert np.array_equal(batch, np.asarray([40.0, 0.0]))
        assert table.frequency(7) == 0.0

    def test_string_explicit_values(self):
        table = CompiledCompact({"a": 9.0}, remainder_count=2, remainder_average=1.5)
        assert np.array_equal(
            table.frequency_batch(["a", "x"]), np.asarray([9.0, 1.5])
        )

    def test_negative_remainder_rejected(self):
        with pytest.raises(ValueError, match="remainder_count"):
            CompiledCompact({}, remainder_count=-1, remainder_average=0.0)


class TestDuplicateValues:
    def test_last_write_wins_matches_legacy_dict(self):
        # Duplicate domain values: the compiled table must preserve the
        # legacy per-call dict's last-write-wins semantics on both paths.
        table = CompiledHistogram([1, 2, 1], [5.0, 3.0, 7.0])
        assert table.equality(1) == 7.0
        assert np.array_equal(table.equality_batch([1, 2]), np.asarray([7.0, 3.0]))
        assert table.domain_size == 2
        assert table.total == pytest.approx(10.0)

    def test_misaligned_inputs_rejected(self):
        with pytest.raises(ValueError, match="align"):
            CompiledHistogram([1, 2], [1.0])
