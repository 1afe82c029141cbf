"""Property-based tests for the extension modules (tensors, §6 operators,
successor histograms, SQL parsing)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.biased import v_opt_bias_hist
from repro.core.frequency import AttributeDistribution
from repro.core.histogram import Histogram
from repro.core.inequality import not_equals_join_size, range_join_size
from repro.core.serial import v_opt_hist_dp
from repro.core.successors import compressed_histogram, max_diff_histogram
from repro.core.tensor import FrequencyTensor, tree_result_size
from repro.sql.lexer import KEYWORDS

frequencies = st.lists(
    st.floats(min_value=0.01, max_value=1e3, allow_nan=False, allow_infinity=False),
    min_size=2,
    max_size=10,
)


@st.composite
def freq_and_buckets(draw):
    freqs = draw(frequencies)
    beta = draw(st.integers(min_value=1, max_value=len(freqs)))
    return freqs, beta


@st.composite
def two_distributions(draw):
    size_left = draw(st.integers(min_value=1, max_value=6))
    size_right = draw(st.integers(min_value=1, max_value=6))
    f_left = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
            min_size=size_left,
            max_size=size_left,
        )
    )
    f_right = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
            min_size=size_right,
            max_size=size_right,
        )
    )
    values_left = draw(
        st.lists(st.integers(0, 20), min_size=size_left, max_size=size_left, unique=True)
    )
    values_right = draw(
        st.lists(st.integers(0, 20), min_size=size_right, max_size=size_right, unique=True)
    )
    left = AttributeDistribution(values_left, np.asarray(f_left) + 0.01)
    right = AttributeDistribution(values_right, np.asarray(f_right) + 0.01)
    return left, right


class TestInequalityProperties:
    @given(two_distributions())
    @settings(max_examples=60)
    def test_equality_complement_partition(self, pair):
        """= and ≠ partition the Cartesian product for any distributions."""
        left, right = pair
        eq = left.join_size(right)
        ne = not_equals_join_size(left, right)
        assert eq + ne == pytest.approx(left.total * right.total, rel=1e-9)

    @given(two_distributions())
    @settings(max_examples=60)
    def test_comparison_trichotomy(self, pair):
        left, right = pair
        lt = range_join_size(left, right, "<")
        gt = range_join_size(left, right, ">")
        eq = left.join_size(right)
        assert lt + gt + eq == pytest.approx(left.total * right.total, rel=1e-9)

    @given(two_distributions())
    @settings(max_examples=60)
    def test_weak_vs_strict_orders(self, pair):
        left, right = pair
        assert range_join_size(left, right, "<=") == pytest.approx(
            range_join_size(left, right, "<") + left.join_size(right), rel=1e-9
        )
        assert range_join_size(left, right, ">=") == pytest.approx(
            range_join_size(left, right, ">") + left.join_size(right), rel=1e-9
        )


class TestSuccessorProperties:
    @given(freq_and_buckets())
    @settings(max_examples=50, deadline=None)
    def test_maxdiff_bounded_by_optimal(self, case):
        freqs, beta = case
        optimal = v_opt_hist_dp(freqs, beta).self_join_error()
        maxdiff = max_diff_histogram(freqs, beta).self_join_error()
        assert maxdiff >= optimal - 1e-6

    @given(freq_and_buckets())
    @settings(max_examples=50, deadline=None)
    def test_compressed_bounded_by_optimal(self, case):
        freqs, beta = case
        optimal = v_opt_hist_dp(freqs, beta).self_join_error()
        compressed = compressed_histogram(freqs, beta).self_join_error()
        assert compressed >= optimal - 1e-6

    @given(freq_and_buckets())
    @settings(max_examples=50)
    def test_successors_are_serial_with_right_bucket_count(self, case):
        freqs, beta = case
        for builder in (max_diff_histogram, compressed_histogram):
            hist = builder(freqs, beta)
            assert hist.is_serial()
            assert hist.bucket_count == beta

    @given(freq_and_buckets())
    @settings(max_examples=50)
    def test_successors_preserve_totals(self, case):
        freqs, beta = case
        for builder in (max_diff_histogram, compressed_histogram):
            hist = builder(freqs, beta)
            assert hist.approximate_frequencies().sum() == pytest.approx(
                float(np.sum(freqs)), rel=1e-9
            )


class TestTensorProperties:
    @given(
        st.integers(min_value=2, max_value=4),
        st.integers(min_value=2, max_value=3),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=40)
    def test_two_way_contraction_is_dot_product(self, m, _unused, seed):
        gen = np.random.default_rng(seed)
        a = gen.uniform(0, 10, size=m)
        b = gen.uniform(0, 10, size=m)
        result = tree_result_size(
            [FrequencyTensor(a, axes=(0,)), FrequencyTensor(b, axes=(0,))]
        )
        assert result == pytest.approx(float(np.dot(a, b)))

    @given(
        st.integers(min_value=2, max_value=3),
        st.integers(min_value=2, max_value=3),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=40)
    def test_contraction_invariant_to_tensor_order(self, m, n, seed):
        gen = np.random.default_rng(seed)
        hub = gen.uniform(0, 5, size=(m, n))
        left = gen.uniform(0, 5, size=m)
        right = gen.uniform(0, 5, size=n)
        tensors = [
            FrequencyTensor(left, axes=(0,)),
            FrequencyTensor(hub, axes=(0, 1)),
            FrequencyTensor(right, axes=(1,)),
        ]
        forward = tree_result_size(tensors)
        backward = tree_result_size(list(reversed(tensors)))
        assert forward == pytest.approx(backward)

    @given(
        st.integers(min_value=2, max_value=3),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=30)
    def test_histogram_on_tensor_preserves_contraction_totals(self, m, seed):
        """Trivial histograms on every relation give the uniform estimate
        (T_0·T_1/M for a 2-way join) — the totals flow through."""
        gen = np.random.default_rng(seed)
        a = gen.uniform(0.1, 10, size=m)
        b = gen.uniform(0.1, 10, size=m)
        ha = Histogram.single_bucket(a)
        hb = Histogram.single_bucket(b)
        estimate = tree_result_size(
            [
                FrequencyTensor(ha.approximate_array(a), axes=(0,)),
                FrequencyTensor(hb.approximate_array(b), axes=(0,)),
            ]
        )
        assert estimate == pytest.approx(float(a.sum() * b.sum() / m))


class TestSqlParserProperties:
    identifier = st.from_regex(r"[a-z][a-z0-9_]{0,8}", fullmatch=True).filter(
        lambda s: s.upper() not in KEYWORDS
    )

    @given(identifier, identifier, st.integers(-1000, 1000))
    @settings(max_examples=50)
    def test_roundtrip_simple_selection(self, table, column, value):
        from repro.sql.ast import ColumnRef, Comparison, Literal
        from repro.sql.parser import parse_select

        stmt = parse_select(f"SELECT * FROM {table} WHERE {column} = {value}")
        assert stmt.tables[0].name == table
        assert stmt.predicates[0] == Comparison(
            ColumnRef(column), "=", Literal(value)
        )

    @given(st.lists(identifier, min_size=1, max_size=4, unique=True))
    @settings(max_examples=50)
    def test_roundtrip_column_list(self, columns):
        from repro.sql.parser import parse_select

        stmt = parse_select(f"SELECT {', '.join(columns)} FROM t")
        assert [c.column for c in stmt.columns] == columns

    @given(st.text(alphabet="abc'() ,=<>123", max_size=30))
    @settings(max_examples=80)
    def test_never_crashes_unexpectedly(self, text):
        """Arbitrary input raises only the documented error types."""
        from repro.sql.lexer import SqlLexError
        from repro.sql.parser import SqlParseError, parse_select

        try:
            parse_select(f"SELECT * FROM t WHERE {text}")
        except (SqlLexError, SqlParseError, ValueError):
            pass
