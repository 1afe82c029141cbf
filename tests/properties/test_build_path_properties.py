"""Property suite: the int64 build path equals the per-value path.

The Matrix step (``AttributeDistribution.from_column``) and
``CompiledHistogram`` take an array path when every value is a plain
``int`` within int64 (``repro.core.frequency.int64_column``) and the
per-value path otherwise.
Forcing the per-value path everywhere (the rule patched to reject every
column) must change nothing: the same distinct value *objects* in the
same order, the same frequencies, histograms, compiled state and answers,
bit for bit.  The columns are the shapes the typing rule has to get
right: bool/int mixes (``True`` and ``1`` merge), ints at ±2**53 and
beyond int64, NumPy integer scalars, floats with NaN and -0.0, strings and
mixed types, plain ints (also beyond the small-int cache, where keeping
the first object seen shows), and duplicate values in a hand-built
``Histogram``.
"""

from contextlib import contextmanager
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import frequency
from repro.core.biased import v_opt_bias_hist
from repro.core.frequency import AttributeDistribution
from repro.core.histogram import Histogram
from repro.core.serial import v_optimal_serial_histogram
from repro.serve import tables
from repro.serve.tables import CompiledHistogram

BIG = 2**53
NAN = float("nan")

small_ints = st.integers(min_value=-4, max_value=6)
#: Beyond CPython's small-int cache: equal values are distinct objects, so
#: keeping the first one seen is observable.
uncached_ints = st.integers(min_value=1000, max_value=1006).map(lambda v: int(str(v)))
edge_ints = st.sampled_from(
    [BIG - 1, BIG, BIG + 1, -BIG + 1, -BIG, -BIG - 1, 2**63 - 1, -(2**63), 2**63, -(2**63) - 1, 2**70]
)
numpy_ints = small_ints.flatmap(
    lambda v: st.sampled_from([np.int64(v), np.int32(v), np.int8(v), np.uint8(abs(v))])
)
float_values = st.one_of(
    st.sampled_from([0.0, -0.0, 1.5, NAN, float("inf")]),
    st.floats(allow_nan=True, allow_infinity=False, width=64),
)
texts = st.text(alphabet="abz", min_size=0, max_size=2)

#: One column per shape; all draw from a small domain so values repeat.
columns = st.one_of(
    st.lists(small_ints, min_size=1, max_size=40),
    st.lists(uncached_ints, min_size=1, max_size=40),
    st.lists(st.one_of(st.booleans(), small_ints), min_size=1, max_size=30),
    st.lists(st.one_of(small_ints, edge_ints), min_size=1, max_size=30),
    st.lists(st.one_of(small_ints, numpy_ints), min_size=1, max_size=30),
    st.lists(st.one_of(small_ints, float_values), min_size=1, max_size=30),
    st.lists(texts, min_size=1, max_size=30),
    st.lists(st.one_of(small_ints, texts), min_size=1, max_size=30),
)


@contextmanager
def per_value_path():
    """Every typing-rule check rejects: the per-value path runs throughout."""
    with mock.patch.object(frequency, "int64_column", lambda values: None), mock.patch.object(
        tables, "int64_column", lambda values: None
    ):
        yield


def outcome(build):
    """``("ok", result)`` or ``("raised", exception type)``."""
    try:
        return "ok", build()
    except (TypeError, ValueError) as exc:
        return "raised", type(exc)


def assert_same_distribution(fast, slow):
    assert len(fast.values) == len(slow.values)
    assert all(a is b for a, b in zip(fast.values, slow.values))
    assert fast.frequencies.tobytes() == slow.frequencies.tobytes()


def table_state(table):
    by_value = [(type(v), v, a) for v, a in table._by_value.items()]
    codes = None if table._codes is None else table._codes.tobytes()
    return (
        by_value,
        codes,
        table._approx.tobytes(),
        table._prefix.tobytes(),
        table.is_numeric,
        table.is_orderable,
    )


def answers(table, values):
    """Equality, range and self-join answers of *table* as bytes."""
    probes = list(values) + [0, 1, -1, 2.5, NAN, BIG + 1, "a"]
    out = [table.equality_batch(probes).tobytes(), [table.equality(v) for v in probes]]
    if table.is_orderable and values:
        ordered = sorted(values, key=lambda v: (str(type(v)), v))
        low, high = ordered[0], ordered[-1]
        try:
            out.append(table.range_sum(low, high))
            out.append(table.range_batch([low, None], [high, low]).tobytes())
        except TypeError as exc:
            out.append(type(exc))
    out.append(table.join_with(table))
    return out


def compiled(histogram):
    table = CompiledHistogram.from_histogram(histogram)
    return table_state(table), answers(table, histogram.values)


class TestInt64PathEqualsPerValuePath:
    @settings(max_examples=200, deadline=None)
    @given(column=columns)
    def test_matrix_step(self, column):
        fast = outcome(lambda: AttributeDistribution.from_column(column))
        with per_value_path():
            slow = outcome(lambda: AttributeDistribution.from_column(column))
        # Any iterable that is not a list or tuple streams through the dict.
        streamed = outcome(lambda: AttributeDistribution.from_column(iter(column)))
        assert fast[0] == slow[0] == streamed[0]
        if fast[0] == "raised":
            assert fast[1] is slow[1] is streamed[1]
            return
        assert_same_distribution(fast[1], slow[1])
        assert_same_distribution(streamed[1], slow[1])

    @settings(max_examples=150, deadline=None)
    @given(column=columns, data=st.data())
    def test_histograms_and_compiled_tables(self, column, data):
        base = outcome(lambda: AttributeDistribution.from_column(column))
        if base[0] == "raised":
            return
        distribution = base[1]
        buckets = data.draw(st.integers(1, distribution.domain_size))
        builds = (
            lambda: v_opt_bias_hist(distribution.frequencies, buckets, values=distribution.values),
            lambda: v_optimal_serial_histogram(
                distribution.frequencies, buckets, values=distribution.values, method="dp"
            ),
        )
        for build in builds:
            fast = compiled(build())
            with per_value_path():
                slow = compiled(build())
            assert fast == slow

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_duplicate_values_in_a_hand_built_histogram(self, data):
        values = data.draw(st.lists(st.one_of(small_ints, edge_ints), min_size=2, max_size=12))
        size = len(values)
        freqs = data.draw(
            st.lists(st.integers(0, 50).map(float), min_size=size, max_size=size)
        )
        order = data.draw(st.permutations(range(size)))
        cuts = sorted(data.draw(st.sets(st.integers(1, size - 1), max_size=size - 1)))
        groups = [order[a:b] for a, b in zip([0, *cuts], [*cuts, size])]
        histogram = Histogram(freqs, groups, values=values)
        fast = compiled(histogram)
        with per_value_path():
            slow = compiled(Histogram(freqs, groups, values=values))
        assert fast == slow
