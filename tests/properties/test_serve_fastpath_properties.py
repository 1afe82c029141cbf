"""Property suite: batch == scalar bit-identity over adversarial domains.

The serving layer's core contract is that the vectorized float64 fast
path and the exact per-value path return the **same floats** — for any
domain the catalog can hold and any probe a caller can send.  The three
fixed fast-path bugs (float64 key collapse, membership's unhashable
``TypeError``, NaN scalar/batch divergence) were all violations of this
contract, so these properties drive it with exactly the adversarial
inputs that found them: integers at/beyond 2**53, NaN, ±0.0, booleans,
and mixed/unorderable domains.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.zipf import zipf_frequencies
from repro.engine.analyze import analyze_relation
from repro.engine.catalog import StatsCatalog
from repro.engine.relation import Relation
from repro.serve import (
    EqualityProbe,
    EstimationService,
    JoinProbe,
    ProbeFrame,
    RangeProbe,
)
from repro.serve.tables import CompiledCompact, CompiledHistogram, range_bound_arrays

# ---------------------------------------------------------------------------
# Adversarial value strategies
# ---------------------------------------------------------------------------

BIG = 2**53

large_ints = st.one_of(
    st.integers(min_value=BIG - 2, max_value=BIG + 4),
    st.integers(min_value=-BIG - 4, max_value=-BIG + 2),
    st.integers(min_value=2**62, max_value=2**62 + 4),
)

adversarial_numbers = st.one_of(
    st.integers(min_value=-10, max_value=10),
    large_ints,
    st.booleans(),
    st.sampled_from([0.0, -0.0, 0.5, float("nan"), float("inf"), float("-inf")]),
    st.floats(allow_nan=True, allow_infinity=True, width=64),
)

#: Domain values must be hashable; probes may additionally be unhashable.
domain_values = st.one_of(
    adversarial_numbers,
    st.text(alphabet="abcxyz", min_size=1, max_size=3),
)

probe_values = st.one_of(
    domain_values,
    st.just([1, 2]),  # unhashable: 0-mass by contract
)

frequencies = st.floats(min_value=0.25, max_value=100.0, allow_nan=False)


@st.composite
def compiled_histograms(draw):
    values = draw(st.lists(domain_values, min_size=1, max_size=12))
    freqs = draw(
        st.lists(frequencies, min_size=len(values), max_size=len(values))
    )
    return CompiledHistogram(values, freqs)


@st.composite
def compiled_compacts(draw):
    values = draw(st.lists(domain_values, min_size=1, max_size=10))
    freqs = draw(
        st.lists(frequencies, min_size=len(values), max_size=len(values))
    )
    remainder_count = draw(st.integers(min_value=0, max_value=5))
    remainder_average = draw(frequencies)
    return CompiledCompact(
        dict(zip(values, freqs)), remainder_count, remainder_average
    )


# ---------------------------------------------------------------------------
# Table-level bit-identity
# ---------------------------------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(
    table=compiled_histograms(),
    probes=st.lists(probe_values, min_size=0, max_size=15),
)
def test_equality_batch_matches_scalar(table, probes):
    batch = table.equality_batch(probes)
    scalar = np.asarray([table.equality(v) for v in probes], dtype=np.float64)
    assert np.array_equal(batch, scalar)


@settings(max_examples=80, deadline=None)
@given(
    table=compiled_histograms(),
    probes=st.lists(probe_values, min_size=0, max_size=12),
)
def test_membership_matches_deduplicated_scalar_sum(table, probes):
    distinct, seen = [], set()
    for value in probes:
        try:
            if value in seen:
                continue
            seen.add(value)
        except TypeError:
            continue  # unhashable: 0-mass, not deduplicable
        distinct.append(value)
    expected = float(
        np.sum(
            np.asarray([table.equality(v) for v in distinct], dtype=np.float64),
            dtype=np.float64,
        )
    )
    assert table.membership(probes) == expected


range_bounds = st.one_of(
    st.none(),
    st.integers(min_value=-(2**60), max_value=2**60),
    large_ints,
    st.floats(allow_nan=False, allow_infinity=True, width=64),
    st.booleans(),
)


@settings(max_examples=120, deadline=None)
@given(
    values=st.lists(adversarial_numbers, min_size=1, max_size=12),
    freqs_seed=st.integers(min_value=0, max_value=2**31),
    bounds=st.lists(
        st.tuples(range_bounds, range_bounds), min_size=1, max_size=8
    ),
    include_low=st.booleans(),
    include_high=st.booleans(),
)
def test_range_batch_matches_scalar(
    values, freqs_seed, bounds, include_low, include_high
):
    gen = np.random.default_rng(freqs_seed)
    table = CompiledHistogram(
        values, gen.uniform(0.25, 100.0, size=len(values)).tolist()
    )
    if not table.is_orderable:
        return
    lows = [low for low, _ in bounds]
    highs = [high for _, high in bounds]
    batch = table.range_batch(
        lows, highs, include_low=include_low, include_high=include_high
    )
    scalar = np.asarray(
        [
            table.range_sum(
                low, high, include_low=include_low, include_high=include_high
            )
            for low, high in bounds
        ],
        dtype=np.float64,
    )
    assert np.array_equal(batch, scalar)


@settings(max_examples=100, deadline=None)
@given(left=compiled_histograms(), right=compiled_histograms())
def test_join_matches_exact_reference(left, right):
    def is_nan_like(value):
        try:
            return bool(value != value)
        except (TypeError, ValueError):
            return False

    reference = 0.0
    right_map = right.as_mapping()
    for value, freq in left.as_mapping().items():
        if is_nan_like(value):
            continue
        match = right_map.get(value)
        if match is not None:
            reference += freq * match
    assert np.isclose(left.join_with(right), reference, rtol=1e-12, atol=1e-9)
    # Symmetry of the estimate itself (both orders intersect one domain).
    assert np.isclose(
        left.join_with(right), right.join_with(left), rtol=1e-12, atol=1e-9
    )


def _intersect1d_join(left, right):
    """The vectorized join as ``np.intersect1d`` computes it: the reference
    the sorted-code lookup must reproduce bit for bit."""
    _, mine, theirs = np.intersect1d(
        left._codes, right._codes, assume_unique=True, return_indices=True
    )
    return float(np.dot(left._approx[mine], right._approx[theirs]))


#: Codes both sides draw from, so domains overlap, nest and coincide.
join_codes = st.one_of(
    st.integers(min_value=-30, max_value=30),
    st.sampled_from([float("inf"), float("-inf"), -0.0, 0.5, float("nan")]),
)
#: Magnitudes far apart, so a different summation order shows in the bits.
join_frequencies = st.floats(min_value=1e-3, max_value=1e6, allow_nan=False)


@st.composite
def numeric_join_pairs(draw):
    left = draw(st.lists(join_codes, min_size=0, max_size=70))
    shape = draw(st.sampled_from(["overlapping", "identical", "disjoint"]))
    if shape == "identical":
        right = list(left)
    else:
        right = draw(st.lists(join_codes, min_size=0, max_size=70))
        if shape == "disjoint":
            right = [value for value in right if value not in set(left)]
    tables = []
    for values in (left, right):
        freqs = draw(st.lists(join_frequencies, min_size=len(values), max_size=len(values)))
        tables.append(CompiledHistogram(values, freqs))
    return tables


@settings(max_examples=300, deadline=None)
@given(pair=numeric_join_pairs())
def test_join_lookup_equals_intersect1d_bit_for_bit(pair):
    left, right = pair
    assert left._numeric and right._numeric
    for a, b in ((left, right), (right, left), (left, left)):
        assert np.float64(a.join_with(b)).tobytes() == np.float64(
            _intersect1d_join(a, b)
        ).tobytes()


@pytest.mark.parametrize("seed", range(6))
def test_join_lookup_equals_intersect1d_on_large_tables(seed):
    """Tables of bulk's sizes, where the dot product runs in SIMD blocks."""
    gen = np.random.default_rng(seed)
    tables = []
    for size in (100, 4096, 16384):
        values = np.sort(gen.choice(20000, size=size, replace=False)).tolist()
        tables.append(CompiledHistogram(values, gen.pareto(1.0, size) * 100.0))
    for left in tables:
        for right in tables:
            assert np.float64(left.join_with(right)).tobytes() == np.float64(
                _intersect1d_join(left, right)
            ).tobytes()


@settings(max_examples=100, deadline=None)
@given(
    compact=compiled_compacts(),
    probes=st.lists(probe_values, min_size=0, max_size=12),
)
def test_compact_frequency_batch_matches_scalar(compact, probes):
    batch = compact.frequency_batch(probes)
    scalar = np.asarray([compact.frequency(v) for v in probes], dtype=np.float64)
    assert np.array_equal(batch, scalar)


# ---------------------------------------------------------------------------
# Service-level bit-identity (the batched dispatch itself)
# ---------------------------------------------------------------------------


def _build_service():
    catalog = StatsCatalog()
    for index, kind in enumerate(("serial", "end-biased")):
        freqs = zipf_frequencies(400, 20, 0.8)
        column = [v for v, f in enumerate(freqs) for _ in range(max(1, int(f)))]
        relation = Relation.from_columns(f"R{index}", {"a": column})
        analyze_relation(relation, "a", catalog, kind=kind, buckets=4)
    return EstimationService(catalog)


_SERVICE = _build_service()


def _reference_bound_arrays(lows, highs):
    """The per-bound reference: open bounds pinned to ±inf one by one."""
    try:
        low = np.asarray([(-np.inf if v is None else v) for v in lows], dtype=np.float64)
        high = np.asarray([(np.inf if v is None else v) for v in highs], dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        return None
    low_open = np.array([v is None for v in lows]) if None in lows else None
    high_open = np.array([v is None for v in highs]) if None in highs else None
    return low, high, low_open, high_open


@settings(max_examples=300, deadline=None)
@given(
    bounds=st.lists(
        st.tuples(
            st.one_of(range_bounds, st.just(float("nan")), st.just("x"), st.just(2**1100)),
            st.one_of(range_bounds, st.just(float("nan"))),
        ),
        max_size=8,
    )
)
def test_range_bound_arrays_match_the_per_bound_reference(bounds):
    lows = [low for low, _ in bounds]
    highs = [high for _, high in bounds]
    got = range_bound_arrays(lows, highs)
    want = _reference_bound_arrays(lows, highs)
    assert (got is None) == (want is None)
    if got is not None:
        for mine, theirs in zip(got, want):
            assert (mine is None) == (theirs is None)
            if mine is not None:
                assert mine.tobytes() == theirs.tobytes()


@st.composite
def service_probes(draw):
    kind = draw(st.integers(min_value=0, max_value=2))
    relation = f"R{draw(st.integers(min_value=0, max_value=1))}"
    if kind == 0:
        return EqualityProbe(relation, "a", draw(probe_values))
    if kind == 1:
        low = draw(range_bounds)
        high = draw(range_bounds)
        return RangeProbe(
            relation,
            "a",
            low,
            high,
            include_low=draw(st.booleans()),
            include_high=draw(st.booleans()),
        )
    other = f"R{draw(st.integers(min_value=0, max_value=1))}"
    return JoinProbe(relation, "a", other, "a")


@settings(max_examples=60, deadline=None)
@given(probes=st.lists(service_probes(), min_size=0, max_size=12))
def test_estimate_batch_matches_scalar_and_frame(probes):
    batch = _SERVICE.estimate_batch(probes)
    framed = _SERVICE.estimate_batch(ProbeFrame.from_probes(probes))
    scalar = np.empty(len(probes), dtype=np.float64)
    for position, probe in enumerate(probes):
        if isinstance(probe, EqualityProbe):
            scalar[position] = _SERVICE.estimate_equality(
                probe.relation, probe.attribute, probe.value
            )
        elif isinstance(probe, RangeProbe):
            scalar[position] = _SERVICE.estimate_range(
                probe.relation,
                probe.attribute,
                probe.low,
                probe.high,
                include_low=probe.include_low,
                include_high=probe.include_high,
            )
        else:
            scalar[position] = _SERVICE.estimate_join(
                probe.left_relation,
                probe.left_attribute,
                probe.right_relation,
                probe.right_attribute,
            )
    assert np.array_equal(batch, scalar)
    assert np.array_equal(batch, framed)
