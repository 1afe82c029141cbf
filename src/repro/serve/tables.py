"""Compiled histogram lookup tables: the serving-time form of a histogram.

The paper's practicality argument (Section 4) is that a histogram's cost must
be paid at *construction* time, not at *lookup* time.  The estimation helpers
in :mod:`repro.core.estimator` historically rebuilt a ``value -> bucket
average`` dict on every call; this module compiles each value-aware histogram
**once** into fully array-native lookup state:

* ``codes`` — the domain values as one contiguous sorted float64 array;
* ``approx`` — the per-value bucket-average approximations (a float64
  column aligned with the sorted order);
* ``prefix`` — exclusive prefix sums of ``approx``, so any range selection is
  two binary searches and one subtraction (Section 6 reduces ranges to
  disjunctive equality selections — a contiguous slice of the sorted domain).

The legacy ``value -> approximation`` dict is retained only as the **exact
fallback** for domains the float64 fast path cannot represent faithfully
(see :func:`probe_code_array` and the compile-time collapse check below).

Numeric fast-path domain rules
------------------------------

A table vectorizes only when the conversion to float64 codes is *lossless*:

* every domain value is a real number (``int``/``float``/numpy scalars;
  ``bool`` is excluded — it is an identity-preserving dict key, not a code);
* every value fits a float64 (an ``int`` beyond its range overflows the
  conversion and demotes the table);
* no two **distinct** domain values collapse onto one float64 code.
  Distinct integers at or beyond 2**53 can round to the same code, which
  would let ``equality_batch`` match a probe to its neighbour and would
  break the unique-code lookup of :meth:`CompiledHistogram.join_with`.
  Collapse is detected at compile time (equal adjacent sorted codes) and
  routes the table to the exact dict path.

Probe batches vectorize under the mirror-image rules, checked by
:func:`probe_code_array`: numeric dtype, and — for integer probes that
survived conversion — a per-element exact re-check of any *hit* at or
beyond 2**53, so a lossy probe code can never match a neighbouring domain
value.  NaN probes are defined as 0-mass in both the scalar and batched
paths (NaN equals nothing, including itself).

Both the scalar estimators and the batched
:class:`~repro.serve.service.EstimationService` answer probes from the same
compiled state, which makes scalar and batched results bit-identical by
construction.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import chain
from typing import TYPE_CHECKING, Hashable, Iterable, Optional, Sequence

import numpy as np

from repro.core.frequency import int64_column
from repro.obs.tracing import span

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.core.histogram import Histogram
    from repro.engine.catalog import CompactEndBiased

#: Scalar types eligible for the vectorized (``searchsorted``) fast path.
_NUMERIC_TYPES = (int, float, np.integer, np.floating)

#: First magnitude at which float64 stops representing every integer.
_TWO53 = 9007199254740992.0
_TWO53_INT = 9007199254740992

#: Probe-array dtype kinds the fast path accepts (signed/unsigned ints,
#: floats, bools).
_FAST_DTYPE_KINDS = "iufb"

#: Range-bound types a numeric domain refuses: NumPy would compare them
#: with the float codes as text in ``searchsorted``, and parse a numeric
#: one (``"1.5"``) in a float64 conversion.
_TEXT_TYPES = (str, bytes)


def _is_numeric_domain(values: Iterable[Hashable]) -> bool:
    """True when every value is a real number (bools excluded)."""
    return all(
        isinstance(v, _NUMERIC_TYPES) and not isinstance(v, bool) for v in values
    )


def _is_nan_like(value: object) -> bool:
    """True for values that compare unequal to themselves (NaN family)."""
    try:
        return bool(value != value)
    except (TypeError, ValueError):
        # Arrays and exotic __ne__ results: not a NaN scalar.
        return False


def _codes_are_lossless(values: Iterable[Hashable]) -> bool:
    """True when every value *is* its float64 code (exact round-trip).

    A large integer float64 must round (|v| > 2**53, odd steps) gets a
    code that no longer equals the value.  Even when such codes stay
    unique within one table, they are wrong *across* tables — a rounded
    2**53 + 1 collides with another table's exact 2**53 in ``join_with``
    — and they false-match float probes whose code lands on the rounded
    value.  Domains carrying any lossy code serve via the exact path.
    """
    for value in values:
        if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
            as_int = int(value)
            if as_int >= _TWO53_INT or as_int <= -_TWO53_INT:
                try:
                    if float(as_int) != as_int:
                        return False
                except OverflowError:
                    return False
    return True


def probe_code_array(values: Sequence[Hashable]) -> Optional[np.ndarray]:  # repolint: boundary-exempt — returning None *is* the rejection path
    """The 1-D numeric array form of a probe batch, or ``None``.

    Returns an array (original dtype preserved) only when every probe can
    ride the float64 fast path.  A ``None`` means the caller must answer
    through the exact per-value path: mixed/object/string inputs, nested
    sequences, integers beyond the int64/uint64 range, or — the subtle
    case — a float-inferred array whose *input* held a Python/numpy
    integer at or beyond 2**53, which numpy would have rounded silently.
    """
    if isinstance(values, np.ndarray):
        arr = values
    else:
        try:
            # Dtype deliberately inferred: the int-vs-float distinction of
            # the input decides whether the 2**53 exactness scan is needed.
            arr = np.asarray(values)  # repolint: disable=R003
        except (TypeError, ValueError, OverflowError):
            return None
        if (
            arr.dtype.kind == "f"
            and arr.size
            and bool(np.any(np.abs(arr) >= _TWO53))
        ):
            # Inference to float64 may have rounded a large integer in the
            # input list; only an exact per-element check can tell.
            for value in values:
                if (
                    isinstance(value, (int, np.integer))
                    and not isinstance(value, bool)
                    and (value >= _TWO53_INT or value <= -_TWO53_INT)
                ):
                    return None
    if arr.ndim != 1 or arr.dtype.kind not in _FAST_DTYPE_KINDS:
        return None
    return arr


def _bound_codes(
    bounds: Sequence[Optional[Hashable]], open_code: float
) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """One side's float64 codes and open-bound mask (raises if not numeric)."""
    if not (isinstance(bounds, np.ndarray) and bounds.dtype.kind in _FAST_DTYPE_KINDS):
        if any(issubclass(kind, _TEXT_TYPES) for kind in set(map(type, bounds))):
            raise TypeError("text range bounds over a numeric domain")
    codes = np.asarray(bounds, dtype=np.float64)
    # NumPy reads a None bound as NaN, so only a NaN code needs the exact
    # pass that pins open bounds to ±inf and masks them.
    if not np.isnan(codes).any():
        return codes, None
    codes = np.asarray(
        [(open_code if v is None else v) for v in bounds], dtype=np.float64
    )
    if not any(v is None for v in bounds):
        return codes, None
    return codes, np.fromiter((v is None for v in bounds), dtype=bool, count=len(bounds))


def range_bound_arrays(  # repolint: boundary-exempt — returning None *is* the rejection path
    lows: Sequence[Optional[Hashable]], highs: Sequence[Optional[Hashable]]
) -> Optional[tuple[np.ndarray, np.ndarray, Optional[np.ndarray], Optional[np.ndarray]]]:
    """Float64 bound columns plus open-bound masks, or ``None``.

    Returns ``(low_codes, high_codes, low_open, high_open)``.  Open
    (``None``) bounds are encoded as ±inf in the code columns, but the
    scalar path answers them with the prefix-sum *endpoints* — which an
    ±inf ``searchsorted`` does not reproduce when the domain itself
    contains ±inf or NaN codes.  The boolean masks (``None`` when a side
    has no open bound) let the vectorized path pin those rows to the
    exact endpoint indices, preserving bit-identity.  A top-level
    ``None`` means some bound is not numeric (or overflows float64) and
    the caller must fall back to the per-probe exact path.
    """
    try:
        low_arr, low_open = _bound_codes(lows, -np.inf)
        high_arr, high_open = _bound_codes(highs, np.inf)
    except (TypeError, ValueError, OverflowError):
        return None
    return low_arr, high_arr, low_open, high_open


class CompiledHistogram:
    """Vectorized lookup state compiled from one value-aware histogram.

    All estimation answers derive from three aligned arrays (sorted codes,
    per-value approximations, and their prefix sums), so equality probes are
    one binary search, range probes are two, and joins are a sorted-domain
    intersection followed by a dot product.  Domains the float64 code space
    cannot represent faithfully (see the module docstring) answer through
    the exact dict fallback instead.
    """

    __slots__ = (
        "_by_value",
        "_sorted_values",
        "_codes",
        "_approx",
        "_prefix",
        "_numeric",
        "_orderable",
    )

    def __init__(self, values: Sequence[Hashable], approximations: Sequence[float]):
        if len(values) != len(approximations):
            raise ValueError(
                f"values and approximations must align, got {len(values)} "
                f"values and {len(approximations)} approximations"
            )
        # Last write wins on duplicate values — the semantics of the legacy
        # per-call dict the compiled table replaces.
        by_value: dict[Hashable, float] = dict(
            zip(values, np.asarray(approximations, dtype=np.float64).tolist())
        )
        self._by_value = by_value
        self._numeric = False
        self._codes = None
        approx_sorted: Optional[np.ndarray] = None
        ints = int64_column(list(by_value))
        if ints is not None and bool(np.all((ints > -_TWO53_INT) & (ints < _TWO53_INT))):
            # Plain ints strictly inside ±2**53: each value *is* its code.
            codes = ints.astype(np.float64)
        elif _is_numeric_domain(by_value) and _codes_are_lossless(by_value):
            try:
                codes = np.asarray(list(by_value), dtype=np.float64)
            except (TypeError, ValueError, OverflowError):
                # An int beyond the float64 range has no lossless code.
                codes = None
        else:
            codes = None
        if codes is not None:
            order = np.argsort(codes, kind="stable")
            sorted_codes = codes[order]
            if codes.size > 1 and bool(
                np.any(sorted_codes[1:] == sorted_codes[:-1])
            ):
                # Float64 collapse: two distinct domain values share a
                # code (integers at/beyond 2**53).  The vectorized path
                # would match probes to neighbours and break the
                # unique-code lookup in join_with — serve this table
                # through the exact path instead.
                codes = None
            else:
                self._numeric = True
                self._codes = sorted_codes
                # Range bounds bisect the codes; the values stay unsorted.
                self._sorted_values = None
                approx_sorted = np.asarray(
                    list(by_value.values()), dtype=np.float64
                )[order]
                self._orderable = True
        if not self._numeric:
            try:
                self._sorted_values = sorted(by_value)
                self._orderable = True
            except TypeError:
                # Mixed, unorderable domain: equality and joins still work;
                # range probes raise.
                self._sorted_values = list(by_value)
                self._orderable = False
            approx_sorted = np.asarray(
                [by_value[v] for v in self._sorted_values], dtype=np.float64
            )
        self._approx = approx_sorted
        prefix = np.zeros(approx_sorted.size + 1, dtype=np.float64)
        np.cumsum(approx_sorted, dtype=np.float64, out=prefix[1:])
        self._prefix = prefix

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_histogram(cls, histogram: "Histogram") -> "CompiledHistogram":
        """Compile a value-aware histogram (value -> bucket average)."""
        if histogram.values is None:
            raise ValueError(
                "estimation by value requires a histogram built with domain values"
            )
        buckets = histogram.buckets
        values = list(chain.from_iterable(bucket.values for bucket in buckets))
        approximations = np.repeat(
            np.array([bucket.average for bucket in buckets], dtype=np.float64),
            [bucket.count for bucket in buckets],
        )
        return cls(values, approximations)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def domain_size(self) -> int:
        """Number of distinct domain values recorded."""
        return len(self._by_value)

    @property
    def total(self) -> float:
        """Sum of all per-value approximations (the approximate |R|)."""
        return float(self._prefix[-1])

    @property
    def is_numeric(self) -> bool:
        """True when probes go through the vectorized float64 fast path.

        False for non-numeric domains *and* for numeric domains demoted at
        compile time because float64 codes would be lossy (the collapse /
        overflow rules in the module docstring).
        """
        return self._numeric

    @property
    def is_orderable(self) -> bool:
        """True when the domain is mutually comparable (ranges answerable)."""
        return self._orderable

    def as_mapping(self) -> dict[Hashable, float]:
        """A fresh ``value -> approximation`` dict (legacy-compatible view)."""
        return dict(self._by_value)

    # ------------------------------------------------------------------
    # Equality
    # ------------------------------------------------------------------

    def equality(self, value: Hashable) -> float:
        """Approximate frequency of one value (0 outside the domain).

        NaN probes are 0-mass by definition (NaN equals nothing) — without
        the guard a NaN could hit the dict through object identity while
        the batched ``searchsorted`` path always misses.
        """
        try:
            if value != value:  # NaN-like probe
                return 0.0
            return self._by_value.get(value, 0.0)
        except (TypeError, ValueError):  # unhashable or array-like probe
            return 0.0

    def _equality_codes(self, arr: np.ndarray) -> np.ndarray:
        """Fast-path equality answers for one numeric probe array."""
        codes = arr.astype(np.float64, copy=False)
        size = self._codes.size
        if size == 0:
            return np.zeros(codes.size, dtype=np.float64)
        pos = np.searchsorted(self._codes, codes)
        clipped = np.minimum(pos, size - 1)
        hit = (pos < size) & (self._codes[clipped] == codes)
        out = np.where(hit, self._approx[clipped], 0.0)
        if arr.dtype.kind in "iu":
            # An integer probe at/beyond 2**53 may have rounded onto a
            # neighbouring domain value's code: re-check each such hit
            # exactly.  (A miss needs no check — an exact match would have
            # produced the very same code, hence a hit.)
            suspect = hit & (np.abs(codes) >= _TWO53)
            if suspect.any():
                by_value = self._by_value
                for index in np.nonzero(suspect)[0].tolist():
                    out[index] = by_value.get(arr[index].item(), 0.0)
        return out

    def equality_batch(self, values: Sequence[Hashable]) -> np.ndarray:
        """Approximate frequencies for many probe values in one pass."""
        if self._numeric:
            arr = probe_code_array(values)
            if arr is not None:
                return self._equality_codes(arr)
        return np.asarray([self.equality(v) for v in values], dtype=np.float64)

    def membership(self, values: Iterable[Hashable]) -> float:
        """Disjunctive-equality mass of the *distinct* probe values.

        Repeated probes are deduplicated (first occurrence wins the
        position), because ``a IN (c, c)`` selects each matching tuple once.
        Unhashable probe values contribute 0 mass — the same degradation
        contract as :meth:`equality` — instead of aborting the whole
        membership probe with a ``TypeError``.
        """
        distinct: list[Hashable] = []
        seen: set[Hashable] = set()
        for value in values:
            try:
                if value in seen:
                    continue
                seen.add(value)
            except TypeError:
                # Unhashable: nothing stored can match it (0 mass), and it
                # cannot be deduplicated — skip it entirely.
                continue
            distinct.append(value)
        if not distinct:
            return 0.0
        return float(np.sum(self.equality_batch(distinct), dtype=np.float64))

    def not_equal(self, value: Hashable) -> float:
        """Complement of the equality selection (Section 6)."""
        return float(self.total - self.equality(value))

    # ------------------------------------------------------------------
    # Ranges
    # ------------------------------------------------------------------

    def _bound_indices(
        self,
        low: Optional[Hashable],
        high: Optional[Hashable],
        include_low: bool,
        include_high: bool,
    ) -> tuple[int, int]:
        if not self._orderable:
            raise ValueError(
                "range estimation needs an orderable domain; this histogram's "
                "values are not mutually comparable"
            )
        if self._numeric:
            if isinstance(low, _TEXT_TYPES) or isinstance(high, _TEXT_TYPES):
                raise TypeError(
                    f"range bounds ({low!r}, {high!r}) are not comparable "
                    "with a numeric domain"
                )
            lo = (
                0
                if low is None
                else int(
                    np.searchsorted(
                        self._codes, low, side="left" if include_low else "right"
                    )
                )
            )
            hi = (
                self._codes.size
                if high is None
                else int(
                    np.searchsorted(
                        self._codes, high, side="right" if include_high else "left"
                    )
                )
            )
            return lo, hi
        lo = (
            0
            if low is None
            else (
                bisect_left(self._sorted_values, low)
                if include_low
                else bisect_right(self._sorted_values, low)
            )
        )
        hi = (
            len(self._sorted_values)
            if high is None
            else (
                bisect_right(self._sorted_values, high)
                if include_high
                else bisect_left(self._sorted_values, high)
            )
        )
        return lo, hi

    def range_sum(
        self,
        low: Optional[Hashable] = None,
        high: Optional[Hashable] = None,
        *,
        include_low: bool = True,
        include_high: bool = True,
    ) -> float:
        """Mass of a range selection: a prefix-sum difference."""
        lo, hi = self._bound_indices(low, high, include_low, include_high)
        if hi <= lo:
            return 0.0
        return float(self._prefix[hi] - self._prefix[lo])

    def range_batch(
        self,
        lows: Sequence[Optional[Hashable]],
        highs: Sequence[Optional[Hashable]],
        *,
        include_low: bool = True,
        include_high: bool = True,
        low_open: Optional[np.ndarray] = None,
        high_open: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Masses of many range selections sharing one inclusivity setting.

        ``lows``/``highs`` may be pre-converted float64 bound columns (open
        bounds already at ±inf, as produced by :func:`range_bound_arrays`);
        the conversion is then skipped entirely.  ``low_open``/``high_open``
        are that function's open-bound masks and must accompany
        pre-converted columns that contain any ``None`` bound.
        """
        if len(lows) != len(highs):
            raise ValueError(
                f"lows and highs must align, got {len(lows)} and {len(highs)}"
            )
        if self._numeric and self._orderable:
            if (
                isinstance(lows, np.ndarray)
                and isinstance(highs, np.ndarray)
                and lows.dtype == np.float64
                and highs.dtype == np.float64
            ):
                bounds = (lows, highs, low_open, high_open)
            else:
                bounds = range_bound_arrays(lows, highs)
            if bounds is not None:
                low_arr, high_arr, low_open, high_open = bounds
                lo = np.searchsorted(
                    self._codes, low_arr, side="left" if include_low else "right"
                )
                hi = np.searchsorted(
                    self._codes, high_arr, side="right" if include_high else "left"
                )
                # An open bound is the prefix endpoint itself — not the
                # ±inf searchsorted, which lands short of trailing NaN
                # (or, side-dependent, ±inf) codes.
                if low_open is not None:
                    lo[low_open] = 0
                if high_open is not None:
                    hi[high_open] = self._codes.size
                mass = self._prefix[hi] - self._prefix[lo]
                return np.where(hi > lo, mass, 0.0)
        return np.asarray(
            [
                self.range_sum(
                    low, high, include_low=include_low, include_high=include_high
                )
                for low, high in zip(lows, highs)
            ],
            dtype=np.float64,
        )

    # ------------------------------------------------------------------
    # Joins
    # ------------------------------------------------------------------

    def join_with(self, other: "CompiledHistogram") -> float:
        """Two-way equality-join estimate against another compiled table.

        ``Σ_v f̂_left(v) · f̂_right(v)`` over the domain intersection —
        Theorem 2.1 applied to the two histogram matrices.  The vectorized
        intersection looks the smaller sorted code array up in the larger
        one, so it requires *both* to be collision-free, which the
        compile-time collapse check guarantees; demoted tables join
        through the exact dict path.  The matches come out in ascending
        code order, so the dot product sums the same terms in the same
        order whichever side is looked up.
        """
        if not isinstance(other, CompiledHistogram):
            raise TypeError(
                f"join_with expects a CompiledHistogram, got {type(other).__name__}"
            )
        if self._numeric and other._numeric:
            if self._codes.size > other._codes.size:
                return other.join_with(self)
            if self._codes.size == 0:
                return 0.0
            pos = np.minimum(
                np.searchsorted(other._codes, self._codes), other._codes.size - 1
            )
            hit = other._codes[pos] == self._codes
            return float(np.dot(self._approx[hit], other._approx[pos[hit]]))
        small, big = (
            (self, other) if self.domain_size <= other.domain_size else (other, self)
        )
        total = 0.0
        for value, freq in small._by_value.items():
            if _is_nan_like(value):
                continue  # NaN joins nothing, mirroring the vectorized path
            match = big._by_value.get(value)
            if match is not None:
                total += freq * match
        return float(total)


class CompiledCompact:
    """Compiled form of the catalog's compact end-biased layout.

    Mirrors :class:`repro.engine.catalog.CompactEndBiased` semantics exactly
    — explicitly stored values answer with their exact frequency; any other
    probe falls into the implicit remainder bucket — but answers batches of
    probes through one vectorized pass when the domain is numeric.  The
    same fast-path domain rules as :class:`CompiledHistogram` apply: a
    domain whose float64 codes would be lossy is demoted to the exact dict
    path at compile time, and NaN probes are 0-mass (never the remainder —
    NaN is not a domain value).
    """

    __slots__ = (
        "_explicit",
        "_codes",
        "_freqs",
        "_numeric",
        "remainder_count",
        "remainder_average",
    )

    def __init__(
        self,
        explicit: dict[Hashable, float],
        remainder_count: int,
        remainder_average: float,
    ):
        if remainder_count < 0:
            raise ValueError(
                f"remainder_count must be non-negative, got {remainder_count}"
            )
        self._explicit = {value: float(freq) for value, freq in explicit.items()}
        self.remainder_count = int(remainder_count)
        self.remainder_average = float(remainder_average)
        self._numeric = False
        self._codes = None
        self._freqs = None
        if (
            self._explicit
            and _is_numeric_domain(self._explicit)
            and _codes_are_lossless(self._explicit)
        ):
            try:
                codes = np.asarray(list(self._explicit), dtype=np.float64)
            except (TypeError, ValueError, OverflowError):
                codes = None
            if codes is not None:
                order = np.argsort(codes, kind="stable")
                sorted_codes = codes[order]
                if codes.size > 1 and bool(
                    np.any(sorted_codes[1:] == sorted_codes[:-1])
                ):
                    codes = None  # float64 collapse: exact path only
                else:
                    freqs = np.asarray(
                        list(self._explicit.values()), dtype=np.float64
                    )
                    self._numeric = True
                    self._codes = sorted_codes
                    self._freqs = freqs[order]

    @classmethod
    def from_compact(cls, compact: "CompactEndBiased") -> "CompiledCompact":
        """Compile the stored catalog form."""
        return cls(
            dict(compact.explicit), compact.remainder_count, compact.remainder_average
        )

    @property
    def is_numeric(self) -> bool:
        """True when probes go through the vectorized float64 fast path."""
        return self._numeric

    @property
    def total(self) -> float:
        """Total tuple count represented by the compiled statistics."""
        return float(
            sum(self._explicit.values())
            + self.remainder_count * self.remainder_average
        )

    def explicit_items(self) -> Iterable[tuple[Hashable, float]]:
        """The explicit (value, frequency) pairs in storage order."""
        return self._explicit.items()

    def has_explicit(self, value: Hashable) -> bool:
        """True when *value* is explicitly stored."""
        return value in self._explicit

    def frequency(self, value: Hashable) -> float:
        """Approximate frequency of one value (the "missing bucket" rule).

        NaN probes return 0.0 unconditionally: NaN is not a domain value,
        so it gets neither an explicit frequency nor the remainder bucket —
        in the scalar *and* the batched path.
        """
        try:
            if value != value:  # NaN-like probe: 0-mass, never the remainder
                return 0.0
            found = self._explicit.get(value)
        except (TypeError, ValueError):  # unhashable or array-like probe
            found = None
        if found is not None:
            return found
        if self.remainder_count > 0:
            return self.remainder_average
        return 0.0

    def frequency_batch(self, values: Sequence[Hashable]) -> np.ndarray:
        """Approximate frequencies for many probe values in one pass."""
        miss = self.remainder_average if self.remainder_count > 0 else 0.0
        if self._numeric:
            arr = probe_code_array(values)
            if arr is not None:
                codes = arr.astype(np.float64, copy=False)
                size = self._codes.size
                pos = np.searchsorted(self._codes, codes)
                clipped = np.minimum(pos, size - 1)
                hit = (pos < size) & (self._codes[clipped] == codes)
                out = np.where(hit, self._freqs[clipped], miss)
                if arr.dtype.kind == "f":
                    nan_probes = np.isnan(codes)
                    if nan_probes.any():
                        out[nan_probes] = 0.0  # NaN: 0-mass, never remainder
                elif arr.dtype.kind in "iu":
                    suspect = hit & (np.abs(codes) >= _TWO53)
                    if suspect.any():
                        for index in np.nonzero(suspect)[0].tolist():
                            out[index] = self.frequency(arr[index].item())
                return out
        return np.asarray([self.frequency(v) for v in values], dtype=np.float64)


def compile_histogram(histogram: "Histogram") -> CompiledHistogram:
    """Compile (and cache on the histogram) its vectorized lookup table.

    Histograms are immutable, so the compiled table is computed once per
    histogram and reused by every scalar estimator call and every service
    batch that touches it.
    """
    from repro.core.histogram import Histogram

    if not isinstance(histogram, Histogram):
        raise TypeError(
            f"expected a Histogram, got {type(histogram).__name__}"
        )
    cached = getattr(histogram, "_compiled", None)
    if cached is not None:
        return cached
    with span("serve.layout.compile", layout="histogram"):
        compiled = CompiledHistogram.from_histogram(histogram)
    histogram._compiled = compiled
    return compiled


def compile_compact(compact: "CompactEndBiased") -> CompiledCompact:
    """Compile a catalog compact layout into its batched lookup form."""
    from repro.engine.catalog import CompactEndBiased

    if not isinstance(compact, CompactEndBiased):
        raise TypeError(
            f"expected a CompactEndBiased, got {type(compact).__name__}"
        )
    with span("serve.layout.compile", layout="compact"):
        return CompiledCompact.from_compact(compact)
