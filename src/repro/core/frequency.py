"""Frequency sets and attribute-value frequency distributions (Section 2.2).

Two views of the same statistics appear throughout the paper:

* the **frequency set** of a relation's attribute — the multiset of
  frequencies with the attribute values forgotten.  This is the "minimum
  required knowledge" under which v-optimality (Section 3.2) is defined.
* the **frequency distribution** — the mapping from attribute values to
  frequencies, needed by value-aware estimation (selections, equi-width /
  equi-depth bucketing over the natural value order).

:class:`FrequencySet` and :class:`AttributeDistribution` model the two views;
``as_frequency_array`` lets every algorithm accept either, or any plain
sequence of numbers.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Hashable, Iterable, Optional, Sequence, Union

import numpy as np

from repro.util.rng import RandomSource, derive_rng

#: Anything ``as_frequency_array`` accepts: the two core statistic views,
#: a numpy array, or any plain sequence of numbers.
FrequencyLike = Union["FrequencySet", "AttributeDistribution", np.ndarray, Sequence[float]]


def int64_column(values: Sequence[Hashable]) -> Optional[np.ndarray]:  # repolint: boundary-exempt — returning None *is* the rejection path
    """The int64 array of *values*, or ``None`` when the general path must run.

    The typing rule of the array-native build path (``Matrix`` and the
    compiled lookup table): every value a plain ``int`` within int64.
    ``bool`` (``True`` and ``1`` merge as dict keys, keeping the first
    object seen), NumPy integer scalars, floats, strings, mixed columns and
    ints beyond int64 all return ``None`` and keep the per-value code.  An
    empty column, or one whose first value is not an ``int``, is rejected
    before any pass over the rest.
    """
    if len(values) == 0 or type(values[0]) is not int:
        return None
    if set(map(type, values)) != {int}:
        return None
    try:
        return np.fromiter(values, dtype=np.int64, count=len(values))
    except OverflowError:
        return None


def _take(values: Sequence, indices: list[int]) -> tuple:
    """``tuple(values[i] for i in indices)`` in one C-level pass."""
    if len(indices) < 2:
        return tuple(values[i] for i in indices)
    return itemgetter(*indices)(values)


def as_frequency_array(frequencies: FrequencyLike) -> np.ndarray:
    """Coerce *frequencies* into a 1-D float array of non-negative values.

    Accepts :class:`FrequencySet`, :class:`AttributeDistribution`, numpy
    arrays, and plain sequences.  A defensive copy is always returned so
    callers may mutate the result freely.
    """
    if isinstance(frequencies, FrequencySet):
        return frequencies.frequencies.copy()
    if isinstance(frequencies, AttributeDistribution):
        return frequencies.frequencies.copy()
    arr = np.array(frequencies, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"frequencies must be one-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError("frequencies must be non-empty")
    if np.any(~np.isfinite(arr)):
        raise ValueError("frequencies must be finite")
    if np.any(arr < 0):
        raise ValueError("frequencies must be non-negative")
    return arr


class FrequencySet:
    """The multiset of frequencies of an attribute, values forgotten.

    Stored internally in descending order (the paper's rank order).  The
    class is immutable: all accessors return copies or scalars.
    """

    __slots__ = ("_frequencies",)

    def __init__(self, frequencies: Sequence[float]):
        arr = as_frequency_array(frequencies)
        arr = np.sort(arr)[::-1]
        arr.setflags(write=False)
        self._frequencies = arr

    @classmethod
    def from_column(cls, column: Iterable[Hashable]) -> "FrequencySet":
        """Build the frequency set of a raw column of attribute values.

        This is the value-oblivious half of the paper's ``Matrix``
        statistics-collection step: one pass counting duplicates.
        """
        counts: dict[Hashable, int] = {}
        for value in column:
            counts[value] = counts.get(value, 0) + 1
        if not counts:
            raise ValueError("column must be non-empty")
        return cls(list(counts.values()))

    @property
    def frequencies(self) -> np.ndarray:
        """The frequencies in descending order (read-only view)."""
        return self._frequencies

    @property
    def size(self) -> int:
        """Number of distinct attribute values (``M`` in the paper)."""
        return int(self._frequencies.size)

    @property
    def total(self) -> float:
        """Sum of all frequencies — the relation size ``T``."""
        return float(self._frequencies.sum())

    @property
    def mean(self) -> float:
        """Average frequency."""
        return float(self._frequencies.mean())

    @property
    def variance(self) -> float:
        """Population variance of the frequencies."""
        return float(self._frequencies.var())

    def self_join_size(self) -> float:
        """Exact result size of joining the relation with itself: ``Σ f_i²``."""
        return float(np.dot(self._frequencies, self._frequencies))

    def sorted_descending(self) -> np.ndarray:
        """Return a writable copy of the frequencies in descending order."""
        return self._frequencies.copy()

    def __len__(self) -> int:
        return self.size

    def __iter__(self):
        return iter(self._frequencies)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FrequencySet):
            return NotImplemented
        return self._frequencies.shape == other._frequencies.shape and bool(
            np.allclose(self._frequencies, other._frequencies)
        )

    def __hash__(self):
        return hash(tuple(np.round(self._frequencies, 12)))

    def __repr__(self) -> str:
        head = ", ".join(f"{v:g}" for v in self._frequencies[:5])
        suffix = ", ..." if self.size > 5 else ""
        return f"FrequencySet([{head}{suffix}], size={self.size}, total={self.total:g})"


class AttributeDistribution:
    """A mapping from attribute values to frequencies.

    Values are kept in their natural sorted order, which is what equi-width
    and equi-depth histograms bucket over.  The paper's synthetic experiments
    deliberately *randomise* the association between values and frequencies
    ("no correlation" assumption); :meth:`permuted` produces such
    arrangements.
    """

    __slots__ = ("_values", "_frequencies")

    def __init__(self, values: Sequence[Hashable], frequencies: Sequence[float]):
        freqs = as_frequency_array(frequencies)
        values = tuple(values)
        if len(values) != freqs.size:
            raise ValueError(
                f"values and frequencies must align, got {len(values)} values "
                f"and {freqs.size} frequencies"
            )
        if len(set(values)) != len(values):
            raise ValueError("attribute values must be distinct")
        order = sorted(range(len(values)), key=lambda i: values[i])
        self._values = tuple(values[i] for i in order)
        arr = freqs[order]
        arr.setflags(write=False)
        self._frequencies = arr

    @classmethod
    def from_column(cls, column: Iterable[Hashable]) -> "AttributeDistribution":
        """Count duplicates in a raw column (the paper's ``Matrix`` step).

        A list or tuple that is an int64 column (:func:`int64_column`) is
        counted with one sort; each distinct value is the column's object at
        its first position, exactly the key the dict count below keeps.
        Every other column, including any iterable that is not a list or
        tuple, is counted in the dict as it streams, without a copy.
        """
        codes = int64_column(column) if isinstance(column, (list, tuple)) else None
        if codes is None:
            counts: dict[Hashable, int] = {}
            for value in column:
                counts[value] = counts.get(value, 0) + 1
            if not counts:
                raise ValueError("column must be non-empty")
            values = list(counts.keys())
            return cls(values, [float(counts[v]) for v in values])
        positions = np.argsort(codes)
        ranked = codes[positions]
        starts = np.flatnonzero(np.concatenate(([True], ranked[1:] != ranked[:-1])))
        first = np.minimum.reduceat(positions, starts)
        counts = np.diff(starts, append=ranked.size).astype(np.float64)
        counts.setflags(write=False)
        # Distinct and already in natural order: skip the constructor's checks.
        distribution = cls.__new__(cls)
        distribution._values = _take(column, first.tolist())
        distribution._frequencies = counts
        return distribution

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[Hashable, float]]) -> "AttributeDistribution":
        """Build from explicit ``(value, frequency)`` pairs."""
        values, freqs = [], []
        for value, freq in pairs:
            values.append(value)
            freqs.append(float(freq))
        return cls(values, freqs)

    @property
    def values(self) -> tuple:
        """The distinct attribute values, in natural sorted order."""
        return self._values

    @property
    def frequencies(self) -> np.ndarray:
        """Frequencies aligned with :attr:`values` (read-only view)."""
        return self._frequencies

    @property
    def domain_size(self) -> int:
        """Number of distinct values (``M``)."""
        return len(self._values)

    @property
    def total(self) -> float:
        """Relation size ``T``."""
        return float(self._frequencies.sum())

    def frequency_of(self, value: Hashable) -> float:
        """Return the frequency of *value* (0.0 when absent from the domain)."""
        try:
            index = self._values.index(value)
        except ValueError:
            return 0.0
        return float(self._frequencies[index])

    def frequency_set(self) -> FrequencySet:
        """Forget the values: return the frequency multiset."""
        return FrequencySet(self._frequencies)

    def self_join_size(self) -> float:
        """Exact self-join size ``Σ f_i²`` — value association is irrelevant."""
        return float(np.dot(self._frequencies, self._frequencies))

    def join_size(self, other: "AttributeDistribution") -> float:
        """Exact equality-join size against *other* on the shared attribute.

        ``Σ_v f_self(v) · f_other(v)`` over the intersection of the two value
        domains (Theorem 2.1 specialised to a two-way join).
        """
        other_index = {v: i for i, v in enumerate(other._values)}
        size = 0.0
        for i, value in enumerate(self._values):
            j = other_index.get(value)
            if j is not None:
                size += float(self._frequencies[i]) * float(other._frequencies[j])
        return size

    def permuted(self, rng: RandomSource = None) -> "AttributeDistribution":
        """Return a copy with frequencies randomly re-assigned to values.

        Implements the uniform-random *arrangement* over which v-optimality
        averages (Section 3.2) and the "no correlation between value order
        and frequency order" modelling assumption of Section 5.1.
        """
        gen = derive_rng(rng)
        shuffled = gen.permutation(self._frequencies)
        return AttributeDistribution(self._values, shuffled)

    def __len__(self) -> int:
        return self.domain_size

    def __eq__(self, other) -> bool:
        if not isinstance(other, AttributeDistribution):
            return NotImplemented
        return self._values == other._values and bool(
            np.allclose(self._frequencies, other._frequencies)
        )

    def __repr__(self) -> str:
        return (
            f"AttributeDistribution(domain_size={self.domain_size}, "
            f"total={self.total:g})"
        )
