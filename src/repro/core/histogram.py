"""The histogram abstraction (Sections 2.3-2.4).

A :class:`Histogram` is a partition of a reference frequency vector into
buckets, each approximated by its average.  The class is deliberately
partition-based rather than boundary-based because the paper's histograms may
place *any* subset of domain values in a bucket — serial histograms group by
frequency proximity, not by value ranges.

Classification predicates implement the paper's taxonomy:

* **trivial** — one bucket (the uniform-distribution assumption);
* **serial** — no two buckets' frequency ranges interleave (Definition 2.1);
* **biased** — β−1 univalued buckets plus one multivalued bucket
  (Definition 2.2);
* **end-biased** — biased, with the univalued buckets holding the highest
  and lowest frequencies.
"""

from __future__ import annotations

from itertools import combinations
from typing import Hashable, Optional, Sequence

import numpy as np

from repro.analysis.contracts import maybe_check_histogram
from repro.core.buckets import Bucket, buckets_interleave
from repro.core.frequency import (
    AttributeDistribution,
    FrequencyLike,
    FrequencySet,
    _take,
    as_frequency_array,
)


class Histogram:
    """A partition of a frequency vector into buckets.

    Parameters
    ----------
    frequencies:
        The reference frequency vector (any order).  When *values* is given
        it must align with this vector.
    index_groups:
        A partition of ``range(len(frequencies))``; each group becomes one
        bucket.
    kind:
        A label recording which construction produced the histogram
        (``"trivial"``, ``"equi-width"``, ``"equi-depth"``, ``"serial"``,
        ``"end-biased"``, ``"biased"``, or ``"custom"``).
    values:
        Optional domain values aligned with *frequencies*, enabling
        value-aware estimation.
    """

    __slots__ = ("_frequencies", "_groups", "_buckets", "_values", "kind", "_compiled")

    def __init__(
        self,
        frequencies: FrequencyLike,
        index_groups: Sequence[Sequence[int]],
        kind: str = "custom",
        values: Optional[Sequence[Hashable]] = None,
    ):
        freqs = as_frequency_array(frequencies)
        arrays = [np.asarray(group, dtype=np.intp) for group in index_groups]
        if not arrays:
            raise ValueError("a histogram needs at least one bucket")
        if any(group.ndim != 1 for group in arrays):
            raise TypeError("each index group must be a flat sequence of ints")
        flat = np.sort(np.concatenate(arrays))
        if not np.array_equal(flat, np.arange(freqs.size, dtype=np.intp)):
            raise ValueError(
                "index_groups must partition the frequency indices exactly"
            )
        if any(group.size == 0 for group in arrays):
            raise ValueError("buckets must be non-empty")
        groups = tuple(tuple(group.tolist()) for group in arrays)
        if values is not None:
            values = tuple(values)
            if len(values) != freqs.size:
                raise ValueError(
                    f"values and frequencies must align, got {len(values)} values "
                    f"and {freqs.size} frequencies"
                )
        freqs.setflags(write=False)
        self._frequencies = freqs
        self._groups = groups
        self._values = values
        self.kind = kind
        # Lazily-populated serving-layer lookup table; see repro.serve.tables.
        self._compiled = None
        self._buckets = tuple(
            Bucket(
                freqs[array],
                values=None if values is None else _take(values, group),
            )
            for array, group in zip(arrays, groups)
        )
        maybe_check_histogram(self)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_sorted_sizes(
        cls,
        frequencies: FrequencyLike,
        sizes: Sequence[int],
        kind: str = "serial",
        values: Optional[Sequence[Hashable]] = None,
    ) -> "Histogram":
        """Build a serial histogram from bucket sizes over descending order.

        ``sizes = (p_1, ..., p_β)`` carves the frequencies, sorted in
        descending order, into contiguous runs — exactly the serial
        histograms enumerated by the paper's V-OptHist.  The reference order
        of *frequencies* (and *values*) is preserved; only the grouping
        follows sorted order.
        """
        freqs = as_frequency_array(frequencies)
        sizes = tuple(int(s) for s in sizes)
        if any(s <= 0 for s in sizes):
            raise ValueError(f"bucket sizes must be positive, got {sizes}")
        if sum(sizes) != freqs.size:
            raise ValueError(
                f"bucket sizes {sizes} must sum to the number of frequencies "
                f"({freqs.size})"
            )
        order = np.argsort(-freqs, kind="stable")
        groups = np.split(order, np.cumsum(sizes[:-1], dtype=np.int64))
        return cls(freqs, groups, kind=kind, values=values)

    @classmethod
    def single_bucket(
        cls, frequencies: FrequencyLike, values: Optional[Sequence[Hashable]] = None
    ) -> "Histogram":
        """Build the trivial histogram (uniform-distribution assumption)."""
        freqs = as_frequency_array(frequencies)
        return cls(freqs, [tuple(range(freqs.size))], kind="trivial", values=values)

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------

    @property
    def buckets(self) -> tuple[Bucket, ...]:
        return self._buckets

    @property
    def bucket_count(self) -> int:
        """β: the number of buckets."""
        return len(self._buckets)

    @property
    def frequencies(self) -> np.ndarray:
        """The reference frequency vector (read-only view)."""
        return self._frequencies

    @property
    def values(self) -> Optional[tuple]:
        return self._values

    @property
    def index_groups(self) -> tuple[tuple[int, ...], ...]:
        return self._groups

    def frequency_set(self) -> FrequencySet:
        """The frequency multiset the histogram was built from."""
        return FrequencySet(self._frequencies)

    # ------------------------------------------------------------------
    # Classification (paper taxonomy)
    # ------------------------------------------------------------------

    def is_trivial(self) -> bool:
        return self.bucket_count == 1

    def is_serial(self) -> bool:
        """Definition 2.1: no pair of buckets interleaves in frequency."""
        return not any(
            buckets_interleave(a, b) for a, b in combinations(self._buckets, 2)
        )

    def is_biased(self) -> bool:
        """Definition 2.2: at most one bucket is multivalued."""
        multivalued = sum(1 for b in self._buckets if not b.is_univalued())
        return multivalued <= 1

    def is_end_biased(self) -> bool:
        """Definition 2.2: biased, univalued buckets at the frequency extremes.

        Every univalued bucket must sit entirely at or above the multivalued
        bucket's maximum, or entirely at or below its minimum.  Degenerate
        histograms whose buckets are all univalued count as end-biased (the
        largest bucket plays the multivalued role).
        """
        if not self.is_biased():
            return False
        multivalued = [b for b in self._buckets if not b.is_univalued()]
        if not multivalued:
            # All buckets exact; designate the widest as the "multivalued" one.
            anchor = max(self._buckets, key=lambda b: b.count)
        else:
            anchor = multivalued[0]
        for bucket in self._buckets:
            if bucket is anchor:
                continue
            level = bucket.max_frequency  # univalued: all entries equal
            if not (level >= anchor.max_frequency or level <= anchor.min_frequency):
                return False
        return True

    # ------------------------------------------------------------------
    # Approximation
    # ------------------------------------------------------------------

    def approximate_frequencies(self, *, rounded: bool = False) -> np.ndarray:
        """Return the approximate frequency vector aligned with the reference.

        Every frequency is replaced by its bucket average (or the nearest
        integer to it when *rounded*, matching the paper's definition for
        integer-valued databases).
        """
        out = np.empty_like(self._frequencies)
        for bucket, group in zip(self._buckets, self._groups):
            approx = bucket.rounded_average() if rounded else bucket.average
            out[list(group)] = approx
        return out

    def approximate_distribution(self, *, rounded: bool = False) -> AttributeDistribution:
        """Return the histogram matrix as a value->approximation mapping."""
        if self._values is None:
            raise ValueError(
                "histogram was built from a bare frequency set; no values to map"
            )
        return AttributeDistribution(
            self._values, self.approximate_frequencies(rounded=rounded)
        )

    def approx_of_value(self, value: Hashable) -> float:
        """Approximate frequency the optimizer would use for *value*.

        Only available for value-aware histograms; unknown values estimate
        to 0 (they are outside the recorded domain).
        """
        if self._values is None:
            raise ValueError(
                "histogram was built from a bare frequency set; no values to map"
            )
        for bucket in self._buckets:
            if value in bucket.values:
                return bucket.average
        return 0.0

    def _approx_descending(self, *, rounded: bool = False) -> np.ndarray:
        """Approximations aligned with the descending-sorted reference."""
        order = np.argsort(-self._frequencies, kind="stable")
        return self.approximate_frequencies(rounded=rounded)[order]

    def approximate_array(self, array: FrequencyLike, *, rounded: bool = False) -> np.ndarray:
        """Apply the histogram to any arrangement of its frequency multiset.

        *array* may have any shape; its entries must form the same multiset
        as the histogram's reference vector.  Entries are matched to buckets
        by rank (descending), which is well defined for serial histograms and
        an arbitrary-but-deterministic tie-break otherwise.  The result has
        the shape of *array* with every entry replaced by its bucket average.
        """
        arr = np.asarray(array, dtype=float)
        flat = arr.ravel()
        if flat.size != self._frequencies.size or not np.allclose(
            np.sort(flat), np.sort(self._frequencies)
        ):
            raise ValueError(
                "array entries do not match the histogram's frequency multiset"
            )
        approx_desc = self._approx_descending(rounded=rounded)
        order = np.argsort(-flat, kind="stable")
        out = np.empty_like(flat)
        out[order] = approx_desc
        return out.reshape(arr.shape)

    # ------------------------------------------------------------------
    # Proposition 3.1: self-join size and error formulas
    # ------------------------------------------------------------------

    def self_join_estimate(self) -> float:
        """Approximate self-join size: ``S' = Σ_i T_i² / p_i`` (formula (2))."""
        return float(sum(b.total**2 / b.count for b in self._buckets))

    def self_join_error(self) -> float:
        """Self-join error: ``S − S' = Σ_i p_i·v_i`` (formula (3)).

        Non-negative for every histogram of the relation being self-joined,
        and zero exactly when every bucket is univalued.
        """
        return float(sum(b.sse for b in self._buckets))

    # ------------------------------------------------------------------

    def storage_entries(self) -> int:
        """Rough catalog footprint: explicit (value, frequency) slots needed.

        Univalued and singleton buckets store their values explicitly; the
        single largest bucket can be stored implicitly ("not found => use
        this average"), the space trick of Section 4.1.
        """
        if not self._buckets:
            return 0
        largest = max(self._buckets, key=lambda b: b.count)
        return sum(b.count for b in self._buckets if b is not largest) + 1

    def __eq__(self, other) -> bool:
        if not isinstance(other, Histogram):
            return NotImplemented
        if self._frequencies.shape != other._frequencies.shape:
            return False
        if not np.allclose(self._frequencies, other._frequencies):
            return False
        mine = sorted(sorted(g) for g in self._groups)
        theirs = sorted(sorted(g) for g in other._groups)
        return mine == theirs and self._values == other._values

    def __repr__(self) -> str:
        return (
            f"Histogram(kind={self.kind!r}, buckets={self.bucket_count}, "
            f"M={self._frequencies.size}, error={self.self_join_error():.4g})"
        )
