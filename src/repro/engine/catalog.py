"""Statistics catalog: where histograms live inside the system (Section 4).

Real systems store exactly the end-biased layout the paper recommends —
DB2's ``SYSIBM.SYSCOLDIST`` keeps the 10 highest-frequency values of each
column explicitly.  :class:`CompactEndBiased` reproduces that storage form
("not finding a value among those explicitly stored implies it belongs to
the missing bucket"), and :class:`StatsCatalog` is the per-(relation,
attribute) registry the optimizer consults.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Hashable, Optional

from repro.core.histogram import Histogram


@dataclass(frozen=True)
class CompactEndBiased:
    """Compact catalog form of an end-biased histogram.

    ``explicit`` maps the values of the univalued buckets to their exact
    frequencies; every other domain value is approximated by
    ``remainder_average``.  The multivalued bucket is stored implicitly,
    the space optimisation of Section 4.1/4.2.
    """

    explicit: dict[Hashable, float]
    remainder_count: int
    remainder_average: float

    def __post_init__(self):
        if self.remainder_count < 0:
            raise ValueError(
                f"remainder_count must be non-negative, got {self.remainder_count}"
            )
        if self.remainder_count > 0 and self.remainder_average < 0:
            raise ValueError(
                f"remainder_average must be non-negative, got {self.remainder_average}"
            )

    @classmethod
    def from_histogram(cls, histogram: Histogram) -> "CompactEndBiased":
        """Compress a value-aware biased histogram into catalog form.

        The (single) multivalued bucket becomes the implicit remainder; all
        univalued buckets are stored explicitly.  For degenerate histograms
        whose buckets are all univalued, the largest bucket is the remainder.
        """
        if histogram.values is None:
            raise ValueError("catalog storage needs a value-aware histogram")
        if not histogram.is_biased():
            raise ValueError(
                "compact storage applies to biased histograms "
                "(one multivalued bucket); got a general histogram"
            )
        multivalued = [b for b in histogram.buckets if not b.is_univalued()]
        remainder = multivalued[0] if multivalued else max(
            histogram.buckets, key=lambda b: b.count
        )
        explicit: dict[Hashable, float] = {}
        for bucket in histogram.buckets:
            if bucket is remainder:
                continue
            for value, frequency in zip(bucket.values, bucket.frequencies):
                explicit[value] = float(frequency)
        return cls(
            explicit=explicit,
            remainder_count=remainder.count,
            remainder_average=remainder.average,
        )

    @property
    def distinct_count(self) -> int:
        """Distinct values covered: explicit plus implicit remainder."""
        return len(self.explicit) + self.remainder_count

    @property
    def total(self) -> float:
        """Total tuple count represented by the stored statistics."""
        return sum(self.explicit.values()) + self.remainder_count * self.remainder_average

    def estimate_frequency(self, value: Hashable) -> float:
        """Approximate frequency of *value* — the one documented lookup.

        Explicitly stored values return their exact frequency.  Any other
        value returns the remainder average (the catalog's "missing
        bucket" rule), or 0 when there is no remainder.  This is the same
        method name :class:`CatalogEntry` exposes, so callers holding
        either form use one spelling.
        """
        if value in self.explicit:
            return self.explicit[value]
        if self.remainder_count > 0:
            return self.remainder_average
        return 0.0


@dataclass
class CatalogEntry:
    """Statistics stored for one (relation, attribute) pair."""

    relation: str
    attribute: str
    kind: str
    histogram: Optional[Histogram]
    compact: Optional[CompactEndBiased]
    distinct_count: int
    total_tuples: float
    version: int = 0
    #: Write-ahead fence: the highest maintenance-journal sequence number
    #: already folded into this entry's statistics.  Journal replay (see
    #: :mod:`repro.engine.journal`) skips records at or below it, making
    #: replay idempotent across snapshot/checkpoint crash windows.
    journal_seq: int = 0

    def estimate_frequency(self, value: Hashable) -> float:
        """Approximate frequency of *value* from the best available form."""
        if self.compact is not None:
            return self.compact.estimate_frequency(value)
        if self.histogram is not None and self.histogram.values is not None:
            return self.histogram.approx_of_value(value)
        if self.distinct_count <= 0:
            return 0.0
        return self.total_tuples / self.distinct_count

    def average_frequency(self) -> float:
        """``T / M`` — the uniform-assumption frequency."""
        if self.distinct_count <= 0:
            return 0.0
        return self.total_tuples / self.distinct_count


class StatsCatalog:
    """Registry of per-(relation, attribute) statistics.

    Each entry's ``version`` counter increments on every (re)analyze of that
    attribute, letting maintenance policies detect staleness.  The catalog
    additionally keeps one **monotonic global version** that advances on
    *every* mutation (put or drop); the serving layer
    (:class:`repro.serve.EstimationService`) keys its compiled-table cache on
    these counters, so refreshed statistics invalidate stale tables without
    any explicit notification.

    The catalog is **thread-safe**: every mutation (``put``/``drop``) and
    every read (``get``/``entries``/``relation_rows``) takes one internal
    re-entrant lock, so concurrent ``ANALYZE`` writers and serving-layer
    readers never observe a half-applied mutation.  It also maintains a
    per-relation tuple-count index so :meth:`relation_rows` — the serving
    layer's fallback row source — costs one dict lookup per call instead of
    a scan over every catalog entry.
    """

    def __init__(self):
        self._entries: dict[tuple[str, str], CatalogEntry] = {}
        self._version = 0
        # Last version of dropped keys: a re-created entry must continue its
        # version sequence, or a cached compiled table keyed on the old
        # version could alias the new statistics and be served stale.
        self._tombstones: dict[tuple[str, str], int] = {}
        # relation -> {attribute -> total_tuples}: the per-relation row index
        # behind relation_rows(); kept exactly in sync with _entries.
        self._relation_totals: dict[str, dict[str, float]] = {}
        self._lock = threading.RLock()

    @property
    def version(self) -> int:
        """Monotonic counter bumped by every catalog mutation."""
        with self._lock:
            return self._version

    def put(self, entry: CatalogEntry) -> CatalogEntry:
        """Insert or replace the entry, bumping its version on replacement."""
        key = (entry.relation, entry.attribute)
        with self._lock:
            previous = self._entries.get(key)
            base = previous.version if previous else self._tombstones.pop(key, 0)
            entry.version = base + 1
            self._entries[key] = entry
            self._relation_totals.setdefault(entry.relation, {})[
                entry.attribute
            ] = float(entry.total_tuples)
            self._version += 1
            return entry

    def get(self, relation: str, attribute: str) -> Optional[CatalogEntry]:
        with self._lock:
            return self._entries.get((relation, attribute))

    def require(self, relation: str, attribute: str) -> CatalogEntry:
        entry = self.get(relation, attribute)
        if entry is None:
            raise KeyError(
                f"no statistics for {relation}.{attribute}; run ANALYZE first"
            )
        return entry

    def relation_rows(self, relation: str) -> Optional[float]:
        """Tuple count of *relation*, or ``None`` when nothing is analyzed.

        The largest ``total_tuples`` over the relation's analyzed attributes
        (attribute statistics may be collected at different times, so the
        freshest/fullest count wins).  Backed by the per-relation index —
        O(attributes of *relation*), never a full catalog scan.  This is the
        non-raising row source the serving layer's fallback paths use;
        callers that want a hard error use
        :meth:`repro.serve.EstimationService.scan_cardinality`.
        """
        with self._lock:
            totals = self._relation_totals.get(relation)
            if not totals:
                return None
            return max(totals.values())

    def drop(self, relation: str, attribute: Optional[str] = None) -> int:
        """Drop statistics for one attribute or a whole relation."""
        with self._lock:
            if attribute is not None:
                dropped = self._entries.pop((relation, attribute), None)
                if dropped is None:
                    return 0
                self._tombstones[(relation, attribute)] = dropped.version
                self._discard_total(relation, attribute)
                self._version += 1
                return 1
            keys = [k for k in self._entries if k[0] == relation]
            for key in keys:
                self._tombstones[key] = self._entries[key].version
                del self._entries[key]
                self._discard_total(*key)
            if keys:
                self._version += 1
            return len(keys)

    def _discard_total(self, relation: str, attribute: str) -> None:
        totals = self._relation_totals.get(relation)
        if totals is None:
            return
        totals.pop(attribute, None)
        if not totals:
            del self._relation_totals[relation]

    def entries(self) -> list[CatalogEntry]:
        with self._lock:
            return list(self._entries.values())

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: tuple[str, str]) -> bool:
        with self._lock:
            return key in self._entries
