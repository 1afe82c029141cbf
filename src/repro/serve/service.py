"""The batched estimation service: histograms as long-lived serving state.

A production optimizer does not rebuild lookup structures per predicate —
it compiles each catalog histogram once and answers *batches* of probes
against the compiled state.  :class:`EstimationService` is that layer:

* each (relation, attribute) entry of a :class:`~repro.engine.catalog.StatsCatalog`
  is compiled on first touch into a :class:`~repro.serve.tables.CompiledHistogram`
  and/or :class:`~repro.serve.tables.CompiledCompact`;
* compiled tables live in a **lock-guarded** bounded LRU keyed by the
  catalog's version counters, so an ``ANALYZE`` or a maintenance publish
  invalidates exactly the stale tables, and concurrent reader threads
  never observe a half-built cache;
* a two-way join product (Theorem 2.1) is compiled state too: the left
  table's slot stores it per partner and partner version, so a repeated
  join costs a dict lookup until either side is republished;
* :meth:`EstimationService.estimate_batch` accepts arrays of equality /
  range / join probes and returns one numpy vector of cardinalities,
  vectorizing each (relation, attribute) group in a single pass.

Scalar convenience methods answer through the same compiled tables, so the
batched and scalar paths return **bit-identical** floats.

Fault isolation: one degradation ladder
---------------------------------------

A probe that cannot be answered first-class never aborts the rest of its
batch.  Every probe kind walks the same ladder, one (relation, attribute)
group at a time, and the first rung that applies decides its answer:

1. **admission** — the ``admission=`` verdicts of ``estimate_batch``
   refused the probe (its verdict is the reason, e.g.
   ``"quota-exceeded"`` or ``"backpressure"``);
2. **quarantine** — crash recovery withheld the statistics (fed in
   through :meth:`EstimationService.apply_recovery` from a
   :class:`~repro.engine.persist.RecoveryReport`):
   ``"quarantined-statistics"``, or ``"rebuild-in-progress"`` while the
   maintenance agent rebuilds them;
3. **unhashable value** — equality and membership (``"unhashable-value"``,
   served ``0.0``); ``not_equal`` checks its value only after rungs 4–5;
4. **compile failure** — compiling the entry's lookup table raised
   (``"table-compile-failed"``);
5. **unknown relation** (``"unknown-relation"``, served ``0.0``) or **no
   statistics** for an attribute of a known relation (``"no-statistics"``);
6. the kind's own rungs — a range over a slot without a value-aware
   histogram (``"no-histogram"``), over an unorderable domain
   (``"unorderable-domain"``), or with a bound incomparable with the
   domain (``"incomparable-bound"``, isolated per probe).

Unless noted, the value served is the kind's System R guess: ``0.1·|R|``
per equality or membership value, ``|R|/3`` for a range, ``0.9·|R|`` for
``≠`` and ``0.1·|L|·|R|`` for a join; ``0.0`` whenever a row count is
unknown.  ``no-statistics`` and ``no-histogram`` are first-class answers,
counted in ``ServiceMetrics.fallback_probes``.  Every other rung is
*degraded*: it resolves through the service-wide (or per-call)
``on_error`` policy:

``"fallback"`` (default)
    The value above, counted in ``ServiceMetrics.degraded_probes`` (keyed
    by reason).

``"nan"``
    ``float("nan")``, so downstream consumers can detect exactly which
    answers are missing; counted as degraded.

``"raise"``
    The rung's error propagates and the batch aborts: ``PermissionError``
    (admission), ``RuntimeError`` (quarantine), ``TypeError`` (unhashable
    value, incomparable bound), :class:`TableCompileError`, ``KeyError``
    (unknown relation) or ``ValueError`` (unorderable domain).

A join checks the quarantine of both sides first and compiles only when
both sides have statistics; a compile failure on either side is reported
against the left pair, an unknown side as (that relation, ``None``).

Pass ``trace=`` (any callable accepting a :class:`ProbeTrace`) to any
estimate entry point to observe *why* each fallback or degraded answer was
served, including the probe's position inside ``estimate_batch`` inputs.
"""

from __future__ import annotations

import itertools
import math
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Hashable, Iterable, Optional, Sequence, Union

import numpy as np

from repro.engine.catalog import CatalogEntry, CompactEndBiased, StatsCatalog
from repro.engine.persist import RecoveryReport
from repro.obs import runtime as obs
from repro.obs.tracing import span
from repro.serve.frame import (
    EqualityProbe,
    JoinProbe,
    Probe,
    ProbeFrame,
    RangeProbe,
)
from repro.serve.metrics import ServiceMetrics
from repro.serve.tables import (
    CompiledCompact,
    CompiledHistogram,
    _is_nan_like,
    compile_compact,
    compile_histogram,
    probe_code_array,
    range_bound_arrays,
)
from repro.testing.faults import POINT_SERVE_COMPILE, fault_point
from repro.util.validation import ensure_positive_int

#: Fallback equality-join/selection selectivity when no statistics exist —
#: the venerable System R magic constant.
DEFAULT_EQ_SELECTIVITY = 0.1

#: Fallback range selectivity without a value-aware histogram (System R).
DEFAULT_RANGE_SELECTIVITY = 1.0 / 3.0

#: Default bound on the compiled-table LRU.
DEFAULT_MAX_TABLES = 256

#: Source of the auto-generated ``service-N`` names used as the
#: ``service`` metric label when no explicit name is given.
_SERVICE_SEQ = itertools.count(1)

#: The accepted ``on_error`` policies (see the module docstring).
ON_ERROR_POLICIES: tuple[str, ...] = ("fallback", "nan", "raise")

#: Degradation reasons reported through metrics and ``trace=`` hooks.
REASON_UNKNOWN_RELATION = "unknown-relation"
REASON_UNORDERABLE_DOMAIN = "unorderable-domain"
REASON_UNHASHABLE_VALUE = "unhashable-value"
REASON_INCOMPARABLE_BOUND = "incomparable-bound"
#: The entry's statistics were quarantined by crash recovery (see
#: :meth:`EstimationService.apply_recovery`) and must not be served.
REASON_QUARANTINED = "quarantined-statistics"
#: A maintenance rebuild is underway for an entry that was **already
#: quarantined** — the refined form of ``"quarantined-statistics"``
#: telling callers the outage is being repaired autonomously.  A rebuild
#: of a *healthy* entry never degrades anything: the service keeps
#: serving the last published snapshot until the new one lands in the
#: catalog (see :meth:`EstimationService.mark_rebuilding`).
REASON_REBUILD_IN_PROGRESS = "rebuild-in-progress"
#: Compiling the entry's lookup table raised; the corrupt/buggy statistics
#: are isolated instead of aborting the batch.
REASON_COMPILE_FAILED = "table-compile-failed"
#: Admission control (quota/backpressure) rejected the probe before it
#: reached the estimators — typed so network tenants see *why* in their
#: SDK traces and per-tenant metrics, never a dropped connection.
REASON_QUOTA_EXCEEDED = "quota-exceeded"
REASON_BACKPRESSURE = "backpressure"
#: Fallback (non-degraded) reasons: the relation is known, the statistics
#: form needed for a first-class answer is not.
REASON_NO_STATISTICS = "no-statistics"
REASON_NO_HISTOGRAM = "no-histogram"


class TableCompileError(RuntimeError):
    """A catalog entry could not be compiled into a serving table.

    Raised internally when :func:`~repro.serve.tables.compile_histogram` /
    :func:`~repro.serve.tables.compile_compact` fail on an entry (corrupt
    statistics that slipped past load-time checks, or an injected compile
    fault).  Estimate paths catch it and resolve the affected probes
    through the ``on_error`` policy with reason ``"table-compile-failed"``;
    under ``on_error="raise"`` it propagates to the caller.
    """


# EqualityProbe / RangeProbe / JoinProbe / Probe / ProbeFrame live in
# :mod:`repro.serve.frame` (imported above and re-exported here for
# compatibility — ``from repro.serve.service import EqualityProbe`` keeps
# working).


@dataclass(frozen=True)
class ProbeTrace:
    """Why one probe's answer was served from a fallback or degraded.

    Emitted through the ``trace=`` hook of the estimate entry points —
    once per affected probe, never for probes answered first-class from
    compiled statistics.
    """

    #: Probe shape: ``"equality"``, ``"range"``, ``"join"``,
    #: ``"membership"``, or ``"not_equal"``.
    kind: str
    relation: str
    attribute: Optional[str]
    #: One of the ``REASON_*`` constants.
    reason: str
    #: The answer actually served (may be ``nan`` under the nan policy).
    value: float
    #: True when resolved through the ``on_error`` policy (the probe was
    #: unanswerable); False for documented no-statistics fallbacks.
    degraded: bool
    #: Index into the ``estimate_batch`` input, when served from a batch.
    position: Optional[int] = None


#: Signature of the ``trace=`` hook.
TraceHook = Callable[[ProbeTrace], None]

@dataclass(frozen=True)
class _Degradation:
    """Why some probes of a group get no first-class answer, and what they get.

    ``error`` builds the exception the ``"raise"`` policy propagates; it
    is ``None`` for a documented no-statistics fallback, which every
    policy serves as a first-class answer.
    """

    reason: str
    #: The (relation, attribute) the trace names.
    relation: str
    attribute: Optional[str]
    fallback: float
    error: Optional[Callable[[], Exception]] = None

    @property
    def degraded(self) -> bool:
        return self.error is not None


def _probe_position(positions: Optional[Sequence[int]], index: int) -> Optional[int]:
    if positions is None:
        return None
    # Positions may live in an intp index array; traces (and their JSON
    # wire form) carry plain Python ints.
    return int(positions[index])


def _kept(column: Union[list, np.ndarray], keep: np.ndarray) -> Union[list, np.ndarray]:
    """The admitted entries of one group column."""
    if isinstance(column, np.ndarray):
        return column[keep]
    return [column[i] for i in np.flatnonzero(keep).tolist()]



@dataclass
class _CompiledSlot:
    """Everything the service compiled from one catalog entry."""

    version: int
    total_tuples: float
    distinct_count: int
    histogram_table: Optional[CompiledHistogram]
    stored_compact: Optional[CompiledCompact]
    join_compact: Optional[CompiledCompact]
    #: Join products with this slot on the left: partner (relation,
    #: attribute) -> (partner version, product).  One entry per partner.
    joins: dict[tuple[str, str], tuple[int, float]] = field(default_factory=dict)

    @classmethod
    def from_entry(cls, entry: CatalogEntry) -> "_CompiledSlot":
        fault_point(
            POINT_SERVE_COMPILE, detail=f"{entry.relation}.{entry.attribute}"
        )
        histogram_table: Optional[CompiledHistogram] = None
        if entry.histogram is not None and entry.histogram.values is not None:
            histogram_table = compile_histogram(entry.histogram)
        stored_compact: Optional[CompiledCompact] = None
        if entry.compact is not None:
            stored_compact = compile_compact(entry.compact)
        # Join estimation may *derive* a compact view from a biased
        # value-aware histogram (the optimizer's MCV fallback ladder).
        join_compact = stored_compact
        if (
            join_compact is None
            and histogram_table is not None
            and entry.histogram.is_biased()
        ):
            join_compact = compile_compact(
                CompactEndBiased.from_histogram(entry.histogram)
            )
        return cls(
            version=entry.version,
            total_tuples=float(entry.total_tuples),
            distinct_count=int(entry.distinct_count),
            histogram_table=histogram_table,
            stored_compact=stored_compact,
            join_compact=join_compact,
        )

    def average_frequency(self) -> float:
        """``T / M`` — the uniform-assumption frequency."""
        if self.distinct_count <= 0:
            return 0.0
        return self.total_tuples / self.distinct_count

    def frequency_batch(self, values: Sequence[Hashable]) -> np.ndarray:
        """Per-value frequencies, preferring the same form the catalog does.

        The preference order mirrors ``CatalogEntry.estimate_frequency``:
        stored compact layout first, then the value-aware histogram, then
        the uniform assumption — so service answers are bit-identical to
        the legacy scalar path.
        """
        if self.stored_compact is not None:
            return self.stored_compact.frequency_batch(values)
        if self.histogram_table is not None:
            return self.histogram_table.equality_batch(values)
        return np.full(len(values), self.average_frequency(), dtype=np.float64)


class EstimationService:
    """Batched, cache-compiled cardinality estimation over a catalog.

    Thread-safe: the compiled-table LRU is guarded by one re-entrant lock
    (lookup, compile, insert, and eviction happen atomically), the catalog
    is consulted through its own lock, and every metrics update is atomic —
    so concurrent reader threads may share one service while an ``ANALYZE``
    or maintenance ``publish`` refreshes the catalog underneath them.  The
    version re-check on every probe guarantees that once a catalog mutation
    completes, no later probe is answered from the stale compiled table.

    Parameters
    ----------
    catalog:
        The statistics catalog to serve from.  The service holds a
        reference (not a copy); catalog mutations are picked up through
        the version counters.
    max_tables:
        LRU bound on concurrently cached compiled tables.
    on_error:
        Service-wide policy for probes that cannot be answered —
        ``"fallback"`` (default), ``"nan"``, or ``"raise"``; see the
        module docstring.  Every estimate entry point also accepts a
        per-call ``on_error=`` override.
    """

    def __init__(
        self,
        catalog: StatsCatalog,
        *,
        max_tables: int = DEFAULT_MAX_TABLES,
        on_error: str = "fallback",
        name: Optional[str] = None,
    ):
        if not isinstance(catalog, StatsCatalog):
            raise TypeError(
                f"catalog must be a StatsCatalog, got {type(catalog).__name__}"
            )
        if on_error not in ON_ERROR_POLICIES:
            raise ValueError(
                f"on_error must be one of {ON_ERROR_POLICIES}, got {on_error!r}"
            )
        if name is not None and not isinstance(name, str):
            raise TypeError(f"name must be a str, got {type(name).__name__}")
        self._catalog = catalog
        self._max_tables = ensure_positive_int(max_tables, "max_tables")
        self._on_error = on_error
        self._slots: OrderedDict[tuple[str, str], _CompiledSlot] = OrderedDict()
        # (relation, attribute) pairs recovery withheld; attribute None
        # quarantines the whole relation.  Probes touching them degrade
        # through the on_error policy with reason "quarantined-statistics".
        self._quarantined: set[tuple[str, Optional[str]]] = set()
        # Pairs the maintenance agent is actively rebuilding.  Refines the
        # degradation reason of *quarantined* pairs to "rebuild-in-progress";
        # healthy pairs in this set serve normally from the last snapshot.
        self._rebuilding: set[tuple[str, Optional[str]]] = set()
        self._lock = threading.RLock()
        self.name = name if name is not None else f"service-{next(_SERVICE_SEQ)}"
        self.metrics = ServiceMetrics()
        # Export the counters through the default registry.  The collector
        # holds only a weak reference to the metrics object (and the lambda
        # captures just the name string), so registration never extends
        # this service's lifetime; its samples disappear when it does.
        service_label = self.name
        obs.get_registry().register_collector(
            lambda metrics: metrics.collect(service=service_label),
            owner=self.metrics,
        )

    # ------------------------------------------------------------------
    # Compiled-table cache
    # ------------------------------------------------------------------

    @property
    def catalog(self) -> StatsCatalog:
        """The catalog this service answers from."""
        return self._catalog

    @property
    def on_error(self) -> str:
        """The service-wide error policy (per-call overrides allowed)."""
        return self._on_error

    @property
    def max_tables(self) -> int:
        """The LRU bound on cached compiled tables."""
        return self._max_tables

    @property
    def cached_tables(self) -> int:
        """Number of compiled tables currently held."""
        with self._lock:
            return len(self._slots)

    def invalidate(self) -> int:
        """Drop every compiled table; returns how many were discarded."""
        with self._lock:
            dropped = len(self._slots)
            self._slots.clear()
            return dropped

    # ------------------------------------------------------------------
    # Recovery and quarantine
    # ------------------------------------------------------------------

    @property
    def quarantined(self) -> frozenset:
        """The (relation, attribute) pairs currently quarantined.

        An ``attribute`` of ``None`` means the whole relation is held.
        """
        with self._lock:
            return frozenset(self._quarantined)

    def apply_recovery(self, report: RecoveryReport) -> int:
        """Absorb a crash-recovery report; returns entries newly quarantined.

        Every entry the recovery load quarantined is registered so probes
        against it resolve through the ``on_error`` policy (reason
        ``"quarantined-statistics"``) instead of being served from corrupt
        statistics, and the recovery is surfaced in the metrics
        (``recoveries_applied`` / ``entries_quarantined`` /
        ``journal_deltas_replayed``).
        """
        if not isinstance(report, RecoveryReport):
            raise TypeError(
                f"report must be a RecoveryReport, got {type(report).__name__}"
            )
        added = 0
        with self._lock:
            for item in report.quarantined:
                if item.relation is None:
                    continue
                key = (item.relation, item.attribute)
                if key not in self._quarantined:
                    self._quarantined.add(key)
                    if item.attribute is None:
                        # A whole-relation hold must evict every compiled
                        # slot under the relation, or stale tables would
                        # outlive clear_quarantine.
                        for slot_key in [
                            k for k in self._slots if k[0] == item.relation
                        ]:
                            del self._slots[slot_key]
                    else:
                        self._slots.pop(key, None)
                    added += 1
        self.metrics.record_recovery(
            entries_quarantined=added, deltas_replayed=report.journal_replayed
        )
        return added

    def quarantine(self, relation: str, attribute: Optional[str] = None) -> None:
        """Manually hold *relation* (or one attribute) out of serving."""
        if not isinstance(relation, str) or not relation:
            raise TypeError(f"relation must be a non-empty str, got {relation!r}")
        with self._lock:
            self._quarantined.add((relation, attribute))
            if attribute is None:
                for key in [k for k in self._slots if k[0] == relation]:
                    del self._slots[key]
            else:
                self._slots.pop((relation, attribute), None)

    def clear_quarantine(
        self, relation: str, attribute: Optional[str] = None
    ) -> bool:
        """Release a quarantine (after re-ANALYZE/repair); True if held."""
        with self._lock:
            try:
                self._quarantined.remove((relation, attribute))
                return True
            except KeyError:
                return False

    def mark_rebuilding(
        self, relation: str, attribute: Optional[str] = None
    ) -> None:
        """Note that a maintenance rebuild of *relation* is underway.

        This never degrades serving by itself: probes against a healthy
        entry keep answering from the last published snapshot until the
        rebuilt one is ``put`` into the catalog (the version bump then
        recompiles tables lazily).  Only when the pair is *also*
        quarantined does the degradation reason refine from
        ``"quarantined-statistics"`` to ``"rebuild-in-progress"``.
        """
        if not isinstance(relation, str) or not relation:
            raise TypeError(f"relation must be a non-empty str, got {relation!r}")
        with self._lock:
            self._rebuilding.add((relation, attribute))

    def clear_rebuilding(
        self, relation: str, attribute: Optional[str] = None
    ) -> bool:
        """The rebuild finished (or failed); True if it was marked."""
        with self._lock:
            try:
                self._rebuilding.remove((relation, attribute))
                return True
            except KeyError:
                return False

    @property
    def rebuilding(self) -> frozenset:
        """The (relation, attribute) pairs with a rebuild underway."""
        with self._lock:
            return frozenset(self._rebuilding)

    def _slot_for_entry(self, entry: CatalogEntry) -> _CompiledSlot:
        key = (entry.relation, entry.attribute)
        with self._lock:
            slot = self._slots.get(key)
            if slot is not None and slot.version == entry.version:
                self.metrics.record_table_hit()
                self._slots.move_to_end(key)
                return slot
            self.metrics.record_table_miss()
            try:
                with span(
                    "serve.table.compile",
                    relation=entry.relation,
                    attribute=entry.attribute,
                ):
                    slot = _CompiledSlot.from_entry(entry)
            except Exception as exc:
                # Nothing is cached for a failed compile: a re-ANALYZE
                # replaces the entry (new version) and compiles fresh.
                self.metrics.record_compile_failure()
                raise TableCompileError(
                    f"failed to compile serving tables for "
                    f"{entry.relation}.{entry.attribute}: {exc}"
                ) from exc
            self._slots[key] = slot
            self._slots.move_to_end(key)
            evicted = 0
            while len(self._slots) > self._max_tables:
                self._slots.popitem(last=False)
                evicted += 1
            if evicted:
                self.metrics.record_eviction(evicted)
                obs.emit_event(
                    "serve.table.evicted",
                    service=self.name,
                    count=evicted,
                    cached=len(self._slots),
                )
            return slot

    # ------------------------------------------------------------------
    # The degradation ladder
    # ------------------------------------------------------------------

    def _resolve_policy(self, override: Optional[str]) -> str:
        policy = self._on_error if override is None else override
        if policy not in ON_ERROR_POLICIES:
            raise ValueError(
                f"on_error must be one of {ON_ERROR_POLICIES}, got {policy!r}"
            )
        return policy

    def _emit_trace(self, trace: Optional[TraceHook], record: ProbeTrace) -> None:
        """Deliver *record* to the ``trace=`` hook without letting it fail us.

        Observer code must never fail the observed path: a hook that
        raises would otherwise propagate out of the batch and abort its
        sibling probes.  The exception is swallowed and counted in
        ``ServiceMetrics.trace_hook_errors`` (exported as
        ``repro_serve_trace_hook_errors_total``).
        """
        if trace is None:
            return
        try:
            trace(record)
        except Exception:
            self.metrics.record_trace_hook_error()

    def _fallback(
        self,
        kind: str,
        sides: Sequence[tuple[str, str]],
        total: Optional[float] = None,
    ) -> float:
        """The System R guess for *kind* over the sizes of the sides' relations.

        The one reader of the selectivity constants: ``0.1·|R|`` per
        equality or membership value, ``|R|/3`` for a range, ``0.9·|R|``
        for ``≠``, ``0.1·|L|·|R|`` for a join, and ``0.0`` when a row
        count is unknown.  *total* stands in for an unknown ``|R|`` (a
        compiled slot's own tuple count).
        """
        rows = [self._catalog.relation_rows(relation) for relation, _ in sides]
        if rows[0] is None:
            rows[0] = total
        if any(size is None for size in rows):
            return 0.0
        if kind == "join":
            return rows[0] * rows[1] * DEFAULT_EQ_SELECTIVITY
        if kind == "range":
            return rows[0] * DEFAULT_RANGE_SELECTIVITY
        if kind == "not_equal":
            return rows[0] * (1.0 - DEFAULT_EQ_SELECTIVITY)
        return rows[0] * DEFAULT_EQ_SELECTIVITY

    def _held(
        self, kind: str, sides: Sequence[tuple[str, str]]
    ) -> Optional[_Degradation]:
        """The quarantine rung: the first side recovery withholds, if any.

        Its reason refines to ``"rebuild-in-progress"`` while the pair (or
        its relation) is also marked rebuilding.
        """
        # Lock-free emptiness probe: quarantine is rare, and a stale read
        # only delays (or briefly extends) quarantine by one request — the
        # authoritative check below retakes the lock before answering.
        if not self._quarantined:  # repolint: disable=R009
            return None
        with self._lock:
            for side in sides:
                whole = (side[0], None)
                if side in self._quarantined or whole in self._quarantined:
                    rebuilding = side in self._rebuilding or whole in self._rebuilding
                    break
            else:
                return None
        relation, attribute = side
        target = relation if attribute is None else f"{relation}.{attribute}"
        return _Degradation(
            REASON_REBUILD_IN_PROGRESS if rebuilding else REASON_QUARANTINED,
            relation,
            attribute,
            self._fallback(kind, sides),
            lambda: RuntimeError(
                f"statistics for {target} are quarantined after crash "
                "recovery; re-run ANALYZE or `repro stats repair` "
                "before serving them"
            ),
        )

    def _resolve(
        self, kind: str, sides: Sequence[tuple[str, str]]
    ) -> Union[list[_CompiledSlot], _Degradation]:
        """The compiled slot of each side, or the degradation its probes get.

        The rungs every kind shares, in order: quarantine of any side;
        then, once every side has a catalog entry, the compiles (a failure
        on any side is reported against the first); otherwise an unknown
        relation (degraded, ``0.0``; a join names the relation alone) or
        no statistics for a known one (the kind's fallback, first-class).
        """
        held = self._held(kind, sides)
        if held is not None:
            return held
        relation, attribute = sides[0]
        entries = []
        for name, attr in sides:
            entry = self._catalog.get(name, attr)
            if entry is None:
                break
            entries.append(entry)
        else:
            try:
                return [self._slot_for_entry(entry) for entry in entries]
            except TableCompileError as exc:
                return _Degradation(
                    REASON_COMPILE_FAILED,
                    relation,
                    attribute,
                    self._fallback(kind, sides),
                    lambda exc=exc: exc,
                )
        for name, _ in sides:
            if self._catalog.relation_rows(name) is None:
                return _Degradation(
                    REASON_UNKNOWN_RELATION,
                    name,
                    attribute if len(sides) == 1 else None,
                    0.0,
                    lambda name=name: KeyError(
                        f"no statistics for relation {name!r}; run ANALYZE"
                    ),
                )
        return _Degradation(
            REASON_NO_STATISTICS, relation, attribute, self._fallback(kind, sides)
        )

    def _settle(
        self,
        degradation: _Degradation,
        kind: str,
        policy: str,
        trace: Optional[TraceHook],
        positions: Optional[Sequence[int]],
        count: int,
    ) -> float:
        """Resolve *count* probes of one group through *degradation*.

        The one place the ``on_error`` policy applies.  Metrics are
        batch-level — one counter add per (group, reason), never one per
        probe; the per-probe loop exists only when a ``trace=`` hook wants
        individual positions.  Returns the one value every such probe
        resolves to (callers scatter it).
        """
        if degradation.degraded:
            if policy == "raise":
                raise degradation.error()
            value = math.nan if policy == "nan" else degradation.fallback
            self.metrics.record_degraded(degradation.reason, count)
            if degradation.reason in (REASON_QUARANTINED, REASON_REBUILD_IN_PROGRESS):
                self.metrics.record_quarantined(count)
        else:
            value = degradation.fallback
            self.metrics.record_fallback(count)
        if trace is not None:
            for index in range(count):
                self._emit_trace(
                    trace,
                    ProbeTrace(
                        kind=kind,
                        relation=degradation.relation,
                        attribute=degradation.attribute,
                        reason=degradation.reason,
                        value=value,
                        degraded=degradation.degraded,
                        position=_probe_position(positions, index),
                    ),
                )
        return value

    # ------------------------------------------------------------------
    # Scan and selection estimates
    # ------------------------------------------------------------------

    def scan_cardinality(self, relation: str) -> float:
        """Tuple count of *relation* according to the catalog.

        Deliberately strict: raises ``KeyError`` for a relation with no
        statistics, regardless of the ``on_error`` policy — this is the
        introspection entry point, not an estimate.  Estimate paths route
        unknown relations through the policy instead (via the catalog's
        per-relation row index, :meth:`StatsCatalog.relation_rows`).
        """
        rows = self._catalog.relation_rows(relation)
        if rows is None:
            raise KeyError(f"no statistics for relation {relation!r}; run ANALYZE")
        return rows

    def _answer_equalities(
        self,
        kind: str,
        relation: str,
        attribute: str,
        values: Sequence[Hashable],
        policy: str,
        trace: Optional[TraceHook],
        positions: Optional[Sequence[int]] = None,
        slot: Optional[_CompiledSlot] = None,
    ) -> np.ndarray:
        """Answer one (relation, attribute) group of equality-like probes.

        The value rung sits between quarantine and the lookup rungs of
        :meth:`_resolve`: unhashable members degrade alone, and a group
        with nothing else looks no table up.  A numeric ``values`` array
        (the frame fast path) skips the hashability scan outright.
        *slot* is one the caller has already resolved (``not_equal``).
        """
        count = len(values)
        arr = probe_code_array(values)
        bad: list[int] = []
        if arr is None:
            for index, value in enumerate(values):
                try:
                    hash(value)
                except TypeError:
                    bad.append(index)
        if not bad:
            resolved = [slot] if slot is not None else self._resolve(
                kind, [(relation, attribute)]
            )
            if isinstance(resolved, _Degradation):
                value = self._settle(resolved, kind, policy, trace, positions, count)
                return np.full(count, value, dtype=np.float64)
            answers = resolved[0].frequency_batch(values if arr is None else arr)
            return np.asarray(answers, dtype=np.float64)
        held = None if slot is not None else self._held(kind, [(relation, attribute)])
        if held is not None:
            value = self._settle(held, kind, policy, trace, positions, count)
            return np.full(count, value, dtype=np.float64)
        out = np.empty(count, dtype=np.float64)
        first = values[bad[0]]
        out[bad] = self._settle(
            _Degradation(
                REASON_UNHASHABLE_VALUE,
                relation,
                attribute,
                0.0,
                lambda: TypeError(
                    f"unhashable probe value of type {type(first).__name__} "
                    f"for {relation}.{attribute}"
                ),
            ),
            kind,
            policy,
            trace,
            None if positions is None else positions[bad],
            len(bad),
        )
        good = np.ones(count, dtype=bool)
        good[bad] = False
        if good.any():
            out[good] = self._answer_equalities(
                kind,
                relation,
                attribute,
                _kept(values, good),
                policy,
                trace,
                None if positions is None else positions[good],
                slot,
            )
        return out

    def estimate_equalities(
        self,
        relation: str,
        attribute: str,
        values: Sequence[Hashable],
        *,
        on_error: Optional[str] = None,
        trace: Optional[TraceHook] = None,
    ) -> np.ndarray:
        """Equality-selection cardinalities for many probe values at once.

        ``values`` may be a numeric ndarray, which is answered without
        any per-value Python iteration (the array-native fast path).
        """
        policy = self._resolve_policy(on_error)
        if not isinstance(values, np.ndarray):
            values = list(values)
        if len(values) == 0:
            return np.zeros(0, dtype=np.float64)
        result = self._answer_equalities(
            "equality", relation, attribute, values, policy, trace
        )
        self.metrics.record_probes("equality", len(values))
        return result

    def estimate_equality(
        self,
        relation: str,
        attribute: str,
        value: Hashable,
        *,
        on_error: Optional[str] = None,
        trace: Optional[TraceHook] = None,
    ) -> float:
        """Scalar equality-selection estimate (same floats as the batch)."""
        return float(
            self.estimate_equalities(
                relation, attribute, [value], on_error=on_error, trace=trace
            )[0]
        )

    def estimate_membership(
        self,
        relation: str,
        attribute: str,
        values: Iterable[Hashable],
        *,
        on_error: Optional[str] = None,
        trace: Optional[TraceHook] = None,
    ) -> float:
        """Disjunctive (``IN``) selection mass over the *distinct* values.

        Clamped to the relation's tuple count: each no-statistics value
        contributes ``0.1·|R|``, so a long ``IN`` list would otherwise
        estimate more tuples than the relation holds.
        """
        policy = self._resolve_policy(on_error)
        distinct: list[Hashable] = []
        seen: set[Hashable] = set()
        for value in values:
            try:
                if value in seen:
                    continue
                seen.add(value)
            except TypeError:
                pass  # unhashable: cannot dedup; each occurrence degrades
            distinct.append(value)
        if not distinct:
            self.metrics.record_probes("membership", 1)
            return 0.0
        mass = float(
            np.sum(
                self._answer_equalities(
                    "membership", relation, attribute, distinct, policy, trace
                ),
                dtype=np.float64,
            )
        )
        self.metrics.record_probes("membership", 1)
        if math.isnan(mass):
            return mass
        rows = self._catalog.relation_rows(relation)
        if rows is None:
            return mass
        return min(mass, rows)

    def _answer_ranges(
        self,
        relation: str,
        attribute: str,
        lows: Sequence[Optional[Hashable]],
        highs: Sequence[Optional[Hashable]],
        include_low: bool,
        include_high: bool,
        policy: str,
        trace: Optional[TraceHook],
        positions: Optional[Sequence[int]] = None,
        codes: Optional[tuple] = None,
    ) -> np.ndarray:
        """Answer one range group: the shared rungs, then the range's own.

        A slot without a value-aware histogram answers the System R guess
        (first-class); an unorderable domain degrades the whole group;
        numeric bounds over a numeric table take the pure array path;
        anything else is answered per probe, and the incomparable bounds
        degrade together.  *codes* are a frame's pre-converted bound
        columns ``(low_codes, high_codes, low_open, high_open)`` (open
        bounds at ±inf), consulted only by a numeric table, so exact
        tables keep comparing the *original* bounds.
        """
        count = len(lows)
        resolved = self._resolve("range", [(relation, attribute)])
        if isinstance(resolved, _Degradation):
            value = self._settle(resolved, "range", policy, trace, positions, count)
            return np.full(count, value, dtype=np.float64)
        slot = resolved[0]
        table = slot.histogram_table
        if table is None or not table.is_orderable:
            guess = self._fallback("range", [(relation, attribute)], slot.total_tuples)
            if table is None:
                rung = _Degradation(REASON_NO_HISTOGRAM, relation, attribute, guess)
            else:
                rung = _Degradation(
                    REASON_UNORDERABLE_DOMAIN,
                    relation,
                    attribute,
                    guess,
                    lambda: ValueError(
                        "range estimation needs an orderable domain; "
                        f"the {relation}.{attribute} histogram's values are "
                        "not mutually comparable"
                    ),
                )
            value = self._settle(rung, "range", policy, trace, positions, count)
            return np.full(count, value, dtype=np.float64)
        if table.is_numeric:
            bounds = codes if codes is not None else range_bound_arrays(lows, highs)
            if bounds is not None:
                # Pure array path: numeric bounds over a numeric table
                # cannot raise, so no per-probe isolation is needed.
                return table.range_batch(
                    bounds[0],
                    bounds[1],
                    include_low=include_low,
                    include_high=include_high,
                    low_open=bounds[2],
                    high_open=bounds[3],
                )
        else:
            try:
                return table.range_batch(
                    lows, highs, include_low=include_low, include_high=include_high
                )
            except TypeError:
                pass  # some bound is incomparable with the domain
        out = np.empty(count, dtype=np.float64)
        failed: list[int] = []
        for index, (low, high) in enumerate(zip(lows, highs)):
            try:
                out[index] = table.range_sum(
                    low, high, include_low=include_low, include_high=include_high
                )
            except (TypeError, OverflowError):
                failed.append(index)
        if failed:
            low, high = lows[failed[0]], highs[failed[0]]
            out[failed] = self._settle(
                _Degradation(
                    REASON_INCOMPARABLE_BOUND,
                    relation,
                    attribute,
                    self._fallback("range", [(relation, attribute)], slot.total_tuples),
                    lambda: TypeError(
                        f"range bounds ({low!r}, {high!r}) are not "
                        f"comparable with the {relation}.{attribute} domain"
                    ),
                ),
                "range",
                policy,
                trace,
                None if positions is None else positions[failed],
                len(failed),
            )
        return out

    def estimate_ranges(
        self,
        relation: str,
        attribute: str,
        lows: Sequence[Optional[Hashable]],
        highs: Sequence[Optional[Hashable]],
        *,
        include_low: bool = True,
        include_high: bool = True,
        on_error: Optional[str] = None,
        trace: Optional[TraceHook] = None,
    ) -> np.ndarray:
        """Range-selection cardinalities for many (low, high) probes.

        Requires a value-aware histogram; without one every probe falls
        back to the System R ``|R|/3`` guess.
        """
        policy = self._resolve_policy(on_error)
        lows = list(lows)
        highs = list(highs)
        if len(lows) != len(highs):
            raise ValueError(
                f"lows and highs must align, got {len(lows)} and {len(highs)}"
            )
        if not lows:
            return np.zeros(0, dtype=np.float64)
        result = self._answer_ranges(
            relation, attribute, lows, highs, include_low, include_high, policy, trace
        )
        self.metrics.record_probes("range", len(lows))
        return result

    def estimate_range(
        self,
        relation: str,
        attribute: str,
        low: Optional[Hashable] = None,
        high: Optional[Hashable] = None,
        *,
        include_low: bool = True,
        include_high: bool = True,
        on_error: Optional[str] = None,
        trace: Optional[TraceHook] = None,
    ) -> float:
        """Scalar range-selection estimate (same floats as the batch)."""
        return float(
            self.estimate_ranges(
                relation,
                attribute,
                [low],
                [high],
                include_low=include_low,
                include_high=include_high,
                on_error=on_error,
                trace=trace,
            )[0]
        )

    def estimate_not_equal(
        self,
        relation: str,
        attribute: str,
        value: Hashable,
        *,
        on_error: Optional[str] = None,
        trace: Optional[TraceHook] = None,
    ) -> float:
        """``attribute ≠ value`` — complement of the equality selection.

        Clamped to the relation's tuple count, and counted in the metrics
        on every path (including the no-statistics fallback).
        """
        policy = self._resolve_policy(on_error)
        resolved = self._resolve("not_equal", [(relation, attribute)])
        if isinstance(resolved, _Degradation):
            result = self._settle(resolved, "not_equal", policy, trace, None, 1)
        else:
            # The equality kernel on the slot just resolved: its value
            # rung still applies, its lookup rungs already have.
            slot = resolved[0]
            equality = float(
                self._answer_equalities(
                    "not_equal", relation, attribute, [value], policy, trace, slot=slot
                )[0]
            )
            result = equality
            if not math.isnan(equality):
                result = max(0.0, slot.total_tuples - equality)
                rows = self._catalog.relation_rows(relation)
                if rows is not None:
                    result = min(result, rows)
        self.metrics.record_probes("not_equal", 1)
        return result

    # ------------------------------------------------------------------
    # Join estimates
    # ------------------------------------------------------------------

    def estimate_join(
        self,
        left_relation: str,
        left_attribute: str,
        right_relation: str,
        right_attribute: str,
        *,
        on_error: Optional[str] = None,
        trace: Optional[TraceHook] = None,
    ) -> float:
        """Two-way equality-join cardinality between two base relations."""
        policy = self._resolve_policy(on_error)
        result = self._answer_join(
            ((left_relation, left_attribute), (right_relation, right_attribute)),
            policy,
            trace,
        )
        self.metrics.record_probes("join", 1)
        return result

    def _answer_join(
        self,
        sides: tuple[tuple[str, str], tuple[str, str]],
        policy: str,
        trace: Optional[TraceHook],
        positions: Optional[np.ndarray] = None,
    ) -> float:
        """Answer one join group (identical probes share one computation)."""
        resolved = self._resolve("join", sides)
        if isinstance(resolved, _Degradation):
            count = 1 if positions is None else len(positions)
            return self._settle(resolved, "join", policy, trace, positions, count)
        left, right = resolved
        return self._join_product(left, right, sides[1])

    def join_entries(self, left: CatalogEntry, right: CatalogEntry) -> float:
        """Join estimate from two catalog entries.

        Preference order of the available information:

        1. **Full value-aware histograms on both sides** — compiled-table
           intersection and dot product (Theorem 2.1 on the two histogram
           matrices).
        2. **Compact (end-biased) statistics** — explicit matches exactly;
           implicit remainders match under uniformity + containment.
        3. **Uniform assumption** — ``|L|·|R| / max(d_L, d_R)``.

        The product is compiled state, like the tables it comes from: the
        left slot keeps it per partner and serves it again until either
        side's version moves.
        """
        return self._join_product(
            self._slot_for_entry(left),
            self._slot_for_entry(right),
            (right.relation, right.attribute),
        )

    def _join_product(
        self, left: _CompiledSlot, right: _CompiledSlot, partner: tuple[str, str]
    ) -> float:
        """The product of two compiled slots, memoized on the left one."""
        # No lock: a stored product is served only for the partner version
        # it was computed against, so a racing store can cost a
        # recomputation, never a stale answer.
        stored = left.joins.get(partner)
        if stored is not None and stored[0] == right.version:
            self.metrics.record_join_product(reused=True)
            return stored[1]
        product = self._join_slots(left, right)
        left.joins[partner] = (right.version, product)
        self.metrics.record_join_product(reused=False)
        return product

    @classmethod
    def _join_slots(cls, left: _CompiledSlot, right: _CompiledSlot) -> float:
        """The join ladder of :meth:`join_entries` over two compiled slots."""
        if left.histogram_table is not None and right.histogram_table is not None:
            return left.histogram_table.join_with(right.histogram_table)
        if left.join_compact is None or right.join_compact is None:
            distinct = max(left.distinct_count, right.distinct_count, 1)
            return left.total_tuples * right.total_tuples / distinct
        return cls._join_compacts(left.join_compact, right.join_compact)

    @staticmethod
    def _join_compacts(left: CompiledCompact, right: CompiledCompact) -> float:
        # NaN is not a domain value: it joins nothing, explicitly or
        # through the partner's remainder (as in CompiledHistogram.join_with).
        total = 0.0
        for value, freq in left.explicit_items():
            if _is_nan_like(value):
                continue
            if right.has_explicit(value):
                total += freq * right.frequency(value)
            elif right.remainder_count > 0:
                total += freq * right.remainder_average
        for value, freq in right.explicit_items():
            if _is_nan_like(value):
                continue
            if not left.has_explicit(value) and left.remainder_count > 0:
                total += freq * left.remainder_average
        common_remainder = min(left.remainder_count, right.remainder_count)
        total += common_remainder * left.remainder_average * right.remainder_average
        return total

    # ------------------------------------------------------------------
    # Batch interface
    # ------------------------------------------------------------------

    def estimate_batch(
        self,
        probes: Union[Sequence[Probe], ProbeFrame],
        *,
        on_error: Optional[str] = None,
        trace: Optional[TraceHook] = None,
        admission: Optional[Sequence[Optional[str]]] = None,
    ) -> np.ndarray:
        """Answer a heterogeneous batch of probes in one pass.

        Probes are grouped by (relation, attribute) — and, for ranges, by
        bound inclusivity — so each group is answered by one vectorized
        sweep over its compiled table.  The result vector is aligned with
        the input order.

        Accepts either a probe sequence or a pre-built
        :class:`~repro.serve.frame.ProbeFrame`.  Passing a frame skips
        the per-probe grouping pass entirely, so a frame built once can
        be re-answered (e.g. against refreshed statistics) at pure
        array-sweep cost.  A sequence is grouped inside the call, under a
        ``serve.frame.build`` child of the ``serve.batch`` span, so the
        span (the batch's one timing) and ``batches_failed`` (an invalid
        probe raises ``TypeError``) cover the whole call.

        Fault-isolated: an unanswerable probe walks the degradation
        ladder of the module docstring and never aborts the batch under
        the default ``"fallback"`` (or ``"nan"``) policy.  Metric and
        trace bookkeeping is batch-level — one counter update per
        (kind, group) and per (group, reason), never per probe.

        ``admission=`` plugs quota/backpressure control into the same
        ladder as its first rung.  It takes the verdicts themselves: a
        sequence aligned with the batch (a list, or an object array)
        holding ``None`` for an admitted position and a rejection reason
        string (e.g. :data:`REASON_QUOTA_EXCEEDED`) for a refused one;
        ``None`` admits everything.  Each group resolves its refused
        members through the ``on_error`` policy, once per reason, and
        counts them in ``ServiceMetrics.rejected_probes`` — the network
        server's per-tenant quotas arrive this way.  A misaligned
        sequence raises ``ValueError``, a callable ``TypeError``.
        """
        policy = self._resolve_policy(on_error)
        try:
            if not isinstance(probes, (ProbeFrame, list)):
                probes = list(probes)
            with span("serve.batch", service=self.name, probes=len(probes)):
                frame = probes
                if not isinstance(frame, ProbeFrame):
                    with span("serve.frame.build"):
                        frame = ProbeFrame.from_probes(probes)
                out = self._answer_frame(frame, policy, trace, admission)
        except Exception:
            self.metrics.record_batch(failed=True)
            raise
        self.metrics.record_batch()
        return out

    def _verdicts(
        self, frame: ProbeFrame, admission: Optional[Sequence[Optional[str]]]
    ) -> Optional[np.ndarray]:
        """The verdicts as one object column; ``None`` admits all."""
        if admission is None:
            return None
        if callable(admission):
            raise TypeError(
                "admission= takes the verdicts aligned with the batch, "
                "not a callable"
            )
        if len(admission) != len(frame):
            raise ValueError(
                f"admission holds {len(admission)} verdicts for "
                f"{len(frame)} probes; they must align"
            )
        column = np.empty(len(frame), dtype=object)
        column[:] = admission
        return column if np.not_equal(column, None).any() else None

    def _admit(
        self,
        verdicts: np.ndarray,
        kind: str,
        sides: Sequence[tuple[str, str]],
        positions: np.ndarray,
        policy: str,
        trace: Optional[TraceHook],
    ) -> Optional[tuple[np.ndarray, np.ndarray]]:
        """The admission rung of one group.

        Refused members resolve through the policy once per reason, with
        the kind's fallback.  Returns the admitted-member mask and the
        group's answers so far (the refused members'), or ``None`` when
        every member was admitted.
        """
        group = verdicts[positions]
        refused = np.not_equal(group, None)
        if not refused.any():
            return None
        relation, attribute = sides[0]
        fallback = self._fallback(kind, sides)
        settled = np.zeros(positions.size, dtype=np.float64)
        for verdict in dict.fromkeys(group[refused].tolist()):
            reason = str(verdict)
            members = group == verdict
            count = int(np.count_nonzero(members))
            self.metrics.record_rejected(reason, count)
            settled[members] = self._settle(
                _Degradation(
                    reason,
                    relation,
                    attribute,
                    fallback,
                    lambda reason=reason: PermissionError(
                        f"probe rejected by admission control: {reason}"
                    ),
                ),
                kind,
                policy,
                trace,
                positions[members],
                count,
            )
        return ~refused, settled

    def _answer_frame(
        self,
        frame: ProbeFrame,
        policy: str,
        trace: Optional[TraceHook],
        admission: Optional[Sequence[Optional[str]]] = None,
    ) -> np.ndarray:
        """Answer a pre-grouped frame: one vectorized sweep per group.

        The hot path never touches individual probes — groups carry
        contiguous position/value arrays built by :class:`ProbeFrame`,
        each is answered by one batch table call, and the answers are
        scattered back by position.  Each group settles its refused
        members first and answers the rest.
        """
        out = np.zeros(len(frame), dtype=np.float64)
        verdicts = self._verdicts(frame, admission)
        for group in frame.equality_groups:
            positions, values = group.positions, group.values
            if verdicts is not None:
                sides = [(group.relation, group.attribute)]
                admitted = self._admit(verdicts, "equality", sides, positions, policy, trace)
                if admitted is not None:
                    keep, settled = admitted
                    out[positions] = settled
                    positions, values = positions[keep], _kept(values, keep)
            if positions.size:
                out[positions] = self._answer_equalities(
                    "equality",
                    group.relation,
                    group.attribute,
                    values,
                    policy,
                    trace,
                    positions,
                )
            self.metrics.record_probes("equality", group.positions.size)
        for group in frame.range_groups:
            positions, lows, highs = group.positions, group.lows, group.highs
            codes = None
            if group.low_codes is not None:
                codes = (group.low_codes, group.high_codes, group.low_open, group.high_open)
            if verdicts is not None:
                sides = [(group.relation, group.attribute)]
                admitted = self._admit(verdicts, "range", sides, positions, policy, trace)
                if admitted is not None:
                    keep, settled = admitted
                    out[positions] = settled
                    positions = positions[keep]
                    lows, highs = _kept(lows, keep), _kept(highs, keep)
                    if codes is not None:
                        codes = tuple(None if c is None else c[keep] for c in codes)
            if positions.size:
                out[positions] = self._answer_ranges(
                    group.relation,
                    group.attribute,
                    lows,
                    highs,
                    group.include_low,
                    group.include_high,
                    policy,
                    trace,
                    positions,
                    codes,
                )
            self.metrics.record_probes("range", group.positions.size)
        for group in frame.join_groups:
            positions = group.positions
            sides = (
                (group.left_relation, group.left_attribute),
                (group.right_relation, group.right_attribute),
            )
            if verdicts is not None:
                admitted = self._admit(verdicts, "join", sides, positions, policy, trace)
                if admitted is not None:
                    keep, settled = admitted
                    out[positions] = settled
                    positions = positions[keep]
            if positions.size:
                out[positions] = self._answer_join(sides, policy, trace, positions)
            self.metrics.record_probes("join", group.positions.size)
        return out

    def stats(self) -> ServiceMetrics:
        """A point-in-time snapshot of the service counters."""
        return self.metrics.snapshot()
