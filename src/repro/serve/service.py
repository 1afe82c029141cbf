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

Fault isolation (the ``on_error`` policy)
-----------------------------------------

A probe that *cannot* be answered — its relation has no statistics at all,
its range domain is not orderable, its equality value is unhashable or its
range bound incomparable with the domain — never aborts the rest of a
batch.  Each such probe resolves individually through the service-wide
(or per-call) ``on_error`` policy:

``"fallback"`` (default)
    The probe resolves to a documented bounded fallback: ``0.0`` for an
    unknown relation or an unhashable equality value (nothing stored can
    match), and the System R ``|R|·1/3`` guess for an unanswerable range
    over a known relation.  The resolution is counted in
    ``ServiceMetrics.degraded_probes`` (keyed by reason).

``"nan"``
    The probe resolves to ``float("nan")`` so downstream consumers can
    detect exactly which answers are missing; counted as degraded.

``"raise"``
    The pre-hardening behaviour: the underlying ``KeyError`` /
    ``ValueError`` / ``TypeError`` propagates and the batch aborts.

Probes over a *known* relation that merely lack the right statistics form
(no histogram for a range, an un-ANALYZEd attribute) keep their classical
System R magic-constant fallbacks; those are first-class answers, counted
separately in ``ServiceMetrics.fallback_probes``.

Statistics **quarantined** by crash recovery (fed in through
:meth:`EstimationService.apply_recovery` from a
:class:`~repro.engine.persist.RecoveryReport`) are never served: probes
touching them resolve through the same ``on_error`` policy with reason
``"quarantined-statistics"``.  An entry whose lookup-table *compile*
raises is likewise isolated (reason ``"table-compile-failed"``) instead of
aborting the batch; both are visible in the metrics.

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
from time import perf_counter
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

#: Signature of the ``admission=`` hook accepted by
#: :meth:`EstimationService.estimate_batch`.  Called once per batch with
#: the probe sequence; returns ``None`` to admit everything, or a
#: sequence aligned with the probes where each non-``None`` entry is a
#: rejection reason string (e.g. :data:`REASON_QUOTA_EXCEEDED`).
#: Rejected probes resolve through the ``on_error`` policy exactly like
#: unanswerable probes — per-probe degradation, never a dropped batch.
AdmissionHook = Callable[[Sequence["Probe"]], Optional[Sequence[Optional[str]]]]


def _probe_position(positions: Optional[Sequence[int]], index: int) -> Optional[int]:
    if positions is None:
        return None
    # Positions may live in an intp index array; traces (and their JSON
    # wire form) carry plain Python ints.
    return int(positions[index])


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
        recovery: Optional[RecoveryReport] = None,
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
        if recovery is not None:
            self.apply_recovery(recovery)

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

    def _quarantine_reason(self, relation: str, attribute: Optional[str]) -> str:
        """The degradation reason for a quarantined pair right now."""
        with self._lock:
            if (
                (relation, attribute) in self._rebuilding
                or (relation, None) in self._rebuilding
            ):
                return REASON_REBUILD_IN_PROGRESS
        return REASON_QUARANTINED

    def _is_quarantined(self, relation: str, attribute: Optional[str]) -> bool:
        # Lock-free emptiness probe: quarantine is rare, and a stale read
        # only delays (or briefly extends) quarantine by one request — the
        # authoritative check below retakes the lock before answering.
        if not self._quarantined:  # repolint: disable=R009
            return False
        with self._lock:
            return (
                (relation, attribute) in self._quarantined
                or (relation, None) in self._quarantined
            )

    @staticmethod
    def _quarantined_error(
        relation: str, attribute: Optional[str]
    ) -> Callable[[], Exception]:
        target = relation if attribute is None else f"{relation}.{attribute}"
        return lambda: RuntimeError(
            f"statistics for {target} are quarantined after crash recovery; "
            "re-run ANALYZE or `repro stats repair` before serving them"
        )

    def _slot_for_entry(self, entry: CatalogEntry) -> _CompiledSlot:
        key = (entry.relation, entry.attribute)
        with self._lock:
            slot = self._slots.get(key)
            if slot is not None and slot.version == entry.version:
                self.metrics.record_table_hit()
                self._slots.move_to_end(key)
                return slot
            self.metrics.record_table_miss()
            started = perf_counter()
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
            self.metrics.record_compile(perf_counter() - started)
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

    def _slot(self, relation: str, attribute: str) -> Optional[_CompiledSlot]:
        entry = self._catalog.get(relation, attribute)
        if entry is None:
            return None
        return self._slot_for_entry(entry)

    # ------------------------------------------------------------------
    # Error-policy plumbing
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

    def _degrade_group(
        self,
        policy: str,
        *,
        kind: str,
        relation: str,
        attribute: Optional[str],
        reason: str,
        fallback: float,
        error: Callable[[], Exception],
        trace: Optional[TraceHook],
        positions: Optional[Sequence[int]],
        count: int,
    ) -> float:
        """Resolve a whole group of unanswerable probes through the policy.

        Metrics are batch-level — one counter add for the *count* probes,
        never one per probe; the per-probe loop exists only when a
        ``trace=`` hook wants individual positions.  Returns the one value
        every probe in the group resolves to (callers scatter it with a
        mask/fancy-index assignment).
        """
        if policy == "raise":
            raise error()
        value = math.nan if policy == "nan" else fallback
        self.metrics.record_degraded(reason, count)
        if reason in (REASON_QUARANTINED, REASON_REBUILD_IN_PROGRESS):
            self.metrics.record_quarantined(count)
        if trace is not None:
            for index in range(count):
                self._emit_trace(
                    trace,
                    ProbeTrace(
                        kind=kind,
                        relation=relation,
                        attribute=attribute,
                        reason=reason,
                        value=value,
                        degraded=True,
                        position=_probe_position(positions, index),
                    ),
                )
        return value

    def _degrade(
        self,
        policy: str,
        *,
        kind: str,
        relation: str,
        attribute: Optional[str],
        reason: str,
        fallback: float,
        error: Callable[[], Exception],
        trace: Optional[TraceHook],
        position: Optional[int],
    ) -> float:
        """Resolve one unanswerable probe through the error policy."""
        return self._degrade_group(
            policy,
            kind=kind,
            relation=relation,
            attribute=attribute,
            reason=reason,
            fallback=fallback,
            error=error,
            trace=trace,
            positions=None if position is None else [position],
            count=1,
        )

    def _note_fallbacks(
        self,
        *,
        kind: str,
        relation: str,
        attribute: Optional[str],
        reason: str,
        value: float,
        trace: Optional[TraceHook],
        positions: Optional[Sequence[int]],
        count: int,
    ) -> None:
        """Count (and optionally trace) no-statistics fallback answers."""
        self.metrics.record_fallback(count)
        if trace is None:
            return
        for index in range(count):
            self._emit_trace(
                trace,
                ProbeTrace(
                    kind=kind,
                    relation=relation,
                    attribute=attribute,
                    reason=reason,
                    value=value,
                    degraded=False,
                    position=_probe_position(positions, index),
                ),
            )

    @staticmethod
    def _unknown_relation_error(relation: str) -> Callable[[], Exception]:
        return lambda: KeyError(
            f"no statistics for relation {relation!r}; run ANALYZE"
        )

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
        relation: str,
        attribute: str,
        values: Sequence[Hashable],
        *,
        policy: str,
        trace: Optional[TraceHook],
        positions: Optional[Sequence[int]] = None,
        kind: str = "equality",
    ) -> np.ndarray:
        """Answer one (relation, attribute) equality group, fault-isolated.

        ``values`` may be a plain sequence or a pre-converted numeric
        ndarray (the frame fast path); a numeric array skips the
        per-value hashability scan outright — nothing in it can be
        unhashable.  Degradations resolve mask-based: one
        :meth:`_degrade_group` per (reason, group), scattered with a
        single fancy-index assignment.
        """
        count = len(values)
        if self._is_quarantined(relation, attribute):
            rows = self._catalog.relation_rows(relation)
            fallback = 0.0 if rows is None else rows * DEFAULT_EQ_SELECTIVITY
            value = self._degrade_group(
                policy,
                kind=kind,
                relation=relation,
                attribute=attribute,
                reason=self._quarantine_reason(relation, attribute),
                fallback=fallback,
                error=self._quarantined_error(relation, attribute),
                trace=trace,
                positions=positions,
                count=count,
            )
            return np.full(count, value, dtype=np.float64)
        arr = probe_code_array(values)
        if arr is not None:
            good_index: Optional[list[int]] = None
            bad_index: list[int] = []
            good_values: Union[np.ndarray, list[Hashable]] = arr
        else:
            good_index = []
            bad_index = []
            good_list: list[Hashable] = []
            for index, value in enumerate(values):
                try:
                    hash(value)
                except TypeError:
                    bad_index.append(index)
                else:
                    good_index.append(index)
                    good_list.append(value)
            good_values = good_list
        out: Optional[np.ndarray] = None
        if bad_index:
            out = np.empty(count, dtype=np.float64)
            first_bad = values[bad_index[0]]
            bad_value = self._degrade_group(
                policy,
                kind=kind,
                relation=relation,
                attribute=attribute,
                reason=REASON_UNHASHABLE_VALUE,
                fallback=0.0,
                error=lambda value=first_bad: TypeError(
                    f"unhashable probe value of type {type(value).__name__} "
                    f"for {relation}.{attribute}"
                ),
                trace=trace,
                positions=(
                    None
                    if positions is None
                    else [positions[index] for index in bad_index]
                ),
                count=len(bad_index),
            )
            out[np.asarray(bad_index, dtype=np.intp)] = bad_value
            if not good_values:
                return out
        good_count = len(good_values)
        good_positions = positions
        if positions is not None and good_index is not None and bad_index:
            good_positions = [positions[index] for index in good_index]
        try:
            slot = self._slot(relation, attribute)
        except TableCompileError as exc:
            rows = self._catalog.relation_rows(relation)
            fallback = 0.0 if rows is None else rows * DEFAULT_EQ_SELECTIVITY
            value = self._degrade_group(
                policy,
                kind=kind,
                relation=relation,
                attribute=attribute,
                reason=REASON_COMPILE_FAILED,
                fallback=fallback,
                error=lambda exc=exc: exc,
                trace=trace,
                positions=good_positions,
                count=good_count,
            )
            answers: np.ndarray = np.full(good_count, value, dtype=np.float64)
        else:
            if slot is not None:
                answers = slot.frequency_batch(good_values)
            else:
                rows = self._catalog.relation_rows(relation)
                if rows is None:
                    value = self._degrade_group(
                        policy,
                        kind=kind,
                        relation=relation,
                        attribute=attribute,
                        reason=REASON_UNKNOWN_RELATION,
                        fallback=0.0,
                        error=self._unknown_relation_error(relation),
                        trace=trace,
                        positions=good_positions,
                        count=good_count,
                    )
                    answers = np.full(good_count, value, dtype=np.float64)
                else:
                    fallback = rows * DEFAULT_EQ_SELECTIVITY
                    answers = np.full(good_count, fallback, dtype=np.float64)
                    self._note_fallbacks(
                        kind=kind,
                        relation=relation,
                        attribute=attribute,
                        reason=REASON_NO_STATISTICS,
                        value=fallback,
                        trace=trace,
                        positions=good_positions,
                        count=good_count,
                    )
        if not bad_index:
            return np.asarray(answers, dtype=np.float64)
        out[np.asarray(good_index, dtype=np.intp)] = answers
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
            relation, attribute, values, policy=policy, trace=trace
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
                    relation,
                    attribute,
                    distinct,
                    policy=policy,
                    trace=trace,
                    kind="membership",
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
        *,
        policy: str,
        trace: Optional[TraceHook],
        positions: Optional[Sequence[int]] = None,
        low_codes: Optional[np.ndarray] = None,
        high_codes: Optional[np.ndarray] = None,
        low_open: Optional[np.ndarray] = None,
        high_open: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Answer one range group, isolating unanswerable probes.

        ``low_codes``/``high_codes`` are optional pre-converted float64
        bound columns (open bounds at ±inf) from a
        :class:`~repro.serve.frame.ProbeFrame`, with
        ``low_open``/``high_open`` their open-bound masks; they are
        consulted only when the compiled table itself is numeric, so
        demoted/exact tables keep comparing the *original* bounds
        exactly.  Degradations are mask-based: one :meth:`_degrade_group`
        call per (reason, group).
        """
        count = len(lows)
        rows = self._catalog.relation_rows(relation)
        if self._is_quarantined(relation, attribute):
            fallback = 0.0 if rows is None else rows * DEFAULT_RANGE_SELECTIVITY
            value = self._degrade_group(
                policy,
                kind="range",
                relation=relation,
                attribute=attribute,
                reason=self._quarantine_reason(relation, attribute),
                fallback=fallback,
                error=self._quarantined_error(relation, attribute),
                trace=trace,
                positions=positions,
                count=count,
            )
            return np.full(count, value, dtype=np.float64)
        try:
            slot = self._slot(relation, attribute)
        except TableCompileError as exc:
            fallback = 0.0 if rows is None else rows * DEFAULT_RANGE_SELECTIVITY
            value = self._degrade_group(
                policy,
                kind="range",
                relation=relation,
                attribute=attribute,
                reason=REASON_COMPILE_FAILED,
                fallback=fallback,
                error=lambda exc=exc: exc,
                trace=trace,
                positions=positions,
                count=count,
            )
            return np.full(count, value, dtype=np.float64)
        if slot is None:
            if rows is None:
                value = self._degrade_group(
                    policy,
                    kind="range",
                    relation=relation,
                    attribute=attribute,
                    reason=REASON_UNKNOWN_RELATION,
                    fallback=0.0,
                    error=self._unknown_relation_error(relation),
                    trace=trace,
                    positions=positions,
                    count=count,
                )
                return np.full(count, value, dtype=np.float64)
            fallback = rows * DEFAULT_RANGE_SELECTIVITY
            self._note_fallbacks(
                kind="range",
                relation=relation,
                attribute=attribute,
                reason=REASON_NO_STATISTICS,
                value=fallback,
                trace=trace,
                positions=positions,
                count=count,
            )
            return np.full(count, fallback, dtype=np.float64)
        table = slot.histogram_table
        guess = (
            rows if rows is not None else slot.total_tuples
        ) * DEFAULT_RANGE_SELECTIVITY
        if table is None:
            self._note_fallbacks(
                kind="range",
                relation=relation,
                attribute=attribute,
                reason=REASON_NO_HISTOGRAM,
                value=guess,
                trace=trace,
                positions=positions,
                count=count,
            )
            return np.full(count, guess, dtype=np.float64)
        if not table.is_orderable:
            value = self._degrade_group(
                policy,
                kind="range",
                relation=relation,
                attribute=attribute,
                reason=REASON_UNORDERABLE_DOMAIN,
                fallback=guess,
                error=lambda: ValueError(
                    "range estimation needs an orderable domain; "
                    f"the {relation}.{attribute} histogram's values are "
                    "not mutually comparable"
                ),
                trace=trace,
                positions=positions,
                count=count,
            )
            return np.full(count, value, dtype=np.float64)
        if table.is_numeric:
            bounds = (
                (low_codes, high_codes, low_open, high_open)
                if low_codes is not None and high_codes is not None
                else range_bound_arrays(lows, highs)
            )
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
        # Mixed-quality bounds: isolate per probe, then resolve every
        # incomparable bound through the policy in one group call.
        out = np.empty(count, dtype=np.float64)
        failed_index: list[int] = []
        first_error: Optional[tuple] = None
        for index, (low, high) in enumerate(zip(lows, highs)):
            try:
                out[index] = table.range_sum(
                    low, high, include_low=include_low, include_high=include_high
                )
            except (TypeError, OverflowError):
                failed_index.append(index)
                if first_error is None:
                    first_error = (low, high)
        if failed_index:
            value = self._degrade_group(
                policy,
                kind="range",
                relation=relation,
                attribute=attribute,
                reason=REASON_INCOMPARABLE_BOUND,
                fallback=guess,
                error=lambda pair=first_error: TypeError(
                    f"range bounds ({pair[0]!r}, {pair[1]!r}) are not "
                    f"comparable with the {relation}.{attribute} domain"
                ),
                trace=trace,
                positions=(
                    None
                    if positions is None
                    else [positions[index] for index in failed_index]
                ),
                count=len(failed_index),
            )
            out[np.asarray(failed_index, dtype=np.intp)] = value
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
            relation,
            attribute,
            lows,
            highs,
            include_low,
            include_high,
            policy=policy,
            trace=trace,
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
        result = self._answer_not_equal(
            relation, attribute, value, policy=policy, trace=trace
        )
        self.metrics.record_probes("not_equal", 1)
        return result

    def _answer_not_equal(
        self,
        relation: str,
        attribute: str,
        value: Hashable,
        *,
        policy: str,
        trace: Optional[TraceHook],
    ) -> float:
        rows = self._catalog.relation_rows(relation)
        if self._is_quarantined(relation, attribute):
            return self._degrade(
                policy,
                kind="not_equal",
                relation=relation,
                attribute=attribute,
                reason=self._quarantine_reason(relation, attribute),
                fallback=(
                    0.0 if rows is None else rows * (1.0 - DEFAULT_EQ_SELECTIVITY)
                ),
                error=self._quarantined_error(relation, attribute),
                trace=trace,
                position=None,
            )
        try:
            slot = self._slot(relation, attribute)
        except TableCompileError as exc:
            return self._degrade(
                policy,
                kind="not_equal",
                relation=relation,
                attribute=attribute,
                reason=REASON_COMPILE_FAILED,
                fallback=(
                    0.0 if rows is None else rows * (1.0 - DEFAULT_EQ_SELECTIVITY)
                ),
                error=lambda exc=exc: exc,
                trace=trace,
                position=None,
            )
        if slot is None:
            if rows is None:
                return self._degrade(
                    policy,
                    kind="not_equal",
                    relation=relation,
                    attribute=attribute,
                    reason=REASON_UNKNOWN_RELATION,
                    fallback=0.0,
                    error=self._unknown_relation_error(relation),
                    trace=trace,
                    position=None,
                )
            fallback = rows * (1.0 - DEFAULT_EQ_SELECTIVITY)
            self._note_fallbacks(
                kind="not_equal",
                relation=relation,
                attribute=attribute,
                reason=REASON_NO_STATISTICS,
                value=fallback,
                trace=trace,
                positions=None,
                count=1,
            )
            return fallback
        equality = float(
            self._answer_equalities(
                relation,
                attribute,
                [value],
                policy=policy,
                trace=trace,
                kind="not_equal",
            )[0]
        )
        if math.isnan(equality):
            return equality
        result = max(0.0, slot.total_tuples - equality)
        if rows is not None:
            result = min(result, rows)
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
            left_relation,
            left_attribute,
            right_relation,
            right_attribute,
            policy=policy,
            trace=trace,
            positions=None,
        )
        self.metrics.record_probes("join", 1)
        return result

    def _answer_join(
        self,
        left_relation: str,
        left_attribute: str,
        right_relation: str,
        right_attribute: str,
        *,
        policy: str,
        trace: Optional[TraceHook],
        positions: Optional[Sequence[int]],
        count: int = 1,
    ) -> float:
        """Answer one join group (identical probes share one computation)."""
        quarantined_side: Optional[tuple[str, str]] = None
        if self._is_quarantined(left_relation, left_attribute):
            quarantined_side = (left_relation, left_attribute)
        elif self._is_quarantined(right_relation, right_attribute):
            quarantined_side = (right_relation, right_attribute)
        if quarantined_side is not None:
            rows_left = self._catalog.relation_rows(left_relation)
            rows_right = self._catalog.relation_rows(right_relation)
            fallback = (
                rows_left * rows_right * DEFAULT_EQ_SELECTIVITY
                if rows_left is not None and rows_right is not None
                else 0.0
            )
            return self._degrade_group(
                policy,
                kind="join",
                relation=quarantined_side[0],
                attribute=quarantined_side[1],
                reason=self._quarantine_reason(*quarantined_side),
                fallback=fallback,
                error=self._quarantined_error(*quarantined_side),
                trace=trace,
                positions=positions,
                count=count,
            )
        left = self._catalog.get(left_relation, left_attribute)
        right = self._catalog.get(right_relation, right_attribute)
        if left is not None and right is not None:
            try:
                return self.join_entries(left, right)
            except TableCompileError as exc:
                rows_left = self._catalog.relation_rows(left_relation)
                rows_right = self._catalog.relation_rows(right_relation)
                fallback = (
                    rows_left * rows_right * DEFAULT_EQ_SELECTIVITY
                    if rows_left is not None and rows_right is not None
                    else 0.0
                )
                return self._degrade_group(
                    policy,
                    kind="join",
                    relation=left_relation,
                    attribute=left_attribute,
                    reason=REASON_COMPILE_FAILED,
                    fallback=fallback,
                    error=lambda exc=exc: exc,
                    trace=trace,
                    positions=positions,
                    count=count,
                )
        rows_left = self._catalog.relation_rows(left_relation)
        rows_right = self._catalog.relation_rows(right_relation)
        if rows_left is None or rows_right is None:
            missing = left_relation if rows_left is None else right_relation
            return self._degrade_group(
                policy,
                kind="join",
                relation=missing,
                attribute=None,
                reason=REASON_UNKNOWN_RELATION,
                fallback=0.0,
                error=self._unknown_relation_error(missing),
                trace=trace,
                positions=positions,
                count=count,
            )
        fallback = rows_left * rows_right * DEFAULT_EQ_SELECTIVITY
        self._note_fallbacks(
            kind="join",
            relation=left_relation,
            attribute=left_attribute,
            reason=REASON_NO_STATISTICS,
            value=fallback,
            trace=trace,
            positions=positions,
            count=count,
        )
        return fallback

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
        left_slot = self._slot_for_entry(left)
        right_slot = self._slot_for_entry(right)
        partner = (right.relation, right.attribute)
        # No lock: a stored product is served only for the partner version
        # it was computed against, so a racing store can cost a
        # recomputation, never a stale answer.
        stored = left_slot.joins.get(partner)
        if stored is not None and stored[0] == right_slot.version:
            self.metrics.record_join_product(reused=True)
            return stored[1]
        product = self._join_slots(left_slot, right_slot)
        left_slot.joins[partner] = (right_slot.version, product)
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
        admission: Optional[AdmissionHook] = None,
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
        array-sweep cost.

        Fault-isolated: an unanswerable probe (unknown relation,
        unorderable range domain, unhashable value) resolves individually
        through the ``on_error`` policy and never aborts the batch under
        the default ``"fallback"`` (or ``"nan"``) policy.  Batch latency
        is recorded into ``ServiceMetrics.latency_counts``; metric and
        trace bookkeeping is batch-level — one counter update per
        (kind, group), never per probe.

        ``admission=`` plugs quota/backpressure control into the same
        degradation machinery: the hook sees the whole batch up front and
        names a rejection reason per refused probe (see
        :data:`AdmissionHook`); refused probes resolve through the
        ``on_error`` policy with that reason and are counted in
        ``ServiceMetrics.rejected_probes`` — the network server's
        per-tenant quotas ride this hook.
        """
        policy = self._resolve_policy(on_error)
        frame = probes if isinstance(probes, ProbeFrame) else ProbeFrame.from_probes(probes)
        started = perf_counter()
        with span("serve.batch", service=self.name, probes=len(frame)):
            try:
                out = self._answer_frame(frame, policy, trace, admission)
            except Exception:
                self.metrics.record_batch(failed=True)
                raise
        self.metrics.record_batch()
        self.metrics.record_latency(perf_counter() - started)
        return out

    def _probe_kind(self, probe: Probe) -> str:
        if isinstance(probe, EqualityProbe):
            return "equality"
        if isinstance(probe, RangeProbe):
            return "range"
        return "join"

    def _rejected_fallback(self, probe: Probe) -> float:
        """The bounded fallback served for an admission-rejected probe.

        Mirrors the unanswerable-probe fallbacks: the System R magic
        constants over known relation sizes, ``0.0`` when even the sizes
        are unknown.
        """
        if isinstance(probe, JoinProbe):
            rows_left = self._catalog.relation_rows(probe.left_relation)
            rows_right = self._catalog.relation_rows(probe.right_relation)
            if rows_left is None or rows_right is None:
                return 0.0
            return rows_left * rows_right * DEFAULT_EQ_SELECTIVITY
        rows = self._catalog.relation_rows(probe.relation)
        if rows is None:
            return 0.0
        if isinstance(probe, RangeProbe):
            return rows * DEFAULT_RANGE_SELECTIVITY
        return rows * DEFAULT_EQ_SELECTIVITY

    def _reject_probe(
        self,
        probe: Probe,
        reason: str,
        *,
        policy: str,
        trace: Optional[TraceHook],
        position: int,
    ) -> float:
        """Resolve one admission-rejected probe through the error policy."""
        kind = self._probe_kind(probe)
        if isinstance(probe, JoinProbe):
            relation = probe.left_relation
            attribute: Optional[str] = probe.left_attribute
        else:
            relation = probe.relation
            attribute = probe.attribute
        self.metrics.record_rejected(reason)
        value = self._degrade(
            policy,
            kind=kind,
            relation=relation,
            attribute=attribute,
            reason=reason,
            fallback=self._rejected_fallback(probe),
            error=lambda reason=reason: PermissionError(
                f"probe rejected by admission control: {reason}"
            ),
            trace=trace,
            position=position,
        )
        self.metrics.record_probes(kind, 1)
        return value

    def _apply_admission(
        self,
        probes: Sequence[Probe],
        admission: Optional[AdmissionHook],
    ) -> Optional[Sequence[Optional[str]]]:
        if admission is None:
            return None
        verdicts = admission(probes)
        if verdicts is None:
            return None
        if len(verdicts) != len(probes):
            raise ValueError(
                f"admission hook returned {len(verdicts)} verdicts for "
                f"{len(probes)} probes; they must align"
            )
        return verdicts

    def _answer_frame(
        self,
        frame: ProbeFrame,
        policy: str,
        trace: Optional[TraceHook],
        admission: Optional[AdmissionHook] = None,
    ) -> np.ndarray:
        """Answer a pre-grouped frame: one vectorized sweep per group.

        The hot path never touches individual probes — groups carry
        contiguous position/value arrays built by
        :meth:`ProbeFrame.from_probes`, each is answered by one batch
        table call, and the answers are scattered back by position.
        Admission rejections (cold path) are handled up front through a
        boolean mask; surviving group members are sliced out with it.
        """
        out = np.zeros(len(frame), dtype=np.float64)
        verdicts = self._apply_admission(frame.probes, admission)
        rejected: Optional[np.ndarray] = None
        if verdicts is not None:
            mask = np.zeros(len(frame), dtype=bool)
            for position, verdict in enumerate(verdicts):
                if verdict is not None:
                    mask[position] = True
                    out[position] = self._reject_probe(
                        frame.probes[position],
                        str(verdict),
                        policy=policy,
                        trace=trace,
                        position=position,
                    )
            if mask.any():
                rejected = mask
        for group in frame.equality_groups:
            positions = group.positions
            values = group.values
            if rejected is not None:
                keep = ~rejected[positions]
                if not keep.all():
                    if not keep.any():
                        continue
                    positions = positions[keep]
                    if isinstance(values, np.ndarray):
                        values = values[keep]
                    else:
                        values = [values[i] for i in np.nonzero(keep)[0]]
            out[positions] = self._answer_equalities(
                group.relation,
                group.attribute,
                values,
                policy=policy,
                trace=trace,
                positions=positions,
            )
            self.metrics.record_probes("equality", len(positions))
        for group in frame.range_groups:
            positions = group.positions
            lows = group.lows
            highs = group.highs
            low_codes = group.low_codes
            high_codes = group.high_codes
            low_open = group.low_open
            high_open = group.high_open
            if rejected is not None:
                keep = ~rejected[positions]
                if not keep.all():
                    if not keep.any():
                        continue
                    keep_index = np.nonzero(keep)[0]
                    positions = positions[keep]
                    lows = [lows[i] for i in keep_index]
                    highs = [highs[i] for i in keep_index]
                    low_codes = None if low_codes is None else low_codes[keep]
                    high_codes = None if high_codes is None else high_codes[keep]
                    low_open = None if low_open is None else low_open[keep]
                    high_open = None if high_open is None else high_open[keep]
            out[positions] = self._answer_ranges(
                group.relation,
                group.attribute,
                lows,
                highs,
                group.include_low,
                group.include_high,
                policy=policy,
                trace=trace,
                positions=positions,
                low_codes=low_codes,
                high_codes=high_codes,
                low_open=low_open,
                high_open=high_open,
            )
            self.metrics.record_probes("range", len(positions))
        for group in frame.join_groups:
            positions = group.positions
            if rejected is not None:
                keep = ~rejected[positions]
                if not keep.all():
                    if not keep.any():
                        continue
                    positions = positions[keep]
            out[positions] = self._answer_join(
                group.left_relation,
                group.left_attribute,
                group.right_relation,
                group.right_attribute,
                policy=policy,
                trace=trace,
                positions=positions,
                count=len(positions),
            )
            self.metrics.record_probes("join", len(positions))
        return out

    def stats(self) -> ServiceMetrics:
        """A point-in-time snapshot of the service counters."""
        return self.metrics.snapshot()
