"""Thread-safe, degradation-aware counters for the estimation service.

A serving layer is only trustworthy when it can report what it did: how
often compiled tables were reused versus rebuilt, how many probes of each
shape were answered — and, crucially, how many of those answers were
**degraded**: served from a documented fallback because the statistics
needed to answer them properly did not exist, or resolved through the
service's ``on_error`` policy because the probe could not be answered at
all (unknown relation, unorderable domain, unhashable value).

All counters are guarded by one lock so concurrent service threads never
lose updates; reads of individual fields are plain attribute access (ints
are replaced atomically under the lock), and :meth:`ServiceMetrics.snapshot`
takes a consistent point-in-time copy.  Recording is **batch-level**: the
service calls each ``record_*`` method once per (kind, group) with a
``count``, never once per probe, so the lock is taken O(groups) times per
batch while the counter values stay probe-granular.  Surfaced by
``repro serve-stats`` and :mod:`benchmarks.bench_serve_batch`.

These are counts only.  Batch and table-compile *time* is recorded on one
path, the ``serve.batch`` and ``serve.table.compile`` span histograms of
:mod:`repro.obs.tracing` (``repro_span_duration_seconds{span=...}``).
"""

from __future__ import annotations

import copy
import threading

from repro.obs.registry import Sample

#: The probe shapes the service distinguishes in its per-type counters.
PROBE_KINDS: tuple[str, ...] = (
    "equality",
    "range",
    "join",
    "membership",
    "not_equal",
)


#: Probe kind → counter attribute, precomputed so the per-batch hot path
#: does one dict probe instead of building two f-strings per call.
_PROBE_KIND_ATTRS: dict[str, str] = {kind: f"{kind}_probes" for kind in PROBE_KINDS}


class ServiceMetrics:
    """Cumulative counters for one :class:`~repro.serve.EstimationService`.

    Thread-safe: every ``record_*`` method takes the internal lock, so the
    counters stay consistent when many threads probe one service.  The
    invariant ``probes_served == equality_probes + range_probes +
    join_probes + membership_probes + not_equal_probes`` holds on every
    path — probes are counted once, *after* their answers are produced
    (including answers resolved through the ``on_error`` policy), never
    before a batch can still fail.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: Probes answered from an already-compiled table.
        self.table_hits = 0
        #: Probes that had to (re)compile a table first (cold or stale).
        self.table_misses = 0
        #: Compiled tables discarded by the LRU bound.
        self.tables_evicted = 0
        #: Individual probes answered (batch members count individually).
        self.probes_served = 0
        #: ``estimate_batch`` invocations that returned a result vector.
        self.batches_served = 0
        #: ``estimate_batch`` invocations that raised (``on_error="raise"``
        #: or an invalid probe); their already-answered probes stay counted.
        self.batches_failed = 0
        #: Per-shape probe counters; they always sum to ``probes_served``.
        self.equality_probes = 0
        self.range_probes = 0
        self.join_probes = 0
        self.membership_probes = 0
        self.not_equal_probes = 0
        #: Probes answered from a documented no-statistics fallback (System
        #: R magic constants): the relation is known but the statistics
        #: needed for a first-class answer are missing.
        self.fallback_probes = 0
        #: Probes that could not be answered at all and were resolved
        #: through the ``on_error`` policy (``"fallback"`` or ``"nan"``).
        self.degraded_probes = 0
        #: Degraded-probe counts keyed by reason string (e.g.
        #: ``"unknown-relation"``, ``"unorderable-domain"``).
        self.degradation_reasons: dict[str, int] = {}
        #: Probes refused by admission control (quota/backpressure via the
        #: ``admission=`` verdicts of ``estimate_batch``) — a subset of
        #: ``degraded_probes``, counted separately so operators can tell
        #: "tenant over quota" from "statistics missing" at a glance.
        self.rejected_probes = 0
        #: Admission rejections keyed by reason (``"quota-exceeded"``,
        #: ``"backpressure"``, ...).
        self.rejection_reasons: dict[str, int] = {}
        #: Probes refused because their statistics are quarantined (a
        #: subset of ``degraded_probes``; reason ``quarantined-statistics``).
        self.quarantined_probes = 0
        #: Catalog entries a table compile raised on (served degraded).
        self.compile_failures = 0
        #: ``apply_recovery`` calls the service absorbed.
        self.recoveries_applied = 0
        #: Catalog entries quarantined across those recoveries.
        self.entries_quarantined = 0
        #: Journal deltas the absorbed recoveries had replayed.
        self.journal_deltas_replayed = 0
        #: ``trace=`` hooks that raised and were swallowed (observer code
        #: must never fail the observed path).
        self.trace_hook_errors = 0
        #: Two-way join products computed from compiled tables, and those
        #: served again from a slot's stored product (partner version
        #: unchanged).
        self.join_products_computed = 0
        self.join_products_reused = 0

    # ------------------------------------------------------------------
    # Recording (all thread-safe)
    # ------------------------------------------------------------------

    def record_table_hit(self) -> None:
        """Count one compiled-table cache hit."""
        with self._lock:
            self.table_hits += 1

    def record_table_miss(self) -> None:
        """Count one compiled-table cache miss (cold or stale)."""
        with self._lock:
            self.table_misses += 1

    def record_eviction(self, count: int = 1) -> None:
        """Count *count* compiled tables discarded by the LRU bound."""
        with self._lock:
            self.tables_evicted += count

    def record_probes(self, kind: str, count: int) -> None:
        """Count *count* answered probes of *kind* (see ``PROBE_KINDS``)."""
        attr = _PROBE_KIND_ATTRS.get(kind)
        if attr is None:
            raise ValueError(f"unknown probe kind {kind!r}; expected one of {PROBE_KINDS}")
        with self._lock:
            setattr(self, attr, getattr(self, attr) + count)
            self.probes_served += count

    def record_fallback(self, count: int = 1) -> None:
        """Count *count* probes answered from a no-statistics fallback."""
        with self._lock:
            self.fallback_probes += count

    def record_degraded(self, reason: str, count: int = 1) -> None:
        """Count *count* probes resolved through the ``on_error`` policy."""
        with self._lock:
            self.degraded_probes += count
            self.degradation_reasons[reason] = (
                self.degradation_reasons.get(reason, 0) + count
            )

    def record_rejected(self, reason: str, count: int = 1) -> None:
        """Count *count* probes refused by admission control."""
        with self._lock:
            self.rejected_probes += count
            self.rejection_reasons[reason] = (
                self.rejection_reasons.get(reason, 0) + count
            )

    def record_quarantined(self, count: int = 1) -> None:
        """Count *count* probes refused because of quarantined statistics."""
        with self._lock:
            self.quarantined_probes += count

    def record_compile_failure(self, count: int = 1) -> None:
        """Count *count* catalog entries whose table compile raised."""
        with self._lock:
            self.compile_failures += count

    def record_recovery(self, *, entries_quarantined: int, deltas_replayed: int) -> None:
        """Absorb one :class:`~repro.engine.persist.RecoveryReport`."""
        with self._lock:
            self.recoveries_applied += 1
            self.entries_quarantined += entries_quarantined
            self.journal_deltas_replayed += deltas_replayed

    def record_trace_hook_error(self, count: int = 1) -> None:
        """Count *count* ``trace=`` hook invocations that raised."""
        with self._lock:
            self.trace_hook_errors += count

    def record_join_product(self, *, reused: bool) -> None:
        """Count one join product, computed or served from a slot."""
        with self._lock:
            if reused:
                self.join_products_reused += 1
            else:
                self.join_products_computed += 1

    def record_batch(self, *, failed: bool = False) -> None:
        """Count one ``estimate_batch`` call (served or failed)."""
        with self._lock:
            if failed:
                self.batches_failed += 1
            else:
                self.batches_served += 1

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def snapshot(self) -> "ServiceMetrics":
        """An independent, consistent copy for before/after comparisons.

        The copy is fully detached: it carries its own lock and a shallow
        copy of every field, so mutating a snapshot's containers (or the
        live instance afterwards) never bleeds across.  Fields are copied
        generically from ``__dict__`` so a counter added later can never
        be silently missed.
        """
        frozen = ServiceMetrics()
        with self._lock:
            for name, value in self.__dict__.items():
                if name != "_lock":
                    setattr(frozen, name, copy.copy(value))
        return frozen

    def probe_type_total(self) -> int:
        """Sum of the per-shape counters; always equals ``probes_served``."""
        return (
            self.equality_probes
            + self.range_probes
            + self.join_probes
            + self.membership_probes
            + self.not_equal_probes
        )

    def hit_rate(self) -> float:
        """Fraction of table lookups served from cache (0 when untouched)."""
        lookups = self.table_hits + self.table_misses
        if lookups == 0:
            return 0.0
        return self.table_hits / lookups

    def as_dict(self) -> dict[str, float]:
        """Counter values keyed by field name (reason dicts flattened)."""
        out: dict[str, float] = {
            "table_hits": self.table_hits,
            "table_misses": self.table_misses,
            "tables_evicted": self.tables_evicted,
            "probes_served": self.probes_served,
            "batches_served": self.batches_served,
            "batches_failed": self.batches_failed,
            "equality_probes": self.equality_probes,
            "range_probes": self.range_probes,
            "join_probes": self.join_probes,
            "membership_probes": self.membership_probes,
            "not_equal_probes": self.not_equal_probes,
            "fallback_probes": self.fallback_probes,
            "degraded_probes": self.degraded_probes,
            "rejected_probes": self.rejected_probes,
            "quarantined_probes": self.quarantined_probes,
            "compile_failures": self.compile_failures,
            "recoveries_applied": self.recoveries_applied,
            "entries_quarantined": self.entries_quarantined,
            "journal_deltas_replayed": self.journal_deltas_replayed,
            "trace_hook_errors": self.trace_hook_errors,
            "join_products_computed": self.join_products_computed,
            "join_products_reused": self.join_products_reused,
        }
        for reason, count in sorted(self.degradation_reasons.items()):
            out[f"degraded[{reason}]"] = count
        for reason, count in sorted(self.rejection_reasons.items()):
            out[f"rejected[{reason}]"] = count
        return out

    def collect(self, **labels: object) -> list[Sample]:
        """Registry samples exporting every counter through *labels*.

        This is how a service's metrics surface in
        :meth:`repro.obs.MetricRegistry.to_prometheus` — the service
        registers a weak collector at construction, so the hot probe
        paths keep writing plain Python ints under one lock and the
        conversion to samples happens only at exposition time.
        """
        frozen = self.snapshot()
        label_items = tuple((str(k), str(v)) for k, v in sorted(labels.items()))
        counters = (
            ("repro_serve_table_hits_total", frozen.table_hits, "compiled-table cache hits"),
            ("repro_serve_table_misses_total", frozen.table_misses, "compiled-table cache misses"),
            ("repro_serve_tables_evicted_total", frozen.tables_evicted, "compiled tables discarded by the LRU bound"),
            ("repro_serve_probes_total", frozen.probes_served, "individual probes answered"),
            ("repro_serve_batches_total", frozen.batches_served, "estimate_batch calls that returned"),
            ("repro_serve_batches_failed_total", frozen.batches_failed, "estimate_batch calls that raised"),
            ("repro_serve_fallback_probes_total", frozen.fallback_probes, "probes answered from no-statistics fallbacks"),
            ("repro_serve_degraded_probes_total", frozen.degraded_probes, "probes resolved through the on_error policy"),
            ("repro_serve_rejected_probes_total", frozen.rejected_probes, "probes refused by admission control"),
            ("repro_serve_quarantined_probes_total", frozen.quarantined_probes, "probes refused over quarantined statistics"),
            ("repro_serve_compile_failures_total", frozen.compile_failures, "catalog entries whose table compile raised"),
            ("repro_serve_recoveries_applied_total", frozen.recoveries_applied, "recovery reports absorbed"),
            ("repro_serve_trace_hook_errors_total", frozen.trace_hook_errors, "trace= hooks that raised and were swallowed"),
        )
        samples = [
            Sample(name=name, labels=label_items, value=float(value), kind="counter", help=help_text)
            for name, value, help_text in counters
        ]
        samples.append(
            Sample(
                name="repro_serve_hit_rate",
                labels=label_items,
                value=frozen.hit_rate(),
                kind="gauge",
                help="fraction of table lookups served from cache",
            )
        )
        for outcome, count in (
            ("computed", frozen.join_products_computed),
            ("reused", frozen.join_products_reused),
        ):
            samples.append(
                Sample(
                    name="repro_serve_join_products_total",
                    labels=label_items + (("outcome", outcome),),
                    value=float(count),
                    kind="counter",
                    help="two-way join products by outcome (computed or reused)",
                )
            )
        for kind in PROBE_KINDS:
            samples.append(
                Sample(
                    name="repro_serve_probe_kind_total",
                    labels=label_items + (("kind", kind),),
                    value=float(getattr(frozen, f"{kind}_probes")),
                    kind="counter",
                    help="answered probes by shape",
                )
            )
        for reason, count in sorted(frozen.degradation_reasons.items()):
            samples.append(
                Sample(
                    name="repro_serve_degraded_reason_total",
                    labels=label_items + (("reason", reason),),
                    value=float(count),
                    kind="counter",
                    help="degraded probes by on_error reason",
                )
            )
        for reason, count in sorted(frozen.rejection_reasons.items()):
            samples.append(
                Sample(
                    name="repro_serve_rejected_reason_total",
                    labels=label_items + (("reason", reason),),
                    value=float(count),
                    kind="counter",
                    help="admission-rejected probes by reason",
                )
            )
        return samples

    def format(self) -> str:
        """A human-readable multi-line rendering for CLIs."""
        lines = [
            f"compiled-table cache: {self.table_hits} hits, "
            f"{self.table_misses} misses ({self.hit_rate():.1%} hit rate), "
            f"{self.tables_evicted} evicted",
            f"probes served: {self.probes_served} "
            f"in {self.batches_served} batches"
            + (f" ({self.batches_failed} failed)" if self.batches_failed else ""),
            "probe mix: "
            + ", ".join(
                f"{getattr(self, kind + '_probes')} {kind}" for kind in PROBE_KINDS
            ),
            f"degraded: {self.degraded_probes} via on_error policy, "
            f"{self.fallback_probes} from no-statistics fallbacks",
        ]
        if self.degradation_reasons:
            reasons = ", ".join(
                f"{reason}={count}"
                for reason, count in sorted(self.degradation_reasons.items())
            )
            lines.append(f"degradation reasons: {reasons}")
        if self.rejected_probes:
            reasons = ", ".join(
                f"{reason}={count}"
                for reason, count in sorted(self.rejection_reasons.items())
            )
            lines.append(
                f"admission control: {self.rejected_probes} probes rejected "
                f"({reasons})"
            )
        if self.quarantined_probes or self.compile_failures:
            lines.append(
                f"faulty statistics: {self.quarantined_probes} probes answered "
                f"around quarantined entries, {self.compile_failures} compile "
                "failures"
            )
        if self.recoveries_applied:
            lines.append(
                f"recovery: {self.recoveries_applied} reports applied, "
                f"{self.entries_quarantined} entries quarantined, "
                f"{self.journal_deltas_replayed} journal deltas replayed"
            )
        if self.trace_hook_errors:
            lines.append(
                f"trace hooks: {self.trace_hook_errors} raised and were swallowed"
            )
        return "\n".join(lines)
