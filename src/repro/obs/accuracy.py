"""Estimation-accuracy accounting: observed error versus the paper's bound.

The paper defines exactly what "accurate" means for a serial histogram.
Proposition 3.1 gives the self-join error of a histogram in closed form::

    S - S' = Σ_i p_i · v_i

where ``p_i`` is bucket *i*'s value count and ``v_i`` its frequency
variance — the quantity the v-optimal partitioning minimises, and the
per-bucket ``sse`` already stored on :class:`repro.core.buckets.Bucket`.
The v-optimality objective is the expectation ``E[(S - S')²]`` over query
distributions.

:class:`AccuracyMonitor` tracks the *measured* side of that equation:
every ``record_observation(probe, estimated, actual)`` call folds the
signed error ``actual - estimated`` (i.e. ``S - S'``) into per-
``(kind, relation, attribute)`` running statistics — count, mean signed
error, mean absolute and relative error, and the running mean of the
squared error as the ``E[(S - S')²]`` proxy.
:func:`theoretical_self_join_error` computes the *predicted* side from the
bucket ``p_i·v_i`` terms, so a test (or an operator) can check that a
histogram's observed self-join error agrees with Proposition 3.1.

A monitor exports itself through a :class:`~repro.obs.registry.MetricRegistry`
collector (weakly referenced — dropping the monitor drops its samples).
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Any, Optional

from repro.obs import tracing
from repro.obs.registry import MetricRegistry, Sample

#: Fallback key component when a probe's relation/attribute is unknown.
UNKNOWN = "unknown"

#: An accuracy key: (probe kind, relation, attribute).
AccuracyKey = tuple[str, str, str]


@dataclass
class ErrorStats:
    """Running error aggregates for one ``(kind, relation, attribute)``."""

    count: int = 0
    #: Σ (actual - estimated) — signed, so bias shows up.
    sum_signed: float = 0.0
    #: Σ |actual - estimated|.
    sum_abs: float = 0.0
    #: Σ (actual - estimated)² — numerator of the E[(S-S')²] proxy.
    sum_squared: float = 0.0
    #: Σ |actual - estimated| / max(actual, 1).
    sum_relative: float = 0.0
    #: Trace ID of the most recent observation recorded under an active
    #: trace context ("" when none yet) — how a drift-triggered rebuild
    #: links back to the probe batch whose error crossed the threshold.
    last_trace_id: str = ""

    def record(self, estimated: float, actual: float) -> None:
        """Fold one observation into the aggregates."""
        signed = float(actual) - float(estimated)
        self.count += 1
        self.sum_signed += signed
        self.sum_abs += abs(signed)
        self.sum_squared += signed * signed
        self.sum_relative += abs(signed) / max(abs(float(actual)), 1.0)

    @property
    def mean_signed_error(self) -> float:
        """Mean of ``actual - estimated`` (0 when empty)."""
        return self.sum_signed / self.count if self.count else 0.0

    @property
    def mean_absolute_error(self) -> float:
        """Mean of ``|actual - estimated|`` (0 when empty)."""
        return self.sum_abs / self.count if self.count else 0.0

    @property
    def mean_squared_error(self) -> float:
        """Running ``E[(S - S')²]`` proxy (0 when empty)."""
        return self.sum_squared / self.count if self.count else 0.0

    @property
    def mean_relative_error(self) -> float:
        """Mean relative error (0 when empty)."""
        return self.sum_relative / self.count if self.count else 0.0

    def as_dict(self) -> dict[str, float]:
        """JSON-ready summary of the aggregates."""
        return {
            "count": float(self.count),
            "mean_signed_error": self.mean_signed_error,
            "mean_absolute_error": self.mean_absolute_error,
            "mean_squared_error": self.mean_squared_error,
            "mean_relative_error": self.mean_relative_error,
        }


def probe_key(probe: object) -> AccuracyKey:
    """Derive the ``(kind, relation, attribute)`` key for *probe*.

    Duck-typed so :mod:`repro.obs` never imports the serve layer: any
    object with ``relation``/``attribute`` (equality and range probes),
    ``left_relation``/``right_relation`` (join probes), a 2-tuple of
    strings, or a bare string works.  Anything else keys under
    ``("other", "unknown", "unknown")``.
    """
    low = getattr(probe, "low", None)
    high = getattr(probe, "high", None)
    relation = getattr(probe, "relation", None)
    attribute = getattr(probe, "attribute", None)
    if isinstance(relation, str) and isinstance(attribute, str):
        kind = "range" if (low is not None or high is not None or hasattr(probe, "include_low")) else "equality"
        return (kind, relation, attribute)
    left_rel = getattr(probe, "left_relation", None)
    right_rel = getattr(probe, "right_relation", None)
    if isinstance(left_rel, str) and isinstance(right_rel, str):
        left_attr = getattr(probe, "left_attribute", UNKNOWN)
        right_attr = getattr(probe, "right_attribute", UNKNOWN)
        return ("join", f"{left_rel}⋈{right_rel}", f"{left_attr}={right_attr}")
    if isinstance(probe, tuple) and len(probe) == 2:
        return ("other", str(probe[0]), str(probe[1]))
    if isinstance(probe, str):
        return ("other", probe, UNKNOWN)
    return ("other", UNKNOWN, UNKNOWN)


def theoretical_self_join_error(histogram: object) -> float:
    """The Proposition 3.1 self-join error ``Σ p_i·v_i`` of *histogram*.

    Accepts any object exposing ``buckets`` whose items carry ``count``
    (``p_i``) and ``variance`` (``v_i``) — i.e.
    :class:`repro.core.buckets.Histogram` — without importing the core
    layer, keeping :mod:`repro.obs` dependency-free.
    """
    buckets = getattr(histogram, "buckets", None)
    if buckets is None:
        raise TypeError(
            f"expected an object with .buckets, got {type(histogram).__name__}"
        )
    total = 0.0
    for bucket in buckets:
        count = float(bucket.count)
        variance = float(bucket.variance)
        if count < 0 or variance < 0:
            raise ValueError(
                f"bucket p_i and v_i must be non-negative, got "
                f"count={count}, variance={variance}"
            )
        total += count * variance
    return total


class AccuracyMonitor:
    """Thread-safe per-(kind, relation, attribute) estimation-error stats."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._stats: dict[AccuracyKey, ErrorStats] = {}

    def record_observation(
        self, probe: object, estimated: float, actual: float
    ) -> AccuracyKey:
        """Fold one (estimate, truth) pair into the stats for *probe*.

        Non-finite values are dropped (counted nowhere) — a degraded NaN
        estimate must not poison every mean.  Returns the key the
        observation landed under.
        """
        key = probe_key(probe)
        est = float(estimated)
        act = float(actual)
        if not (math.isfinite(est) and math.isfinite(act)):
            return key
        context = tracing.current_trace_context()
        trace_id = context.trace_id if context is not None else ""
        with self._lock:
            stats = self._stats.get(key)
            if stats is None:
                stats = ErrorStats()
                self._stats[key] = stats
            stats.record(est, act)
            if trace_id:
                stats.last_trace_id = trace_id
        return key

    def record_self_join(self, relation: str, histogram: object, actual: float) -> AccuracyKey:
        """Record a self-join observation using the histogram's own estimate.

        Uses ``histogram.self_join_estimate()`` (Theorem 2.1's ``Σ T_i²/p_i``
        serial-histogram estimate) as the estimated value, so the measured
        signed error is exactly the ``S - S'`` of Proposition 3.1.
        """
        estimated = float(histogram.self_join_estimate())
        key = ("self_join", relation, UNKNOWN)
        est = estimated
        act = float(actual)
        if math.isfinite(est) and math.isfinite(act):
            with self._lock:
                stats = self._stats.get(key)
                if stats is None:
                    stats = ErrorStats()
                    self._stats[key] = stats
                stats.record(est, act)
        return key

    def stats(self, key: AccuracyKey) -> Optional[ErrorStats]:
        """A detached copy of the stats under *key*, if any."""
        with self._lock:
            current = self._stats.get(key)
            if current is None:
                return None
            return ErrorStats(
                count=current.count,
                sum_signed=current.sum_signed,
                sum_abs=current.sum_abs,
                sum_squared=current.sum_squared,
                sum_relative=current.sum_relative,
                last_trace_id=current.last_trace_id,
            )

    def as_dict(self) -> dict[str, dict[str, float]]:
        """Every key's aggregates, keyed ``"kind/relation/attribute"``."""
        with self._lock:
            items = [(key, stats.as_dict()) for key, stats in self._stats.items()]
        return {"/".join(key): summary for key, summary in sorted(items)}

    def items(self) -> list[tuple[AccuracyKey, ErrorStats]]:
        """Detached ``(key, stats)`` pairs for every tracked key.

        The consumer loop of the maintenance agent's drift audit: typed
        keys (not the joined strings of :meth:`as_dict`) and stat copies
        that cannot race with concurrent recording.
        """
        with self._lock:
            keys = list(self._stats)
        return [
            (key, stats)
            for key in sorted(keys)
            if (stats := self.stats(key)) is not None
        ]

    def collect(self) -> list[Sample]:
        """Registry samples for every tracked key (collector callback)."""
        with self._lock:
            items = list(self._stats.items())
        samples: list[Sample] = []
        for (kind, relation, attribute), stats in sorted(items):
            labels = (
                ("attribute", attribute),
                ("kind", kind),
                ("relation", relation),
            )
            samples.append(
                Sample(
                    name="repro_accuracy_observations_total",
                    labels=labels,
                    value=float(stats.count),
                    kind="counter",
                    help="estimate/truth pairs folded into the accuracy monitor",
                )
            )
            samples.append(
                Sample(
                    name="repro_accuracy_mean_signed_error",
                    labels=labels,
                    value=stats.mean_signed_error,
                    kind="gauge",
                    help="mean of actual - estimated (S - S')",
                )
            )
            samples.append(
                Sample(
                    name="repro_accuracy_mean_squared_error",
                    labels=labels,
                    value=stats.mean_squared_error,
                    kind="gauge",
                    help="running E[(S - S')^2] proxy (v-optimality objective)",
                )
            )
            samples.append(
                Sample(
                    name="repro_accuracy_mean_relative_error",
                    labels=labels,
                    value=stats.mean_relative_error,
                    kind="gauge",
                    help="mean |actual - estimated| / max(|actual|, 1)",
                )
            )
        return samples

    def bind(self, registry: MetricRegistry) -> None:
        """Register this monitor's samples with *registry* (weakly)."""
        registry.register_collector(AccuracyMonitor.collect, owner=self)


def _default_monitor_holder() -> dict[str, Any]:
    return {"monitor": None, "lock": threading.Lock()}


_default = _default_monitor_holder()


def get_monitor() -> AccuracyMonitor:
    """The process-wide default monitor, bound to the default registry."""
    from repro.obs import runtime

    with _default["lock"]:
        monitor = _default["monitor"]
        if monitor is None:
            monitor = AccuracyMonitor()
            monitor.bind(runtime.get_registry())
            _default["monitor"] = monitor
        return monitor


def reset_monitor() -> AccuracyMonitor:
    """Install a fresh default monitor (test isolation helper)."""
    from repro.obs import runtime

    with _default["lock"]:
        monitor = AccuracyMonitor()
        monitor.bind(runtime.get_registry())
        _default["monitor"] = monitor
        return monitor
