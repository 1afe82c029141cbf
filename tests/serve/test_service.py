"""Tests for repro.serve.service — the batched estimation service."""

import math

import numpy as np
import pytest

from repro.core.biased import v_opt_bias_hist
from repro.engine.analyze import analyze_relation
from repro.engine.catalog import CatalogEntry, StatsCatalog
from repro.engine.relation import Relation
from repro.obs import runtime
from repro.serve import (
    EqualityProbe,
    EstimationService,
    JoinProbe,
    ProbeTrace,
    RangeProbe,
)


def assert_metrics_invariants(stats):
    """The counter invariants every estimation path must preserve."""
    assert stats.probes_served == stats.probe_type_total()
    assert stats.degraded_probes == sum(stats.degradation_reasons.values())


@pytest.fixture
def catalog(rng):
    catalog = StatsCatalog()
    r = Relation.from_columns(
        "R", {"a": [1] * 40 + [2] * 25 + [3] * 20 + [4] * 10 + [5] * 5}
    )
    s = Relation.from_columns("S", {"a": [1] * 10 + [2] * 10 + [3] * 10})
    analyze_relation(r, "a", catalog, kind="serial", buckets=3)
    analyze_relation(s, "a", catalog, kind="end-biased", buckets=2)
    return catalog


@pytest.fixture
def service(catalog):
    return EstimationService(catalog)


class TestConstruction:
    def test_requires_catalog(self):
        with pytest.raises(TypeError, match="StatsCatalog"):
            EstimationService({"not": "a catalog"})

    def test_max_tables_validated(self, catalog):
        with pytest.raises(ValueError):
            EstimationService(catalog, max_tables=0)


class TestScalarEstimates:
    def test_scan_cardinality(self, service):
        assert service.scan_cardinality("R") == 100.0

    def test_scan_unknown_relation(self, service):
        with pytest.raises(KeyError, match="ANALYZE"):
            service.scan_cardinality("ZZZ")

    def test_equality_without_statistics_uses_magic_constant(self, service):
        # Attribute unseen by ANALYZE but relation known: System R 0.1.
        estimate = service.estimate_equality("R", "zzz", 1)
        assert estimate == pytest.approx(100.0 * 0.1)

    def test_range_mass_partitioned(self, service):
        below = service.estimate_range("R", "a", None, 2)
        above = service.estimate_range("R", "a", 2, None, include_low=False)
        total = service.estimate_range("R", "a")
        assert below + above == pytest.approx(total)

    def test_not_equal_complement(self, service):
        eq = service.estimate_equality("R", "a", 1)
        ne = service.estimate_not_equal("R", "a", 1)
        total = service.estimate_range("R", "a")
        assert eq + ne == pytest.approx(total)

    def test_membership_dedup(self, service):
        single = service.estimate_membership("R", "a", [1])
        repeated = service.estimate_membership("R", "a", [1, 1, 1])
        assert repeated == single

    def test_join_symmetric(self, service):
        forward = service.estimate_join("R", "a", "S", "a")
        backward = service.estimate_join("S", "a", "R", "a")
        assert forward == pytest.approx(backward)
        assert forward > 0


class TestBatchInterface:
    def test_batch_matches_scalars_bitwise(self, service):
        probes = [
            EqualityProbe("R", "a", 1),
            RangeProbe("R", "a", 2, 4),
            EqualityProbe("S", "a", 3),
            JoinProbe("R", "a", "S", "a"),
            RangeProbe("S", "a", None, 2, include_high=False),
            EqualityProbe("R", "a", 99),
        ]
        batch = service.estimate_batch(probes)
        scalar = np.asarray(
            [
                service.estimate_equality("R", "a", 1),
                service.estimate_range("R", "a", 2, 4),
                service.estimate_equality("S", "a", 3),
                service.estimate_join("R", "a", "S", "a"),
                service.estimate_range("S", "a", None, 2, include_high=False),
                service.estimate_equality("R", "a", 99),
            ]
        )
        assert np.array_equal(batch, scalar)

    def test_empty_batch(self, service):
        out = service.estimate_batch([])
        assert out.shape == (0,)

    def test_unknown_probe_type_rejected(self, service):
        with pytest.raises(TypeError, match="probe"):
            service.estimate_batch(["not a probe"])

    def test_batch_counts_metrics(self, service):
        service.estimate_batch([EqualityProbe("R", "a", 1)] * 5)
        stats = service.stats()
        assert stats.batches_served == 1
        assert stats.probes_served == 5


class TestCacheInvalidation:
    def test_repeat_probes_hit_cache(self, service):
        service.estimate_equality("R", "a", 1)
        service.estimate_equality("R", "a", 2)
        service.estimate_equality("R", "a", 3)
        stats = service.stats()
        assert stats.table_misses == 1
        assert stats.table_hits == 2

    def test_flat_misses_on_repeated_batches(self, service):
        probes = [EqualityProbe("R", "a", v) for v in range(5)]
        service.estimate_batch(probes)
        misses_after_first = service.stats().table_misses
        for _ in range(10):
            service.estimate_batch(probes)
        assert service.stats().table_misses == misses_after_first

    def test_analyze_invalidates(self, catalog, service, rng):
        before = service.estimate_equality("R", "a", 1)
        bigger = Relation.from_columns("R", {"a": [1] * 80 + [2] * 20})
        analyze_relation(bigger, "a", catalog, kind="serial", buckets=2)
        after = service.estimate_equality("R", "a", 1)
        assert service.stats().table_misses == 2
        assert after != before
        assert after == pytest.approx(80.0)

    def test_drop_removes_statistics(self, catalog, service):
        service.estimate_equality("R", "a", 1)
        catalog.drop("R")
        # The cached table must not answer for a dropped relation: the
        # default policy degrades the probe to the documented 0.0 fallback…
        assert service.estimate_equality("R", "a", 1) == 0.0
        assert service.stats().degradation_reasons["unknown-relation"] == 1
        # …and the strict policy preserves the legacy KeyError.
        with pytest.raises(KeyError, match="ANALYZE"):
            service.estimate_equality("R", "a", 1, on_error="raise")

    def test_lru_eviction(self, rng):
        catalog = StatsCatalog()
        for index in range(4):
            rel = Relation.from_columns(f"R{index}", {"a": [1, 2, 3]})
            analyze_relation(rel, "a", catalog, kind="end-biased", buckets=2)
        service = EstimationService(catalog, max_tables=2)
        for index in range(4):
            service.estimate_equality(f"R{index}", "a", 1)
        assert service.cached_tables == 2
        assert service.stats().tables_evicted == 2

    def test_invalidate_clears(self, service):
        service.estimate_equality("R", "a", 1)
        assert service.cached_tables == 1
        assert service.invalidate() == 1
        assert service.cached_tables == 0

    def test_version_property_monotonic(self, catalog):
        start = catalog.version
        entry = catalog.get("R", "a")
        catalog.put(
            CatalogEntry(
                relation="R",
                attribute="a",
                kind=entry.kind,
                histogram=entry.histogram,
                compact=entry.compact,
                distinct_count=entry.distinct_count,
                total_tuples=entry.total_tuples,
            )
        )
        assert catalog.version == start + 1


class TestFallbackLadder:
    def test_compact_only_entry(self):
        from repro.engine.catalog import CompactEndBiased

        catalog = StatsCatalog()
        compact = CompactEndBiased(
            explicit={1: 40.0}, remainder_count=3, remainder_average=5.0
        )
        catalog.put(
            CatalogEntry("R", "a", "sampled", None, compact, 4, 55.0)
        )
        service = EstimationService(catalog)
        assert service.estimate_equality("R", "a", 1) == 40.0
        assert service.estimate_equality("R", "a", 7) == 5.0

    def test_statistics_free_entry_uniform(self):
        catalog = StatsCatalog()
        catalog.put(CatalogEntry("R", "a", "none", None, None, 10, 200.0))
        service = EstimationService(catalog)
        assert service.estimate_equality("R", "a", 1) == pytest.approx(20.0)

    def test_range_without_histogram_uses_system_r(self):
        catalog = StatsCatalog()
        catalog.put(CatalogEntry("R", "a", "none", None, None, 10, 300.0))
        service = EstimationService(catalog)
        assert service.estimate_range("R", "a", 1, 5) == pytest.approx(100.0)

    def test_join_without_any_statistics(self):
        catalog = StatsCatalog()
        catalog.put(CatalogEntry("R", "a", "none", None, None, 10, 100.0))
        catalog.put(CatalogEntry("S", "a", "none", None, None, 20, 50.0))
        service = EstimationService(catalog)
        # Uniform |L|·|R| / max(d) containment estimate.
        assert service.estimate_join("R", "a", "S", "a") == pytest.approx(
            100.0 * 50.0 / 20
        )

    def test_fallbacks_counted(self, service):
        service.estimate_equality("R", "zzz", 1)  # known relation, no stats
        service.estimate_range("R", "zzz", 1, 5)
        stats = service.stats()
        assert stats.fallback_probes == 2
        assert stats.degraded_probes == 0
        assert_metrics_invariants(stats)


@pytest.fixture
def unorderable_catalog():
    """A relation whose histogram domain is not mutually comparable."""
    catalog = StatsCatalog()
    hist = v_opt_bias_hist([5.0, 3.0, 2.0], 2, values=[1, "x", 2.5])
    catalog.put(CatalogEntry("M", "a", "biased", hist, None, 3, 10.0))
    return catalog


class TestErrorPolicy:
    def test_invalid_service_policy_rejected(self, catalog):
        with pytest.raises(ValueError, match="on_error"):
            EstimationService(catalog, on_error="explode")

    def test_invalid_override_rejected(self, service):
        with pytest.raises(ValueError, match="on_error"):
            service.estimate_equality("R", "a", 1, on_error="explode")

    def test_unknown_relation_fallback_default(self, service):
        assert service.estimate_equality("ZZZ", "a", 1) == 0.0
        assert service.estimate_range("ZZZ", "a", 1, 5) == 0.0
        assert service.estimate_not_equal("ZZZ", "a", 1) == 0.0
        assert service.estimate_join("ZZZ", "a", "R", "a") == 0.0
        stats = service.stats()
        assert stats.degraded_probes == 4
        assert stats.degradation_reasons == {"unknown-relation": 4}
        assert_metrics_invariants(stats)

    def test_unknown_relation_nan(self, service):
        assert math.isnan(service.estimate_equality("ZZZ", "a", 1, on_error="nan"))
        assert service.stats().degradation_reasons == {"unknown-relation": 1}

    def test_unknown_relation_raise(self, service):
        with pytest.raises(KeyError, match="ANALYZE"):
            service.estimate_range("ZZZ", "a", 1, 5, on_error="raise")

    def test_service_wide_policy(self, catalog):
        service = EstimationService(catalog, on_error="nan")
        assert service.on_error == "nan"
        assert math.isnan(service.estimate_equality("ZZZ", "a", 1))
        # A per-call override still wins.
        assert service.estimate_equality("ZZZ", "a", 1, on_error="fallback") == 0.0

    def test_unhashable_value_degrades(self, service):
        assert service.estimate_equality("R", "a", [1, 2]) == 0.0
        assert service.stats().degradation_reasons == {"unhashable-value": 1}
        with pytest.raises(TypeError, match="unhashable"):
            service.estimate_equality("R", "a", [1, 2], on_error="raise")

    def test_unorderable_domain_range_degrades(self, unorderable_catalog):
        service = EstimationService(unorderable_catalog)
        # Known relation, histogram present, but the domain cannot answer a
        # range: the System R |R|/3 guess via the policy.
        assert service.estimate_range("M", "a", 0, 9) == pytest.approx(10.0 / 3.0)
        assert service.stats().degradation_reasons == {"unorderable-domain": 1}
        with pytest.raises(ValueError, match="orderable"):
            service.estimate_range("M", "a", 0, 9, on_error="raise")
        # Equality over the same domain stays first-class.
        assert service.estimate_equality("M", "a", 1) == pytest.approx(5.0)

    def test_incomparable_bound_degrades(self):
        catalog = StatsCatalog()
        hist = v_opt_bias_hist([6.0, 3.0, 1.0], 2, values=["a", "b", "c"])
        catalog.put(CatalogEntry("T", "s", "biased", hist, None, 3, 10.0))
        service = EstimationService(catalog)
        good = service.estimate_range("T", "s", "a", "b")
        # An int bound over a string domain is isolated, not fatal…
        out = service.estimate_ranges("T", "s", [1, "a"], [None, "b"])
        assert out[0] == pytest.approx(10.0 / 3.0)
        # …and the comparable probe in the same batch answers first-class.
        assert out[1] == good
        assert service.stats().degradation_reasons == {"incomparable-bound": 1}


class TestClamping:
    def test_membership_overshoot_clamped(self, service):
        # 20 no-statistics IN values would naively estimate 20·0.1·|R| = 2·|R|.
        assert service.estimate_membership("R", "zzz", range(20)) == 100.0

    def test_membership_boundary(self, service):
        # Exactly at the clamp boundary: 10 values · 0.1·|R| == |R|.
        assert service.estimate_membership("R", "zzz", range(10)) == pytest.approx(
            100.0
        )
        assert service.estimate_membership("R", "zzz", range(9)) == pytest.approx(
            90.0
        )

    def test_not_equal_no_stats_counted_and_bounded(self, service):
        ne = service.estimate_not_equal("R", "zzz", 1)
        assert ne == pytest.approx(100.0 * 0.9)
        assert ne <= service.scan_cardinality("R")
        stats = service.stats()
        assert stats.not_equal_probes == 1
        assert stats.fallback_probes == 1
        assert_metrics_invariants(stats)


class TestMetricsInvariants:
    def test_probe_mix_sums_to_served(self, service):
        service.estimate_equality("R", "a", 1)
        service.estimate_range("R", "a", 1, 3)
        service.estimate_join("R", "a", "S", "a")
        service.estimate_membership("R", "a", [1, 2])
        service.estimate_not_equal("R", "a", 1)
        stats = service.stats()
        assert stats.equality_probes == 1
        assert stats.range_probes == 1
        assert stats.join_probes == 1
        assert stats.membership_probes == 1
        assert stats.not_equal_probes == 1
        assert stats.probes_served == 5
        assert_metrics_invariants(stats)

    def test_failed_batch_counted_as_failed(self, service):
        probes = [EqualityProbe("R", "a", 1), EqualityProbe("ZZZ", "a", 1)]
        with pytest.raises(KeyError):
            service.estimate_batch(probes, on_error="raise")
        stats = service.stats()
        assert stats.batches_failed == 1
        assert stats.batches_served == 0
        assert_metrics_invariants(stats)

    def test_batch_latency_recorded(self, service):
        # The serve.batch span histogram is the one batch timing.
        timings = runtime.get_registry().histogram(
            "repro_span_duration_seconds", span="serve.batch"
        )
        before = timings.count
        service.estimate_batch([EqualityProbe("R", "a", 1)])
        assert timings.count == before + 1

    def test_snapshot_is_independent(self, service):
        before = service.stats()
        service.estimate_equality("R", "a", 1)
        assert before.probes_served == 0
        assert service.stats().probes_served == 1

    def test_snapshot_copies_future_container_counters(self, service):
        # The generic __dict__ copy must detach any container a later
        # change adds — including sets (e.g. sanitizer-observed sites).
        live = service.metrics
        live.observed_sites = {"a"}  # type: ignore[attr-defined]
        try:
            frozen = live.snapshot()
            live.observed_sites.add("b")
            assert frozen.observed_sites == {"a"}
        finally:
            del live.observed_sites


class TestFaultIsolatedBatches:
    def test_mixed_known_unknown_relation_batch(self, service):
        """Regression: one unknown relation used to abort the whole batch."""
        probes = [
            EqualityProbe("R", "a", 1),
            EqualityProbe("ZZZ", "a", 1),
            RangeProbe("R", "a", 2, 4),
            RangeProbe("ZZZ", "a", 2, 4),
            JoinProbe("R", "a", "ZZZ", "a"),
        ]
        out = service.estimate_batch(probes)
        assert out[0] == service.estimate_equality("R", "a", 1)
        assert out[1] == 0.0
        assert out[2] == service.estimate_range("R", "a", 2, 4)
        assert out[3] == 0.0
        assert out[4] == 0.0
        stats = service.stats()
        assert stats.degradation_reasons == {"unknown-relation": 3}
        assert stats.batches_served == 1
        assert stats.batches_failed == 0
        assert_metrics_invariants(stats)

    def test_nan_policy_marks_only_bad_positions(self, service):
        probes = [
            EqualityProbe("R", "a", 1),
            EqualityProbe("ZZZ", "a", 1),
            EqualityProbe("R", "a", 2),
        ]
        out = service.estimate_batch(probes, on_error="nan")
        assert not math.isnan(out[0]) and not math.isnan(out[2])
        assert math.isnan(out[1])

    def test_trace_hook_reports_positions(self, service):
        traces = []
        probes = [
            EqualityProbe("R", "a", 1),
            EqualityProbe("ZZZ", "a", 1),
            RangeProbe("R", "zzz", 1, 5),
        ]
        service.estimate_batch(probes, trace=traces.append)
        assert all(isinstance(t, ProbeTrace) for t in traces)
        by_position = {t.position: t for t in traces}
        assert set(by_position) == {1, 2}
        assert by_position[1].reason == "unknown-relation"
        assert by_position[1].degraded is True
        assert by_position[2].reason == "no-statistics"
        assert by_position[2].degraded is False

    def test_trace_hook_scalar_paths(self, service):
        traces = []
        service.estimate_equality("ZZZ", "a", 1, trace=traces.append)
        assert len(traces) == 1
        assert traces[0].kind == "equality"
        assert traces[0].position is None

    def test_10k_probe_batch_acceptance(self, service, unorderable_catalog):
        """The ISSUE acceptance batch: 10k probes with poisoned positions."""
        for entry in unorderable_catalog.entries():
            service.catalog.put(entry)
        probes = []
        poisoned = {"unknown-relation": 0, "unorderable-domain": 0,
                    "unhashable-value": 0}
        for index in range(10_000):
            shape = index % 5
            if shape == 0:
                probes.append(EqualityProbe("R", "a", (index % 7) + 1))
            elif shape == 1:
                probes.append(RangeProbe("R", "a", index % 3, (index % 3) + 2))
            elif shape == 2 and index % 25 == 2:
                probes.append(EqualityProbe("GONE", "a", 1))
                poisoned["unknown-relation"] += 1
            elif shape == 3 and index % 25 == 3:
                probes.append(RangeProbe("M", "a", 0, 9))
                poisoned["unorderable-domain"] += 1
            elif shape == 4 and index % 25 == 4:
                probes.append(EqualityProbe("R", "a", [index]))
                poisoned["unhashable-value"] += 1
            else:
                probes.append(EqualityProbe("S", "a", (index % 4) + 1))
        out = service.estimate_batch(probes)
        assert out.shape == (10_000,)
        assert np.all(np.isfinite(out))
        # Bit-identical answers at every healthy position.
        for index, probe in enumerate(probes):
            if isinstance(probe, EqualityProbe) and probe.relation in ("R", "S"):
                try:
                    hash(probe.value)
                except TypeError:
                    assert out[index] == 0.0
                    continue
                assert out[index] == service.estimate_equality(
                    probe.relation, probe.attribute, probe.value
                )
        stats = service.stats()
        assert stats.degradation_reasons == poisoned
        assert stats.degraded_probes == sum(poisoned.values())
        assert stats.probes_served >= 10_000
        assert_metrics_invariants(stats)
