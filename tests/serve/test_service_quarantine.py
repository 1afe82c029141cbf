"""Tests for quarantine-aware serving in repro.serve.service.

Recovery (:func:`repro.engine.persist.load_catalog` with ``recover=True``)
may withhold corrupt statistics.  The service must then degrade probes
against those relations through the ``on_error`` policy — never serve a
value derived from a corrupted entry — and surface the event in metrics.
"""

import json
import math

import pytest

from repro.engine.analyze import analyze_relation
from repro.engine.catalog import StatsCatalog
from repro.engine.persist import (
    QuarantinedEntry,
    RecoveryReport,
    load_catalog,
    save_catalog,
)
from repro.engine.relation import Relation
from repro.serve import (
    REASON_COMPILE_FAILED,
    REASON_QUARANTINED,
    EstimationService,
    TableCompileError,
)
from repro.testing.faults import FaultInjector, InjectedFault


@pytest.fixture
def catalog():
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


def report_quarantining(catalog, relation="R", attribute="a"):
    return RecoveryReport(
        catalog=catalog,
        snapshot_path="catalog.json",
        entries_loaded=1,
        quarantined=[
            QuarantinedEntry(
                relation=relation, attribute=attribute, reason="checksum mismatch"
            )
        ],
        journal_replayed=3,
    )


class TestApplyRecovery:
    def test_quarantined_equality_degrades_to_magic_constant(
        self, catalog, service
    ):
        baseline = service.estimate_equality("R", "a", 1)
        assert service.apply_recovery(report_quarantining(catalog)) == 1
        estimate = service.estimate_equality("R", "a", 1)
        assert estimate != baseline
        assert estimate == pytest.approx(100.0 * 0.1)  # System R fallback
        stats = service.stats()
        assert stats.degradation_reasons[REASON_QUARANTINED] == 1
        assert stats.quarantined_probes == 1
        assert stats.entries_quarantined == 1
        assert stats.recoveries_applied == 1
        assert stats.journal_deltas_replayed == 3

    def test_quarantined_range_uses_third(self, catalog, service):
        service.apply_recovery(report_quarantining(catalog))
        assert service.estimate_range("R", "a", 1, 3) == pytest.approx(100.0 / 3)

    def test_quarantined_not_equal_uses_complement(self, catalog, service):
        service.apply_recovery(report_quarantining(catalog))
        assert service.estimate_not_equal("R", "a", 1) == pytest.approx(90.0)

    def test_quarantined_join_degrades_both_directions(self, catalog, service):
        service.apply_recovery(report_quarantining(catalog))
        expected = 100.0 * 30.0 * 0.1
        assert service.estimate_join("R", "a", "S", "a") == pytest.approx(expected)
        assert service.estimate_join("S", "a", "R", "a") == pytest.approx(expected)
        assert service.stats().quarantined_probes == 2

    def test_raise_policy_names_the_repair_path(self, catalog, service):
        service.apply_recovery(report_quarantining(catalog))
        with pytest.raises(RuntimeError, match="repro stats repair"):
            service.estimate_equality("R", "a", 1, on_error="raise")

    def test_nan_policy(self, catalog, service):
        service.apply_recovery(report_quarantining(catalog))
        assert math.isnan(service.estimate_equality("R", "a", 1, on_error="nan"))

    def test_file_level_quarantine_is_ignored(self, catalog, service):
        report = RecoveryReport(
            catalog=catalog,
            snapshot_path="catalog.json",
            snapshot_ok=False,
            quarantined=[
                QuarantinedEntry(relation=None, attribute=None, reason="not JSON")
            ],
        )
        assert service.apply_recovery(report) == 0
        assert service.estimate_equality("R", "a", 1) > 0.0
        assert service.stats().degraded_probes == 0

    def test_apply_recovery_lists_quarantined_pairs(self, catalog):
        service = EstimationService(catalog)
        service.apply_recovery(report_quarantining(catalog))
        assert ("R", "a") in service.quarantined
        assert service.stats().entries_quarantined == 1

    def test_apply_recovery_rejects_wrong_type(self, service):
        with pytest.raises(TypeError, match="RecoveryReport"):
            service.apply_recovery({"quarantined": []})

    def test_relation_wide_recovery_evicts_every_cached_slot(
        self, catalog, service
    ):
        # A whole-relation quarantine (attribute None) must drop all of the
        # relation's per-attribute compiled tables, exactly like
        # quarantine(); leaving them cached would outlive clear_quarantine.
        service.estimate_equality("R", "a", 1)
        service.estimate_equality("S", "a", 1)
        assert service.cached_tables == 2
        report = report_quarantining(catalog, relation="R", attribute=None)
        assert service.apply_recovery(report) == 1
        assert service.cached_tables == 1  # only S's table survives
        assert ("R", None) in service.quarantined


class TestQuarantineManagement:
    def test_clear_quarantine_restores_service(self, catalog, service):
        baseline = service.estimate_equality("R", "a", 1)
        service.quarantine("R", "a")
        assert service.estimate_equality("R", "a", 1) != baseline
        assert service.clear_quarantine("R", "a")
        assert service.estimate_equality("R", "a", 1) == pytest.approx(baseline)
        assert not service.clear_quarantine("R", "a")  # already clear

    def test_relation_wide_quarantine_covers_all_attributes(
        self, catalog, service
    ):
        service.quarantine("R")
        assert service.estimate_equality("R", "a", 1) == pytest.approx(10.0)
        with pytest.raises(RuntimeError, match="quarantined"):
            service.estimate_range("R", "a", 1, 3, on_error="raise")

    def test_quarantine_drops_cached_tables(self, catalog, service):
        service.estimate_equality("R", "a", 1)
        assert service.cached_tables >= 1
        before = service.cached_tables
        service.quarantine("R", "a")
        assert service.cached_tables == before - 1

    def test_unaffected_relation_keeps_serving(self, catalog, service):
        joined = service.estimate_join("R", "a", "S", "a")
        service.quarantine("R", "a")
        assert service.estimate_equality("S", "a", 1) == pytest.approx(10.0)
        assert service.estimate_join("R", "a", "S", "a") != pytest.approx(joined)


class TestCompileFailures:
    def test_compile_crash_degrades_with_counter(self, catalog, service):
        with FaultInjector().fail_at(
            "serve.compile", error=InjectedFault("simulated compile fault")
        ):
            estimate = service.estimate_equality("R", "a", 1)
        assert estimate == pytest.approx(100.0 * 0.1)
        stats = service.stats()
        assert stats.degradation_reasons[REASON_COMPILE_FAILED] == 1
        assert stats.compile_failures == 1

    def test_compile_crash_raises_under_raise_policy(self, catalog, service):
        with FaultInjector().fail_at(
            "serve.compile", error=InjectedFault("simulated compile fault")
        ):
            with pytest.raises(TableCompileError, match="R.a"):
                service.estimate_equality("R", "a", 1, on_error="raise")

    def test_compile_recovers_once_fault_clears(self, catalog, service):
        with FaultInjector().fail_at(
            "serve.compile", error=InjectedFault("transient")
        ):
            service.estimate_equality("R", "a", 1)
        # No injector active: the slot compiles and serves exactly.
        assert service.estimate_equality("R", "a", 1) == pytest.approx(40.0)


class TestEndToEndRecovery:
    def test_corrupt_snapshot_entry_never_served(self, catalog, tmp_path):
        """Full loop: save → corrupt one entry → recover → degraded serve."""
        snapshot = tmp_path / "catalog.json"
        save_catalog(catalog, snapshot)
        blob = json.loads(snapshot.read_text())
        blob["entries"][0]["payload"]["total_tuples"] = 999999.0  # bit rot
        snapshot.write_text(json.dumps(blob))

        report = load_catalog(snapshot, recover=True)
        assert len(report.quarantined) == 1
        service = EstimationService(report.catalog)
        service.apply_recovery(report)
        label = report.quarantined[0]
        estimate = service.estimate_equality(label.relation, label.attribute, 1)
        assert estimate == 0.0  # rows unknown for the quarantined relation
        stats = service.stats()
        assert stats.degradation_reasons[REASON_QUARANTINED] == 1
        assert "faulty statistics" in stats.format()
