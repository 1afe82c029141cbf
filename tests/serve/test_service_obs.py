"""Observability-facing service behaviour: hook isolation, detached
snapshots, registry export, and batch spans."""

import threading

import numpy as np
import pytest

from repro.engine.analyze import analyze_relation
from repro.engine.catalog import StatsCatalog
from repro.engine.relation import Relation
from repro.obs import runtime
from repro.obs.tracing import add_span_sink, clear_span_sinks
from repro.serve import EqualityProbe, EstimationService, ProbeFrame


@pytest.fixture(autouse=True)
def fresh_obs():
    runtime.reset()
    clear_span_sinks()
    yield
    runtime.reset()
    clear_span_sinks()


@pytest.fixture
def catalog():
    catalog = StatsCatalog()
    relation = Relation.from_columns("R", {"a": [1] * 30 + [2] * 20 + [3] * 10})
    analyze_relation(relation, "a", catalog, kind="end-biased", buckets=2)
    return catalog


@pytest.fixture
def service(catalog):
    return EstimationService(catalog)


class TestTraceHookIsolation:
    def test_raising_hook_never_aborts_sibling_probes(self, service):
        """Regression: a trace= hook that raises used to propagate out of
        the batch and abort every sibling probe after the first degraded
        one."""

        def angry_hook(record):
            raise RuntimeError("observer bug")

        probes = [
            EqualityProbe("R", "a", 1),
            EqualityProbe("ZZZ", "a", 1),  # degrades -> hook fires -> raises
            EqualityProbe("R", "a", 2),
            EqualityProbe("ZZZ", "a", 2),  # second firing, still isolated
        ]
        estimates = service.estimate_batch(probes, trace=angry_hook)
        assert estimates.shape == (4,)
        assert np.all(np.isfinite(estimates))
        stats = service.stats()
        assert stats.trace_hook_errors == 2
        assert stats.batches_failed == 0
        assert stats.probes_served == 4

    def test_hook_errors_surface_in_registry_export(self, service):
        def angry_hook(record):
            raise RuntimeError("observer bug")

        service.estimate_batch([EqualityProbe("ZZZ", "a", 1)], trace=angry_hook)
        text = runtime.get_registry().to_prometheus()
        assert "repro_serve_trace_hook_errors_total" in text

    def test_healthy_hook_still_receives_traces(self, service):
        traces = []
        service.estimate_batch([EqualityProbe("ZZZ", "a", 1)], trace=traces.append)
        assert len(traces) == 1
        assert service.stats().trace_hook_errors == 0


class TestSnapshotDetachment:
    def test_snapshot_copies_every_field(self, service):
        service.estimate_batch([EqualityProbe("ZZZ", "a", 1)])
        snapshot = service.metrics.snapshot()
        for name, value in service.metrics.__dict__.items():
            if name == "_lock":
                continue
            assert getattr(snapshot, name) == value, name
        assert snapshot._lock is not service.metrics._lock
        assert snapshot.degradation_reasons is not service.metrics.degradation_reasons
        assert snapshot.rejection_reasons is not service.metrics.rejection_reasons

    def test_new_counters_cannot_be_missed(self, service):
        """The generic copy picks up fields added after the snapshot code
        was written — trace_hook_errors is itself the regression case."""
        service.metrics.record_trace_hook_error(3)
        assert service.metrics.snapshot().trace_hook_errors == 3

    def test_mutating_snapshot_never_bleeds_under_concurrency(self, service):
        """Satellite regression: hammer record_* on the live instance while
        mutating snapshots; the live counters must come out exact."""
        rounds = 200
        stop = threading.Event()

        def mutate_snapshots():
            while not stop.is_set():
                snapshot = service.metrics.snapshot()
                snapshot.degradation_reasons["poison"] = 10_000
                snapshot.rejection_reasons["poison"] = 999
                snapshot.probes_served += 123

        def record():
            for _ in range(rounds):
                service.metrics.record_degraded("unknown-relation")
                service.metrics.record_rejected("quota-exceeded")
                service.metrics.record_fallback()

        mutator = threading.Thread(target=mutate_snapshots)
        recorders = [threading.Thread(target=record) for _ in range(4)]
        mutator.start()
        for thread in recorders:
            thread.start()
        for thread in recorders:
            thread.join()
        stop.set()
        mutator.join()

        stats = service.stats()
        assert stats.degradation_reasons == {"unknown-relation": 4 * rounds}
        assert stats.degraded_probes == 4 * rounds
        assert stats.fallback_probes == 4 * rounds
        assert stats.rejection_reasons == {"quota-exceeded": 4 * rounds}
        assert "poison" not in stats.degradation_reasons


class TestRegistryExport:
    def test_service_counters_export_with_service_label(self, catalog):
        service = EstimationService(catalog, name="unit-test-svc")
        service.estimate_batch([EqualityProbe("R", "a", 1)])
        text = runtime.get_registry().to_prometheus()
        assert 'repro_serve_probes_total{service="unit-test-svc"} 1' in text
        assert 'repro_serve_batches_total{service="unit-test-svc"} 1' in text
        # Batch and compile time come from the span histograms alone.
        assert 'repro_span_duration_seconds_count{span="serve.batch"} 1' in text
        assert 'repro_span_duration_seconds_count{span="serve.table.compile"} 1' in text
        assert "repro_serve_batch_latency_bucket" not in text
        assert "repro_serve_compile_seconds_total" not in text

    def test_collector_dies_with_the_service(self, catalog):
        import gc

        service = EstimationService(catalog, name="short-lived")
        service.estimate_batch([EqualityProbe("R", "a", 1)])
        del service
        gc.collect()
        assert "short-lived" not in runtime.get_registry().to_prometheus()

    def test_auto_names_are_unique(self, catalog):
        first = EstimationService(catalog)
        second = EstimationService(catalog)
        assert first.name != second.name

    def test_name_must_be_a_string(self, catalog):
        with pytest.raises(TypeError, match="name"):
            EstimationService(catalog, name=42)


class TestBatchSpans:
    def test_batch_emits_span_with_compile_child(self, service):
        records = []
        add_span_sink(records.append)
        service.estimate_batch([EqualityProbe("R", "a", 1)])
        names = {record.name for record in records}
        assert "serve.batch" in names
        compile_record = next(
            record for record in records if record.name == "serve.table.compile"
        )
        assert compile_record.parent == "serve.batch"

    def test_disabled_instrumentation_emits_nothing(self, service):
        records = []
        add_span_sink(records.append)
        runtime.set_instrumentation(False)
        service.estimate_batch([EqualityProbe("R", "a", 1)])
        assert records == []
        # Plain ServiceMetrics counters still work when obs is off.
        assert service.stats().probes_served == 1

    def test_only_a_list_batch_builds_its_frame_inside_the_batch_span(self, service):
        probes = [EqualityProbe("R", "a", 1)]
        frame = ProbeFrame.from_probes(probes)
        records = []
        add_span_sink(records.append)
        service.estimate_batch(probes)
        service.estimate_batch(frame)
        batches = [r for r in records if r.name == "serve.batch"]
        builds = [r for r in records if r.name == "serve.frame.build"]
        assert len(batches) == 2
        assert [b.parent_id for b in builds] == [batches[0].span_id]


class TestBatchAccounting:
    def test_invalid_probe_counts_as_a_failed_batch(self, service):
        with pytest.raises(TypeError):
            service.estimate_batch(["not a probe"])
        stats = service.stats()
        assert stats.batches_failed == 1
        assert stats.batches_served == 0

    def test_not_equal_looks_its_table_up_once(self, service):
        service.estimate_equality("R", "a", 1)  # warm the table
        before = service.stats()
        service.estimate_equality("R", "a", 1)
        after_equality = service.stats()
        service.estimate_not_equal("R", "a", 1)
        after_not_equal = service.stats()
        assert after_equality.table_hits - before.table_hits == 1
        assert after_not_equal.table_hits - after_equality.table_hits == 1
        assert after_not_equal.table_misses == before.table_misses
