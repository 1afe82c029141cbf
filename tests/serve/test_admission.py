"""The admission verdicts of EstimationService.estimate_batch.

Quota/backpressure rejections (the network server's admission control)
must ride the existing per-probe degradation machinery: typed reasons,
policy-controlled values, counted metrics — and never batch aborts.
"""

import math

import numpy as np
import pytest

from repro.engine.analyze import analyze_relation
from repro.engine.catalog import StatsCatalog
from repro.engine.relation import Relation
from repro.obs import runtime
from repro.serve import (
    REASON_BACKPRESSURE,
    REASON_QUOTA_EXCEEDED,
    EqualityProbe,
    EstimationService,
    JoinProbe,
    ProbeFrame,
    RangeProbe,
)


@pytest.fixture(autouse=True)
def fresh_obs():
    runtime.reset()
    yield
    runtime.reset()


@pytest.fixture
def catalog():
    catalog = StatsCatalog()
    r = Relation.from_columns("R", {"a": [1] * 60 + [2] * 30 + [3] * 10})
    s = Relation.from_columns("S", {"a": [1] * 20 + [2] * 20})
    analyze_relation(r, "a", catalog, kind="serial", buckets=2)
    analyze_relation(s, "a", catalog, kind="end-biased", buckets=2)
    return catalog


@pytest.fixture
def service(catalog):
    return EstimationService(catalog)


PROBES = [
    EqualityProbe("R", "a", 1),
    RangeProbe("R", "a", 1, 2),
    JoinProbe("R", "a", "S", "a"),
]


class TestAdmissionHook:
    def test_no_hook_is_the_default_path(self, service):
        baseline = service.estimate_batch(PROBES)
        with_hook = service.estimate_batch(PROBES, admission=None)
        assert with_hook.tobytes() == baseline.tobytes()
        assert service.stats().rejected_probes == 0

    def test_rejected_probes_degrade_with_their_reason(self, service):
        verdicts = [None, REASON_QUOTA_EXCEEDED, REASON_BACKPRESSURE]
        traces = []
        out = service.estimate_batch(
            PROBES, admission=verdicts, trace=traces.append
        )
        baseline = service.estimate_batch([PROBES[0]])
        assert out[0] == baseline[0]
        # Per-kind bounded fallbacks: System R magic constants.
        assert out[1] == pytest.approx(100.0 * (1.0 / 3.0))
        assert out[2] == pytest.approx(100.0 * 40.0 * 0.1)
        assert [t.reason for t in traces] == [
            REASON_QUOTA_EXCEEDED,
            REASON_BACKPRESSURE,
        ]
        assert [t.position for t in traces] == [1, 2]
        assert all(t.degraded for t in traces)
        stats = service.stats()
        assert stats.rejected_probes == 2
        assert stats.rejection_reasons == {
            REASON_QUOTA_EXCEEDED: 1,
            REASON_BACKPRESSURE: 1,
        }
        # Rejections are also degradations: the ledger invariant holds.
        assert stats.degraded_probes == sum(stats.degradation_reasons.values())
        assert stats.probes_served == 4  # 3 + the baseline re-run

    def test_nan_policy(self, service):
        out = service.estimate_batch(
            PROBES,
            on_error="nan",
            admission=[REASON_QUOTA_EXCEEDED, None, None],
        )
        assert math.isnan(out[0])
        assert np.all(np.isfinite(out[1:]))

    def test_raise_policy_surfaces_permission_error(self, service):
        with pytest.raises(PermissionError, match="quota-exceeded"):
            service.estimate_batch(
                PROBES,
                on_error="raise",
                admission=[REASON_QUOTA_EXCEEDED, None, None],
            )

    def test_unknown_row_fallback_is_zero(self, service):
        out = service.estimate_batch(
            [EqualityProbe("NOPE", "a", 1), JoinProbe("NOPE", "a", "ALSO", "b")],
            admission=[REASON_QUOTA_EXCEEDED] * 2,
        )
        assert np.all(out == 0.0)

    def test_misaligned_verdicts_rejected(self, service):
        with pytest.raises(ValueError, match="align"):
            service.estimate_batch(PROBES, admission=[None])

    @pytest.mark.parametrize("framed", [False, True])
    def test_list_and_object_column_verdicts_agree(self, catalog, framed):
        """The verdicts as a list or as an object column (how the network
        server builds them from its masks) give the same answers, traces
        and counters."""
        verdicts = [REASON_BACKPRESSURE, None, REASON_QUOTA_EXCEEDED]
        column = np.empty(len(verdicts), dtype=object)
        column[[0, 2]] = [REASON_BACKPRESSURE, REASON_QUOTA_EXCEEDED]
        runs = []
        for spelling in (verdicts, column):
            service = EstimationService(catalog)
            batch = ProbeFrame.from_probes(PROBES) if framed else PROBES
            traces = []
            out = service.estimate_batch(batch, admission=spelling, trace=traces.append)
            runs.append((out.tobytes(), traces, service.stats().as_dict()))
        assert runs[0] == runs[1]
        assert [t.position for t in runs[0][1]] == [0, 2]

    def test_callable_is_refused(self, service):
        with pytest.raises(TypeError, match="callable"):
            service.estimate_batch(PROBES, admission=lambda probes: [None] * 3)
        assert service.stats().batches_failed == 1


class TestRejectionMetrics:
    def test_snapshot_detaches_rejection_counters(self, service):
        """PR-5 guarantee extended: the generic snapshot copy must pick up
        the new rejection fields without bespoke code."""
        service.estimate_batch(
            PROBES, admission=[REASON_QUOTA_EXCEEDED, None, None]
        )
        snapshot = service.metrics.snapshot()
        assert snapshot.rejected_probes == 1
        assert snapshot.rejection_reasons == {REASON_QUOTA_EXCEEDED: 1}
        snapshot.rejection_reasons["poison"] = 99
        snapshot.rejected_probes = 1000
        live = service.stats()
        assert live.rejected_probes == 1
        assert "poison" not in live.rejection_reasons

    def test_as_dict_and_format_cover_rejections(self, service):
        service.estimate_batch(
            PROBES, admission=[REASON_BACKPRESSURE, None, None]
        )
        stats = service.stats()
        flat = stats.as_dict()
        assert flat["rejected_probes"] == 1
        assert flat[f"rejected[{REASON_BACKPRESSURE}]"] == 1
        assert "admission control: 1 probes rejected" in stats.format()

    def test_registry_export(self, catalog):
        service = EstimationService(catalog, name="admission-svc")
        service.estimate_batch(
            PROBES, admission=[REASON_QUOTA_EXCEEDED, None, None]
        )
        text = runtime.get_registry().to_prometheus()
        assert "repro_serve_rejected_probes_total" in text
        assert 'reason="quota-exceeded"' in text
