"""Tests for repro.engine.analyze — the ANALYZE pass."""

import numpy as np
import pytest

from repro.data.quantize import quantize_to_integers
from repro.data.zipf import zipf_frequencies
from repro.engine.analyze import ANALYZE_KINDS, analyze_database, analyze_relation
from repro.engine.catalog import StatsCatalog
from repro.engine.relation import Relation
from repro.obs import runtime
from repro.obs.tracing import add_span_sink, clear_span_sinks
from repro.serve import EqualityProbe, EstimationService, ProbeFrame


@pytest.fixture
def zipf_relation(rng):
    freqs = quantize_to_integers(zipf_frequencies(1000, 40, 1.2))
    column = [v for v, f in enumerate(freqs) for _ in range(int(f))]
    rng.shuffle(column)
    return Relation.from_columns("Z", {"a": column})


class TestAnalyzeRelation:
    @pytest.mark.parametrize("kind", ["trivial", "equi-width", "equi-depth", "end-biased", "serial"])
    def test_all_kinds_build(self, zipf_relation, kind):
        catalog = StatsCatalog()
        entry = analyze_relation(zipf_relation, "a", catalog, kind=kind, buckets=5)
        assert entry.kind == kind
        assert entry.histogram is not None
        assert entry.distinct_count == 40
        assert entry.total_tuples == 1000.0

    def test_histogram_totals_match_relation(self, zipf_relation):
        catalog = StatsCatalog()
        entry = analyze_relation(zipf_relation, "a", catalog, kind="end-biased", buckets=5)
        approx_total = entry.histogram.approximate_frequencies().sum()
        assert approx_total == pytest.approx(1000.0)

    def test_end_biased_gets_compact_form(self, zipf_relation):
        catalog = StatsCatalog()
        entry = analyze_relation(zipf_relation, "a", catalog, kind="end-biased", buckets=5)
        assert entry.compact is not None
        assert entry.compact.distinct_count == 40

    def test_equi_depth_has_no_compact_form(self, zipf_relation):
        catalog = StatsCatalog()
        entry = analyze_relation(zipf_relation, "a", catalog, kind="equi-depth", buckets=5)
        assert entry.compact is None

    @pytest.mark.parametrize("buckets", [2, 3, 4])
    def test_serial_entry_answers_absent_value_with_zero(self, buckets):
        # Frequencies 9, 8, 2, 1.  The compact form's missing-bucket rule
        # is end-biased only: a serial entry stores none, so a value
        # outside the domain answers 0 whatever the bucket layout.
        column = [1] * 9 + [2] * 8 + [3] * 2 + [4]
        catalog = StatsCatalog()
        entry = analyze_relation(
            Relation.from_columns("R", {"a": column}), "a", catalog,
            kind="serial", buckets=buckets,
        )
        assert entry.compact is None
        service = EstimationService(catalog)
        probes = [EqualityProbe("R", "a", 99), EqualityProbe("R", "a", 1)]
        assert service.estimate_equality("R", "a", 99) == 0.0
        for batch in (probes, ProbeFrame.from_probes(probes)):
            answers = service.estimate_batch(batch)
            assert answers[0] == 0.0
            assert answers[1] == service.estimate_equality("R", "a", 1)

    @pytest.mark.parametrize("kind", ["trivial", "equi-width", "serial"])
    def test_only_end_biased_stores_compact_form(self, zipf_relation, kind):
        catalog = StatsCatalog()
        entry = analyze_relation(zipf_relation, "a", catalog, kind=kind, buckets=1)
        assert entry.histogram.is_biased()
        assert entry.compact is None

    def test_sampled_kind(self, zipf_relation):
        catalog = StatsCatalog()
        entry = analyze_relation(zipf_relation, "a", catalog, kind="sampled", buckets=5)
        assert entry.histogram is None
        assert entry.compact is not None
        # Top Zipf value is explicit and close to its true frequency.
        top_value = max(
            set(zipf_relation.column("a")), key=zipf_relation.column("a").count
        )
        assert top_value in entry.compact.explicit

    def test_buckets_clamped_to_domain(self):
        relation = Relation.from_columns("R", {"a": [1, 1, 2]})
        catalog = StatsCatalog()
        entry = analyze_relation(relation, "a", catalog, kind="serial", buckets=10)
        assert entry.histogram.bucket_count == 2

    def test_empty_relation_rejected(self):
        from repro.engine.schema import Schema

        catalog = StatsCatalog()
        with pytest.raises(ValueError, match="empty"):
            analyze_relation(Relation("E", Schema(["a"])), "a", catalog)

    def test_unknown_kind_rejected(self, zipf_relation):
        catalog = StatsCatalog()
        with pytest.raises(ValueError, match="unknown histogram kind"):
            analyze_relation(zipf_relation, "a", catalog, kind="fancy")

    def test_reanalyze_bumps_version(self, zipf_relation):
        catalog = StatsCatalog()
        analyze_relation(zipf_relation, "a", catalog)
        entry = analyze_relation(zipf_relation, "a", catalog)
        assert entry.version == 2


class TestAnalyzeSpanAndScans:
    @pytest.fixture(autouse=True)
    def fresh_obs(self):
        runtime.reset()
        clear_span_sinks()
        yield
        runtime.reset()
        clear_span_sinks()

    @pytest.mark.parametrize("kind", ["end-biased", "sampled"])
    def test_emits_one_span_tagged_with_kind_and_buckets(self, zipf_relation, kind):
        records = []
        add_span_sink(records.append)
        analyze_relation(zipf_relation, "a", StatsCatalog(), kind=kind, buckets=5)
        spans = [record for record in records if record.name == "engine.analyze"]
        assert len(spans) == 1
        assert dict(spans[0].tags) == {"kind": kind, "buckets": "5"}

    @pytest.mark.parametrize("kind", ANALYZE_KINDS)
    def test_distinct_count_needs_at_most_one_scan(self, zipf_relation, kind, monkeypatch):
        scans = []
        scan = Relation.distinct_count

        def counted(relation, attribute):
            scans.append(attribute)
            return scan(relation, attribute)

        monkeypatch.setattr(Relation, "distinct_count", counted)
        entry = analyze_relation(zipf_relation, "a", StatsCatalog(), kind=kind, buckets=5)
        assert entry.distinct_count == 40
        # The exact kinds read it off the Matrix step's distribution.
        assert len(scans) == (1 if kind == "sampled" else 0)


class TestAnalyzeDatabase:
    def test_all_attributes(self, rng):
        r1 = Relation.from_columns("A", {"x": [1, 2, 2], "y": ["p", "q", "p"]})
        r2 = Relation.from_columns("B", {"z": [7, 7, 8]})
        catalog = StatsCatalog()
        entries = analyze_database([r1, r2], catalog)
        assert len(entries) == 3
        assert ("A", "x") in catalog and ("A", "y") in catalog and ("B", "z") in catalog

    def test_restricted_attributes(self):
        r1 = Relation.from_columns("A", {"x": [1, 2], "y": ["p", "q"]})
        catalog = StatsCatalog()
        analyze_database([r1], catalog, attributes={"A": ["x"]})
        assert ("A", "x") in catalog
        assert ("A", "y") not in catalog

    def test_estimation_quality_after_analyze(self, zipf_relation):
        """End-to-end: catalog estimates track true frequencies."""
        catalog = StatsCatalog()
        analyze_relation(zipf_relation, "a", catalog, kind="end-biased", buckets=10)
        entry = catalog.require("Z", "a")
        dist = zipf_relation.frequency_distribution("a")
        top = max(dist.values, key=dist.frequency_of)
        assert entry.estimate_frequency(top) == pytest.approx(dist.frequency_of(top))
