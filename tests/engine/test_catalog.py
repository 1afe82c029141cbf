"""Tests for repro.engine.catalog."""

import numpy as np
import pytest

from repro.core.biased import v_opt_bias_hist
from repro.core.heuristic import equi_width_histogram
from repro.core.frequency import AttributeDistribution
from repro.engine.catalog import CatalogEntry, CompactEndBiased, StatsCatalog


@pytest.fixture
def skewed_histogram():
    values = ["a", "b", "c", "d", "e", "f"]
    freqs = np.array([100.0, 50.0, 5.0, 4.0, 3.0, 2.0])
    return v_opt_bias_hist(freqs, 3, values=values)


class TestCompactEndBiased:
    def test_from_histogram(self, skewed_histogram):
        compact = CompactEndBiased.from_histogram(skewed_histogram)
        assert compact.explicit == {"a": 100.0, "b": 50.0}
        assert compact.remainder_count == 4
        assert compact.remainder_average == pytest.approx(3.5)

    def test_total_and_distinct(self, skewed_histogram):
        compact = CompactEndBiased.from_histogram(skewed_histogram)
        assert compact.total == pytest.approx(164.0)
        assert compact.distinct_count == 6

    def test_estimate_explicit(self, skewed_histogram):
        compact = CompactEndBiased.from_histogram(skewed_histogram)
        assert compact.estimate_frequency("a") == 100.0

    def test_estimate_missing_bucket_rule(self, skewed_histogram):
        compact = CompactEndBiased.from_histogram(skewed_histogram)
        assert compact.estimate_frequency("c") == pytest.approx(3.5)
        assert compact.estimate_frequency("never-seen") == pytest.approx(3.5)

    def test_requires_values(self):
        hist = v_opt_bias_hist([5.0, 1.0], 2)
        with pytest.raises(ValueError, match="value-aware"):
            CompactEndBiased.from_histogram(hist)

    def test_requires_biased(self):
        dist = AttributeDistribution(list("abcdef"), [9.0, 8.0, 7.0, 3.0, 2.0, 1.0])
        hist = equi_width_histogram(dist, 3)
        if not hist.is_biased():
            with pytest.raises(ValueError, match="biased"):
                CompactEndBiased.from_histogram(hist)

    def test_all_univalued_histogram(self):
        values = ["a", "b", "c"]
        hist = v_opt_bias_hist([5.0, 3.0, 1.0], 3, values=values)
        compact = CompactEndBiased.from_histogram(hist)
        # Largest bucket becomes the implicit remainder; others explicit.
        assert compact.distinct_count == 3
        assert compact.total == pytest.approx(9.0)

    def test_negative_remainder_rejected(self):
        with pytest.raises(ValueError):
            CompactEndBiased({}, remainder_count=-1, remainder_average=1.0)


class TestCatalogEntry:
    def test_estimate_prefers_compact(self, skewed_histogram):
        compact = CompactEndBiased.from_histogram(skewed_histogram)
        entry = CatalogEntry("R", "a", "end-biased", skewed_histogram, compact, 6, 164.0)
        assert entry.estimate_frequency("a") == 100.0

    def test_estimate_via_histogram(self, skewed_histogram):
        entry = CatalogEntry("R", "a", "end-biased", skewed_histogram, None, 6, 164.0)
        assert entry.estimate_frequency("a") == 100.0

    def test_uniform_fallback(self):
        entry = CatalogEntry("R", "a", "none", None, None, 10, 200.0)
        assert entry.estimate_frequency("whatever") == 20.0
        assert entry.average_frequency() == 20.0

    def test_zero_distinct(self):
        entry = CatalogEntry("R", "a", "none", None, None, 0, 0.0)
        assert entry.estimate_frequency("x") == 0.0


class TestStatsCatalog:
    def _entry(self, relation="R", attribute="a"):
        return CatalogEntry(relation, attribute, "trivial", None, None, 5, 50.0)

    def test_put_get(self):
        catalog = StatsCatalog()
        catalog.put(self._entry())
        assert catalog.get("R", "a") is not None
        assert catalog.get("R", "zzz") is None

    def test_versioning(self):
        catalog = StatsCatalog()
        first = catalog.put(self._entry())
        assert first.version == 1
        second = catalog.put(self._entry())
        assert second.version == 2

    def test_global_version_bumps_on_put(self):
        catalog = StatsCatalog()
        assert catalog.version == 0
        catalog.put(self._entry())
        assert catalog.version == 1
        catalog.put(self._entry("S", "b"))
        assert catalog.version == 2

    def test_versions_survive_drop_and_recreate(self):
        # A re-created entry must not reuse an old version number, or a
        # compiled-table cache keyed on versions would serve stale state.
        catalog = StatsCatalog()
        first = catalog.put(self._entry())
        catalog.drop("R", "a")
        second = catalog.put(self._entry())
        assert second.version > first.version

    def test_global_version_bumps_only_on_effective_drop(self):
        catalog = StatsCatalog()
        catalog.put(self._entry())
        before = catalog.version
        catalog.drop("R", "a")
        assert catalog.version == before + 1
        # Dropping something absent is a no-op on the version counter.
        catalog.drop("R", "a")
        assert catalog.version == before + 1

    def test_require(self):
        catalog = StatsCatalog()
        with pytest.raises(KeyError, match="ANALYZE"):
            catalog.require("R", "a")
        catalog.put(self._entry())
        assert catalog.require("R", "a").relation == "R"

    def test_drop_attribute(self):
        catalog = StatsCatalog()
        catalog.put(self._entry())
        assert catalog.drop("R", "a") == 1
        assert catalog.drop("R", "a") == 0

    def test_drop_relation(self):
        catalog = StatsCatalog()
        catalog.put(self._entry("R", "a"))
        catalog.put(self._entry("R", "b"))
        catalog.put(self._entry("S", "a"))
        assert catalog.drop("R") == 2
        assert len(catalog) == 1

    def test_contains_and_entries(self):
        catalog = StatsCatalog()
        catalog.put(self._entry())
        assert ("R", "a") in catalog
        assert len(catalog.entries()) == 1

    def test_relation_rows_unknown(self):
        assert StatsCatalog().relation_rows("R") is None

    def test_relation_rows_takes_freshest_attribute(self):
        catalog = StatsCatalog()
        catalog.put(CatalogEntry("R", "a", "trivial", None, None, 5, 50.0))
        catalog.put(CatalogEntry("R", "b", "trivial", None, None, 5, 80.0))
        # The largest per-attribute total wins (freshest/fullest ANALYZE).
        assert catalog.relation_rows("R") == 80.0

    def test_relation_rows_tracks_put_and_drop(self):
        catalog = StatsCatalog()
        catalog.put(CatalogEntry("R", "a", "trivial", None, None, 5, 50.0))
        catalog.put(CatalogEntry("R", "b", "trivial", None, None, 5, 80.0))
        catalog.drop("R", "b")
        assert catalog.relation_rows("R") == 50.0
        catalog.drop("R")
        assert catalog.relation_rows("R") is None
        # Re-publishing resurrects the index.
        catalog.put(CatalogEntry("R", "a", "trivial", None, None, 5, 60.0))
        assert catalog.relation_rows("R") == 60.0

    def test_relation_rows_updates_on_replace(self):
        catalog = StatsCatalog()
        catalog.put(CatalogEntry("R", "a", "trivial", None, None, 5, 50.0))
        catalog.put(CatalogEntry("R", "a", "trivial", None, None, 5, 30.0))
        assert catalog.relation_rows("R") == 30.0
