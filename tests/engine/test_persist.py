"""Tests for repro.engine.persist — catalog serialisation and recovery."""

import json
import math

import numpy as np
import pytest

from repro.data.quantize import quantize_to_integers
from repro.data.zipf import zipf_frequencies
from repro.engine.analyze import analyze_relation
from repro.engine.catalog import CatalogEntry, CompactEndBiased, StatsCatalog
from repro.engine.durable import canonical_json, checksum, temporary_path
from repro.engine.persist import (
    CatalogFormatError,
    RecoveryReport,
    catalog_from_dict,
    catalog_to_dict,
    load_catalog,
    save_catalog,
)
from repro.engine.relation import Relation


def compact_entry(
    relation="R", attribute="a", explicit=None, remainder=(2, 1.5)
) -> CatalogEntry:
    explicit = {"x": 5.0, "y": 3.0} if explicit is None else explicit
    compact = CompactEndBiased(
        explicit=explicit,
        remainder_count=remainder[0],
        remainder_average=remainder[1],
    )
    return CatalogEntry(
        relation=relation,
        attribute=attribute,
        kind="end-biased",
        histogram=None,
        compact=compact,
        distinct_count=compact.distinct_count,
        total_tuples=compact.total,
    )


def checksummed_document(*payloads) -> dict:
    """A format-2 catalog document whose entries wrap *payloads* intact."""
    return {
        "format": "repro-stats-catalog",
        "version": 2,
        "entries": [
            {"checksum": checksum(canonical_json(payload)), "payload": payload}
            for payload in payloads
        ],
    }


@pytest.fixture
def populated_catalog(rng):
    freqs = quantize_to_integers(zipf_frequencies(500, 25, 1.2))
    column = [v for v, f in enumerate(freqs) for _ in range(int(f))]
    rng.shuffle(column)
    relation = Relation.from_columns("R", {"a": column, "b": [x % 7 for x in column]})
    catalog = StatsCatalog()
    analyze_relation(relation, "a", catalog, kind="end-biased", buckets=6)
    analyze_relation(relation, "b", catalog, kind="serial", buckets=4)
    analyze_relation(relation, "a", catalog, kind="sampled", buckets=6)  # v2
    return catalog


class TestRoundTrip:
    def test_dict_round_trip(self, populated_catalog):
        restored = catalog_from_dict(catalog_to_dict(populated_catalog))
        assert len(restored) == len(populated_catalog)
        for entry in populated_catalog.entries():
            twin = restored.require(entry.relation, entry.attribute)
            assert twin.kind == entry.kind
            assert twin.distinct_count == entry.distinct_count
            assert twin.total_tuples == entry.total_tuples
            assert twin.version == entry.version

    def test_histogram_preserved(self, populated_catalog):
        restored = catalog_from_dict(catalog_to_dict(populated_catalog))
        original = populated_catalog.require("R", "b").histogram
        twin = restored.require("R", "b").histogram
        assert twin == original
        assert twin.kind == original.kind

    def test_compact_preserved(self, populated_catalog):
        restored = catalog_from_dict(catalog_to_dict(populated_catalog))
        original = populated_catalog.require("R", "a").compact
        twin = restored.require("R", "a").compact
        assert twin.explicit == original.explicit
        assert twin.remainder_count == original.remainder_count
        assert twin.remainder_average == pytest.approx(original.remainder_average)

    def test_estimates_identical_after_restore(self, populated_catalog):
        restored = catalog_from_dict(catalog_to_dict(populated_catalog))
        for entry in populated_catalog.entries():
            twin = restored.require(entry.relation, entry.attribute)
            for value in (0, 1, 5, "zzz"):
                assert twin.estimate_frequency(value) == pytest.approx(
                    entry.estimate_frequency(value)
                )

    def test_file_round_trip(self, populated_catalog, tmp_path):
        path = tmp_path / "catalog.json"
        save_catalog(populated_catalog, path)
        restored = load_catalog(path)
        assert len(restored) == len(populated_catalog)

    def test_file_is_valid_json(self, populated_catalog, tmp_path):
        path = tmp_path / "catalog.json"
        save_catalog(populated_catalog, path)
        data = json.loads(path.read_text())
        assert data["format"] == "repro-stats-catalog"


class TestValidation:
    def test_rejects_foreign_format(self):
        with pytest.raises(ValueError, match="not a repro stats catalog"):
            catalog_from_dict({"format": "something-else", "version": 1, "entries": []})

    def test_rejects_unknown_version(self):
        with pytest.raises(ValueError, match="unsupported catalog version"):
            catalog_from_dict(
                {"format": "repro-stats-catalog", "version": 99, "entries": []}
            )

    def test_rejects_unserialisable_values(self):
        relation = Relation.from_columns("R", {"a": [(1, 2), (1, 2), (3, 4)]})
        catalog = StatsCatalog()
        analyze_relation(relation, "a", catalog, kind="end-biased", buckets=2)
        with pytest.raises(TypeError, match="not JSON-serialisable"):
            catalog_to_dict(catalog)

    def test_empty_catalog(self, tmp_path):
        path = tmp_path / "empty.json"
        save_catalog(StatsCatalog(), path)
        assert len(load_catalog(path)) == 0

    def test_rejects_nan_total_tuples(self):
        catalog = StatsCatalog()
        entry = compact_entry()
        entry.total_tuples = float("nan")
        catalog.put(entry)
        with pytest.raises(ValueError, match="non-finite"):
            catalog_to_dict(catalog)

    def test_rejects_infinite_compact_frequency(self):
        catalog = StatsCatalog()
        catalog.put(compact_entry(explicit={"x": math.inf}))
        with pytest.raises(ValueError, match="non-finite"):
            catalog_to_dict(catalog)

    def test_rejects_nan_explicit_value(self):
        # A NaN *attribute value* (dict key) is as unrepresentable as a NaN
        # frequency: allow_nan=True JSON would silently emit `NaN` tokens.
        catalog = StatsCatalog()
        catalog.put(compact_entry(explicit={float("nan"): 2.0}))
        with pytest.raises(ValueError, match="non-finite"):
            catalog_to_dict(catalog)

    def test_load_rejects_nonstandard_json_constants(self, tmp_path):
        path = tmp_path / "catalog.json"
        catalog = StatsCatalog()
        catalog.put(compact_entry())
        save_catalog(catalog, path)
        path.write_text(path.read_text().replace("5.0", "NaN", 1))
        with pytest.raises(CatalogFormatError, match="non-standard JSON|checksum"):
            load_catalog(path)

    def test_unknown_histogram_kind_is_typed_error(self):
        data = checksummed_document(
            {
                "relation": "R",
                "attribute": "a",
                "kind": "equi-width",
                "distinct_count": 2,
                "total_tuples": 4.0,
                "version": 1,
                "journal_seq": 0,
                "histogram": {
                    "frequencies": [3.0, 1.0],
                    "groups": [[0], [1]],
                    "kind": "made-up-kind",
                    "values": None,
                },
                "compact": None,
            }
        )
        with pytest.raises(CatalogFormatError, match="unknown histogram kind"):
            catalog_from_dict(data)

    def test_out_of_bounds_group_index_is_typed_error(self):
        data = checksummed_document(
            {
                "relation": "R",
                "attribute": "a",
                "kind": "equi-width",
                "distinct_count": 2,
                "total_tuples": 4.0,
                "version": 1,
                "journal_seq": 0,
                "histogram": {
                    "frequencies": [3.0, 1.0],
                    "groups": [[0], [7]],
                    "kind": "equi-width",
                    "values": None,
                },
                "compact": None,
            }
        )
        with pytest.raises(CatalogFormatError, match="out of bounds"):
            catalog_from_dict(data)

    def test_malformed_entry_payload_is_typed_error(self):
        catalog = StatsCatalog()
        catalog.put(compact_entry())
        unfenced = catalog_to_dict(catalog)["entries"][0]["payload"]
        del unfenced["journal_seq"]  # required like every other key
        for payload, key in (({"relation": "R"}, "attribute"), (unfenced, "journal_seq")):
            with pytest.raises(CatalogFormatError, match=f"missing key '{key}'"):
                catalog_from_dict(checksummed_document(payload))

    def test_version_1_document_is_rejected(self, populated_catalog, tmp_path):
        # The pre-checksum format: bare payloads under "version": 1.
        data = catalog_to_dict(populated_catalog)
        legacy = {
            "format": "repro-stats-catalog",
            "version": 1,
            "entries": [item["payload"] for item in data["entries"]],
        }
        path = tmp_path / "legacy.json"
        path.write_text(json.dumps(legacy))
        with pytest.raises(CatalogFormatError, match="unsupported catalog version 1"):
            load_catalog(path)
        report = load_catalog(path, recover=True)
        assert report.snapshot_found and not report.snapshot_ok
        assert len(report.catalog) == 0
        assert [q.relation for q in report.quarantined] == [None]
        assert "unsupported catalog version 1" in report.quarantined[0].reason

    def test_catalog_format_error_is_value_error(self):
        assert issubclass(CatalogFormatError, ValueError)


class TestChecksums:
    def test_entries_are_checksummed(self, populated_catalog):
        data = catalog_to_dict(populated_catalog)
        assert data["version"] == 2
        for item in data["entries"]:
            assert set(item) == {"checksum", "payload"}

    def test_strict_load_detects_corruption(self, populated_catalog, tmp_path):
        path = tmp_path / "catalog.json"
        save_catalog(populated_catalog, path)
        data = json.loads(path.read_text())
        data["entries"][0]["payload"]["total_tuples"] = 999999.0
        path.write_text(json.dumps(data))
        with pytest.raises(CatalogFormatError, match="checksum mismatch"):
            load_catalog(path)

    def test_recover_quarantines_corrupt_entry(self, populated_catalog, tmp_path):
        path = tmp_path / "catalog.json"
        save_catalog(populated_catalog, path)
        data = json.loads(path.read_text())
        data["entries"][0]["payload"]["total_tuples"] = 999999.0
        corrupted = data["entries"][0]["payload"]
        path.write_text(json.dumps(data))
        report = load_catalog(path, recover=True)
        assert isinstance(report, RecoveryReport)
        assert not report.clean
        assert len(report.quarantined) == 1
        assert report.quarantined[0].relation == corrupted["relation"]
        assert report.quarantined[0].attribute == corrupted["attribute"]
        assert report.entries_loaded == len(populated_catalog) - 1
        key = (corrupted["relation"], corrupted["attribute"])
        assert report.catalog.get(*key) is None

    def test_recover_on_clean_snapshot_is_clean(self, populated_catalog, tmp_path):
        path = tmp_path / "catalog.json"
        save_catalog(populated_catalog, path)
        report = load_catalog(path, recover=True)
        assert report.clean
        assert report.entries_loaded == len(populated_catalog)
        assert "clean" in report.summary()

    def test_recover_missing_snapshot(self, tmp_path):
        report = load_catalog(tmp_path / "absent.json", recover=True)
        assert not report.snapshot_found
        assert len(report.catalog) == 0
        assert not report.clean

    def test_recover_unparseable_snapshot(self, tmp_path):
        path = tmp_path / "catalog.json"
        path.write_text("{ this is not json")
        report = load_catalog(path, recover=True)
        assert report.snapshot_found and not report.snapshot_ok
        assert len(report.catalog) == 0

    def test_strict_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_catalog(tmp_path / "absent.json")


class TestAtomicity:
    def test_save_replaces_atomically(self, populated_catalog, tmp_path):
        path = tmp_path / "catalog.json"
        save_catalog(populated_catalog, path)
        first = path.read_text()
        catalog = StatsCatalog()
        catalog.put(compact_entry())
        save_catalog(catalog, path)
        assert path.read_text() != first
        assert len(load_catalog(path)) == 1

    def test_no_temporary_residue_after_save(self, populated_catalog, tmp_path):
        path = tmp_path / "catalog.json"
        save_catalog(populated_catalog, path)
        assert not temporary_path(path).exists()

    def test_stale_tmp_residue_is_harmless(self, populated_catalog, tmp_path):
        path = tmp_path / "catalog.json"
        temporary_path(path).write_text("torn half-written snapshot")
        save_catalog(populated_catalog, path)
        assert len(load_catalog(path)) == len(populated_catalog)
        assert not temporary_path(path).exists()

    def test_version_counters_round_trip(self, populated_catalog, tmp_path):
        path = tmp_path / "catalog.json"
        save_catalog(populated_catalog, path)
        restored = load_catalog(path)
        for entry in populated_catalog.entries():
            twin = restored.require(entry.relation, entry.attribute)
            assert twin.version == entry.version
            assert twin.journal_seq == entry.journal_seq

