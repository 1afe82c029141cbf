"""Tests for repro.engine.journal — the maintenance write-ahead log."""

import json

import pytest

from repro.engine.catalog import CatalogEntry, CompactEndBiased, StatsCatalog
from repro.engine.journal import (
    JournalFormatError,
    JournalRecord,
    JournalReplayError,
    MaintenanceJournal,
    read_journal,
    replay_records,
)
from repro.engine.persist import load_catalog, save_catalog


def compact_entry(relation="R", attribute="a"):
    compact = CompactEndBiased(
        explicit={"x": 5.0, "y": 3.0}, remainder_count=4, remainder_average=1.5
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


class TestAppend:
    def test_sequence_numbers_increase(self, tmp_path):
        journal = MaintenanceJournal(tmp_path / "wal.jsonl")
        assert journal.last_seq == 0
        first = journal.append_insert("R", "a", "x")
        second = journal.append_delete("R", "a", "y")
        assert (first.seq, second.seq) == (1, 2)
        assert journal.last_seq == 2
        assert len(journal) == 2

    def test_reopen_resumes_sequence(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        MaintenanceJournal(path).append_insert("R", "a", "x")
        journal = MaintenanceJournal(path)
        assert journal.last_seq == 1
        assert journal.append_insert("R", "a", "y").seq == 2

    def test_rejects_non_scalar_values(self, tmp_path):
        journal = MaintenanceJournal(tmp_path / "wal.jsonl")
        with pytest.raises(TypeError, match="not JSON-serialisable"):
            journal.append_insert("R", "a", (1, 2))
        assert journal.last_seq == 0
        assert len(journal) == 0

    def test_rejects_empty_relation(self, tmp_path):
        journal = MaintenanceJournal(tmp_path / "wal.jsonl")
        with pytest.raises(TypeError, match="relation"):
            journal.append_insert("", "a", "x")

    def test_records_are_checksummed_jsonl(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        MaintenanceJournal(path).append_insert("R", "a", "x")
        envelope = json.loads(path.read_text().splitlines()[0])
        assert set(envelope) == {"checksum", "payload"}
        assert envelope["payload"]["op"] == "insert"


class TestTornTail:
    def test_truncated_tail_detected(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        journal = MaintenanceJournal(path)
        journal.append_insert("R", "a", "x")
        journal.append_insert("R", "a", "y")
        blob = path.read_bytes()
        path.write_bytes(blob[:-7])  # tear the last record mid-write
        records, torn = read_journal(path)
        assert torn
        assert [r.value for r in records] == ["x"]

    def test_strict_read_raises_on_torn_tail(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        journal = MaintenanceJournal(path)
        journal.append_insert("R", "a", "x")
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(JournalFormatError):
            read_journal(path, strict=True)

    def test_reopen_truncates_torn_tail_so_appends_stay_visible(self, tmp_path):
        # Regression: appends after a torn line used to land behind bytes
        # read_journal can never get past, losing acknowledged records.
        path = tmp_path / "wal.jsonl"
        journal = MaintenanceJournal(path)
        journal.append_insert("R", "a", "x")
        journal.append_insert("R", "a", "y")
        path.write_bytes(path.read_bytes()[:-7])
        reopened = MaintenanceJournal(path)
        assert reopened.last_seq == 1  # the torn record was never acknowledged
        reopened.append_insert("R", "a", "z")
        records, torn = read_journal(path)
        assert not torn  # reopening truncated the half-written bytes
        assert [r.seq for r in records] == [1, 2]
        assert [r.value for r in records] == ["x", "z"]

    def test_reopen_repairs_missing_trailing_newline(self, tmp_path):
        # A record whose bytes all landed except the terminating newline is
        # intact data; reopening must not let the next append glue onto it.
        path = tmp_path / "wal.jsonl"
        MaintenanceJournal(path).append_insert("R", "a", "x")
        path.write_bytes(path.read_bytes().rstrip(b"\n"))
        reopened = MaintenanceJournal(path)
        assert reopened.last_seq == 1
        reopened.append_insert("R", "a", "y")
        records, torn = read_journal(path)
        assert not torn
        assert [r.seq for r in records] == [1, 2]

    def test_read_only_access_never_mutates_a_torn_file(self, tmp_path):
        # Truncation is a writer's repair; plain reads must leave the
        # evidence in place for `repro stats check`.
        path = tmp_path / "wal.jsonl"
        journal = MaintenanceJournal(path)
        journal.append_insert("R", "a", "x")
        journal.append_insert("R", "a", "y")
        torn_blob = path.read_bytes()[:-7]
        path.write_bytes(torn_blob)
        records, torn = read_journal(path)
        assert torn and len(records) == 1
        assert path.read_bytes() == torn_blob

    def test_missing_file_reads_empty(self, tmp_path):
        records, torn = read_journal(tmp_path / "absent.jsonl")
        assert records == [] and not torn

    def test_backwards_sequence_is_corruption(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        journal = MaintenanceJournal(path)
        journal.append_insert("R", "a", "x")
        journal.append_insert("R", "a", "y")
        lines = path.read_text().splitlines(keepends=True)
        path.write_text(lines[1] + lines[0])
        with pytest.raises(JournalFormatError, match="backwards"):
            read_journal(path, strict=True)


class TestReplay:
    def test_insert_and_delete_replay(self, tmp_path):
        catalog = StatsCatalog()
        catalog.put(compact_entry())
        records = [
            JournalRecord(seq=1, op="insert", relation="R", attribute="a", value="x"),
            JournalRecord(seq=2, op="insert", relation="R", attribute="a", value="new"),
            JournalRecord(seq=3, op="delete", relation="R", attribute="a", value="y"),
        ]
        stats = replay_records(catalog, records)
        assert stats.applied == 3 and stats.anomalies == 0
        entry = catalog.require("R", "a")
        assert entry.compact.explicit["x"] == 6.0
        assert entry.compact.explicit["y"] == 2.0
        assert entry.total_tuples == pytest.approx(15.0)
        assert entry.journal_seq == 3

    def test_fence_skips_already_applied(self, tmp_path):
        catalog = StatsCatalog()
        entry = compact_entry()
        entry.journal_seq = 2
        catalog.put(entry)
        records = [
            JournalRecord(seq=1, op="insert", relation="R", attribute="a", value="x"),
            JournalRecord(seq=2, op="insert", relation="R", attribute="a", value="x"),
            JournalRecord(seq=3, op="insert", relation="R", attribute="a", value="x"),
        ]
        stats = replay_records(catalog, records)
        assert stats.fenced == 2 and stats.applied == 1
        assert catalog.require("R", "a").compact.explicit["x"] == 6.0

    def test_replay_is_idempotent(self, tmp_path):
        catalog = StatsCatalog()
        catalog.put(compact_entry())
        records = [
            JournalRecord(seq=1, op="insert", relation="R", attribute="a", value="x"),
        ]
        replay_records(catalog, records)
        stats = replay_records(catalog, records)  # crash-between-checkpoint rerun
        assert stats.applied == 0 and stats.fenced == 1
        assert catalog.require("R", "a").compact.explicit["x"] == 6.0

    def test_orphaned_records_counted(self, tmp_path):
        catalog = StatsCatalog()
        records = [
            JournalRecord(seq=1, op="insert", relation="GONE", attribute="a", value=1),
        ]
        stats = replay_records(catalog, records)
        assert stats.orphaned == 1 and stats.applied == 0

    def test_skip_keys_respected(self, tmp_path):
        catalog = StatsCatalog()
        catalog.put(compact_entry())
        records = [
            JournalRecord(seq=1, op="insert", relation="R", attribute="a", value="x"),
        ]
        stats = replay_records(catalog, records, skip_keys=frozenset({("R", "a")}))
        assert stats.orphaned == 1
        assert catalog.require("R", "a").compact.explicit["x"] == 5.0

    def test_impossible_delete_strict_raises(self, tmp_path):
        catalog = StatsCatalog()
        catalog.put(
            CatalogEntry(
                relation="R",
                attribute="a",
                kind="end-biased",
                histogram=None,
                compact=CompactEndBiased(
                    explicit={"x": 1.0}, remainder_count=0, remainder_average=0.0
                ),
                distinct_count=1,
                total_tuples=1.0,
            )
        )
        records = [
            JournalRecord(seq=1, op="delete", relation="R", attribute="a", value="nope"),
        ]
        with pytest.raises(JournalReplayError):
            replay_records(catalog, records, strict=True)
        stats = replay_records(catalog, records)  # lenient mode drops it
        assert stats.anomalies == 1

    def test_replay_bumps_catalog_version(self, tmp_path):
        catalog = StatsCatalog()
        catalog.put(compact_entry())
        before = catalog.version
        replay_records(
            catalog,
            [JournalRecord(seq=1, op="insert", relation="R", attribute="a", value="x")],
        )
        assert catalog.version > before  # serving caches must invalidate


class TestCheckpoint:
    def test_checkpoint_drops_fenced_records(self, tmp_path):
        catalog = StatsCatalog()
        catalog.put(compact_entry())
        journal = MaintenanceJournal(tmp_path / "wal.jsonl")
        journal.append_insert("R", "a", "x")
        journal.append_insert("R", "a", "y")
        replay_records(catalog, journal.pending())
        dropped = journal.checkpoint(catalog)
        assert dropped == 2
        assert len(journal) == 0

    def test_checkpoint_keeps_unfenced_records(self, tmp_path):
        catalog = StatsCatalog()
        catalog.put(compact_entry())
        journal = MaintenanceJournal(tmp_path / "wal.jsonl")
        journal.append_insert("R", "a", "x")
        assert journal.checkpoint(catalog) == 0  # fence still 0: record kept
        assert len(journal) == 1

    def test_checkpoint_without_catalog_clears(self, tmp_path):
        journal = MaintenanceJournal(tmp_path / "wal.jsonl")
        journal.append_insert("R", "a", "x")
        assert journal.checkpoint() == 1
        assert len(journal) == 0

    def test_checkpoint_then_restart_does_not_regress_sequence(self, tmp_path):
        # Regression: a checkpoint that emptied the log used to reset
        # numbering to 0 on the next restart, so acknowledged appends got
        # seq <= fence and replay silently skipped them.
        path = tmp_path / "wal.jsonl"
        catalog = StatsCatalog()
        catalog.put(compact_entry())
        journal = MaintenanceJournal(path)
        journal.append_insert("R", "a", "x")
        replay_records(catalog, journal.pending())  # fence -> 1
        assert journal.checkpoint(catalog) == 1  # log now empty but fenced at 1
        reopened = MaintenanceJournal(path)
        assert reopened.last_seq == 1  # the header keeps the high-water mark
        record = reopened.append_insert("R", "a", "y")
        assert record.seq == 2  # above the fence: replay will apply it
        stats = replay_records(catalog, reopened.pending())
        assert stats.applied == 1 and stats.fenced == 0
        assert catalog.require("R", "a").compact.explicit["y"] == 4.0

    def test_checkpoint_header_covers_catalog_fences(self, tmp_path):
        # Even a journal that never saw the earlier appends (e.g. the file
        # was lost) must resume numbering above every snapshot fence.
        path = tmp_path / "wal.jsonl"
        catalog = StatsCatalog()
        entry = compact_entry()
        entry.journal_seq = 9
        catalog.put(entry)
        journal = MaintenanceJournal(path)
        journal.checkpoint(catalog)
        reopened = MaintenanceJournal(path)
        assert reopened.last_seq == 9
        assert reopened.append_insert("R", "a", "x").seq == 10

    def test_header_is_checksummed(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        journal = MaintenanceJournal(path)
        journal.append_insert("R", "a", "x")
        journal.checkpoint()
        header_line = path.read_text().splitlines()[0]
        assert "journal-header" in header_line
        corrupted = header_line.replace('"last_seq":1', '"last_seq":0')
        path.write_text(corrupted + "\n")
        with pytest.raises(JournalFormatError, match="header checksum"):
            read_journal(path, strict=True)
        records, torn = read_journal(path)  # lenient: treated as torn
        assert torn and records == []

    def test_save_catalog_checkpoints_journal(self, tmp_path):
        catalog = StatsCatalog()
        catalog.put(compact_entry())
        journal = MaintenanceJournal(tmp_path / "wal.jsonl")
        journal.append_insert("R", "a", "x")
        replay_records(catalog, journal.pending())
        save_catalog(catalog, tmp_path / "cat.json", journal=journal)
        assert len(journal) == 0
        restored = load_catalog(tmp_path / "cat.json")
        assert restored.require("R", "a").compact.explicit["x"] == 6.0


class TestStrictLoadWithJournal:
    """Strict ``load_catalog(..., journal=)`` raises the journal's own
    error types, not :class:`CatalogFormatError`."""

    @staticmethod
    def _snapshot(tmp_path, explicit=None, remainder=(4, 1.5)):
        catalog = StatsCatalog()
        entry = compact_entry()
        if explicit is not None:
            entry.compact = CompactEndBiased(
                explicit=explicit,
                remainder_count=remainder[0],
                remainder_average=remainder[1],
            )
        catalog.put(entry)
        path = tmp_path / "cat.json"
        save_catalog(catalog, path)
        return path, MaintenanceJournal(tmp_path / "wal.jsonl")

    def test_clean_journal_replays(self, tmp_path):
        path, journal = self._snapshot(tmp_path)
        journal.append_insert("R", "a", "x")
        journal.append_delete("R", "a", "y")
        restored = load_catalog(path, journal=journal.path)
        entry = restored.require("R", "a")
        assert entry.compact.explicit == {"x": 6.0, "y": 2.0}
        assert entry.journal_seq == 2

    def test_torn_tail_raises_journal_format_error(self, tmp_path):
        path, journal = self._snapshot(tmp_path)
        journal.append_insert("R", "a", "x")
        journal.path.write_bytes(journal.path.read_bytes()[:-5])
        with pytest.raises(JournalFormatError):
            load_catalog(path, journal=journal.path)

    def test_impossible_delete_raises_journal_replay_error(self, tmp_path):
        path, journal = self._snapshot(tmp_path, explicit={"x": 1.0}, remainder=(0, 0.0))
        journal.append_delete("R", "a", "nope")
        with pytest.raises(JournalReplayError, match="empty implicit bucket"):
            load_catalog(path, journal=journal.path)


class TestRecordValidation:
    def test_rejects_unknown_op(self):
        with pytest.raises(JournalFormatError, match="op"):
            JournalRecord(seq=1, op="upsert", relation="R", attribute="a", value=1)

    def test_rejects_bad_seq(self):
        with pytest.raises(JournalFormatError, match="seq"):
            JournalRecord(seq=0, op="insert", relation="R", attribute="a", value=1)

    def test_from_payload_round_trip(self):
        record = JournalRecord(seq=7, op="delete", relation="R", attribute="a", value=3)
        assert JournalRecord.from_payload(record.payload()) == record

    def test_from_payload_rejects_garbage(self):
        with pytest.raises(JournalFormatError):
            JournalRecord.from_payload({"seq": "one", "op": "insert"})
