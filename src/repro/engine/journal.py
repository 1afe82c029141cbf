"""Write-ahead journal for maintained-histogram deltas.

:class:`~repro.maint.update.MaintainedEndBiased` adjusts its counters on
every insert/delete, but until this module existed those deltas lived only
in memory: a crash between two snapshots silently discarded maintenance
history, exactly the drift source self-tuning histogram work warns about.
The :class:`MaintenanceJournal` closes that window with the classic WAL
contract:

* every acknowledged insert/delete is first appended — checksummed, with a
  monotonically increasing sequence number — to an append-only JSONL log
  and fsynced, **before** the in-memory state changes;
* on load, :func:`replay_records` re-applies the logged deltas to the
  snapshot's compact entries.  Each catalog entry carries a
  ``journal_seq`` **fence** — the journal sequence it already includes —
  so replay is idempotent: records at or below the fence are skipped, and
  a crash between snapshot and checkpoint never double-applies a delta;
* :meth:`MaintenanceJournal.checkpoint` compacts the log after a durable
  snapshot, atomically rewriting only the records still ahead of their
  entry's fence.  The rewritten log starts with a checksummed **header**
  line carrying the sequence high-water mark, so sequence numbers never
  regress below an entry's fence after a restart — without it, a
  checkpoint that empties the log would silently reset numbering to 0 and
  every later acknowledged append would be fenced out of replay.

The log mechanics — per-record CRC32 checksums, torn-tail detection and
physical repair, fsync-before-acknowledge appends, the checkpoint header
— live in :class:`repro.engine.eventlog.ChecksummedLog`, which this
journal shares with the maintenance agent's durable job queue
(:mod:`repro.maint.queue`).  This module layers the *delta* domain on
top: the record schema, replay fencing, and catalog re-application.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Hashable, Optional, Sequence

from repro.engine.catalog import CompactEndBiased, StatsCatalog
from repro.obs import runtime as obs
from repro.obs.tracing import span
from repro.engine.durable import PathLike, check_scalar
from repro.engine.eventlog import ChecksummedLog, LogFormatError, scan_log
from repro.testing.faults import (
    POINT_JOURNAL_APPEND,
    POINT_JOURNAL_CHECKPOINT,
    POINT_JOURNAL_FLUSH,
)

#: The delta operations the journal records.
JOURNAL_OPS: tuple[str, ...] = ("insert", "delete")


class JournalFormatError(LogFormatError):
    """The journal file violates the record format (beyond a torn tail)."""


class JournalReplayError(ValueError):
    """A journal record is impossible against the snapshot it targets."""


@dataclass(frozen=True)
class JournalRecord:
    """One acknowledged maintenance delta."""

    seq: int
    op: str
    relation: str
    attribute: str
    value: Hashable

    def __post_init__(self) -> None:
        if self.op not in JOURNAL_OPS:
            raise JournalFormatError(
                f"journal op must be one of {JOURNAL_OPS}, got {self.op!r}"
            )
        if self.seq < 1:
            raise JournalFormatError(f"journal seq must be >= 1, got {self.seq}")

    def payload(self) -> dict:
        """The JSON payload the record's checksum covers."""
        return {
            "seq": self.seq,
            "op": self.op,
            "relation": self.relation,
            "attribute": self.attribute,
            "value": self.value,
        }

    @classmethod
    def from_payload(cls, payload: object) -> "JournalRecord":
        """Validate and rebuild a record from its JSON payload."""
        if not isinstance(payload, dict):
            raise JournalFormatError(
                f"journal payload must be an object, got {type(payload).__name__}"
            )
        try:
            seq = payload["seq"]
            op = payload["op"]
            relation = payload["relation"]
            attribute = payload["attribute"]
            value = payload["value"]
        except KeyError as missing:
            raise JournalFormatError(
                f"journal payload is missing key {missing.args[0]!r}"
            ) from None
        if not isinstance(seq, int) or isinstance(seq, bool):
            raise JournalFormatError(f"journal seq must be an int, got {seq!r}")
        if not isinstance(relation, str) or not isinstance(attribute, str):
            raise JournalFormatError(
                "journal relation/attribute must be strings, got "
                f"{relation!r}/{attribute!r}"
            )
        check_scalar(value, "journal value")
        return cls(seq=seq, op=op, relation=relation, attribute=attribute, value=value)


def _validate_payload(payload: dict) -> None:
    """Event-log validation hook: every payload must decode as a record."""
    JournalRecord.from_payload(payload)


def read_journal(
    path: PathLike, *, strict: bool = False
) -> tuple[list[JournalRecord], bool]:
    """Read every intact record of the journal at *path*.

    Returns ``(records, torn)``.  A missing file reads as an empty,
    untorn journal.  A bad tail record (truncated write, checksum
    mismatch) stops the read there: with ``strict=False`` the intact
    prefix is returned and ``torn`` is True; with ``strict=True`` a
    :class:`JournalFormatError` is raised.  Sequence numbers must be
    strictly increasing — a violation is corruption, not a torn tail.
    The checkpoint header, when present, is validated but not returned.
    """
    if not isinstance(path, (str, Path)):
        raise TypeError(f"path must be str or Path, got {type(path).__name__}")
    try:
        scan = scan_log(Path(path), strict=strict, validate=_validate_payload)
    except JournalFormatError:
        raise
    except LogFormatError as exc:
        # Generic log-format failures surface under the journal's own
        # error type so callers keep one exception to catch.
        raise JournalFormatError(str(exc)) from exc
    records = [JournalRecord.from_payload(payload) for payload in scan.payloads]
    return records, scan.torn


@dataclass
class JournalReplayStats:
    """What :func:`replay_records` did."""

    #: Deltas applied to catalog entries.
    applied: int = 0
    #: Deltas skipped because the entry's fence already includes them.
    fenced: int = 0
    #: Deltas whose target entry is missing, quarantined, or not compact.
    orphaned: int = 0
    #: Deltas that were impossible (delete from an empty bucket) and were
    #: dropped in recovery mode.
    anomalies: int = 0


def replay_records(
    catalog: StatsCatalog,
    records: Sequence[JournalRecord],
    *,
    strict: bool = False,
    skip_keys: frozenset = frozenset(),
) -> JournalReplayStats:
    """Re-apply journal *records* to the compact entries of *catalog*.

    Records are grouped per (relation, attribute) and applied in sequence
    order, fenced by each entry's ``journal_seq``.  Updated entries are
    re-``put`` so the catalog's version counters advance and serving-layer
    caches invalidate.  With ``strict=True`` an impossible delta raises
    :class:`JournalReplayError`; otherwise it is counted as an anomaly and
    dropped.  Keys in *skip_keys* (quarantined entries) are never touched.
    """
    if not isinstance(catalog, StatsCatalog):
        raise TypeError(f"catalog must be a StatsCatalog, got {type(catalog).__name__}")
    stats = JournalReplayStats()
    groups: dict[tuple[str, str], list[JournalRecord]] = {}
    for record in records:
        groups.setdefault((record.relation, record.attribute), []).append(record)
    for key, group in groups.items():
        if key in skip_keys:
            stats.orphaned += len(group)
            continue
        entry = catalog.get(*key)
        if entry is None or entry.compact is None:
            stats.orphaned += len(group)
            continue
        fence = entry.journal_seq
        live = [record for record in group if record.seq > fence]
        stats.fenced += len(group) - len(live)
        if not live:
            continue
        explicit = dict(entry.compact.explicit)
        remainder_count = entry.compact.remainder_count
        remainder_total = remainder_count * entry.compact.remainder_average
        total = float(entry.total_tuples)
        applied_here = 0
        for record in live:
            if record.op == "insert":
                if record.value in explicit:
                    explicit[record.value] += 1.0
                else:
                    if remainder_count == 0:
                        remainder_count = 1
                    remainder_total += 1.0
                total += 1.0
            else:  # delete
                if record.value in explicit:
                    if explicit[record.value] <= 0:
                        if strict:
                            raise JournalReplayError(
                                f"journal seq {record.seq} deletes "
                                f"{record.value!r} from {record.relation}."
                                f"{record.attribute}, but its count is already 0"
                            )
                        stats.anomalies += 1
                        continue
                    explicit[record.value] -= 1.0
                elif remainder_total <= 0:
                    if strict:
                        raise JournalReplayError(
                            f"journal seq {record.seq} deletes from the empty "
                            f"implicit bucket of {record.relation}."
                            f"{record.attribute}"
                        )
                    stats.anomalies += 1
                    continue
                else:
                    remainder_total -= 1.0
                total -= 1.0
            applied_here += 1
        stats.applied += applied_here
        entry.compact = CompactEndBiased(
            explicit=explicit,
            remainder_count=remainder_count,
            remainder_average=(
                remainder_total / remainder_count if remainder_count else 0.0
            ),
        )
        entry.total_tuples = max(total, 0.0)
        entry.distinct_count = len(explicit) + remainder_count
        catalog.put(entry)
        entry.journal_seq = live[-1].seq
    return stats


class MaintenanceJournal:
    """The append-only delta log one or more maintained histograms share.

    Every append is fsynced before it is acknowledged — the WAL contract
    (each fsync is timed by a ``journal.fsync`` span).
    """

    def __init__(self, path: PathLike):
        self._log = ChecksummedLog(
            path, validate=_validate_payload, fsync_span="journal.fsync"
        )

    @property
    def path(self) -> Path:
        """Where the journal lives."""
        return self._log.path

    @property
    def last_seq(self) -> int:
        """Sequence number of the last acknowledged record (0 when empty)."""
        return self._log.last_seq

    def __len__(self) -> int:
        return len(self.pending())

    def pending(self) -> list[JournalRecord]:
        """Every intact record currently in the log."""
        records, _ = read_journal(self._log.path, strict=False)
        return records

    # ------------------------------------------------------------------
    # Appending (the write-ahead path)
    # ------------------------------------------------------------------

    def append_insert(
        self, relation: str, attribute: str, value: Hashable
    ) -> JournalRecord:
        """Durably log one inserted tuple's value before it is applied."""
        return self._append("insert", relation, attribute, value)

    def append_delete(
        self, relation: str, attribute: str, value: Hashable
    ) -> JournalRecord:
        """Durably log one deleted tuple's value before it is applied."""
        return self._append("delete", relation, attribute, value)

    def _append(
        self, op: str, relation: str, attribute: str, value: Hashable
    ) -> JournalRecord:
        if not isinstance(relation, str) or not relation:
            raise TypeError(f"relation must be a non-empty str, got {relation!r}")
        if not isinstance(attribute, str) or not attribute:
            raise TypeError(f"attribute must be a non-empty str, got {attribute!r}")
        check_scalar(value, f"journal delta for {relation}.{attribute}")
        with span("journal.append", op=op):
            stamped = self._log.append(
                {"op": op, "relation": relation, "attribute": attribute, "value": value},
                fault_append=POINT_JOURNAL_APPEND,
                fault_flush=POINT_JOURNAL_FLUSH,
            )
        record = JournalRecord.from_payload(stamped)
        obs.count("repro_journal_appends_total", op=op)
        return record

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------

    def checkpoint(self, catalog: Optional[StatsCatalog] = None) -> int:
        """Compact the log after a durable snapshot; returns records dropped.

        With a *catalog*, records at or below their entry's ``journal_seq``
        fence — and records whose entry no longer exists — are dropped;
        records still ahead of their fence are kept (rewritten atomically).
        Without a catalog the whole log is dropped.  The rewritten log
        leads with a header carrying the sequence high-water mark (the max
        of every seq ever appended and every fence in *catalog*), so a
        journal reopened after the checkpoint resumes numbering above every
        fence instead of regressing to 0.  Correctness never depends on
        this call: replay fences make re-applying old records a no-op, so
        a crash between snapshot and checkpoint is harmless.
        """
        with span("journal.checkpoint"):
            scan = self._log.scan(strict=False)
            records = [JournalRecord.from_payload(p) for p in scan.payloads]
            keep: list[JournalRecord] = []
            last_seq = max(self._log.last_seq, scan.last_seq)
            if catalog is not None:
                if not isinstance(catalog, StatsCatalog):
                    raise TypeError(
                        f"catalog must be a StatsCatalog, got {type(catalog).__name__}"
                    )
                for entry in catalog.entries():
                    last_seq = max(last_seq, entry.journal_seq)
                for record in records:
                    entry = catalog.get(record.relation, record.attribute)
                    if entry is not None and record.seq > entry.journal_seq:
                        keep.append(record)
            self._log.rewrite(
                [record.payload() for record in keep],
                last_seq=last_seq,
                fault_rewrite=POINT_JOURNAL_CHECKPOINT,
            )
        dropped = len(records) - len(keep)
        obs.count("repro_journal_checkpoints_total")
        obs.emit_event(
            "journal.checkpoint",
            path=str(self.path),
            dropped=dropped,
            kept=len(keep),
            last_seq=self._log.last_seq,
        )
        return dropped
