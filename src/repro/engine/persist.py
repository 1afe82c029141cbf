"""Crash-safe catalog persistence: versioned, checksummed, recoverable.

Production systems keep histogram statistics in persistent catalog tables
(the paper points at DB2's ``SYSIBM.SYSCOLDIST``), and those tables must
survive crashes.  This module serialises a
:class:`~repro.engine.catalog.StatsCatalog` to a durable on-disk format:

**Format** (version 2) — one JSON document with a format header and a list
of entries, each wrapped as ``{"checksum": crc32, "payload": {...}}``.
The checksum is CRC32 over the payload's canonical JSON encoding
(:func:`repro.engine.durable.canonical_json`), so a torn or hand-mangled
entry is detected at load time instead of silently poisoning estimates.
Any other version, the pre-checksum version 1 included, is rejected.

**Atomicity** — :func:`save_catalog` writes through
:func:`repro.engine.durable.atomic_write_text` (temp file + fsync +
``os.replace`` + directory fsync): a crash mid-save leaves the previous
snapshot intact, never a prefix of the new one.

**Recovery** — :func:`load_catalog` is strict by default (any corruption
raises :class:`CatalogFormatError`); with ``recover=True`` it returns a
:class:`RecoveryReport` instead, quarantining corrupt entries rather than
failing the whole load, and replaying the maintenance journal (see
:mod:`repro.engine.journal`) so acknowledged deltas survive a crash
between snapshot and rebuild.  Feed the report to
:meth:`repro.serve.EstimationService.apply_recovery` and quarantined
relations answer through the service's ``on_error`` degradation policy.

Attribute values must be JSON-representable finite scalars (str, int,
float, bool); anything else — including NaN/±inf, which ``json.dumps``
would otherwise emit as non-standard JSON — raises with a clear message
rather than degrading silently.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

from repro.core.histogram import Histogram
from repro.engine.catalog import CatalogEntry, CompactEndBiased, StatsCatalog
from repro.engine.durable import (
    PathLike,
    atomic_write_text,
    canonical_json,
    check_finite,
    check_scalar,
    checksum,
)
from repro.engine.journal import (
    JournalReplayStats,
    MaintenanceJournal,
    read_journal,
    replay_records,
)
from repro.obs import runtime as obs
from repro.obs.tracing import span
from repro.testing.faults import POINT_PERSIST_SERIALIZE, fault_point

#: Format header values.
FORMAT_NAME = "repro-stats-catalog"
FORMAT_VERSION = 2

#: Histogram kinds the format round-trips; a hand-edited file naming any
#: other kind raises :class:`CatalogFormatError` instead of a deep error.
KNOWN_HISTOGRAM_KINDS = frozenset(
    {
        "trivial",
        "equi-width",
        "equi-depth",
        "serial",
        "end-biased",
        "biased",
        "max-diff",
        "compressed",
        "custom",
    }
)


class CatalogFormatError(ValueError):
    """The on-disk catalog (or one of its entries) violates the format."""


def _check_value(value: object, context: str) -> object:
    return check_scalar(value, context)


def _format_error(context: str, problem: str) -> CatalogFormatError:
    return CatalogFormatError(f"{context}: {problem}")


def _require_type(
    value: object, types: Union[type, tuple], context: str, problem: str
) -> object:
    if isinstance(value, bool) and bool not in (
        types if isinstance(types, tuple) else (types,)
    ):
        raise _format_error(context, f"{problem}, got {value!r}")
    if not isinstance(value, types):
        raise _format_error(context, f"{problem}, got {value!r}")
    return value


# ----------------------------------------------------------------------
# Histogram serialisation
# ----------------------------------------------------------------------


def _histogram_to_dict(histogram: Histogram) -> dict:
    if histogram.kind not in KNOWN_HISTOGRAM_KINDS:
        raise _format_error(
            "histogram", f"kind {histogram.kind!r} is not a persistable kind"
        )
    return {
        "frequencies": [
            check_finite(f, "histogram frequencies") for f in histogram.frequencies
        ],
        "groups": [list(group) for group in histogram.index_groups],
        "kind": histogram.kind,
        "values": (
            None
            if histogram.values is None
            else [_check_value(v, "histogram values") for v in histogram.values]
        ),
    }


def _histogram_from_dict(data: object) -> Histogram:
    context = "histogram"
    _require_type(data, dict, context, "histogram payload must be an object")
    for key in ("frequencies", "groups", "kind", "values"):
        if key not in data:
            raise _format_error(context, f"missing key {key!r}")
    frequencies = _require_type(
        data["frequencies"], list, context, "frequencies must be a list"
    )
    for freq in frequencies:
        _require_type(freq, (int, float), context, "frequencies must be numbers")
        check_finite(freq, "histogram frequencies")
    kind = _require_type(data["kind"], str, context, "kind must be a string")
    if kind not in KNOWN_HISTOGRAM_KINDS:
        raise _format_error(
            context,
            f"unknown histogram kind {kind!r}; expected one of "
            f"{sorted(KNOWN_HISTOGRAM_KINDS)}",
        )
    groups = _require_type(data["groups"], list, context, "groups must be a list")
    size = len(frequencies)
    for group in groups:
        _require_type(group, list, context, "each bucket group must be a list")
        for index in group:
            _require_type(index, int, context, "bucket indices must be integers")
            if not 0 <= index < size:
                raise _format_error(
                    context,
                    f"bucket index {index} out of bounds for {size} frequencies",
                )
    values = data["values"]
    if values is not None:
        _require_type(values, list, context, "values must be a list or null")
        if len(values) != size:
            raise _format_error(
                context,
                f"values length {len(values)} does not match "
                f"{size} frequencies",
            )
        for value in values:
            try:
                _check_value(value, "histogram values")
            except (TypeError, ValueError) as exc:
                raise _format_error(context, str(exc)) from exc
    try:
        return Histogram(
            frequencies,
            [tuple(group) for group in groups],
            kind=kind,
            values=values,
        )
    except (TypeError, ValueError) as exc:
        raise _format_error(context, f"invalid histogram: {exc}") from exc


# ----------------------------------------------------------------------
# Compact (end-biased) serialisation
# ----------------------------------------------------------------------


def _compact_to_dict(compact: CompactEndBiased) -> dict:
    return {
        "explicit": [
            [
                _check_value(value, "compact explicit values"),
                check_finite(freq, "compact explicit frequencies"),
            ]
            for value, freq in compact.explicit.items()
        ],
        "remainder_count": compact.remainder_count,
        "remainder_average": check_finite(
            compact.remainder_average, "compact remainder average"
        ),
    }


def _compact_from_dict(data: object) -> CompactEndBiased:
    context = "compact statistics"
    _require_type(data, dict, context, "compact payload must be an object")
    for key in ("explicit", "remainder_count", "remainder_average"):
        if key not in data:
            raise _format_error(context, f"missing key {key!r}")
    pairs = _require_type(
        data["explicit"], list, context, "explicit must be a list of [value, freq]"
    )
    explicit: dict = {}
    for pair in pairs:
        _require_type(pair, list, context, "explicit items must be [value, freq] pairs")
        if len(pair) != 2:
            raise _format_error(
                context, f"explicit items must be [value, freq] pairs, got {pair!r}"
            )
        value, freq = pair
        try:
            _check_value(value, "compact explicit values")
        except (TypeError, ValueError) as exc:
            raise _format_error(context, str(exc)) from exc
        _require_type(freq, (int, float), context, "explicit frequencies must be numbers")
        check_finite(freq, "compact explicit frequencies")
        explicit[value] = float(freq)
    count = _require_type(
        data["remainder_count"], int, context, "remainder_count must be an integer"
    )
    average = _require_type(
        data["remainder_average"],
        (int, float),
        context,
        "remainder_average must be a number",
    )
    check_finite(average, "compact remainder average")
    try:
        return CompactEndBiased(
            explicit=explicit,
            remainder_count=count,
            remainder_average=float(average),
        )
    except (TypeError, ValueError) as exc:
        raise _format_error(context, f"invalid compact statistics: {exc}") from exc


# ----------------------------------------------------------------------
# Entry serialisation
# ----------------------------------------------------------------------


def _entry_to_payload(entry: CatalogEntry) -> dict:
    return {
        "relation": entry.relation,
        "attribute": entry.attribute,
        "kind": entry.kind,
        "distinct_count": entry.distinct_count,
        "total_tuples": check_finite(
            entry.total_tuples, f"{entry.relation}.{entry.attribute} total_tuples"
        ),
        "version": entry.version,
        "journal_seq": entry.journal_seq,
        "histogram": (
            None if entry.histogram is None else _histogram_to_dict(entry.histogram)
        ),
        "compact": (None if entry.compact is None else _compact_to_dict(entry.compact)),
    }


def _entry_from_payload(payload: object) -> CatalogEntry:
    context = "catalog entry"
    _require_type(payload, dict, context, "entry payload must be an object")
    for key in (
        "relation",
        "attribute",
        "kind",
        "distinct_count",
        "total_tuples",
        "version",
        "journal_seq",
        "histogram",
        "compact",
    ):
        if key not in payload:
            raise _format_error(context, f"missing key {key!r}")
    relation = _require_type(
        payload["relation"], str, context, "relation must be a string"
    )
    attribute = _require_type(
        payload["attribute"], str, context, "attribute must be a string"
    )
    context = f"catalog entry {relation}.{attribute}"
    kind = _require_type(payload["kind"], str, context, "kind must be a string")
    if not kind:
        raise _format_error(context, "kind must be a non-empty string")
    distinct = _require_type(
        payload["distinct_count"], int, context, "distinct_count must be an integer"
    )
    if distinct < 0:
        raise _format_error(context, f"distinct_count must be >= 0, got {distinct}")
    total = _require_type(
        payload["total_tuples"], (int, float), context, "total_tuples must be a number"
    )
    check_finite(total, f"{context} total_tuples")
    version = _require_type(
        payload["version"], int, context, "version must be an integer"
    )
    if version < 0:
        raise _format_error(context, f"version must be >= 0, got {version}")
    journal_seq = _require_type(
        payload["journal_seq"], int, context, "journal_seq must be an integer"
    )
    if journal_seq < 0:
        raise _format_error(context, f"journal_seq must be >= 0, got {journal_seq}")
    try:
        histogram = (
            None
            if payload["histogram"] is None
            else _histogram_from_dict(payload["histogram"])
        )
        compact = (
            None if payload["compact"] is None else _compact_from_dict(payload["compact"])
        )
    except CatalogFormatError as exc:
        raise _format_error(context, str(exc)) from exc
    return CatalogEntry(
        relation=relation,
        attribute=attribute,
        kind=kind,
        histogram=histogram,
        compact=compact,
        distinct_count=distinct,
        total_tuples=float(total),
        version=version,
        journal_seq=journal_seq,
    )


def _load_entry_item(item: object) -> CatalogEntry:
    """Decode one entry of the ``entries`` list, verifying its checksum."""
    _require_type(item, dict, "catalog entry", "entry must be a checksummed object")
    if "payload" not in item or "checksum" not in item:
        raise _format_error(
            "catalog entry", "entry must carry 'checksum' and 'payload' keys"
        )
    payload = item["payload"]
    stored = item["checksum"]
    try:
        computed = checksum(canonical_json(payload))
    except (TypeError, ValueError) as exc:
        raise _format_error("catalog entry", f"payload is not canonical JSON: {exc}") from exc
    if stored != computed:
        raise _format_error(
            _entry_label(item),
            f"checksum mismatch (stored {stored!r}, computed {computed}); "
            "the entry is torn or was edited outside save_catalog",
        )
    return _entry_from_payload(payload)


def _entry_label(item: object) -> str:
    relation, attribute = _entry_key_hint(item)
    if relation is None:
        return "catalog entry"
    return f"catalog entry {relation}.{attribute}"


def _entry_key_hint(item: object) -> tuple[Optional[str], Optional[str]]:
    """Best-effort (relation, attribute) of a possibly-corrupt entry item."""
    payload = item.get("payload") if isinstance(item, dict) else None
    if isinstance(payload, dict):
        relation = payload.get("relation")
        attribute = payload.get("attribute")
        if isinstance(relation, str):
            return relation, attribute if isinstance(attribute, str) else None
    return None, None


# ----------------------------------------------------------------------
# Whole-catalog (de)serialisation
# ----------------------------------------------------------------------


def catalog_to_dict(catalog: StatsCatalog) -> dict:
    """Serialise the catalog to a JSON-compatible dictionary (format v2)."""
    if not isinstance(catalog, StatsCatalog):
        raise TypeError(f"catalog must be a StatsCatalog, got {type(catalog).__name__}")
    entries = []
    for entry in catalog.entries():
        payload = _entry_to_payload(entry)
        entries.append({"checksum": checksum(canonical_json(payload)), "payload": payload})
    return {"format": FORMAT_NAME, "version": FORMAT_VERSION, "entries": entries}


def _check_header(data: object) -> None:
    """Validate the format header (name and version)."""
    if not isinstance(data, dict):
        raise CatalogFormatError(
            f"catalog document must be a JSON object, got {type(data).__name__}"
        )
    if data.get("format") != FORMAT_NAME:
        raise CatalogFormatError(
            f"not a repro stats catalog (format={data.get('format')!r})"
        )
    version = data.get("version")
    if version != FORMAT_VERSION:
        raise CatalogFormatError(f"unsupported catalog version {version!r}")


def catalog_from_dict(data: dict) -> StatsCatalog:
    """Rebuild a catalog from :func:`catalog_to_dict` output (strict).

    Accepts format version 2 only.  Any malformed or checksum-failing
    entry raises :class:`CatalogFormatError`; use
    ``load_catalog(path, recover=True)`` for quarantine-instead-of-fail
    semantics.
    """
    _check_header(data)
    entries = data.get("entries")
    if not isinstance(entries, list):
        raise CatalogFormatError("catalog 'entries' must be a list")
    catalog = StatsCatalog()
    for item in entries:
        entry = _load_entry_item(item)
        stored_version = entry.version
        catalog.put(entry)
        entry.version = stored_version  # preserve the original counter
    return catalog


def save_catalog(
    catalog: StatsCatalog,
    path: PathLike,
    *,
    journal: Optional[MaintenanceJournal] = None,
) -> None:
    """Write the catalog to *path* as an atomic, checksummed snapshot.

    The write is crash-safe: the payload is staged to a sibling temporary
    file, fsynced, and published with one atomic ``os.replace`` — a crash
    at any moment leaves the previous snapshot readable.  When *journal*
    is given, it is checkpointed after the snapshot is durable, dropping
    records the snapshot already includes (their entries' ``journal_seq``
    fences make this safe even if the checkpoint itself crashes).
    """
    if not isinstance(catalog, StatsCatalog):
        raise TypeError(f"catalog must be a StatsCatalog, got {type(catalog).__name__}")
    if journal is not None and not isinstance(journal, MaintenanceJournal):
        raise TypeError(
            f"journal must be a MaintenanceJournal, got {type(journal).__name__}"
        )
    path = Path(path)
    with span("persist.save"):
        fault_point(POINT_PERSIST_SERIALIZE, path=str(path))
        payload = json.dumps(
            catalog_to_dict(catalog), indent=2, sort_keys=True, allow_nan=False
        )
        atomic_write_text(path, payload)
        if journal is not None:
            journal.checkpoint(catalog)
    obs.count("repro_persist_saves_total")


# ----------------------------------------------------------------------
# Loading and recovery
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class QuarantinedEntry:
    """One snapshot entry that failed verification and was not loaded."""

    #: Relation name, when the corrupt payload still revealed one.
    relation: Optional[str]
    #: Attribute name, when recoverable from the payload.
    attribute: Optional[str]
    #: Human-readable description of what failed.
    reason: str

    def label(self) -> str:
        """``relation.attribute`` (with ``?`` placeholders) for reports."""
        return f"{self.relation or '?'}.{self.attribute or '?'}"


@dataclass
class RecoveryReport:
    """Everything ``load_catalog(..., recover=True)`` found and did.

    ``catalog`` holds every entry that verified (checksums and payload
    validation) plus all journal deltas that replayed; ``quarantined``
    lists what was withheld.  Hand the report to
    :meth:`repro.serve.EstimationService.apply_recovery` so quarantined
    statistics degrade through the ``on_error`` policy instead of being
    served from corrupt data.
    """

    catalog: StatsCatalog
    snapshot_path: str
    #: False when no snapshot file existed at all.
    snapshot_found: bool = True
    #: False when the snapshot file could not be parsed as a catalog.
    snapshot_ok: bool = True
    entries_loaded: int = 0
    quarantined: list[QuarantinedEntry] = field(default_factory=list)
    journal_path: Optional[str] = None
    #: True when the journal ended in a torn (half-written) record.
    journal_torn: bool = False
    #: Deltas applied onto snapshot entries.
    journal_replayed: int = 0
    #: Deltas skipped because the snapshot already included them (fence).
    journal_fenced: int = 0
    #: Deltas whose target entry is missing or quarantined.
    journal_orphaned: int = 0
    #: Impossible deltas dropped during replay.
    journal_anomalies: int = 0

    @property
    def clean(self) -> bool:
        """True when nothing was quarantined, torn, or anomalous."""
        return (
            self.snapshot_found
            and self.snapshot_ok
            and not self.quarantined
            and not self.journal_torn
            and self.journal_anomalies == 0
        )

    def summary(self) -> str:
        """A human-readable multi-line rendering for CLIs."""
        lines = [
            f"snapshot: {self.snapshot_path} — "
            + (
                f"{self.entries_loaded} entries loaded"
                if self.snapshot_found
                else "not found"
            )
            + ("" if self.snapshot_ok or not self.snapshot_found else " (unreadable)")
        ]
        for q in self.quarantined:
            lines.append(f"quarantined: {q.label()} — {q.reason}")
        if self.journal_path is not None:
            lines.append(
                f"journal: {self.journal_path} — "
                f"{self.journal_replayed} replayed, {self.journal_fenced} fenced, "
                f"{self.journal_orphaned} orphaned, {self.journal_anomalies} anomalies"
                + (", torn tail truncated" if self.journal_torn else "")
            )
        lines.append("status: " + ("clean" if self.clean else "recovered with findings"))
        return "\n".join(lines)


def _parse_snapshot_text(text: str) -> dict:
    def _reject_constant(token: str) -> float:
        raise CatalogFormatError(
            f"snapshot contains non-standard JSON constant {token!r}"
        )

    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise CatalogFormatError(f"snapshot is not valid JSON: {exc}") from exc


def load_catalog(
    path: PathLike,
    *,
    recover: bool = False,
    journal: Optional[PathLike] = None,
) -> Union[StatsCatalog, RecoveryReport]:
    """Read a catalog previously written by :func:`save_catalog`.

    Strict mode (default) returns the :class:`StatsCatalog` and raises on
    the first problem: :class:`CatalogFormatError` for a snapshot that
    fails (a bad header, a failed entry checksum, a malformed payload),
    :class:`~repro.engine.journal.JournalFormatError` for a torn or
    malformed journal, and :class:`~repro.engine.journal.JournalReplayError`
    for a delta that is impossible against its entry.

    ``recover=True`` returns a :class:`RecoveryReport` instead: corrupt
    entries are **quarantined** (the rest of the catalog loads), a torn
    journal tail truncates replay at the last intact record, and
    impossible deltas are dropped and counted.  A missing snapshot file
    recovers to an empty catalog (``snapshot_found=False``) rather than
    raising, so a crash before the first save is still loadable.

    When *journal* names a maintenance journal, its records are replayed
    onto the loaded entries, fenced by each entry's ``journal_seq`` so
    nothing is double-applied.
    """
    path = Path(path)
    if not recover:
        with span("persist.load"):
            if not path.exists():
                raise FileNotFoundError(f"no stats catalog at {path}")
            catalog = catalog_from_dict(_parse_snapshot_text(path.read_text()))
            if journal is not None:
                records, _ = read_journal(journal, strict=True)
                replay_records(catalog, records, strict=True)
        obs.count("repro_persist_loads_total", mode="strict")
        return catalog

    with span("persist.recover"):
        report = RecoveryReport(catalog=StatsCatalog(), snapshot_path=str(path))
        if not path.exists():
            report.snapshot_found = False
            report.snapshot_ok = False
        else:
            try:
                data = _parse_snapshot_text(path.read_text())
                _check_header(data)
                entries = data.get("entries")
                if not isinstance(entries, list):
                    raise CatalogFormatError("catalog 'entries' must be a list")
            except CatalogFormatError as exc:
                report.snapshot_ok = False
                report.quarantined.append(
                    QuarantinedEntry(relation=None, attribute=None, reason=str(exc))
                )
                entries = []
            for item in entries:
                try:
                    entry = _load_entry_item(item)
                except CatalogFormatError as exc:
                    relation, attribute = _entry_key_hint(item)
                    report.quarantined.append(
                        QuarantinedEntry(
                            relation=relation, attribute=attribute, reason=str(exc)
                        )
                    )
                    continue
                stored_version = entry.version
                report.catalog.put(entry)
                entry.version = stored_version
                report.entries_loaded += 1

        if journal is not None:
            report.journal_path = str(Path(journal))
            records, torn = read_journal(journal, strict=False)
            report.journal_torn = torn
            skip_keys = frozenset(
                (q.relation, q.attribute)
                for q in report.quarantined
                if q.relation is not None and q.attribute is not None
            )
            stats: JournalReplayStats = replay_records(
                report.catalog, records, strict=False, skip_keys=skip_keys
            )
            report.journal_replayed = stats.applied
            report.journal_fenced = stats.fenced
            report.journal_orphaned = stats.orphaned
            report.journal_anomalies = stats.anomalies

    obs.count("repro_persist_loads_total", mode="recover")
    obs.count("repro_recovery_entries_loaded_total", report.entries_loaded)
    obs.count("repro_recovery_entries_quarantined_total", len(report.quarantined))
    obs.count("repro_recovery_journal_deltas_replayed_total", report.journal_replayed)
    obs.emit_event(
        "persist.recover",
        path=str(path),
        clean=report.clean,
        entries_loaded=report.entries_loaded,
        quarantined=len(report.quarantined),
        journal_replayed=report.journal_replayed,
        journal_torn=report.journal_torn,
    )
    return report
