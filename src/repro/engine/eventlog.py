"""Generic crash-safe, checksummed, append-only JSONL event log.

Extracted from :mod:`repro.engine.journal` so every durable log in the
tree — the maintenance write-ahead journal and the maintenance agent's
job queue (:mod:`repro.maint.queue`) — shares **one** implementation of
the durability mechanics instead of re-deriving them:

* **fsync-before-acknowledge appends** — :meth:`ChecksummedLog.append`
  returns only after the encoded record is flushed and fsynced, so an
  acknowledged event is never lost to a crash;
* **per-record CRC32 checksums** over the canonical JSON encoding, so a
  torn tail (half-written last record after power loss) is *detected*
  rather than parsed as garbage;
* **torn-tail repair** — reopening a log for writing physically truncates
  any torn suffix back to the last intact record, restoring the
  append-only invariant that every byte before an intact record is
  intact;
* **monotonic sequence numbers** with a checksummed **header** carrying
  the high-water mark across checkpoints — :meth:`ChecksummedLog.rewrite`
  compacts the log atomically (via
  :func:`repro.engine.durable.atomic_write_text`) without ever letting
  numbering regress, which would silently fence acknowledged events out
  of replay.

Domain formats layer on top: callers pass a ``validate`` hook that
rejects payloads which are checksum-intact but semantically impossible
(an unknown op, a claim for a job that cannot exist).  In recovery-mode
scans such a record marks the log torn at that point, exactly as a
checksum mismatch would; in strict mode it raises.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Sequence

from repro.engine.durable import (
    PathLike,
    atomic_write_text,
    canonical_json,
    checksum,
)
from repro.obs.tracing import span
from repro.testing.faults import fault_point


class LogFormatError(ValueError):
    """The log file violates the record format (beyond a torn tail)."""


#: Domain-validation hook: raises :class:`LogFormatError` (or a subclass)
#: when a checksum-intact payload is semantically invalid.
PayloadValidator = Callable[[dict], None]


def encode_payload(payload: dict) -> bytes:  # repolint: boundary-exempt — canonical_json rejects non-serialisable input
    """One checksummed JSONL record: ``{"checksum": crc, "payload": ...}``."""
    text = canonical_json(payload)
    line = canonical_json({"checksum": checksum(text), "payload": payload})
    return (line + "\n").encode("utf-8")


def encode_header(last_seq: int) -> bytes:  # repolint: boundary-exempt — canonical_json rejects non-serialisable input
    """The checkpoint header carrying the sequence high-water mark."""
    header = {"kind": "journal-header", "last_seq": last_seq}
    line = canonical_json(
        {"checksum": checksum(canonical_json(header)), "header": header}
    )
    return (line + "\n").encode("utf-8")


def decode_header(envelope: dict) -> int:
    """Validate a header envelope and return its sequence high-water mark."""
    header = envelope["header"]
    stored = envelope.get("checksum")
    actual = checksum(canonical_json(header))
    if stored != actual:
        raise LogFormatError(
            f"log header checksum mismatch (stored {stored!r}, computed {actual})"
        )
    if not isinstance(header, dict) or header.get("kind") != "journal-header":
        raise LogFormatError(f"malformed log header: {header!r}")
    last_seq = header.get("last_seq")
    if not isinstance(last_seq, int) or isinstance(last_seq, bool) or last_seq < 0:
        raise LogFormatError(
            f"log header last_seq must be an int >= 0, got {last_seq!r}"
        )
    return last_seq


def decode_payload_line(line: str) -> dict:
    """Checksum-verify one record line and return its payload dict."""
    try:
        envelope = json.loads(line)
    except json.JSONDecodeError as exc:
        raise LogFormatError(f"unparseable log line: {exc}") from exc
    if not isinstance(envelope, dict) or "payload" not in envelope:
        raise LogFormatError("log line lacks a payload envelope")
    payload = envelope["payload"]
    stored = envelope.get("checksum")
    actual = checksum(canonical_json(payload))
    if stored != actual:
        raise LogFormatError(
            f"log record checksum mismatch (stored {stored!r}, computed {actual})"
        )
    if not isinstance(payload, dict):
        raise LogFormatError(
            f"log payload must be an object, got {type(payload).__name__}"
        )
    seq = payload.get("seq")
    if not isinstance(seq, int) or isinstance(seq, bool) or seq < 1:
        raise LogFormatError(f"log payload seq must be an int >= 1, got {seq!r}")
    return payload


@dataclass
class LogScan:
    """Everything one pass over a checksummed log file establishes."""

    #: High-water mark from the checkpoint header (0 when absent).
    header_seq: int = 0
    #: The intact payload dicts, in file order.
    payloads: list = field(default_factory=list)
    #: True when an unreadable line cut the scan short.
    torn: bool = False
    #: Byte offset just past the last intact line (truncation target).
    intact_end: int = 0
    #: True when the last intact line is missing its terminating newline.
    needs_newline: bool = False

    @property
    def last_seq(self) -> int:
        """The sequence high-water mark the file as a whole establishes."""
        tail = self.payloads[-1]["seq"] if self.payloads else 0
        return max(self.header_seq, tail)


def scan_log(
    path: PathLike,
    *,
    strict: bool = False,
    validate: Optional[PayloadValidator] = None,
) -> LogScan:
    """One pass over the log: header, intact records, torn-tail extent.

    Tracks byte offsets so a writer can truncate exactly the torn suffix.
    With ``strict=True`` any unreadable or invalid line raises
    :class:`LogFormatError` instead of marking the scan torn.  *validate*
    (when given) runs after the checksum and sequence checks; a
    :class:`LogFormatError` it raises is treated identically.
    """
    if not isinstance(path, (str, Path)):
        raise TypeError(f"path must be str or Path, got {type(path).__name__}")
    scan = LogScan()
    path = Path(path)
    if not path.exists():
        return scan
    data = path.read_bytes()
    first_content = True
    last_seq = 0
    offset = 0
    for raw in data.splitlines(keepends=True):
        consumed = len(raw)
        body = raw.rstrip(b"\r\n")
        has_newline = len(body) < consumed
        try:
            stripped = body.decode("utf-8").strip()
        except UnicodeDecodeError as exc:
            if strict:
                raise LogFormatError(f"undecodable log line: {exc}") from exc
            scan.torn = True
            break
        if not stripped:
            offset += consumed
            scan.intact_end = offset
            continue
        try:
            envelope = json.loads(stripped)
            if isinstance(envelope, dict) and "header" in envelope:
                if not first_content:
                    raise LogFormatError(
                        "log header is only valid as the first record"
                    )
                scan.header_seq = decode_header(envelope)
            else:
                payload = decode_payload_line(stripped)
                if payload["seq"] <= last_seq:
                    raise LogFormatError(
                        f"log seq went backwards ({last_seq} -> {payload['seq']})"
                    )
                if validate is not None:
                    validate(payload)
                scan.payloads.append(payload)
                last_seq = payload["seq"]
        except json.JSONDecodeError as exc:
            if strict:
                raise LogFormatError(f"unparseable log line: {exc}") from exc
            scan.torn = True
            break
        except LogFormatError:
            if strict:
                raise
            scan.torn = True
            break
        first_content = False
        offset += consumed
        scan.intact_end = offset
        scan.needs_newline = not has_newline
    return scan


class ChecksummedLog:
    """The shared append-only durable log (see the module docstring).

    Every append is fsynced before it is acknowledged — the WAL contract;
    *fsync_span*, when given, names the span that times each fsync.

    Fault-injection plumbing: callers name the registered injection
    points to fire around each write (*fault_append* before the bytes are
    written, *fault_flush* between write and fsync, *fault_rewrite*
    before a checkpoint rewrite), so domain logs expose their own crash
    moments to the chaos suite without re-implementing the IO.
    """

    def __init__(
        self,
        path: PathLike,
        *,
        validate: Optional[PayloadValidator] = None,
        fsync_span: Optional[str] = None,
    ):
        if not isinstance(path, (str, Path)):
            raise TypeError(f"path must be str or Path, got {type(path).__name__}")
        self._path = Path(path)
        self._validate = validate
        self._fsync_span = fsync_span
        scan = scan_log(self._path, strict=False, validate=validate)
        # The checkpoint header keeps the high-water mark alive across a
        # checkpoint that empties the log: without it a restart would
        # restart numbering at 0 and new appends would sit at or below
        # any downstream fences, silently invisible to replay.
        self._seq = scan.last_seq
        if scan.torn or scan.needs_newline:
            self._repair_tail(scan)

    def _repair_tail(self, scan: LogScan) -> None:
        """Physically remove a torn tail before the first append.

        Appending after a half-written line would strand the new —
        acknowledged — records behind bytes :func:`scan_log` can never
        get past.  Truncating to the last intact record restores the
        append-only invariant that everything after an intact record is
        intact.
        """
        with open(self._path, "r+b") as handle:  # repolint: disable=R007
            handle.truncate(scan.intact_end)
            if scan.needs_newline:
                handle.seek(0, os.SEEK_END)
                handle.write(b"\n")
            handle.flush()
            os.fsync(handle.fileno())

    @property
    def path(self) -> Path:
        """Where the log lives."""
        return self._path

    @property
    def last_seq(self) -> int:
        """Sequence number of the last acknowledged record (0 when empty)."""
        return self._seq

    def scan(self, *, strict: bool = False) -> LogScan:
        """Re-scan the on-disk state (with this log's validator)."""
        return scan_log(self._path, strict=strict, validate=self._validate)

    def payloads(self) -> list[dict]:
        """Every intact payload currently in the log."""
        return self.scan(strict=False).payloads

    def append(
        self,
        payload: dict,
        *,
        fault_append: Optional[str] = None,
        fault_flush: Optional[str] = None,
    ) -> dict:
        """Durably append *payload* (acknowledged only after the fsync).

        The payload must not carry ``seq`` — the log assigns the next
        sequence number and returns the stamped payload it wrote.
        """
        if not isinstance(payload, dict):
            raise TypeError(f"payload must be a dict, got {type(payload).__name__}")
        if "seq" in payload:
            raise ValueError("the log assigns 'seq'; do not pass one")
        stamped = {"seq": self._seq + 1, **payload}
        if self._validate is not None:
            self._validate(stamped)
        data = encode_payload(stamped)
        if fault_append is not None:
            fault_point(fault_append, path=str(self._path))
        # The one sanctioned non-atomic write: an append-only log is
        # torn-tail safe by construction (per-record checksums), and
        # appending through a rewrite would be O(log) per event.
        with open(self._path, "ab") as handle:  # repolint: disable=R007
            handle.write(data)
            if fault_flush is not None:
                fault_point(fault_flush, path=str(self._path))
            if self._fsync_span is not None:
                with span(self._fsync_span):
                    handle.flush()
                    os.fsync(handle.fileno())
            else:
                handle.flush()
                os.fsync(handle.fileno())
        self._seq = stamped["seq"]  # acknowledged only after the durable append
        return stamped

    def rewrite(
        self,
        payloads: Sequence[dict],
        *,
        last_seq: Optional[int] = None,
        fault_rewrite: Optional[str] = None,
    ) -> None:
        """Atomically replace the log with *payloads* plus a header.

        Payloads keep the sequence numbers they already carry; the header
        records ``max(last_seq, every kept seq, every seq ever appended)``
        so numbering never regresses after a checkpoint.  Crash-safe: the
        rewrite goes through :func:`atomic_write_text`, so a crash leaves
        either the old log or the new one, never a prefix.
        """
        high = self._seq if last_seq is None else max(last_seq, self._seq)
        for payload in payloads:
            high = max(high, payload["seq"])
        if fault_rewrite is not None:
            fault_point(fault_rewrite, path=str(self._path))
        parts = [encode_header(high).decode("utf-8")] if high else []
        parts.extend(encode_payload(payload).decode("utf-8") for payload in payloads)
        atomic_write_text(self._path, "".join(parts))
        self._seq = high
