"""The wire schema shared verbatim by the server and the SDK.

Serialization-first redesign of the probe API: every probe shape
(:class:`~repro.serve.EqualityProbe`, :class:`~repro.serve.RangeProbe`,
:class:`~repro.serve.JoinProbe`) and the :class:`~repro.serve.ProbeTrace`
record gain ``to_wire`` / ``from_wire`` codecs here.  Both ends of the wire use
*these exact functions*, so an in-process answer and an over-the-wire
answer are built from identical probe objects — the foundation of the
bit-identity guarantee in ``docs/NETWORK.md``.

Design rules
------------

* **One version.** Every envelope carries ``{"v": WIRE_SCHEMA_VERSION}``;
  a frame tagged with anything else raises :class:`WireVersionError`
  instead of being guessed at.
* **Lossless values.** JSON alone cannot round-trip Python probe values
  (it conflates ``1`` and ``1.0``, loses tuples, and cannot carry NaN).
  Values travel in a tagged encoding — plain JSON strings for the common
  string-domain case, ``{"t": <type>, "v": ...}`` otherwise — with
  floats as C99 hex literals (``float.hex``) so every finite float64
  round-trips bit-exactly.  Non-numeric and mixed domains (strings,
  bytes, tuples, ``None`` bounds) are first-class.
* **NaN/±inf rejected at encode.** A NaN probe value is almost always a
  data bug, and NaN never equals anything (the probe could only return
  0).  :func:`encode_value` raises :class:`WireCodecError` for
  non-finite floats so the mistake surfaces at the call site, not as a
  silent zero three machines away.
* **Bit-exact result vectors.** Estimate vectors are float64 and *may*
  legitimately contain NaN (the ``on_error="nan"`` policy), so they
  travel as base64 of the raw little-endian float64 buffer
  (:func:`encode_estimates`), never as JSON numbers.
* **Columnar batches.** A batch may travel as typed columns
  (:func:`probes_to_columns`) instead of one JSON object per probe:
  kind codes, interned names with int32 index columns, and value/bound
  columns as raw little-endian int64/float64 buffers in the same base64
  codec as estimates.  Only columns that are not all plain int64 ints
  or all finite floats fall back to tagged values, so every value still
  round-trips exactly, and the server builds its
  :class:`~repro.serve.ProbeFrame` straight from the columns.
* **Length-prefixed frames.** A frame is a 4-byte big-endian length
  followed by UTF-8 JSON (``allow_nan=False``).  :class:`FrameDecoder`
  reassembles frames incrementally from arbitrary byte chunks for the
  sync client; the asyncio side reads the prefix directly.
"""

from __future__ import annotations

import base64
import json
import struct
from typing import Any, Iterable, Optional, Sequence

import numpy as np

from repro.obs.tracing import TraceContext
from repro.serve.frame import (
    KIND_EQUALITY,
    KIND_JOIN,
    KIND_RANGE,
    ProbeColumns,
    ValueColumn,
    value_column,
)
from repro.serve.service import (
    EqualityProbe,
    JoinProbe,
    Probe,
    ProbeTrace,
    RangeProbe,
)

#: The one wire schema version: stamped on every envelope sent and
#: required of every envelope received, so a peer speaking the retired
#: schemas 1 and 2 is refused like any other.  Bump on any incompatible
#: change to the envelope, the probe encodings, or the value tagging.
WIRE_SCHEMA_VERSION = 3

#: Hard bound on one frame's JSON payload (16 MiB).  A length prefix
#: beyond this is treated as a protocol error — it is far more likely a
#: corrupt or non-protocol peer than a legitimate 16 MiB batch chunk.
MAX_FRAME_BYTES = 16 * 1024 * 1024

#: Degradation reason for probes rejected by server-side admission
#: control before reaching the service (also see the service-level
#: ``REASON_QUOTA_EXCEEDED`` / ``REASON_BACKPRESSURE``).
REASON_AUTH_FAILED = "auth-failed"
#: Degradation reason for a probe entry that could not be decoded from
#: its wire form (the rest of the batch is still answered).
REASON_WIRE_DECODE = "wire-decode-failed"

#: Relation/attribute name that stands in for an undecodable probe entry.
UNDECODABLE_NAME = "<undecodable>"

_LENGTH = struct.Struct(">I")


class WireCodecError(ValueError):
    """A value, probe, or frame could not be encoded/decoded."""


class WireVersionError(WireCodecError):
    """The peer speaks a different wire schema version."""


# ---------------------------------------------------------------------------
# Tagged value codec
# ---------------------------------------------------------------------------


def encode_value(value: Any) -> Any:
    """Encode one probe value (or range bound) into its wire form.

    Strings pass through unchanged (the common non-numeric-domain case);
    every other supported type is tagged.  Raises :class:`WireCodecError`
    for NaN/±inf floats and for unsupported types.
    """
    if isinstance(value, str):
        return value
    if value is None:
        return {"t": "null"}
    # bool must precede int: isinstance(True, int) is True.
    if isinstance(value, bool):
        return {"t": "bool", "v": value}
    if isinstance(value, int):
        return {"t": "int", "v": str(value)}
    if isinstance(value, float):
        if value != value or value in (float("inf"), float("-inf")):
            raise WireCodecError(
                f"non-finite probe value {value!r} is not encodable; NaN/±inf "
                "never match stored data — fix the producer instead"
            )
        return {"t": "float", "v": value.hex()}
    if isinstance(value, (bytes, bytearray)):
        return {"t": "bytes", "v": base64.b64encode(bytes(value)).decode("ascii")}
    if isinstance(value, tuple):
        return {"t": "tuple", "v": [encode_value(item) for item in value]}
    raise WireCodecError(
        f"probe values of type {type(value).__name__} have no wire encoding; "
        "supported: str, int, float, bool, bytes, tuple, None"
    )


def decode_value(wire: Any) -> Any:
    """Invert :func:`encode_value`; raises :class:`WireCodecError` on junk."""
    if isinstance(wire, str):
        return wire
    if not isinstance(wire, dict):
        raise WireCodecError(
            f"malformed wire value {wire!r}: expected a string or a tagged object"
        )
    tag = wire.get("t")
    if tag == "null":
        return None
    if tag == "bool":
        payload = wire.get("v")
        if not isinstance(payload, bool):
            raise WireCodecError(f"malformed bool wire value {wire!r}")
        return payload
    if tag == "int":
        try:
            return int(wire["v"])
        except (KeyError, TypeError, ValueError) as exc:
            raise WireCodecError(f"malformed int wire value {wire!r}") from exc
    if tag == "float":
        try:
            return float.fromhex(wire["v"])
        except (KeyError, TypeError, ValueError) as exc:
            raise WireCodecError(f"malformed float wire value {wire!r}") from exc
    if tag == "bytes":
        try:
            return base64.b64decode(wire["v"], validate=True)
        except (KeyError, TypeError, ValueError) as exc:
            raise WireCodecError(f"malformed bytes wire value {wire!r}") from exc
    if tag == "tuple":
        payload = wire.get("v")
        if not isinstance(payload, list):
            raise WireCodecError(f"malformed tuple wire value {wire!r}")
        return tuple(decode_value(item) for item in payload)
    raise WireCodecError(f"unknown wire value tag {tag!r}")


# ---------------------------------------------------------------------------
# Probe codecs
# ---------------------------------------------------------------------------

_PROBE_KINDS = ("equality", "range", "join")


def probe_to_wire(probe: Probe) -> dict:
    """One probe's wire form (no envelope; see :func:`probes_to_wire`)."""
    if isinstance(probe, EqualityProbe):
        return {
            "kind": "equality",
            "relation": probe.relation,
            "attribute": probe.attribute,
            "value": encode_value(probe.value),
        }
    if isinstance(probe, RangeProbe):
        return {
            "kind": "range",
            "relation": probe.relation,
            "attribute": probe.attribute,
            "low": encode_value(probe.low),
            "high": encode_value(probe.high),
            "include_low": probe.include_low,
            "include_high": probe.include_high,
        }
    if isinstance(probe, JoinProbe):
        return {
            "kind": "join",
            "left_relation": probe.left_relation,
            "left_attribute": probe.left_attribute,
            "right_relation": probe.right_relation,
            "right_attribute": probe.right_attribute,
        }
    raise WireCodecError(
        f"unsupported probe type {type(probe).__name__}; expected "
        "EqualityProbe, RangeProbe, or JoinProbe"
    )


def _require_str(wire: dict, field: str) -> str:
    value = wire.get(field)
    if not isinstance(value, str):
        raise WireCodecError(
            f"probe field {field!r} must be a string, got {value!r}"
        )
    return value


def probe_from_wire(wire: Any) -> Probe:
    """Rebuild one probe from its wire form."""
    if not isinstance(wire, dict):
        raise WireCodecError(f"malformed wire probe {wire!r}: expected an object")
    kind = wire.get("kind")
    if kind == "equality":
        return EqualityProbe(
            relation=_require_str(wire, "relation"),
            attribute=_require_str(wire, "attribute"),
            value=decode_value(wire.get("value", {"t": "null"})),
        )
    if kind == "range":
        include_low = wire.get("include_low", True)
        include_high = wire.get("include_high", True)
        if not isinstance(include_low, bool) or not isinstance(include_high, bool):
            raise WireCodecError(
                f"range probe inclusivity flags must be booleans, got "
                f"{include_low!r}/{include_high!r}"
            )
        return RangeProbe(
            relation=_require_str(wire, "relation"),
            attribute=_require_str(wire, "attribute"),
            low=decode_value(wire.get("low", {"t": "null"})),
            high=decode_value(wire.get("high", {"t": "null"})),
            include_low=include_low,
            include_high=include_high,
        )
    if kind == "join":
        return JoinProbe(
            left_relation=_require_str(wire, "left_relation"),
            left_attribute=_require_str(wire, "left_attribute"),
            right_relation=_require_str(wire, "right_relation"),
            right_attribute=_require_str(wire, "right_attribute"),
        )
    raise WireCodecError(
        f"unknown probe kind {kind!r}; expected one of {_PROBE_KINDS}"
    )


def probes_to_wire(probes: Iterable[Probe]) -> list[dict]:
    """Encode a probe sequence (the payload of a batch request)."""
    return [probe_to_wire(probe) for probe in probes]


def probes_from_wire(wire: Sequence[Any]) -> list[Probe]:
    """Decode a batch request payload; raises on the first bad entry.

    The server decodes entries individually instead (so one poisoned
    entry degrades alone); this strict form is for replayable artifacts
    (``repro serve-stats --probes-from``) where silence would hide bugs.
    """
    if not isinstance(wire, (list, tuple)):
        raise WireCodecError(
            f"probe list must be a JSON array, got {type(wire).__name__}"
        )
    return [probe_from_wire(item) for item in wire]


# ---------------------------------------------------------------------------
# Trace and recovery-report codecs
# ---------------------------------------------------------------------------


def trace_to_wire(trace: ProbeTrace) -> dict:
    """Wire form of one degradation/fallback trace record.

    The served ``value`` uses the same hex-float encoding as probe
    values but *allows* NaN (legitimate under ``on_error="nan"``) —
    ``float.hex`` round-trips it exactly.
    """
    if not isinstance(trace, ProbeTrace):
        raise WireCodecError(
            f"expected a ProbeTrace, got {type(trace).__name__}"
        )
    return {
        "kind": trace.kind,
        "relation": trace.relation,
        "attribute": trace.attribute,
        "reason": trace.reason,
        "value": float(trace.value).hex(),
        "degraded": trace.degraded,
        "position": trace.position,
    }


def trace_from_wire(wire: Any) -> ProbeTrace:
    """Rebuild one :class:`~repro.serve.ProbeTrace` from its wire form."""
    if not isinstance(wire, dict):
        raise WireCodecError(f"malformed wire trace {wire!r}")
    try:
        position = wire.get("position")
        if position is not None:
            position = int(position)
        attribute = wire.get("attribute")
        if attribute is not None and not isinstance(attribute, str):
            raise WireCodecError(f"malformed trace attribute {attribute!r}")
        return ProbeTrace(
            kind=str(wire["kind"]),
            relation=str(wire["relation"]),
            attribute=attribute,
            reason=str(wire["reason"]),
            value=float.fromhex(wire["value"]),
            degraded=bool(wire["degraded"]),
            position=position,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise WireCodecError(f"malformed wire trace {wire!r}") from exc


# ---------------------------------------------------------------------------
# Result-vector codec
# ---------------------------------------------------------------------------


#: Wire dtype tags of raw array columns and the native dtype each decodes to.
_ARRAY_DTYPES = {"<f8": np.float64, "<i8": np.int64, "<i4": np.int32, "|u1": np.uint8}


def _encode_array(array: np.ndarray, dtype: str) -> dict:
    """Base64 of the raw little-endian buffer of *array* cast to *dtype*."""
    array = np.ascontiguousarray(array, dtype=dtype)
    return {
        "dtype": dtype,
        "n": int(array.size),
        "data": base64.b64encode(array.tobytes()).decode("ascii"),
    }


def _decode_array(wire: Any, dtype: str, what: str) -> np.ndarray:
    """Invert :func:`_encode_array`; raises :class:`WireCodecError` on junk."""
    if not isinstance(wire, dict) or wire.get("dtype") != dtype:
        raise WireCodecError(f"malformed {what} payload: expected a {dtype} array")
    try:
        raw = base64.b64decode(wire["data"], validate=True)
        count = int(wire["n"])
    except (KeyError, TypeError, ValueError) as exc:
        raise WireCodecError(f"malformed {what} payload: {exc}") from exc
    itemsize = np.dtype(dtype).itemsize
    if len(raw) != count * itemsize:
        raise WireCodecError(
            f"{what} payload length mismatch: {len(raw)} bytes for n={count}"
        )
    return np.frombuffer(raw, dtype=dtype).astype(_ARRAY_DTYPES[dtype], copy=True)


def encode_estimates(estimates: np.ndarray) -> dict:
    """Base64 of the raw little-endian float64 buffer — bit-exact, NaN-safe."""
    return _encode_array(estimates, "<f8")


def decode_estimates(wire: Any) -> np.ndarray:
    """Invert :func:`encode_estimates`."""
    return _decode_array(wire, "<f8", "estimates")


# ---------------------------------------------------------------------------
# Columnar batch codec
# ---------------------------------------------------------------------------

#: Value-column dtypes shipped as raw arrays (anything else is tagged).
_VALUE_DTYPES = {int: "<i8", float: "<f8"}


def _tagged_column(values: Sequence[Any]) -> dict:
    return {
        "dtype": "tagged",
        "n": len(values),
        "items": [encode_value(value) for value in values],
    }


def _values_to_wire(values: ValueColumn) -> dict:
    """One value column: a raw int64/float64 array when it can be, else tagged.

    Typed columns (see :func:`~repro.serve.frame.value_column`) ship as
    they are.  A list ships raw when every non-``None`` entry is a plain
    ``int`` within int64 or every one is a finite ``float``, its
    ``None`` entries riding a ``null`` mask, and tagged otherwise.
    Refuses NaN/±inf and unsupported types exactly as
    :func:`encode_value` does.
    """
    if isinstance(values, np.ndarray):
        dtype = "<f8" if values.dtype.kind == "f" else "<i8"
        if dtype == "<f8" and not np.isfinite(values).all():
            _tagged_column(values.tolist())  # raises encode_value's WireCodecError
        return _encode_array(values, dtype)
    present = set(map(type, values))
    has_null = type(None) in present
    present.discard(type(None))
    # An all-None column rides as int64 under its null mask.
    dtype = _VALUE_DTYPES.get(present.pop() if present else int)
    if dtype is None or present:  # non-numeric, or a mix of types
        return _tagged_column(values)
    dense = [0 if value is None else value for value in values] if has_null else values
    try:
        array = np.array(dense, dtype=dtype)
    except OverflowError:  # an int beyond int64
        return _tagged_column(values)
    if dtype == "<f8" and not np.isfinite(array).all():
        _tagged_column(values)  # raises encode_value's WireCodecError
    body = _encode_array(array, dtype)
    if has_null:
        body["null"] = _encode_array(
            np.fromiter((v is None for v in values), dtype=np.uint8, count=len(values)),
            "|u1",
        )
    return body


def probes_to_columns(probes: Iterable[Probe]) -> dict:
    """Encode a probe sequence as a ``columns`` payload.

    Layout: ``n`` probes; ``names`` (the interned relation/attribute
    strings); ``kind`` (uint8 kind codes); ``rel``/``attr`` (int32 name
    indices, a join's left side); ``value`` (one entry per equality);
    ``low``/``high`` (one per range) with ``incl`` (uint8, bit 0 =
    ``include_low``, bit 1 = ``include_high``); ``rel2``/``attr2``
    (int32, one per join).  Raises :class:`WireCodecError` for whatever
    :func:`probes_to_wire` refuses (and for unhashable names).
    """
    try:
        columns = ProbeColumns.from_probes(probes)
    except TypeError as exc:
        raise WireCodecError(str(exc)) from exc
    flags = columns.include_low.astype(np.uint8) | (
        columns.include_high.astype(np.uint8) << 1
    )
    return {
        "n": len(columns),
        "names": list(columns.names),
        "kind": _encode_array(columns.kinds, "|u1"),
        "rel": _encode_array(columns.rel, "<i4"),
        "attr": _encode_array(columns.attr, "<i4"),
        "value": _values_to_wire(columns.values),
        "low": _values_to_wire(columns.lows),
        "high": _values_to_wire(columns.highs),
        "incl": _encode_array(flags, "|u1"),
        "rel2": _encode_array(columns.right_rel, "<i4"),
        "attr2": _encode_array(columns.right_attr, "<i4"),
    }


def _column_array(wire: dict, field: str, dtype: str, count: int) -> np.ndarray:
    array = _decode_array(wire.get(field), dtype, f"columns.{field}")
    if array.size != count:
        raise WireCodecError(
            f"columns.{field} has {array.size} entries, expected {count}"
        )
    return array


def _values_from_wire(
    wire: dict, field: str, count: int
) -> tuple[ValueColumn, Optional[np.ndarray]]:
    """One value column plus the mask of its undecodable entries (or None).

    The column follows :func:`~repro.serve.frame.value_column`, as
    :meth:`ProbeColumns.from_probes` does.
    """
    column = wire.get(field)
    if not isinstance(column, dict):
        raise WireCodecError(f"columns.{field} must be an object")
    dtype = column.get("dtype")
    if dtype == "tagged":
        items = column.get("items")
        if not isinstance(items, list) or len(items) != count:
            raise WireCodecError(
                f"columns.{field} must list {count} tagged values"
            )
        values: list = []
        failed: Optional[np.ndarray] = None
        for index, item in enumerate(items):
            try:
                values.append(decode_value(item))
            except WireCodecError:
                values.append(None)
                if failed is None:
                    failed = np.zeros(count, dtype=bool)
                failed[index] = True
        return value_column(values), failed
    if dtype not in _VALUE_DTYPES.values():
        raise WireCodecError(f"columns.{field} has unknown dtype {dtype!r}")
    array = _column_array(wire, field, dtype, count)
    if "null" not in column:
        return array, None
    nulls = _column_array(column, "null", "|u1", count)
    values = array.tolist()
    for index in np.nonzero(nulls)[0].tolist():
        values[index] = None
    return value_column(values), None


def _bad_ids(ids: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """Mask of name indices outside the table or naming a non-string."""
    bad = (ids < 0) | (ids >= valid.size)
    inside = ~bad
    bad[inside] = ~valid[ids[inside]]
    return bad


def columns_from_wire(wire: Any) -> tuple[ProbeColumns, np.ndarray]:
    """Decode a ``columns`` payload into columns plus a failure mask.

    A name index outside ``names`` (or naming a non-string) and an
    undecodable tagged value fail only their own position: the returned
    boolean mask marks it, and its names are re-pointed at
    :data:`UNDECODABLE_NAME` so the frame still builds — the server then
    degrades it with ``REASON_WIRE_DECODE``.  Structural damage (missing
    columns, bad base64, length mismatches, unknown dtypes, kind codes or
    flag bits) raises :class:`WireCodecError`.
    """
    if not isinstance(wire, dict):
        raise WireCodecError("batch.columns must be an object")
    count = wire.get("n")
    if not isinstance(count, int) or isinstance(count, bool) or count < 0:
        raise WireCodecError(f"columns.n must be a count, got {count!r}")
    names = wire.get("names")
    if not isinstance(names, list):
        raise WireCodecError("columns.names must be an array")
    kinds = _column_array(wire, "kind", "|u1", count)
    if count and int(kinds.max()) > KIND_JOIN:
        raise WireCodecError(f"columns.kind holds unknown code {int(kinds.max())}")
    counts = np.bincount(kinds, minlength=KIND_JOIN + 1).tolist()
    rel = _column_array(wire, "rel", "<i4", count)
    attr = _column_array(wire, "attr", "<i4", count)
    values, bad_values = _values_from_wire(wire, "value", counts[KIND_EQUALITY])
    lows, bad_lows = _values_from_wire(wire, "low", counts[KIND_RANGE])
    highs, bad_highs = _values_from_wire(wire, "high", counts[KIND_RANGE])
    flags = _column_array(wire, "incl", "|u1", counts[KIND_RANGE])
    if flags.size and int(flags.max()) > 3:
        raise WireCodecError("columns.incl uses bits beyond bit 1")
    right_rel = _column_array(wire, "rel2", "<i4", counts[KIND_JOIN])
    right_attr = _column_array(wire, "attr2", "<i4", counts[KIND_JOIN])

    valid = np.fromiter(
        (isinstance(name, str) for name in names), dtype=bool, count=len(names)
    )
    failed = _bad_ids(rel, valid) | _bad_ids(attr, valid)
    per_kind = (
        (KIND_EQUALITY, [bad_values]),
        (KIND_RANGE, [bad_lows, bad_highs]),
        (KIND_JOIN, [_bad_ids(right_rel, valid), _bad_ids(right_attr, valid)]),
    )
    for kind, masks in per_kind:
        masks = [mask for mask in masks if mask is not None and mask.any()]
        if masks:
            failed[np.nonzero(kinds == kind)[0][np.logical_or.reduce(masks)]] = True
    if failed.any():
        names = [*names, UNDECODABLE_NAME]
        placeholder = len(names) - 1
        rel = np.where(failed, placeholder, rel).astype(np.int32)
        attr = np.where(failed, placeholder, attr).astype(np.int32)
        joins_failed = failed[kinds == KIND_JOIN]
        right_rel = np.where(joins_failed, placeholder, right_rel).astype(np.int32)
        right_attr = np.where(joins_failed, placeholder, right_attr).astype(np.int32)
    columns = ProbeColumns(
        kinds,
        names,
        rel,
        attr,
        values,
        lows,
        highs,
        (flags & 1).astype(bool),
        (flags & 2).astype(bool),
        right_rel,
        right_attr,
    )
    return columns, failed


# ---------------------------------------------------------------------------
# Envelopes and framing
# ---------------------------------------------------------------------------


def message(op: str, **fields: Any) -> dict:
    """A protocol envelope: ``op`` plus the schema-version tag."""
    body = {"v": WIRE_SCHEMA_VERSION, "op": op}
    body.update(fields)
    return body


def check_version(wire: dict) -> None:
    """Raise :class:`WireVersionError` unless *wire* tags ``WIRE_SCHEMA_VERSION``.

    The tag must be that int itself: ``true`` or ``3.0`` is refused too.
    """
    version = wire.get("v")
    if type(version) is not int or version != WIRE_SCHEMA_VERSION:
        raise WireVersionError(
            f"peer speaks wire schema version {version!r}, this build speaks "
            f"only {WIRE_SCHEMA_VERSION}"
        )


def trace_context_to_wire(context: TraceContext) -> dict:
    """The wire form of a trace context (a batch's ``trace_context`` field)."""
    body = {"trace_id": context.trace_id, "span_id": context.span_id}
    if not context.sampled:
        body["sampled"] = False
    return body


def trace_context_from_wire(wire: Any) -> Optional[TraceContext]:
    """Decode an optional ``trace_context`` field.

    ``None`` input means the peer sent no context (start a new trace) and
    maps to ``None``.  A malformed field raises :class:`WireCodecError`.
    """
    if wire is None:
        return None
    if not isinstance(wire, dict):
        raise WireCodecError(
            f"trace_context must be an object, got {type(wire).__name__}"
        )
    trace_id = wire.get("trace_id", "")
    span_id = wire.get("span_id", "")
    sampled = wire.get("sampled", True)
    if not isinstance(trace_id, str) or not trace_id:
        raise WireCodecError(
            f"trace_context.trace_id must be a non-empty string, got {trace_id!r}"
        )
    if not isinstance(span_id, str):
        raise WireCodecError(
            f"trace_context.span_id must be a string, got {span_id!r}"
        )
    if not isinstance(sampled, bool):
        raise WireCodecError(
            f"trace_context.sampled must be a boolean, got {sampled!r}"
        )
    return TraceContext(trace_id=trace_id, span_id=span_id, sampled=sampled)


def encode_frame(obj: dict) -> bytes:
    """Length-prefixed UTF-8 JSON frame (``allow_nan=False`` throughout)."""
    payload = json.dumps(
        obj, separators=(",", ":"), allow_nan=False
    ).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise WireCodecError(
            f"frame payload of {len(payload)} bytes exceeds MAX_FRAME_BYTES "
            f"({MAX_FRAME_BYTES}); chunk the batch"
        )
    return _LENGTH.pack(len(payload)) + payload


def decode_frame(payload: bytes) -> dict:
    """Decode one frame *payload* (without the length prefix)."""
    try:
        obj = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WireCodecError(f"undecodable frame payload: {exc}") from exc
    if not isinstance(obj, dict):
        raise WireCodecError(
            f"frame payload must be a JSON object, got {type(obj).__name__}"
        )
    return obj


class FrameDecoder:
    """Incremental frame reassembly from arbitrary byte chunks.

    Feed it whatever ``recv`` returned; it yields every complete frame
    and buffers the rest.  Used by the sync client (the asyncio side
    reads exact lengths directly from the stream).
    """

    def __init__(self) -> None:
        self._buffer = bytearray()

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered towards the next incomplete frame."""
        return len(self._buffer)

    def feed(self, data: bytes) -> list[dict]:
        """Absorb *data*; return every frame it completed, in order."""
        self._buffer.extend(data)
        frames: list[dict] = []
        while True:
            if len(self._buffer) < _LENGTH.size:
                return frames
            (length,) = _LENGTH.unpack_from(self._buffer)
            if length > MAX_FRAME_BYTES:
                raise WireCodecError(
                    f"frame length prefix {length} exceeds MAX_FRAME_BYTES "
                    f"({MAX_FRAME_BYTES}); peer is not speaking this protocol"
                )
            end = _LENGTH.size + length
            if len(self._buffer) < end:
                return frames
            payload = bytes(self._buffer[_LENGTH.size : end])
            del self._buffer[:end]
            frames.append(decode_frame(payload))


def read_frame_length(prefix: bytes) -> int:
    """Validate and unpack a 4-byte length prefix (asyncio read path)."""
    if len(prefix) != _LENGTH.size:
        raise WireCodecError(
            f"truncated frame length prefix ({len(prefix)} bytes)"
        )
    (length,) = _LENGTH.unpack(prefix)
    if length > MAX_FRAME_BYTES:
        raise WireCodecError(
            f"frame length prefix {length} exceeds MAX_FRAME_BYTES "
            f"({MAX_FRAME_BYTES}); peer is not speaking this protocol"
        )
    return length


def _batch_envelope(
    field: str,
    payload: Any,
    *,
    request_id: int,
    on_error: Optional[str],
    want_traces: bool,
    trace_context: Optional[TraceContext],
) -> dict:
    body = message(
        "batch", id=int(request_id), **{field: payload}, traces=bool(want_traces)
    )
    if on_error is not None:
        body["on_error"] = on_error
    if trace_context is not None:
        body["trace_context"] = trace_context_to_wire(trace_context)
    return body


def batch_request(
    probes_wire: Sequence[dict],
    *,
    request_id: int,
    on_error: Optional[str] = None,
    want_traces: bool = False,
    trace_context: Optional[TraceContext] = None,
) -> dict:
    """The row-form batch-submit envelope: one wire object per probe.

    ``trace_context`` joins the request into an existing trace; it is
    never sent as ``null`` — a request without a context omits the field.
    """
    return _batch_envelope(
        "probes",
        list(probes_wire),
        request_id=request_id,
        on_error=on_error,
        want_traces=want_traces,
        trace_context=trace_context,
    )


def columns_request(
    columns_wire: dict,
    *,
    request_id: int,
    on_error: Optional[str] = None,
    want_traces: bool = False,
    trace_context: Optional[TraceContext] = None,
) -> dict:
    """The batch-submit envelope carrying a :func:`probes_to_columns` payload.

    Same fields as :func:`batch_request` with ``columns`` in place of
    ``probes``.
    """
    return _batch_envelope(
        "columns",
        columns_wire,
        request_id=request_id,
        on_error=on_error,
        want_traces=want_traces,
        trace_context=trace_context,
    )


def batch_payload(request: dict) -> tuple[str, Any]:
    """``("probes", list)`` or ``("columns", dict)`` of a batch request.

    A batch carries exactly one of the two; anything else raises
    :class:`WireCodecError` naming the problem.
    """
    if "columns" in request:
        if "probes" in request:
            raise WireCodecError("a batch carries probes or columns, not both")
        columns = request["columns"]
        if not isinstance(columns, dict):
            raise WireCodecError("batch.columns must be an object")
        return "columns", columns
    probes = request.get("probes")
    if not isinstance(probes, list):
        raise WireCodecError("batch.probes must be an array")
    return "probes", probes


def hello_request(*, token: Optional[str] = None) -> dict:
    """The connection-opening envelope (token auth happens here)."""
    body = message("hello")
    if token is not None:
        body["token"] = token
    return body
