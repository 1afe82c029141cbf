"""Network serving tier: the estimation service behind a real wire boundary.

The paper's practicality argument (Section 4) is that histogram cost is
paid at *construction*, not lookup — which makes the compiled serving
state of :class:`~repro.serve.EstimationService` cheap enough to put
behind a network protocol and share across processes and machines.  This
package is that boundary:

* :mod:`repro.net.protocol` — the **wire schema**, one version
  (``WIRE_SCHEMA_VERSION``; any other tag is refused): every probe
  shape and trace record gains ``to_wire`` / ``from_wire`` codecs, NaN/±inf rejection at encode time, and tagged
  value encoding so non-numeric (and mixed) domains round-trip exactly.
  Batches travel as typed columns and result vectors as raw float64
  bytes, so an answer served over the wire is **bit-identical** to the
  in-process answer.
* :mod:`repro.net.server` — an asyncio server speaking length-prefixed
  JSON frames (plus a one-shot HTTP/JSON shim on the same port) with
  per-tenant token auth, quota/backpressure admission that degrades
  per-probe through typed ``REASON_*`` reasons (never connection drops),
  and chunked streaming of large batch results.
* :mod:`repro.net.client` / :mod:`repro.net.aio` — the client SDK, sync
  and async flavors sharing one frame/assembly core: connect with
  retry-and-backoff, batch submit, streaming iteration, and surfaced
  degradation traces.

See ``docs/NETWORK.md`` for the wire schema spec, framing, auth/quota
semantics, and SDK quickstarts.
"""

from __future__ import annotations

from repro.net.aio import AsyncEstimationClient, connect_async
from repro.net.client import (
    AuthenticationError,
    ClientError,
    ConnectionFailedError,
    EstimationClient,
    ProtocolError,
    RemoteBatchError,
    RetrySchedule,
    connect,
)
from repro.net.protocol import (
    MAX_FRAME_BYTES,
    REASON_AUTH_FAILED,
    REASON_WIRE_DECODE,
    WIRE_SCHEMA_VERSION,
    FrameDecoder,
    WireCodecError,
    WireVersionError,
    columns_from_wire,
    decode_estimates,
    decode_frame,
    decode_value,
    encode_estimates,
    encode_frame,
    encode_value,
    probe_from_wire,
    probe_to_wire,
    probes_from_wire,
    probes_to_columns,
    probes_to_wire,
    trace_context_from_wire,
    trace_context_to_wire,
    trace_from_wire,
    trace_to_wire,
)
from repro.net.server import (
    DEFAULT_CHUNK_PROBES,
    EstimationServer,
    ReadinessCheck,
    ServerHandle,
    TenantConfig,
    agent_lease_check,
    serve_in_thread,
)

__all__ = [
    "MAX_FRAME_BYTES",
    "REASON_AUTH_FAILED",
    "REASON_WIRE_DECODE",
    "WIRE_SCHEMA_VERSION",
    "DEFAULT_CHUNK_PROBES",
    "ReadinessCheck",
    "agent_lease_check",
    "AsyncEstimationClient",
    "AuthenticationError",
    "ClientError",
    "ConnectionFailedError",
    "EstimationClient",
    "EstimationServer",
    "FrameDecoder",
    "ProtocolError",
    "RemoteBatchError",
    "RetrySchedule",
    "ServerHandle",
    "TenantConfig",
    "WireCodecError",
    "WireVersionError",
    "columns_from_wire",
    "connect",
    "connect_async",
    "decode_estimates",
    "decode_frame",
    "decode_value",
    "encode_estimates",
    "encode_frame",
    "encode_value",
    "probe_from_wire",
    "probe_to_wire",
    "probes_from_wire",
    "probes_to_columns",
    "probes_to_wire",
    "serve_in_thread",
    "trace_context_from_wire",
    "trace_context_to_wire",
    "trace_from_wire",
    "trace_to_wire",
]
