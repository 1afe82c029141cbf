"""The asyncio estimation server: frames in, bit-identical answers out.

One :class:`EstimationServer` wraps one in-process
:class:`~repro.serve.EstimationService` and serves it over TCP:

* **Framed protocol** — length-prefixed JSON frames (see
  :mod:`repro.net.protocol`): a ``hello`` handshake (token auth), then
  any number of ``batch`` requests per connection, each answered by a
  stream of ``chunk`` frames carrying raw-float64 estimate slices and
  the trace records for those positions.
* **HTTP/JSON shim** — the same port also answers one-shot
  ``POST /v1/batch`` requests (token via ``Authorization: Bearer``), so
  a plain ``curl`` can probe the service without the SDK — plus the ops
  surface: ``GET /v1/metrics`` (Prometheus text with trace-ID
  exemplars), ``GET /v1/ready`` (deep readiness, named checks, 503
  while unready), and ``GET /v1/tracez`` (recent sampled traces).
* **Admission, not amputation** — per-tenant quotas (probes per batch)
  and a backpressure bound (probes in flight across the tenant's
  connections) reject *probes*, not connections: refused probes resolve
  through the service's ``on_error`` policy with the typed reasons
  ``REASON_QUOTA_EXCEEDED`` / ``REASON_BACKPRESSURE``, handed to
  ``estimate_batch(admission=)`` as one verdict column, exactly like
  unanswerable probes.  A malformed probe entry degrades alone
  (``REASON_WIRE_DECODE``); the rest of its batch is answered.
* **Columnar decode** — a ``columns`` batch becomes a
  :class:`~repro.serve.ProbeFrame` straight from its arrays
  (:meth:`~repro.serve.ProbeFrame.from_columns`), with admission
  verdicts written into an object column from masks; the service
  settles the rejected positions inside their groups, so no probe
  object is built.
* **Instrumented** — ``net.accept`` / ``net.batch`` / ``net.decode`` /
  ``net.stream`` spans, and per-tenant labeled counters in the default
  metric registry (``repro_net_batches_total{tenant=...}`` and friends).

What runs where: everything runs on the event-loop thread.  Each
request's JSON parse, its probe decode (per entry for a row-form
``probes`` body; ``columns_from_wire`` and ``ProbeFrame.from_columns``
for a ``columns`` body), the admission masks and ``estimate_batch`` run
as one synchronous step, and the result is then encoded and streamed
back.  There is no executor hop: on
2000-probe equality/range batches the decode alone costs more than the
answer, and the two thread handoffs cost more than the answer saved by
running it off the loop.  A batch therefore holds the loop for its
decode plus its answer — other connections' frames and accepts wait
behind both (see docs/NETWORK.md) — and no answer is ever still running
when :meth:`EstimationServer.stop` runs.
"""

from __future__ import annotations

import asyncio
import contextlib
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterator, Optional, Sequence, Union

import numpy as np

from repro.net import protocol
from repro.obs import runtime as obs
from repro.obs import tracing
from repro.obs.export import assemble_traces, render_trace_tree, trace_summary
from repro.obs.tracing import SpanRecord, TraceContext, span
from repro.serve.frame import EqualityProbe, Probe, ProbeFrame
from repro.serve.service import (
    REASON_BACKPRESSURE,
    REASON_QUOTA_EXCEEDED,
    EstimationService,
    ProbeTrace,
)
from repro.util.validation import ensure_positive_int

if TYPE_CHECKING:  # import cycle: repro.maint imports repro.obs via net
    from repro.maint.queue import DurableJobQueue

#: Probes per ``chunk`` frame when streaming a batch result.  2048
#: float64 values are ~22 KiB base64 — large enough to amortize framing,
#: small enough that a 10k-probe result streams in a handful of frames.
DEFAULT_CHUNK_PROBES = 2048

#: Spans retained in memory for the ``/v1/tracez`` endpoint.
DEFAULT_TRACEZ_SPANS = 512

#: Traces shown per ``/v1/tracez`` response.
DEFAULT_TRACEZ_TRACES = 20

#: How long :meth:`EstimationServer.stop` lets handlers that are still
#: writing a response finish it before cancelling them.
STOP_DRAIN_SECONDS = 5.0

#: A readiness probe: returns ``(ok, detail)``.  Raising counts as
#: failing — a readiness check must never take the server down.
ReadinessCheck = Callable[[], tuple[bool, str]]


def agent_lease_check(
    queue: "DurableJobQueue", *, clock: Callable[[], float] = time.time
) -> ReadinessCheck:
    """A readiness check asserting the maintenance agent's leases are fresh.

    Passes while no claimed job's lease has expired — an expired lease
    means the agent that claimed it stopped heartbeating (crashed or
    stalled) and maintenance is effectively down until a new incarnation
    reclaims the job.  Wire it up with
    :meth:`EstimationServer.add_readiness_check`.
    """

    def check() -> tuple[bool, str]:
        now = clock()
        stale = [
            state["id"]
            for state in queue.jobs()
            if state["status"] == "claimed" and state["lease_expires"] < now
        ]
        if stale:
            return False, f"expired leases on {', '.join(sorted(stale))}"
        return True, "all claimed leases fresh"

    return check


@dataclass(frozen=True)
class TenantConfig:
    """Auth and admission limits for one tenant.

    ``max_probes_per_batch`` rejects the *tail* of an oversized batch
    (the prefix inside quota is still answered); ``max_pending_probes``
    bounds the tenant's probes in flight across all its connections —
    the backpressure knob.  A batch's admitted probes stay pending from
    admission until its answer has been handed to the transport, so the
    bound covers the answers held behind a slow reader: while one
    connection's write-out stalls, the tenant's other connections get
    only the remaining room.  Either limit at ``0`` means unlimited.
    """

    name: str
    token: str
    max_probes_per_batch: int = 0
    max_pending_probes: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise ValueError(f"tenant name must be a non-empty str, got {self.name!r}")
        if not isinstance(self.token, str) or not self.token:
            raise ValueError(f"tenant token must be a non-empty str, got {self.token!r}")
        if self.max_probes_per_batch < 0 or self.max_pending_probes < 0:
            raise ValueError("tenant limits must be >= 0 (0 means unlimited)")


@dataclass
class _TenantState:
    """Mutable per-tenant admission state (event-loop confined)."""

    config: TenantConfig
    pending_probes: int = 0


@dataclass
class _DecodedBatch:
    """One batch request after decode + admission."""

    #: The decoded row-form probes, or the frame built from columns.
    probes: Union[list[Probe], ProbeFrame]
    #: One rejection reason per position (``None`` = admitted), as an
    #: object column.  Decode failures are marked here too.
    verdicts: np.ndarray
    #: Probes admitted (counted against the tenant's pending bound).
    admitted: int

    @property
    def rejected(self) -> int:
        return len(self.probes) - self.admitted


class EstimationServer:
    """Serve one :class:`EstimationService` over asyncio TCP.

    Parameters
    ----------
    service:
        The in-process service to answer from.  The server adds no
        estimation logic of its own — bit-identity with in-process
        answers follows from sharing the service and the wire codecs.
    host, port:
        Bind address; ``port=0`` picks a free port (see :attr:`address`).
    tenants:
        Iterable of :class:`TenantConfig`.  When given, every framed
        connection must open with a ``hello`` carrying a known token,
        and HTTP requests need ``Authorization: Bearer <token>``.  When
        omitted, the server is open and all traffic is accounted to the
        ``"public"`` tenant with no limits.
    chunk_probes:
        Probes per streamed ``chunk`` frame.
    """

    def __init__(
        self,
        service: EstimationService,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        tenants: Optional[Sequence[TenantConfig]] = None,
        chunk_probes: int = DEFAULT_CHUNK_PROBES,
        name: Optional[str] = None,
    ):
        if not isinstance(service, EstimationService):
            raise TypeError(
                f"service must be an EstimationService, got {type(service).__name__}"
            )
        self.service = service
        self.host = host
        self.port = port
        self.name = name if name is not None else f"net-{service.name}"
        self._chunk_probes = ensure_positive_int(chunk_probes, "chunk_probes")
        self._tenants_by_token: dict[str, _TenantState] = {}
        self._open_tenant: Optional[_TenantState] = None
        if tenants:
            for config in tenants:
                if not isinstance(config, TenantConfig):
                    raise TypeError(
                        f"tenants must be TenantConfig, got {type(config).__name__}"
                    )
                if config.token in self._tenants_by_token:
                    raise ValueError(
                        f"duplicate tenant token for {config.name!r}"
                    )
                self._tenants_by_token[config.token] = _TenantState(config)
        else:
            self._open_tenant = _TenantState(
                TenantConfig(name="public", token="-")
            )
        self._server: Optional[asyncio.base_events.Server] = None
        # Live connection handlers, and those of them answering a request
        # they hold; stop() drains the second set and cancels the rest.
        self._handlers: set[asyncio.Task] = set()
        self._responding: set[asyncio.Task] = set()
        self._stopping = False
        # Ops surface state: named readiness checks (deep /v1/ready) and
        # the bounded recent-span buffer behind /v1/tracez.  The deque is
        # appended from whatever thread finishes a span (append is
        # atomic); readers snapshot with list().
        self._readiness_checks: list[tuple[str, ReadinessCheck]] = [
            ("catalog-published", self._check_catalog_published),
            ("quarantine-empty", self._check_quarantine_empty),
            ("cache-warm", self._check_cache_warm),
        ]
        self._recent_spans: deque[SpanRecord] = deque(maxlen=DEFAULT_TRACEZ_SPANS)
        self._tracez_sink_installed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        """The bound (host, port); valid after :meth:`start`."""
        if self._server is None:
            raise RuntimeError("server is not started")
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return host, port

    async def start(self) -> tuple[str, int]:
        """Bind and start accepting; returns the bound address."""
        if self._server is not None:
            raise RuntimeError("server is already started")
        self._stopping = False
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        if not self._tracez_sink_installed:
            tracing.add_span_sink(self._record_tracez_span)
            self._tracez_sink_installed = True
        address = self.address
        obs.emit_event(
            "net.server.started", server=self.name, host=address[0], port=address[1]
        )
        return address

    async def stop(self) -> None:
        """Stop accepting, drain the responses in flight, end every connection.

        The listener closes first.  Handlers waiting for a request are
        cancelled at once.  A handler that holds a request is still
        writing its response (batches are answered on the loop, so none
        is mid-answer): it gets :data:`STOP_DRAIN_SECONDS` to finish
        writing, then ends instead of reading another request, and is
        cancelled if the deadline passes first.  Every handler is awaited
        before ``wait_closed()``, which on Python 3.12 waits for open
        connections, so none is destroyed pending with its loop; a
        cancelled write-out aborts its connection and releases its
        tenant's pending probes on the way out.
        """
        if self._server is None:
            return
        self._stopping = True
        self._server.close()
        for task in self._handlers - self._responding:
            task.cancel()
        if self._responding:
            await asyncio.wait(set(self._responding), timeout=STOP_DRAIN_SECONDS)
        while self._handlers:
            for task in self._handlers:
                task.cancel()
            await asyncio.gather(*self._handlers, return_exceptions=True)
        await self._server.wait_closed()
        self._server = None
        if self._tracez_sink_installed:
            tracing.remove_span_sink(self._record_tracez_span)
            self._tracez_sink_installed = False
        obs.emit_event("net.server.stopped", server=self.name)

    async def serve_forever(self) -> None:
        """Start (if needed) and serve until cancelled."""
        if self._server is None:
            await self.start()
        assert self._server is not None
        await self._server.serve_forever()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    def _authenticate(self, token: Optional[str]) -> Optional[_TenantState]:
        if self._open_tenant is not None:
            return self._open_tenant
        if token is None:
            return None
        return self._tenants_by_token.get(token)

    # ------------------------------------------------------------------
    # Ops surface: readiness checks and recent traces
    # ------------------------------------------------------------------

    def add_readiness_check(self, name: str, check: ReadinessCheck) -> None:
        """Register a named deep-readiness probe for ``GET /v1/ready``.

        *check* returns ``(ok, detail)``; a raising check reports as
        failing with the exception text.  Names must be unique — e.g.
        ``server.add_readiness_check("agent-lease-fresh",
        agent_lease_check(queue))``.
        """
        if not isinstance(name, str) or not name:
            raise ValueError(f"check name must be a non-empty str, got {name!r}")
        if not callable(check):
            raise TypeError(f"check must be callable, got {type(check).__name__}")
        if any(existing == name for existing, _ in self._readiness_checks):
            raise ValueError(f"readiness check {name!r} already registered")
        self._readiness_checks.append((name, check))

    def readiness(self) -> tuple[bool, list[dict]]:
        """Run every readiness check; ``(all ok, per-check reports)``."""
        reports: list[dict] = []
        ready = True
        for name, check in list(self._readiness_checks):
            try:
                ok, detail = check()
            except Exception as exc:  # a probe must never take the server down
                ok, detail = False, f"{type(exc).__name__}: {exc}"
            ok = bool(ok)
            ready = ready and ok
            reports.append({"name": name, "ok": ok, "detail": str(detail)})
        return ready, reports

    def _check_catalog_published(self) -> tuple[bool, str]:
        catalog = self.service.catalog
        entries = len(catalog)
        if entries == 0:
            return False, "catalog has no published entries"
        return True, f"{entries} entries at version {catalog.version}"

    def _check_quarantine_empty(self) -> tuple[bool, str]:
        quarantined = self.service.quarantined
        if quarantined:
            names = ", ".join(
                f"{relation}.{attribute if attribute is not None else '*'}"
                for relation, attribute in sorted(
                    quarantined, key=lambda item: (item[0], item[1] or "")
                )
            )
            return False, f"quarantined: {names}"
        return True, "no quarantined entries"

    def _check_cache_warm(self) -> tuple[bool, str]:
        cached = self.service.cached_tables
        if cached == 0:
            return False, "no compiled tables cached yet"
        return True, f"{cached} compiled tables cached"

    def _record_tracez_span(self, record: SpanRecord) -> None:
        # deque.append with a maxlen is atomic — safe from any thread.
        self._recent_spans.append(record)

    def recent_traces(self, limit: int = DEFAULT_TRACEZ_TRACES) -> list[dict]:
        """Assembled summaries of recent sampled traces, newest first."""
        traces = assemble_traces(list(self._recent_spans))
        traces.reverse()
        rows = []
        for trace in traces[: max(1, int(limit))]:
            row = trace_summary(trace)
            row["tree"] = render_trace_tree(trace)
            rows.append(row)
        return rows

    @contextlib.contextmanager
    def _responding_to_request(self) -> Iterator[None]:
        """Mark this handler as answering a request it holds (see :meth:`stop`)."""
        task = asyncio.current_task()
        self._responding.add(task)
        try:
            yield
        finally:
            self._responding.discard(task)

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._handlers.add(task)
        obs.count("repro_net_connections_total", server=self.name)
        cancelled = False
        try:
            if self._stopping:
                return  # accepted just before stop() closed the listener
            # Detached span: connections are concurrent tasks on one
            # thread, so a stack-based span here would cross-contaminate
            # parentage between peers.  Each connection gets its own
            # trace; per-request spans join the *client's* trace instead.
            with span("net.accept", context=tracing.new_trace(), server=self.name):
                first = await reader.read(4)
                if not first:
                    return
                if _looks_like_http(first):
                    await self._handle_http(first, reader, writer)
                    return
                await self._handle_framed(first, reader, writer)
        except (
            asyncio.IncompleteReadError,
            ConnectionError,
            protocol.WireCodecError,
        ):
            # A peer that vanishes or talks garbage mid-frame cannot be
            # answered; everything answerable was already answered.
            pass
        except asyncio.CancelledError:
            # Only stop() cancels a handler.  The task ends normally so
            # that start_server's done-callback (Python 3.11) does not log
            # the cancellation as an unhandled exception.
            cancelled = True
        finally:
            # A cancelled handler aborts: a graceful close would wait to
            # flush output that a stalled peer may never read.
            if cancelled:
                writer.transport.abort()
            else:
                writer.close()
            try:
                await writer.wait_closed()
            except asyncio.CancelledError:
                writer.transport.abort()
            except (ConnectionError, OSError):
                pass
            self._handlers.discard(task)

    async def _read_frame(
        self, reader: asyncio.StreamReader, *, prefix: Optional[bytes] = None
    ) -> Optional[dict]:
        """Read one frame; ``None`` on clean EOF at a frame boundary."""
        if prefix is None:
            prefix = await reader.read(4)
            if not prefix:
                return None
            if len(prefix) < 4:
                prefix += await reader.readexactly(4 - len(prefix))
        length = protocol.read_frame_length(prefix)
        payload = await reader.readexactly(length)
        return protocol.decode_frame(payload)

    async def _send_frame(self, writer: asyncio.StreamWriter, obj: dict) -> None:
        writer.write(protocol.encode_frame(obj))
        await writer.drain()

    async def _handle_framed(
        self,
        first: bytes,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        hello = await self._read_frame(reader, prefix=first)
        if hello is None:
            return
        try:
            protocol.check_version(hello)
        except protocol.WireVersionError as exc:
            await self._send_frame(
                writer,
                protocol.message("error", code="wire-version", detail=str(exc)),
            )
            return
        if hello.get("op") != "hello":
            await self._send_frame(
                writer,
                protocol.message(
                    "error",
                    code="protocol-error",
                    detail="connection must open with a hello frame",
                ),
            )
            return
        tenant = self._authenticate(hello.get("token"))
        if tenant is None:
            # Auth failure is answered with a typed error frame and a
            # clean close — a refusal the client can report, not a reset.
            obs.count("repro_net_auth_failures_total", server=self.name)
            await self._send_frame(
                writer,
                protocol.message(
                    "error",
                    code=protocol.REASON_AUTH_FAILED,
                    detail="unknown tenant token",
                ),
            )
            return
        await self._send_frame(
            writer,
            protocol.message(
                "welcome", tenant=tenant.config.name, server=self.name
            ),
        )
        while not self._stopping:
            request = await self._read_frame(reader)
            if request is None:
                return
            with self._responding_to_request():
                op = request.get("op")
                if op == "ping":
                    await self._send_frame(writer, protocol.message("pong"))
                elif op == "batch":
                    await self._handle_batch(request, tenant, writer)
                else:
                    await self._send_frame(
                        writer,
                        protocol.message(
                            "error",
                            code="unknown-op",
                            detail=f"unknown op {op!r}",
                        ),
                    )

    # ------------------------------------------------------------------
    # Batch execution (shared by the framed and HTTP paths)
    # ------------------------------------------------------------------

    def _decode_batch(
        self,
        form: str,
        payload: object,
        tenant: _TenantState,
        *,
        context: Optional[TraceContext],
    ) -> _DecodedBatch:
        """Decode one batch payload and apply admission limits.

        Runs on the event loop, which confines the admission state.  A
        malformed entry fails only its own position; structural junk in
        a ``columns`` payload raises :class:`~repro.net.protocol.WireCodecError`.
        """
        with span(
            "net.decode",
            context=context,
            server=self.name,
            schema=protocol.WIRE_SCHEMA_VERSION,
            probes=_declared_probes(form, payload),
        ):
            probes: Union[list[Probe], ProbeFrame]
            if form == "columns":
                columns, failed = protocol.columns_from_wire(payload)
                probes = ProbeFrame.from_columns(columns)
            else:
                probes = []
                failed = np.zeros(len(payload), dtype=bool)
                for index, entry in enumerate(payload):
                    try:
                        probes.append(protocol.probe_from_wire(entry))
                    except protocol.WireCodecError:
                        probes.append(_invalid_probe())
                        failed[index] = True
        return self._admit(probes, failed, tenant)

    def _admit(
        self,
        probes: Union[list[Probe], ProbeFrame],
        failed: np.ndarray,
        tenant: _TenantState,
    ) -> _DecodedBatch:
        """The batch's verdict column, written from decode, quota and
        backpressure masks.

        Position order decides: the tail past ``max_probes_per_batch`` is
        over quota, and of the rest, the entries beyond the tenant's free
        ``max_pending_probes`` room are backpressured.
        """
        limits = tenant.config
        verdicts = np.empty(failed.size, dtype=object)
        verdicts[failed] = protocol.REASON_WIRE_DECODE
        admitted = ~failed
        if limits.max_probes_per_batch:
            quota = admitted.copy()
            quota[: limits.max_probes_per_batch] = False
            admitted &= ~quota
            verdicts[quota] = REASON_QUOTA_EXCEEDED
        if limits.max_pending_probes:
            room = max(limits.max_pending_probes - tenant.pending_probes, 0)
            pressed = admitted & (np.cumsum(admitted, dtype=np.int64) > room)
            admitted &= ~pressed
            verdicts[pressed] = REASON_BACKPRESSURE
        count = int(np.count_nonzero(admitted))
        if limits.max_pending_probes:
            tenant.pending_probes += count
        return _DecodedBatch(probes, verdicts, count)

    def _release_pending(self, batch: _DecodedBatch, tenant: _TenantState) -> None:
        """End the batch's hold on the tenant's ``max_pending_probes`` room."""
        if tenant.config.max_pending_probes:
            tenant.pending_probes -= batch.admitted

    def _request_trace_context(
        self, request: dict, tenant: _TenantState
    ) -> TraceContext:
        """The trace this request belongs to: the client's, or a new one.

        An absent ``trace_context`` field (an untraced caller) starts a
        new trace; a *malformed* one is counted and ignored rather than
        refused — tracing is an observability concern and must never
        fail a batch that would otherwise be answered.
        """
        wire = request.get("trace_context")
        context: Optional[TraceContext] = None
        if wire is not None:
            try:
                context = protocol.trace_context_from_wire(wire)
            except protocol.WireCodecError:
                obs.count(
                    "repro_net_invalid_trace_context_total", server=self.name
                )
        if context is None:
            context = tracing.new_trace(tenant=tenant.config.name)
        return context

    def _run_batch(
        self,
        batch: _DecodedBatch,
        tenant_name: str,
        on_error: Optional[str],
        want_traces: bool,
        context: Optional[TraceContext] = None,
    ) -> tuple[np.ndarray, Optional[list[ProbeTrace]]]:
        """Answer the decoded batch through the shared service, on the loop.

        The request's trace is attached for the call so the service's
        ``serve.batch`` span parents to the ``net.batch`` span; no
        ``await`` falls between the attach and the detach, so no other
        connection's task can run under this trace.
        """
        # Trace records are built only for a request that asked for them.
        traces: Optional[list[ProbeTrace]] = [] if want_traces else None
        token = tracing.attach(context) if context is not None else None
        try:
            estimates = self.service.estimate_batch(
                batch.probes,
                on_error=on_error,
                trace=None if traces is None else traces.append,
                admission=batch.verdicts if batch.rejected else None,
            )
        finally:
            if context is not None:
                tracing.detach(token)
        obs.count(
            "repro_net_probes_total",
            len(batch.probes),
            server=self.name,
            tenant=tenant_name,
        )
        if batch.rejected:
            obs.count(
                "repro_net_rejected_probes_total",
                batch.rejected,
                server=self.name,
                tenant=tenant_name,
            )
        return estimates, traces

    def _execute_batch(
        self,
        form: str,
        payload: object,
        tenant: _TenantState,
        on_error: Optional[str],
        want_traces: bool,
        *,
        context: Optional[TraceContext] = None,
    ) -> tuple[_DecodedBatch, np.ndarray, Optional[list[ProbeTrace]]]:
        """Decode, admit and answer one batch in one synchronous step.

        The batch's admitted probes stay pending on return: the caller
        releases them (:meth:`_release_pending`) once the answer has been
        handed to the transport.  A batch that fails to answer releases
        them here.
        """
        batch = self._decode_batch(form, payload, tenant, context=context)
        try:
            estimates, traces = self._run_batch(
                batch, tenant.config.name, on_error, want_traces, context
            )
        except BaseException:
            self._release_pending(batch, tenant)
            raise
        return batch, estimates, traces

    async def _handle_batch(
        self,
        request: dict,
        tenant: _TenantState,
        writer: asyncio.StreamWriter,
    ) -> None:
        request_id = request.get("id", 0)
        try:
            form, payload = protocol.batch_payload(request)
        except protocol.WireCodecError as exc:
            await self._send_protocol_error(writer, request_id, exc)
            return
        on_error = request.get("on_error")
        # Detached span (concurrent tasks share this thread) joining the
        # client's trace when the request carried one.
        context = self._request_trace_context(request, tenant)
        with span(
            "net.batch",
            context=context,
            server=self.name,
            tenant=tenant.config.name,
            probes=_declared_probes(form, payload),
        ) as batch_span:
            obs.count(
                "repro_net_batches_total",
                server=self.name,
                tenant=tenant.config.name,
            )
            try:
                batch, estimates, traces = self._execute_batch(
                    form,
                    payload,
                    tenant,
                    on_error,
                    bool(request.get("traces")),
                    context=batch_span.context,
                )
            except protocol.WireCodecError as exc:
                # Structural junk in a columns payload: a typed refusal of
                # this batch; the connection and its other requests live on.
                await self._send_protocol_error(writer, request_id, exc)
                return
            except Exception as exc:
                # on_error="raise" (or an invalid policy string) surfaces
                # as a typed per-batch error frame; the connection and its
                # other requests live on.
                await self._send_frame(
                    writer,
                    protocol.message(
                        "error",
                        id=request_id,
                        code="batch-failed",
                        error_type=type(exc).__name__,
                        detail=str(exc),
                    ),
                )
                return
            try:
                await self._stream_result(
                    writer, request_id, estimates, traces, context=batch_span.context
                )
            finally:
                self._release_pending(batch, tenant)

    async def _send_protocol_error(
        self,
        writer: asyncio.StreamWriter,
        request_id: object,
        exc: protocol.WireCodecError,
    ) -> None:
        await self._send_frame(
            writer,
            protocol.message(
                "error",
                id=request_id,
                code="protocol-error",
                detail=str(exc),
            ),
        )

    async def _stream_result(
        self,
        writer: asyncio.StreamWriter,
        request_id: object,
        estimates: np.ndarray,
        traces: Optional[list[ProbeTrace]],
        *,
        context: Optional[TraceContext] = None,
    ) -> None:
        """Stream one result as ``chunk`` frames (always at least one)."""
        total = int(estimates.size)
        chunk = self._chunk_probes
        with span("net.stream", context=context, server=self.name, probes=total):
            start = 0
            while True:
                end = min(start + chunk, total)
                frame = protocol.message(
                    "chunk",
                    id=request_id,
                    start=start,
                    count=total,
                    estimates=protocol.encode_estimates(estimates[start:end]),
                    eof=end >= total,
                )
                if traces is not None:
                    frame["traces"] = [
                        protocol.trace_to_wire(trace)
                        for trace in traces
                        if start <= trace.position < end
                    ]
                await self._send_frame(writer, frame)
                if end >= total:
                    return
                start = end

    # ------------------------------------------------------------------
    # HTTP/JSON shim
    # ------------------------------------------------------------------

    async def _handle_http(
        self,
        first: bytes,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        """Answer one HTTP/1.1 request on the shared port, then close.

        Supports ``POST /v1/batch`` with the batch-request JSON as body
        and ``GET /v1/health``.  Estimates come back in the same
        bit-exact base64-float64 encoding as the framed protocol.
        """
        try:
            header_blob = first + await asyncio.wait_for(
                reader.readuntil(b"\r\n\r\n"), timeout=10.0
            )
        except (asyncio.TimeoutError, asyncio.IncompleteReadError, asyncio.LimitOverrunError):
            return
        with self._responding_to_request():
            await self._answer_http(header_blob, reader, writer)

    async def _answer_http(
        self,
        header_blob: bytes,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        """Route one HTTP request by its head, read its body, respond."""
        head = header_blob.decode("latin-1")
        request_line, _, header_text = head.partition("\r\n")
        parts = request_line.split()
        if len(parts) < 2:
            return
        method, path = parts[0].upper(), parts[1]
        headers: dict[str, str] = {}
        for line in header_text.split("\r\n"):
            key, sep, value = line.partition(":")
            if sep:
                headers[key.strip().lower()] = value.strip()
        if method == "GET" and path == "/v1/health":
            await _http_respond(writer, 200, {"status": "ok", "server": self.name})
            return
        if method == "GET" and path == "/v1/metrics":
            # Prometheus text exposition (with trace-ID exemplars on
            # latency-histogram buckets).  Unauthenticated, like /v1/health:
            # the ops surface is for the scraper next door.
            from repro.obs import get_registry

            await _http_respond_text(writer, 200, get_registry().to_prometheus())
            return
        if method == "GET" and path == "/v1/ready":
            ready, checks = self.readiness()
            await _http_respond(
                writer,
                200 if ready else 503,
                {
                    "status": "ok" if ready else "unready",
                    "server": self.name,
                    "checks": checks,
                },
            )
            return
        if method == "GET" and path == "/v1/tracez":
            await _http_respond(
                writer,
                200,
                {"server": self.name, "traces": self.recent_traces()},
            )
            return
        if method != "POST" or path != "/v1/batch":
            await _http_respond(
                writer, 404, {"error": f"unknown endpoint {method} {path}"}
            )
            return
        token: Optional[str] = None
        auth = headers.get("authorization", "")
        if auth.lower().startswith("bearer "):
            token = auth[7:].strip()
        tenant = self._authenticate(token)
        if tenant is None:
            obs.count("repro_net_auth_failures_total", server=self.name)
            await _http_respond(
                writer, 401, {"error": protocol.REASON_AUTH_FAILED}
            )
            return
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError as exc:
            await _http_respond(writer, 400, {"error": str(exc)})
            return
        if length > protocol.MAX_FRAME_BYTES:
            # Refused before reading a body byte, like an oversized frame.
            await _http_respond(
                writer,
                413,
                {
                    "error": f"request body of {length} bytes exceeds "
                    f"MAX_FRAME_BYTES ({protocol.MAX_FRAME_BYTES})"
                },
            )
            return
        try:
            body = await reader.readexactly(length) if length else b""
            request = protocol.decode_frame(body)
            protocol.check_version(request)
            form, entries = protocol.batch_payload(request)
        except (ValueError, asyncio.IncompleteReadError) as exc:
            # WireCodecError (version, JSON, envelope) is a ValueError.
            await _http_respond(writer, 400, {"error": str(exc)})
            return
        context = self._request_trace_context(request, tenant)
        with span(
            "net.batch",
            context=context,
            server=self.name,
            tenant=tenant.config.name,
            probes=_declared_probes(form, entries),
            transport="http",
        ) as batch_span:
            obs.count(
                "repro_net_batches_total",
                server=self.name,
                tenant=tenant.config.name,
            )
            try:
                batch, estimates, traces = self._execute_batch(
                    form,
                    entries,
                    tenant,
                    request.get("on_error"),
                    bool(request.get("traces")),
                    context=batch_span.context,
                )
            except protocol.WireCodecError as exc:
                await _http_respond(writer, 400, {"error": str(exc)})
                return
            except Exception as exc:
                await _http_respond(
                    writer,
                    422,
                    {"error": str(exc), "error_type": type(exc).__name__},
                )
                return
        try:
            payload = protocol.message(
                "result",
                count=int(estimates.size),
                estimates=protocol.encode_estimates(estimates),
            )
            if traces is not None:
                payload["traces"] = [protocol.trace_to_wire(t) for t in traces]
            await _http_respond(writer, 200, payload)
        finally:
            self._release_pending(batch, tenant)


def _declared_probes(form: str, payload: object) -> object:
    """The probe count a batch payload declares (a span tag, unvalidated)."""
    return len(payload) if form == "probes" else payload.get("n")


def _invalid_probe() -> Probe:
    """Placeholder for an undecodable wire entry.

    Never reaches an estimator — its admission verdict is always
    ``REASON_WIRE_DECODE`` — but keeps result-vector positions aligned.
    """
    return EqualityProbe(protocol.UNDECODABLE_NAME, protocol.UNDECODABLE_NAME, None)


def _looks_like_http(first: bytes) -> bool:
    """Heuristic shim dispatch: HTTP methods vs. a 4-byte length prefix.

    A framed peer's first 4 bytes are a big-endian length well under
    :data:`~repro.net.protocol.MAX_FRAME_BYTES` (so the first byte is
    ``\\x00``); every HTTP method starts with an uppercase ASCII letter.
    """
    return bool(first) and first[:1].isalpha()


_HTTP_REASONS = {
    200: "OK",
    400: "Bad Request",
    401: "Unauthorized",
    404: "Not Found",
    413: "Payload Too Large",
    422: "Unprocessable Entity",
    503: "Service Unavailable",
}


async def _http_respond(
    writer: asyncio.StreamWriter, status: int, payload: dict
) -> None:
    import json

    body = json.dumps(payload, separators=(",", ":"), allow_nan=False).encode("utf-8")
    await _http_respond_raw(writer, status, body, "application/json")


async def _http_respond_text(
    writer: asyncio.StreamWriter, status: int, text: str
) -> None:
    await _http_respond_raw(
        writer, status, text.encode("utf-8"), "text/plain; charset=utf-8"
    )


async def _http_respond_raw(
    writer: asyncio.StreamWriter, status: int, body: bytes, content_type: str
) -> None:
    head = (
        f"HTTP/1.1 {status} {_HTTP_REASONS.get(status, 'Error')}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        "Connection: close\r\n\r\n"
    ).encode("latin-1")
    writer.write(head + body)
    await writer.drain()


# ---------------------------------------------------------------------------
# Threaded harness (tests, CLI, benchmarks)
# ---------------------------------------------------------------------------


class ServerHandle:
    """A running server on a background event-loop thread.

    Returned by :func:`serve_in_thread`; usable as a context manager.
    ``address`` is ready as soon as the constructor returns.
    """

    def __init__(self, server: EstimationServer):
        self.server = server
        self._loop = asyncio.new_event_loop()
        self._started = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name=f"repro-net-{server.name}", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout=30.0):
            raise RuntimeError("server thread failed to start in 30s")
        if isinstance(self._startup, BaseException):
            raise self._startup

    def _run(self) -> None:
        asyncio.set_event_loop(self._loop)
        try:
            self._loop.run_until_complete(self.server.start())
            self._startup: object = None
        except BaseException as exc:  # startup failure surfaces in __init__
            self._startup = exc
            self._started.set()
            return
        self._started.set()
        try:
            self._loop.run_forever()
        finally:
            self._loop.run_until_complete(self.server.stop())
            self._loop.close()

    @property
    def address(self) -> tuple[str, int]:
        """The (host, port) the background server is bound to."""
        return self.server.address

    def stop(self) -> None:
        """Stop the server and join the loop thread."""
        if self._thread.is_alive():
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=30.0)

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


def serve_in_thread(
    service: EstimationService,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    tenants: Optional[Sequence[TenantConfig]] = None,
    chunk_probes: int = DEFAULT_CHUNK_PROBES,
    name: Optional[str] = None,
) -> ServerHandle:
    """Start an :class:`EstimationServer` on a daemon event-loop thread."""
    server = EstimationServer(
        service,
        host=host,
        port=port,
        tenants=tenants,
        chunk_probes=chunk_probes,
        name=name,
    )
    return ServerHandle(server)
