"""The synchronous client SDK (and the core both SDK flavors share).

Usage::

    from repro.net import connect
    from repro.serve import EqualityProbe

    with connect("127.0.0.1", 9919, token="s3cret") as client:
        estimates = client.estimate_batch([EqualityProbe("R0", "a", 7)])

Both flavors — this module's :class:`EstimationClient` and
:class:`~repro.net.aio.AsyncEstimationClient` — are thin transports
around one sans-IO core: :func:`welcome_tenant` reads the server's reply
to the ``hello`` handshake, and :class:`BatchCall` builds each batch
request (always the wire schema's column form), consumes the response
frames, hands back each streamed chunk's float64 slice, and surfaces
degradation traces.  Keeping every protocol decision in the shared core
is what makes the two flavors answer bit-identically.

Degradation reasons are *surfaced, never swallowed*: pass ``trace=`` to
receive decoded :class:`~repro.serve.ProbeTrace` records (including the
server-side admission rejections ``quota-exceeded`` / ``backpressure``),
exactly as an in-process ``estimate_batch(trace=...)`` caller would.

Retries: connection establishment and idempotent submissions retry with
exponential backoff (estimation is read-only, so resubmitting a batch
after a broken connection is always safe).  Each delay is jittered
(±``jitter`` multiplicatively) so a fleet of clients losing one server
does not reconnect in lockstep, and the whole retry loop is bounded by
``max_elapsed`` wall seconds — a slow network cannot stretch a handful
of retries into an unbounded stall.  Typed failures:
:class:`AuthenticationError` (bad token — not retried),
:class:`RemoteBatchError` (the server answered with a per-batch error,
e.g. ``on_error="raise"`` propagating — not retried),
:class:`ConnectionFailedError` (retries exhausted).  A batch that stops
before its last frame for any other reason (a :class:`ProtocolError`,
cancellation, an abandoned stream) drops the connection, so its unread
frames never answer a later batch; the next call reconnects.
"""

from __future__ import annotations

import contextlib
import socket
import time
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from repro.net import protocol
from repro.obs import tracing
from repro.obs.tracing import TraceContext, span
from repro.serve.service import Probe, ProbeTrace
from repro.util.rng import derive_rng

#: Default connect/read timeout (seconds).
DEFAULT_TIMEOUT = 30.0
#: Default number of *re*-tries after the first failed attempt.
DEFAULT_RETRIES = 3
#: First backoff delay; doubles per retry.
DEFAULT_BACKOFF = 0.05
#: Default multiplicative jitter applied to every backoff delay.
DEFAULT_JITTER = 0.25
#: Default cap on total wall time spent inside one retry loop (seconds).
DEFAULT_MAX_ELAPSED = 30.0


class ClientError(RuntimeError):
    """Base class of every SDK failure."""


class ConnectionFailedError(ClientError):
    """Could not reach the server (after the configured retries)."""


class AuthenticationError(ClientError):
    """The server refused our token; retrying would not help."""


class ProtocolError(ClientError):
    """The peer sent something outside the wire schema."""


class RemoteBatchError(ClientError):
    """The server answered the batch with a typed error frame.

    Carries the server-side exception type name in ``error_type`` (e.g.
    ``"KeyError"`` when ``on_error="raise"`` propagated an unknown
    relation).
    """

    def __init__(self, code: str, detail: str, error_type: Optional[str] = None):
        super().__init__(f"{code}: {detail}")
        self.code = code
        self.detail = detail
        self.error_type = error_type


class RetrySchedule:
    """One retry loop's delays: exponential, jittered, elapsed-capped.

    Construct one per operation (it anchors its elapsed budget at
    construction time), then ask :meth:`next_delay` before each retry:

    * ``base * 2**attempt`` gives the nominal delay;
    * the delay is multiplied by ``U[1 - jitter, 1 + jitter]`` so many
      clients recovering from the same outage spread their reconnects;
    * ``None`` is returned — retrying must stop — once the configured
      retries are spent **or** the total wall time since construction
      would exceed ``max_elapsed`` (the last delay is clamped to the
      remaining budget rather than overshooting it).

    *clock* and *rng* are injectable for deterministic tests; the clock
    only ever measures durations, so a monotonic source is the default.
    Without an *rng*, an OS-seeded generator is derived on the first
    jittered delay, so an operation that never retries never builds one.
    """

    def __init__(
        self,
        retries: int,
        base: float,
        *,
        jitter: float = DEFAULT_JITTER,
        max_elapsed: Optional[float] = DEFAULT_MAX_ELAPSED,
        rng: object = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if base < 0.0:
            raise ValueError(f"base must be >= 0, got {base}")
        if not 0.0 <= jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1), got {jitter}")
        if max_elapsed is not None and max_elapsed <= 0.0:
            raise ValueError(f"max_elapsed must be > 0, got {max_elapsed}")
        self.retries = int(retries)
        self.base = float(base)
        self.jitter = float(jitter)
        self.max_elapsed = None if max_elapsed is None else float(max_elapsed)
        self._rng = None if rng is None else derive_rng(rng)
        self._clock = clock
        self._start = float(clock())

    def elapsed(self) -> float:
        """Wall seconds since this schedule was constructed."""
        return float(self._clock()) - self._start

    def next_delay(self, attempt: int) -> Optional[float]:
        """The sleep before retry *attempt* (0-based), or ``None`` to stop."""
        if attempt >= self.retries:
            return None
        delay = self.base * (2.0**attempt)
        if self.jitter:
            if self._rng is None:
                self._rng = derive_rng(None)
            delay *= 1.0 + self.jitter * (2.0 * float(self._rng.random()) - 1.0)
        if self.max_elapsed is not None:
            remaining = self.max_elapsed - self.elapsed()
            if remaining <= 0.0:
                return None
            delay = min(delay, remaining)
        return delay


def welcome_tenant(frame: dict) -> Optional[str]:
    """The tenant named by the server's reply to ``hello``.

    Raises :class:`AuthenticationError` when the server refused the token
    and :class:`ProtocolError` for any other refusal (``wire-version``
    included) or reply, and for a reply stamped with another schema
    version — identically for both transports.
    """
    try:
        protocol.check_version(frame)
    except protocol.WireVersionError as exc:
        raise ProtocolError(f"handshake failed: {exc}") from exc
    op = frame.get("op")
    if op == "error":
        if frame.get("code") == protocol.REASON_AUTH_FAILED:
            raise AuthenticationError(
                f"server refused token: {frame.get('detail', '')}"
            )
        raise ProtocolError(f"handshake failed: {frame}")
    if op != "welcome":
        raise ProtocolError(f"expected a welcome frame, got {op!r}")
    return frame.get("tenant")


class BatchCall:
    """Sans-IO state machine for one batch request/response exchange.

    The transport sends :meth:`request` and feeds every response frame to
    :meth:`consume` until :attr:`done`; each call hands back that frame's
    decoded estimate slice, and the call keeps none of them — the
    transport assembles (or streams) the slices.  Raises
    :class:`RemoteBatchError` on a server error frame and
    :class:`ProtocolError` on schema junk — identically for both
    transports.  The batch travels in column form
    (:func:`~repro.net.protocol.probes_to_columns`).
    """

    def __init__(
        self,
        probes: Sequence[Probe],
        *,
        request_id: int,
        on_error: Optional[str],
        trace: Optional[Callable[[ProbeTrace], None]],
        trace_context: Optional[TraceContext] = None,
    ):
        self._count = len(probes)
        self._request = protocol.columns_request(
            protocol.probes_to_columns(probes),
            request_id=request_id,
            on_error=on_error,
            want_traces=trace is not None,
            trace_context=trace_context,
        )
        self._request_id = request_id
        self._trace = trace
        self._received = 0
        #: True once the response's last frame — the eof chunk, or an
        #: error frame — has been consumed: the stream is then in step.
        self.done = False

    def request(self) -> dict:
        """The envelope to send."""
        return self._request

    def consume(self, frame: dict) -> np.ndarray:
        """Absorb one response frame; returns its decoded estimate slice."""
        try:
            protocol.check_version(frame)
        except protocol.WireVersionError as exc:
            raise ProtocolError(f"bad response frame: {exc}") from exc
        op = frame.get("op")
        if op == "error":
            self.done = True
            raise RemoteBatchError(
                code=str(frame.get("code", "error")),
                detail=str(frame.get("detail", "")),
                error_type=frame.get("error_type"),
            )
        if op != "chunk":
            raise ProtocolError(f"expected a chunk frame, got op={op!r}")
        if frame.get("id") != self._request_id:
            raise ProtocolError(
                f"response id {frame.get('id')!r} does not match request "
                f"id {self._request_id}"
            )
        try:
            chunk = protocol.decode_estimates(frame["estimates"])
        except (KeyError, protocol.WireCodecError) as exc:
            raise ProtocolError(f"bad chunk frame: {exc}") from exc
        if frame.get("start") != self._received:
            raise ProtocolError(
                f"out-of-order chunk: start={frame.get('start')!r}, "
                f"expected {self._received}"
            )
        try:
            total = int(frame.get("count", self._count))
            traces = (
                [protocol.trace_from_wire(wire) for wire in frame.get("traces", [])]
                if self._trace is not None
                else ()
            )
        except (TypeError, ValueError) as exc:
            # WireCodecError is a ValueError.
            raise ProtocolError(f"bad chunk frame: {exc}") from exc
        self._received += chunk.size
        for trace in traces:
            self._trace(trace)
        self.done = bool(frame.get("eof"))
        if self.done and self._received != total:
            raise ProtocolError(
                f"stream ended after {self._received} of {total} estimates"
            )
        return chunk


def join_chunks(chunks: list[np.ndarray]) -> np.ndarray:
    """One float64 vector from the slices :meth:`BatchCall.consume` returned."""
    if not chunks:
        return np.zeros(0, dtype=np.float64)
    return np.concatenate(chunks)


class EstimationClient:
    """Synchronous SDK over a plain TCP socket.

    Lazily connects on first use; usable as a context manager.  One
    client owns one connection and is **not** thread-safe — give each
    thread its own client (connections are cheap; the server is
    concurrent).

    Parameters mirror :func:`connect`, the preferred spelling.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        token: Optional[str] = None,
        timeout: float = DEFAULT_TIMEOUT,
        retries: int = DEFAULT_RETRIES,
        backoff: float = DEFAULT_BACKOFF,
        jitter: float = DEFAULT_JITTER,
        max_elapsed: Optional[float] = DEFAULT_MAX_ELAPSED,
        on_error: Optional[str] = None,
    ):
        self.host = host
        self.port = int(port)
        self.token = token
        self.timeout = float(timeout)
        self.retries = int(retries)
        self.backoff = float(backoff)
        self.jitter = float(jitter)
        self.max_elapsed = max_elapsed
        #: Default ``on_error`` policy sent with every batch (None defers
        #: to the server-side service default).
        self.on_error = on_error
        self.tenant: Optional[str] = None
        self._sock: Optional[socket.socket] = None
        self._decoder = protocol.FrameDecoder()
        #: Frames received ahead of their reader (pipelined responses).
        self._pending: list[dict] = []
        #: The last batch sent on this connection (see :meth:`_exchange`).
        self._last_call: Optional[BatchCall] = None
        self._next_id = 1

    # -- connection lifecycle ------------------------------------------

    @property
    def connected(self) -> bool:
        """True while a handshaken connection is held."""
        return self._sock is not None

    def connect(self) -> "EstimationClient":
        """Open the connection and complete the hello handshake.

        Idempotent; retried with exponential backoff.  Returns ``self``
        for chaining.  A connection whose last batch is not done (an
        abandoned stream) is replaced by a fresh one.
        """
        if self._last_call is not None and not self._last_call.done:
            self._teardown()
        if self._sock is not None:
            return self
        failure: Optional[Exception] = None
        schedule = self._schedule()
        attempt = 0
        while True:
            try:
                self._open_once()
                return self
            except AuthenticationError:
                raise
            except (OSError, ClientError) as exc:
                failure = exc
                self._teardown()
                delay = schedule.next_delay(attempt)
                if delay is None:
                    break
                time.sleep(delay)
                attempt += 1
        raise ConnectionFailedError(
            f"could not connect to {self.host}:{self.port} after "
            f"{attempt + 1} attempts ({schedule.elapsed():.1f}s): {failure}"
        ) from failure

    def _schedule(self) -> RetrySchedule:
        return RetrySchedule(
            self.retries,
            self.backoff,
            jitter=self.jitter,
            max_elapsed=self.max_elapsed,
        )

    def _open_once(self) -> None:
        sock = socket.create_connection(
            (self.host, self.port), timeout=self.timeout
        )
        try:
            self._decoder = protocol.FrameDecoder()
            self._pending.clear()
            self._sock = sock
            self._send(protocol.hello_request(token=self.token))
            self.tenant = welcome_tenant(self._recv_frame())
        except BaseException:
            self._sock = None
            sock.close()
            raise

    def _teardown(self) -> None:
        self._last_call = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def close(self) -> None:
        """Close the connection (reconnects transparently on next use)."""
        self._teardown()

    def __enter__(self) -> "EstimationClient":
        return self.connect()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- wire helpers ---------------------------------------------------

    def _send(self, obj: dict) -> None:
        assert self._sock is not None
        self._sock.sendall(protocol.encode_frame(obj))

    def _recv_frame(self) -> dict:
        assert self._sock is not None
        while True:
            data = self._sock.recv(65536)
            if not data:
                raise ConnectionFailedError("server closed the connection")
            frames = self._decoder.feed(data)
            if frames:
                self._pending.extend(frames[1:])
                return frames[0]

    # -- operations -----------------------------------------------------

    def ping(self) -> bool:
        """Round-trip a ping frame; True on pong."""
        self.connect()
        self._send(protocol.message("ping"))
        return self._next_frames_one().get("op") == "pong"

    def _next_frames_one(self) -> dict:
        if self._pending:
            return self._pending.pop(0)
        return self._recv_frame()

    @contextlib.contextmanager
    def _exchange(self, call: BatchCall) -> Iterator[None]:
        """Send *call*; on leaving, drop the connection unless it is done.

        A call that is not done stopped before its last frame: a
        protocol or codec error, a lost connection, an abandoned stream.
        Its unread frames would otherwise answer the next request.
        """
        self._last_call = call
        try:
            self._send(call.request())
            yield
        finally:
            if self._last_call is call and not call.done:
                self._teardown()

    def estimate_batch(
        self,
        probes: Sequence[Probe],
        *,
        on_error: Optional[str] = None,
        trace: Optional[Callable[[ProbeTrace], None]] = None,
    ) -> np.ndarray:
        """Submit one batch; returns the assembled float64 vector.

        Bit-identical to ``EstimationService.estimate_batch`` on the
        server's service.  A broken connection is retried from scratch
        (idempotent); a server-side batch error raises
        :class:`RemoteBatchError` without retrying.
        """
        probes = list(probes)
        failure: Optional[Exception] = None
        schedule = self._schedule()
        attempt = 0
        # The client-side span for this batch: the request carries its
        # context, so the server's net.batch span — and
        # everything under it, including maintenance jobs the batch
        # triggers — joins THIS trace.
        with span(
            "net.client.batch",
            host=self.host,
            port=self.port,
            probes=len(probes),
        ) as client_span:
            while True:
                self.connect()
                call = BatchCall(
                    probes,
                    request_id=self._take_id(),
                    on_error=on_error if on_error is not None else self.on_error,
                    trace=trace,
                    trace_context=client_span.context,
                )
                try:
                    with self._exchange(call):
                        chunks = []
                        while not call.done:
                            chunks.append(call.consume(self._next_frames_one()))
                    return join_chunks(chunks)
                except (ConnectionFailedError, OSError) as exc:
                    failure = exc
                    delay = schedule.next_delay(attempt)
                    if delay is None:
                        break
                    time.sleep(delay)
                    attempt += 1
        raise ConnectionFailedError(
            f"batch submission to {self.host}:{self.port} failed after "
            f"{attempt + 1} attempts ({schedule.elapsed():.1f}s): {failure}"
        ) from failure

    def stream_batch(
        self,
        probes: Sequence[Probe],
        *,
        on_error: Optional[str] = None,
        trace: Optional[Callable[[ProbeTrace], None]] = None,
    ) -> Iterator[tuple[int, np.ndarray]]:
        """Submit one batch and yield ``(start, estimates_slice)`` chunks.

        The streaming spelling of :meth:`estimate_batch` for results too
        large to hold comfortably: chunks arrive in order as the server
        produces them.  No mid-stream retry — a connection failure after
        chunks were yielded raises (the consumer has partial state only
        it can roll back).  A stream abandoned before its last chunk
        costs the connection; the next call reconnects.
        """
        self.connect()
        call = BatchCall(
            list(probes),
            request_id=self._take_id(),
            on_error=on_error if on_error is not None else self.on_error,
            trace=trace,
            # A generator outlives its call frame, so no span is opened
            # here; the stream still joins the caller's trace if any.
            trace_context=tracing.current_trace_context(),
        )
        with self._exchange(call):
            while not call.done:
                frame = self._next_frames_one()
                yield int(frame.get("start", 0)), call.consume(frame)

    def _take_id(self) -> int:
        request_id = self._next_id
        self._next_id += 1
        return request_id


def connect(
    host: str,
    port: int,
    *,
    token: Optional[str] = None,
    timeout: float = DEFAULT_TIMEOUT,
    retries: int = DEFAULT_RETRIES,
    backoff: float = DEFAULT_BACKOFF,
    jitter: float = DEFAULT_JITTER,
    max_elapsed: Optional[float] = DEFAULT_MAX_ELAPSED,
    on_error: Optional[str] = None,
) -> EstimationClient:
    """Connect a synchronous :class:`EstimationClient` (and handshake)."""
    client = EstimationClient(
        host,
        port,
        token=token,
        timeout=timeout,
        retries=retries,
        backoff=backoff,
        jitter=jitter,
        max_elapsed=max_elapsed,
        on_error=on_error,
    )
    return client.connect()
