"""The asynchronous client SDK flavor.

Same SDK as :mod:`repro.net.client` — same :class:`~repro.net.client.BatchCall`
core, same frames, same bit-identical answers — over asyncio streams::

    from repro.net import connect_async

    client = await connect_async("127.0.0.1", 9919, token="s3cret")
    try:
        estimates = await client.estimate_batch(probes)
    finally:
        await client.close()

or as an async context manager::

    async with AsyncEstimationClient(host, port, token=token) as client:
        async for start, chunk in client.stream_batch(probes):
            ...
"""

from __future__ import annotations

import asyncio
import contextlib
from typing import AsyncIterator, Callable, Optional, Sequence

import numpy as np

from repro.net import protocol
from repro.net.client import (
    DEFAULT_BACKOFF,
    DEFAULT_JITTER,
    DEFAULT_MAX_ELAPSED,
    DEFAULT_RETRIES,
    DEFAULT_TIMEOUT,
    AuthenticationError,
    BatchCall,
    ClientError,
    ConnectionFailedError,
    RetrySchedule,
    join_chunks,
    welcome_tenant,
)
from repro.obs import tracing
from repro.obs.tracing import span
from repro.serve.service import Probe, ProbeTrace


class AsyncEstimationClient:
    """Asyncio SDK flavor; one instance owns one connection.

    Not safe for concurrent use from multiple tasks — frames of
    interleaved requests would interleave on one stream.  Create one
    client per task (the server handles many connections concurrently);
    that is also how the concurrency benchmark drives it.
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
        #: Default ``on_error`` policy sent with every batch.
        self.on_error = on_error
        self.tenant: Optional[str] = None
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        #: The last batch sent on this connection (see :meth:`_exchange`).
        self._last_call: Optional[BatchCall] = None
        self._next_id = 1

    # -- connection lifecycle ------------------------------------------

    @property
    def connected(self) -> bool:
        """True while a handshaken connection is held."""
        return self._writer is not None

    async def connect(self) -> "AsyncEstimationClient":
        """Open the connection and handshake; retried with backoff.

        A connection whose last batch is not done is replaced by a fresh
        one.  The event loop closes an abandoned async stream only when
        it finalizes it, so this check, not the stream's own cleanup,
        keeps that stream's frames from answering the next request.
        """
        if self._last_call is not None and not self._last_call.done:
            await self._teardown()
        if self._writer is not None:
            return self
        failure: Optional[Exception] = None
        schedule = self._schedule()
        attempt = 0
        while True:
            try:
                await self._open_once()
                return self
            except AuthenticationError:
                raise
            except (OSError, asyncio.TimeoutError, ClientError) as exc:
                failure = exc
                await self._teardown()
                delay = schedule.next_delay(attempt)
                if delay is None:
                    break
                await asyncio.sleep(delay)
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

    async def _open_once(self) -> None:
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(self.host, self.port), timeout=self.timeout
        )
        self._reader, self._writer = reader, writer
        try:
            await self._send(protocol.hello_request(token=self.token))
            self.tenant = welcome_tenant(await self._recv_frame())
        except BaseException:
            await self._teardown()
            raise

    async def _teardown(self) -> None:
        self._last_call = None
        writer, self._reader, self._writer = self._writer, None, None
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def close(self) -> None:
        """Close the connection (reconnects transparently on next use)."""
        await self._teardown()

    async def __aenter__(self) -> "AsyncEstimationClient":
        return await self.connect()

    async def __aexit__(self, *exc_info: object) -> None:
        await self.close()

    # -- wire helpers ---------------------------------------------------

    async def _send(self, obj: dict) -> None:
        assert self._writer is not None
        self._writer.write(protocol.encode_frame(obj))
        await self._writer.drain()

    async def _recv_frame(self) -> dict:
        assert self._reader is not None
        try:
            prefix = await asyncio.wait_for(
                self._reader.readexactly(4), timeout=self.timeout
            )
            length = protocol.read_frame_length(prefix)
            payload = await asyncio.wait_for(
                self._reader.readexactly(length), timeout=self.timeout
            )
        except asyncio.IncompleteReadError as exc:
            raise ConnectionFailedError("server closed the connection") from exc
        return protocol.decode_frame(payload)

    @contextlib.asynccontextmanager
    async def _exchange(self, call: BatchCall) -> AsyncIterator[None]:
        """Send *call*; on leaving, drop the connection unless it is done.

        The sync flavor's rule, cancellation included.
        """
        self._last_call = call
        try:
            await self._send(call.request())
            yield
        finally:
            if self._last_call is call and not call.done:
                await self._teardown()

    # -- operations -----------------------------------------------------

    async def ping(self) -> bool:
        """Round-trip a ping frame; True on pong."""
        await self.connect()
        await self._send(protocol.message("ping"))
        return (await self._recv_frame()).get("op") == "pong"

    async def estimate_batch(
        self,
        probes: Sequence[Probe],
        *,
        on_error: Optional[str] = None,
        trace: Optional[Callable[[ProbeTrace], None]] = None,
    ) -> np.ndarray:
        """Submit one batch; returns the assembled float64 vector.

        Same semantics (and same bits) as the sync flavor: idempotent
        resubmission on connection failure, :class:`RemoteBatchError`
        passed through untouched.
        """
        probes = list(probes)
        failure: Optional[Exception] = None
        schedule = self._schedule()
        attempt = 0
        # Detached span: concurrent tasks share this thread, so a
        # stack-based span would leak into sibling tasks' parentage.
        context = tracing.current_trace_context()
        if context is None:
            context = tracing.new_trace()
        with span(
            "net.client.batch",
            context=context,
            host=self.host,
            port=self.port,
            probes=len(probes),
        ) as client_span:
            while True:
                await self.connect()
                call = BatchCall(
                    probes,
                    request_id=self._take_id(),
                    on_error=on_error if on_error is not None else self.on_error,
                    trace=trace,
                    trace_context=client_span.context,
                )
                try:
                    async with self._exchange(call):
                        chunks = []
                        while not call.done:
                            chunks.append(call.consume(await self._recv_frame()))
                    return join_chunks(chunks)
                except (ConnectionFailedError, OSError, asyncio.TimeoutError) as exc:
                    failure = exc
                    delay = schedule.next_delay(attempt)
                    if delay is None:
                        break
                    await asyncio.sleep(delay)
                    attempt += 1
        raise ConnectionFailedError(
            f"batch submission to {self.host}:{self.port} failed after "
            f"{attempt + 1} attempts ({schedule.elapsed():.1f}s): {failure}"
        ) from failure

    async def stream_batch(
        self,
        probes: Sequence[Probe],
        *,
        on_error: Optional[str] = None,
        trace: Optional[Callable[[ProbeTrace], None]] = None,
    ) -> AsyncIterator[tuple[int, np.ndarray]]:
        """Yield ``(start, estimates_slice)`` chunks as they arrive.

        No mid-stream retry, matching the sync flavor: once chunks have
        been yielded the consumer owns partial state.  A stream abandoned
        before its last chunk costs the connection; the next call
        reconnects.
        """
        await self.connect()
        call = BatchCall(
            list(probes),
            request_id=self._take_id(),
            on_error=on_error if on_error is not None else self.on_error,
            trace=trace,
            # Matches the sync flavor: no client span around a generator,
            # but the stream joins the surrounding trace when one exists.
            trace_context=tracing.current_trace_context(),
        )
        async with self._exchange(call):
            while not call.done:
                frame = await self._recv_frame()
                yield int(frame.get("start", 0)), call.consume(frame)

    def _take_id(self) -> int:
        request_id = self._next_id
        self._next_id += 1
        return request_id


async def connect_async(
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
) -> AsyncEstimationClient:
    """Connect an :class:`AsyncEstimationClient` (and handshake)."""
    client = AsyncEstimationClient(
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
    return await client.connect()
