"""Loopback tests: asyncio server + both SDK flavors against one service.

The acceptance bar for the network front-end: a mixed 10k batch answered
through the sync SDK, the async SDK, and the in-process service must
produce three bit-identical float64 vectors — including degraded entries
and their trace reasons — and admission control must surface as typed
per-probe degradation, never as a dropped connection.
"""

from __future__ import annotations

import asyncio
import gc
import http.client
import json
import logging
import math
import socket
import threading
import time
import weakref

import numpy as np
import pytest

from repro.core.biased import v_opt_bias_hist
from repro.engine.analyze import analyze_relation
from repro.engine.catalog import CatalogEntry, StatsCatalog
from repro.engine.relation import Relation
from repro.net import (
    AsyncEstimationClient,
    AuthenticationError,
    ClientError,
    EstimationClient,
    ProtocolError,
    RemoteBatchError,
    TenantConfig,
    protocol,
    serve_in_thread,
)
from repro.net import server as server_module
from repro.net.protocol import probes_to_wire
from repro.obs import runtime
from repro.obs.tracing import add_span_sink, clear_span_sinks
from repro.serve import (
    EqualityProbe,
    EstimationService,
    JoinProbe,
    RangeProbe,
)
from repro.serve.service import REASON_BACKPRESSURE, REASON_QUOTA_EXCEEDED
from repro.util.rng import derive_rng


@pytest.fixture(autouse=True)
def fresh_obs():
    runtime.reset()
    clear_span_sinks()
    yield
    runtime.reset()
    clear_span_sinks()


@pytest.fixture
def catalog():
    catalog = StatsCatalog()
    r = Relation.from_columns(
        "R", {"a": [1] * 40 + [2] * 25 + [3] * 20 + [4] * 10 + [5] * 5}
    )
    s = Relation.from_columns("S", {"a": [1] * 10 + [2] * 10 + [3] * 10})
    analyze_relation(r, "a", catalog, kind="serial", buckets=3)
    analyze_relation(s, "a", catalog, kind="end-biased", buckets=2)
    # A non-numeric domain: ranges answer first-class for string bounds
    # and degrade (incomparable-bound) for numeric ones.
    hist = v_opt_bias_hist([6.0, 3.0, 1.0], 2, values=["a", "b", "c"])
    catalog.put(CatalogEntry("T", "s", "biased", hist, None, 3, 10.0))
    return catalog


@pytest.fixture
def service(catalog):
    return EstimationService(catalog)


@pytest.fixture
def server(service):
    with serve_in_thread(service, name="test-net") as handle:
        yield handle


def mixed_probes(n):
    """A deterministic mixed batch: healthy and poisoned, every kind."""
    probes = []
    for i in range(n):
        pick = i % 10
        if pick < 3:
            probes.append(EqualityProbe("R", "a", (i % 7)))
        elif pick < 5:
            low = None if i % 4 == 0 else (i % 5)
            high = None if i % 6 == 0 else (i % 5) + 2
            probes.append(RangeProbe("R", "a", low, high, include_low=i % 2 == 0))
        elif pick == 5:
            probes.append(JoinProbe("R", "a", "S", "a"))
        elif pick == 6:
            probes.append(EqualityProbe("T", "s", "abc"[i % 3]))
        elif pick == 7:
            # Numeric bound over a string domain: incomparable-bound.
            probes.append(RangeProbe("T", "s", 1, None))
        elif pick == 8:
            probes.append(EqualityProbe("ZZZ", "a", 1))  # unknown-relation
        else:
            probes.append(JoinProbe("ZZZ", "a", "R", "a"))  # unknown-relation
    return probes


def trace_key(trace):
    value = "nan" if math.isnan(trace.value) else float(trace.value).hex()
    return (
        trace.position,
        trace.kind,
        trace.relation,
        trace.attribute,
        trace.reason,
        trace.degraded,
        value,
    )


class StalledWrite:
    """A server ``_send_frame`` that holds the first ``chunk`` frame.

    The write-out of that answer waits (on the event loop, without
    blocking it) until :attr:`release` is set; :attr:`entered` is set
    once the stall has begun.
    """

    def __init__(self, send):
        self._send = send
        self.entered = threading.Event()
        self.release = threading.Event()

    async def __call__(self, writer, obj):
        if obj.get("op") == "chunk" and not self.entered.is_set():
            self.entered.set()
            while not self.release.is_set():
                await asyncio.sleep(0.005)
        await self._send(writer, obj)


def wait_until(condition, timeout=10.0):
    """Poll *condition* from the test thread; True once it holds."""
    deadline = time.monotonic() + timeout
    while not condition():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.002)
    return True


def open_peer(address, token="tok"):
    """A raw framed connection past its hello/welcome exchange."""
    peer = socket.create_connection(address, timeout=10)
    peer.sendall(protocol.encode_frame(protocol.hello_request(token=token)))
    welcome = protocol.FrameDecoder().feed(peer.recv(65536))
    assert welcome[0]["op"] == "welcome"
    return peer


def read_frames_to_eof(peer):
    """Every frame a raw peer receives until the server closes it."""
    decoder = protocol.FrameDecoder()
    frames = []
    while True:
        try:
            data = peer.recv(65536)
        except ConnectionResetError:
            return frames
        if not data:
            return frames
        frames.extend(decoder.feed(data))


class TestLoopbackBitIdentity:
    @pytest.mark.parametrize("on_error", ["fallback", "nan"])
    def test_10k_mixed_batch_three_ways(self, service, server, on_error):
        """Sync SDK, async SDK, and in-process: three bit-identical
        vectors and identical trace streams for a 10k mixed batch."""
        probes = mixed_probes(10_000)
        host, port = server.address

        local_traces = []
        local = service.estimate_batch(
            probes, on_error=on_error, trace=local_traces.append
        )

        sync_traces = []
        with EstimationClient(host, port) as client:
            via_sync = client.estimate_batch(
                probes, on_error=on_error, trace=sync_traces.append
            )

        async_traces = []

        async def drive():
            async with AsyncEstimationClient(host, port) as client:
                return await client.estimate_batch(
                    probes, on_error=on_error, trace=async_traces.append
                )

        via_async = asyncio.run(drive())

        assert local.dtype == via_sync.dtype == via_async.dtype == np.float64
        assert via_sync.tobytes() == local.tobytes()
        assert via_async.tobytes() == local.tobytes()

        # Degradations really happened (the batch is poisoned on purpose)…
        assert local_traces
        reasons = {trace.reason for trace in local_traces}
        assert "unknown-relation" in reasons
        assert "incomparable-bound" in reasons
        # …and the wire carried every trace with its reason, bit-exact.
        expected = sorted(trace_key(t) for t in local_traces)
        assert sorted(trace_key(t) for t in sync_traces) == expected
        assert sorted(trace_key(t) for t in async_traces) == expected

    def test_raise_policy_is_a_typed_remote_error(self, service, server):
        host, port = server.address
        probes = [EqualityProbe("R", "a", 1), EqualityProbe("ZZZ", "a", 1)]
        with EstimationClient(host, port) as client:
            with pytest.raises(RemoteBatchError) as excinfo:
                client.estimate_batch(probes, on_error="raise")
            assert excinfo.value.code == "batch-failed"
            assert excinfo.value.error_type == "KeyError"
            # The connection survives the failed batch.
            follow_up = client.estimate_batch([EqualityProbe("R", "a", 1)])
            assert follow_up.shape == (1,)

        async def drive():
            async with AsyncEstimationClient(host, port) as client:
                with pytest.raises(RemoteBatchError):
                    await client.estimate_batch(probes, on_error="raise")
                return await client.estimate_batch([EqualityProbe("R", "a", 1)])

        assert asyncio.run(drive()).shape == (1,)

    def test_empty_batch(self, server):
        host, port = server.address
        with EstimationClient(host, port) as client:
            out = client.estimate_batch([])
        assert out.shape == (0,)
        assert out.dtype == np.float64

    def test_ping(self, server):
        host, port = server.address
        with EstimationClient(host, port) as client:
            assert client.ping() is True


class TestStreaming:
    def test_multi_chunk_stream_reassembles_bit_exactly(self, service):
        probes = mixed_probes(50)
        local = service.estimate_batch(probes)
        with serve_in_thread(service, chunk_probes=7) as handle:
            host, port = handle.address
            with EstimationClient(host, port) as client:
                chunks = list(client.stream_batch(probes))
            assert [start for start, _ in chunks] == list(range(0, 50, 7))
            assert all(chunk.size <= 7 for _, chunk in chunks)
            joined = np.concatenate([chunk for _, chunk in chunks])
            assert joined.tobytes() == local.tobytes()

            async def drive():
                collected = []
                async with AsyncEstimationClient(host, port) as client:
                    async for start, chunk in client.stream_batch(probes):
                        collected.append((start, chunk))
                return collected

            async_chunks = asyncio.run(drive())
            joined = np.concatenate([chunk for _, chunk in async_chunks])
            assert joined.tobytes() == local.tobytes()


    def test_stream_decodes_each_chunk_once_and_keeps_none(self, service, monkeypatch):
        """Each streamed slice is decoded exactly once and nothing in the
        SDK holds on to it: once the consumer drops a slice, it is gone."""
        probes = mixed_probes(50)
        local = service.estimate_batch(probes)
        decoded = []
        real_decode = protocol.decode_estimates

        def tracked_decode(wire):
            out = real_decode(wire)
            decoded.append(weakref.ref(out))
            return out

        monkeypatch.setattr(protocol, "decode_estimates", tracked_decode)

        def consume(stream):
            parts = []
            for _, chunk in stream:
                parts.append(chunk.copy())
                del chunk
                gc.collect()
                assert all(ref() is None for ref in decoded), "a slice was retained"
            return parts

        async def consume_async(client):
            parts = []
            async for _, chunk in client.stream_batch(probes):
                parts.append(chunk.copy())
                del chunk
                gc.collect()
                assert all(ref() is None for ref in decoded), "a slice was retained"
            return parts

        async def drive_async(host, port):
            async with AsyncEstimationClient(host, port) as client:
                return await consume_async(client)

        with serve_in_thread(service, chunk_probes=7) as handle:
            host, port = handle.address
            with EstimationClient(host, port) as client:
                sync_parts = consume(client.stream_batch(probes))
            assert len(decoded) == len(sync_parts) == 8
            async_parts = asyncio.run(drive_async(host, port))
            assert len(decoded) == 16
        for parts in (sync_parts, async_parts):
            assert np.concatenate(parts).tobytes() == local.tobytes()


class ScriptedServer:
    """A framed server stub that answers each batch with scripted frames.

    It serves one connection at a time until the client closes it: a
    ``hello`` gets a welcome, a batch gets ``script(request_id)``.
    ``connections`` counts the connections accepted.
    """

    def __init__(self, script):
        self.script = script
        self.connections = 0
        self._listener = socket.create_server(("127.0.0.1", 0))
        self._listener.settimeout(0.05)
        self.address = self._listener.getsockname()[:2]
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def close(self):
        self._stop.set()
        self._thread.join(timeout=10.0)
        assert not self._thread.is_alive()
        self._listener.close()

    def _serve(self):
        while not self._stop.is_set():
            try:
                conn, _ = self._listener.accept()
            except socket.timeout:
                continue
            self.connections += 1
            conn.settimeout(0.05)
            decoder = protocol.FrameDecoder()
            with conn:
                while not self._stop.is_set():
                    try:
                        data = conn.recv(65536)
                    except socket.timeout:
                        continue
                    except OSError:
                        break
                    if not data:
                        break
                    for frame in decoder.feed(data):
                        if frame["op"] == "hello":
                            replies = [protocol.message("welcome", tenant=None)]
                        else:
                            replies = self.script(frame["id"])
                        for reply in replies:
                            conn.sendall(protocol.encode_frame(reply))


def scripted_chunk(request_id, start, values, eof):
    return protocol.message(
        "chunk",
        id=request_id,
        start=start,
        count=2,
        estimates=protocol.encode_estimates(np.array(values, dtype=np.float64)),
        eof=eof,
    )


#: How the stub answers the first 2-probe batch (sent with a ``trace=``
#: hook); later batches get one well-formed eof chunk holding [1.0, 2.0].
FIRST_ANSWERS = {
    "out-of-order": (
        [scripted_chunk(1, 5, [1.0], False), scripted_chunk(1, 1, [2.0], True)],
        "out-of-order chunk: start=5, expected 0",
    ),
    "other-version": (
        [dict(scripted_chunk(1, 0, [1.0, 2.0], True), v=2)],
        "wire schema version 2",
    ),
    "trace-entry": (
        [dict(scripted_chunk(1, 0, [1.0, 2.0], True), traces=[{"kind": "equality"}])],
        "bad chunk frame: malformed wire trace {'kind': 'equality'}",
    ),
    "traces-not-a-list": (
        [dict(scripted_chunk(1, 0, [1.0, 2.0], True), traces=7)],
        "bad chunk frame: 'int' object is not iterable",
    ),
    "count-text": (
        [dict(scripted_chunk(1, 0, [1.0, 2.0], True), count="two")],
        "bad chunk frame: invalid literal for int()",
    ),
    "count-null": (
        [dict(scripted_chunk(1, 0, [1.0, 2.0], True), count=None)],
        "bad chunk frame: int() argument must be",
    ),
}


class TestBatchEndedEarly:
    """A batch that stops before its last frame costs its connection, so
    its unread frames never answer the next batch; a server error frame
    (one frame, the stream stays in step) keeps it."""

    PROBES = [EqualityProbe("R", "a", 1), EqualityProbe("R", "a", 2)]

    @staticmethod
    def _run(flavor, address, script_error):
        """Two batches on one client: (first's error, connected after it, second's answer).

        The first batch asks for traces, so a chunk's ``traces`` is decoded."""
        if flavor == "sync":
            client = EstimationClient(*address, retries=0)
            try:
                with pytest.raises(script_error) as excinfo:
                    client.estimate_batch(TestBatchEndedEarly.PROBES, trace=lambda t: None)
                connected = client.connected
                return excinfo.value, connected, client.estimate_batch(TestBatchEndedEarly.PROBES)
            finally:
                client.close()

        async def drive():
            client = AsyncEstimationClient(*address, retries=0)
            try:
                with pytest.raises(script_error) as excinfo:
                    await client.estimate_batch(TestBatchEndedEarly.PROBES, trace=lambda t: None)
                connected = client.connected
                return excinfo.value, connected, await client.estimate_batch(
                    TestBatchEndedEarly.PROBES
                )
            finally:
                await client.close()

        return asyncio.run(drive())

    @pytest.mark.parametrize("answer", sorted(FIRST_ANSWERS))
    @pytest.mark.parametrize("flavor", ["sync", "async"])
    def test_protocol_error_drops_the_connection(self, flavor, answer):
        frames, message = FIRST_ANSWERS[answer]

        def script(request_id):
            if request_id == 1:
                return frames
            return [scripted_chunk(request_id, 0, [1.0, 2.0], True)]

        stub = ScriptedServer(script)
        try:
            error, connected, second = self._run(flavor, stub.address, ProtocolError)
        finally:
            stub.close()
        assert message in str(error)
        assert connected is False
        assert second.tolist() == [1.0, 2.0]
        assert stub.connections == 2

    @pytest.mark.parametrize("flavor", ["sync", "async"])
    def test_remote_error_keeps_the_connection(self, flavor):
        def script(request_id):
            if request_id == 1:
                return [protocol.message("error", id=1, code="batch-failed", detail="no")]
            return [scripted_chunk(request_id, 0, [1.0, 2.0], True)]

        stub = ScriptedServer(script)
        try:
            error, connected, second = self._run(flavor, stub.address, RemoteBatchError)
        finally:
            stub.close()
        assert error.code == "batch-failed"
        assert connected is True
        assert second.tolist() == [1.0, 2.0]
        assert stub.connections == 1

    @pytest.mark.parametrize("flavor", ["sync", "async"])
    def test_abandoned_stream_does_not_answer_the_next_batch(self, service, flavor):
        probes = mixed_probes(100)
        local = service.estimate_batch(probes)
        with serve_in_thread(service, chunk_probes=10) as handle:
            if flavor == "sync":
                with EstimationClient(*handle.address) as client:
                    for _ in client.stream_batch(probes):
                        break
                    out = client.estimate_batch(probes)
            else:

                async def drive():
                    async with AsyncEstimationClient(*handle.address) as client:
                        async for _ in client.stream_batch(probes):
                            break
                        return await client.estimate_batch(probes)

                out = asyncio.run(drive())
        assert out.tobytes() == local.tobytes()


class TestAuthentication:
    def test_bad_token_is_refused_not_reset(self, service):
        tenants = [TenantConfig(name="acme", token="s3cret")]
        with serve_in_thread(service, tenants=tenants) as handle:
            host, port = handle.address
            with pytest.raises(AuthenticationError):
                EstimationClient(host, port, token="wrong").connect()
            with pytest.raises(AuthenticationError):
                asyncio.run(
                    AsyncEstimationClient(host, port, token=None).connect()
                )
            with EstimationClient(host, port, token="s3cret") as client:
                assert client.tenant == "acme"
                out = client.estimate_batch([EqualityProbe("R", "a", 1)])
            assert out.shape == (1,)


class TestAdmission:
    def test_quota_rejects_tail_probes_not_the_connection(self, service):
        tenants = [
            TenantConfig(name="acme", token="tok", max_probes_per_batch=5)
        ]
        with serve_in_thread(service, tenants=tenants) as handle:
            host, port = handle.address
            probes = [EqualityProbe("R", "a", 1)] * 8
            in_process = service.estimate_batch(probes[:5])
            with EstimationClient(host, port, token="tok") as client:
                traces = []
                out = client.estimate_batch(probes, trace=traces.append)
                # The prefix inside quota answers bit-identically…
                assert out[:5].tobytes() == in_process.tobytes()
                # …the tail degrades with the typed reason.
                rejected = [t for t in traces if t.reason == REASON_QUOTA_EXCEEDED]
                assert sorted(t.position for t in rejected) == [5, 6, 7]
                assert all(t.degraded for t in rejected)
                # Rejected equality probes fall back to |R| * 0.1.
                assert np.all(out[5:] == pytest.approx(10.0))
                # The connection survives and the next batch is answered.
                again = client.estimate_batch(probes[:3], trace=traces.append)
                assert again.tobytes() == in_process[:3].tobytes()

    def test_quota_rejection_under_nan_policy(self, service):
        tenants = [
            TenantConfig(name="acme", token="tok", max_probes_per_batch=2)
        ]
        with serve_in_thread(service, tenants=tenants) as handle:
            host, port = handle.address
            with EstimationClient(host, port, token="tok") as client:
                out = client.estimate_batch(
                    [EqualityProbe("R", "a", 1)] * 4, on_error="nan"
                )
            assert np.all(np.isfinite(out[:2]))
            assert np.all(np.isnan(out[2:]))

    def test_backpressure_bounds_pending_probes(self, service):
        tenants = [
            TenantConfig(name="acme", token="tok", max_pending_probes=4)
        ]
        with serve_in_thread(service, tenants=tenants) as handle:
            host, port = handle.address
            probes = [EqualityProbe("R", "a", i % 5) for i in range(10)]
            with EstimationClient(host, port, token="tok") as client:
                for _ in range(2):  # pending releases between batches
                    traces = []
                    out = client.estimate_batch(probes, trace=traces.append)
                    rejected = [
                        t for t in traces if t.reason == REASON_BACKPRESSURE
                    ]
                    assert sorted(t.position for t in rejected) == list(range(4, 10))
                    assert out.shape == (10,)

    def test_backpressure_counts_answers_held_behind_a_stalled_write(
        self, catalog, monkeypatch
    ):
        """A tenant's probes stay pending until their answer is written
        out, so a stalled write-out on one connection shrinks the room of
        the tenant's other connections."""
        service = EstimationService(catalog)
        reference = EstimationService(catalog)
        tenants = [TenantConfig(name="acme", token="tok", max_pending_probes=8)]
        probes_a = mixed_probes(5)
        probes_b = [EqualityProbe("R", "a", i % 5) for i in range(6)]
        verdicts_b = [None] * 3 + [REASON_BACKPRESSURE] * 3
        expected_a = reference.estimate_batch(probes_a)
        expected_b = reference.estimate_batch(
            probes_b, admission=verdicts_b
        )
        with serve_in_thread(service, tenants=tenants) as handle:
            stall = StalledWrite(handle.server._send_frame)
            monkeypatch.setattr(handle.server, "_send_frame", stall)
            tenant = handle.server._tenants_by_token["tok"]
            answers = {}

            def send_a():
                with EstimationClient(*handle.address, token="tok") as client:
                    answers["a"] = client.estimate_batch(probes_a)

            thread = threading.Thread(target=send_a)
            thread.start()
            try:
                assert stall.entered.wait(10)
                assert tenant.pending_probes == 5
                traces = []
                with EstimationClient(*handle.address, token="tok") as client:
                    out_b = client.estimate_batch(probes_b, trace=traces.append)
                pressed = [t.position for t in traces if t.reason == REASON_BACKPRESSURE]
                assert sorted(pressed) == [3, 4, 5]
                assert out_b.tobytes() == expected_b.tobytes()
                # B's answer is written out; A's is still held.
                assert wait_until(lambda: tenant.pending_probes == 5)
            finally:
                stall.release.set()
                thread.join(10)
            assert not thread.is_alive()
            assert answers["a"].tobytes() == expected_a.tobytes()
            assert wait_until(lambda: tenant.pending_probes == 0)

    @pytest.mark.parametrize("transport", ["sdk", "http"])
    def test_trace_records_only_when_the_request_asks(self, catalog, monkeypatch, transport):
        """A quota-rejected batch sent without ``traces`` hands the service
        no trace hook, yet answers and counts exactly as one sent with
        ``traces``, whose records equal the in-process ones."""
        tenants = [TenantConfig(name="acme", token="tok", max_probes_per_batch=5)]
        probes = mixed_probes(8)
        verdicts = [None] * 5 + [REASON_QUOTA_EXCEEDED] * 3
        local_traces = []
        local = EstimationService(catalog).estimate_batch(
            probes, trace=local_traces.append, admission=verdicts
        )
        runs = {}
        for traced in (False, True):
            service = EstimationService(catalog)
            hooks = []
            answer = service.estimate_batch

            def spy(batch, *, answer=answer, hooks=hooks, **kwargs):
                hooks.append(kwargs.get("trace"))
                return answer(batch, **kwargs)

            monkeypatch.setattr(service, "estimate_batch", spy)
            with serve_in_thread(service, tenants=tenants) as handle:
                if transport == "sdk":
                    traces = []
                    with EstimationClient(*handle.address, token="tok") as client:
                        out = client.estimate_batch(
                            probes, trace=traces.append if traced else None
                        )
                else:
                    request = protocol.columns_request(
                        protocol.probes_to_columns(probes),
                        request_id=1,
                        want_traces=traced,
                    )
                    conn = http.client.HTTPConnection(*handle.address, timeout=10)
                    conn.request(
                        "POST",
                        "/v1/batch",
                        body=json.dumps(request),
                        headers={"Authorization": "Bearer tok"},
                    )
                    response = conn.getresponse()
                    assert response.status == 200
                    payload = json.loads(response.read())
                    conn.close()
                    out = protocol.decode_estimates(payload["estimates"])
                    assert ("traces" in payload) is traced
                    traces = [protocol.trace_from_wire(t) for t in payload.get("traces", [])]
            counters = service.stats().as_dict()
            runs[traced] = (out.tobytes(), counters)
            assert len(hooks) == 1
            assert (hooks[0] is not None) is traced
            if traced:
                assert [trace_key(t) for t in traces] == [
                    trace_key(t) for t in local_traces
                ]
            else:
                assert traces == []
        assert runs[False] == runs[True]
        assert runs[True][0] == local.tobytes()
        assert runs[True][1]["rejected[quota-exceeded]"] == 3

    def test_rejections_surface_in_service_metrics(self, service):
        tenants = [
            TenantConfig(name="acme", token="tok", max_probes_per_batch=1)
        ]
        with serve_in_thread(service, tenants=tenants) as handle:
            host, port = handle.address
            with EstimationClient(host, port, token="tok") as client:
                client.estimate_batch([EqualityProbe("R", "a", 1)] * 3)
        stats = service.stats()
        assert stats.rejected_probes == 2
        assert stats.rejection_reasons == {REASON_QUOTA_EXCEEDED: 2}
        assert stats.probes_served == 3
        assert "admission control" in stats.format()


class TestMalformedWire:
    def _framed_exchange(self, address, frames):
        """Send frames over a raw socket; return every reply frame."""
        with socket.create_connection(address, timeout=10) as sock:
            for frame in frames:
                sock.sendall(protocol.encode_frame(frame))
            decoder = protocol.FrameDecoder()
            received = []
            sock.settimeout(10)
            while True:
                try:
                    data = sock.recv(65536)
                except socket.timeout:
                    break
                if not data:
                    break
                received.extend(decoder.feed(data))
                if any(f.get("op") == "error" or f.get("eof") for f in received):
                    break
            return received

    def test_undecodable_probe_degrades_alone(self, service, server):
        """A malformed entry resolves as wire-decode-failed; its batch
        siblings are answered bit-identically to in-process."""
        good = [EqualityProbe("R", "a", 1), EqualityProbe("R", "a", 2)]
        local = service.estimate_batch(good)
        wire_probes = probes_to_wire(good)
        wire_probes.insert(1, {"kind": "mystery"})
        request = protocol.batch_request(
            wire_probes, request_id=7, on_error=None, want_traces=True
        )
        frames = self._framed_exchange(
            server.address, [protocol.hello_request(token=None), request]
        )
        assert frames[0]["op"] == "welcome"
        chunks = [f for f in frames if f.get("op") == "chunk"]
        assert chunks and chunks[-1]["eof"]
        estimates = np.concatenate(
            [protocol.decode_estimates(f["estimates"]) for f in chunks]
        )
        assert estimates.shape == (3,)
        assert estimates[0] == local[0]
        assert estimates[2] == local[1]
        traces = [
            protocol.trace_from_wire(t)
            for f in chunks
            for t in f.get("traces", [])
        ]
        assert [t.reason for t in traces] == [protocol.REASON_WIRE_DECODE]
        assert traces[0].position == 1
        assert service.stats().rejection_reasons == {
            protocol.REASON_WIRE_DECODE: 1
        }

    def test_version_mismatch_answered_with_typed_error(self, server):
        frames = self._framed_exchange(
            server.address, [{"v": 999, "op": "hello", "token": None}]
        )
        assert frames[0]["op"] == "error"
        assert frames[0]["code"] == "wire-version"

    def test_unknown_op_answered_not_dropped(self, server):
        frames = self._framed_exchange(
            server.address,
            [protocol.hello_request(token=None), protocol.message("dance")],
        )
        assert frames[0]["op"] == "welcome"
        assert frames[1]["op"] == "error"
        assert frames[1]["code"] == "unknown-op"


class TestHttpShim:
    def test_health(self, server):
        host, port = server.address
        conn = http.client.HTTPConnection(host, port, timeout=10)
        conn.request("GET", "/v1/health")
        response = conn.getresponse()
        assert response.status == 200
        assert json.loads(response.read())["status"] == "ok"

    def test_batch_is_bit_identical(self, service, server):
        probes = mixed_probes(64)
        local = service.estimate_batch(probes)
        host, port = server.address
        body = json.dumps(
            protocol.batch_request(
                probes_to_wire(probes), request_id=1, on_error=None,
                want_traces=True,
            )
        )
        conn = http.client.HTTPConnection(host, port, timeout=10)
        conn.request("POST", "/v1/batch", body=body)
        response = conn.getresponse()
        assert response.status == 200
        payload = json.loads(response.read())
        estimates = protocol.decode_estimates(payload["estimates"])
        assert estimates.tobytes() == local.tobytes()
        assert payload["traces"]

    def test_auth_required_when_tenanted(self, service):
        tenants = [TenantConfig(name="acme", token="tok")]
        with serve_in_thread(service, tenants=tenants) as handle:
            host, port = handle.address
            body = json.dumps(
                protocol.batch_request(
                    [], request_id=1, on_error=None, want_traces=False
                )
            )
            conn = http.client.HTTPConnection(host, port, timeout=10)
            conn.request("POST", "/v1/batch", body=body)
            assert conn.getresponse().status == 401
            conn = http.client.HTTPConnection(host, port, timeout=10)
            conn.request(
                "POST",
                "/v1/batch",
                body=body,
                headers={"Authorization": "Bearer tok"},
            )
            assert conn.getresponse().status == 200

    def test_oversized_body_refused_before_reading(self, server):
        """A declared body past MAX_FRAME_BYTES is answered 413 at once."""
        conn = http.client.HTTPConnection(*server.address, timeout=3)
        conn.putrequest("POST", "/v1/batch")
        conn.putheader("Content-Length", str(8 * protocol.MAX_FRAME_BYTES))
        conn.endheaders()  # the head alone: no body byte is ever sent
        response = conn.getresponse()
        assert response.status == 413
        assert "MAX_FRAME_BYTES" in json.loads(response.read())["error"]

    def test_unknown_endpoint_404(self, server):
        host, port = server.address
        conn = http.client.HTTPConnection(host, port, timeout=10)
        conn.request("GET", "/v2/nope")
        assert conn.getresponse().status == 404

    def test_invalid_policy_422(self, service, server):
        host, port = server.address
        body = json.dumps(
            protocol.batch_request(
                probes_to_wire([EqualityProbe("R", "a", 1)]),
                request_id=1,
                on_error="explode",
                want_traces=False,
            )
        )
        conn = http.client.HTTPConnection(host, port, timeout=10)
        conn.request("POST", "/v1/batch", body=body)
        response = conn.getresponse()
        assert response.status == 422
        assert json.loads(response.read())["error_type"] == "ValueError"


class TestInstrumentation:
    def test_net_spans_and_per_tenant_counters(self, service):
        records = []
        add_span_sink(records.append)
        tenants = [TenantConfig(name="acme", token="tok")]
        with serve_in_thread(service, tenants=tenants, name="obs-net") as handle:
            host, port = handle.address
            with EstimationClient(host, port, token="tok") as client:
                client.estimate_batch(mixed_probes(8))
                # A ping round-trip guarantees the batch/stream spans
                # (closed before the pong is written) have been sunk.
                client.ping()
        # The connection is closed now, so net.accept has ended too.
        deadline = 50
        while deadline and "net.accept" not in {r.name for r in records}:
            deadline -= 1
            time.sleep(0.05)
        names = {record.name for record in records}
        assert {"net.accept", "net.batch", "net.decode", "net.stream"} <= names
        batch_span = next(r for r in records if r.name == "net.batch")
        assert dict(batch_span.tags)["tenant"] == "acme"
        decode_span = next(r for r in records if r.name == "net.decode")
        assert decode_span.parent_id == batch_span.span_id
        assert decode_span.trace_id == batch_span.trace_id
        tags = dict(decode_span.tags)
        assert (tags["schema"], tags["probes"]) == (str(protocol.WIRE_SCHEMA_VERSION), "8")
        text = runtime.get_registry().to_prometheus()
        assert "repro_net_connections_total" in text
        assert "repro_net_batches_total" in text
        assert 'tenant="acme"' in text
        assert "repro_net_probes_total" in text

    def test_rejected_counter_exported(self, service):
        tenants = [
            TenantConfig(name="acme", token="tok", max_probes_per_batch=1)
        ]
        with serve_in_thread(service, tenants=tenants) as handle:
            host, port = handle.address
            with EstimationClient(host, port, token="tok") as client:
                client.estimate_batch([EqualityProbe("R", "a", 1)] * 4)
        text = runtime.get_registry().to_prometheus()
        assert "repro_net_rejected_probes_total" in text
        assert "repro_serve_rejected_probes_total" in text
        assert 'reason="quota-exceeded"' in text


class TestLifecycle:
    def test_stop_ends_open_connections(self, service, caplog, monkeypatch):
        """Stopping with one idle peer and one response write-out stalled
        cuts the idle peer off, drains the write-out — the stalled peer
        gets its whole answer — and leaves no pending handler task, no
        asyncio error and no pending probes."""
        # A deadline far past the joins below: stop() must end because the
        # drained handler closes after its answer, not because time ran out.
        monkeypatch.setattr(server_module, "STOP_DRAIN_SECONDS", 60.0)
        tenants = [TenantConfig(name="acme", token="tok", max_pending_probes=100)]
        handle = serve_in_thread(service, tenants=tenants, chunk_probes=16)
        server = handle.server
        tenant = server._tenants_by_token["tok"]
        stall = StalledWrite(server._send_frame)
        monkeypatch.setattr(server, "_send_frame", stall)
        probes = mixed_probes(40)
        peers = [open_peer(handle.address) for _ in range(2)]
        stopper = threading.Thread(target=handle.stop)
        try:
            peers[1].sendall(
                protocol.encode_frame(
                    protocol.batch_request(probes_to_wire(probes), request_id=1)
                )
            )
            assert stall.entered.wait(10)
            assert tenant.pending_probes == 40
            with caplog.at_level(logging.ERROR, logger="asyncio"):
                stopper.start()
                # The idle peer is cut off while the write-out is drained.
                assert read_frames_to_eof(peers[0]) == []
                assert stopper.is_alive()
                stall.release.set()
                stopper.join(30)
                gc.collect()
            assert not stopper.is_alive()
            assert not handle._thread.is_alive()
            assert server._handlers == set()
            assert [r for r in caplog.records if r.name == "asyncio"] == []
            assert tenant.pending_probes == 0
            frames = read_frames_to_eof(peers[1])
            assert [f["op"] for f in frames] == ["chunk"] * 3
            assert frames[-1]["eof"]
            out = np.concatenate(
                [protocol.decode_estimates(f["estimates"]) for f in frames]
            )
            assert out.tobytes() == service.estimate_batch(probes).tobytes()
        finally:
            stall.release.set()
            if stopper.is_alive():
                stopper.join(30)
            handle.stop()
            for peer in peers:
                peer.close()

    def test_stop_drains_an_http_response_being_written(self, service, monkeypatch):
        """An HTTP shim answer is drained like a framed one: the client
        gets its whole 200 response and the probes are released."""
        monkeypatch.setattr(server_module, "STOP_DRAIN_SECONDS", 60.0)
        tenants = [TenantConfig(name="acme", token="tok", max_pending_probes=100)]
        handle = serve_in_thread(service, tenants=tenants)
        tenant = handle.server._tenants_by_token["tok"]
        entered, release = threading.Event(), threading.Event()
        respond = server_module._http_respond

        async def stalled_respond(writer, status, payload):
            entered.set()
            while not release.is_set():
                await asyncio.sleep(0.005)
            await respond(writer, status, payload)

        monkeypatch.setattr(server_module, "_http_respond", stalled_respond)
        probes = mixed_probes(30)
        body = json.dumps(
            protocol.columns_request(protocol.probes_to_columns(probes), request_id=1)
        )
        replies = {}

        def post():
            conn = http.client.HTTPConnection(*handle.address, timeout=10)
            conn.request(
                "POST", "/v1/batch", body=body, headers={"Authorization": "Bearer tok"}
            )
            response = conn.getresponse()
            replies["status"] = response.status
            replies["payload"] = json.loads(response.read())
            conn.close()

        poster = threading.Thread(target=post)
        stopper = threading.Thread(target=handle.stop)
        poster.start()
        try:
            assert entered.wait(10)
            assert tenant.pending_probes == 30
            stopper.start()
            assert wait_until(lambda: handle.server._stopping)
            assert stopper.is_alive()
            release.set()
            stopper.join(30)
            poster.join(30)
        finally:
            release.set()
            handle.stop()
        assert not stopper.is_alive()
        assert not poster.is_alive()
        assert replies["status"] == 200
        out = protocol.decode_estimates(replies["payload"]["estimates"])
        assert out.tobytes() == service.estimate_batch(probes).tobytes()
        assert tenant.pending_probes == 0

    def test_stop_cancels_a_write_out_past_the_drain_deadline(
        self, service, caplog, monkeypatch
    ):
        """A write-out still stalled at the drain deadline is cancelled:
        its connection is aborted and its probes are released."""
        monkeypatch.setattr(server_module, "STOP_DRAIN_SECONDS", 0.2)
        tenants = [TenantConfig(name="acme", token="tok", max_pending_probes=100)]
        handle = serve_in_thread(service, tenants=tenants)
        server = handle.server
        tenant = server._tenants_by_token["tok"]
        stall = StalledWrite(server._send_frame)
        monkeypatch.setattr(server, "_send_frame", stall)
        peer = open_peer(handle.address)
        try:
            peer.sendall(
                protocol.encode_frame(
                    protocol.batch_request(
                        probes_to_wire([EqualityProbe("R", "a", 1)] * 5), request_id=1
                    )
                )
            )
            assert stall.entered.wait(10)
            assert tenant.pending_probes == 5
            with caplog.at_level(logging.ERROR, logger="asyncio"):
                started = time.monotonic()
                handle.stop()
                elapsed = time.monotonic() - started
                gc.collect()
            assert 0.2 <= elapsed < 10.0
            assert not handle._thread.is_alive()
            assert server._handlers == set()
            assert [r for r in caplog.records if r.name == "asyncio"] == []
            assert tenant.pending_probes == 0
            assert read_frames_to_eof(peer) == []
        finally:
            stall.release.set()
            handle.stop()
            peer.close()

    @pytest.mark.parametrize("seed", [11, 12, 13, 14, 15])
    def test_stop_under_load_answers_bit_identically(self, catalog, seed):
        """stop() while several SDK clients loop batches: no task is
        destroyed pending, no probe stays pending, and every batch that
        got an answer matches the in-process one bit for bit."""
        gen = derive_rng(seed)
        reference = EstimationService(catalog)
        batches = []
        for size in gen.integers(1, 400, size=6):
            probes = mixed_probes(int(size))
            batches.append([probes[i] for i in gen.permutation(len(probes))])
        expected = [reference.estimate_batch(batch).tobytes() for batch in batches]
        tenants = [TenantConfig(name="acme", token="tok", max_pending_probes=10**6)]
        handle = serve_in_thread(
            EstimationService(catalog), tenants=tenants, chunk_probes=64
        )
        loop_errors = []
        handle._loop.set_exception_handler(lambda loop, context: loop_errors.append(context))
        tenant = handle.server._tenants_by_token["tok"]
        answered = []
        client_errors = []

        def client_loop(index):
            order = derive_rng(seed * 100 + index).integers(0, len(batches), size=10_000)
            try:
                with EstimationClient(*handle.address, token="tok", retries=0) as client:
                    for pick in order.tolist():
                        out = client.estimate_batch(batches[pick])
                        answered.append((pick, out.tobytes()))
            except (ClientError, OSError):
                pass  # the server stopped under this client
            except Exception as exc:  # pragma: no cover - reported below
                client_errors.append(exc)

        threads = [threading.Thread(target=client_loop, args=(i,)) for i in range(4)]
        stop_after = 5 + int(gen.integers(0, 20))
        for thread in threads:
            thread.start()
        try:
            assert wait_until(lambda: len(answered) >= stop_after)
            handle.stop()
        finally:
            handle.stop()
            for thread in threads:
                thread.join(30)
        assert not any(thread.is_alive() for thread in threads)
        gc.collect()
        assert not handle._thread.is_alive()
        assert handle.server._handlers == set()
        assert loop_errors == []
        assert client_errors == []
        assert tenant.pending_probes == 0
        assert all(out == expected[pick] for pick, out in answered)
