"""Wire schema interop: old peers keep working, bit-identically.

The v2 bump adds exactly one optional field (``trace_context`` on batch
requests); v3 adds the columnar batch form.  The compatibility contract:

* an **old (v1) client** against a new server sees only v1-stamped
  frames — byte-for-byte what a v1 server would have sent — and its 10k
  mixed batch answers bit-identically to in-process estimation;
* a **new client** against an old server steps down one version per
  ``wire-version`` refusal, redoing the handshake each time, until the
  server accepts: a v2 build is spoken to at v2 (row-form batches that
  still carry ``trace_context``), a v1 build at v1 (the field *absent*
  from what it sends, never ``null``) — and the 10k mixed batch
  round-trips bit-identically either way, from both SDK flavors.
"""

from __future__ import annotations

import asyncio
import socket
import threading

import numpy as np
import pytest

from repro.core.biased import v_opt_bias_hist
from repro.engine.analyze import analyze_relation
from repro.engine.catalog import CatalogEntry, StatsCatalog
from repro.engine.relation import Relation
from repro.net import AsyncEstimationClient, EstimationClient, protocol, serve_in_thread
from repro.net.protocol import TRACE_CONTEXT_MIN_VERSION, WIRE_SCHEMA_VERSION
from repro.obs import runtime
from repro.obs.tracing import clear_span_sinks
from repro.serve import EstimationService

from tests.net.test_server_client import mixed_probes


@pytest.fixture(autouse=True)
def fresh_obs():
    runtime.reset()
    clear_span_sinks()
    yield
    runtime.reset()
    clear_span_sinks()


@pytest.fixture
def service():
    catalog = StatsCatalog()
    r = Relation.from_columns(
        "R", {"a": [1] * 40 + [2] * 25 + [3] * 20 + [4] * 10 + [5] * 5}
    )
    s = Relation.from_columns("S", {"a": [1] * 10 + [2] * 10 + [3] * 10})
    analyze_relation(r, "a", catalog, kind="serial", buckets=3)
    analyze_relation(s, "a", catalog, kind="end-biased", buckets=2)
    hist = v_opt_bias_hist([6.0, 3.0, 1.0], 2, values=["a", "b", "c"])
    catalog.put(CatalogEntry("T", "s", "biased", hist, None, 3, 10.0))
    return EstimationService(catalog)


class V1Socket:
    """A strict old-build client: speaks v1 and rejects any other tag."""

    def __init__(self, host, port):
        self._sock = socket.create_connection((host, port), timeout=30.0)
        self._decoder = protocol.FrameDecoder()
        self._pending = []

    def close(self):
        self._sock.close()

    def send(self, frame):
        self._sock.sendall(protocol.encode_frame(frame))

    def recv(self):
        if self._pending:
            return self._pending.pop(0)
        while True:
            data = self._sock.recv(65536)
            assert data, "server closed the connection"
            frames = self._decoder.feed(data)
            if frames:
                self._pending.extend(frames[1:])
                frame = frames[0]
                # The old build's strict check: v must equal 1 exactly.
                assert frame.get("v") == 1, f"v1 peer got {frame.get('v')!r}"
                return frame


class TestOldClientNewServer:
    def test_10k_mixed_batch_bit_identical_at_v1(self, service):
        probes = mixed_probes(10_000)
        local = service.estimate_batch(probes, on_error="fallback")
        with serve_in_thread(service, name="compat-net") as handle:
            host, port = handle.address
            peer = V1Socket(host, port)
            try:
                peer.send(protocol.hello_request(version=1))
                welcome = peer.recv()
                assert welcome["op"] == "welcome"
                request = protocol.batch_request(
                    protocol.probes_to_wire(probes),
                    request_id=7,
                    on_error="fallback",
                    version=1,
                )
                assert "trace_context" not in request
                peer.send(request)
                chunks = []
                while True:
                    frame = peer.recv()
                    assert frame["op"] == "chunk"
                    # No v2-only fields leak into v1 responses.
                    assert "trace_context" not in frame
                    chunks.append(protocol.decode_estimates(frame["estimates"]))
                    if frame.get("eof"):
                        break
                via_v1 = np.concatenate(chunks)
            finally:
                peer.close()
        assert via_v1.tobytes() == local.tobytes()

    def test_v1_ping_answered_at_v1(self, service):
        with serve_in_thread(service, name="compat-net") as handle:
            host, port = handle.address
            peer = V1Socket(host, port)
            try:
                peer.send(protocol.hello_request(version=1))
                assert peer.recv()["op"] == "welcome"
                peer.send(protocol.message("ping", version=1))
                assert peer.recv()["op"] == "pong"  # recv asserts v == 1
            finally:
                peer.close()

    def test_unsupported_version_refused_with_typed_error(self, service):
        with serve_in_thread(service, name="compat-net") as handle:
            host, port = handle.address
            peer = V1Socket(host, port)
            try:
                peer.send(protocol.hello_request(version=99))
                error = peer.recv()  # stamped with the oldest version
                assert error["op"] == "error"
                assert error["code"] == "wire-version"
            finally:
                peer.close()


class OldServer:
    """An older-build server stub speaking only *versions* (default: v1).

    Answers hello/batch/ping exactly as such a build would — including
    refusing any other hello version with a ``wire-version`` error frame
    stamped with its oldest version — and records every request frame so
    tests can assert what clients sent.
    """

    def __init__(self, service, versions=frozenset({1})):
        self.service = service
        self.versions = frozenset(versions)
        self.requests = []
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.address = self._listener.getsockname()[:2]
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def close(self):
        self._stop.set()
        self._listener.close()
        self._thread.join(timeout=10.0)

    def _serve(self):
        while not self._stop.is_set():
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            with conn:
                try:
                    self._handle(conn)
                except (ConnectionError, AssertionError):
                    pass

    def _recv(self, conn, decoder, pending):
        if pending:
            return pending.pop(0)
        while True:
            data = conn.recv(65536)
            if not data:
                return None
            frames = decoder.feed(data)
            if frames:
                pending.extend(frames[1:])
                return frames[0]

    def _handle(self, conn):
        decoder = protocol.FrameDecoder()
        pending = []
        hello = self._recv(conn, decoder, pending)
        if hello is None:
            return
        self.requests.append(hello)
        version = hello.get("v")
        if version not in self.versions:
            conn.sendall(
                protocol.encode_frame(
                    protocol.message(
                        "error",
                        version=min(self.versions),
                        code="wire-version",
                        detail=f"this build speaks {sorted(self.versions)}, got {version!r}",
                    )
                )
            )
            return
        conn.sendall(
            protocol.encode_frame(
                protocol.message("welcome", version=version, tenant="public", server="old")
            )
        )
        while True:
            request = self._recv(conn, decoder, pending)
            if request is None:
                return
            self.requests.append(request)
            assert request.get("v") == version, f"old server got v={request.get('v')!r}"
            if request.get("op") == "ping":
                conn.sendall(protocol.encode_frame(protocol.message("pong", version=version)))
                continue
            assert request.get("op") == "batch"
            probes = protocol.probes_from_wire(request["probes"])
            estimates = self.service.estimate_batch(
                probes, on_error=request.get("on_error")
            )
            conn.sendall(
                protocol.encode_frame(
                    protocol.message(
                        "chunk",
                        version=version,
                        id=request.get("id"),
                        start=0,
                        count=int(estimates.size),
                        estimates=protocol.encode_estimates(estimates),
                        eof=True,
                    )
                )
            )


def _estimate_via(flavor, address, probes):
    """(estimates, negotiated version) from one SDK flavor's 10k submit."""
    if flavor == "sync":
        with EstimationClient(*address) as client:
            return client.estimate_batch(probes, on_error="fallback"), client.wire_version

    async def drive():
        async with AsyncEstimationClient(*address) as client:
            out = await client.estimate_batch(probes, on_error="fallback")
            return out, client.wire_version

    return asyncio.run(drive())


class TestNewClientOldServer:
    def test_downgrade_then_10k_mixed_batch_bit_identical(self, service):
        probes = mixed_probes(10_000)
        local = service.estimate_batch(probes, on_error="fallback")
        old = OldServer(service)
        try:
            with EstimationClient(*old.address) as client:
                assert client.wire_version == 1  # negotiated down
                via_old = client.estimate_batch(probes, on_error="fallback")
                assert client.ping() is True
        finally:
            old.close()
        assert via_old.tobytes() == local.tobytes()
        # Everything the new client sent after the downgrade was pure v1:
        # version tag 1 and the trace field *absent* (not null).
        post = [f for f in old.requests if f.get("v") == 1]
        assert post, "client never re-spoke at v1"
        assert all("trace_context" not in frame for frame in post)
        assert any(frame.get("op") == "batch" for frame in post)

    @pytest.mark.parametrize("flavor", ["sync", "async"])
    @pytest.mark.parametrize("versions, negotiated", [({1, 2}, 2), ({1}, 1)])
    def test_step_down_one_version_at_a_time(self, service, flavor, versions, negotiated):
        """A v2 build is spoken to at v2 (trace_context kept), a v1 build
        at v1 (no trace_context); both answer the 10k batch bit-identically."""
        probes = mixed_probes(10_000)
        local = service.estimate_batch(probes, on_error="fallback")
        old = OldServer(service, versions=versions)
        try:
            via_old, wire_version = _estimate_via(flavor, old.address, probes)
        finally:
            old.close()
        assert wire_version == negotiated
        assert via_old.tobytes() == local.tobytes()
        hellos = [f["v"] for f in old.requests if f.get("op") == "hello"]
        assert hellos == list(range(WIRE_SCHEMA_VERSION, negotiated - 1, -1))
        batches = [f for f in old.requests if f.get("op") == "batch"]
        assert batches and all(f["v"] == negotiated and "probes" in f for f in batches)
        carries_context = negotiated >= TRACE_CONTEXT_MIN_VERSION
        assert all(("trace_context" in f) == carries_context for f in batches)

    def test_trace_context_only_emitted_at_v2(self):
        from repro.obs.tracing import TraceContext

        context = TraceContext(trace_id="ab" * 8, span_id="cd" * 8)
        v1 = protocol.batch_request(
            [], request_id=1, trace_context=context, version=1
        )
        assert "trace_context" not in v1
        v2 = protocol.batch_request(
            [], request_id=1, trace_context=context,
            version=TRACE_CONTEXT_MIN_VERSION,
        )
        assert v2["trace_context"] == {"trace_id": "ab" * 8, "span_id": "cd" * 8}
        # Never null: omitting the context omits the field entirely.
        bare = protocol.batch_request([], request_id=1)
        assert "trace_context" not in bare
