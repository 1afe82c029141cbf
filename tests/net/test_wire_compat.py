"""One wire schema: the row form answers bit-identically, other versions are refused.

The server and both SDK flavors speak ``WIRE_SCHEMA_VERSION`` only.  The
contract:

* a framed 10k mixed batch in the row form (``probes``, one wire object
  per probe — the body of the HTTP shim and of replay artifacts) answers
  bit-identically to in-process estimation;
* a ``hello`` at any other version (the retired 1 and 2 included) gets a
  ``wire-version`` error frame stamped with the one version, then the
  connection closes; an HTTP body stamped v2 gets 400;
* an SDK refused at ``hello`` does not step down: it sends only
  ``WIRE_SCHEMA_VERSION`` hellos and raises ``ConnectionFailedError``.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import socket
import threading

import numpy as np
import pytest

from repro.core.biased import v_opt_bias_hist
from repro.engine.analyze import analyze_relation
from repro.engine.catalog import CatalogEntry, StatsCatalog
from repro.engine.relation import Relation
from repro.net import (
    AsyncEstimationClient,
    ConnectionFailedError,
    EstimationClient,
    protocol,
    serve_in_thread,
)
from repro.net.protocol import WIRE_SCHEMA_VERSION
from repro.obs import runtime
from repro.obs.tracing import clear_span_sinks
from repro.serve import EqualityProbe, EstimationService

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


class StrictSocket:
    """A raw framed peer that accepts only frames at ``WIRE_SCHEMA_VERSION``."""

    def __init__(self, host, port):
        self._sock = socket.create_connection((host, port), timeout=30.0)
        self._decoder = protocol.FrameDecoder()
        self._pending = []

    def close(self):
        self._sock.close()

    def send(self, frame):
        self._sock.sendall(protocol.encode_frame(frame))

    def recv(self):
        """The next frame, or ``None`` once the server has closed."""
        while not self._pending:
            data = self._sock.recv(65536)
            if not data:
                return None
            self._pending.extend(self._decoder.feed(data))
        frame = self._pending.pop(0)
        assert frame.get("v") == WIRE_SCHEMA_VERSION, frame
        return frame


class TestRowForm:
    def test_10k_mixed_batch_bit_identical(self, service):
        probes = mixed_probes(10_000)
        local = service.estimate_batch(probes, on_error="fallback")
        with serve_in_thread(service, name="compat-net") as handle:
            peer = StrictSocket(*handle.address)
            try:
                peer.send(protocol.hello_request())
                assert peer.recv()["op"] == "welcome"
                request = protocol.batch_request(
                    protocol.probes_to_wire(probes), request_id=7, on_error="fallback"
                )
                # Untraced: the field is absent, never null.
                assert "trace_context" not in request
                peer.send(request)
                chunks = []
                while True:
                    frame = peer.recv()
                    assert frame["op"] == "chunk"
                    chunks.append(protocol.decode_estimates(frame["estimates"]))
                    if frame.get("eof"):
                        break
                via_rows = np.concatenate(chunks)
            finally:
                peer.close()
        assert via_rows.tobytes() == local.tobytes()


class TestOldClientNewServer:
    def test_unsupported_version_refused_with_typed_error(self, service):
        with serve_in_thread(service, name="compat-net") as handle:
            for version in (1, 2, 99):
                peer = StrictSocket(*handle.address)
                try:
                    peer.send(dict(protocol.hello_request(), v=version))
                    error = peer.recv()  # recv asserts the v3 stamp
                    assert (error["op"], error["code"]) == ("error", "wire-version")
                    assert peer.recv() is None  # then the server closes
                finally:
                    peer.close()

    def test_http_body_stamped_v2_is_refused(self, service):
        body = protocol.batch_request(
            protocol.probes_to_wire([EqualityProbe("R", "a", 1)]), request_id=1
        )
        with serve_in_thread(service, name="compat-net") as handle:
            conn = http.client.HTTPConnection(*handle.address, timeout=10)
            conn.request("POST", "/v1/batch", body=json.dumps(dict(body, v=2)))
            response = conn.getresponse()
            assert response.status == 400
            assert "version 2" in json.loads(response.read())["error"]


class RefusingServer:
    """A server stub that refuses every ``hello`` with a ``wire-version`` error.

    The refusal is stamped *stamp*: 1 as the builds of the retired schemas
    stamped it, or the current version.  Every hello is recorded.
    """

    def __init__(self, stamp):
        self.stamp = stamp
        self.hellos = []
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
            conn.settimeout(10.0)
            with conn:
                frames = []
                decoder = protocol.FrameDecoder()
                while not frames:
                    data = conn.recv(65536)
                    if not data:
                        break
                    frames = decoder.feed(data)
                if not frames:
                    continue
                self.hellos.append(frames[0])
                refusal = dict(
                    protocol.message("error", code="wire-version", detail="refused"),
                    v=self.stamp,
                )
                conn.sendall(protocol.encode_frame(refusal))


class TestNewClientOldServer:
    @pytest.mark.parametrize("stamp", [1, WIRE_SCHEMA_VERSION])
    @pytest.mark.parametrize("flavor", ["sync", "async"])
    def test_refused_hello_is_not_retried_at_another_version(self, flavor, stamp):
        old = RefusingServer(stamp)
        try:
            if flavor == "sync":
                with pytest.raises(ConnectionFailedError, match="handshake failed"):
                    EstimationClient(*old.address, retries=0).connect()
            else:

                async def drive():
                    await AsyncEstimationClient(*old.address, retries=0).connect()

                with pytest.raises(ConnectionFailedError, match="handshake failed"):
                    asyncio.run(drive())
        finally:
            old.close()
        assert [hello["op"] for hello in old.hellos] == ["hello"]
        assert [hello["v"] for hello in old.hellos] == [WIRE_SCHEMA_VERSION]
