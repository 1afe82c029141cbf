"""``wire``: the network probe path, SDK -> codec -> server -> tables.

One connection sends 2000-probe equality/range batches over 4 columns
(M=100) to an ``EstimationServer`` running in its own process.  The
codec costs several times the estimator and the server decodes every
request on its event-loop thread, so wire-format and event-loop changes
show here and not on ``bulk``.

One connection, not two: with two, the client and the server each need
a core at once, and on a 2-core host shared with other tenants the
figures then swing with whether a second core happens to be free (p99
spread 0.33-0.47 over consecutive runs against 0.17 with one).

2000 probes a batch, not 500: every request crosses between the two
processes four times (client, event loop, executor, event loop,
client), and on a shared host each crossing may wait for a descheduled
core.  With 500 probes those waits were the tail: over alternating
10-s blocks the 500-probe p99 spread by 0.26, the 2000-probe tail by
0.10.
"""

from __future__ import annotations

import itertools
import json
import select
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

import numpy as np

from data import counts_of, prefix_of, range_truth, rng, zipf_column
from harness import Recorder, qerror
from workload import Workload, bit_equal

import repro
from repro.engine.analyze import analyze_relation
from repro.engine.catalog import StatsCatalog
from repro.engine.relation import Relation
from repro.net import ClientError, EstimationClient, protocol
from repro.serve import EqualityProbe, EstimationService, RangeProbe

RELATIONS = ("W0", "W1", "W2", "W3")
SKEWS = (0.5, 0.9, 1.3, 1.7)
DOMAIN = 100
ROWS = 10_000
BUCKETS = 16
BATCH_PROBES = 2000
DISTINCT_BATCHES = 8
SERVER = Path(__file__).with_name("wire_server.py")
READY_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0
#: The server-side stages replayed on the generator's copy of a batch.
REPLAYED = (
    "net.request_encode",
    "net.request_decode",
    "wire.replay.answer",
    "net.response_encode",
    "net.response_decode",
)


class Wire(Workload):
    name = "wire"
    reference_task = "codec"

    def __init__(self, seed: int, tmpdir: Path, acct) -> None:
        super().__init__(seed, tmpdir, acct)
        gen = rng(seed, "wire")
        columns = {r: zipf_column(gen, ROWS, DOMAIN, z) for r, z in zip(RELATIONS, SKEWS)}
        self.data_path = tmpdir / "wire-columns.npz"
        np.savez(self.data_path, **columns)
        prefix = {r: prefix_of(counts_of(c, DOMAIN)) for r, c in columns.items()}
        self.batches: list[list] = []
        self.truths: list[np.ndarray] = []
        for _ in range(DISTINCT_BATCHES):
            rels = gen.integers(0, len(RELATIONS), size=BATCH_PROBES)
            ends = np.sort(gen.integers(0, DOMAIN, size=(BATCH_PROBES, 2)), axis=1)
            kinds = gen.random(BATCH_PROBES)
            probes, truth = [], np.empty(BATCH_PROBES)
            for i in range(BATCH_PROBES):
                relation = RELATIONS[rels[i]]
                low, high = int(ends[i, 0]), int(ends[i, 1])
                if kinds[i] < 0.6:
                    probes.append(EqualityProbe(relation, "a", low))
                    high = low
                else:
                    probes.append(RangeProbe(relation, "a", low, high))
                truth[i] = range_truth(prefix[relation], low, high)
            self.batches.append(probes)
            self.truths.append(truth)
        # The in-process reference: same inputs, same ANALYZE, no network.
        catalog = StatsCatalog()
        for relation, column in columns.items():
            table = Relation.from_columns(relation, {"a": column.tolist()})
            analyze_relation(table, "a", catalog, kind="end-biased", buckets=BUCKETS)
        self.reference = EstimationService(catalog, name="perfbench-wire-reference")
        self.expected = [self.reference.estimate_batch(b) for b in self.batches]
        self._turn = itertools.count()
        self._proc: Optional[subprocess.Popen] = None
        self._client: Optional[EstimationClient] = None
        self.server_stats: dict = {}
        self.request_bytes: list[int] = []
        self.response_bytes: list[int] = []

    # -- server process ----------------------------------------------------

    def setup(self) -> None:
        src = Path(repro.__file__).resolve().parent.parent
        self._proc = subprocess.Popen(
            [sys.executable, str(SERVER), str(src), str(self.data_path), str(BUCKETS)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        line = _read_line(self._proc, READY_TIMEOUT_S)
        if not line.startswith("READY "):
            raise RuntimeError(f"wire server did not start: {line!r}")
        port = int(line.split()[1])
        self._client = EstimationClient("127.0.0.1", port)
        self._client.connect()
        first = self._client.estimate_batch(self.batches[0])
        self.acct.record("setup", bit_equal(first, self.expected[0]), "first wire answer wrong")

    def teardown(self) -> None:
        """Close the client first, then stop the server and collect its figures."""
        if self._client is not None:
            self._client.close()
            self._client = None
        proc, self._proc = self._proc, None
        if proc is None:
            return
        try:
            proc.stdin.write("stop\n")
            proc.stdin.flush()
            line = _read_line(proc, STOP_TIMEOUT_S)
            self.server_stats = json.loads(line) if line else {}
            proc.wait(timeout=STOP_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdin.close()
            proc.stdout.close()
        self.acct.record("checks", proc.returncode == 0, f"wire server exited {proc.returncode}")

    # -- closed loop -------------------------------------------------------

    def request(self, rec: Optional[Recorder]) -> tuple[float, int]:
        k = next(self._turn) % DISTINCT_BATCHES
        probes = self.batches[k]
        request_id = rec.new_request() if rec is not None else None
        started = time.perf_counter()
        try:
            if rec is None:
                out = self._client.estimate_batch(probes)
            else:
                with rec.span("wire.request", request_id):
                    out = self._client.estimate_batch(probes)
        except (ClientError, OSError) as exc:
            self.acct.record("window", False, f"{type(exc).__name__}: {exc}")
            return time.perf_counter() - started, 0
        latency = time.perf_counter() - started
        self.acct.record("window", bit_equal(out, self.expected[k]), f"batch {k}: wire != in-process")
        if rec is not None:
            self._replay(rec, request_id, probes)
        return latency, BATCH_PROBES

    def _replay(self, rec: Recorder, request_id: int, probes: list) -> None:
        """Time the codec and answer stages on the generator's copy of a batch."""
        with rec.span("net.request_encode", request_id):
            payload = protocol.encode_frame(
                protocol.batch_request(protocol.probes_to_wire(probes), request_id=request_id)
            )
        with rec.span("net.request_decode", request_id):
            decoded = protocol.probes_from_wire(protocol.decode_frame(payload[4:])["probes"])
        with rec.span("wire.replay.answer", request_id):
            out = self.reference.estimate_batch(decoded)
        with rec.span("net.response_encode", request_id):
            frame = protocol.encode_frame(
                protocol.message(
                    "chunk",
                    id=request_id,
                    start=0,
                    count=len(out),
                    estimates=protocol.encode_estimates(out),
                    eof=True,
                )
            )
        with rec.span("net.response_decode", request_id):
            protocol.decode_estimates(protocol.decode_frame(frame[4:])["estimates"])
        self.request_bytes.append(len(payload))
        self.response_bytes.append(len(frame))

    # -- results -----------------------------------------------------------

    def qerrors(self) -> list[float]:
        return [
            qerror(e, a)
            for expected, truth in zip(self.expected, self.truths)
            for e, a in zip(expected.tolist(), truth.tolist())
        ]

    def peak_rss_mb(self) -> float:
        return float(self.server_stats["peak_rss_mb"])

    def degraded(self) -> dict[str, int]:
        return dict(self.server_stats.get("degradation_reasons", {}))

    def layers(self, rec: Recorder) -> dict[str, tuple[float, str]]:
        out = {}
        for stage in REPLAYED:
            if stage.startswith("net."):
                out[f"{stage}_ms"] = (rec.median_self(stage), "ms")
        out["net.request_bytes_per_probe"] = (np.median(self.request_bytes) / BATCH_PROBES, "bytes")
        out["net.response_bytes_per_probe"] = (np.median(self.response_bytes) / BATCH_PROBES, "bytes")
        replayed = sum(rec.median_self(stage) for stage in REPLAYED)
        out["net.wait_ms"] = (rec.median_self("wire.request") - replayed, "ms")
        return out


def _read_line(proc: subprocess.Popen, timeout: float) -> str:
    """One line of the server's stdout, or '' on timeout or exit."""
    ready, _, _ = select.select([proc.stdout], [], [], timeout)
    return proc.stdout.readline().strip() if ready else ""
