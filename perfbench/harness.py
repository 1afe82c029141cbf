"""Shared machinery for the perfbench workloads.

Everything here belongs to the benchmark, not to the code under test:
the span recorder, run accounting, the tail-percentile and q-error
helpers, the host-speed probe, the reference tasks that correct every
timing for the host's speed, and the closed-loop timing window.
Nothing in this module imports ``repro``.
"""

from __future__ import annotations

import gc
import itertools
import json
import math
import resource
import time
from pathlib import Path
from typing import Callable, Optional

import numpy as np

#: A reported percentile needs at least this many samples beyond it.
MIN_TAIL = 10
#: Window slice length: the traced/untraced alternation and the unit of
#: the throughput median.
SLICE_S = 1.0


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def tail_pct(count: int, wanted: float) -> float:
    """The highest percentile <= *wanted* with MIN_TAIL samples beyond it."""
    if count <= MIN_TAIL:
        return 50.0
    supported = 100.0 * (1.0 - MIN_TAIL / count)
    return max(50.0, min(wanted, math.floor(supported)))


def qerror(estimate: float, actual: float) -> float:
    """``max(e, a) / min(e, a)`` with both floored at 1."""
    e = max(float(estimate), 1.0)
    a = max(float(actual), 1.0)
    return max(e, a) / min(e, a)


# ---------------------------------------------------------------------------
# Host and process probes
# ---------------------------------------------------------------------------


def host_speed(seconds: float = 0.3) -> float:
    """Iterations per second of a fixed pure-Python loop (never touches repro).

    A diagnostic printed beside the metrics: when it moves between two
    runs, the host moved, whatever the code did.
    """
    deadline = time.perf_counter() + seconds
    started = time.perf_counter()
    rounds = 0
    while time.perf_counter() < deadline:
        acc = 0
        for i in range(1000):
            acc += i * i
        rounds += 1
    return rounds / (time.perf_counter() - started)


# ---------------------------------------------------------------------------
# Host-speed reference
# ---------------------------------------------------------------------------
#
# The shared host runs the benchmark at full speed or up to ~1.5x slower,
# in phases of seconds that drift over minutes, and no run length
# averages that away.  So every timed step is followed by a fixed
# reference task that does the same kind of work in plain Python and
# numpy, never touching repro, and the step's time is scaled by
# ``nominal_s / reference time``: what it would have taken on a host
# where the reference task takes its nominal time.  A code change moves
# the step and not the reference; a host slow-down moves both.

_REF_GEN = np.random.default_rng(20240601)
#: Probe-like records with hex-float values, as the wire codec carries.
_CODEC_RECORDS = [
    {
        "kind": "range" if i % 3 == 0 else "eq",
        "relation": f"W{i % 4}",
        "attribute": "a",
        "value": float(v).hex(),
    }
    for i, v in enumerate(_REF_GEN.random(400) * 100.0)
]


class _Item:
    __slots__ = ("relation", "attribute", "value")

    def __init__(self, relation: str, attribute: str, value: int) -> None:
        self.relation = relation
        self.attribute = attribute
        self.value = value


#: Probe-like objects over 16 columns, a sorted code table and its prefix sums.
_SCAN_ITEMS = [
    _Item(f"B{i % 16:02d}", "a", int(v))
    for i, v in enumerate(_REF_GEN.integers(0, 16384, size=3000))
]
_SCAN_CODES = np.sort(_REF_GEN.random(16384) * 16384.0)
_SCAN_PREFIX = np.cumsum(_REF_GEN.random(16385))


def codec_task() -> None:
    """JSON-encode 400 probe-like records to bytes, decode them, parse the hex floats."""
    payload = json.dumps(_CODEC_RECORDS, separators=(",", ":")).encode("utf-8")
    [float.fromhex(r["value"]) for r in json.loads(payload.decode("utf-8"))]


def scan_task() -> None:
    """Group 3000 probe-like objects by column, answer each group by binary search."""
    groups: dict[tuple[str, str], list[int]] = {}
    for item in _SCAN_ITEMS:
        groups.setdefault((item.relation, item.attribute), []).append(item.value)
    answers = []
    for values in groups.values():
        at = np.searchsorted(_SCAN_CODES, np.asarray(values, dtype=np.float64))
        answers.append(_SCAN_PREFIX[np.minimum(at, 16384)] - _SCAN_PREFIX[np.maximum(at - 5, 0)])
    np.concatenate(answers).tolist()


class Reference:
    """A fixed task timed beside each step, to correct the step for host speed."""

    def __init__(self, task: Callable[[], None], nominal_s: float) -> None:
        self.task = task
        #: The task's median time on the reference VM (2 vCPUs, KVM, Xeon).
        self.nominal_s = nominal_s

    def seconds(self) -> float:
        """One timed run of the task, with the garbage collector held off."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            started = time.perf_counter()
            self.task()
            return time.perf_counter() - started
        finally:
            if enabled:
                gc.enable()

    def scale(self, reference_s: float) -> float:
        """The factor that corrects a time measured beside *reference_s*."""
        return self.nominal_s / reference_s


#: One reference per kind of work: ``codec`` for the wire path (JSON and
#: object building dominate), ``scan`` for in-process batches.
REFERENCES = {
    "codec": Reference(codec_task, 1.36e-3),
    "scan": Reference(scan_task, 1.98e-3),
}


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MB (Linux reports KB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Accounting
# ---------------------------------------------------------------------------

PHASES = ("setup", "window", "checks")


class Accounting:
    """Attempted / failed operations per phase, plus the first few failures.

    A failure is an exception, a wrong answer or a wire error.  A typed
    degradation returned by the service is a correct answer, not a
    failure; degraded probes are counted separately by the workloads.
    """

    def __init__(self) -> None:
        self.attempted = {phase: 0 for phase in PHASES}
        self.failed = {phase: 0 for phase in PHASES}
        self.failures: list[str] = []

    def record(self, phase: str, ok: bool, why: str = "") -> bool:
        self.attempted[phase] += 1
        if not ok:
            self.failed[phase] += 1
            if len(self.failures) < 20:
                self.failures.append(f"{phase}: {why}")
        return ok

    @property
    def total_attempted(self) -> int:
        return sum(self.attempted.values())

    @property
    def total_failed(self) -> int:
        return sum(self.failed.values())


# ---------------------------------------------------------------------------
# Span recorder
# ---------------------------------------------------------------------------


class _Span:
    __slots__ = ("_rec", "_name", "_request", "_id", "_parent", "_start")

    def __init__(self, rec: "Recorder", name: str, request: Optional[int]):
        self._rec = rec
        self._name = name
        self._request = request

    def __enter__(self) -> "_Span":
        rec = self._rec
        stack = rec._stack
        self._parent = stack[-1] if stack else None
        if self._request is None and stack:
            self._request = rec._requests.get(self._parent)
        self._id = next(rec._ids)
        stack.append(self._id)
        rec._requests[self._id] = self._request
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        end = time.perf_counter()
        rec = self._rec
        rec._stack.pop()
        rec.spans.append(
            (self._id, self._parent, self._name, self._start, end, self._request)
        )


class Recorder:
    """In-memory spans: name, start, end, parent and request id.

    A span opened inside another nests under it; a span without a request
    id inherits its parent's.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._request_ids = itertools.count(1)
        self._requests: dict[int, Optional[int]] = {}
        self._stack: list[int] = []
        self._self_times: tuple[int, dict[str, list[float]]] = (-1, {})

    def new_request(self) -> int:
        return next(self._request_ids)

    def span(self, name: str, request: Optional[int] = None) -> _Span:
        return _Span(self, name, request)

    def self_times(self) -> dict[str, list[float]]:
        """Seconds of self time per span name (duration minus children)."""
        if self._self_times[0] == len(self.spans):
            return self._self_times[1]
        children: dict[int, float] = {}
        for _sid, parent, _name, start, end, _req in self.spans:
            if parent is not None:
                children[parent] = children.get(parent, 0.0) + (end - start)
        out: dict[str, list[float]] = {}
        for sid, _parent, name, start, end, _req in self.spans:
            out.setdefault(name, []).append(end - start - children.get(sid, 0.0))
        self._self_times = (len(self.spans), out)
        return out

    def median_self(self, name: str, scale: float = 1e3) -> Optional[float]:
        times = self.self_times().get(name)
        return float(np.median(times)) * scale if times else None

    def write_jsonl(self, path: Path, origin: float) -> int:
        """Write every span as one JSON object per line; returns the count."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for sid, parent, name, start, end, req in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": sid,
                            "parent": parent,
                            "name": name,
                            "start_s": round(start - origin, 9),
                            "end_s": round(end - origin, 9),
                            "request": req,
                        }
                    )
                    + "\n"
                )
        return len(self.spans)


def null_span(_name: str, _request: Optional[int] = None) -> "_NullSpan":
    return _NULL


class _NullSpan:
    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None


_NULL = _NullSpan()


# ---------------------------------------------------------------------------
# Closed-loop window
# ---------------------------------------------------------------------------


class Arm:
    """Samples of one arm of a window, host-corrected and as timed.

    ``latencies`` and ``slices`` are corrected by the reference task timed
    around each request; ``wall_latencies`` and ``wall_slices`` are the
    same samples as the clock read them.
    """

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.wall_latencies: list[float] = []
        #: The reference task's time after each request.
        self.references: list[float] = []
        #: Per slice: (probes answered, seconds spent) by requests started in it.
        self.slices: dict[int, tuple[int, float]] = {}
        self.wall_slices: dict[int, tuple[int, float]] = {}

    def probes_per_s(self, wall: bool = False) -> float:
        """Median over the arm's slices of each slice's probes per second.

        A median of one-second rates, not probes over the whole window:
        a stall of a second or two on the shared host moves it far less.
        """
        slices = self.wall_slices if wall else self.slices
        return float(np.median([probes / spent for probes, spent in slices.values()]))


#: A request function: recorder or None -> (request latency in seconds,
#: probes answered).
RequestFn = Callable[[Optional[Recorder]], tuple[float, int]]


def run_window(
    seconds: float,
    request: RequestFn,
    reference: Reference,
    recorder: Optional[Recorder] = None,
    alternate: bool = True,
) -> tuple[dict[str, Arm], float]:
    """Run one closed loop for *seconds*; returns the arms and the time in requests.

    Every request is followed by one run of *reference*.  A request's
    latency and time spent are corrected by the mean of the reference
    runs just before and just after it, which follows the host's speed
    through a change of phase in mid-request better than either alone.
    The time in requests leaves the reference runs out.  Without a recorder
    every request is untraced.  With one, time is cut into ``SLICE_S``
    slices that alternate untraced and traced, so host drift hits both
    arms alike; the difference between the arms is the tracing
    overhead.  ``alternate=False`` traces every request.  A request
    belongs to the slice it started in; only slices the window covers in
    full count towards throughput, whose time includes the benchmark's
    own answer checks.
    """
    arms = {"untraced": Arm(), "traced": Arm()}
    started = time.perf_counter()
    deadline = started + seconds
    whole_slices = int(seconds / SLICE_S)
    before = reference.seconds()
    in_references = before
    while True:
        now = time.perf_counter()
        if now >= deadline:
            break
        index = int((now - started) / SLICE_S)
        traced = recorder is not None and (not alternate or index % 2 == 1)
        latency, probes = request(recorder if traced else None)
        spent = time.perf_counter() - now
        after = reference.seconds()
        in_references += after
        scale = reference.scale(0.5 * (before + after))
        before = after
        arm = arms["traced" if traced else "untraced"]
        arm.latencies.append(latency * scale)
        arm.wall_latencies.append(latency)
        arm.references.append(after)
        if index < whole_slices:
            for slices, factor in ((arm.slices, scale), (arm.wall_slices, 1.0)):
                done, busy = slices.get(index, (0, 0.0))
                slices[index] = (done + probes, busy + spent * factor)
    return arms, time.perf_counter() - started - in_references
