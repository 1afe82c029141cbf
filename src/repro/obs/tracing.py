"""Tracing spans with distributed trace context for the serving stack.

A span brackets one unit of work — a served batch, a table compile, a
WAL fsync — with :func:`time.perf_counter` timestamps (monotonic, so a
wall-clock step never produces a negative duration).  Spans nest: a
thread-local stack links each span to its parent, so ``journal.fsync``
inside ``journal.append`` inside ``maint.publish`` comes out with the
right parentage and depth even under concurrent serving threads.

Beyond in-thread nesting, every span now belongs to a **trace**: a
16-hex ``trace_id`` shared by all spans of one request's journey, plus
a per-span ``span_id`` and ``parent_id`` link.  A root span (no
enclosing span, no attached context) starts a new trace and takes a
head-sampling decision (:class:`HeadSampler`) that is deterministic per
trace ID; descendants inherit both.  To carry a trace across an
explicit boundary — an executor thread, the agent's heartbeat, a wire
hop — capture :func:`current_trace_context` on one side and
:func:`attach` it on the other (:func:`detach` restores the previous
context; both compose with ``try/finally``)::

    ctx = current_trace_context()          # producer side

    token = attach(ctx)                    # consumer side (other thread)
    try:
        with span("serve.batch", probes=len(batch)):
            ...
    finally:
        detach(token)

Event-loop code must not lean on the thread-local stack (concurrent
tasks share the thread): pass ``context=`` to :func:`span` to open a
*detached* span that is parented by the given context and never touches
the stack — the asyncio server uses this for every ``net.*`` span.

On exit every span (a) feeds the ``repro_span_duration_seconds``
histogram (with a ``trace_id`` exemplar when sampled) and the
``repro_span_total`` counter in the default registry
(``repro_span_errors_total`` too when the body raised), and (b) — when
sampled — is delivered as a :class:`SpanRecord` to every registered
sink (:func:`add_span_sink`).  Each sink receives its own record with a
defensively-copied tags mapping, so a sink that mutates its tags can
never corrupt a sibling sink's view.  Sinks are observer code and must
never fail the observed path: a raising sink is swallowed and counted
in ``repro_obs_sink_errors_total``.

Trace IDs come from a seedable :class:`TraceIdSource` (``derive_rng``
seeds the base state per the repo RNG discipline, then a splitmix64
counter mix makes per-ID generation allocation-free and cheap enough
for the instrumentation overhead budget).

When instrumentation is disabled (:func:`repro.obs.runtime.set_instrumentation`)
:func:`span` returns a shared no-op context manager and the hot path
pays only one boolean check.
"""

from __future__ import annotations

import itertools
import threading
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import Callable, Iterator, Mapping, Optional

from repro.obs import runtime
from repro.util.rng import RandomSource, derive_rng

#: Human-readable catalogue of every span name emitted by the repro tree.
#: Kept here (and mirrored in docs/OBSERVABILITY.md) so tests can assert
#: that instrumentation stays in sync with the documentation.
SPAN_NAMES: tuple[str, ...] = (
    "serve.batch",
    "serve.frame.build",
    "serve.table.compile",
    "serve.layout.compile",
    "journal.append",
    "journal.fsync",
    "journal.checkpoint",
    "persist.save",
    "persist.load",
    "persist.recover",
    "engine.analyze",
    "maint.publish",
    "maint.rebuild",
    "agent.job",
    "agent.drain",
    "net.accept",
    "net.batch",
    "net.decode",
    "net.stream",
    "net.client.batch",
)

_MASK64 = (1 << 64) - 1
#: Weyl-sequence increment (golden-ratio prime) feeding the splitmix64
#: finalizer below — the standard splitmix64 stream constant.
_WEYL = 0x9E3779B97F4A7C15


def _mix64(x: int) -> int:
    """splitmix64 finalizer: a cheap, high-quality 64-bit bijection."""
    x &= _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


@dataclass(frozen=True)
class TraceContext:
    """An immutable handle naming a position inside a trace.

    ``span_id`` is the ID of the span that children should parent to
    (empty for a context that only names the trace, e.g. one recovered
    from a queue record).  ``sampled`` is the head-sampling decision —
    made once at the trace root and inherited by every descendant.
    """

    trace_id: str
    span_id: str = ""
    sampled: bool = True
    tenant: str = ""


class TraceIdSource:
    """Seedable, thread-safe generator of 16-hex trace/span IDs.

    The base state is drawn through :func:`repro.util.rng.derive_rng`
    (so ``seed=`` gives a reproducible ID stream per the repo RNG
    discipline); each ID is then a splitmix64 mix of a shared counter,
    which is allocation-free and cheap enough for per-span use.
    """

    __slots__ = ("_base", "_counter")

    def __init__(self, seed: RandomSource = None) -> None:
        gen = derive_rng(seed)
        self._base = int(gen.integers(0, _MASK64, dtype="uint64"))
        # itertools.count.__next__ is atomic under the GIL.
        self._counter = itertools.count(1)

    def next_id(self) -> str:
        raw = _mix64(self._base + _WEYL * next(self._counter))
        # Never emit the all-zero ID: it is indistinguishable from "no ID".
        return format(raw or 1, "016x")


def _id_bucket(trace_id: str) -> int:
    """Deterministic 16-bit bucket for a trace ID (any string)."""
    try:
        raw = int(trace_id, 16)
    except ValueError:
        raw = zlib.crc32(trace_id.encode("utf-8", "replace"))
    return _mix64(raw) & 0xFFFF


class HeadSampler:
    """Head-based sampling: decide once per trace, at the root.

    The decision is a pure function of the trace ID (and tenant), so
    every participant that sees the same trace ID — client, server,
    maintenance agent — independently reaches the same verdict, and
    re-deciding for the same ID is always consistent.  Rates are
    fractions in ``[0, 1]``; ``per_tenant`` overrides the default for
    named tenants.
    """

    __slots__ = ("default_rate", "per_tenant")

    def __init__(
        self,
        default_rate: float = 1.0,
        per_tenant: Optional[Mapping[str, float]] = None,
    ) -> None:
        self.default_rate = float(default_rate)
        self.per_tenant = {k: float(v) for k, v in (per_tenant or {}).items()}

    def rate_for(self, tenant: str = "") -> float:
        return self.per_tenant.get(tenant, self.default_rate)

    def decision(self, trace_id: str, tenant: str = "") -> bool:
        rate = self.rate_for(tenant)
        if rate >= 1.0:
            return True
        if rate <= 0.0:
            return False
        return _id_bucket(trace_id) < int(rate * 0x10000)


_DEFAULT_ID_SOURCE = TraceIdSource()
_DEFAULT_SAMPLER = HeadSampler()
_id_source: TraceIdSource = _DEFAULT_ID_SOURCE
_sampler: HeadSampler = _DEFAULT_SAMPLER


def set_id_source(source: Optional[TraceIdSource]) -> TraceIdSource:
    """Install *source* as the process ID source; returns the previous one.

    ``None`` restores the process default (useful in test teardown).
    """
    global _id_source
    previous = _id_source
    _id_source = _DEFAULT_ID_SOURCE if source is None else source
    return previous


def set_sampler(sampler: Optional[HeadSampler]) -> HeadSampler:
    """Install *sampler* as the head sampler; returns the previous one.

    ``None`` restores the always-sample default.
    """
    global _sampler
    previous = _sampler
    _sampler = _DEFAULT_SAMPLER if sampler is None else sampler
    return previous


def get_sampler() -> HeadSampler:
    return _sampler


@dataclass(frozen=True)
class SpanRecord:
    """One finished span, as delivered to sinks."""

    name: str
    #: perf_counter() at entry — monotonic, not wall time.
    start: float
    #: perf_counter() at exit.
    end: float
    #: Nesting depth (0 for a root span on its thread).
    depth: int
    #: Name of the enclosing span, or ``None`` for a root span.
    parent: Optional[str]
    #: Whether the span body raised.
    error: bool
    #: Free-form tags passed to :func:`span`.  Sinks each receive their
    #: own copy of this mapping.
    tags: Mapping[str, str] = field(default_factory=dict)
    #: 16-hex ID shared by every span of one trace.
    trace_id: str = ""
    #: 16-hex ID of this span.
    span_id: str = ""
    #: ``span_id`` of the parent span ("" for a trace root).
    parent_id: str = ""
    #: Head-sampling decision inherited from the trace root.  Unsampled
    #: spans still feed metrics but are not delivered to sinks.
    sampled: bool = True

    @property
    def duration(self) -> float:
        """Elapsed seconds (always >= 0)."""
        return max(0.0, self.end - self.start)


SpanSink = Callable[[SpanRecord], None]

_sinks_lock = threading.Lock()
_sinks: list[SpanSink] = []


def add_span_sink(sink: SpanSink) -> None:
    """Register *sink* to receive every finished, sampled :class:`SpanRecord`."""
    if not callable(sink):
        raise TypeError(f"span sink must be callable, got {type(sink).__name__}")
    with _sinks_lock:
        _sinks.append(sink)


def remove_span_sink(sink: SpanSink) -> bool:
    """Unregister *sink*; returns whether it was registered."""
    with _sinks_lock:
        try:
            _sinks.remove(sink)
        except ValueError:
            return False
        return True


def clear_span_sinks() -> None:
    """Remove every registered sink (test isolation helper)."""
    with _sinks_lock:
        _sinks.clear()


class _SpanStack(threading.local):
    def __init__(self) -> None:
        # Each frame: (name, span_id, trace_id, sampled).
        self.frames: list[tuple[str, str, str, bool]] = []
        self.context: Optional[TraceContext] = None


_active = _SpanStack()


def current_span_name() -> Optional[str]:
    """Name of the innermost open span on this thread, if any."""
    frames = _active.frames
    return frames[-1][0] if frames else None


def current_trace_context() -> Optional[TraceContext]:
    """The trace position new work on this thread would parent to.

    Prefers the innermost open span; falls back to an explicitly
    attached context; ``None`` when neither exists (new root work would
    start a fresh trace).
    """
    frames = _active.frames
    if frames:
        _name, span_id, trace_id, sampled = frames[-1]
        return TraceContext(trace_id=trace_id, span_id=span_id, sampled=sampled)
    return _active.context


def new_trace(tenant: str = "") -> TraceContext:
    """Mint a fresh trace root context, taking the sampling decision."""
    trace_id = _id_source.next_id()
    return TraceContext(
        trace_id=trace_id,
        span_id="",
        sampled=_sampler.decision(trace_id, tenant),
        tenant=tenant,
    )


def attach(context: Optional[TraceContext]) -> Optional[TraceContext]:
    """Make *context* the calling thread's trace context.

    Returns a token (the previously attached context) that must be
    handed back to :func:`detach` — the pair composes like a stack, so
    ``try: token = attach(ctx) ... finally: detach(token)`` is safe to
    nest.  Attaching ``None`` explicitly clears the context.
    """
    previous = _active.context
    _active.context = context
    return previous


def detach(token: Optional[TraceContext]) -> None:
    """Restore the context that was active before the matching :func:`attach`."""
    _active.context = token


@contextmanager
def scope(context: Optional[TraceContext]) -> Iterator[None]:
    """Run a block on a **fresh span stack** with *context* attached.

    :func:`attach` alone is not enough for a worker loop executing units
    of work that belong to *foreign* traces (a queue job carrying the
    trace that enqueued it): any span the loop itself holds open — a
    drain span, a poll span — sits on the thread-local stack and wins
    over the attached context, grafting the job's spans into the loop's
    trace.  ``scope`` swaps in an empty stack for the duration of the
    block, so spans opened inside parent to *context* and nothing else,
    then restores the loop's stack exactly as it was.
    """
    saved_frames, saved_context = _active.frames, _active.context
    _active.frames, _active.context = [], context
    try:
        yield
    finally:
        _active.frames, _active.context = saved_frames, saved_context


class _NullSpan:
    """Shared do-nothing context manager used when instrumentation is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        return False

    @property
    def context(self) -> None:
        """No trace when instrumentation is off (propagate nothing)."""
        return None


_NULL_SPAN = _NullSpan()


class _Span:
    """An open span; records itself into the registry and sinks on exit."""

    __slots__ = (
        "name",
        "tags",
        "_start",
        "_depth",
        "_parent",
        "_entered",
        "_context_in",
        "_trace_id",
        "_span_id",
        "_parent_id",
        "_sampled",
    )

    def __init__(
        self,
        name: str,
        tags: dict[str, str],
        context: Optional[TraceContext] = None,
    ):
        self.name = name
        self.tags = tags
        self._start = 0.0
        self._depth = 0
        self._parent: Optional[str] = None
        self._entered = False
        self._context_in = context
        self._trace_id = ""
        self._span_id = ""
        self._parent_id = ""
        self._sampled = True

    @property
    def context(self) -> TraceContext:
        """Context naming this span — children attach or parent to it."""
        return TraceContext(
            trace_id=self._trace_id, span_id=self._span_id, sampled=self._sampled
        )

    @property
    def trace_id(self) -> str:
        return self._trace_id

    def __enter__(self) -> "_Span":
        self._span_id = _id_source.next_id()
        if self._context_in is not None:
            # Detached span: parented by the given context, never touches
            # the thread-local stack (safe for interleaved asyncio tasks).
            ctx = self._context_in
            self._trace_id = ctx.trace_id or _id_source.next_id()
            self._parent_id = ctx.span_id
            self._sampled = ctx.sampled
        else:
            frames = _active.frames
            self._depth = len(frames)
            if frames:
                parent_name, parent_span, trace_id, sampled = frames[-1]
                self._parent = parent_name
                self._parent_id = parent_span
                self._trace_id = trace_id
                self._sampled = sampled
            else:
                ctx = _active.context
                if ctx is not None:
                    self._trace_id = ctx.trace_id or _id_source.next_id()
                    self._parent_id = ctx.span_id
                    self._sampled = ctx.sampled
                else:
                    self._trace_id = _id_source.next_id()
                    self._sampled = _sampler.decision(self._trace_id)
            frames.append((self.name, self._span_id, self._trace_id, self._sampled))
            self._entered = True
        self._start = perf_counter()
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> bool:
        end = perf_counter()
        if self._entered:
            frames = _active.frames
            # Pop our own frame; tolerate a corrupted stack rather than
            # masking the body's exception with ours.
            if frames and frames[-1][1] == self._span_id:
                frames.pop()
            else:
                for index in range(len(frames) - 1, -1, -1):
                    if frames[index][1] == self._span_id:
                        del frames[index]
                        break
            self._entered = False
        record = SpanRecord(
            name=self.name,
            start=self._start,
            end=end,
            depth=self._depth,
            parent=self._parent,
            error=exc_type is not None,
            tags=self.tags,
            trace_id=self._trace_id,
            span_id=self._span_id,
            parent_id=self._parent_id,
            sampled=self._sampled,
        )
        _finish(record)
        return False


def _finish(record: SpanRecord) -> None:
    exemplar = None
    if record.sampled and record.trace_id:
        exemplar = (("trace_id", record.trace_id),)
    runtime.observe(
        "repro_span_duration_seconds",
        record.duration,
        exemplar=exemplar,
        span=record.name,
    )
    runtime.count("repro_span_total", span=record.name)
    if record.error:
        runtime.count("repro_span_errors_total", span=record.name)
    if not record.sampled:
        # Head sampling: metrics stay complete, export is sampled.
        return
    with _sinks_lock:
        sinks = list(_sinks)
    for sink in sinks:
        try:
            # Each sink gets its own tags copy: a mutating sink must not
            # corrupt what sibling sinks (or later readers) observe.
            sink(replace(record, tags=dict(record.tags)))
        except Exception:
            runtime.count("repro_obs_sink_errors_total", kind="span_sink")


def span(
    name: str, *, context: Optional[TraceContext] = None, **tags: object
) -> _Span | _NullSpan:
    """A context manager timing one named unit of work.

    *tags* annotate the emitted :class:`SpanRecord` (they do not become
    metric labels — label cardinality stays bounded by span name).
    ``context=`` opens a *detached* span parented by that
    :class:`TraceContext` instead of the thread-local stack — required
    on event loops, where concurrent tasks share one thread.  When
    instrumentation is disabled this returns a shared no-op object.
    """
    if not runtime.is_enabled():
        return _NULL_SPAN
    if tags:
        built = {str(k): str(v) for k, v in sorted(tags.items())}
        return _Span(name, built, context)
    return _Span(name, {}, context)
