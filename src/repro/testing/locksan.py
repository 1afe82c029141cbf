"""Runtime lock sanitizer: the dynamic half of the concurrency discipline.

The static pass (:mod:`repro.analysis.concurrency`) proves what it can see
in the AST; this module watches what actually happens.  While installed,
``threading.Lock`` and ``threading.RLock`` are replaced with factories
returning sanitized wrappers that record, per thread, the stack of locks
currently held (keyed by **allocation site**, ``file:line`` of the
constructor call) and check every acquisition against a global order
graph:

* **lock-order inversion** — acquiring ``B`` while holding ``A`` after
  some thread has ever acquired ``A`` while holding ``B`` (transitively);
  the dynamic analogue of lint rule R010;
* **self-deadlock** — a thread re-acquiring a non-reentrant lock it
  already holds (detected *before* the blocking call, so tests can probe
  with ``acquire(timeout=...)`` instead of hanging);
* **long hold / contention** — advisory findings when a lock is held
  longer than :data:`LONG_HOLD_SECONDS` or an acquisition waits longer
  than :data:`CONTENTION_WAIT_SECONDS`, pointing at hot locks worth
  splitting.

Enable it for a test run with ``REPRO_LOCKSAN=1`` (the conftest installs
it session-wide and fails the session if inversions or self-deadlocks
were recorded); the threaded stress and chaos suites then run fully
sanitized.  The hooks honor the observability kill switch: when
:func:`repro.obs.runtime.set_instrumentation` has turned instrumentation
off, a sanitized lock degrades to plain delegation, so the obs overhead
benchmark measures the same code path either way.

Known limits: only locks **created after** :func:`install` are wrapped —
``from threading import Lock`` aliases and dataclass
``field(default_factory=threading.Lock)`` defaults captured at import
time keep the original classes; ``threading.Condition`` wait internals
release/reacquire through the raw lock and are invisible.  The static
pass covers those blind spots from the other side.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable, Optional

#: Advisory threshold for a "this lock was held too long" finding.
LONG_HOLD_SECONDS = float(os.environ.get("REPRO_LOCKSAN_LONG_HOLD_MS", "100")) / 1000.0

#: Advisory threshold for a "this acquisition had to wait" finding.
CONTENTION_WAIT_SECONDS = (
    float(os.environ.get("REPRO_LOCKSAN_CONTENTION_MS", "10")) / 1000.0
)

#: Findings kept in memory; later ones only bump the counters.
MAX_FINDINGS = 200

#: The environment variable the test harness checks to arm the sanitizer.
LOCKSAN_ENV = "REPRO_LOCKSAN"

#: Finding kinds that indicate a real bug (vs. advisory performance ones).
FATAL_KINDS = frozenset({"lock-order-inversion", "self-deadlock"})


@dataclass(frozen=True)
class LockSanFinding:
    """One recorded discipline violation or advisory observation."""

    kind: str
    message: str
    thread: str
    site: str
    other_site: Optional[str] = None


_orig_lock: Callable[[], object] = threading.Lock
_orig_rlock: Callable[[], object] = threading.RLock

# All sanitizer bookkeeping hides behind an ORIGINAL (unwrapped) lock so
# the hooks never recurse into themselves; wrapped locks are never taken
# while it is held.
_state_lock = _orig_lock()
_installed = 0
_findings: list[LockSanFinding] = []
_counters: dict[str, int] = {}
#: allocation-site order graph: site -> sites acquired while holding it.
_order: dict[str, set[str]] = {}
#: first site pair observed for an edge, for the inversion message.
_edge_origin: dict[tuple[str, str], str] = {}
_tls = threading.local()


def locksan_requested() -> bool:
    """Whether the environment asked for a sanitized test session."""
    return os.environ.get(LOCKSAN_ENV, "").strip() not in {"", "0", "false", "no"}


def _obs_enabled() -> bool:
    try:
        from repro.obs import runtime
    except Exception:  # pragma: no cover - obs layer absent
        return True
    return runtime.is_enabled()


def _held_stack() -> list[tuple[int, str, float, bool]]:
    stack = getattr(_tls, "stack", None)
    if stack is None:
        stack = []
        _tls.stack = stack
    return stack


def _hooks_suppressed() -> bool:
    return bool(getattr(_tls, "suppress", False))


def _bump(counter: str, amount: int = 1) -> None:
    _counters[counter] = _counters.get(counter, 0) + amount


def _record_finding(
    kind: str, message: str, site: str, other_site: Optional[str] = None
) -> None:
    finding = LockSanFinding(
        kind=kind,
        message=message,
        thread=threading.current_thread().name,
        site=site,
        other_site=other_site,
    )
    with _state_lock:
        _bump(f"locksan_{kind.replace('-', '_')}_total")
        if len(_findings) < MAX_FINDINGS:
            _findings.append(finding)
    # Mirror into the obs registry outside the state lock; suppress our own
    # hooks so instrumenting the finding cannot re-enter the sanitizer.
    _tls.suppress = True
    try:
        from repro.obs import runtime

        runtime.count("repro_locksan_findings_total", kind=kind)
    except Exception:  # pragma: no cover - obs layer absent
        pass
    finally:
        _tls.suppress = False


def _reachable(start: str, goal: str) -> bool:
    """Is *goal* reachable from *start* in the order graph?  (Caller holds
    the state lock.)"""
    seen = {start}
    queue = [start]
    while queue:
        node = queue.pop()
        if node == goal:
            return True
        for succ in _order.get(node, ()):
            if succ not in seen:
                seen.add(succ)
                queue.append(succ)
    return False


class _SanitizedLock:
    """Wraps one real lock, reporting acquisitions to the sanitizer."""

    __slots__ = ("_inner", "_site", "_reentrant")

    def __init__(self, inner: object, site: str, reentrant: bool) -> None:
        self._inner = inner
        self._site = site
        self._reentrant = reentrant

    # -- hook plumbing -------------------------------------------------

    def _hooks_active(self) -> bool:
        return _installed > 0 and not _hooks_suppressed() and _obs_enabled()

    def _before_acquire(self) -> None:
        stack = _held_stack()
        if not self._reentrant and any(entry[0] == id(self) for entry in stack):
            _record_finding(
                "self-deadlock",
                f"non-reentrant lock from {self._site} re-acquired by the "
                f"thread already holding it",
                self._site,
            )
            return
        held_sites = [entry[1] for entry in stack if entry[0] != id(self)]
        if not held_sites:
            return
        inversion: Optional[tuple[str, str]] = None
        with _state_lock:
            for held in held_sites:
                if held == self._site:
                    continue
                # New edge held -> self._site; if the graph already knows a
                # path self._site ~> held, two orders coexist: inversion.
                already_known = self._site in _order.get(held, set())
                if (
                    inversion is None
                    and not already_known
                    and _reachable(self._site, held)
                ):
                    inversion = (held, self._site)
                _order.setdefault(held, set()).add(self._site)
                _edge_origin.setdefault((held, self._site), f"{held} -> {self._site}")
        if inversion is not None:
            held_site, acquired_site = inversion
            _record_finding(
                "lock-order-inversion",
                f"lock from {acquired_site} acquired while holding lock from "
                f"{held_site}, but the opposite order was taken earlier",
                acquired_site,
                other_site=held_site,
            )

    def _after_acquire(self, waited: float) -> None:
        with _state_lock:
            _bump("locksan_acquisitions_total")
            if waited >= CONTENTION_WAIT_SECONDS:
                _bump("locksan_contended_acquisitions_total")
        if waited >= CONTENTION_WAIT_SECONDS:
            _record_finding(
                "contention",
                f"acquisition of lock from {self._site} waited "
                f"{waited * 1000.0:.1f} ms",
                self._site,
            )
        _held_stack().append((id(self), self._site, time.monotonic(), self._reentrant))

    def _before_release(self) -> None:
        stack = _held_stack()
        for index in range(len(stack) - 1, -1, -1):
            if stack[index][0] == id(self):
                _, site, acquired_at, _ = stack.pop(index)
                held_for = time.monotonic() - acquired_at
                if held_for >= LONG_HOLD_SECONDS:
                    with _state_lock:
                        _bump("locksan_long_holds_total")
                    _record_finding(
                        "long-hold",
                        f"lock from {site} held for {held_for * 1000.0:.1f} ms",
                        site,
                    )
                return

    # -- lock protocol -------------------------------------------------

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        active = self._hooks_active()
        # Non-blocking attempts skip the pre-acquire checks: a trylock can
        # neither deadlock nor define an ordering commitment (it is the
        # deadlock-*avoidance* idiom), and threading.Condition._is_owned
        # probes held locks exactly this way.
        if active and blocking:
            self._before_acquire()
        started = time.monotonic() if active else 0.0
        if blocking:
            acquired = self._inner.acquire(True, timeout)  # type: ignore[attr-defined]
        else:
            # The raw lock rejects a timeout on non-blocking calls.
            acquired = self._inner.acquire(False)  # type: ignore[attr-defined]
        if active and acquired:
            self._after_acquire(time.monotonic() - started)
        return acquired

    def release(self) -> None:
        if self._hooks_active():
            self._before_release()
        self._inner.release()  # type: ignore[attr-defined]

    def locked(self) -> bool:
        return self._inner.locked()  # type: ignore[attr-defined]

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.release()

    def __repr__(self) -> str:
        kind = "RLock" if self._reentrant else "Lock"
        return f"<sanitized {kind} from {self._site} wrapping {self._inner!r}>"

    def __getattr__(self, name: str) -> object:
        # threading.Condition probes _is_owned/_acquire_restore/_release_save;
        # delegate so RLock-backed conditions keep working (and plain locks
        # keep raising AttributeError, which Condition expects).
        return getattr(object.__getattribute__(self, "_inner"), name)


def _allocation_site(depth: int = 2) -> str:
    frame = sys._getframe(depth)
    return f"{os.path.basename(frame.f_code.co_filename)}:{frame.f_lineno}"


def _lock_factory() -> _SanitizedLock:
    return _SanitizedLock(_orig_lock(), _allocation_site(), reentrant=False)


def _rlock_factory() -> _SanitizedLock:
    return _SanitizedLock(_orig_rlock(), _allocation_site(), reentrant=True)


def install() -> None:
    """Start wrapping newly created ``threading.Lock``/``RLock`` objects.

    Reference-counted: nested installs (a locksan unit test inside a
    sanitized session) are fine, and only the last :func:`uninstall`
    restores the real factories.
    """
    global _installed
    with _state_lock:
        _installed += 1
        if _installed == 1:
            threading.Lock = _lock_factory  # type: ignore[assignment]
            threading.RLock = _rlock_factory  # type: ignore[assignment]


def uninstall() -> None:
    """Undo one :func:`install`; restores the factories at zero."""
    global _installed
    with _state_lock:
        if _installed == 0:
            return
        _installed -= 1
        if _installed == 0:
            threading.Lock = _orig_lock  # type: ignore[assignment]
            threading.RLock = _orig_rlock  # type: ignore[assignment]


def reset() -> None:
    """Drop all findings, counters, and learned ordering edges."""
    with _state_lock:
        _findings.clear()
        _counters.clear()
        _order.clear()
        _edge_origin.clear()


def findings(kind: Optional[str] = None) -> list[LockSanFinding]:
    """A snapshot of recorded findings, optionally filtered by *kind*."""
    with _state_lock:
        snapshot = list(_findings)
    if kind is not None:
        snapshot = [finding for finding in snapshot if finding.kind == kind]
    return snapshot


def counters() -> dict[str, int]:
    """A snapshot of the sanitizer counters (``locksan_*_total``)."""
    with _state_lock:
        return dict(_counters)


def fatal_findings() -> list[LockSanFinding]:
    """Findings that indicate real bugs: inversions and self-deadlocks."""
    return [finding for finding in findings() if finding.kind in FATAL_KINDS]


def format_findings(items: Optional[list[LockSanFinding]] = None) -> str:
    """Render findings one per line for a failure message or report."""
    items = findings() if items is None else items
    if not items:
        return "locksan: clean"
    lines = [
        f"[{finding.kind}] {finding.thread}: {finding.message}" for finding in items
    ]
    return "\n".join(lines)
