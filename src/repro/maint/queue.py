"""Durable job queue for the maintenance agent.

The queue is an **event-sourced log** riding the same crash-safe
machinery as the maintenance WAL
(:class:`repro.engine.eventlog.ChecksummedLog`): every state transition
— enqueue, claim, lease renewal, ack, retry, dead-letter, requeue — is a
checksummed JSONL event, fsynced **before** the transition is
acknowledged to the caller.  In-memory state is nothing but the replay
of the log, so a crash at any moment (the chaos suite injects one at
every event type) leaves a queue that rebuilds to a consistent state on
restart: an acknowledged event is never lost, an unacknowledged one
never observed.

Delivery semantics are **at-least-once with lease fencing**:

* :meth:`DurableJobQueue.claim` grants a *lease* — the claim event's own
  sequence number is the lease token, and the lease expires at a
  wall-clock deadline unless renewed (:meth:`DurableJobQueue.renew`,
  the worker's heartbeat).
* A worker that dies mid-job stops renewing; once the lease expires the
  job is **reclaimed** by the next claimer.  Every lease-guarded
  operation (renew/ack/fail) checks its token against the job's current
  lease and raises :class:`LeaseLostError` on mismatch, so a zombie
  worker that wakes up after a reclaim cannot ack or fail a job it no
  longer owns.
* Job *effects* must therefore be idempotent — rebuilds republish a
  snapshot through the WAL, which is safe to repeat.  The queue
  guarantees each job reaches ``done`` exactly once (one winning ack);
  execution may run more than once across crashes.

Failures retry with **exponential backoff plus seeded jitter**
(decorrelating workers that fail in lockstep) until ``max_attempts``,
after which the job parks in the **dead-letter lane** for inspection and
manual :meth:`DurableJobQueue.requeue_dead`.

Idempotent enqueue: an enqueue carrying a ``dedupe_key`` that matches a
live (pending or claimed) job returns the existing job without logging a
new event — the drift auditor can enqueue ``rebuild R.a`` on every audit
pass without flooding the queue.

Clocks: leases need **wall-clock** time because they must survive a
process restart — a monotonic clock restarts with the process, which
would leave every pre-crash lease expiry meaningless.  The clock is
injectable for tests (``clock=fake``); an NTP step only shifts *when* a
lease expires, never correctness, because reclaimed work is idempotent
by contract.  This is the one sanctioned wall-clock use in the
maintenance layer.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

if TYPE_CHECKING:
    from pathlib import Path

    import numpy as np

from repro.engine.durable import PathLike, canonical_json
from repro.engine.eventlog import ChecksummedLog, LogFormatError
from repro.obs import runtime as obs
from repro.obs import tracing
from repro.testing.faults import (
    POINT_QUEUE_ACK,
    POINT_QUEUE_CHECKPOINT,
    POINT_QUEUE_CLAIM,
    POINT_QUEUE_DEAD_LETTER,
    POINT_QUEUE_ENQUEUE,
    POINT_QUEUE_FLUSH,
    POINT_QUEUE_LEASE_RENEW,
    POINT_QUEUE_RETRY,
)
from repro.util.rng import RandomSource, derive_rng

#: The job kinds the maintenance agent executes.
JOB_KINDS: tuple[str, ...] = (
    "rebuild",
    "checkpoint",
    "quarantine-repair",
    "drift-audit",
)

#: The queue-log event types, in lifecycle order.
QUEUE_EVENTS: tuple[str, ...] = (
    "enqueue",
    "claim",
    "renew",
    "ack",
    "retry",
    "dead",
    "requeue",
)

#: Job statuses (the state machine's nodes).
STATUS_PENDING = "pending"
STATUS_CLAIMED = "claimed"
STATUS_DONE = "done"
STATUS_DEAD = "dead"
JOB_STATUSES: tuple[str, ...] = (
    STATUS_PENDING,
    STATUS_CLAIMED,
    STATUS_DONE,
    STATUS_DEAD,
)


class QueueFormatError(LogFormatError):
    """The queue log violates the event format (beyond a torn tail)."""


class LeaseLostError(RuntimeError):
    """A lease-guarded operation used a token that is no longer current.

    Raised when a worker renews, acks, or fails a job whose lease was
    reclaimed (or already resolved) — the worker must drop the job
    without applying further effects on its behalf.
    """


@dataclass(frozen=True)
class Job:
    """The immutable identity of one enqueued job."""

    #: ``job-<enqueue seq>`` — unique per queue log.
    id: str
    kind: str
    params: dict
    dedupe_key: Optional[str]
    #: Wall-clock enqueue time.
    enqueued_at: float
    #: Trace ID of the request whose activity caused this job ("" when
    #: unknown) — the agent re-joins this trace when it runs the job, so
    #: a drift-triggered rebuild's ``agent.job`` span links back to the
    #: probe batch that crossed the threshold.
    trace_id: str = ""


@dataclass
class JobState:
    """The mutable replay state of one job."""

    job: Job
    status: str = STATUS_PENDING
    #: Number of claims so far (attempt counter).
    attempts: int = 0
    owner: Optional[str] = None
    #: Current lease token (the claim event's seq), when claimed.
    lease: Optional[int] = None
    #: Wall-clock lease deadline, when claimed.
    lease_expires: float = 0.0
    #: Earliest wall-clock time the job is eligible to be claimed.
    not_before: float = 0.0
    last_error: Optional[str] = None

    def snapshot(self) -> dict:
        """A JSON-friendly view for status reporting."""
        return {
            "id": self.job.id,
            "kind": self.job.kind,
            "params": dict(self.job.params),
            "dedupe_key": self.job.dedupe_key,
            "trace_id": self.job.trace_id,
            "status": self.status,
            "attempts": self.attempts,
            "owner": self.owner,
            "lease_expires": self.lease_expires,
            "not_before": self.not_before,
            "last_error": self.last_error,
        }


@dataclass(frozen=True)
class JobLease:
    """A granted claim: the job plus the fencing token and deadline."""

    job: Job
    #: The claim event's seq — quote it on renew/ack/fail.
    token: int
    expires: float
    #: True when this claim took the job from an expired previous lease.
    reclaimed: bool = False


@dataclass(frozen=True)
class RetryPolicy:
    """Backoff schedule for failed jobs.

    Delay before attempt *n*'s retry is
    ``min(cap, base * 2**(n-1)) * U[1-jitter, 1+jitter]`` — exponential
    growth, capped, decorrelated by seeded jitter.
    """

    base: float = 1.0
    cap: float = 300.0
    jitter: float = 0.25
    max_attempts: int = 5

    def __post_init__(self) -> None:
        if self.base <= 0.0:
            raise ValueError(f"base must be > 0, got {self.base}")
        if self.cap < self.base:
            raise ValueError(f"cap must be >= base, got {self.cap} < {self.base}")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError(f"jitter must be within [0, 1), got {self.jitter}")
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")

    def delay(self, attempts: int, rng: np.random.Generator) -> float:
        """The jittered backoff delay after the *attempts*-th failure."""
        raw = min(self.cap, self.base * (2.0 ** max(attempts - 1, 0)))
        spread = float(rng.uniform(1.0 - self.jitter, 1.0 + self.jitter))
        return raw * spread


def _validate_event(payload: dict) -> None:
    """Event-log validation hook: structural checks on one queue event."""
    event = payload.get("event")
    if event not in QUEUE_EVENTS:
        raise QueueFormatError(
            f"queue event must be one of {QUEUE_EVENTS}, got {event!r}"
        )
    if event == "enqueue":
        kind = payload.get("kind")
        if kind not in JOB_KINDS:
            raise QueueFormatError(
                f"queue job kind must be one of {JOB_KINDS}, got {kind!r}"
            )
        if not isinstance(payload.get("params"), dict):
            raise QueueFormatError("queue enqueue event lacks a params object")
        trace = payload.get("trace")
        if trace is not None and (not isinstance(trace, str) or not trace):
            raise QueueFormatError(
                f"queue enqueue trace must be a non-empty string, got {trace!r}"
            )
    else:
        job = payload.get("job")
        if not isinstance(job, str) or not job.startswith("job-"):
            raise QueueFormatError(
                f"queue event {event!r} must name a job id, got {job!r}"
            )
    if event in ("renew", "ack", "retry", "dead"):
        lease = payload.get("lease")
        if not isinstance(lease, int) or isinstance(lease, bool) or lease < 1:
            raise QueueFormatError(
                f"queue event {event!r} must carry a lease token, got "
                f"{payload.get('lease')!r}"
            )


class DurableJobQueue:
    """The crash-safe maintenance job queue (see the module docstring).

    Thread-safe: one lock guards the in-memory replay state and
    serializes log appends, so concurrent workers on one process see a
    linearizable queue; cross-process exclusion is out of scope (one
    agent process owns a queue file).
    """

    def __init__(
        self,
        path: PathLike,
        *,
        lease_duration: float = 30.0,
        retry: Optional[RetryPolicy] = None,
        clock: Callable[[], float] = time.time,
        rng: RandomSource = None,
    ):
        if lease_duration <= 0.0:
            raise ValueError(f"lease_duration must be > 0, got {lease_duration}")
        self.lease_duration = float(lease_duration)
        self.retry = retry if retry is not None else RetryPolicy()
        if not isinstance(self.retry, RetryPolicy):
            raise TypeError(
                f"retry must be a RetryPolicy, got {type(self.retry).__name__}"
            )
        self._clock = clock
        self._rng = derive_rng(rng)
        self._lock = threading.Lock()
        #: job id -> JobState; insertion order is enqueue order (FIFO).
        self._jobs: dict[str, JobState] = {}
        #: live dedupe index: dedupe_key -> job id (pending/claimed only).
        self._dedupe: dict[str, str] = {}
        self._log = ChecksummedLog(path, validate=_validate_event)
        with self._lock:
            anomalies = 0
            for payload in self._log.payloads():
                anomalies += 0 if self._apply(payload) else 1
            self._refresh_gauges()
        if anomalies:
            obs.count("repro_queue_replay_anomalies_total", float(anomalies))

    # ------------------------------------------------------------------
    # Replay (the only writer of in-memory state)
    # ------------------------------------------------------------------

    def _apply(self, payload: dict) -> bool:
        """Apply one logged event to the replay state.

        Returns False for an event that is impossible against the state
        the log prefix built (it can only appear through manual log
        surgery — live appends are validated under the lock before they
        are written).  Impossible events are skipped, never fatal:
        recovery must always produce a servable queue.
        """
        event = payload["event"]
        if event == "enqueue":
            job = Job(
                id=f"job-{payload['seq']}",
                kind=payload["kind"],
                params=dict(payload["params"]),
                dedupe_key=payload.get("dedupe"),
                enqueued_at=float(payload.get("at", 0.0)),
                trace_id=payload.get("trace") or "",
            )
            if job.id in self._jobs:
                return False
            self._jobs[job.id] = JobState(job=job)
            if job.dedupe_key is not None:
                self._dedupe[job.dedupe_key] = job.id
            return True
        state = self._jobs.get(payload["job"])
        if state is None:
            return False
        if event == "claim":
            if state.status not in (STATUS_PENDING, STATUS_CLAIMED):
                return False
            state.status = STATUS_CLAIMED
            state.attempts += 1
            state.owner = payload.get("owner")
            state.lease = payload["seq"]
            state.lease_expires = float(payload.get("expires", 0.0))
            return True
        if event == "requeue":
            if state.status != STATUS_DEAD:
                return False
            state.status = STATUS_PENDING
            state.attempts = 0
            state.owner = None
            state.lease = None
            state.lease_expires = 0.0
            state.not_before = 0.0
            return True
        # The remaining events are lease-fenced.
        if state.status != STATUS_CLAIMED or state.lease != payload.get("lease"):
            return False
        if event == "renew":
            state.lease_expires = float(payload.get("expires", 0.0))
            return True
        if event == "ack":
            state.status = STATUS_DONE
            state.owner = None
            state.lease = None
            self._drop_dedupe(state)
            return True
        if event == "retry":
            state.status = STATUS_PENDING
            state.owner = None
            state.lease = None
            state.lease_expires = 0.0
            state.not_before = float(payload.get("not_before", 0.0))
            state.last_error = payload.get("error")
            return True
        if event == "dead":
            state.status = STATUS_DEAD
            state.owner = None
            state.lease = None
            state.lease_expires = 0.0
            state.last_error = payload.get("error")
            self._drop_dedupe(state)
            return True
        return False

    def _drop_dedupe(self, state: JobState) -> None:
        key = state.job.dedupe_key
        if key is not None and self._dedupe.get(key) == state.job.id:
            del self._dedupe[key]

    def _append(self, payload: dict, *, fault: str) -> dict:
        """Log one event durably, then apply it to the replay state.

        The apply happens only after the fsynced append returns — a crash
        inside the append leaves memory untouched, and the restart replay
        decides from the bytes that actually survived.
        """
        stamped = self._log.append(
            payload, fault_append=fault, fault_flush=POINT_QUEUE_FLUSH
        )
        applied = self._apply(stamped)
        assert applied, f"queue event validated but did not apply: {stamped!r}"
        obs.count("repro_queue_events_total", event=payload["event"])
        self._refresh_gauges()
        return stamped

    # ------------------------------------------------------------------
    # Producer side
    # ------------------------------------------------------------------

    def enqueue(
        self,
        kind: str,
        params: Optional[dict] = None,
        *,
        dedupe_key: Optional[str] = None,
        trace_id: Optional[str] = None,
    ) -> Job:
        """Durably add a job; idempotent under *dedupe_key*.

        If a live (pending or claimed) job already carries *dedupe_key*,
        that job is returned and nothing is logged.  Completed or
        dead-lettered jobs do not block a fresh enqueue.

        *trace_id* records the trace that caused the job, for end-to-end
        continuity; when omitted, the enqueueing thread's current trace
        context (if any) is captured automatically.
        """
        if kind not in JOB_KINDS:
            raise ValueError(f"job kind must be one of {JOB_KINDS}, got {kind!r}")
        params = {} if params is None else dict(params)
        canonical_json(params)  # reject non-JSON / non-finite params early
        if dedupe_key is not None and not isinstance(dedupe_key, str):
            raise TypeError(
                f"dedupe_key must be a str, got {type(dedupe_key).__name__}"
            )
        if trace_id is None:
            context = tracing.current_trace_context()
            trace_id = context.trace_id if context is not None else ""
        elif not isinstance(trace_id, str):
            raise TypeError(
                f"trace_id must be a str, got {type(trace_id).__name__}"
            )
        with self._lock:
            if dedupe_key is not None:
                existing = self._dedupe.get(dedupe_key)
                if existing is not None:
                    obs.count("repro_queue_dedupe_hits_total", kind=kind)
                    return self._jobs[existing].job
            payload = {
                "event": "enqueue",
                "kind": kind,
                "params": params,
                "at": float(self._clock()),
            }
            if dedupe_key is not None:
                payload["dedupe"] = dedupe_key
            if trace_id:
                payload["trace"] = trace_id
            stamped = self._append(payload, fault=POINT_QUEUE_ENQUEUE)
            return self._jobs[f"job-{stamped['seq']}"].job

    # ------------------------------------------------------------------
    # Worker side
    # ------------------------------------------------------------------

    def claim(self, owner: str) -> Optional[JobLease]:
        """Claim the oldest eligible job for *owner*; None when idle.

        Eligible means pending with its backoff deadline passed, or
        claimed with an **expired lease** (the previous worker stopped
        heartbeating — the job is reclaimed and the old token fenced
        out).  The returned lease expires ``lease_duration`` from now
        unless renewed.
        """
        if not isinstance(owner, str) or not owner:
            raise TypeError(f"owner must be a non-empty str, got {owner!r}")
        with self._lock:
            now = float(self._clock())
            for state in self._jobs.values():
                if state.status == STATUS_PENDING and now >= state.not_before:
                    reclaimed = False
                elif state.status == STATUS_CLAIMED and now >= state.lease_expires:
                    reclaimed = True
                else:
                    continue
                expires = now + self.lease_duration
                stamped = self._append(
                    {
                        "event": "claim",
                        "job": state.job.id,
                        "owner": owner,
                        "expires": expires,
                        "at": now,
                    },
                    fault=POINT_QUEUE_CLAIM,
                )
                if reclaimed:
                    obs.count("repro_queue_reclaims_total", kind=state.job.kind)
                return JobLease(
                    job=state.job,
                    token=stamped["seq"],
                    expires=expires,
                    reclaimed=reclaimed,
                )
            return None

    def renew(self, lease: JobLease) -> JobLease:
        """Heartbeat: extend the lease; raises :class:`LeaseLostError`.

        Renewal is durable (logged) so a restart reconstructs the true
        deadline instead of reclaiming a job whose worker was healthily
        heartbeating moments before the crash.
        """
        with self._lock:
            state = self._check_lease(lease)
            now = float(self._clock())
            expires = now + self.lease_duration
            self._append(
                {
                    "event": "renew",
                    "job": state.job.id,
                    "lease": lease.token,
                    "expires": expires,
                },
                fault=POINT_QUEUE_LEASE_RENEW,
            )
            return JobLease(
                job=state.job,
                token=lease.token,
                expires=expires,
                reclaimed=lease.reclaimed,
            )

    def ack(self, lease: JobLease) -> None:
        """Mark the leased job done; raises :class:`LeaseLostError`."""
        with self._lock:
            state = self._check_lease(lease)
            self._append(
                {"event": "ack", "job": state.job.id, "lease": lease.token},
                fault=POINT_QUEUE_ACK,
            )
            obs.count(
                "repro_agent_jobs_total", kind=state.job.kind, outcome="done"
            )

    def fail(self, lease: JobLease, error: str) -> str:
        """Record a failed attempt: backoff-retry or dead-letter.

        Returns the job's new status (``pending`` for a scheduled retry,
        ``dead`` once ``max_attempts`` is exhausted).  Raises
        :class:`LeaseLostError` for a stale token.
        """
        if not isinstance(error, str):
            raise TypeError(f"error must be a str, got {type(error).__name__}")
        with self._lock:
            state = self._check_lease(lease)
            if state.attempts >= self.retry.max_attempts:
                self._append(
                    {
                        "event": "dead",
                        "job": state.job.id,
                        "lease": lease.token,
                        "error": error,
                    },
                    fault=POINT_QUEUE_DEAD_LETTER,
                )
                obs.count("repro_queue_dead_letters_total", kind=state.job.kind)
                obs.count(
                    "repro_agent_jobs_total", kind=state.job.kind, outcome="dead"
                )
                return STATUS_DEAD
            delay = self.retry.delay(state.attempts, self._rng)
            self._append(
                {
                    "event": "retry",
                    "job": state.job.id,
                    "lease": lease.token,
                    "error": error,
                    "not_before": float(self._clock()) + delay,
                },
                fault=POINT_QUEUE_RETRY,
            )
            obs.count("repro_queue_retries_total", kind=state.job.kind)
            return STATUS_PENDING

    def _check_lease(self, lease: JobLease) -> JobState:
        if not isinstance(lease, JobLease):
            raise TypeError(f"lease must be a JobLease, got {type(lease).__name__}")
        state = self._jobs.get(lease.job.id)
        if (
            state is None
            or state.status != STATUS_CLAIMED
            or state.lease != lease.token
        ):
            raise LeaseLostError(
                f"lease {lease.token} on {lease.job.id} is no longer current"
            )
        return state

    # ------------------------------------------------------------------
    # Dead-letter lane and maintenance
    # ------------------------------------------------------------------

    def requeue_dead(self, job_id: str) -> Job:
        """Return a dead-lettered job to the pending lane, attempts reset."""
        with self._lock:
            state = self._jobs.get(job_id)
            if state is None or state.status != STATUS_DEAD:
                raise ValueError(f"{job_id!r} is not in the dead-letter lane")
            self._append(
                {"event": "requeue", "job": job_id, "at": float(self._clock())},
                fault=POINT_QUEUE_ENQUEUE,
            )
            return state.job

    def checkpoint(self) -> int:
        """Compact the log: drop events of completed jobs; returns dropped.

        Live jobs (pending/claimed) and the dead-letter lane keep their
        full event history — attempts and lease fences replay exactly.
        The rewrite is atomic and the header preserves the sequence
        high-water mark, so job ids never collide after compaction.
        """
        with self._lock:
            payloads = self._log.payloads()
            done = {
                job_id
                for job_id, state in self._jobs.items()
                if state.status == STATUS_DONE
            }
            keep = []
            for payload in payloads:
                job_id = (
                    f"job-{payload['seq']}"
                    if payload["event"] == "enqueue"
                    else payload["job"]
                )
                if job_id not in done:
                    keep.append(payload)
            self._log.rewrite(keep, fault_rewrite=POINT_QUEUE_CHECKPOINT)
            for job_id in done:
                del self._jobs[job_id]
            dropped = len(payloads) - len(keep)
            obs.count("repro_queue_checkpoints_total")
            self._refresh_gauges()
        obs.emit_event(
            "queue.checkpoint",
            path=str(self.path),
            dropped=dropped,
            kept=len(keep),
        )
        return dropped

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def path(self) -> Path:
        """Where the queue log lives."""
        # _log is bound once in __init__ and never reassigned; its path
        # is immutable, so this lock-free read is safe.
        return self._log.path  # repolint: disable=R009

    def jobs(self) -> list[dict]:
        """Snapshot of every tracked job, in enqueue order."""
        with self._lock:
            return [state.snapshot() for state in self._jobs.values()]

    def dead_letters(self) -> list[dict]:
        """Snapshot of the dead-letter lane."""
        with self._lock:
            return [
                state.snapshot()
                for state in self._jobs.values()
                if state.status == STATUS_DEAD
            ]

    def depth(self, status: Optional[str] = None) -> int:
        """Number of tracked jobs, optionally filtered by status."""
        if status is not None and status not in JOB_STATUSES:
            raise ValueError(
                f"status must be one of {JOB_STATUSES}, got {status!r}"
            )
        with self._lock:
            if status is None:
                return len(self._jobs)
            return sum(1 for s in self._jobs.values() if s.status == status)

    def oldest_pending_age(self) -> float:
        """Age in seconds of the oldest pending job (0.0 when none)."""
        with self._lock:
            now = float(self._clock())
            ages = [
                now - state.job.enqueued_at
                for state in self._jobs.values()
                if state.status == STATUS_PENDING
            ]
            return max(ages) if ages else 0.0

    def _refresh_gauges(self) -> None:
        """Export queue depth and age gauges (caller holds the lock)."""
        counts = dict.fromkeys(JOB_STATUSES, 0)
        for state in self._jobs.values():
            counts[state.status] += 1
        for status, value in counts.items():
            obs.set_gauge("repro_queue_depth", float(value), state=status)
        now = float(self._clock())
        ages = [
            now - state.job.enqueued_at
            for state in self._jobs.values()
            if state.status == STATUS_PENDING
        ]
        obs.set_gauge(
            "repro_queue_oldest_age_seconds", max(ages) if ages else 0.0
        )
