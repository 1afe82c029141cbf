"""Unit tests for the client retry schedule: jitter and the elapsed cap.

All timing is driven by a fake monotonic clock and a seeded RNG, so the
assertions are exact: exponential growth, jitter bounds, the total-
elapsed budget stopping and clamping delays, and exhaustion returning
``None``.
"""

import pytest

from repro.net import RetrySchedule
from repro.net.client import (
    DEFAULT_JITTER,
    DEFAULT_MAX_ELAPSED,
    ConnectionFailedError,
    EstimationClient,
)
from repro.util.rng import derive_rng


class FakeMonotonic:
    def __init__(self, now: float = 50.0):
        self.now = float(now)

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += float(seconds)


def schedule(**kwargs):
    kwargs.setdefault("retries", 5)
    kwargs.setdefault("base", 1.0)
    kwargs.setdefault("clock", FakeMonotonic())
    return RetrySchedule(**kwargs)


class TestDelays:
    def test_exponential_growth_without_jitter(self):
        sched = schedule(jitter=0.0, max_elapsed=None)
        assert [sched.next_delay(a) for a in range(5)] == [
            1.0,
            2.0,
            4.0,
            8.0,
            16.0,
        ]

    def test_jitter_stays_within_bounds(self):
        sched = schedule(
            jitter=0.25, max_elapsed=None, rng=derive_rng(9), retries=50
        )
        for attempt in range(50):
            delay = sched.next_delay(attempt)
            nominal = 2.0**attempt
            assert nominal * 0.75 <= delay <= nominal * 1.25

    def test_jitter_spreads_identical_attempts(self):
        # Two clients with different seeds must not sleep in lockstep —
        # that is the whole point of jitter (no thundering herd).
        first = schedule(jitter=0.25, max_elapsed=None, rng=derive_rng(1))
        second = schedule(jitter=0.25, max_elapsed=None, rng=derive_rng(2))
        assert first.next_delay(3) != second.next_delay(3)

    def test_injected_rng_is_converted_at_construction(self):
        seeded = schedule(jitter=0.25, max_elapsed=None, rng=9)
        generator = schedule(jitter=0.25, max_elapsed=None, rng=derive_rng(9))
        assert seeded._rng is not None
        assert [seeded.next_delay(a) for a in range(5)] == [
            generator.next_delay(a) for a in range(5)
        ]

    def test_default_rng_is_derived_on_the_first_jittered_delay(self):
        # An operation whose first attempt succeeds never asks for a
        # delay, so it must not pay for an OS-seeded generator.
        jittered = schedule(jitter=0.25, max_elapsed=None)
        assert jittered._rng is None
        assert 0.75 <= jittered.next_delay(0) <= 1.25
        assert jittered._rng is not None
        plain = schedule(jitter=0.0, max_elapsed=None)
        assert plain.next_delay(0) == 1.0
        assert plain._rng is None

    def test_retries_exhausted_returns_none(self):
        sched = schedule(retries=2, jitter=0.0, max_elapsed=None)
        assert sched.next_delay(1) is not None
        assert sched.next_delay(2) is None
        assert sched.next_delay(99) is None

    def test_zero_retries_never_sleeps(self):
        assert schedule(retries=0).next_delay(0) is None


class TestElapsedCap:
    def test_elapsed_tracks_injected_clock(self):
        clock = FakeMonotonic()
        sched = schedule(clock=clock)
        assert sched.elapsed() == 0.0
        clock.advance(3.5)
        assert sched.elapsed() == pytest.approx(3.5)

    def test_budget_exhausted_stops_retrying(self):
        clock = FakeMonotonic()
        sched = schedule(jitter=0.0, max_elapsed=10.0, clock=clock)
        assert sched.next_delay(0) == 1.0
        clock.advance(10.0)  # the budget is spent
        assert sched.next_delay(1) is None

    def test_delay_clamped_to_remaining_budget(self):
        clock = FakeMonotonic()
        sched = schedule(jitter=0.0, max_elapsed=10.0, clock=clock)
        clock.advance(7.0)
        # Attempt 2 nominally sleeps 4.0 s but only 3.0 s remain.
        assert sched.next_delay(2) == pytest.approx(3.0)

    def test_unlimited_budget_never_clamps(self):
        clock = FakeMonotonic()
        sched = schedule(jitter=0.0, max_elapsed=None, clock=clock)
        clock.advance(1_000_000.0)
        assert sched.next_delay(4) == 16.0


class TestValidation:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            schedule(retries=-1)
        with pytest.raises(ValueError):
            schedule(base=-0.1)
        with pytest.raises(ValueError):
            schedule(jitter=1.0)
        with pytest.raises(ValueError):
            schedule(jitter=-0.1)
        with pytest.raises(ValueError):
            schedule(max_elapsed=0.0)


class TestClientWiring:
    def test_client_exposes_and_validates_retry_knobs(self):
        client = EstimationClient("127.0.0.1", 1, jitter=0.1, max_elapsed=2.0)
        assert client.jitter == 0.1
        assert client.max_elapsed == 2.0
        sched = client._schedule()
        assert sched.jitter == 0.1
        assert sched.max_elapsed == 2.0

    def test_client_defaults_match_module_constants(self):
        client = EstimationClient("127.0.0.1", 1)
        assert client.jitter == DEFAULT_JITTER
        assert client.max_elapsed == DEFAULT_MAX_ELAPSED

    def test_connect_gives_up_within_the_elapsed_budget(self):
        # Port 1 refuses immediately; with a tiny budget the client must
        # stop fast instead of sleeping through every backoff step.
        client = EstimationClient(
            "127.0.0.1",
            1,
            retries=50,
            backoff=0.01,
            max_elapsed=0.2,
            timeout=0.2,
        )
        with pytest.raises(ConnectionFailedError, match="attempts"):
            client.connect()
