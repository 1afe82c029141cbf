"""The interface every perfbench workload implements.

``run.py`` drives a workload through its phases: inputs and truth are
made in the constructor (never timed), ``setup`` builds the system under
test up to its first correct answer (timed, repeated), ``check_before``
checks the answers and fixes the expected ones, and ``request`` is one
closed-loop call (timed, checked).  ``layers`` turns the spans of a
traced run into per-layer metrics.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional

import numpy as np

from harness import Accounting, Recorder, peak_rss_mb


def bit_equal(left: np.ndarray, right: np.ndarray) -> bool:
    """Bit-for-bit equality of two float64 vectors (NaN payloads included)."""
    left = np.ascontiguousarray(left, dtype=np.float64)
    right = np.ascontiguousarray(right, dtype=np.float64)
    return left.shape == right.shape and np.array_equal(
        left.view(np.int64), right.view(np.int64)
    )


class Workload:
    name = ""
    #: The ``harness.REFERENCES`` task that does this workload's kind of work.
    reference_task = "scan"

    def __init__(self, seed: int, tmpdir: Path, acct: Accounting) -> None:
        self.seed = seed
        self.tmpdir = tmpdir
        self.acct = acct

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        """Release what ``setup`` built: before the next set-up, and at the end.

        Drop every reference to the system under test, so that the next
        set-up, and the peak RSS, never hold two copies of it.
        """

    def check_before(self) -> None:
        """Untimed checks that also fix the expected answers."""

    def request(self, rec: Optional[Recorder]) -> tuple[float, int]:
        """One closed-loop call: (latency in seconds, probes answered)."""
        raise NotImplementedError

    def qerrors(self) -> list[float]:
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return peak_rss_mb()

    def degraded(self) -> dict[str, int]:
        """Degraded probes by reason, read by the last ``teardown``."""
        return {}

    def extra(self, elapsed: float) -> dict[str, tuple[float, str]]:
        """Workload-specific figures printed beside the metrics."""
        return {}

    def layers(self, rec: Recorder) -> dict[str, tuple[float, str]]:
        raise NotImplementedError
