"""Construction-cost experiment — Table 1 (Section 4.3).

Times the optimal-histogram construction algorithms on Zipf frequency sets:
the exhaustive ``V-OptHist`` (cost ``C(M−1, β−1)``, exploding with both the
set cardinality and the bucket count) against the near-linear
``V-OptBiasHist``.  Absolute seconds differ from the paper's DEC ALPHA, but
the *shape* — drastic growth for serial, flat for end-biased — is a property
of the algorithms and reproduces.  A third column times the exact serial
optimum by dynamic program (``O(β·M log M)``) at the end-biased sizes and β,
showing how much of the gap is the exhaustive search rather than the
serial class.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional

from repro.core.biased import v_opt_bias_hist
from repro.core.serial import serial_partition_count, v_opt_hist_dp, v_opt_hist_exhaustive
from repro.data.zipf import zipf_frequencies
from repro.experiments.config import TimingExperimentConfig
from repro.util.validation import ensure_positive_int

#: Largest set the serial DP is timed on.  At one million values and β=10
#: it took 9 s with a 314 MB peak RSS (its split table alone holds β·M
#: integers), against under a second at 100 000.
SERIAL_DP_MAX_SIZE = 100_000


def time_construction(builder: Callable[[], object], repeats: int = 3) -> float:
    """Best-of-*repeats* wall-clock seconds for one construction call."""
    repeats = ensure_positive_int(repeats, "repeats")
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        builder()
        best = min(best, time.perf_counter() - start)
    return best


@dataclass(frozen=True)
class TimingRow:
    """One Table 1 row: timings for a frequency-set cardinality.

    ``serial_seconds`` maps a serial bucket count to its exhaustive
    V-OptHist time (``None`` when the configuration was skipped as
    infeasible, as the paper also had to); ``end_biased_seconds`` is the
    V-OptBiasHist time; ``serial_dp_seconds`` is the serial optimum's time
    by dynamic program at the same β (``None`` above
    ``SERIAL_DP_MAX_SIZE`` or where end-biased is not timed).
    """

    set_size: int
    serial_seconds: dict[int, Optional[float]]
    end_biased_seconds: Optional[float]
    serial_partitions: dict[int, int]
    serial_dp_seconds: Optional[float] = None


def construction_timing_table(
    config: Optional[TimingExperimentConfig] = None,
    *,
    max_partitions: int = 5_000_000,
) -> list[TimingRow]:
    """Regenerate Table 1: construction cost of serial vs end-biased optima.

    Serial configurations whose partition count exceeds *max_partitions* are
    skipped (reported as ``None``) — the blow-up itself is the result.
    """
    config = config or TimingExperimentConfig()
    sizes = sorted(set(config.serial_sizes) | set(config.end_biased_sizes))
    rows = []
    for size in sizes:
        freqs = zipf_frequencies(config.total, size, config.z)
        serial_seconds: dict[int, Optional[float]] = {}
        serial_partitions: dict[int, int] = {}
        for beta in config.serial_buckets:
            partitions = serial_partition_count(size, beta)
            serial_partitions[beta] = partitions
            if size in config.serial_sizes and 0 < partitions <= max_partitions:
                serial_seconds[beta] = time_construction(
                    lambda f=freqs, b=beta: v_opt_hist_exhaustive(f, b),
                    config.repeats,
                )
            else:
                serial_seconds[beta] = None
        end_biased = serial_dp = None
        if size in config.end_biased_sizes:
            end_biased = time_construction(
                lambda f=freqs: v_opt_bias_hist(f, config.end_biased_buckets),
                config.repeats,
            )
            if size <= SERIAL_DP_MAX_SIZE:
                serial_dp = time_construction(
                    lambda f=freqs: v_opt_hist_dp(f, config.end_biased_buckets),
                    config.repeats,
                )
        rows.append(TimingRow(size, serial_seconds, end_biased, serial_partitions, serial_dp))
    return rows
