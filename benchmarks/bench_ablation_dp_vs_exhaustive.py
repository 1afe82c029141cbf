"""Ablation: exhaustive V-OptHist vs the equivalent dynamic program.

DESIGN.md substitutes a dynamic program for the paper's exponential
exhaustive search in the large-M figure sweeps; on the sorted frequencies
it runs in O(β·M log M).  This bench justifies the substitution: identical
errors on every feasible instance, with the DP flat where the exhaustive
algorithm blows up — i.e. the paper's β=5 serial cut-off in Figure 3 is an
artefact of the algorithm, not of the histogram class.  Table 1
(``bench_table1_construction.py``) times the DP up to M=100 000.
"""

from __future__ import annotations

import time

import pytest
from _reporting import record_report

from repro.core.serial import serial_partition_count, v_opt_hist_dp, v_opt_hist_exhaustive
from repro.data.zipf import zipf_frequencies
from repro.experiments.report import format_table

SIZES = (10, 14, 18, 22, 26)
BETA = 4


def run_comparison():
    rows = []
    for size in SIZES:
        freqs = zipf_frequencies(1000, size, 1.0)
        start = time.perf_counter()
        exhaustive = v_opt_hist_exhaustive(freqs, BETA)
        exhaustive_seconds = time.perf_counter() - start
        start = time.perf_counter()
        dp = v_opt_hist_dp(freqs, BETA)
        dp_seconds = time.perf_counter() - start
        rows.append(
            (
                size,
                serial_partition_count(size, BETA),
                exhaustive_seconds,
                dp_seconds,
                exhaustive.self_join_error(),
                dp.self_join_error(),
            )
        )
    return rows


def test_ablation_dp_equals_exhaustive(benchmark):
    rows = benchmark.pedantic(run_comparison, rounds=1, iterations=1)

    record_report(
        f"Ablation — exhaustive V-OptHist vs dynamic program (beta={BETA})",
        format_table(
            ["M", "partitions", "exhaustive s", "dp s", "exhaustive err", "dp err"],
            [list(r) for r in rows],
            precision=5,
        ),
    )

    for size, partitions, exh_s, dp_s, exh_err, dp_err in rows:
        assert dp_err == pytest.approx(exh_err, rel=1e-9, abs=1e-7)
    # Exhaustive cost grows with the partition count; the DP does not track it.
    assert rows[-1][2] > rows[0][2]
    growth_exhaustive = rows[-1][2] / max(rows[0][2], 1e-9)
    growth_dp = rows[-1][3] / max(rows[0][3], 1e-9)
    assert growth_exhaustive > growth_dp
