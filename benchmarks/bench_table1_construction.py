"""Table 1: construction cost of optimal serial vs end-biased histograms.

The paper's table (DEC ALPHA, 1995) shows exhaustive V-OptHist times
exploding with the frequency-set cardinality and the bucket count, against
a V-OptBiasHist that is essentially flat across β and near-linear in M
(timed up to one million attribute values).  Absolute seconds differ on a
2020s machine running Python, but the asymptotic shape is the result.

A fourth column times the same serial optimum found by dynamic program
(``v_opt_hist_dp``, ``O(β·M log M)`` on the sorted frequencies) at the
end-biased β and sizes up to 100 000: what stays of the paper's gap once
the exhaustive search is replaced.
"""

from __future__ import annotations

from _reporting import record_report

from repro.experiments.config import TimingExperimentConfig
from repro.experiments.report import format_table
from repro.experiments.timing import construction_timing_table

CONFIG = TimingExperimentConfig(
    serial_sizes=(10, 15, 20, 25, 30),
    serial_buckets=(3, 5),
    end_biased_sizes=(100, 1_000, 10_000, 100_000, 1_000_000),
    end_biased_buckets=10,
    repeats=3,
    seed=1995,
)


def test_table1_construction_cost(benchmark):
    rows = benchmark.pedantic(
        lambda: construction_timing_table(CONFIG), rounds=1, iterations=1
    )

    table_rows = []
    for row in rows:
        table_rows.append(
            [
                row.set_size,
                row.serial_seconds.get(3),
                row.serial_seconds.get(5),
                row.end_biased_seconds,
                row.serial_dp_seconds,
            ]
        )
    record_report(
        "Table 1 — construction time (seconds): exhaustive serial (beta=3,5) "
        "vs end-biased (beta=10), plus the serial DP (beta=10)",
        format_table(
            ["attribute values", "serial b=3", "serial b=5", "end-biased b=10", "serial DP b=10"],
            table_rows,
            precision=5,
        ),
    )

    by_size = {r.set_size: r for r in rows}
    # Serial blow-up: beta=5 dwarfs beta=3 at M=30 (C(29,4) vs C(29,2)).
    assert by_size[30].serial_seconds[5] > by_size[30].serial_seconds[3]
    # Serial cost grows steeply with M at fixed beta.
    assert by_size[30].serial_seconds[5] > by_size[15].serial_seconds[5]
    # End-biased stays cheap even at 1M values, and far below the serial
    # cost of a set four orders of magnitude smaller.
    assert by_size[1_000_000].end_biased_seconds < 30.0
    assert by_size[100].end_biased_seconds < by_size[30].serial_seconds[5]
    # The exact serial optimum by DP stays within the same bound up to
    # 100k values; the exhaustive search could not reach M=40 at beta=5.
    assert by_size[100_000].serial_dp_seconds < 30.0
    assert by_size[1_000_000].serial_dp_seconds is None
