"""Observability overhead: the instrumented serving path must stay cheap.

The telemetry layer was built around one budget: spans and counters on
the batch boundary, never per probe.  This bench drives the same
10k-probe batch with instrumentation enabled and disabled
(:func:`repro.obs.set_instrumentation`), one on/off pair per round, and
checks that the median of the per-round on/off ratios stays within 5%
(or within a small absolute epsilon of the median disabled time, so
sub-millisecond jitter cannot fail the gate on fast machines).  The
measured figures are also written to ``benchmarks/results/BENCH_obs.json``
so overhead can be tracked across revisions.
"""

from __future__ import annotations

import json
from pathlib import Path
from time import perf_counter

import numpy as np
from _reporting import record_report

from repro.data.quantize import quantize_to_integers
from repro.data.zipf import zipf_frequencies
from repro.engine.analyze import analyze_relation
from repro.engine.catalog import StatsCatalog
from repro.engine.relation import Relation
from repro.experiments.report import format_table
from repro.obs import runtime
from repro.serve import EqualityProbe, EstimationService, RangeProbe
from repro.util.rng import derive_rng

N_RELATIONS = 4
TOTAL = 4000
DOMAIN = 100
N_PROBES = 10_000
ROUNDS = 31
MAX_OVERHEAD = 0.05
#: Absolute slack for scheduler jitter only.  This must stay well under
#: ``off_seconds * MAX_OVERHEAD`` (≈250µs for the ~5ms batch measured
#: here) or the fractional budget is dead code and a real regression
#: passes silently — which is exactly what happened when this was 2ms:
#: a 7.6% overhead sailed through the gate.
EPSILON_SECONDS = 2e-4
RESULTS_PATH = Path(__file__).parent / "results" / "BENCH_obs.json"


def build_service(gen):
    catalog = StatsCatalog()
    for index in range(N_RELATIONS):
        freqs = quantize_to_integers(
            zipf_frequencies(TOTAL, DOMAIN, 0.5 + 0.4 * index)
        )
        column = [v for v, f in enumerate(freqs) for _ in range(int(f))]
        gen.shuffle(column)
        relation = Relation.from_columns(f"R{index}", {"a": column})
        analyze_relation(relation, "a", catalog, kind="end-biased", buckets=8)
    return EstimationService(catalog, name="bench-obs")


def build_probes(gen):
    probes = []
    for _ in range(N_PROBES):
        relation = f"R{gen.integers(N_RELATIONS)}"
        if gen.random() < 0.6:
            probes.append(EqualityProbe(relation, "a", int(gen.integers(DOMAIN))))
        else:
            low, high = sorted(int(v) for v in gen.integers(0, DOMAIN, size=2))
            probes.append(RangeProbe(relation, "a", low, high))
    return probes


def _timed_batch(service, probes):
    started = perf_counter()
    answer = service.estimate_batch(probes)
    return perf_counter() - started, answer


def run_obs_overhead():
    gen = derive_rng(1995)
    service = build_service(gen)
    probes = build_probes(gen)

    # Warm the compiled-table cache so neither arm pays compile time.
    service.estimate_batch(probes[:100])

    # Pair the arms round by round, alternating which runs first, and
    # judge the median of the per-round on/off ratios.  A pair shares
    # the host's speed of the moment, so background-load drift cancels
    # inside each ratio, and the median ignores the rounds a stall hit.
    # Measured sequentially on a single-core box, the on-vs-off delta
    # wobbled by ±8%, and comparing the best of 15 runs per arm still
    # failed about one run in four on an unchanged tree.
    on_times: list[float] = []
    off_times: list[float] = []
    answers = {}
    try:
        for round_index in range(ROUNDS):
            arms = (True, False) if round_index % 2 == 0 else (False, True)
            for enabled in arms:
                runtime.set_instrumentation(enabled)
                elapsed, answers[enabled] = _timed_batch(service, probes)
                (on_times if enabled else off_times).append(elapsed)
    finally:
        runtime.set_instrumentation(True)

    on, off = np.asarray(on_times), np.asarray(off_times)
    return {
        "ratio": float(np.median(on / off)),
        "on_seconds": float(np.median(on)),
        "off_seconds": float(np.median(off)),
        "on_answer": answers[True],
        "off_answer": answers[False],
        "stats": service.stats(),
    }


def test_obs_overhead_within_budget(benchmark):
    result = benchmark.pedantic(run_obs_overhead, rounds=1, iterations=1)
    on, off = result["on_seconds"], result["off_seconds"]
    overhead = result["ratio"] - 1.0
    # The budget: within 5%, or within the jitter-sized absolute slack.
    # The epsilon is deliberately small relative to the batch time so an
    # over-budget run fails here instead of hiding inside the slack.
    allowed = max(MAX_OVERHEAD, EPSILON_SECONDS / off)

    record_report(
        f"Observability overhead — {N_PROBES}-probe batch, instrumentation "
        f"on vs off (paired rounds, median of {ROUNDS})",
        format_table(
            ["arm", "seconds", "probes/sec"],
            [
                ["instrumented", on, N_PROBES / on],
                ["disabled", off, N_PROBES / off],
                ["overhead", overhead, float("nan")],
            ],
            precision=4,
        ),
    )

    RESULTS_PATH.parent.mkdir(exist_ok=True)
    RESULTS_PATH.write_text(
        json.dumps(
            {
                "bench": "obs_overhead",
                "probes": N_PROBES,
                "rounds": ROUNDS,
                "statistic": "median of per-round paired on/off ratios",
                "instrumented_seconds": on,
                "disabled_seconds": off,
                "overhead_fraction": overhead,
                "budget_fraction": MAX_OVERHEAD,
            },
            indent=2,
        )
        + "\n"
    )

    # Estimates are identical with telemetry on or off.
    assert np.array_equal(result["on_answer"], result["off_answer"])
    # The off arm still keeps its plain ServiceMetrics counters.
    assert result["stats"].probes_served >= (ROUNDS * 2 + 1) * 100
    assert overhead <= allowed, (
        f"instrumentation overhead {overhead:.1%} (median paired ratio) exceeds "
        f"{MAX_OVERHEAD:.0%} (median on={on:.4f}s off={off:.4f}s)"
    )
