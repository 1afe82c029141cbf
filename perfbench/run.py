"""perfbench: the repository benchmark, one closed-loop workload per run.

Run from the repository root:

    python3 perfbench/run.py --workload {wire,bulk,explain,churn} \\
        --seed N --seconds S --trace {0,1}

``--trace 0`` measures the end-to-end metrics: set-up time, throughput,
request latency, q-error against exact truth and peak RSS.  Every
timing is corrected for the host's speed by a reference task timed
beside it (see ``harness.Reference``); the wall-clock figures are
printed too.  ``--trace 1`` runs the same window with traced and
untraced slices interleaved, prints how far each end-to-end metric
moved (the tracing overhead), writes the spans as JSONL under
``.perfbench-out/`` and reports the per-layer metrics of every workload.  Every answer is checked; any failure makes
the command exit 1.  The last line of stdout is one JSON object.  See
``perfbench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import shutil
import signal
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from harness import (  # noqa: E402  (needs HERE on sys.path)
    REFERENCES,
    Accounting,
    Arm,
    Recorder,
    host_speed,
    run_window,
    tail_pct,
)

WORKLOADS = ("wire", "bulk", "explain", "churn")
#: Set-ups per run: at least SETUP_REPEATS, and more until SETUP_SECONDS
#: have passed, so quick set-ups get a steadier median; ``setup_s`` is it.
SETUP_REPEATS = 5
SETUP_SECONDS = 2.0
#: Reference-task runs on each side of a set-up; their median corrects its time.
SETUP_REFERENCES = 3
#: Traced seconds spent on each other workload to fill in its layers.
LAYER_SECONDS = 2.0
TMP_DIR = ".perfbench-tmp"
OUT_DIR = ".perfbench-out"
#: What one request is, per workload (for the printed request rate).
REQUEST = {
    "wire": "2000-probe batches",
    "bulk": "10k-probe batches",
    "explain": "statements",
    "churn": "read batches",
}
END_TO_END = (
    ("setup_s", "s"),
    ("probes_per_s", "probes/s"),
    ("request_p50_ms", "ms"),
    ("request_p99_ms", "ms"),
    ("qerror_p50", "ratio"),
    ("qerror_p95", "ratio"),
    ("peak_rss_mb", "MB"),
)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float, help="at least 2")
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 2:
        parser.error("--seconds must be at least 2")
    return args


def workload_class(name: str):
    return getattr(importlib.import_module(name), name.capitalize())


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no {src}/repro; run from the repository root", file=sys.stderr)
        return 2
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    (root / TMP_DIR).mkdir(exist_ok=True)
    tmpdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=root / TMP_DIR))
    try:
        return bench(args, root, tmpdir)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
        try:
            (root / TMP_DIR).rmdir()
        except OSError:
            pass  # another run still holds its own temp dir


def bench(args: argparse.Namespace, root: Path, tmpdir: Path) -> int:
    host_before = host_speed()
    acct = Accounting()
    workload = workload_class(args.workload)(args.seed, tmpdir, acct)
    reference = REFERENCES[workload.reference_task]
    setup_times = []
    setup_wall = []
    recorder = Recorder() if args.trace else None
    layers: dict[str, tuple[float, str]] = {}
    try:
        first = time.perf_counter()
        while len(setup_times) < SETUP_REPEATS or time.perf_counter() - first < SETUP_SECONDS:
            if setup_times:
                workload.teardown()
                gc.collect()
            around = [reference.seconds() for _ in range(SETUP_REFERENCES)]
            started = time.perf_counter()
            workload.setup()
            took = time.perf_counter() - started
            around += [reference.seconds() for _ in range(SETUP_REFERENCES)]
            setup_times.append(took * reference.scale(float(np.median(around))))
            setup_wall.append(took)
        workload.check_before()
        origin = time.perf_counter()
        arms, elapsed = run_window(args.seconds, workload.request, reference, recorder)
        if recorder is not None:
            layers.update(workload.layers(recorder))
        extra = workload.extra(elapsed)
    finally:
        workload.teardown()
    if recorder is not None:
        for other in WORKLOADS:
            if other != args.workload:
                layers.update(side_layers(other, args.seed, tmpdir, acct, recorder))
    qerrors = workload.qerrors()
    base = {
        "setup_s": float(np.median(setup_times)),
        "qerror_p50": float(np.percentile(qerrors, 50)),
        "qerror_p95": float(np.percentile(qerrors, tail_pct(len(qerrors), 95))),
        "peak_rss_mb": workload.peak_rss_mb(),
    }
    host_after = host_speed()

    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"host_speed_before = {host_before:.1f} loops/s")
    print(f"setups = {len(setup_times)}, from {min(setup_times):.4f} to {max(setup_times):.4f} s (host-corrected)")
    if recorder is None:
        arm = arms["untraced"]
        metrics = {**base, **window_metrics(arm)}
        show(metrics, dict(END_TO_END))
        print(
            f"reference task ({workload.reference_task}): median {np.median(arm.references) * 1e3:.4f} ms, "
            f"nominal {reference.nominal_s * 1e3:.4f} ms"
        )
        wall = {"setup_s": float(np.median(setup_wall)), **window_metrics(arm, wall=True)}
        units = dict(END_TO_END)
        print("wall clock, not host-corrected: " + ", ".join(
            f"{name} = {value:.6g} {units[name]}" for name, value in wall.items()
        ))
        print(f"requests_per_s = {len(arm.latencies) / elapsed:.2f} ({REQUEST[args.workload]} per s, n={len(arm.latencies)})")
        print(f"request_p99_ms is p{tail_pct(len(arm.latencies), 99):g} of n={len(arm.latencies)}")
        result_metrics = {name: (metrics[name], unit) for name, unit in END_TO_END}
    else:
        print("tracing overhead (untraced -> traced, interleaved 1 s slices):")
        sides = {name: window_metrics(arm) for name, arm in arms.items()}
        for name, unit in END_TO_END:
            if name not in sides["untraced"]:
                print(f"  {name}: n/a (not measured per arm)")
                continue
            before, after = sides["untraced"][name], sides["traced"][name]
            print(f"  {name}: {before:.6g} -> {after:.6g} {unit} ({100.0 * (after / before - 1.0):+.1f}%)")
        out = root / OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        count = recorder.write_jsonl(out, origin)
        print(f"spans = {count} written to {out.relative_to(root)}")
        show({k: v for k, (v, _) in layers.items()}, {k: u for k, (_, u) in layers.items()})
        result_metrics = layers
    for name, (value, unit) in extra.items():
        print(f"{name} = {value:.6g} {unit}")
    degraded = workload.degraded()
    print("degraded probes (typed, not failures): " + (
        ", ".join(f"{k}={v}" for k, v in sorted(degraded.items())) or "none"))
    for phase in acct.attempted:
        print(f"phase {phase}: attempted {acct.attempted[phase]} failed {acct.failed[phase]}")
    for failure in acct.failures:
        print(f"FAILED {failure}")
    frac = acct.total_failed / max(acct.total_attempted, 1)
    print(f"failed_frac = {frac:.6g} ({acct.total_failed}/{acct.total_attempted})")
    print(f"host_speed_after = {host_after:.1f} loops/s")

    missing = [k for k, (v, _) in result_metrics.items() if v is None or not math.isfinite(v)]
    if missing:
        print(f"perfbench: no value for {', '.join(missing)}", file=sys.stderr)
        return 1
    correct = acct.total_failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": acct.total_attempted,
                "failed": acct.total_failed,
                "metrics": {
                    name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in result_metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


def window_metrics(arm: Arm, wall: bool = False) -> dict[str, float]:
    latencies = arm.wall_latencies if wall else arm.latencies
    return {
        "probes_per_s": arm.probes_per_s(wall),
        "request_p50_ms": float(np.percentile(latencies, 50)) * 1e3,
        "request_p99_ms": float(np.percentile(latencies, tail_pct(len(latencies), 99))) * 1e3,
    }


def side_layers(name: str, seed: int, tmpdir: Path, acct: Accounting, recorder: Recorder):
    """Per-layer metrics of another workload: one set-up, a short traced loop."""
    workload = workload_class(name)(seed, tmpdir, acct)
    try:
        workload.setup()
        workload.check_before()
        run_window(
            LAYER_SECONDS, workload.request, REFERENCES[workload.reference_task], recorder, alternate=False
        )
        return workload.layers(recorder)
    finally:
        workload.teardown()


def show(values: dict[str, float], units: dict[str, str]) -> None:
    for name, value in values.items():
        print(f"{name} = {value:.6g} {units[name]}")


if __name__ == "__main__":
    # A terminated run still stops its server process and removes its files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.exit(main())
