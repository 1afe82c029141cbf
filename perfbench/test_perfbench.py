"""Tests of the benchmark itself: its checks catch wrong answers.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from harness import REFERENCES, Recorder, Reference, qerror, run_window, tail_pct  # noqa: E402


def _result(out: str) -> dict:
    return json.loads(out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_clean_run_reports_every_metric(workload, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "2", "--trace", "0"])
    result = _result(capsys.readouterr().out)
    assert code == 0
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {name for name, _ in run.END_TO_END}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_benchmark_json_matches_the_command():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)


def test_traced_run_reports_every_per_layer_metric(monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    code = run.main(["--workload", "churn", "--seed", "3", "--seconds", "2", "--trace", "1"])
    out = capsys.readouterr().out
    result = _result(out)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert code == 0 and result["correct"] is True
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec["per_layer"]
    }
    assert "tracing overhead" in out


def test_wrong_answer_is_counted_and_fails_the_command(monkeypatch, capsys):
    """One corrupted probe answer in the window makes the run exit 1."""
    from bulk import Bulk

    from repro.serve import EstimationService

    original_check = Bulk.check_before
    original_batch = EstimationService.estimate_batch

    def corrupted(self, probes, **kwargs):
        out = original_batch(self, probes, **kwargs)
        out[0] += 1.0
        return out

    def check_then_corrupt(self):
        original_check(self)
        monkeypatch.setattr(EstimationService, "estimate_batch", corrupted)

    monkeypatch.setattr(Bulk, "check_before", check_then_corrupt)
    monkeypatch.chdir(ROOT)
    code = run.main(["--workload", "bulk", "--seed", "3", "--seconds", "2", "--trace", "0"])
    out = capsys.readouterr().out
    result = _result(out)
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] >= 1 and result["failed"] <= result["attempted"]
    assert "FAILED window: batch" in out


def test_churn_window_does_not_depend_on_the_number_of_setups(tmp_path):
    """The scored rounds see the same delta stream after one set-up or three."""
    from churn import Churn
    from harness import Accounting

    def scored(setups: int) -> list[float]:
        workload = Churn(3, tmp_path, Accounting())
        for _ in range(setups):
            workload.teardown()
            workload.setup()
        for _ in range(40):
            workload.request(None)
        workload.teardown()
        assert workload.service is None and workload.maintained == []
        return workload.qerrors()

    assert scored(1) == scored(3)


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only the benchmark, exit non-zero, print no result."""
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bulk", "--seed", "1",
         "--seconds", "2", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tail_pct(1000, 99) == 99
    assert tail_pct(500, 99) == 98
    assert tail_pct(5, 99) == 50


def test_qerror_floors_both_sides_at_one():
    assert qerror(0.0, 0.0) == 1.0
    assert qerror(10.0, 0.2) == 10.0
    assert qerror(2.0, 8.0) == 4.0


def test_self_time_subtracts_children():
    rec = Recorder()
    with rec.span("outer", rec.new_request()):
        with rec.span("inner"):
            sum(range(20000))
    times = rec.self_times()
    (outer,) = [s for s in rec.spans if s[2] == "outer"]
    (inner,) = [s for s in rec.spans if s[2] == "inner"]
    assert inner[1] == outer[0] and inner[5] == outer[5]
    assert np.isclose(times["outer"][0], (outer[4] - outer[3]) - (inner[4] - inner[3]))


def test_window_corrects_each_request_by_the_reference_beside_it():
    """A request timed while the reference task ran at twice its nominal time counts half."""

    class Slow(Reference):
        def seconds(self) -> float:
            return 2 * self.nominal_s

    arms, _ = run_window(0.02, lambda rec: (0.010, 100), Slow(lambda: None, 1e-3))
    arm = arms["untraced"]
    assert arm.latencies and set(arm.wall_latencies) == {0.010}
    assert np.allclose(arm.latencies, 0.005)
    assert set(arm.references) == {2e-3}


def test_reference_tasks_hold_off_the_collector_and_restore_it():
    import gc

    for reference in REFERENCES.values():
        assert 0 < reference.seconds() < 1.0
        assert gc.isenabled()
