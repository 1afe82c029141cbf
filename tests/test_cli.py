"""Tests for repro.cli."""

import pytest

from repro.cli import build_parser, main


class TestZipfCommand:
    def test_prints_ranked_frequencies(self, capsys):
        assert main(["zipf", "--total", "100", "--domain", "4", "--z", "1.0"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 4
        rank, freq = lines[0].split("\t")
        assert rank == "1"
        assert float(freq) == pytest.approx(48.0)

    def test_quantize_sums_to_total(self, capsys):
        main(["zipf", "--total", "100", "--domain", "7", "--z", "1.5", "--quantize"])
        lines = capsys.readouterr().out.strip().splitlines()
        total = sum(int(line.split("\t")[1]) for line in lines)
        assert total == 100


class TestHistogramCommand:
    def test_end_biased(self, capsys):
        assert main(["histogram", "--domain", "10", "--buckets", "3"]) == 0
        out = capsys.readouterr().out
        assert "kind=end-biased buckets=3" in out
        assert "self-join exact=" in out

    def test_serial(self, capsys):
        assert main(["histogram", "--domain", "12", "--buckets", "4", "--kind", "serial"]) == 0
        assert "kind=serial" in capsys.readouterr().out

    def test_trivial(self, capsys):
        assert main(["histogram", "--domain", "12", "--kind", "trivial"]) == 0
        assert "buckets=1" in capsys.readouterr().out


class TestAdviseCommand:
    def test_reports_minimum(self, capsys):
        code = main(
            ["advise", "--total", "1000", "--domain", "30", "--z", "1.0",
             "--tolerance", "0.05"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "minimum end-biased buckets" in out
        assert "beta=" in out


class TestSelfJoinCommand:
    def test_all_types_reported(self, capsys):
        code = main(
            ["selfjoin", "--domain", "30", "--buckets", "4", "--trials", "5"]
        )
        assert code == 0
        out = capsys.readouterr().out
        for name in ("trivial", "equi-width", "equi-depth", "end-biased", "serial"):
            assert name in out


class TestChainCommand:
    def test_reports_errors(self, capsys):
        code = main(
            ["chain", "--joins", "2", "--buckets", "3", "--permutations", "4",
             "--skew-class", "high"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "chain query: 2 joins" in out
        assert "E[|S-S'|/S]" in out


class TestTable1Command:
    def test_prints_table(self, capsys):
        code = main(
            ["table1", "--serial-sizes", "8", "10", "--end-biased-sizes", "100"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "attribute values" in out
        assert "end-biased b=10" in out


class TestArrangementsCommand:
    def test_prints_study(self, capsys):
        code = main(
            ["arrangements", "--domain", "5", "--max-arrangements", "30"]
        )
        assert code == 0
        assert "end-biased" in capsys.readouterr().out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestDescribeCommand:
    def test_profiles_distribution(self, capsys):
        assert main(["describe", "--total", "1000", "--domain", "50", "--z", "1.5"]) == 0
        out = capsys.readouterr().out
        assert "M=50" in out and "gini=" in out
        # The effective-z fit recovers the generating parameter.
        assert "z≈1.50" in out


class TestTuneCommand:
    def test_recommends_and_applies(self, capsys):
        code = main(
            ["tune", "--domain", "20", "--z-values", "0.05", "2.0",
             "--tolerance", "0.05"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "R0.a" in out and "R1.a" in out
        assert "catalog now holds 2 analyzed attributes" in out


class TestStatsCommands:
    @staticmethod
    def _write_catalog(tmp_path):
        import json

        from repro.engine.analyze import analyze_relation
        from repro.engine.catalog import StatsCatalog
        from repro.engine.persist import save_catalog
        from repro.engine.relation import Relation

        catalog = StatsCatalog()
        r = Relation.from_columns("R", {"a": [1] * 6 + [2] * 3 + [3]})
        s = Relation.from_columns("S", {"b": [1] * 4 + [2] * 2})
        analyze_relation(r, "a", catalog, kind="end-biased", buckets=2)
        analyze_relation(s, "b", catalog, kind="end-biased", buckets=2)
        path = tmp_path / "catalog.json"
        save_catalog(catalog, path)
        return path, json

    def test_check_clean_exits_zero(self, capsys, tmp_path):
        path, _ = self._write_catalog(tmp_path)
        assert main(["stats", "check", str(path)]) == 0
        out = capsys.readouterr().out
        assert "status: clean" in out

    def test_check_corrupt_exits_one(self, capsys, tmp_path):
        path, json = self._write_catalog(tmp_path)
        blob = json.loads(path.read_text())
        blob["entries"][0]["payload"]["total_tuples"] = -1.0
        path.write_text(json.dumps(blob))
        assert main(["stats", "check", str(path)]) == 1
        out = capsys.readouterr().out
        assert "quarantined" in out

    def test_check_reports_journal_replay(self, capsys, tmp_path):
        from repro.engine.journal import MaintenanceJournal

        path, _ = self._write_catalog(tmp_path)
        wal = tmp_path / "wal.jsonl"
        MaintenanceJournal(wal).append_insert("R", "a", 1)
        assert main(["stats", "check", str(path), "--journal", str(wal)]) == 0
        assert "replayed" in capsys.readouterr().out

    def test_repair_writes_clean_snapshot(self, capsys, tmp_path):
        path, json = self._write_catalog(tmp_path)
        blob = json.loads(path.read_text())
        blob["entries"][0]["payload"]["total_tuples"] = -1.0
        path.write_text(json.dumps(blob))
        fixed = tmp_path / "fixed.json"
        # Corruption was found (and repaired): the distinct exit code 3
        # lets scripts tell "had to repair" apart from "was clean" and
        # from an I/O failure (4); see docs/PERSISTENCE.md.
        assert main(["stats", "repair", str(path), "--output", str(fixed)]) == 3
        out = capsys.readouterr().out
        assert "repaired snapshot written" in out
        assert "re-run ANALYZE" in out
        capsys.readouterr()
        assert main(["stats", "check", str(fixed)]) == 0

    def test_repair_in_place(self, capsys, tmp_path):
        path, json = self._write_catalog(tmp_path)
        blob = json.loads(path.read_text())
        blob["entries"][0]["payload"]["total_tuples"] = -1.0
        path.write_text(json.dumps(blob))
        assert main(["stats", "repair", str(path)]) == 3
        capsys.readouterr()
        assert main(["stats", "check", str(path)]) == 0
        capsys.readouterr()
        # A second repair over the now-clean snapshot finds nothing: exit 0.
        assert main(["stats", "repair", str(path)]) == 0

    def test_stats_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main(["stats"])


class TestAgentRunCommand:
    """``repro agent run`` loads its snapshot strictly: a journal that
    cannot replay is corruption (exit 3), whatever the journal's fault."""

    @staticmethod
    def _write_snapshot(tmp_path):
        from repro.engine.catalog import CatalogEntry, CompactEndBiased, StatsCatalog
        from repro.engine.journal import MaintenanceJournal
        from repro.engine.persist import save_catalog

        catalog = StatsCatalog()
        catalog.put(
            CatalogEntry(
                relation="R",
                attribute="a",
                kind="end-biased",
                histogram=None,
                compact=CompactEndBiased(
                    explicit={"x": 1.0}, remainder_count=0, remainder_average=0.0
                ),
                distinct_count=1,
                total_tuples=1.0,
            )
        )
        snapshot = tmp_path / "catalog.json"
        save_catalog(catalog, snapshot)
        return snapshot, MaintenanceJournal(tmp_path / "wal.jsonl")

    def _run(self, tmp_path, snapshot, journal) -> int:
        return main(
            [
                "agent", "run", str(tmp_path / "queue.jsonl"),
                "--catalog", str(snapshot),
                "--journal", str(journal.path),
                "--max-jobs", "1",
            ]
        )

    def test_impossible_delete_is_corruption(self, capsys, tmp_path):
        snapshot, journal = self._write_snapshot(tmp_path)
        journal.append_delete("R", "a", "nope")
        assert self._run(tmp_path, snapshot, journal) == 3
        err = capsys.readouterr().err
        assert "repro agent: corruption:" in err
        assert "empty implicit bucket" in err

    def test_torn_journal_is_corruption(self, capsys, tmp_path):
        snapshot, journal = self._write_snapshot(tmp_path)
        journal.append_insert("R", "a", "x")
        journal.path.write_bytes(journal.path.read_bytes()[:-5])
        assert self._run(tmp_path, snapshot, journal) == 3
        assert "repro agent: corruption:" in capsys.readouterr().err


class TestObsCommands:
    @pytest.fixture(autouse=True)
    def fresh_registry(self):
        from repro.obs import runtime

        runtime.reset()
        yield
        runtime.reset()

    def test_dump_prom_exposes_live_workload(self, capsys):
        assert main(["obs", "dump", "--format", "prom", "--probes", "50"]) == 0
        out = capsys.readouterr().out
        # Spans, serve-layer counters, accuracy samples, and recovery
        # metrics all come from one real serve+maintain+recover workload.
        assert "repro_span_total" in out
        assert 'repro_span_duration_seconds_bucket{span="serve.batch",le="+Inf"}' in out
        assert 'repro_serve_probes_total{service="obs-workload"}' in out
        assert "repro_accuracy_observations_total" in out
        assert "repro_maint_deltas_total" in out
        assert 'repro_persist_loads_total{mode="recover"}' in out
        assert "# TYPE repro_span_duration_seconds histogram" in out

    def test_dump_json_parses_and_carries_events(self, capsys):
        import json

        assert main(["obs", "dump", "--format", "json", "--probes", "50"]) == 0
        data = json.loads(capsys.readouterr().out)
        names = {metric["name"] for metric in data["metrics"]}
        assert "repro_span_duration_seconds" in names
        assert "repro_journal_appends_total" in names
        event_names = {event["name"] for event in data["events"]}
        assert "journal.checkpoint" in event_names
        assert "persist.recover" in event_names

    def test_dump_without_workload_is_quietly_empty(self, capsys):
        assert main(["obs", "dump", "--no-workload"]) == 0
        out = capsys.readouterr().out
        assert "repro_serve_probes_total" not in out

    def test_serve_stats_obs_appends_registry(self, capsys):
        code = main(
            ["serve-stats", "--total", "500", "--domain", "20",
             "--z-values", "1.0", "--probes", "20", "--obs"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "repro_serve_probes_total" in out
        assert "repro_span_duration_seconds" in out

    def test_obs_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main(["obs"])


class TestWireArtifacts:
    SMALL = ["serve-stats", "--total", "500", "--domain", "20",
             "--z-values", "1.0", "--probes", "25"]

    def test_emit_and_replay_round_trip(self, capsys, tmp_path):
        """--emit-wire then --probes-from answers the identical batch."""
        artifact = tmp_path / "batch.json"
        assert main(self.SMALL + ["--emit-wire", str(artifact)]) == 0
        first = capsys.readouterr().out
        assert f"wrote wire batch artifact to {artifact}" in first
        assert main(self.SMALL + ["--probes-from", str(artifact)]) == 0
        second = capsys.readouterr().out
        assert f"replaying 25 probes from {artifact}" in second

        def mass(out):
            line = next(l for l in out.splitlines() if "estimate mass" in l)
            return line.rsplit("estimate mass", 1)[1].strip()

        assert mass(first) == mass(second)

    def test_emit_wire_to_stdout(self, capsys):
        import json

        assert main(self.SMALL + ["--emit-wire", "-"]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out[: out.rindex("}") + 1])
        assert payload["op"] == "batch"
        assert len(payload["probes"]) == 25

    def test_replay_raw_probe_array(self, capsys, tmp_path):
        import json

        from repro.net import probes_to_wire
        from repro.serve import EqualityProbe

        artifact = tmp_path / "raw.json"
        artifact.write_text(json.dumps(probes_to_wire([EqualityProbe("R0", "a", 1)])))
        assert main(self.SMALL + ["--probes-from", str(artifact)]) == 0
        assert "answered 1 probes" in capsys.readouterr().out


    @pytest.mark.parametrize(
        "text",
        [
            '{"v": 2, "op": "batch", "probes": []}',  # a retired schema version
            '{"v": 3, "op": "batch", "probes": [{"kind": "mystery"}]}',
            '{"v": 3, "op": "batch", "probes": [',  # truncated JSON
        ],
    )
    def test_unreplayable_artifact_exits_2(self, capsys, tmp_path, text):
        artifact = tmp_path / "batch.json"
        artifact.write_text(text)
        assert main(self.SMALL + ["--probes-from", str(artifact)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"repro serve-stats: cannot replay {artifact}: ")
        assert captured.err.count("\n") == 1

    def test_missing_artifact_exits_4(self, capsys, tmp_path):
        assert main(self.SMALL + ["--probes-from", str(tmp_path / "absent.json")]) == 4
        assert capsys.readouterr().err.startswith("repro serve-stats: I/O error: ")


class TestServeCommand:
    def test_serves_and_answers_over_loopback(self, capsys):
        import threading

        from repro.net import EstimationClient
        from repro.serve import EqualityProbe

        answered = {}

        def drive(host, port):
            with EstimationClient(host, port) as client:
                answered["out"] = client.estimate_batch(
                    [EqualityProbe("R0", "a", 1)]
                )

        # The server prints its bound address before sleeping for
        # --duration; run it on a thread and probe it from here.
        def run_server():
            main(["serve", "--total", "500", "--domain", "20",
                  "--z-values", "1.0", "--duration", "3", "--port", "0"])

        server_thread = threading.Thread(target=run_server, daemon=True)
        # capsys can't observe the other thread reliably; read the bound
        # port from the redirected stdout of main itself.
        server_thread.start()
        import re
        import time

        address = None
        for _ in range(100):
            out = capsys.readouterr().out
            match = re.search(r"serving \d+ analyzed columns on ([\d.]+):(\d+)", out)
            if match:
                address = (match.group(1), int(match.group(2)))
                break
            time.sleep(0.05)
        assert address is not None, "server never printed its address"
        drive(*address)
        assert answered["out"].shape == (1,)
        server_thread.join(timeout=10)

    def test_bad_tenant_spec_is_an_argument_error(self, capsys):
        code = main(["serve", "--tenant", "no-token-here", "--duration", "0.1"])
        assert code == 2
        assert "NAME=TOKEN" in capsys.readouterr().err
