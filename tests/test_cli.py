"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.obs import read_manifest
from repro.sched import validate_scheduling_report


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_commands_parse(self):
        parser = build_parser()
        for argv in (
            ["list"],
            ["characterize", "--cluster", "vortex", "--days", "2"],
            ["monitor", "--cluster", "longhorn", "--window", "3"],
            ["screen", "--workloads", "sgemm"],
            ["sweep", "--limits", "300,200"],
            ["project", "--target-n", "1000"],
            ["sched", "--policy", "variability-aware", "--jobs", "50"],
        ):
            args = parser.parse_args(argv)
            assert args.command == argv[0]

    def test_sched_rejects_unknown_policy(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sched", "--policy", "nonexistent"])

    @pytest.mark.parametrize(
        "command",
        ["list", "characterize", "monitor", "screen", "sweep", "project",
         "sched"],
    )
    def test_execution_args_accepted_uniformly(self, command):
        argv = [command, "--seed", "7", "--workers", "2",
                "--trace", "t.json", "--manifest", "m.json",
                "--timeline", "tl.jsonl"]
        if command == "project":
            argv += ["--target-n", "1000"]
        args = build_parser().parse_args(argv)
        assert args.seed == 7
        assert args.workers == 2
        assert args.trace == "t.json"
        assert args.manifest == "m.json"
        assert args.timeline == "tl.jsonl"

    def test_bad_solver_rejected(self):
        # There is one DVFS solver, so --solver no longer exists: argparse
        # rejects it whatever the value.
        for value in ("quantum", "fleet"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(
                    ["characterize", "--solver", value])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "Longhorn" in out
        assert "pagerank" in out

    def test_characterize_small(self, capsys, tmp_path):
        csv = tmp_path / "data.csv.gz"
        code = main([
            "characterize", "--cluster", "vortex", "--scale", "0.34",
            "--days", "2", "--csv", str(csv),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Variability report: Vortex" in out
        assert csv.exists()

    def test_monitor_small(self, capsys, tmp_path):
        report = tmp_path / "health.json"
        events = tmp_path / "events.jsonl"
        metrics = tmp_path / "metrics.prom"
        code = main([
            "monitor", "--cluster", "longhorn", "--scale", "0.25",
            "--seed", "2022", "--days", "2", "--runs-per-day", "2",
            "--report", str(report), "--events", str(events),
            "--metrics", str(metrics),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "fleet health: Longhorn" in out
        assert "ok=" in out
        from repro.obs.health import validate_health_report

        validate_health_report(json.loads(report.read_text()))
        assert "# TYPE repro_gpu_perf_deviation gauge" in metrics.read_text()
        for line in events.read_text().splitlines():
            assert "gpu_label" in json.loads(line)

    def test_monitor_csv_identical_to_characterize(self, capsys, tmp_path):
        shared = ["--cluster", "cloudlab", "--seed", "4", "--days", "2",
                  "--runs-per-day", "2"]
        monitored = tmp_path / "monitored.csv"
        plain = tmp_path / "plain.csv"
        assert main(["monitor", *shared, "--csv", str(monitored)]) == 0
        assert main(["characterize", *shared, "--csv", str(plain)]) == 0
        capsys.readouterr()
        assert monitored.read_bytes() == plain.read_bytes()

    def test_screen_small(self, capsys):
        code = main([
            "screen", "--cluster", "longhorn", "--scale", "0.25",
            "--days", "2", "--workloads", "sgemm,lammps",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "confirmed outliers" in out

    def test_sweep(self, capsys):
        code = main([
            "sweep", "--limits", "300,150", "--runs", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "300 W" in out
        assert "150 W" in out

    def test_sweep_without_admin_fails_cleanly(self, capsys):
        code = main([
            "sweep", "--cluster", "longhorn", "--scale", "0.25",
            "--limits", "200", "--runs", "1",
        ])
        assert code == 2
        assert "administrative" in capsys.readouterr().err

    def test_project(self, capsys):
        code = main([
            "project", "--cluster", "vortex", "--scale", "0.34",
            "--days", "2", "--target-n", "27648",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "projected at 27648" in out

    def test_sched_small(self, capsys, tmp_path):
        report = tmp_path / "sched.json"
        events = tmp_path / "events.jsonl"
        code = main([
            "sched", "--cluster", "longhorn", "--scale", "0.2", "--seed", "3",
            "--jobs", "10", "--policy", "fifo", "--trace-seed", "5",
            "--report", str(report), "--events", str(events),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "scheduling report" in out
        assert "slow-assignment rate" in out
        validate_scheduling_report(json.loads(report.read_text()))
        # every job submits, starts, and finishes exactly once
        lines = [json.loads(line)
                 for line in events.read_text().splitlines()]
        assert len(lines) == 3 * 10

    def test_unknown_cluster_fails_cleanly(self, capsys):
        code = main(["characterize", "--cluster", "nonexistent", "--days", "1"])
        assert code == 2
        assert "unknown cluster" in capsys.readouterr().err


class TestObservabilityFlags:
    def test_characterize_writes_trace_and_manifest(self, capsys, tmp_path):
        trace = tmp_path / "trace.json"
        manifest = tmp_path / "manifest.json"
        code = main([
            "characterize", "--cluster", "cloudlab", "--scale", "0.5",
            "--days", "1", "--trace", str(trace),
            "--manifest", str(manifest),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert f"trace written to {trace}" in out
        assert f"manifest written to {manifest}" in out
        doc = json.loads(trace.read_text())
        assert any(e.get("name") == "campaign" and e.get("ph") == "X"
                   for e in doc["traceEvents"])
        audited = read_manifest(manifest)
        assert len(audited["campaigns"]) == 1
        assert audited["campaigns"][0]["cluster"]["name"] == "CloudLab"

    def test_jsonl_suffix_selects_events_format(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        assert main([
            "characterize", "--cluster", "cloudlab", "--scale", "0.5",
            "--days", "1", "--trace", str(trace),
        ]) == 0
        lines = [json.loads(line)
                 for line in trace.read_text().splitlines()]
        assert any(x["event"] == "span" for x in lines)
        assert any(x["event"] == "counter" for x in lines)

    def test_sweep_manifest_has_one_entry_per_limit(self, tmp_path):
        manifest = tmp_path / "m.json"
        assert main([
            "sweep", "--limits", "250,150", "--runs", "1",
            "--manifest", str(manifest),
        ]) == 0
        doc = read_manifest(manifest)
        assert [c["config"]["power_limit_w"] for c in doc["campaigns"]] \
            == [250.0, 150.0]

    def test_traced_output_identical_to_untraced(self, capsys, tmp_path):
        argv = ["sweep", "--limits", "250", "--runs", "2",
                "--scale", "0.5", "--seed", "4"]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        assert main(argv + ["--trace", str(tmp_path / "t.json")]) == 0
        traced = capsys.readouterr().out
        assert traced.startswith(plain)
        assert "trace written" in traced

    def test_solver_env_var_ignored_and_untouched(self, capsys,
                                                  monkeypatch):
        # The retired REPRO_DVFS_SOLVER variable changes nothing, and the
        # CLI neither reads nor writes the environment for it.
        import os
        argv = ["characterize", "--cluster", "cloudlab", "--scale", "0.5",
                "--days", "2", "--runs", "2"]
        monkeypatch.delenv("REPRO_DVFS_SOLVER", raising=False)
        assert main(argv) == 0
        plain = capsys.readouterr().out
        assert "REPRO_DVFS_SOLVER" not in os.environ
        monkeypatch.setenv("REPRO_DVFS_SOLVER", "grid")
        assert main(argv) == 0
        assert capsys.readouterr().out == plain
        assert os.environ["REPRO_DVFS_SOLVER"] == "grid"


class TestServiceCli:
    def test_serve_parses_with_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.command == "serve"
        assert args.host == "127.0.0.1"
        assert args.port == 8642
        assert args.backend == "thread"

    def test_serve_accepts_tuning_flags(self):
        args = build_parser().parse_args([
            "serve", "--host", "0.0.0.0", "--port", "0", "--workers", "4",
            "--max-pending", "16", "--cache-entries", "32",
            "--backend", "process",
        ])
        assert args.port == 0
        assert args.workers == 4
        assert args.max_pending == 16
        assert args.cache_entries == 32
        assert args.backend == "process"

    def test_loadgen_parses_with_defaults(self):
        args = build_parser().parse_args(["loadgen", "--self-host"])
        assert args.command == "loadgen"
        assert args.self_host is True
        assert args.mode == "closed"
        assert args.duplicate_fraction == 0.75

    def test_loadgen_rejects_bad_mode(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["loadgen", "--self-host", "--mode", "sideways"])

    def test_loadgen_requires_exactly_one_target(self, capsys):
        assert main(["loadgen"]) == 2
        assert "exactly one" in capsys.readouterr().err
        assert main([
            "loadgen", "--url", "http://127.0.0.1:1", "--self-host",
        ]) == 2

    def test_loadgen_self_host_smoke(self, capsys, tmp_path):
        report_path = tmp_path / "latency.json"
        code = main([
            "loadgen", "--self-host", "--requests", "6",
            "--concurrency", "3", "--duplicate-fraction", "1.0",
            "--cluster", "cloudlab", "--scale", "0.5", "--days", "1",
            "--report", str(report_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "6/6 ok" in out
        assert "coalescing: 1 campaign(s) served 6 requests" in out
        assert f"latency report written to {report_path}" in out
        report = json.loads(report_path.read_text())
        from repro.loadgen import validate_latency_report
        validate_latency_report(report)
        assert report["server"]["service_campaigns_executed"] == 1


class TestReplayCli:
    """`--timeline` recording plus the `repro replay` forensics command."""

    MONITOR_ARGS = ["monitor", "--cluster", "cloudlab", "--scale", "0.5",
                    "--seed", "4", "--days", "2", "--runs-per-day", "2"]

    def _record(self, tmp_path, name="t.jsonl", extra=()):
        path = tmp_path / name
        assert main([*self.MONITOR_ARGS, *extra,
                     "--timeline", str(path)]) == 0
        return path

    def test_timeline_flag_writes_byte_stable_file(self, capsys, tmp_path):
        one = self._record(tmp_path, "w1.jsonl")
        two = self._record(tmp_path, "w2.jsonl", extra=["--workers", "2"])
        out = capsys.readouterr().out
        assert "timeline written to" in out
        assert one.read_bytes() == two.read_bytes()

    def test_replay_summarize(self, capsys, tmp_path):
        path = self._record(tmp_path)
        capsys.readouterr()
        assert main(["replay", str(path)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["n_events"] > 0
        assert set(summary["layers"]) <= {"campaign", "sim", "health"}
        assert summary["campaign"]["runs_observed"] > 0

    def test_replay_at_and_grep(self, capsys, tmp_path):
        path = self._record(tmp_path)
        capsys.readouterr()
        assert main(["replay", str(path), "--at", "0"]) == 0
        state = json.loads(capsys.readouterr().out)
        assert state["seq"] == 0
        assert main(["replay", str(path), "--grep", "campaign"]) == 0
        captured = capsys.readouterr()
        for line in captured.out.splitlines():
            event = json.loads(line)
            assert "campaign" in (event["entity"] + event["kind"])
        assert "events matched" in captured.err

    def test_replay_check_verifies_digests_from_log_alone(self, capsys,
                                                          tmp_path):
        path = self._record(tmp_path)
        sched_path = tmp_path / "sched.jsonl"
        assert main(["sched", "--cluster", "cloudlab", "--scale", "0.5",
                     "--jobs", "20", "--timeline", str(sched_path)]) == 0
        capsys.readouterr()
        assert main(["replay", str(path), "--check"]) == 0
        out = capsys.readouterr().out
        assert "[ok]" in out and "FAIL" not in out
        assert "health_report" in out
        assert main(["replay", str(sched_path), "--check"]) == 0
        out = capsys.readouterr().out
        assert "sched_report" in out and "report digest" in out

    def test_replay_check_fails_on_tampered_log(self, capsys, tmp_path):
        path = self._record(tmp_path)
        lines = path.read_text().splitlines()
        # drop one sim run event and renumber so the file still parses
        kept = [lines[0]] + [
            line for line in lines[1:]
            if json.loads(line).get("kind") != "run"
        ]
        renumbered = [kept[0]]
        for seq, line in enumerate(kept[1:]):
            doc = json.loads(line)
            doc["seq"] = seq
            renumbered.append(json.dumps(doc, sort_keys=True,
                                         separators=(",", ":")))
        path.write_text("\n".join(renumbered) + "\n")
        capsys.readouterr()
        assert main(["replay", str(path), "--check"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_replay_missing_file_fails_cleanly(self, capsys, tmp_path):
        assert main(["replay", str(tmp_path / "nope.jsonl")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_replay_malformed_file_fails_cleanly(self, capsys, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        assert main(["replay", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_serve_parser_accepts_timeline(self):
        args = build_parser().parse_args(
            ["serve", "--port", "0", "--timeline", "svc.jsonl"])
        assert args.timeline == "svc.jsonl"
