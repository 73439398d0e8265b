"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main


class TestList:
    def test_lists_everything(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "workload7" in out
        assert "distributed-dvfs-sensor" in out
        assert "gzip" in out
        assert "<- baseline" in out


class TestRun:
    def test_run_policy(self, capsys):
        rc = main(
            ["run", "-w", "workload7", "-p", "distributed-dvfs-none",
             "-d", "0.01"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "BIPS" in out
        assert "workload7" in out

    def test_run_unthrottled(self, capsys):
        assert main(["run", "-w", "workload1", "-p", "none", "-d", "0.005"]) == 0
        assert "unthrottled" in capsys.readouterr().out

    def test_run_with_seed(self, capsys):
        main(["run", "-d", "0.005", "--seed", "7"])
        first = capsys.readouterr().out
        main(["run", "-d", "0.005", "--seed", "7"])
        second = capsys.readouterr().out
        assert first == second

    def test_unknown_workload_raises(self):
        with pytest.raises(KeyError):
            main(["run", "-w", "workload99", "-d", "0.005"])

    def test_unknown_policy_raises(self):
        with pytest.raises(KeyError):
            main(["run", "-p", "overclock", "-d", "0.005"])

    @pytest.mark.parametrize("period", ["inf", "nan", "0", "-0.001"])
    def test_bad_sample_period_is_a_usage_error(self, period, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--no-cache", "run", "-d", "0.005", "--sample-period", period])
        assert excinfo.value.code == 2
        assert "--sample-period must be finite and positive" in (
            capsys.readouterr().err
        )


class TestCompare:
    def test_compare_and_save(self, capsys, tmp_path):
        out_file = tmp_path / "cmp.json"
        rc = main(
            ["compare", "-w", "workload1", "-d", "0.005", "-o", str(out_file)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "All 12 policies" in out
        assert "vs baseline" in out
        payload = json.loads(out_file.read_text())
        assert len(payload["results"]) == 12


class TestTrace:
    def test_trace_generation(self, capsys, tmp_path):
        out_file = tmp_path / "mcf_trace"
        rc = main(["trace", "mcf", "-o", str(out_file), "-d", "0.005"])
        assert rc == 0
        assert (tmp_path / "mcf_trace.npz").exists()
        assert "samples" in capsys.readouterr().out

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(SystemExit):
            main(["trace", "doom", "-o", "/tmp/x"])


class TestExperiment:
    def test_experiment_with_duration(self, capsys):
        rc = main(["experiment", "table5", "-d", "0.01"])
        assert rc == 0
        assert "Table 5" in capsys.readouterr().out

    @pytest.mark.parametrize("name", ["ablations", "extensions"])
    def test_multi_study_experiment_honours_the_duration(self, name, capsys):
        import importlib

        from repro.experiments.common import default_config

        assert main(["experiment", name, "-d", "0.01"]) == 0
        out = capsys.readouterr().out
        module = importlib.import_module(f"repro.experiments.{name}")
        config = default_config(duration_s=0.01)
        assert out == module.render(module.compute(config)) + "\n"

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "table99"])


class TestObservability:
    def test_events_out_counts_match_result(self, capsys, tmp_path):
        """The acceptance path: an events-enabled run writes parseable
        JSONL whose per-type counts equal the RunResult counters."""
        from repro.obs.events import read_jsonl
        from repro.sim.engine import SimulationConfig, run_workload
        from repro.sim.workloads import get_workload
        from repro.core.taxonomy import spec_by_key

        events_file = tmp_path / "e.jsonl"
        rc = main(
            ["--no-cache", "run", "-p", "dvfs-dist-none", "-d", "0.02",
             "--events-out", str(events_file), "--profile"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "events:" in out
        assert "engine sections:" in out

        records = read_jsonl(events_file)
        assert records, "event log must not be empty"
        counts = {}
        for record in records:
            assert {"t", "type", "core"} <= set(record)
            counts[record["type"]] = counts.get(record["type"], 0) + 1
        reference = run_workload(
            get_workload("workload7"),
            spec_by_key("distributed-dvfs-none"),
            SimulationConfig(duration_s=0.02),
        )
        assert counts.get("dvfs-transition", 0) == reference.dvfs_transitions
        assert counts.get("migration", 0) == reference.migrations
        assert counts.get("stopgo-trip", 0) == reference.stopgo_trips
        assert counts.get("prochot-trip", 0) == reference.prochot_events

    def test_policy_key_alias_accepted(self, capsys):
        rc = main(["--no-cache", "run", "-p", "dist-dvfs-none", "-d", "0.005"])
        assert rc == 0
        assert "Dist. DVFS" in capsys.readouterr().out

    def test_profile_subcommand(self, capsys):
        rc = main(
            ["profile", "-w", "workload1", "-d", "0.005",
             "-p", "none", "global-stop-go-none"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "unthrottled:" in out
        assert "global-stop-go-none:" in out
        assert "thermal-step" in out

    def test_profile_output_canonical_golden(self, capsys):
        """Golden shape of the profile table: canonical ENGINE_SECTIONS
        order, every section present (os-tick even when it never fired),
        and a percent-of-total on every section row."""
        from repro.obs.profiler import ENGINE_SECTIONS

        rc = main(["profile", "-w", "workload1", "-d", "0.005", "-p", "none"])
        assert rc == 0
        out = capsys.readouterr().out
        lines = [line for line in out.splitlines() if line.startswith("  ")]
        section_lines = lines[: len(ENGINE_SECTIONS)]
        assert [line.split()[0] for line in section_lines] == list(
            ENGINE_SECTIONS
        )
        for line in section_lines:
            assert line.rstrip().endswith("%")
            assert " ms " in line
        # 0.005 s never reaches the 10 ms OS tick: the row still renders.
        os_tick = next(line for line in section_lines if "os-tick" in line)
        assert "0.00 ms" in os_tick
        assert lines[len(ENGINE_SECTIONS)].split()[0] == "total"

    def test_run_profile_table_matches_profile_subcommand_shape(self, capsys):
        from repro.obs.profiler import ENGINE_SECTIONS

        rc = main(
            ["--no-cache", "run", "-w", "workload1", "-p", "none",
             "-d", "0.005", "--profile"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        start = out.index("engine sections:")
        lines = [
            line for line in out[start:].splitlines() if line.startswith("  ")
        ]
        assert [line.split()[0] for line in lines[: len(ENGINE_SECTIONS)]] == (
            list(ENGINE_SECTIONS)
        )

    def test_log_level_flag(self, capsys):
        rc = main(
            ["--no-cache", "--log-level", "debug", "run", "-d", "0.005"]
        )
        assert rc == 0
        err = capsys.readouterr().err
        assert "repro.sim.engine" in err
        assert "run start" in err

    def test_default_log_level_is_quiet(self, capsys):
        rc = main(["--no-cache", "run", "-d", "0.005"])
        assert rc == 0
        assert "repro.sim.engine" not in capsys.readouterr().err


class TestTelemetryAndReport:
    def _write_bundle(self, tmp_path, name="run", extra=()):
        prefix = str(tmp_path / name)
        rc = main(
            ["--no-cache", "run", "-w", "workload1",
             "-p", "distributed-dvfs-none", "-d", "0.02",
             "--sample-period", "1e-3", "--telemetry-out", prefix,
             "--events-out", str(tmp_path / f"{name}.raw-events.jsonl"),
             *extra]
        )
        assert rc == 0
        return prefix

    def test_run_telemetry_out_writes_bundle(self, capsys, tmp_path):
        import os

        prefix = self._write_bundle(tmp_path)
        out = capsys.readouterr().out
        assert "telemetry: 21 samples" in out
        assert "telemetry bundle" in out
        for suffix in (".result.json", ".telemetry.jsonl", ".prom",
                       ".events.jsonl"):
            assert os.path.exists(prefix + suffix), suffix

    def test_report_ascii(self, capsys, tmp_path):
        prefix = self._write_bundle(tmp_path)
        capsys.readouterr()
        assert main(["report", prefix]) == 0
        out = capsys.readouterr().out
        assert "run dashboard" in out
        assert "T0 (C)" in out
        assert "f0" in out

    def test_report_html(self, capsys, tmp_path):
        import xml.etree.ElementTree as ET

        prefix = self._write_bundle(tmp_path)
        html_file = tmp_path / "dash.html"
        assert main(["report", prefix, "--html", str(html_file)]) == 0
        root = ET.parse(html_file).getroot()
        ns = {"svg": "http://www.w3.org/2000/svg"}
        assert len(root.findall(".//svg:svg", ns)) >= 8

    def test_report_diff_flags_faulted_run(self, capsys, tmp_path):
        spec = tmp_path / "fault.json"
        spec.write_text(
            '{"faults": [{"kind": "stuck-at", "core": 0, "value_c": 60.0}]}'
        )
        prefix_a = self._write_bundle(tmp_path, "a")
        prefix_b = self._write_bundle(
            tmp_path, "b", extra=["--fault-spec", str(spec)]
        )
        capsys.readouterr()
        assert main(["report", "--diff", prefix_a, prefix_b]) == 0
        out = capsys.readouterr().out
        assert "run diff" in out
        assert "<<" in out
        assert "metric(s) differ" in out

    def test_report_diff_identical_runs_clean(self, capsys, tmp_path):
        prefix_a = self._write_bundle(tmp_path, "a")
        prefix_b = self._write_bundle(tmp_path, "b")
        capsys.readouterr()
        assert main(["report", "--diff", prefix_a, prefix_b]) == 0
        assert "no metric deviations" in capsys.readouterr().out

    def test_report_without_prefix_errors(self, capsys):
        assert main(["report"]) == 2
        assert "bundle prefix" in capsys.readouterr().err

    def test_trace_out_requires_profile(self, capsys, tmp_path):
        rc = main(
            ["--no-cache", "run", "-d", "0.005",
             "--trace-out", str(tmp_path / "t.json")]
        )
        assert rc == 2
        assert "--profile" in capsys.readouterr().err

    def test_run_trace_out_writes_perfetto_loadable_json(self, tmp_path):
        import json as json_mod

        trace_file = tmp_path / "engine.trace.json"
        rc = main(
            ["--no-cache", "run", "-w", "workload1", "-p", "none",
             "-d", "0.005", "--profile", "--trace-out", str(trace_file)]
        )
        assert rc == 0
        payload = json_mod.loads(trace_file.read_text())
        assert payload["traceEvents"]
        assert {e["ph"] for e in payload["traceEvents"]} <= {"X", "M"}

    def test_run_trace_out_sections_nest_inside_run_span(self, tmp_path):
        import json as json_mod

        from repro.obs import ENGINE_SECTIONS

        trace_file = tmp_path / "engine.trace.json"
        rc = main(
            ["--no-cache", "run", "-w", "workload1", "-p", "dvfs-dist-none",
             "-d", "0.02", "--profile", "--trace-out", str(trace_file)]
        )
        assert rc == 0
        events = json_mod.loads(trace_file.read_text())["traceEvents"]
        spans = [e for e in events if e["ph"] == "X"]
        (run,) = [e for e in spans if e["cat"] != "section"]
        sections = [e for e in spans if e["cat"] == "section"]
        assert [e["name"] for e in sections] == list(ENGINE_SECTIONS)
        for s in sections:
            assert s["args"]["parent_id"] == run["args"]["span_id"]
            assert s["ts"] >= run["ts"]
            assert s["ts"] + s["dur"] <= run["ts"] + run["dur"]

    def test_compare_trace_out(self, tmp_path):
        import json as json_mod

        trace_file = tmp_path / "runner.trace.json"
        rc = main(
            ["--no-cache", "compare", "-w", "workload1", "-d", "0.005",
             "--trace-out", str(trace_file)]
        )
        assert rc == 0
        payload = json_mod.loads(trace_file.read_text())
        points = [e for e in payload["traceEvents"] if e.get("cat") == "point"]
        assert len(points) == 12  # one per simulated policy point

    def test_compare_trace_out_fleet(self, tmp_path):
        import json as json_mod

        trace_file = tmp_path / "runner.trace.json"
        rc = main(
            ["--no-cache", "--backend", "fleet", "compare", "-w", "workload1",
             "-d", "0.005", "--trace-out", str(trace_file)]
        )
        assert rc == 0
        events = json_mod.loads(trace_file.read_text())["traceEvents"]
        cats = [e.get("cat") for e in events]
        assert cats.count("fleet-group") == 1
        assert cats.count("point") == 12
