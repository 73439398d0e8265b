"""Integration tests for run observability (events + profiler).

Two properties matter:

* **fidelity** — per-type event counts agree with the scalar counters
  the engine has always reported on :class:`RunResult`;
* **non-perturbation** — a run with observability attached produces a
  result bit-identical to the same run without it (capture reads state,
  never feeds back).
"""

from dataclasses import fields, replace

from repro.core.taxonomy import spec_by_key
from repro.obs import ENGINE_SECTIONS, RunEventLog, SpanRecorder, StepProfiler
from repro.obs.tracing import KIND_POINT, KIND_SECTION
from repro.sim.engine import (
    SimulationConfig,
    ThermalTimingSimulator,
    run_workload,
)
from repro.sim.runner import ParallelRunner, RunPoint
from repro.sim.workloads import get_workload

W7 = get_workload("workload7")
W3 = get_workload("workload3")
CFG = SimulationConfig(duration_s=0.05)


def scalar_fields(result) -> dict:
    """Every RunResult field except the observability attachments."""
    return {
        f.name: getattr(result, f.name)
        for f in fields(result)
        if f.name not in ("series", "events")
    }


class TestEventCountInvariants:
    def test_dvfs_transitions_match(self):
        log = RunEventLog()
        result = run_workload(
            W7, spec_by_key("distributed-dvfs-none"), CFG, event_log=log
        )
        assert result.dvfs_transitions > 0
        assert log.count("dvfs-transition") == result.dvfs_transitions

    def test_stopgo_trips_and_migrations_match(self):
        log = RunEventLog()
        result = run_workload(
            W7, spec_by_key("distributed-stop-go-counter"), CFG, event_log=log
        )
        assert result.stopgo_trips > 0
        assert result.migrations > 0
        assert log.count("stopgo-trip") == result.stopgo_trips
        assert log.count("migration") == result.migrations
        # Every executed move belongs to a decision emitted beforehand.
        assert log.count("migration-decision") >= 1

    def test_prochot_trips_match(self):
        log = RunEventLog()
        cfg = replace(CFG, sensor_offset_c=-3.0, hardware_trip=True)
        result = run_workload(
            W3, spec_by_key("distributed-dvfs-none"), cfg, event_log=log
        )
        assert result.prochot_events > 0
        assert log.count("prochot-trip") == result.prochot_events

    def test_emergency_events_bracket_emergency_time(self):
        log = RunEventLog()
        cfg = replace(CFG, sensor_offset_c=-3.0)
        result = run_workload(
            W3, spec_by_key("distributed-dvfs-none"), cfg, event_log=log
        )
        assert result.emergency_s > 0
        assert log.count("emergency-enter") >= 1
        # Enters and exits alternate, starting with an enter.
        assert log.count("emergency-enter") - log.count("emergency-exit") in (0, 1)

    def test_os_tick_cadence(self):
        log = RunEventLog()
        run_workload(W7, spec_by_key("distributed-dvfs-none"), CFG, event_log=log)
        ticks = log.count("os-tick")
        assert 1 <= ticks <= CFG.duration_s / CFG.migration_period_s + 1

    def test_summary_attached_to_result(self):
        log = RunEventLog()
        result = run_workload(
            W7, spec_by_key("distributed-dvfs-none"), CFG, event_log=log
        )
        assert result.events is not None
        assert result.events.total == len(log)
        assert result.events.counts == log.counts()

    def test_events_chronologically_ordered(self):
        log = RunEventLog()
        run_workload(
            W7, spec_by_key("distributed-stop-go-counter"), CFG, event_log=log
        )
        times = [e.time_s for e in log]
        assert times == sorted(times)


class TestNonPerturbation:
    def test_instrumented_run_bit_identical(self):
        spec = spec_by_key("distributed-dvfs-sensor")
        plain = run_workload(W7, spec, CFG)
        instrumented = run_workload(
            W7, spec, CFG, event_log=RunEventLog(), profiler=StepProfiler()
        )
        assert scalar_fields(plain) == scalar_fields(instrumented)
        assert plain.events is None
        assert instrumented.events is not None

    def test_stopgo_instrumented_run_bit_identical(self):
        spec = spec_by_key("global-stop-go-none")
        plain = run_workload(W7, spec, CFG)
        instrumented = run_workload(W7, spec, CFG, event_log=RunEventLog())
        assert scalar_fields(plain) == scalar_fields(instrumented)


class TestProfiler:
    def test_engine_sections_reported(self):
        prof = StepProfiler()
        run_workload(W7, spec_by_key("distributed-dvfs-sensor"), CFG, profiler=prof)
        totals = prof.totals()
        assert set(totals) == set(ENGINE_SECTIONS)
        assert all(elapsed > 0 for elapsed in totals.values())

    def test_unthrottled_run_has_no_throttle_cost_only(self):
        """The unthrottled reference exercises power/thermal only: nothing
        consumes its readings, so profiling it reads no sensors."""
        prof = StepProfiler()
        run_workload(W7, None, CFG, profiler=prof)
        totals = prof.totals()
        for section in ("power", "thermal-step"):
            assert totals[section] > 0
        assert "sensors" not in totals and "throttle" not in totals

    def test_profiler_draws_no_sensor_noise(self):
        """Measuring does not change the work done: a profiled noisy
        unthrottled run leaves its sensor-noise stream untouched."""
        cfg = replace(CFG, duration_s=0.002, sensor_noise_std_c=0.5)
        sim = ThermalTimingSimulator(
            W7.benchmarks, None, cfg, profiler=StepProfiler()
        )
        untouched = sim._sensor_rng.generator.bit_generator.state
        sim.run()
        assert sim._sensor_rng.generator.bit_generator.state == untouched


class TestRunnerProfileSurfacing:
    """Runner-level section timing comes through a tracer, as spans."""

    def test_profiled_runner_collects_sections(self):
        """Each traced pool point carries every engine section beneath it."""
        tracer = SpanRecorder()
        runner = ParallelRunner(jobs=1, tracer=tracer, backend="pool")
        points = [
            RunPoint(W7, spec_by_key("distributed-dvfs-none"), CFG),
            RunPoint(W7, spec_by_key("global-stop-go-none"), CFG),
        ]
        results = runner.run_points(points)
        assert len(results) == 2
        spans = tracer.spans()
        for point in points:
            (span,) = [
                s for s in spans if s.kind == KIND_POINT and s.name == point.label
            ]
            sections = [
                s for s in spans
                if s.kind == KIND_SECTION and s.parent_id == span.span_id
            ]
            assert {s.name for s in sections} == set(ENGINE_SECTIONS)
            assert sum(s.elapsed_s for s in sections) <= span.elapsed_s

    def test_profiled_results_identical_to_unprofiled(self):
        point = RunPoint(W7, spec_by_key("distributed-dvfs-none"), CFG)
        plain = ParallelRunner(jobs=1, backend="pool").run_points([point])[0]
        traced = ParallelRunner(
            jobs=1, tracer=SpanRecorder(), backend="pool"
        ).run_points([point])[0]
        assert scalar_fields(plain) == scalar_fields(traced)

    def test_profile_off_by_default(self, monkeypatch):
        """Untraced points run without a profiler (the fused path) and
        leave no spans; traced ones get a step profiler."""
        import repro.sim.runner as runner_mod

        seen = []

        def spy(workload, spec, config, profiler=None):
            seen.append(profiler)
            return run_workload(workload, spec, config, profiler=profiler)

        monkeypatch.setattr(runner_mod, "run_workload", spy)
        point = RunPoint(W7, None, SimulationConfig(duration_s=0.01))
        runner = ParallelRunner(jobs=1, backend="pool")
        runner.run_points([point])
        assert seen == [None]
        assert len(runner.tracer) == 0
        tracer = SpanRecorder()
        ParallelRunner(jobs=1, backend="pool").run_points(
            [point], tracer=tracer
        )
        assert isinstance(seen[1], StepProfiler)
        assert len(tracer) > 0
