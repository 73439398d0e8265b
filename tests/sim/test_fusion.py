"""Fused-vs-stepwise engine equivalence and fusion-eligibility rules.

The engine's fused whole-run path (``_run_fused``) must be a pure
optimization: for any configuration, flipping ``fuse_steps`` changes
wall time only — every reported metric, per-core counter, event stream
and the final thermal state are bit-identical. Fusion must refuse to
engage whenever a per-step stage (policy, fault plan, guard, PROCHOT)
could perturb an intermediate step, and must stay engaged under any mix
of observers (event log, profiler, telemetry sampler), which the fused
path serves between spans of steps.
"""

from dataclasses import fields, replace

import numpy as np
import pytest

from repro.core.taxonomy import spec_by_key
from repro.faults.guards import GuardConfig
from repro.obs import RunEventLog, StepProfiler
from repro.obs.telemetry import TelemetrySampler
from repro.sim.bench import _bench_fault_plan
from repro.sim.engine import SimulationConfig, ThermalTimingSimulator
from repro.sim.workloads import get_workload

W7 = get_workload("workload7")
CFG = SimulationConfig(duration_s=0.02)

#: A fusable workload1 point whose hottest block crosses the emergency
#: envelope both ways (it starts at full-power steady state, just below
#: the threshold) and which spans four OS ticks.
W1 = get_workload("workload1")
EDGES = SimulationConfig(
    duration_s=0.05, threshold_c=167.04, warm_start_fraction=1.0
)

#: Observer mixes: each entry names the observers a run attaches.
OBSERVER_SETS = [
    ("events",),
    ("profiler",),
    ("events", "profiler"),
    ("events", "profiler", "telemetry"),
]

#: The four policy configs of the `repro bench` case list (repro.sim.bench).
POLICY_KEYS = [
    None,
    "distributed-stop-go-none",
    "distributed-dvfs-none",
    "distributed-dvfs-sensor",
]
POLICY_IDS = ["unthrottled", "stopgo", "dvfs", "dvfs+sensor-migration"]


def _sim(spec_key, config, **kwargs):
    spec = spec_by_key(spec_key) if spec_key else None
    return ThermalTimingSimulator(W7.benchmarks, spec, config, **kwargs)


def scalar_fields(result) -> dict:
    """Every RunResult field except the attachments compared separately."""
    return {
        f.name: getattr(result, f.name)
        for f in fields(result)
        if f.name not in ("series", "events")
    }


def _observers(names):
    """Fresh observers for one run, as simulator keyword arguments."""
    made = {}
    if "events" in names:
        made["event_log"] = RunEventLog()
    if "profiler" in names:
        made["profiler"] = StepProfiler()
    if "telemetry" in names:
        made["telemetry"] = TelemetrySampler(1e-3)
    return made


def _stream(log):
    """Every event of a log as comparable tuples, in emission order."""
    return [(e.time_s, e.type, e.core, e.data) for e in log.events]


class TestFusedStepwiseIdentity:
    @pytest.mark.parametrize("spec_key", POLICY_KEYS, ids=POLICY_IDS)
    def test_metrics_and_state_identical(self, spec_key):
        fused_sim = _sim(spec_key, CFG)
        fused = fused_sim.run()
        step_sim = _sim(spec_key, replace(CFG, fuse_steps=False))
        stepwise = step_sim.run()

        assert not step_sim.last_run_fused
        assert scalar_fields(fused) == scalar_fields(stepwise)
        np.testing.assert_array_equal(
            fused_sim.thermal.temperatures, step_sim.thermal.temperatures
        )
        for pf, ps in zip(
            fused_sim.scheduler.processes, step_sim.scheduler.processes
        ):
            assert pf.position == ps.position
            assert pf.counters.instructions == ps.counters.instructions
            assert pf.counters.cycles == ps.counters.cycles
            assert pf.counters.adjusted_cycles == ps.counters.adjusted_cycles

    @pytest.mark.parametrize("spec_key", POLICY_KEYS, ids=POLICY_IDS)
    def test_event_streams_identical(self, spec_key):
        """Event-log capture never depends on the fuse_steps setting."""
        log_a, log_b = RunEventLog(), RunEventLog()
        a = _sim(spec_key, CFG, event_log=log_a).run()
        b = _sim(spec_key, replace(CFG, fuse_steps=False), event_log=log_b).run()
        assert log_a.counts() == log_b.counts()
        assert len(log_a) == len(log_b)
        assert a.events == b.events

    def test_unthrottled_actually_fuses(self):
        sim = _sim(None, CFG)
        assert sim.fusion_blockers == ()
        sim.run()
        assert sim.last_run_fused


class TestFusionEligibility:
    def test_fault_plan_blocks_fusion(self):
        cfg = replace(CFG, fault_plan=_bench_fault_plan(CFG.duration_s))
        sim = _sim(None, cfg)
        assert "fault-plan" in sim.fusion_blockers
        sim.run()
        assert not sim.last_run_fused

    def test_faulted_results_identical_either_way(self):
        """Under a plan both settings run stepwise and agree exactly."""
        cfg = replace(CFG, fault_plan=_bench_fault_plan(CFG.duration_s))
        a = _sim(None, cfg).run()
        b = _sim(None, replace(cfg, fuse_steps=False)).run()
        assert scalar_fields(a) == scalar_fields(b)
        assert a.faults == b.faults

    def test_guards_block_fusion(self):
        cfg = replace(CFG, guard=GuardConfig())
        assert "sensor-guards" in _sim(None, cfg).fusion_blockers

    def test_hardware_trip_blocks_fusion(self):
        cfg = replace(CFG, hardware_trip=True)
        assert "hardware-trip" in _sim(None, cfg).fusion_blockers


    def test_policies_block_fusion(self):
        assert "throttle-policy" in _sim(
            "distributed-dvfs-none", CFG
        ).fusion_blockers
        assert "migration-policy" in _sim(
            "distributed-dvfs-sensor", CFG
        ).fusion_blockers

    def test_fuse_steps_false_blocks_fusion(self):
        sim = _sim(None, replace(CFG, fuse_steps=False))
        assert sim.fusion_blockers == ("disabled",)


class TestObservedFusedRuns:
    """Observers never choose the path: a fusable run stays fused."""

    def test_edges_config_crosses_ticks_and_both_emergency_edges(self):
        log = RunEventLog()
        sim = ThermalTimingSimulator(W1.benchmarks, None, EDGES, event_log=log)
        sim.run()
        counts = log.counts()
        assert sim.last_run_fused
        assert counts["os-tick"] >= 4
        assert counts["emergency-enter"] >= 2
        assert counts["emergency-exit"] >= 1

    @pytest.mark.parametrize(
        "names", OBSERVER_SETS, ids=["+".join(n) for n in OBSERVER_SETS]
    )
    def test_stays_fused_and_bit_identical(self, names):
        plain_sim = ThermalTimingSimulator(W1.benchmarks, None, EDGES)
        plain = plain_sim.run()
        observers = _observers(names)
        sim = ThermalTimingSimulator(W1.benchmarks, None, EDGES, **observers)
        observed = sim.run()

        assert sim.fusion_blockers == ()
        assert sim.last_run_fused
        assert {
            k: v for k, v in scalar_fields(observed).items() if k != "telemetry"
        } == {k: v for k, v in scalar_fields(plain).items() if k != "telemetry"}
        np.testing.assert_array_equal(
            sim.thermal.temperatures, plain_sim.thermal.temperatures
        )
        for po, pp in zip(sim.scheduler.processes, plain_sim.scheduler.processes):
            assert po.position == pp.position
            assert po.counters == pp.counters

    @pytest.mark.parametrize(
        "names", OBSERVER_SETS, ids=["+".join(n) for n in OBSERVER_SETS]
    )
    def test_observers_see_what_the_stepwise_twin_shows(self, names):
        fused_obs = _observers(names)
        fused_sim = ThermalTimingSimulator(W1.benchmarks, None, EDGES, **fused_obs)
        fused = fused_sim.run()
        step_obs = _observers(names)
        step_sim = ThermalTimingSimulator(
            W1.benchmarks, None, replace(EDGES, fuse_steps=False), **step_obs
        )
        stepwise = step_sim.run()

        assert fused_sim.last_run_fused and not step_sim.last_run_fused
        assert scalar_fields(fused) == scalar_fields(stepwise)
        assert fused.events == stepwise.events
        if "events" in names:
            assert _stream(fused_obs["event_log"]) == _stream(
                step_obs["event_log"]
            )
        if "profiler" in names:
            # The fused path reports power, thermal-step and os-tick; an
            # unthrottled run enters neither sensors nor throttle.
            assert set(fused_obs["profiler"].totals()) == {
                "power", "thermal-step", "os-tick"
            }
            assert set(fused_obs["profiler"].totals()) == set(
                step_obs["profiler"].totals()
            )

    def test_event_log_ends_spans_only_where_observers_are_due(self):
        """With an event log alone, a span runs from one OS tick to the
        next: the 10-20 ms span below crosses enter, exit and enter
        again, and its edges still come out as the stepwise twin's."""

        class SpanCounter(StepProfiler):
            def __init__(self):
                super().__init__()
                self.entries = {}

            def _record(self, name, elapsed):
                self.entries[name] = self.entries.get(name, 0) + 1
                super()._record(name, elapsed)

        fused_log, step_log = RunEventLog(), RunEventLog()
        counter = SpanCounter()
        sim = ThermalTimingSimulator(
            W1.benchmarks, None, EDGES, event_log=fused_log, profiler=counter
        )
        sim.run()
        ThermalTimingSimulator(
            W1.benchmarks, None, replace(EDGES, fuse_steps=False),
            event_log=step_log,
        ).run()

        assert sim.last_run_fused
        stream = _stream(fused_log)
        assert stream == _stream(step_log)
        types = [event[1] for event in stream]
        first = types.index("emergency-enter")
        assert types[first - 1 : first + 4] == [
            "os-tick",
            "emergency-enter",
            "emergency-exit",
            "emergency-enter",
            "os-tick",
        ]
        # One span per OS-tick interval: four ticks make five spans.
        assert types.count("os-tick") == 4
        assert counter.entries["thermal-step"] == 5
