"""Fused-vs-stepwise engine equivalence and fusion-eligibility rules.

The engine's fused whole-run path (``_run_fused``) must be a pure
optimization: for any configuration, flipping ``fuse_steps`` changes
wall time only — every reported metric, per-core counter, event stream
and the final thermal state are bit-identical. And fusion must refuse
to engage whenever any per-step observer (policy, fault plan, guard,
PROCHOT, series, event log, profiler) could see or perturb an
intermediate step.
"""

from dataclasses import fields, replace

import numpy as np
import pytest

from repro.core.taxonomy import spec_by_key
from repro.faults.guards import GuardConfig
from repro.obs import RunEventLog, StepProfiler
from repro.sim.bench import _bench_fault_plan
from repro.sim.engine import SimulationConfig, ThermalTimingSimulator
from repro.sim.workloads import get_workload

W7 = get_workload("workload7")
CFG = SimulationConfig(duration_s=0.02)

#: The four policy configs from benchmarks/test_engine_speed.py.
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
        """Event-log capture never depends on the fuse_steps setting.

        (An attached log itself blocks fusion, so both runs execute
        stepwise — the point is that the user-visible event stream is
        invariant under the flag.)
        """
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

    def test_observers_block_fusion(self):
        assert "event-log" in _sim(None, CFG, event_log=RunEventLog()).fusion_blockers
        assert "profiler" in _sim(None, CFG, profiler=StepProfiler()).fusion_blockers

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
