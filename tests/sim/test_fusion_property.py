"""A run's path is a function of its point alone.

The engine, the runner's planner and the fleet's lockstep key all read
one rule, :func:`~repro.sim.engine.fusion_blockers` of ``(spec,
config)``. This property draws points across the policy taxonomy (and
the unthrottled ``None``), every per-step stage that blocks fusion and
every mix of observers, and checks that the simulator's blockers, the
path its run takes and the fleet's group kind all agree with that rule:
attaching an event log, a profiler or a telemetry sampler never moves a
point from one path to the other.
"""

from dataclasses import replace

import pytest

from repro.core.taxonomy import ALL_POLICY_SPECS
from repro.faults.guards import GuardConfig
from repro.faults.models import FaultPlan
from repro.obs import RunEventLog, StepProfiler
from repro.obs.telemetry import TelemetrySampler
from repro.sim.bench import _bench_fault_plan
from repro.sim.engine import (
    SimulationConfig,
    ThermalTimingSimulator,
    fusion_blockers,
)
from repro.sim.fleet import lockstep_key
from repro.sim.workloads import get_workload

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

W7 = get_workload("workload7")
CFG = SimulationConfig(duration_s=0.0005)

#: No plan, an empty plan (which must not block) and a plan that injects.
FAULT_PLANS = [None, FaultPlan(), _bench_fault_plan(CFG.duration_s)]

OBSERVERS = {
    "event_log": RunEventLog,
    "profiler": StepProfiler,
    "telemetry": lambda: TelemetrySampler(1e-4),
}


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    spec=st.sampled_from((None,) + ALL_POLICY_SPECS),
    plan=st.sampled_from(FAULT_PLANS),
    guard=st.sampled_from([None, GuardConfig()]),
    hardware_trip=st.booleans(),
    fuse_steps=st.booleans(),
    observers=st.sets(st.sampled_from(sorted(OBSERVERS))),
)
def test_path_depends_on_spec_and_config_alone(
    spec, plan, guard, hardware_trip, fuse_steps, observers
):
    config = replace(
        CFG,
        fault_plan=plan,
        guard=guard,
        hardware_trip=hardware_trip,
        fuse_steps=fuse_steps,
    )
    sim = ThermalTimingSimulator(
        W7.benchmarks,
        spec,
        config,
        **{name: OBSERVERS[name]() for name in observers},
    )
    blockers = fusion_blockers(spec, config)
    assert sim.fusion_blockers == blockers
    kind = "stepwise" if blockers else "fused"
    assert lockstep_key(spec, config, sim._substrate.key) == (
        sim._substrate.key, kind
    )
    sim.run()
    assert sim.last_run_fused == (not blockers)
