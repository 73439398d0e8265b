"""End-to-end invariance and determinism guarantees of fault injection.

The load-bearing contracts:

* an **empty** fault plan leaves a run bit-identical to one with no plan
  at all (the engine must not even construct an injector);
* a **faulted** run is deterministic — same config, same result — and
  unchanged by attaching an event log;
* the fault plan and guard config **participate in the result-cache
  key**, so a cached no-fault result can never be served for a faulted
  configuration (or vice versa).
"""

from dataclasses import replace

import pytest

from repro.core.taxonomy import spec_by_key
from repro.faults.guards import GuardConfig
from repro.faults.models import (
    CalibrationStepFault,
    DriftFault,
    DVFSRejectFault,
    FaultPlan,
    MigrationDropFault,
    SpikeFault,
    StuckAtFault,
)
from repro.obs.events import RunEventLog
from repro.sim.engine import SimulationConfig, run_workload
from repro.sim.runner import RunPoint, config_hash
from repro.sim.workloads import get_workload

DURATION = 0.012

FAULTY_PLAN = FaultPlan(
    name="invariance-mix",
    faults=(
        DriftFault(core=0, unit="intreg", start_s=0.2 * DURATION,
                   rate_c_per_s=100.0),
        SpikeFault(prob=0.01, magnitude_c=10.0),
        DVFSRejectFault(prob=0.5),
        MigrationDropFault(prob=0.5),
    ),
)


@pytest.fixture(scope="module")
def workload():
    return get_workload("workload7")


@pytest.fixture(scope="module")
def spec():
    return spec_by_key("distributed-dvfs-sensor")


def comparable(result):
    """Every RunResult field except the observability attachments."""
    return replace(result, events=None)


class TestNoFaultInvariance:
    def test_empty_plan_bit_identical_to_no_plan(self, workload, spec):
        plain = run_workload(workload, spec, SimulationConfig(duration_s=DURATION))
        empty = run_workload(
            workload,
            spec,
            SimulationConfig(duration_s=DURATION, fault_plan=FaultPlan()),
        )
        assert comparable(empty) == comparable(plain)

    def test_no_plan_leaves_fault_summary_unset(self, workload, spec):
        result = run_workload(
            workload, spec, SimulationConfig(duration_s=DURATION)
        )
        assert result.faults is None

    def test_empty_plan_leaves_fault_summary_unset(self, workload, spec):
        result = run_workload(
            workload,
            spec,
            SimulationConfig(duration_s=DURATION, fault_plan=FaultPlan()),
        )
        assert result.faults is None


class TestFaultedDeterminism:
    @pytest.fixture(scope="class")
    def faulted_config(self):
        return SimulationConfig(duration_s=DURATION, fault_plan=FAULTY_PLAN)

    def test_faulted_run_repeats_bit_identically(
        self, workload, spec, faulted_config
    ):
        a = run_workload(workload, spec, faulted_config)
        b = run_workload(workload, spec, faulted_config)
        assert comparable(a) == comparable(b)
        assert a.faults == b.faults

    def test_faults_actually_changed_the_run(
        self, workload, spec, faulted_config
    ):
        plain = run_workload(
            workload, spec, SimulationConfig(duration_s=DURATION)
        )
        faulted = run_workload(workload, spec, faulted_config)
        assert faulted.faults is not None
        assert faulted.faults.total_injected > 0
        assert faulted.bips != plain.bips

    def test_event_capture_does_not_perturb_faulted_run(
        self, workload, spec, faulted_config
    ):
        bare = run_workload(workload, spec, faulted_config)
        log = RunEventLog()
        logged = run_workload(workload, spec, faulted_config, event_log=log)
        assert comparable(logged) == comparable(bare)
        assert logged.faults == bare.faults
        assert len(log.of_type("fault.sensor")) > 0

    def test_guard_only_config_attaches_summary(self, workload, spec):
        result = run_workload(
            workload,
            spec,
            SimulationConfig(duration_s=DURATION, guard=GuardConfig()),
        )
        # No faults injected, but guard accounting is live (and silent on
        # healthy sensors).
        assert result.faults is not None
        assert result.faults.total_injected == 0
        assert result.faults.guard_trips == 0

    def test_guard_engages_on_stuck_cool_sensor(self, workload, spec):
        plan = FaultPlan(
            faults=(StuckAtFault(core=0, unit="intreg",
                                 start_s=0.2 * DURATION, value_c=70.0),
                    CalibrationStepFault(core=0, unit="fpreg",
                                         start_s=0.2 * DURATION,
                                         offset_c=0.001),),
        )
        guarded = run_workload(
            workload,
            spec,
            SimulationConfig(
                duration_s=DURATION,
                fault_plan=plan,
                guard=GuardConfig(stuck_steps=60, recovery_steps=36),
            ),
        )
        assert guarded.faults.guard_trips > 0
        assert guarded.faults.guard_fallback_s > 0.0


class TestCacheKeyParticipation:
    def test_fault_plan_changes_config_hash(self, workload, spec):
        base = SimulationConfig(duration_s=DURATION)
        faulted = replace(base, fault_plan=FAULTY_PLAN)
        assert config_hash(RunPoint(workload, spec, base)) != config_hash(
            RunPoint(workload, spec, faulted)
        )

    def test_guard_changes_config_hash(self, workload, spec):
        base = SimulationConfig(duration_s=DURATION)
        guarded = replace(base, guard=GuardConfig())
        assert config_hash(RunPoint(workload, spec, base)) != config_hash(
            RunPoint(workload, spec, guarded)
        )

    def test_distinct_plans_hash_distinctly(self, workload, spec):
        a = replace(
            SimulationConfig(duration_s=DURATION),
            fault_plan=FaultPlan(faults=(DriftFault(rate_c_per_s=1.0),)),
        )
        b = replace(
            SimulationConfig(duration_s=DURATION),
            fault_plan=FaultPlan(faults=(DriftFault(rate_c_per_s=2.0),)),
        )
        assert config_hash(RunPoint(workload, spec, a)) != config_hash(
            RunPoint(workload, spec, b)
        )

    def test_unbounded_window_is_hashable_and_canonical(self, workload, spec):
        # end_s=inf must survive canonical JSON for the cache key.
        cfg = replace(
            SimulationConfig(duration_s=DURATION),
            fault_plan=FaultPlan(faults=(CalibrationStepFault(),)),
        )
        assert isinstance(config_hash(RunPoint(workload, spec, cfg)), str)
