"""Stepwise runs read only the trace window their steps reach.

``_run_stepwise`` converts each process's trace columns over the samples
its run can reach and no more: from ``int(position)`` on, ``n_steps + 1``
of them or the whole trace, modulo its length. These tests put the
horizon below, at and above the trace length, wrap short traces many
times, and start positions one ulp below a whole sample, where the float
sum of the advances skips a sample and the last step reads the window's
last row. Each stepwise run must equal the fleet engine, which windows
the traces its own way, bit for bit, and an unthrottled one must equal
the fused path.
"""

from dataclasses import fields, replace

import numpy as np
import pytest

from repro.core.taxonomy import spec_by_key
from repro.sim.engine import SimulationConfig, ThermalTimingSimulator
from repro.sim.fleet import FleetEngine
from repro.sim.runner import ParallelRunner, RunPoint
from repro.sim.workloads import get_workload

W7 = get_workload("workload7")
DT = SimulationConfig().machine.sample_period_s

#: Samples in the short trace these runs loop over.
N = 160

#: Step counts whose window ``n_steps + 1`` is below, at and above the
#: trace length, and one that wraps the trace five times.
HORIZONS = {"below": N - 3, "at": N - 1, "above": N, "wraps": 5 * N + 3}

#: Sensor-based migration (threads move between cores at OS ticks),
#: stop-go freezes and fractional DVFS advance.
POLICIES = {
    "sensor-migration": "distributed-dvfs-sensor",
    "stop-go": "distributed-stop-go-none",
    "dvfs": "distributed-dvfs-none",
}


def config(n_steps, n_samples=N, **kwargs):
    """A run of ``n_steps`` over a trace of ``n_samples``, ticking every
    18 steps so that short horizons still cross several OS ticks."""
    return SimulationConfig(
        duration_s=n_steps * DT,
        trace_duration_s=n_samples * DT,
        migration_period_s=0.0005,
        **kwargs,
    )


def fields_of(result) -> dict:
    """Every result field but the workload name, which the fleet tags."""
    return {
        f.name: getattr(result, f.name)
        for f in fields(result)
        if f.name != "workload"
    }


def scalar_run(spec, cfg, start=None):
    """A scalar run, its processes started at ``start`` positions."""
    sim = ThermalTimingSimulator(W7.benchmarks, spec, cfg)
    if start is not None:
        for proc, pos in zip(sim.scheduler.processes, start):
            proc.position = pos
    return sim, sim.run()


def assert_same_run(sim_a, result_a, sim_b, result_b):
    """Every result field, the final temperatures and every process's
    position and counters agree bit for bit."""
    assert fields_of(result_a) == fields_of(result_b)
    np.testing.assert_array_equal(
        sim_a.thermal.temperatures, sim_b.thermal.temperatures
    )
    for pa, pb in zip(sim_a.scheduler.processes, sim_b.scheduler.processes):
        assert pa.position == pb.position
        assert pa.counters == pb.counters


def fleet_run(spec, cfg, start=None):
    """The same point through the fleet engine, started alike."""
    engine = FleetEngine([(W7, spec, cfg)])
    sim = engine.members[0].sim
    if start is not None:
        for proc, pos in zip(sim.scheduler.processes, start):
            proc.position = pos
    (result,) = engine.run()
    return sim, result


def assert_window_width(sim, n_steps):
    """The run's traces really are shorter or longer than its window."""
    for proc in sim.scheduler.processes:
        assert proc.trace.n_samples == N
    assert n_steps == sim.config.n_steps


@pytest.mark.parametrize("horizon", HORIZONS, ids=list(HORIZONS))
@pytest.mark.parametrize("policy", POLICIES, ids=list(POLICIES))
def test_stepwise_run_equals_the_fleet(policy, horizon):
    spec = spec_by_key(POLICIES[policy])
    cfg = config(HORIZONS[horizon])
    sim, scalar = scalar_run(spec, cfg)
    assert_window_width(sim, HORIZONS[horizon])
    assert not sim.last_run_fused

    runner = ParallelRunner(jobs=1, cache=None, backend="fleet")
    (fleet,) = runner.run_points([RunPoint(W7, spec, cfg)])
    assert runner.stats.fleet == 1
    assert fields_of(fleet) == fields_of(scalar)

    # The behaviour each policy is here for happened.
    if policy == "sensor-migration":
        assert scalar.migrations > 0
    elif policy == "stop-go":
        assert scalar.stopgo_trips > 0
    else:
        assert any(p.position % 1 for p in sim.scheduler.processes)


@pytest.mark.parametrize("horizon", HORIZONS, ids=list(HORIZONS))
@pytest.mark.parametrize("policy", POLICIES, ids=list(POLICIES))
def test_offset_start_equals_the_fleet(policy, horizon):
    """Positions that start inside the trace, past whole wraps of it, or
    one ulp below a whole sample read the same samples in both engines."""
    spec = spec_by_key(POLICIES[policy])
    cfg = config(HORIZONS[horizon])
    start = [np.nextafter(1.0, 0.0), 3 * N + 7.25, N - 1, 2 * N - 0.5]
    sim_s, scalar = scalar_run(spec, cfg, start)
    sim_f, fleet = fleet_run(spec, cfg, start)
    assert_same_run(sim_s, scalar, sim_f, fleet)


@pytest.mark.parametrize("horizon", HORIZONS, ids=list(HORIZONS))
def test_skipped_sample_reads_the_last_row(horizon):
    """Unthrottled from one ulp below a whole sample, the first advance
    rounds up onto the next sample and the last step reads row
    ``n_steps`` of the window: the stepwise loop reads what the fleet's
    stepwise group reads."""
    n_steps = HORIZONS[horizon]
    cfg = config(n_steps, fuse_steps=False)
    start = [np.nextafter(1.0, 0.0) + k * N for k in range(4)]
    sim_s, scalar = scalar_run(None, cfg, start)
    sim_f, fleet = fleet_run(None, cfg, start)
    assert not sim_s.last_run_fused
    assert not sim_f.last_run_fused
    assert_same_run(sim_s, scalar, sim_f, fleet)
    assert sim_s.scheduler.processes[0].position == n_steps + 1


@pytest.mark.parametrize("horizon", HORIZONS, ids=list(HORIZONS))
@pytest.mark.parametrize("start", [None, [0.0, 5.0, N + 3.0, 7 * N]])
def test_unthrottled_stepwise_equals_fused(horizon, start):
    cfg = config(HORIZONS[horizon])
    fused_sim, fused = scalar_run(None, cfg, start)
    step_sim, stepwise = scalar_run(None, replace(cfg, fuse_steps=False), start)
    assert fused_sim.last_run_fused and not step_sim.last_run_fused
    assert_same_run(fused_sim, fused, step_sim, stepwise)


# -- Hypothesis property (skipped when hypothesis is absent) ----------------

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    n_samples=st.integers(2, 48),
    # Steps as a multiple of the trace length, so the horizon falls
    # below, at, above and far beyond it.
    ratio=st.sampled_from([0.25, 0.5, 1.0, 1.5, 3.0, 6.0]),
    extra=st.integers(-2, 2),
    policy=st.sampled_from([None] + sorted(POLICIES.values())),
)
def test_property_stepwise_equals_fleet_and_fused(n_samples, ratio, extra, policy):
    n_steps = max(1, int(n_samples * ratio) + extra)
    cfg = config(n_steps, n_samples, fuse_steps=False)
    spec = spec_by_key(policy) if policy else None
    sim_s, scalar = scalar_run(spec, cfg)
    sim_f, fleet = fleet_run(spec, cfg)
    assert not sim_s.last_run_fused
    assert_same_run(sim_s, scalar, sim_f, fleet)
    if spec is None:
        fused_sim, fused = scalar_run(None, replace(cfg, fuse_steps=True))
        assert fused_sim.last_run_fused
        assert_same_run(sim_s, scalar, fused_sim, fused)
