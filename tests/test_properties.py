"""Cross-cutting property-based tests (hypothesis).

Module-level invariants live next to their modules; the properties here
span subsystems: arbitrary floorplans through the RC builder and solver,
arbitrary temperature histories through the PI controller and policies,
arbitrary migration permutations through the scheduler.
"""

import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.control.pi import DiscretePIController, design_paper_controller
from repro.core.migration import figure4_assignment
from repro.core.stopgo import StopGoPolicy
from repro.core.taxonomy import ALL_POLICY_SPECS, BASELINE_SPEC
from repro.sim.engine import SimulationConfig
from repro.sim.runner import RunPoint, config_hash
from repro.sim.workloads import ALL_WORKLOADS
from repro.thermal.floorplan import Block, Floorplan
from repro.thermal.package import ThermalPackage
from repro.thermal.rc_network import build_rc_network

DT = 100_000 / 3.6e9


@st.composite
def random_grid_floorplans(draw):
    nx = draw(st.integers(min_value=1, max_value=3))
    ny = draw(st.integers(min_value=1, max_value=3))
    widths = [draw(st.floats(min_value=0.4, max_value=4.0)) for _ in range(nx)]
    heights = [draw(st.floats(min_value=0.4, max_value=4.0)) for _ in range(ny)]
    blocks, y = [], 0.0
    for r, h in enumerate(heights):
        x = 0.0
        for c, w in enumerate(widths):
            blocks.append(Block(f"b{r}_{c}", x, y, w, h))
            x += w
        y += h
    return Floorplan(blocks)


@settings(max_examples=25, deadline=None)
@given(random_grid_floorplans())
def test_rc_network_physics_for_arbitrary_floorplans(floorplan):
    """Any valid floorplan yields a physical network: symmetric G, zero
    row sums except the ambient tie, positive capacitances, and a steady
    state at ambient under zero power."""
    net = build_rc_network(floorplan, ThermalPackage())
    g = net.conductance
    np.testing.assert_allclose(g, g.T, atol=1e-12)
    sums = g.sum(axis=1)
    np.testing.assert_allclose(sums[:-1], 0.0, atol=1e-9)
    assert sums[-1] == pytest.approx(net.ambient_conductance)
    assert np.all(net.capacitance > 0)
    temps = np.linalg.solve(g, net.input_vector(np.zeros(net.n_blocks)))
    np.testing.assert_allclose(temps, net.ambient_c, atol=1e-7)


@settings(max_examples=25, deadline=None)
@given(
    random_grid_floorplans(),
    st.integers(min_value=0, max_value=8),
    st.floats(min_value=0.1, max_value=20.0),
)
def test_heat_rises_where_injected(floorplan, block_seed, watts):
    """Injecting power into any single block makes it the hottest block."""
    net = build_rc_network(floorplan, ThermalPackage())
    target = block_seed % net.n_blocks
    p = np.zeros(net.n_blocks)
    p[target] = watts
    temps = np.linalg.solve(net.conductance, net.input_vector(p))
    assert int(np.argmax(temps[: net.n_blocks])) == target


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.floats(min_value=-20.0, max_value=150.0, allow_nan=False),
        min_size=1,
        max_size=200,
    )
)
def test_pi_output_monotone_under_clipping(history):
    """For any temperature history, outputs stay clipped and the
    controller remains responsive afterwards (no hidden windup): after a
    long cold spell it returns to full speed within a bounded number of
    steps."""
    c = DiscretePIController(design_paper_controller(DT), setpoint=82.2)
    for t in history:
        out = c.step(t)
        assert 0.2 <= out <= 1.0
    steps = 0
    while c.step(40.0) < 1.0:
        steps += 1
        assert steps < 500


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.floats(min_value=40.0, max_value=120.0, allow_nan=False),
        min_size=4,
        max_size=4,
    ),
    st.lists(
        st.floats(min_value=40.0, max_value=120.0, allow_nan=False),
        min_size=4,
        max_size=4,
    ),
)
def test_stopgo_scales_are_binary(int_temps, fp_temps):
    policy = StopGoPolicy(4)
    hottest = [max(i, f) for i, f in zip(int_temps, fp_temps)]
    for step in range(5):
        scales = policy.scales_from_hottest(step * DT, hottest)
        assert all(s in (0.0, 1.0) for s in scales)


@settings(max_examples=40, deadline=None)
@given(
    st.permutations(list(range(4))),
    st.lists(
        st.tuples(
            st.floats(min_value=60, max_value=85),
            st.floats(min_value=60, max_value=85),
        ),
        min_size=4,
        max_size=4,
    ),
    st.integers(min_value=0, max_value=2 ** 31),
)
def test_figure4_always_produces_permutation(assignment, temps, seed):
    """The greedy matcher returns a permutation of the input pids for any
    readings and any (deterministic) intensity function."""
    readings = [{"intreg": a, "fpreg": b} for a, b in temps]

    def intensity(pid, core, unit):
        return ((pid * 2654435761 + core * 40503 + seed) % 1000) / 1000.0

    result = figure4_assignment(list(assignment), readings, intensity)
    assert sorted(result) == sorted(assignment)


# -- result-cache config hash -------------------------------------------------

#: Scalar SimulationConfig fields with value strategies that always pass
#: __post_init__ validation and differ from the defaults' types sanely.
_HASH_FIELD_STRATEGIES = {
    "duration_s": st.floats(min_value=1e-3, max_value=2.0, allow_nan=False),
    "threshold_c": st.floats(min_value=50.0, max_value=120.0, allow_nan=False),
    "seed": st.integers(min_value=0, max_value=2 ** 48),
    "trace_duration_s": st.floats(min_value=1e-3, max_value=1.0, allow_nan=False),
    "migration_period_s": st.floats(min_value=1e-3, max_value=0.1, allow_nan=False),
    "sensor_noise_std_c": st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
    "sensor_quantization_c": st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
    "sensor_offset_c": st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
    "hardware_trip": st.booleans(),
    "power_scale": st.floats(min_value=0.1, max_value=2.0, allow_nan=False),
}


@st.composite
def config_overrides(draw):
    names = draw(
        st.lists(
            st.sampled_from(sorted(_HASH_FIELD_STRATEGIES)),
            min_size=0,
            max_size=4,
            unique=True,
        )
    )
    return {name: draw(_HASH_FIELD_STRATEGIES[name]) for name in names}


@settings(max_examples=40, deadline=None)
@given(config_overrides(), st.integers(min_value=0, max_value=11))
def test_equal_points_hash_equal(overrides, workload_idx):
    """Two independently built but equal points share a hash."""
    workload = ALL_WORKLOADS[workload_idx]
    a = RunPoint(workload, BASELINE_SPEC, SimulationConfig(**overrides))
    b = RunPoint(workload, BASELINE_SPEC, SimulationConfig(**overrides))
    assert config_hash(a, "v") == config_hash(b, "v")


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(sorted(_HASH_FIELD_STRATEGIES)),
    st.data(),
)
def test_any_single_field_change_changes_hash(field_name, data):
    """Perturbing any one configuration field perturbs the hash."""
    base = SimulationConfig()
    value = data.draw(_HASH_FIELD_STRATEGIES[field_name])
    changed = dataclasses.replace(base, **{field_name: value})
    if changed == base:  # drew the default value; nothing changed
        return
    point = RunPoint(ALL_WORKLOADS[0], BASELINE_SPEC, base)
    mutated = RunPoint(ALL_WORKLOADS[0], BASELINE_SPEC, changed)
    assert config_hash(point, "v") != config_hash(mutated, "v")


def test_workload_and_policy_and_version_all_enter_the_hash():
    cfg = SimulationConfig()
    base = config_hash(RunPoint(ALL_WORKLOADS[0], BASELINE_SPEC, cfg), "v")
    assert base != config_hash(RunPoint(ALL_WORKLOADS[1], BASELINE_SPEC, cfg), "v")
    assert base != config_hash(RunPoint(ALL_WORKLOADS[0], ALL_POLICY_SPECS[1], cfg), "v")
    assert base != config_hash(RunPoint(ALL_WORKLOADS[0], None, cfg), "v")
    assert base != config_hash(RunPoint(ALL_WORKLOADS[0], BASELINE_SPEC, cfg), "v2")


def test_config_hash_stable_across_processes():
    """The hash is content-derived: a fresh interpreter (fresh
    PYTHONHASHSEED) computes the identical digest."""
    script = (
        "from repro.sim.runner import RunPoint, config_hash\n"
        "from repro.sim.engine import SimulationConfig\n"
        "from repro.sim.workloads import ALL_WORKLOADS\n"
        "from repro.core.taxonomy import BASELINE_SPEC\n"
        "cfg = SimulationConfig(duration_s=0.123, threshold_c=88.5, seed=42)\n"
        "print(config_hash(RunPoint(ALL_WORKLOADS[2], BASELINE_SPEC, cfg), 'v'))\n"
    )
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "12345"
    out = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    cfg = SimulationConfig(duration_s=0.123, threshold_c=88.5, seed=42)
    here = config_hash(RunPoint(ALL_WORKLOADS[2], BASELINE_SPEC, cfg), "v")
    assert out.stdout.strip() == here
