"""Tests for the Table 1 (mobile measurement) reproduction.

The full-length run is benchmarked in benchmarks/; here we use shorter
horizons that still capture the qualitative structure.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.experiments import table1
from repro.sim.runner import ParallelRunner, ResultCache
from repro.thermal.coupling import initialize_coupled_steady
from repro.thermal.layouts import build_mobile_floorplan
from repro.thermal.leakage import LeakageModel
from repro.thermal.model import ThermalModel
from repro.uarch.benchmarks import get_benchmark
from repro.uarch.config import mobile_machine_config
from repro.uarch.interval_model import UNIT_ORDER
from repro.uarch.tracegen import generate_trace

# Shorter-but-representative settings: long enough to cover at least one
# full phase period of the slowest oscillator (ammp: ~420 s stretched).
DURATION = 470.0
DT = 20e-3


@pytest.fixture(scope="module")
def rows():
    return table1.compute(duration_s=DURATION, dt=DT)


class TestStructure:
    def test_all_twelve_benchmarks(self, rows):
        names = [r.benchmark for r in rows]
        assert set(names) == set(table1.PAPER_STABLE) | set(table1.PAPER_RANGES)

    def test_stable_vs_oscillating_split(self, rows):
        stable = {r.benchmark for r in rows if r.stable}
        osc = {r.benchmark for r in rows if not r.stable}
        assert stable == set(table1.PAPER_STABLE)
        assert osc == set(table1.PAPER_RANGES)

    def test_row_payloads(self, rows):
        for r in rows:
            if r.stable:
                assert r.steady_c is not None and r.range_c is None
            else:
                assert r.range_c is not None and r.steady_c is None
                lo, hi = r.range_c
                assert lo <= hi


class TestQualitativeShape:
    def test_mcf_is_coolest(self, rows):
        temps = {r.benchmark: r.steady_c for r in rows if r.stable}
        assert temps["mcf"] == min(temps.values())

    def test_gzip_and_sixtrack_hottest_stable(self, rows):
        temps = {r.benchmark: r.steady_c for r in rows if r.stable}
        top_two = sorted(temps, key=temps.get, reverse=True)[:2]
        assert set(top_two) == {"gzip", "sixtrack"}

    def test_temperatures_in_measured_band(self, rows):
        """All readings within a few degrees of the paper's 59-72 span."""
        for r in rows:
            values = [r.steady_c] if r.stable else list(r.range_c)
            for v in values:
                assert 52 <= v <= 80, (r.benchmark, v)

    def test_oscillators_swing_multiple_degrees(self, rows):
        for r in rows:
            if not r.stable:
                lo, hi = r.range_c
                assert hi - lo >= 2, r.benchmark

    def test_steady_benchmarks_really_steady(self):
        readings = table1._simulate_benchmark(
            "gzip", DURATION, DT, table1.MOBILE_PACKAGE,
            table1.MOBILE_POWER_SCALE, seed=1,
        )
        settle = readings[len(readings) // 3:]
        assert settle.max() - settle.min() <= 3.0


class TestProtocol:
    def test_quantised_to_whole_degrees(self):
        readings = table1._simulate_benchmark(
            "parser", 50.0, DT, table1.MOBILE_PACKAGE,
            table1.MOBILE_POWER_SCALE, seed=0,
        )
        assert (readings == readings.round()).all()

    def test_render_has_both_subtables(self, rows):
        text = table1.render(rows)
        assert "Table 1a" in text
        assert "Table 1b" in text

    def test_subset_computation(self):
        rows = table1.compute(
            duration_s=50.0, dt=DT, benchmarks=["gzip", "mcf"]
        )
        assert [r.benchmark for r in rows] == ["gzip", "mcf"]


# -- lockstep cohorts ------------------------------------------------------

#: 1,000 steps: short, but long enough for leakage and phases to matter.
ORACLE_ARGS = (20.0, DT, table1.MOBILE_PACKAGE, table1.MOBILE_POWER_SCALE, 0)
#: Stable and oscillating benchmarks; 6 splits evenly into 1s, 2s and 3s.
ORACLE_NAMES = ("gzip", "bzip2", "mcf", "ammp", "sixtrack", "fma3d")


def _reference_diode_temperatures(
    name, duration_s, dt, package, power_scale, seed
):
    """One benchmark alone through the checked public API, step by step:
    ``ThermalModel.step``, ``LeakageModel.power`` and ``temperature_of``."""
    profile = get_benchmark(name)
    stretched = replace(
        profile,
        phase=replace(
            profile.phase,
            period_s=profile.phase.period_s * table1.PHASE_STRETCH,
        ),
    )
    machine = replace(
        mobile_machine_config(),
        trace_sample_cycles=int(round(dt * mobile_machine_config().clock_hz)),
    )
    trace = generate_trace(
        stretched, machine, duration_s=duration_s, seed=seed,
        power_scale=power_scale, use_cache=False,
    )
    floorplan = build_mobile_floorplan()
    model = ThermalModel(floorplan, package, dt)
    leakage = LeakageModel(floorplan, 8.0 * power_scale)
    net = model.network
    unit_idx = np.array([net.index(f"core0.{u}") for u in UNIT_ORDER])
    l2_idx = net.index("l2_0")
    n_blocks = net.n_blocks

    def l2_power(activity):
        return table1.PLATFORM_IDLE_W + power_scale * table1.L2_BANK_PEAK_W * (
            table1.L2_IDLE_FRACTION + (1 - table1.L2_IDLE_FRACTION) * activity
        )

    mean_p = np.zeros(n_blocks)
    mean_p[unit_idx] = trace.unit_power.mean(axis=0)
    mean_p[l2_idx] = l2_power(float(trace.l2_activity.mean()))
    initialize_coupled_steady(model, leakage, mean_p, tolerance_c=1e-3)
    n_steps = max(1, int(round(duration_s / dt)))
    readings = np.empty(n_steps)
    p = np.zeros(n_blocks)
    for k in range(n_steps):
        b = k % trace.n_samples
        p[:] = 0.0
        p[unit_idx] = trace.unit_power[b]
        p[l2_idx] = l2_power(float(trace.l2_activity[b]))
        p += leakage.power(model.temperatures[:n_blocks])
        model.step(p, dt)
        readings[k] = model.temperature_of(table1.DIODE_BLOCK)
    return readings


@pytest.fixture(scope="module")
def reference():
    return {
        name: _reference_diode_temperatures(name, *ORACLE_ARGS)
        for name in ORACLE_NAMES
    }


class TestLockstep:
    @pytest.mark.parametrize("size", [1, 2, 3])
    def test_raw_temperatures_bitwise_equal_scalar_loop(self, size, reference):
        for i in range(0, len(ORACLE_NAMES), size):
            cohort = ORACLE_NAMES[i:i + size]
            temps = table1._diode_temperatures(cohort, *ORACLE_ARGS)
            assert temps.shape == (1000, len(cohort))
            for j, name in enumerate(cohort):
                np.testing.assert_array_equal(temps[:, j], reference[name])

    def test_single_benchmark_is_a_quantised_cohort_of_one(self, reference):
        readings = table1._simulate_benchmark("bzip2", *ORACLE_ARGS)
        q = table1.QUANTIZATION_C
        np.testing.assert_array_equal(
            readings, np.round(reference["bzip2"] / q) * q
        )

    def test_rows_independent_of_cohort(self):
        def rows_of(names):
            rows = table1.compute(
                duration_s=50.0, dt=DT, benchmarks=names,
                runner=ParallelRunner(jobs=1, cache=None),
            )
            return {r.benchmark: r for r in rows}

        # Cohorts (gzip, mcf) + (bzip2,) versus (bzip2, gzip) + (mcf,).
        assert rows_of(["gzip", "mcf", "bzip2"]) == rows_of(
            ["bzip2", "gzip", "mcf"]
        )

    def test_second_compute_is_served_from_the_disk_cache(self, tmp_path):
        runner = ParallelRunner(jobs=1, cache=ResultCache(tmp_path))
        kwargs = dict(
            duration_s=20.0, dt=DT, benchmarks=["gzip", "mcf", "bzip2"],
            runner=runner,
        )
        first = table1.compute(**kwargs)
        assert runner.stats.simulated == 2
        second = table1.compute(**kwargs)
        assert runner.stats.simulated == 2
        assert second == first
