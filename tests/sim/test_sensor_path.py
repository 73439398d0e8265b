"""The sensor read both engines perform: one ``(cores, units)`` array.

Each step the scalar loop and the fleet read every core's hotspot
temperatures, add the calibration offset and noise, snap to the
quantization grid with a round-half-up rule, and hand the throttle each
core's hottest reading. These tests pin that read on both paths by
planting exact hotspot temperatures at the warm start and recording the
hottest readings the stop-go stage sees at step 0.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from repro.core.stopgo import DEFAULT_TRIP_MARGIN_C
from repro.core.taxonomy import spec_by_key
from repro.sim.engine import SimulationConfig, ThermalTimingSimulator
from repro.sim.fleet import FleetEngine, _StepwiseGroup
from repro.sim.workloads import get_workload

W7 = get_workload("workload7")
SPEC = spec_by_key("distributed-stop-go-none")
CFG = SimulationConfig(duration_s=0.0005)
PATHS = ("scalar", "fleet")

#: Planted temperatures sit this far above the reading wanted, and the
#: sensor offset takes it back off (every sum below is exact in binary).
LIFT_C = 72.0


def step0(path, monkeypatch, truth, config):
    """The per-core hottest readings the throttle sees at step 0, and
    the scales it answers with.

    ``truth`` is the ``(cores, units)`` hotspot temperature planted as
    the warm-start state.
    """

    def warm(sim):
        temps = sim.thermal.temperatures.copy()
        temps[sim._hotspot_idx] = truth
        sim.thermal.set_temperatures(temps)

    monkeypatch.setattr(ThermalTimingSimulator, "_warm_start", warm)
    seen = []
    if path == "scalar":
        sim = ThermalTimingSimulator(W7.benchmarks, SPEC, config)
        policy = sim.throttle
        stage = policy.scales_from_hottest

        def record(t, hot):
            scales = stage(t, hot)
            seen.append((list(hot), scales))
            return scales

        policy.scales_from_hottest = record
        sim.run()
    else:
        stage = _StepwiseGroup._stopgo_stage

        def record(self, lo, hi, t, hot):
            stage(self, lo, hi, t, hot)
            seen.append((hot[lo].tolist(), self.gate[lo].tolist()))

        monkeypatch.setattr(_StepwiseGroup, "_stopgo_stage", record)
        FleetEngine([(W7, SPEC, config)]).run()
    return seen[0]


#: Planted hotspot temperatures for the read-pipeline tests.
TRUTH = np.array([[80.25, 70.0], [70.0, 81.5], [75.0, 75.0], [60.0, 61.0]])
TRUTH_HOT = [80.25, 81.5, 75.0, 61.0]


@pytest.mark.parametrize("path", PATHS)
class TestReadPipeline:
    def test_ideal_reads_truth(self, path, monkeypatch):
        hot, _ = step0(path, monkeypatch, TRUTH, CFG)
        assert hot == TRUTH_HOT

    def test_offset_applied(self, path, monkeypatch):
        biased = replace(CFG, sensor_offset_c=2.5)
        hot, _ = step0(path, monkeypatch, TRUTH, biased)
        assert hot == [h + 2.5 for h in TRUTH_HOT]

    def test_noise_deterministic_per_stream(self, path, monkeypatch):
        """Noise is drawn from the chip's seeded sensor stream: the same
        seed reads the same, another seed reads differently."""
        noisy = replace(CFG, sensor_noise_std_c=0.5, seed=4)
        first, _ = step0(path, monkeypatch, TRUTH, noisy)
        again, _ = step0(path, monkeypatch, TRUTH, noisy)
        other, _ = step0(path, monkeypatch, TRUTH, replace(noisy, seed=5))
        assert first == again
        assert first != other and first != TRUTH_HOT


def quantized(path, monkeypatch, values, grid=1.0):
    """Step-0 hottest readings of cores whose first unit reads ``values``
    before quantization (the second unit reads 10 C cooler)."""
    hot = np.array(values, dtype=float)
    truth = np.stack([hot, hot - 10.0], axis=1) + LIFT_C
    config = replace(
        CFG, sensor_offset_c=-LIFT_C, sensor_quantization_c=grid
    )
    return step0(path, monkeypatch, truth, config)[0]


@pytest.mark.parametrize("path", PATHS)
class TestQuantization:
    def test_ties_round_up(self, path, monkeypatch):
        got = quantized(path, monkeypatch, [0.5, 1.5, 2.5, 3.5])
        assert got == [1.0, 2.0, 3.0, 4.0]

    def test_differs_from_bankers_rounding(self, path, monkeypatch):
        values = [0.5, 2.5, 4.5, 6.5]
        got = quantized(path, monkeypatch, values)
        assert got == [1.0, 3.0, 5.0, 7.0]
        assert got != np.round(values).tolist()

    def test_negative_ties_toward_plus_inf(self, path, monkeypatch):
        got = quantized(path, monkeypatch, [-0.5, -1.5, -2.5, -3.5])
        assert got == [0.0, -1.0, -2.0, -3.0]
        # -0.5 snaps up to +0.0, not to -0.0.
        assert math.copysign(1.0, got[0]) == 1.0

    def test_non_ties_round_nearest(self, path, monkeypatch):
        got = quantized(path, monkeypatch, [0.4, 0.6, -0.4, -0.6])
        assert got == [0.0, 1.0, 0.0, -1.0]

    def test_fractional_grid(self, path, monkeypatch):
        got = quantized(
            path, monkeypatch, [1.25, 1.125, 0.75, -0.25], grid=0.5
        )
        assert got == [1.5, 1.0, 1.0, 0.0]


def test_invalid_grid():
    with pytest.raises(ValueError):
        SimulationConfig(sensor_quantization_c=-0.5)


@pytest.mark.parametrize("path", PATHS)
class TestHottestFold:
    def test_each_core_reads_its_hottest_unit(self, path, monkeypatch):
        truth = np.array(
            [[80.0, 70.0], [70.0, 80.0], [75.25, 75.25], [60.0, 61.5]]
        )
        hot, _ = step0(path, monkeypatch, truth, CFG)
        assert hot == [80.0, 80.0, 75.25, 61.5]

    def test_second_sensor_can_trip(self, path, monkeypatch):
        """A second unit at the trip level freezes its core alone."""
        trip = CFG.threshold_c - DEFAULT_TRIP_MARGIN_C
        truth = np.array(
            [[60.0, trip], [60.0, 61.0], [61.0, 60.0], [60.0, 61.0]]
        )
        hot, scales = step0(path, monkeypatch, truth, CFG)
        assert hot == [trip, 61.0, 61.0, 61.0]
        assert scales == [0.0, 1.0, 1.0, 1.0]
