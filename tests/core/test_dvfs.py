"""Tests for the PI-DVFS policy and the actuator."""

import pytest

from repro.core.dvfs import DVFSActuator, DVFSPolicy

DT = 100_000 / 3.6e9


def readings(*temps):
    """Per-core hottest readings, as the engine hands them to a policy."""
    return [float(t) for t in temps]


class TestDistributedDVFS:
    def test_cool_cores_full_speed(self):
        p = DVFSPolicy(4, dt=DT)
        scales = p.scales_from_hottest(0.0, readings(60, 60, 60, 60))
        assert scales == [1.0] * 4

    def test_hot_core_throttles_independently(self):
        p = DVFSPolicy(4, dt=DT)
        for k in range(500):
            scales = p.scales_from_hottest(k * DT, readings(95, 60, 60, 60))
        assert scales[0] < 1.0
        assert scales[1] == 1.0

    def test_hottest_sensor_governs(self):
        """The controller "selects the hottest of the input temperatures":
        a global controller fed a cool and a hot core steps exactly as a
        distributed one fed the hot core alone."""
        chip = DVFSPolicy(2, dt=DT, scope="global")
        alone = DVFSPolicy(1, dt=DT)
        for k in range(500):
            hot_second = chip.scales_from_hottest(k * DT, readings(60, 95))
            reference = alone.scales_from_hottest(k * DT, readings(95))
        assert hot_second == reference * 2
        assert reference[0] < 1.0

    def test_output_floor(self):
        p = DVFSPolicy(1, dt=DT)
        for k in range(20_000):
            scales = p.scales_from_hottest(k * DT, readings(130))
        assert scales[0] == pytest.approx(0.2)

    def test_setpoint_below_threshold(self):
        p = DVFSPolicy(1, dt=DT, threshold_c=84.2, setpoint_margin_c=2.0)
        assert p.setpoint_c == pytest.approx(82.2)


class TestGlobalDVFS:
    def test_single_controller(self):
        p = DVFSPolicy(4, dt=DT, scope="global")
        assert len(p.controllers) == 1

    def test_one_hot_core_slows_everyone(self):
        p = DVFSPolicy(4, dt=DT, scope="global")
        for k in range(500):
            scales = p.scales_from_hottest(k * DT, readings(95, 60, 60, 60))
        assert len(set(scales)) == 1
        assert scales[0] < 1.0

    def test_controller_for_maps_all_cores(self):
        p = DVFSPolicy(4, dt=DT, scope="global")
        assert p.controller_for(0) is p.controller_for(3)


class TestFeedback:
    def test_average_scale_window(self):
        p = DVFSPolicy(1, dt=DT)
        for k in range(300):
            p.scales_from_hottest(k * DT, readings(95))
        assert p.average_scale(0) < 1.0
        saturated = p.average_scale(0)
        p.reset_window(0)
        # Recovery is not instant (incremental PI), but a handful of cool
        # samples lifts the fresh window well above the saturated average.
        for k in range(20):
            p.scales_from_hottest((301 + k) * DT, readings(60))
        assert p.average_scale(0) > max(0.8, saturated)

    def test_on_migration_resets_window_not_output(self):
        p = DVFSPolicy(2, dt=DT)
        for k in range(1000):
            p.scales_from_hottest(k * DT, readings(95, 60))
        before = p.controller_for(0).output
        p.on_migration([0], 1000 * DT)
        assert p.controller_for(0).output == before  # output survives
        assert p.average_scale(0) == pytest.approx(before)  # fresh window


class TestValidation:
    def test_bad_scope(self):
        with pytest.raises(ValueError):
            DVFSPolicy(4, dt=DT, scope="per-cluster")

    def test_bad_margin(self):
        with pytest.raises(ValueError):
            DVFSPolicy(4, dt=DT, setpoint_margin_c=-1.0)


class TestActuator:
    def test_small_change_ignored(self):
        """Changes below 2% of the range don't re-lock the PLL."""
        a = DVFSActuator()
        assert a.request(0.995) == 0.0
        assert a.current_scale == 1.0
        assert a.transitions == 0

    def test_large_change_penalised(self):
        a = DVFSActuator()
        penalty = a.request(0.8)
        assert penalty == pytest.approx(10e-6)
        assert a.current_scale == 0.8
        assert a.transitions == 1

    def test_threshold_is_fraction_of_range(self):
        # 2% of the [0.2, 1.0] range = 0.016.
        a = DVFSActuator()
        assert a.request(1.0 - 0.015) == 0.0
        assert a.request(1.0 - 0.017) > 0.0

    def test_repeat_request_free(self):
        a = DVFSActuator()
        a.request(0.7)
        assert a.request(0.7) == 0.0

    def test_rejects_zero_scale(self):
        with pytest.raises(ValueError):
            DVFSActuator().request(0.0)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            DVFSActuator(transition_penalty_s=-1.0)
        with pytest.raises(ValueError):
            DVFSActuator(min_transition=1.0)
