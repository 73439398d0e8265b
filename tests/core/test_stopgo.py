"""Tests for the stop-go throttling policy."""

import pytest

from repro.core.stopgo import DEFAULT_FREEZE_S, StopGoPolicy


def readings(*temps):
    """Per-core hottest readings, as the engine hands them to a policy."""
    return [float(t) for t in temps]


class TestDistributed:
    def test_cool_cores_run(self):
        p = StopGoPolicy(4)
        assert p.scales_from_hottest(0.0, readings(60, 60, 60, 60)) == [1.0] * 4

    def test_hot_core_freezes_alone(self):
        p = StopGoPolicy(4)
        scales = p.scales_from_hottest(0.0, readings(84.1, 60, 60, 60))
        assert scales == [0.0, 1.0, 1.0, 1.0]
        assert p.trip_count == 1

    def test_freeze_lasts_30ms(self):
        p = StopGoPolicy(4)
        p.scales_from_hottest(0.0, readings(84.1, 60, 60, 60))
        # Core stays frozen even after it cools, until 30 ms elapse.
        assert p.scales_from_hottest(0.015, readings(70, 60, 60, 60))[0] == 0.0
        thawed = p.scales_from_hottest(
            DEFAULT_FREEZE_S + 1e-6, readings(70, 60, 60, 60)
        )
        assert thawed[0] == 1.0

    def test_no_retrigger_while_frozen(self):
        p = StopGoPolicy(4)
        p.scales_from_hottest(0.0, readings(84.1, 60, 60, 60))
        p.scales_from_hottest(0.001, readings(84.1, 60, 60, 60))
        assert p.trip_count == 1

    def test_trip_level_just_below_threshold(self):
        p = StopGoPolicy(1, threshold_c=84.2)
        assert p.trip_temperature_c == pytest.approx(84.0)
        assert p.scales_from_hottest(0.0, readings(83.9)) == [1.0]
        assert p.scales_from_hottest(0.0, readings(84.0)) == [0.0]



class TestGlobal:
    def test_one_trip_freezes_all(self):
        p = StopGoPolicy(4, scope="global")
        scales = p.scales_from_hottest(0.0, readings(84.1, 60, 60, 60))
        assert scales == [0.0] * 4

    def test_whole_chip_resumes_together(self):
        p = StopGoPolicy(4, scope="global")
        p.scales_from_hottest(0.0, readings(84.1, 60, 60, 60))
        assert p.scales_from_hottest(
            DEFAULT_FREEZE_S + 1e-6, readings(60, 60, 60, 60)
        ) == [1.0] * 4


class TestFeedbackWindow:
    def test_duty_fraction_reported(self):
        p = StopGoPolicy(1)
        p.scales_from_hottest(0.0, readings(84.1))  # trips -> frozen
        for k in range(1, 10):
            p.scales_from_hottest(k * 1e-3, readings(70))
        # 10 observations, all frozen.
        assert p.average_scale(0) == pytest.approx(0.0)
        p.reset_window(0)
        p.scales_from_hottest(0.05, readings(70))
        assert p.average_scale(0) == pytest.approx(1.0)

    def test_default_window_is_full_speed(self):
        assert StopGoPolicy(2).average_scale(1) == 1.0


class TestMigrationInteraction:
    def test_migration_cancels_freeze(self):
        """Swapping a new thread onto a frozen core resumes it — the trip
        re-fires if the hotspot is still at the threshold."""
        p = StopGoPolicy(4)
        p.scales_from_hottest(0.0, readings(84.1, 60, 60, 60))
        assert p.is_frozen(0, 0.001)
        p.on_migration([0], 0.001)
        assert not p.is_frozen(0, 0.0011)
        # Still hot -> re-trips immediately on the next evaluation.
        scales = p.scales_from_hottest(0.002, readings(84.1, 60, 60, 60))
        assert scales[0] == 0.0
        assert p.trip_count == 2

    def test_migration_resets_window(self):
        p = StopGoPolicy(2)
        p.scales_from_hottest(0.0, readings(84.1, 60))
        p.on_migration([0], 0.001)
        assert p.average_scale(0) == 1.0  # fresh window


class TestValidation:
    def test_bad_scope(self):
        with pytest.raises(ValueError):
            StopGoPolicy(4, scope="clustered")

    def test_bad_freeze(self):
        with pytest.raises(ValueError):
            StopGoPolicy(4, freeze_s=0.0)
