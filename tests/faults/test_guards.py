"""Tests for the sensor-sanity watchdog and blind stop-go fallback."""

import numpy as np
import pytest

from repro.faults.guards import GuardConfig, SensorGuardBank

DT = 27.78e-6
UNITS = ("intreg", "fpreg")


def bank(n_cores=2, **cfg):
    return SensorGuardBank(
        n_cores, len(UNITS), DT, GuardConfig(**cfg)
    )


def readings(*core_temps):
    """One ``(n_cores, units)`` reading array, columns in UNITS order."""
    return np.array(core_temps, dtype=float)


class TestGuardConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            GuardConfig(stuck_steps=1)
        with pytest.raises(ValueError):
            GuardConfig(min_plausible_c=50.0, max_plausible_c=50.0)
        with pytest.raises(ValueError):
            GuardConfig(max_step_c=0.0)
        with pytest.raises(ValueError):
            GuardConfig(recovery_steps=0)
        with pytest.raises(ValueError):
            GuardConfig(fallback_period_s=0.0)
        with pytest.raises(ValueError):
            GuardConfig(fallback_duty=0.0)
        with pytest.raises(ValueError):
            GuardConfig(fallback_duty=1.1)

    def test_hashable_for_cache_key(self):
        assert hash(GuardConfig()) == hash(GuardConfig())


class TestWatchdog:
    def test_sane_readings_never_trip(self):
        g = bank()
        for i in range(100):
            t = 60.0 + 0.01 * i
            assert g.observe(i * DT, readings((t, t + 1), (t, t - 1))) == []
        assert g.trips == 0

    def test_nan_trips_immediately(self):
        g = bank()
        assert g.observe(0.0, readings((float("nan"), 60.0), (60.0, 60.0))) == [
            (0, "trip")
        ]
        assert g.in_fallback(0) and not g.in_fallback(1)

    def test_out_of_band_trips(self):
        g = bank()
        assert g.observe(0.0, readings((200.0, 60.0), (60.0, 60.0))) == [
            (0, "trip")
        ]
        g2 = bank()
        assert g2.observe(0.0, readings((-20.0, 60.0), (60.0, 60.0))) == [
            (0, "trip")
        ]

    def test_implausible_jump_trips(self):
        g = bank(max_step_c=15.0)
        assert g.observe(0.0, readings((60.0, 60.0), (60.0, 60.0))) == []
        assert g.observe(DT, readings((60.0, 60.0), (90.0, 60.0))) == [
            (1, "trip")
        ]

    def test_first_sample_cannot_jump(self):
        g = bank(max_step_c=15.0)
        # No previous sample: a hot-but-plausible first reading is fine.
        assert g.observe(0.0, readings((120.0, 60.0), (60.0, 60.0))) == []

    def test_stuck_streak_trips(self):
        g = bank(stuck_steps=5)
        trans = []
        for i in range(6):
            trans += g.observe(i * DT, readings((61.0, 60.0 + 0.01 * i),
                                                (60.0 + 0.02 * i, 60.0 + 0.01 * i)))
        assert trans == [(0, "trip")]

    def test_wandering_channel_resets_stuck_streak(self):
        g = bank(stuck_steps=5)
        for i in range(50):
            # Alternate by one quantization grid: never stuck.
            t = 61.0 + (i % 2)
            assert g.observe(i * DT, readings((t, 60.0 + 0.01 * i),
                                              (t, 60.0 + 0.01 * i))) == []

    def test_recovery_after_sane_streak(self):
        g = bank(recovery_steps=3)
        g.observe(0.0, readings((float("nan"), 60.0), (60.0, 60.0)))
        assert g.in_fallback(0)
        trans = []
        for i in range(1, 5):
            trans += g.observe(i * DT, readings((60.0 + 0.01 * i, 60.0),
                                                (60.0, 60.0)))
        assert trans == [(0, "clear")]
        assert not g.in_fallback(0)
        assert g.clears == 1

    def test_suspect_reading_resets_recovery_streak(self):
        g = bank(recovery_steps=3)
        g.observe(0.0, readings((float("nan"), 60.0), (60.0, 60.0)))
        g.observe(DT, readings((60.0, 60.0), (60.0, 60.0)))
        g.observe(2 * DT, readings((float("nan"), 60.0), (60.0, 60.0)))
        for i in range(3, 5):
            g.observe(i * DT, readings((60.0 + 0.01 * i, 60.0), (60.0, 60.0)))
        assert g.in_fallback(0)  # streak restarted, not yet recovered

    def test_shape_mismatch_rejected(self):
        g = bank()
        with pytest.raises(ValueError):
            g.observe(0.0, np.array([[60.0], [60.0]]))


class TestFallbackOverride:
    def test_no_override_while_trusted(self):
        g = bank()
        g.observe(0.0, readings((60.0, 60.0), (60.0, 60.0)))
        assert g.override(0, 0.0) is None

    def test_blind_duty_cycle_phased_from_trip(self):
        period, duty = 30e-3, 0.5
        g = bank(fallback_period_s=period, fallback_duty=duty)
        trip_t = 0.004
        g.observe(trip_t, readings((float("nan"), 60.0), (60.0, 60.0)))
        # Run phase, then gated phase, repeating with the period.
        assert g.override(0, trip_t) == 1.0
        assert g.override(0, trip_t + 0.4 * period) == 1.0
        assert g.override(0, trip_t + 0.6 * period) == 0.0
        assert g.override(0, trip_t + 1.4 * period) == 1.0
        assert g.override(0, trip_t + 1.6 * period) == 0.0
        # The untripped core is never overridden.
        assert g.override(1, trip_t) is None

    def test_fallback_accounting(self):
        g = bank(recovery_steps=1000)
        g.observe(0.0, readings((float("nan"), 60.0), (60.0, 60.0)))
        for i in range(1, 11):
            g.observe(i * DT, readings((60.0 + 0.01 * i, 60.0), (60.0, 60.0)))
        assert g.fallback_steps == 10
        assert g.fallback_s == pytest.approx(10 * DT)
        assert g.trips == 1
