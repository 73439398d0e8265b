"""Tests for periodic timers and rate limiting."""

import pytest

from repro.osmodel.timer import (
    DEFAULT_MIGRATION_PERIOD_S,
    PeriodicTimer,
    RateLimiter,
)


class TestPeriodicTimer:
    def test_fires_once_per_period(self):
        t = PeriodicTimer(10e-3)
        fires = [t.fire_due(k * 1e-3) for k in range(35)]
        assert sum(fires) == 3  # at 10, 20, 30 ms

    def test_does_not_fire_early(self):
        t = PeriodicTimer(10e-3)
        assert not t.fire_due(9.9e-3)
        assert t.fire_due(10.0e-3)

    def test_coarse_steps_skip_missed_periods(self):
        """Jumping far ahead yields one firing, not a backlog."""
        t = PeriodicTimer(10e-3)
        assert t.fire_due(45e-3)
        assert not t.fire_due(46e-3)
        assert t.fire_due(50e-3)

    def test_next_fire_property(self):
        t = PeriodicTimer(10e-3, start_s=5e-3)
        assert t.next_fire_s == pytest.approx(15e-3)

    def test_reset(self):
        t = PeriodicTimer(10e-3)
        t.fire_due(10e-3)
        t.reset(12e-3)
        assert t.next_fire_s == pytest.approx(22e-3)

    @pytest.mark.parametrize(
        "period,dt",
        [(10e-3, 100_000 / 3.6e9), (1e-3, 1e-4), (2.5e-4, 1e-4), (1e-5, 1e-4)],
    )
    def test_next_due_step_names_the_steps_per_step_polling_fires(
        self, period, dt
    ):
        polled = PeriodicTimer(period)
        every = [s for s in range(2000) if polled.fire_due(s * dt)]
        jumping = PeriodicTimer(period)
        named = []
        step = jumping.next_due_step(dt)
        while step < 2000:
            assert jumping.fire_due(step * dt)
            named.append(step)
            step = jumping.next_due_step(dt, step + 1)
        assert named == every

    def test_default_period_is_10ms(self):
        assert DEFAULT_MIGRATION_PERIOD_S == pytest.approx(10e-3)

    def test_rejects_bad_period(self):
        with pytest.raises(ValueError):
            PeriodicTimer(0.0)

    def test_float_accumulation_robust(self):
        """Thousands of tiny steps still fire exactly once per period."""
        t = PeriodicTimer(10e-3)
        dt = 27.78e-6
        fires = sum(t.fire_due(k * dt) for k in range(36_000))  # ~1 s
        assert fires == 99 or fires == 100


class TestRateLimiter:
    def test_first_action_allowed(self):
        r = RateLimiter(10e-3)
        assert r.allow(0.0)

    def test_too_soon_denied(self):
        """"extra requests are simply ignored" (Section 6.1)."""
        r = RateLimiter(10e-3)
        r.record(0.0)
        assert not r.allow(5e-3)
        assert r.allow(10e-3)

    def test_allow_does_not_record(self):
        r = RateLimiter(10e-3)
        assert r.allow(0.0)
        assert r.allow(0.0)  # still allowed: nothing recorded

    def test_try_acquire(self):
        r = RateLimiter(10e-3)
        assert r.try_acquire(0.0)
        assert not r.try_acquire(1e-3)
        assert r.try_acquire(10.1e-3)

    def test_rejects_bad_separation(self):
        with pytest.raises(ValueError):
            RateLimiter(0.0)
