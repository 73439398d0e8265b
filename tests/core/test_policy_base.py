"""Tests for the throttle-policy base class contract."""

import pytest

from repro.core.policy import DEFAULT_THRESHOLD_C, ThrottlePolicy


class _Constant(ThrottlePolicy):
    """Minimal concrete policy for exercising the base class."""

    kind = "test"

    def scales_from_hottest(self, time_s, hottest):
        return [1.0] * self.n_cores


class TestBaseClass:
    def test_default_threshold_is_papers(self):
        assert DEFAULT_THRESHOLD_C == pytest.approx(84.2)

    def test_core_count_validation(self):
        with pytest.raises(ValueError):
            _Constant(0)

    def test_default_feedback_surface(self):
        """Policies that don't override the feedback hooks behave sanely:
        full-speed average, no-op resets and migration notifications."""
        policy = _Constant(2)
        assert policy.average_scale(0) == 1.0
        policy.reset_window(1)
        policy.on_migration([0, 1], 0.5)  # must not raise

    def test_custom_threshold_stored(self):
        assert _Constant(2, threshold_c=100.0).threshold_c == 100.0
