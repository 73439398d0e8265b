"""Periodic OS timer interrupts.

"Timer interrupts from a typical OS happen on the order of a millisecond
apart" (Section 2.5); the migration machinery is invoked from the timer
path but acts "no more than once every 10 milliseconds" (Section 6). The
:class:`PeriodicTimer` provides both: a tick period and a helper for
rate-limiting actions to a minimum separation.
"""

from __future__ import annotations

#: Default migration-decision period (the Linux-kernel-style 10 ms).
DEFAULT_MIGRATION_PERIOD_S = 10e-3

#: Slack added to the clock before comparing it with a firing time, so a
#: period boundary reached through accumulated float steps still fires.
FIRE_SLACK_S = 1e-15


class PeriodicTimer:
    """Fires at a fixed period against an externally advancing clock.

    The simulation engine advances time in trace-sample steps and polls
    :meth:`fire_due` once per step; the timer guarantees exactly one
    firing per elapsed period regardless of step granularity.
    """

    def __init__(self, period_s: float, start_s: float = 0.0):
        if not period_s > 0:
            raise ValueError(f"period_s must be positive: {period_s}")
        self.period_s = float(period_s)
        self._next_fire_s = start_s + self.period_s

    def fire_due(self, now_s: float) -> bool:
        """True exactly once per period as ``now_s`` sweeps past it."""
        if now_s + FIRE_SLACK_S >= self._next_fire_s:
            # Skip any fully elapsed periods (coarse caller steps).
            while self._next_fire_s <= now_s + FIRE_SLACK_S:
                self._next_fire_s += self.period_s
            return True
        return False

    @property
    def next_fire_s(self) -> float:
        """Time of the next scheduled firing."""
        return self._next_fire_s

    def reset(self, now_s: float) -> None:
        """Restart the period from ``now_s``."""
        self._next_fire_s = now_s + self.period_s


class RateLimiter:
    """Enforces a minimum separation between actions.

    Used for the migration eligibility rule: "if this happens more often
    than 10 milliseconds, extra requests are simply ignored".
    """

    def __init__(self, min_separation_s: float):
        if not min_separation_s > 0:
            raise ValueError(
                f"min_separation_s must be positive: {min_separation_s}"
            )
        self.min_separation_s = float(min_separation_s)
        self._last_action_s = -float("inf")

    def allow(self, now_s: float) -> bool:
        """Whether an action at ``now_s`` is permitted (does not record it)."""
        return now_s - self._last_action_s + 1e-15 >= self.min_separation_s

    def record(self, now_s: float) -> None:
        """Record that an action happened at ``now_s``."""
        self._last_action_s = now_s

    def try_acquire(self, now_s: float) -> bool:
        """Atomically check and record."""
        if self.allow(now_s):
            self.record(now_s)
            return True
        return False
