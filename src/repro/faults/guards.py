"""Sensor-sanity watchdog and graceful-degradation fallback.

A DTM policy fed a stuck or implausible sensor is worse than no policy:
a channel stuck *low* silently disables throttling while the silicon
cooks, and a NaN or physically impossible reading can drive a PI
controller to garbage. The guard layer is the production-grade defense
the paper's idealized setting never needed:

* a per-channel **watchdog** flags a reading as *implausible* (NaN,
  outside a plausible temperature band, or jumping further in one sample
  period than silicon thermal mass allows) and as *stuck* (bit-identical
  for an implausibly long streak — silicon temperature under closed-loop
  control never sits perfectly still for tens of milliseconds unless the
  readings are quantized, which the default streak length accommodates);
* when any channel of a core trips, the core **falls back from its
  closed-loop throttle to blind stop-go**: a fixed, sensor-independent
  duty cycle that bounds the core's power by construction. DVFS cannot
  be trusted with garbage feedback, but periodic clock gating needs no
  feedback at all — this is the graceful-degradation path, and the
  robustness harness evaluates its cost like any other mechanism;
* a tripped core **recovers** after its readings stay sane for a
  configurable streak, returning control to the policy.

The guard observes exactly what the policy observes (post-fault
readings); it has no access to ground truth. Detection is therefore
fallible in both directions — which is the point of evaluating it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np


@dataclass(frozen=True)
class GuardConfig:
    """Configuration of the sensor-sanity guard layer.

    Attributes
    ----------
    stuck_steps:
        Consecutive bit-identical samples on one channel before it is
        declared stuck. At the 27.78 us sample period the default
        (1440 steps = ~40 ms) is several thermal time constants — real
        controlled silicon wanders by more than one quantization grid
        over that horizon.
    min_plausible_c / max_plausible_c:
        Physical plausibility band; readings outside it (or NaN) trip
        immediately.
    max_step_c:
        Largest credible single-sample change. Thermal mass limits true
        silicon to small fractions of a degree per 27.78 us; the default
        (15 C) only catches gross transients (spikes, rail shorts).
    recovery_steps:
        Consecutive sane samples on every channel of a tripped core
        before control returns to the policy.
    fallback_period_s / fallback_duty:
        The blind stop-go law applied while tripped: each period the
        core runs for ``duty`` of the period and is clock-gated for the
        rest, phase-anchored at the trip instant.
    """

    stuck_steps: int = 1440
    min_plausible_c: float = 0.0
    max_plausible_c: float = 150.0
    max_step_c: float = 15.0
    recovery_steps: int = 360
    fallback_period_s: float = 30e-3
    fallback_duty: float = 0.5

    def __post_init__(self):
        """Validate thresholds, streak lengths and the fallback law."""
        if not self.stuck_steps >= 2:
            raise ValueError(f"stuck_steps must be >= 2: {self.stuck_steps}")
        if not self.max_plausible_c > self.min_plausible_c:
            raise ValueError(
                "plausibility band is empty: "
                f"[{self.min_plausible_c}, {self.max_plausible_c}]"
            )
        if not self.max_step_c > 0:
            raise ValueError(f"max_step_c must be positive: {self.max_step_c}")
        if not self.recovery_steps >= 1:
            raise ValueError(
                f"recovery_steps must be >= 1: {self.recovery_steps}"
            )
        if not self.fallback_period_s > 0:
            raise ValueError(
                f"fallback_period_s must be positive: {self.fallback_period_s}"
            )
        if not 0.0 < self.fallback_duty <= 1.0:
            raise ValueError(
                f"fallback_duty must be in (0, 1]: {self.fallback_duty}"
            )


class SensorGuardBank:
    """Per-core sensor watchdogs plus the blind stop-go fallback.

    The engine calls :meth:`observe` once per step with the readings the
    policies are about to see, then :meth:`override` per core to learn
    whether (and how) the guard overrides the policy's scale.
    """

    def __init__(
        self, n_cores: int, n_units: int, dt: float, config: GuardConfig
    ):
        """Size the watchdog state for ``n_cores`` x ``n_units`` channels."""
        if n_cores < 1 or n_units < 1:
            raise ValueError("need at least one core and one unit")
        if not dt > 0:
            raise ValueError(f"dt must be positive: {dt}")
        self.config = config
        self.n_cores = n_cores
        self.n_units = n_units
        self.dt = dt

        self._prev = np.full((n_cores, n_units), np.nan)
        self._have_prev = False
        self._stuck_streak = np.zeros((n_cores, n_units), dtype=int)
        self._sane_streak = np.zeros(n_cores, dtype=int)
        self._fallback = [False] * n_cores
        self._trip_time_s = [0.0] * n_cores

        #: Watchdog trips over the run (fallback entries).
        self.trips = 0
        #: Recoveries (fallback exits) over the run.
        self.clears = 0
        #: Core-steps spent under fallback control.
        self.fallback_steps = 0

    @property
    def fallback_s(self) -> float:
        """Total core-seconds spent in fallback."""
        return self.fallback_steps * self.dt

    def _suspect_cores(self, temps: np.ndarray) -> np.ndarray:
        """Per-core suspicion verdict for this step's readings."""
        cfg = self.config
        implausible = (
            np.isnan(temps)
            | (temps < cfg.min_plausible_c)
            | (temps > cfg.max_plausible_c)
        )
        if self._have_prev:
            delta = np.abs(temps - self._prev)
            # NaN deltas (NaN now or before) are already implausible.
            jumped = np.nan_to_num(delta, nan=0.0) > cfg.max_step_c
            same = (temps == self._prev) | (
                np.isnan(temps) & np.isnan(self._prev)
            )
            self._stuck_streak = np.where(same, self._stuck_streak + 1, 0)
        else:
            jumped = np.zeros_like(implausible)
        stuck = self._stuck_streak >= (cfg.stuck_steps - 1)
        return (implausible | jumped | stuck).any(axis=1)

    def observe(
        self, time_s: float, temps: np.ndarray
    ) -> List[Tuple[int, str]]:
        """Fold one step of readings into the watchdog state.

        ``temps`` is the ``(n_cores, n_units)`` reading array the
        policies see, columns in ``HOTSPOT_UNITS`` order. Returns
        ``(core, "trip"|"clear")`` transitions in core order (empty on
        steady states).
        """
        # A copy: the bank keeps this step's readings for the next one.
        temps = np.array(temps, dtype=float)
        if temps.shape != (self.n_cores, self.n_units):
            raise ValueError(
                f"expected readings shaped {(self.n_cores, self.n_units)}, "
                f"got {temps.shape}"
            )
        suspect = self._suspect_cores(temps)
        self._prev = temps
        self._have_prev = True

        transitions: List[Tuple[int, str]] = []
        for c in range(self.n_cores):
            if self._fallback[c]:
                self.fallback_steps += 1
                if suspect[c]:
                    self._sane_streak[c] = 0
                else:
                    self._sane_streak[c] += 1
                    if self._sane_streak[c] >= self.config.recovery_steps:
                        self._fallback[c] = False
                        self._sane_streak[c] = 0
                        self.clears += 1
                        transitions.append((c, "clear"))
            elif suspect[c]:
                self._fallback[c] = True
                self._trip_time_s[c] = time_s
                self._sane_streak[c] = 0
                self.trips += 1
                transitions.append((c, "trip"))
        return transitions

    def override(self, core: int, time_s: float) -> Optional[float]:
        """The guard's scale override for ``core`` at ``time_s``.

        ``None`` while the core's sensors are trusted; otherwise the
        blind stop-go fallback's 1.0 (run) or 0.0 (clock-gated), phased
        from the trip instant.
        """
        if not self._fallback[core]:
            return None
        cfg = self.config
        phase = (time_s - self._trip_time_s[core]) % cfg.fallback_period_s
        return 1.0 if phase < cfg.fallback_duty * cfg.fallback_period_s else 0.0

    def in_fallback(self, core: int) -> bool:
        """Whether ``core`` is currently under fallback control."""
        return self._fallback[core]
