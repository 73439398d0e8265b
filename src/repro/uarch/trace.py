"""Power-trace container.

A :class:`PowerTrace` is the interface between the offline performance/
power simulation and the online thermal/timing simulation — exactly the
role of the paper's Turandot+PowerTimer output files. Each trace holds,
per 100,000-cycle sample: dynamic power per core unit (at nominal V/f),
shared-L2 activity, retired instructions, and the register-file access
counters consumed by counter-based migration.

Traces are finite (0.25 s by default) and replayed circularly: "when a
power trace ... is completed before the end of the simulation, that trace
is restarted at the beginning" (Section 3.3). The engine tracks a
fractional *position* in full-speed sample units; under DVFS the position
advances at the frequency-scale rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict

import numpy as np

from repro.uarch.interval_model import UNIT_ORDER


@dataclass(frozen=True)
class PowerTrace:
    """Recorded behaviour of one benchmark at nominal voltage/frequency."""

    benchmark: str
    sample_period_s: float
    sample_cycles: int
    unit_power: np.ndarray       # (n, n_units) dynamic W, UNIT_ORDER columns
    l2_activity: np.ndarray      # (n,)
    instructions: np.ndarray     # (n,)
    int_rf_accesses: np.ndarray  # (n,)
    fp_rf_accesses: np.ndarray   # (n,)

    def __post_init__(self):
        n = self.unit_power.shape[0]
        if self.unit_power.ndim != 2 or self.unit_power.shape[1] != len(UNIT_ORDER):
            raise ValueError(
                f"unit_power must be (n, {len(UNIT_ORDER)}), got "
                f"{self.unit_power.shape}"
            )
        for name in ("l2_activity", "instructions", "int_rf_accesses",
                     "fp_rf_accesses"):
            arr = getattr(self, name)
            if arr.shape != (n,):
                raise ValueError(f"{name} must have shape ({n},), got {arr.shape}")
        if n < 1:
            raise ValueError("trace must contain at least one sample")
        if not self.sample_period_s > 0:
            raise ValueError("sample_period_s must be positive")

    @property
    def n_samples(self) -> int:
        """Number of samples in the trace."""
        return self.unit_power.shape[0]

    @property
    def duration_s(self) -> float:
        """Full-speed duration of one pass through the trace."""
        return self.n_samples * self.sample_period_s

    def sample_index(self, position: float) -> int:
        """Circular sample index for a fractional position."""
        return int(position) % self.n_samples

    def unit_power_at(self, position: float) -> np.ndarray:
        """Per-unit dynamic power at a trace position (nominal V/f)."""
        return self.unit_power[self.sample_index(position)]

    def counters_at(self, position: float) -> Dict[str, float]:
        """Counter values of the sample at a trace position.

        These are *per full sample* values; the engine pro-rates them by
        the fraction of a sample actually executed in a wall-clock step.
        """
        i = self.sample_index(position)
        return {
            "instructions": float(self.instructions[i]),
            "int_rf_accesses": float(self.int_rf_accesses[i]),
            "fp_rf_accesses": float(self.fp_rf_accesses[i]),
        }

    # Trace means, computed once per trace: the engine's warm-start
    # bisection reads them up to a dozen times a run, and at full-trace
    # length each fresh ``.mean()`` costs more than an engine step.
    # ``cached_property`` keeps them in the instance ``__dict__``, past
    # the frozen dataclass's ``__setattr__``; equality and hashing still
    # see only the fields.

    @cached_property
    def unit_power_mean(self) -> np.ndarray:
        """Per-unit dynamic power averaged over the trace (read-only)."""
        mean = self.unit_power.mean(axis=0)
        mean.flags.writeable = False
        return mean

    @cached_property
    def l2_activity_mean(self) -> float:
        """L2 activity averaged over the trace."""
        return float(self.l2_activity.mean())

    @property
    def mean_core_power_w(self) -> float:
        """Average core dynamic power over the trace (nominal V/f)."""
        return float(self.unit_power.sum(axis=1).mean())

    @property
    def nominal_bips(self) -> float:
        """Unthrottled throughput in billions of instructions per second."""
        total_instructions = float(self.instructions.sum())
        return total_instructions / self.duration_s / 1e9

    def mean_unit_power(self, unit: str) -> float:
        """Average dynamic power of one unit over the trace."""
        return float(self.unit_power[:, UNIT_ORDER.index(unit)].mean())
