"""PowerTimer-style power model: activity factors to per-unit watts.

Each unit has an unconstrained (peak) dynamic power at nominal voltage and
frequency; effective power scales with the unit's activity factor on top
of a conditional-clock-gating floor (an idle unit still burns clock-grid
and latch power). The same approach PowerTimer takes — "component power
across simulation intervals is calculated by scaling according to the
counts of various architectural events".

The budget is calibrated so a hot benchmark (gzip, sixtrack) draws
~27-30 W of core dynamic power at 3.6 GHz / 1.0 V / 90 nm, with the
register files as the dominant power *densities* — the paper's hotspots.

Voltage/frequency scaling: dynamic power follows the cubic relation the
paper uses (``P ~ f V^2`` with ``V`` tracking ``f``); leakage follows
``V^2``. Those scalings are applied by the thermal/timing engine, not
here — traces store nominal-condition power.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.uarch.config import MachineConfig
from repro.uarch.interval_model import UNIT_ORDER, IntervalStats

#: Peak (activity = 1) dynamic power per core unit, watts.
UNIT_PEAK_DYNAMIC_W: Dict[str, float] = {
    "icache": 5.5,
    "dcache": 6.4,
    "bpred": 3.2,
    "decode": 6.9,
    "iq": 6.4,
    "lsu": 6.4,
    "fxu": 6.4,
    "intreg": 9.9,
    "bxu": 2.3,
    "fpreg": 9.9,
    "fpu": 9.2,
}

#: Fraction of peak burned by an active core's idle unit (clock grid,
#: latches) under conditional clock gating.
IDLE_POWER_FRACTION = 0.15

#: Per-unit overrides of the gating floor. Register files gate their
#: ports aggressively (a port not being read clocks nothing), so an RF
#: that a thread barely touches cools well below the core average — the
#: unit-level asymmetry the migration policies exploit.
UNIT_IDLE_FRACTION: Dict[str, float] = {
    "intreg": 0.05,
    "fpreg": 0.05,
    "fpu": 0.08,
    "fxu": 0.10,
}

#: Peak dynamic power of one L2 bank (of four) and its gating floor.
L2_BANK_PEAK_W = 3.7
L2_IDLE_FRACTION = 0.25

#: Crossbar/interconnect strip power: floor plus traffic-dependent part.
XBAR_PEAK_W = 2.75
XBAR_IDLE_FRACTION = 0.3

#: Chip-wide leakage at the 85 C reference temperature (W). Roughly 20%
#: of realistic maximum chip power, the commonly-cited 90 nm share.
CHIP_REFERENCE_LEAKAGE_W = 32.0


@dataclass(frozen=True)
class PowerModel:
    """Converts interval activity into per-unit dynamic power.

    ``scale`` uniformly scales every peak value — used by sensitivity
    ablations and by the mobile (Table 1) configuration, where the lower
    clock and supply shrink the budget.
    """

    config: MachineConfig
    scale: float = 1.0

    def __post_init__(self):
        if not self.scale > 0:
            raise ValueError(f"scale must be positive: {self.scale}")

    @property
    def unit_peaks(self) -> np.ndarray:
        """Peak watts per unit in :data:`UNIT_ORDER` order."""
        return self.scale * np.array([UNIT_PEAK_DYNAMIC_W[u] for u in UNIT_ORDER])

    def core_unit_power(self, stats: IntervalStats) -> np.ndarray:
        """Per-interval, per-unit dynamic power, shape ``(n, n_units)``.

        ``P_unit = peak * (idle_fraction + (1 - idle_fraction) * activity)``
        with per-unit gating floors from :data:`UNIT_IDLE_FRACTION`.
        """
        peaks = self.unit_peaks
        floors = np.array(
            [UNIT_IDLE_FRACTION.get(u, IDLE_POWER_FRACTION) for u in UNIT_ORDER]
        )
        return peaks[None, :] * (
            floors[None, :] + (1.0 - floors[None, :]) * stats.unit_activity
        )

    def l2_bank_power(self, stats: IntervalStats) -> np.ndarray:
        """Per-interval dynamic power of the L2 bank this thread exercises."""
        return (
            self.scale
            * L2_BANK_PEAK_W
            * (L2_IDLE_FRACTION + (1.0 - L2_IDLE_FRACTION) * stats.l2_activity)
        )

    def xbar_power(self, total_l2_activity: np.ndarray) -> np.ndarray:
        """Crossbar power from summed L2 traffic (chip-level, engine-side)."""
        activity = np.clip(np.asarray(total_l2_activity, dtype=float), 0.0, 1.0)
        return (
            self.scale
            * XBAR_PEAK_W
            * (XBAR_IDLE_FRACTION + (1.0 - XBAR_IDLE_FRACTION) * activity)
        )

    @property
    def reference_leakage_w(self) -> float:
        """Chip leakage at the reference temperature, for the leakage model."""
        return self.scale * CHIP_REFERENCE_LEAKAGE_W


def dynamic_power_scale(frequency_scale: float) -> float:
    """Cubic DVFS power scaling (``P ~ f V^2``, ``V`` tracking ``f``)."""
    if not 0.0 <= frequency_scale <= 1.0:
        raise ValueError(f"frequency_scale must be in [0,1]: {frequency_scale}")
    return frequency_scale ** 3


def leakage_voltage_scale(frequency_scale: float) -> float:
    """Quadratic supply-voltage dependence of leakage under DVFS."""
    if not 0.0 <= frequency_scale <= 1.0:
        raise ValueError(f"frequency_scale must be in [0,1]: {frequency_scale}")
    return frequency_scale ** 2
