"""Temperature-dependent leakage power.

The paper feeds HotSpot temperatures into "a leakage model based on an
empirical equation from [Heo, Barr & Asanovic, ISLPED'03]": leakage grows
exponentially with temperature. We use the same functional form,

    P_leak(T) = P_ref * exp(beta * (T - T_ref)),

evaluated per block with the previous step's temperature (the standard
one-step-lag linearization of the leakage <-> temperature loop shown in
the paper's Figure 2).

``beta = 0.028 / K`` doubles leakage roughly every 25 degrees, in line with
published 90 nm subthreshold behaviour. Reference leakage is apportioned
to blocks by area, modulated by a per-unit-type density factor (SRAM-heavy
structures leak more per area than random logic at matched temperature).
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Optional, Sequence

import numpy as np

from repro.thermal.floorplan import Floorplan
from repro.thermal.layouts import parse_block_name

#: Exponential temperature coefficient (1/K).
DEFAULT_BETA = 0.028

#: Reference temperature at which block reference leakage is specified.
DEFAULT_T_REF_C = 85.0

#: Relative leakage density by unit type (dimensionless multipliers).
_UNIT_LEAKAGE_DENSITY: Dict[str, float] = {
    "icache": 1.2,
    "dcache": 1.2,
    "bpred": 1.1,
    "decode": 0.9,
    "iq": 1.0,
    "lsu": 0.9,
    "fxu": 1.0,
    "intreg": 1.3,
    "bxu": 0.9,
    "fpreg": 1.3,
    "fpu": 1.0,
    "xbar": 0.5,
}

#: L2 SRAM leaks densely but is held at a lower activity corner.
_L2_LEAKAGE_DENSITY = 0.8


def _density(block_name: str) -> float:
    _, unit = parse_block_name(block_name)
    if unit.startswith("l2"):
        return _L2_LEAKAGE_DENSITY
    return _UNIT_LEAKAGE_DENSITY.get(unit, 1.0)


class LeakageWeights(NamedTuple):
    """How a floorplan apportions reference leakage over its blocks."""

    #: Area x unit-density weight per block (read-only).
    per_block: np.ndarray
    #: ``per_block.sum()``, the normaliser.
    total: float


def block_leakage_weights(floorplan: Floorplan) -> LeakageWeights:
    """The area x density weights of ``floorplan``'s blocks.

    A pure function of the geometry, so chips of one floorplan can share
    one result (the engine substrate does); the array is read-only.
    """
    per_block = np.array(
        [_density(b.name) * b.area_mm2 for b in floorplan.blocks]
    )
    total = per_block.sum()
    if total <= 0:
        raise ValueError("floorplan has no leaking area")
    per_block.flags.writeable = False
    return LeakageWeights(per_block, total)


class LeakageModel:
    """Per-block exponential leakage model.

    Args:
        floorplan: Geometry; determines block areas and unit types.
        total_reference_w: Chip-wide leakage at the reference
            temperature. The default calibration (see
            ``repro.uarch.power``) puts leakage near 20% of peak chip
            power at 85 C, the commonly-cited 90 nm share.
        beta: Exponential coefficient (1/K).
        t_ref_c: Temperature at which ``total_reference_w`` is specified.
        weights: Precomputed :func:`block_leakage_weights` of
            ``floorplan``; computed here when omitted.
    """

    def __init__(
        self,
        floorplan: Floorplan,
        total_reference_w: float,
        beta: float = DEFAULT_BETA,
        t_ref_c: float = DEFAULT_T_REF_C,
        weights: Optional[LeakageWeights] = None,
    ):
        """Distribute the reference budget over blocks by area and density."""
        if not total_reference_w >= 0:
            raise ValueError(f"total_reference_w must be >= 0: {total_reference_w}")
        if not beta >= 0:
            raise ValueError(f"beta must be >= 0: {beta}")
        self.floorplan = floorplan
        self.beta = float(beta)
        self.t_ref_c = float(t_ref_c)
        if weights is None:
            weights = block_leakage_weights(floorplan)
        #: Per-block leakage at the reference temperature (W).
        self.reference_w = total_reference_w * weights.per_block / weights.total

    #: Evaluation clamp (deg C). The empirical exponential is a fit over
    #: the operating range; extrapolating it far above damages nothing
    #: physical but creates a spurious >1 leakage-temperature loop gain
    #: (numerical thermal runaway) in steady-state solves of deliberately
    #: unsustainable operating points. Real silicon leakage saturates.
    max_eval_temp_c = 150.0

    def power(self, block_temperatures_c: Sequence[float]) -> np.ndarray:
        """Leakage power per block (W) at the given block temperatures."""
        temps = np.asarray(block_temperatures_c, dtype=float)
        if temps.shape != self.reference_w.shape:
            raise ValueError(
                f"expected {self.reference_w.shape[0]} temperatures, "
                f"got {temps.shape}"
            )
        temps = np.minimum(temps, self.max_eval_temp_c)
        return self.reference_w * np.exp(self.beta * (temps - self.t_ref_c))

    def power_fast(self, block_temperatures_c: np.ndarray) -> np.ndarray:
        """Leakage power per block, skipping input validation.

        Performs the identical floating-point operations as
        :meth:`power` — callers get bit-identical results — but assumes
        ``block_temperatures_c`` is already a correctly-shaped float
        array. Exists for the simulation engine's step loop, which calls
        this once per simulated step.

        Args:
            block_temperatures_c: Block temperatures, shape
                ``(n_blocks,)``, dtype float64.

        Returns:
            Freshly allocated per-block leakage power (W).
        """
        temps = np.minimum(block_temperatures_c, self.max_eval_temp_c)
        return self.reference_w * np.exp(self.beta * (temps - self.t_ref_c))

    def total_power(self, block_temperatures_c: Sequence[float]) -> float:
        """Chip-wide leakage (W)."""
        return float(self.power(block_temperatures_c).sum())

    def scaled(self, voltage_scale: float) -> np.ndarray:
        """Reference leakage under a supply-voltage scale factor.

        Leakage varies superlinearly with supply voltage; we apply the
        commonly-used quadratic dependence. Returns the scaled reference
        vector (does not mutate the model).
        """
        if not 0 < voltage_scale <= 1.0:
            raise ValueError(f"voltage_scale must be in (0, 1]: {voltage_scale}")
        return self.reference_w * voltage_scale ** 2
