"""PI-controlled DVFS throttling (Section 4 of the paper).

Each controlled domain (one per core when distributed, one for the whole
chip when global) runs the paper's discrete PI law at the trace sample
period, regulating the domain's hottest monitored sensor toward a setpoint
just below the 84.2 C emergency threshold. Outputs are clipped to
[0.2, 1.0]; the actuator-side constraints (10 us transition penalty, 2%
minimum transition) are enforced by :class:`repro.core.dvfs.DVFSActuator`,
which the engine interposes between policy output and the modeled silicon.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.control.pi import (
    MAX_FREQUENCY_SCALE,
    MIN_FREQUENCY_SCALE,
    DiscretePIController,
    PIDesign,
    design_paper_controller,
)
from repro.core.policy import DEFAULT_THRESHOLD_C, ThrottlePolicy

#: Setpoint margin below the threshold ("slightly below", Section 2.3).
DEFAULT_SETPOINT_MARGIN_C = 2.0


class DVFSPolicy(ThrottlePolicy):
    """Formal closed-loop DVFS, global or distributed.

    Parameters
    ----------
    n_cores:
        Number of cores.
    dt:
        Control period (the trace sample period).
    scope:
        ``"distributed"``: one PI controller per core; ``"global"``: one
        controller fed the hottest sensor anywhere, output applied to all.
    design:
        PI design; defaults to the paper's constants at ``dt``.
    threshold_c, setpoint_margin_c:
        Emergency threshold and setpoint placement below it.
    output_floors:
        Optional per-core lower clips of the frequency scale (per-class
        DVFS floors from a :mod:`repro.scenarios` tech node / core
        class). Distributed scope gives controller ``c`` the floor of
        core ``c``; global scope uses the most restrictive (highest)
        floor, since one shared operating point must stay legal for
        every core in the domain. ``None`` keeps the paper's uniform
        ``MIN_FREQUENCY_SCALE`` clip.
    """

    kind = "dvfs"

    def __init__(
        self,
        n_cores: int,
        dt: float,
        scope: str = "distributed",
        design: Optional[PIDesign] = None,
        threshold_c: float = DEFAULT_THRESHOLD_C,
        setpoint_margin_c: float = DEFAULT_SETPOINT_MARGIN_C,
        output_floors: Optional[Sequence[float]] = None,
    ):
        """Build one PI controller per core (or one shared, global scope)."""
        super().__init__(n_cores, threshold_c)
        if scope not in ("global", "distributed"):
            raise ValueError(f"scope must be 'global' or 'distributed': {scope!r}")
        if not setpoint_margin_c >= 0:
            raise ValueError(f"setpoint_margin_c must be >= 0: {setpoint_margin_c}")
        self.scope = scope
        self.design = design or design_paper_controller(dt)
        self.setpoint_c = self.threshold_c - setpoint_margin_c
        n_controllers = n_cores if scope == "distributed" else 1
        if output_floors is None:
            floors = [MIN_FREQUENCY_SCALE] * n_controllers
        else:
            floors = [float(f) for f in output_floors]
            if len(floors) != n_cores:
                raise ValueError(
                    f"output_floors must have {n_cores} entries, "
                    f"got {len(floors)}"
                )
            if scope == "global":
                floors = [max(floors)]
        self.controllers: List[DiscretePIController] = [
            DiscretePIController(
                self.design, setpoint=self.setpoint_c, output_min=floors[i]
            )
            for i in range(n_controllers)
        ]

    def controller_for(self, core: int) -> DiscretePIController:
        """The controller governing ``core``."""
        return self.controllers[core if self.scope == "distributed" else 0]

    def scales_from_hottest(
        self, time_s: float, hottest: Sequence[float]
    ) -> List[float]:
        """Advance each controller one period and return per-core scales.

        "Since an individual controller governs an entire core or
        processor, it typically selects the hottest of the input
        temperatures" (Section 4.1): a distributed controller steps on
        its core's hottest reading, the global one on the chip's.
        """
        if self.scope == "distributed":
            return [
                self.controllers[core].step(hottest[core], time_s)
                for core in range(self.n_cores)
            ]
        scale = self.controllers[0].step(max(hottest), time_s)
        return [scale] * self.n_cores

    def average_scale(self, core: int) -> float:
        """Mean PI output over the current feedback window."""
        return self.controller_for(core).average_output

    def reset_window(self, core: int) -> None:
        """Restart the feedback-averaging window for ``core``."""
        self.controller_for(core).reset_window()

    def on_migration(self, cores: Sequence[int], time_s: float) -> None:
        """Migration flushes the departed thread's feedback window."""
        for core in cores:
            self.reset_window(core)


class DVFSActuator:
    """Physical voltage/frequency actuator for one core.

    Enforces the Table 3 constraints: a requested change smaller than 2%
    of the scale range is ignored (the PLL is not re-locked for noise),
    and every accepted change stalls the core for the 10 us transition
    penalty. Stop-go's 0.0 "scale" bypasses the actuator — clock gating is
    not a PLL transition.

    Fault hook: ``fault_gate`` (when set, see :mod:`repro.faults`) is a
    callable ``(time_s, requested, current) -> (allow, extra_penalty_s)``
    consulted only for requests that pass the minimum-transition filter —
    i.e. only for transitions that would actually re-lock the PLL. A
    rejected request leaves the operating point unchanged and costs
    nothing (it was lost, not executed); an accepted one may carry extra
    stall time. The gate is ``None`` in un-faulted runs, keeping that
    path byte-identical to the pre-fault actuator.
    """

    def __init__(
        self,
        transition_penalty_s: float = 10e-6,
        min_transition: float = 0.02,
        initial_scale: float = MAX_FREQUENCY_SCALE,
    ):
        """Validate the Table 3 constants and start at ``initial_scale``."""
        if not transition_penalty_s >= 0:
            raise ValueError(f"transition_penalty_s must be >= 0")
        if not 0 <= min_transition < 1:
            raise ValueError(f"min_transition must be in [0,1): {min_transition}")
        self.transition_penalty_s = float(transition_penalty_s)
        self.min_transition_abs = min_transition * (
            MAX_FREQUENCY_SCALE - MIN_FREQUENCY_SCALE
        )
        self.current_scale = float(initial_scale)
        self.transitions = 0
        self.fault_gate = None
        #: Transitions lost to an injected fault (0 without a gate).
        self.faulted_rejections = 0

    def request(self, scale: float, time_s: float = 0.0) -> float:
        """Apply a requested scale; returns the stall time incurred (s).

        The new operating point takes effect immediately after the stall;
        the caller accounts the stall against useful work in the current
        step. ``time_s`` only matters when a ``fault_gate`` is attached
        (fault activation windows are expressed in silicon time).
        """
        if not 0.0 < scale <= MAX_FREQUENCY_SCALE:
            raise ValueError(f"scale must be in (0, 1]: {scale}")
        if abs(scale - self.current_scale) < self.min_transition_abs:
            return 0.0
        penalty = self.transition_penalty_s
        if self.fault_gate is not None:
            allow, extra_penalty_s = self.fault_gate(
                time_s, scale, self.current_scale
            )
            if not allow:
                self.faulted_rejections += 1
                return 0.0
            penalty += extra_penalty_s
        self.current_scale = scale
        self.transitions += 1
        return penalty
