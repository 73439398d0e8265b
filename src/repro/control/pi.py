"""The paper's PI controller: continuous design and discrete runtime.

Design side
-----------
The paper uses ``G(s) = Kp + Ki/s`` with ``Kp = 0.0107`` and
``Ki = 248.5``, chosen (via MATLAB experiments in the style of Skadron et
al., HPCA'02) for smooth transitions — the proportional constant is two
orders of magnitude below that earlier work.

Runtime side
------------
Discretized at the trace sample period (100,000 cycles at 3.6 GHz =
27.78 us, quoted as "28 us" in the paper) with forward Euler, the law is::

    u[n] = u[n-1] - 0.0107 * e[n] + 0.003797 * e[n-1]

where ``e[n] = measured_temperature - target`` and ``u`` is the frequency
scale factor, clipped to ``[0.2, 1.0]``. Because ``u[n]`` depends only on
the *clipped* previous output, clipping doubles as anti-windup: no hidden
integral state can accumulate while the actuator is saturated (Section 4.2
of the paper makes exactly this observation).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.control.c2d import discretize_pi_increments
from repro.control.transfer import TransferFunction, pi_transfer_function
from repro.util.memo import remember

#: Proportional gain used in all of the paper's experiments.
PAPER_KP = 0.0107

#: Integral gain used in all of the paper's experiments.
PAPER_KI = 248.5

#: Lower clip of the frequency scale factor (20% of nominal = 720 MHz).
MIN_FREQUENCY_SCALE = 0.2

#: Upper clip of the frequency scale factor (nominal frequency).
MAX_FREQUENCY_SCALE = 1.0


@dataclass(frozen=True)
class PIDesign:
    """A continuous PI design plus its discretization.

    Attributes
    ----------
    kp, ki:
        Continuous-time proportional and integral gains.
    dt:
        Sample period of the discrete implementation.
    b0, b1:
        Incremental-form coefficients: ``u[n] = u[n-1] + b0*e[n] + b1*e[n-1]``
        for the standard sign convention (``e = target - measured``).
    """

    kp: float
    ki: float
    dt: float
    b0: float
    b1: float

    def transfer_function(self) -> TransferFunction:
        """The continuous ``Kp + Ki/s`` transfer function."""
        return pi_transfer_function(self.kp, self.ki)


#: Most designs :data:`_DESIGNS` keeps; past it the oldest goes. A study
#: designs a handful of (gains, sample period) pairs.
DESIGN_TABLE_SIZE = 64

#: ``(kp, ki, dt, method) -> PIDesign``, oldest first.
_DESIGNS: Dict[Tuple[float, float, float, str], PIDesign] = {}


def design_pi(kp: float, ki: float, dt: float, method: str = "euler") -> PIDesign:
    """Build a :class:`PIDesign` by discretizing ``Kp + Ki/s`` at ``dt``.

    Designs are memoized on ``(kp, ki, dt, method)``: the ``c2d``
    polynomial algebra costs ~1 ms, which dominated simulator
    construction when a fleet builds hundreds of identically-designed
    controllers. :class:`PIDesign` is frozen, so sharing one instance
    across controllers is safe.
    """
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    key = (float(kp), float(ki), float(dt), str(method))
    design = _DESIGNS.get(key)
    if design is None:
        b0, b1 = discretize_pi_increments(*key)
        design = remember(
            _DESIGNS,
            key,
            PIDesign(kp=key[0], ki=key[1], dt=key[2], b0=b0, b1=b1),
            DESIGN_TABLE_SIZE,
        )
    return design


def design_paper_controller(dt: float) -> PIDesign:
    """The paper's controller (``Kp = 0.0107``, ``Ki = 248.5``) at ``dt``."""
    return design_pi(PAPER_KP, PAPER_KI, dt)


def pi_raw_update(output, error, previous_error, design: "PIDesign"):
    """One unclipped step of the paper's incremental PI law.

    ``u_raw[n] = u[n-1] - b0*e[n] - b1*e[n-1]`` with the paper's negated
    sign convention (``e = measured - target``). Works elementwise on
    floats and on numpy arrays alike; :class:`DiscretePIController` and
    :class:`PIBank` both step through this one expression, which is what
    makes a bank lane bit-identical to a scalar controller.
    """
    return output - design.b0 * error - design.b1 * previous_error


@dataclass
class ControllerTrace:
    """Optional per-step history recorded by a controller.

    The outer migration loop consumes this feedback: the average output
    (frequency scale) over an observation window is used to time-scale
    measured thermal trends (Section 6.3).
    """

    times: List[float] = field(default_factory=list)
    errors: List[float] = field(default_factory=list)
    outputs: List[float] = field(default_factory=list)


class DiscretePIController:
    """Discrete incremental-form PI controller with output clipping.

    The controller follows the paper's sign convention: the *error* passed
    to :meth:`step` is ``measured - target`` (positive when too hot), and
    the output is a frequency scale factor that decreases as the error
    grows. Output clipping to ``[output_min, output_max]`` provides
    anti-windup for free because the recurrence stores only the clipped
    output.
    """

    def __init__(
        self,
        design: PIDesign,
        setpoint: float,
        output_min: float = MIN_FREQUENCY_SCALE,
        output_max: float = MAX_FREQUENCY_SCALE,
        initial_output: Optional[float] = None,
        record: bool = False,
    ):
        """Validate the output band and initialise the recurrence state."""
        if not output_min < output_max:
            raise ValueError(
                f"output_min ({output_min}) must be < output_max ({output_max})"
            )
        self.design = design
        self.setpoint = float(setpoint)
        self.output_min = float(output_min)
        self.output_max = float(output_max)
        self.output = float(output_max if initial_output is None else initial_output)
        self._previous_error = 0.0
        self._steps = 0
        self._output_sum = 0.0
        self.trace: Optional[ControllerTrace] = ControllerTrace() if record else None

    def step(self, measured: float, time: float = 0.0) -> float:
        """Advance one sample period and return the new (clipped) output.

        Parameters
        ----------
        measured:
            The temperature seen by this controller (for a per-core
            controller, the hotter of the core's two sensors; for a global
            controller, the hottest sensor on the chip).
        time:
            Simulation time, recorded in the optional trace.
        """
        error = measured - self.setpoint
        # Incremental form with the paper's negated sign convention:
        # u[n] = u[n-1] - b0*e[n] - b1*e[n-1].
        raw = pi_raw_update(self.output, error, self._previous_error, self.design)
        self.output = min(self.output_max, max(self.output_min, raw))
        self._previous_error = error
        self._steps += 1
        self._output_sum += self.output
        if self.trace is not None:
            self.trace.times.append(time)
            self.trace.errors.append(error)
            self.trace.outputs.append(self.output)
        return self.output

    def reset(self, initial_output: Optional[float] = None) -> None:
        """Reset controller state (used when a core's thread is swapped)."""
        self.output = float(
            self.output_max if initial_output is None else initial_output
        )
        self._previous_error = 0.0
        self._steps = 0
        self._output_sum = 0.0

    @property
    def last_error(self) -> float:
        """Most recent error ``e[n] = measured - setpoint`` (0.0 pre-step).

        Telemetry reads this at sample instants; it is exactly the
        ``e[n-1]`` the next :meth:`step` will use.
        """
        return self._previous_error

    @property
    def average_output(self) -> float:
        """Mean output since construction or the last window reset.

        This is the quantity the OS reads back when time-scaling thermal
        trends for sensor-based migration.
        """
        if self._steps == 0:
            return self.output
        return self._output_sum / self._steps

    def reset_window(self) -> None:
        """Clear the averaging window without disturbing control state."""
        self._steps = 0
        self._output_sum = 0.0


#: A lane address in a :class:`PIBank`: an index, or a tuple of indices
#: for banks with multi-dimensional lane layouts (e.g. ``(chip, core)``).
LaneIndex = Union[int, Tuple[int, ...]]


class PIBank:
    """A vectorized bank of independent PI controllers.

    Lanes share one :class:`PIDesign` and upper clip but carry
    independent state (output, previous error, averaging window),
    setpoints and floors; :meth:`step_prefix` advances the first ``m``
    rows of every lane array in one shot using the same
    :func:`pi_raw_update` law and a clamp matching the scalar
    ``min(max_, max(min_, raw))`` composition *including its NaN
    behaviour* (a NaN raw command clamps to ``output_min``), so each
    lane's trajectory is bit-identical to a scalar controller fed the
    same measurements — even measurements poisoned by NaN sensor
    dropouts. The fleet engine uses one bank per DVFS stage (its DVFS
    rows of one horizon), with lane layout ``(chips, cores)`` for both
    scopes: a global chip's ``cores`` lanes all receive its chip-hot
    reading, so they step as one controller.

    The averaging window is deferred: each step stores its outputs in
    one ``slot`` column of a block buffer, and :meth:`fold_window` adds
    a block of them to the running sums at once.

    :meth:`read_lane` / :meth:`write_lane` move one lane's state between
    the bank and a scalar controller — the bridge the fleet uses to hand
    control decisions to real policy objects at OS ticks. The window
    must be folded first.
    """

    def __init__(
        self,
        design: PIDesign,
        setpoints: np.ndarray,
        output_min=MIN_FREQUENCY_SCALE,
        output_max: float = MAX_FREQUENCY_SCALE,
        *,
        block: int,
    ):
        """One lane per element of ``setpoints``, all at ``output_max``.

        ``output_min`` is a scalar or any array broadcastable to the
        lane shape; the bank keeps one floor per lane (per-class DVFS
        floors under a heterogeneous scenario differ per core, and a
        global chip's lanes share its controller's floor), exactly
        matching a scalar controller per lane with its own floor.
        ``block`` is the number of steps the deferred window holds
        between folds.
        """
        self.design = design
        self.setpoints = np.asarray(setpoints, dtype=float)
        shape = self.setpoints.shape
        self.output_min = np.empty(shape)
        self.output_min[...] = output_min
        self.output_max = float(output_max)
        if not np.all(self.output_min < self.output_max):
            raise ValueError(
                f"output_min ({output_min}) must be < output_max ({output_max})"
            )
        self.output = np.full(shape, self.output_max)
        self.previous_error = np.zeros(shape)
        self.window_steps = np.zeros(shape, dtype=np.int64)
        # Column 0 of the window block is the running output sum; a
        # deferred step stores its outputs in column 1 + slot.
        self._window = np.zeros((shape[0], 1 + block) + shape[1:])
        self.output_sum = self._window[:, 0]

    def step_prefix(self, m: int, measured: np.ndarray, slot: int) -> np.ndarray:
        """Advance lanes ``[:m]`` one sample period; returns their outputs.

        ``measured`` must broadcast to the shape of ``self.output[:m]``.
        The returned array is the live output slice — callers must treat
        it as read-only. The outputs wait in window column ``slot`` until
        :meth:`fold_window`.
        """
        out = self.output[:m]
        prev = self.previous_error[:m]
        error = measured - self.setpoints[:m]
        raw = pi_raw_update(out, error, prev, self.design)
        prev[...] = error
        # The scalar clamp ``min(max_, max(min_, raw))`` keeps ``min_``
        # unless ``raw`` is greater, so a NaN command (from a NaN-mode
        # sensor dropout, which the scalar engine then acts on) clamps
        # to ``output_min``: np.fmax returns its non-NaN operand, where
        # np.maximum would propagate the NaN. The floored value is never
        # NaN, so np.fmin is the outer ``min``. Equal operands are equal
        # nonzero floats, so either choice gives the same bits.
        np.fmax(raw, self.output_min[:m], out=raw)
        np.fmin(raw, self.output_max, out=out)
        self._window[:m, 1 + slot] = out
        return out

    def fold_window(self, m: int, k: int) -> None:
        """Add slots ``0 .. k-1`` of the deferred window to lanes ``[:m]``.

        The scalar controller adds each output to its running sum, step
        after step; ``np.add.accumulate`` along ``[sum, slot 0, ..,
        slot k-1]`` is that same strict left fold. Every lane ``[:m]``
        must have stored all ``k`` slots.
        """
        if k:
            w = self._window[:m, : 1 + k]
            w[:, 0] = np.add.accumulate(w, axis=1)[:, -1]
            self.window_steps[:m] += k

    def write_lane(self, lane: LaneIndex, controller: DiscretePIController) -> None:
        """Copy one lane's state into a scalar controller."""
        controller.output = float(self.output[lane])
        controller._previous_error = float(self.previous_error[lane])
        controller._steps = int(self.window_steps[lane])
        controller._output_sum = float(self.output_sum[lane])

    def read_lane(self, lane: LaneIndex, controller: DiscretePIController) -> None:
        """Copy a scalar controller's state into one lane."""
        self.output[lane] = controller.output
        self.previous_error[lane] = controller._previous_error
        self.window_steps[lane] = controller._steps
        self.output_sum[lane] = controller._output_sum
