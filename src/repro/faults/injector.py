"""Runtime fault injection for one simulation.

The engine owns one :class:`FaultInjector` per run *only when the
configured* :class:`~repro.faults.models.FaultPlan` *is non-empty*, and
consults it at exactly three points:

* **sensor read** — after the static degradation pipeline (offset,
  noise, quantization), the per-core hotspot temperature matrix passes
  through :meth:`FaultInjector.apply_sensor_faults`;
* **DVFS actuation** — :class:`~repro.core.dvfs.DVFSActuator` calls the
  injector-backed ``fault_gate`` before committing a PLL re-lock
  (:meth:`FaultInjector.dvfs_request`);
* **migration delivery** — :class:`~repro.core.migration.MigrationPolicy`
  passes accepted proposals through ``request_filter``
  (:meth:`FaultInjector.migration_request`).

Determinism: every stochastic fault draws from its own
:class:`~repro.util.rng.RngStream` derived from the run seed and the
fault's plan index, so injection is bit-reproducible, independent of
whether an event log is attached, and identical across serial and
process-pool execution. Overlapping sensor faults apply in plan order
(later faults transform earlier faults' output).

Event capture is opt-in: with a :class:`~repro.obs.events.RunEventLog`
attached, the injector emits ``fault.sensor`` on each windowed fault's
activation edge (plus one per step for spike occurrences), ``fault.dvfs``
per rejected/stretched transition, and ``fault.migration`` per dropped
request. Emission never feeds back into the simulation.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.faults.models import (
    CalibrationStepFault,
    DriftFault,
    DropoutFault,
    DVFSLatencyFault,
    DVFSRejectFault,
    FaultPlan,
    FaultSummary,
    MigrationDropFault,
    SpikeFault,
    StuckAtFault,
)
from repro.obs.events import RunEventLog
from repro.util.rng import RngStream

_SENSOR_KINDS = (
    StuckAtFault,
    DropoutFault,
    DriftFault,
    SpikeFault,
    CalibrationStepFault,
)

#: Most steps of one stochastic sensor fault that
#: :class:`FleetFaultInjector` draws per member in a single call (the
#: fused fleet group's chunk length), bounding the pre-drawn block.
REPLAY_BLOCK_STEPS = 512


def sensor_fault_masks(
    plan: FaultPlan, n_cores: int, units: Sequence[str]
) -> Dict[int, np.ndarray]:
    """Channel-selection masks of ``plan``'s sensor faults, by plan index.

    Each mask is a read-only ``(n_cores, len(units))`` boolean array
    marking the channels the fault targets. A pure function of its
    inputs, so every run of one plan on one chip can share the result.
    """
    units = tuple(units)
    plan.validate_targets(n_cores, units)
    masks: Dict[int, np.ndarray] = {}
    for i, fault in enumerate(plan.faults):
        if not isinstance(fault, _SENSOR_KINDS):
            continue
        mask = np.zeros((n_cores, len(units)), dtype=bool)
        rows = slice(None) if fault.core is None else fault.core
        if fault.unit is None:
            mask[rows, :] = True
        else:
            mask[rows, units.index(fault.unit)] = True
        mask.flags.writeable = False
        masks[i] = mask
    return masks


class FaultInjector:
    """Applies one :class:`FaultPlan` to one run, deterministically.

    Parameters
    ----------
    plan:
        The (non-empty) fault plan.
    n_cores:
        Core count of the simulated machine.
    units:
        Monitored hotspot unit names, in sensor-matrix column order.
    seed:
        The run's root seed; per-fault streams derive from it.
    event_log:
        Optional event capture; never influences injection.
    masks:
        Precomputed :func:`sensor_fault_masks` of ``plan`` on this chip;
        computed here when omitted.
    """

    def __init__(
        self,
        plan: FaultPlan,
        n_cores: int,
        units: Sequence[str],
        seed: int,
        event_log: Optional[RunEventLog] = None,
        masks: Optional[Dict[int, np.ndarray]] = None,
    ):
        """Validate targets and derive one RNG stream per stochastic fault."""
        plan.validate_targets(n_cores, tuple(units))
        self.plan = plan
        self.n_cores = n_cores
        self.units = tuple(units)
        self.event_log = event_log

        # One independent stream per stochastic fault, keyed by its plan
        # index so editing one fault never perturbs another's draws.
        self._rng: Dict[int, RngStream] = {
            i: RngStream(seed, "fault", str(i), fault.kind)
            for i, fault in enumerate(plan.faults)
            if fault.stochastic
        }

        self._sensor_faults: List[Tuple[int, object]] = []
        self._dvfs_faults: List[Tuple[int, object]] = []
        self._migration_faults: List[Tuple[int, object]] = []
        for i, fault in enumerate(plan.faults):
            if isinstance(fault, _SENSOR_KINDS):
                self._sensor_faults.append((i, fault))
            elif isinstance(fault, (DVFSRejectFault, DVFSLatencyFault)):
                self._dvfs_faults.append((i, fault))
            else:
                assert isinstance(fault, MigrationDropFault)
                self._migration_faults.append((i, fault))

        # Channel-selection masks (n_cores, n_units), one per sensor fault.
        self._masks: Dict[int, np.ndarray] = (
            masks
            if masks is not None
            else sensor_fault_masks(plan, n_cores, self.units)
        )

        # Last *delivered* reading per channel (post-fault), the substrate
        # for stuck-at-last-value latching and last-good dropout.
        self._last_output: Optional[np.ndarray] = None
        self._latches: Dict[int, np.ndarray] = {}
        self._was_active: Dict[int, bool] = {
            i: False for i, _ in self._sensor_faults
        }

        # Counters folded into the run's FaultSummary.
        self.sensor_faulted_samples = 0
        self.dvfs_rejected = 0
        self.dvfs_delayed = 0
        self.migrations_dropped = 0

    # -- event helpers -----------------------------------------------------

    def _emit(self, time_s: float, event_type: str, core=None, **data) -> None:
        if self.event_log is not None:
            self.event_log.emit(time_s, event_type, core, **data)

    # -- sensor hook -------------------------------------------------------

    def apply_sensor_faults(self, time_s: float, temps: np.ndarray) -> np.ndarray:
        """Transform one step's sensor matrix; returns a new array.

        ``temps`` is the ``(n_cores, n_units)`` matrix after the static
        degradation pipeline; the input is never mutated.
        """
        out = np.array(temps, dtype=float, copy=True)
        for i, fault in self._sensor_faults:
            active = fault.active(time_s)
            if active and not self._was_active[i]:
                self._emit(
                    time_s,
                    "fault.sensor",
                    fault.core,
                    kind=fault.kind,
                    unit=fault.unit,
                    end_s=(None if fault.end_s == np.inf else fault.end_s),
                )
            self._was_active[i] = active
            if not active:
                continue
            mask = self._masks[i]
            n_sel = int(mask.sum())
            if isinstance(fault, StuckAtFault):
                if i not in self._latches:
                    # Latch the channel's last delivered reading (or the
                    # current one when the fault opens at the first read).
                    source = (
                        self._last_output
                        if self._last_output is not None
                        else out
                    )
                    self._latches[i] = np.where(mask, source, 0.0)
                if fault.value_c is not None:
                    out[mask] = fault.value_c
                else:
                    out[mask] = self._latches[i][mask]
                self.sensor_faulted_samples += n_sel
            elif isinstance(fault, DropoutFault):
                if fault.prob >= 1.0:
                    dropped = mask
                else:
                    draws = self._rng[i].uniform(size=(out.shape))
                    dropped = mask & (draws < fault.prob)
                n_drop = int(dropped.sum())
                if n_drop:
                    if fault.mode == "nan":
                        out[dropped] = np.nan
                        self.sensor_faulted_samples += n_drop
                    elif self._last_output is not None:
                        out[dropped] = self._last_output[dropped]
                        self.sensor_faulted_samples += n_drop
                    # else: no previous delivery to repeat — the very
                    # first read passes through unchanged and is *not*
                    # counted (only altered samples are faulted samples).
            elif isinstance(fault, DriftFault):
                out[mask] += fault.rate_c_per_s * (time_s - fault.start_s)
                self.sensor_faulted_samples += n_sel
            elif isinstance(fault, SpikeFault):
                draws = self._rng[i].uniform(size=(out.shape))
                spiking = mask & (draws < fault.prob)
                n_spike = int(spiking.sum())
                if n_spike:
                    out[spiking] += fault.magnitude_c
                    self.sensor_faulted_samples += n_spike
                    self._emit(
                        time_s,
                        "fault.sensor",
                        fault.core,
                        kind=fault.kind,
                        unit=fault.unit,
                        channels=n_spike,
                        magnitude_c=fault.magnitude_c,
                    )
            else:
                assert isinstance(fault, CalibrationStepFault)
                out[mask] += fault.offset_c
                self.sensor_faulted_samples += n_sel
        self._last_output = out
        return out

    # -- DVFS hook ---------------------------------------------------------

    def dvfs_request(
        self, time_s: float, core: int, requested: float, current: float
    ) -> Tuple[bool, float]:
        """Gate one would-be-committed DVFS transition.

        Returns ``(allow, extra_penalty_s)``. Called by the actuator only
        for requests that pass the 2% minimum-transition filter, so every
        stochastic draw corresponds to a real PLL re-lock attempt.
        """
        allow = True
        extra = 0.0
        for i, fault in self._dvfs_faults:
            if not fault.active(time_s):
                continue
            if fault.core is not None and fault.core != core:
                continue
            if isinstance(fault, DVFSRejectFault):
                hit = fault.prob >= 1.0 or bool(
                    self._rng[i].uniform() < fault.prob
                )
                if hit and allow:
                    allow = False
                    self.dvfs_rejected += 1
                    self._emit(
                        time_s,
                        "fault.dvfs",
                        core,
                        kind=fault.kind,
                        requested=requested,
                        current=current,
                    )
            else:
                extra += fault.extra_penalty_s
        if allow and extra > 0.0:
            self.dvfs_delayed += 1
            self._emit(
                time_s,
                "fault.dvfs",
                core,
                kind=DVFSLatencyFault.kind,
                extra_penalty_s=extra,
            )
        return allow, (extra if allow else 0.0)

    def dvfs_gate_for(self, core: int):
        """A per-core ``fault_gate`` for :class:`~repro.core.dvfs.DVFSActuator`."""

        def gate(time_s: float, requested: float, current: float):
            return self.dvfs_request(time_s, core, requested, current)

        return gate

    # -- migration hook ----------------------------------------------------

    def migration_request(
        self, time_s: float, proposal: Sequence[int]
    ) -> bool:
        """Whether an accepted migration proposal is actually delivered."""
        for i, fault in self._migration_faults:
            if not fault.active(time_s):
                continue
            hit = fault.prob >= 1.0 or bool(
                self._rng[i].uniform() < fault.prob
            )
            if hit:
                self.migrations_dropped += 1
                self._emit(
                    time_s,
                    "fault.migration",
                    None,
                    kind=fault.kind,
                    assignment=list(proposal),
                )
                return False
        return True

    # -- roll-up -----------------------------------------------------------

    def summary_counts(self) -> Dict[str, int]:
        """The injector's counters as a plain dict (guard fields excluded)."""
        return {
            "sensor_faulted_samples": self.sensor_faulted_samples,
            "dvfs_rejected": self.dvfs_rejected,
            "dvfs_delayed": self.dvfs_delayed,
            "migrations_dropped": self.migrations_dropped,
        }


class FleetFaultInjector:
    """Batched stream-replay of one :class:`FaultPlan` over a cohort.

    The fleet engine groups the members of a lockstep batch that carry
    *equal* fault plans into cohorts and drives each cohort through one
    ``FleetFaultInjector`` wrapping the members' real scalar
    :class:`FaultInjector` objects. The bit-identity argument is stream
    replay, not re-derivation: every stochastic fault owns a per-member
    ``RngStream`` (keyed by run seed and plan index), and the scalar
    injector draws exactly one ``uniform(size=(cores, units))`` matrix
    per active stochastic fault per step. This class replays those same
    streams in blocks: for each member and stochastic sensor fault, one
    ``uniform(size=(k, cores, units))`` call draws the next ``k`` active
    steps' matrices at once, where ``k`` counts the steps at which the
    fault is active within that member's horizon, at most
    :data:`REPLAY_BLOCK_STEPS` per block. A block draw fills its output
    in C order from the same stream, so it equals ``k`` sequential
    draws value for value and leaves the generator in the same state;
    each member therefore draws exactly its scalar run's sequence, no
    more and no less. The streams are mutually independent, so
    interleaving them across members cannot change any member's values.
    Only the mask/latch/drift/spike *transforms* are vectorised, over
    the ``(members, cores, units)`` stack, and each is elementwise
    (shape-invariant, hence bitwise equal to the scalar transform).

    Latch creation, activation windows and first-read handling are
    cohort-uniform because all members enter the batch at step 0 and
    only retire (shrink the alive prefix) — they never join late.

    Sensor-fault counters accumulate per member in a batched array;
    :meth:`flush` / :meth:`flush_all` write them back onto the real
    injectors, whose ``sensor_faulted_samples`` the telemetry closures
    and :class:`FaultSummary` read. DVFS and migration fault hooks are
    *not* batched here: the fleet calls each member's real
    :meth:`FaultInjector.dvfs_request` / ``migration_request`` at the
    same decision points the scalar engine would, so those counters and
    streams advance on the real objects directly.

    Args:
        injectors: The cohort's real scalar injectors, in fleet row order.
        horizons: Each member's step count, non-increasing (the fleet
            sorts lockstep members by descending horizon).
        dt: Step length (s); step ``s`` reads sensors at ``s * dt``.
    """

    def __init__(
        self,
        injectors: Sequence[FaultInjector],
        horizons: Sequence[int],
        dt: float,
    ):
        """Wrap one cohort; all injectors must share an equal plan."""
        if not injectors:
            raise ValueError("fault cohort must contain at least one member")
        if len(horizons) != len(injectors):
            raise ValueError("horizons must have one entry per injector")
        if any(a < b for a, b in zip(horizons, horizons[1:])):
            raise ValueError("horizons must be non-increasing")
        self.injectors = list(injectors)
        base = self.injectors[0]
        for inj in self.injectors[1:]:
            if inj.plan != base.plan:
                raise ValueError(
                    "fault cohort members must share an equal FaultPlan"
                )
        self.n = len(self.injectors)
        self.plan = base.plan
        self.dt = dt
        self.horizons = [int(h) for h in horizons]
        self._sensor_faults = base._sensor_faults
        self._masks = base._masks
        self._n_sel = {i: int(m.sum()) for i, m in self._masks.items()}
        # Activation per step over the longest horizon, evaluated at the
        # exact instants the fleet loop passes, plus running counts of
        # active steps for sizing replay blocks.
        steps = range(self.horizons[0])
        self._active: Dict[int, List[bool]] = {}
        self._active_before: Dict[int, np.ndarray] = {}
        for i, fault in self._sensor_faults:
            active = [fault.active(s * dt) for s in steps]
            self._active[i] = active
            self._active_before[i] = np.concatenate(
                ([0], np.cumsum(active, dtype=np.int64))
            )
        # Replay blocks of stochastic faults: per-step hit masks
        # (k, block, cores, units), their per-step hit counts, and the
        # cursor of the next unread step.
        self._hits: Dict[int, np.ndarray] = {}
        self._hit_counts: Dict[int, np.ndarray] = {}
        self._cursor: Dict[int, int] = {}
        shape = (self.n, base.n_cores, len(base.units))
        self._last_output = np.zeros(shape)
        self._has_last = False
        self._latches: Dict[int, np.ndarray] = {}
        #: Per-member altered-sample counters (flushed onto the real
        #: injectors, never read directly by consumers).
        self.sensor_faulted_samples = np.zeros(self.n, dtype=np.int64)

    def _replay(self, i: int, fault, step: int, k: int):
        """This step's hit mask and hit counts of stochastic fault ``i``.

        Draws the next block from each live member's own stream when the
        current one is used up.
        """
        cursor = self._cursor.get(i)
        hits = self._hits.get(i)
        if hits is None or cursor == hits.shape[1]:
            before = self._active_before[i]
            mask = self._masks[i]
            sizes = [
                min(REPLAY_BLOCK_STEPS, int(before[h] - before[step]))
                for h in self.horizons[:k]
            ]
            # Only the boolean hits are kept; rows past a member's own
            # block size are never read (it retires or the window ends).
            hits = np.zeros((k, sizes[0]) + mask.shape, dtype=bool)
            for j, size in enumerate(sizes):
                draws = self.injectors[j]._rng[i].uniform(
                    size=(size,) + mask.shape
                )
                np.logical_and(mask, draws < fault.prob, out=hits[j, :size])
            self._hits[i] = hits
            self._hit_counts[i] = hits.reshape(k, sizes[0], -1).sum(axis=2)
            cursor = 0
        self._cursor[i] = cursor + 1
        return hits[:k, cursor], self._hit_counts[i][:k, cursor]

    def apply_sensor_faults(self, step: int, temps: np.ndarray) -> np.ndarray:
        """Transform one step's stacked sensor matrices; returns a new array.

        ``temps`` is the ``(k, n_cores, n_units)`` stack read at
        ``step * dt`` for the cohort's first ``k`` (still-alive)
        members; rows beyond ``k`` retired and stop drawing, exactly as
        their finished scalar runs would have.
        """
        k = temps.shape[0]
        time_s = step * self.dt
        out = np.array(temps, dtype=float, copy=True)
        counts = self.sensor_faulted_samples
        for i, fault in self._sensor_faults:
            if not self._active[i][step]:
                continue
            mask = self._masks[i]
            n_sel = self._n_sel[i]
            if isinstance(fault, StuckAtFault):
                if i not in self._latches:
                    latch = np.zeros(self._last_output.shape)
                    source = self._last_output[:k] if self._has_last else out
                    latch[:k] = np.where(mask[None], source, 0.0)
                    self._latches[i] = latch
                if fault.value_c is not None:
                    out[:, mask] = fault.value_c
                else:
                    out[:, mask] = self._latches[i][:k][:, mask]
                counts[:k] += n_sel
            elif isinstance(fault, DropoutFault):
                if fault.prob >= 1.0:
                    dropped = np.broadcast_to(mask[None], out.shape)
                    n_dropped = n_sel
                else:
                    dropped, n_dropped = self._replay(i, fault, step, k)
                if fault.mode == "nan":
                    out[dropped] = np.nan
                    counts[:k] += n_dropped
                elif self._has_last:
                    out[dropped] = self._last_output[:k][dropped]
                    counts[:k] += n_dropped
                # else: very first read — passes through, not counted.
            elif isinstance(fault, DriftFault):
                out[:, mask] += fault.rate_c_per_s * (time_s - fault.start_s)
                counts[:k] += n_sel
            elif isinstance(fault, SpikeFault):
                spiking, n_spiking = self._replay(i, fault, step, k)
                out[spiking] += fault.magnitude_c
                counts[:k] += n_spiking
            else:
                assert isinstance(fault, CalibrationStepFault)
                out[:, mask] += fault.offset_c
                counts[:k] += n_sel
        self._last_output[:k] = out
        self._has_last = True
        return out

    def flush(self, member: int) -> None:
        """Write one member's batched sensor counter onto its injector."""
        self.injectors[member].sensor_faulted_samples = int(
            self.sensor_faulted_samples[member]
        )

    def flush_all(self) -> None:
        """Write every member's batched sensor counter back."""
        for j in range(self.n):
            self.flush(j)


__all__ = [
    "FaultInjector",
    "FleetFaultInjector",
    "FaultSummary",
    "sensor_fault_masks",
]
