"""Batched fleet engine: vectorised stepping of many independent chips.

The scalar :class:`~repro.sim.engine.ThermalTimingSimulator` advances one
chip per process; a policy sweep therefore pays per-point process fan-out
for runs whose inner loop is a handful of tiny matrix-vector products.
:class:`FleetEngine` stacks N independent chips that share a floorplan
into ``(N, ...)`` arrays and advances them together: one vectorised
sensor read, one vectorised PI/stop-go update, one vectorised power
assembly and one thermal-propagator application for the whole batch
per step, all inside a single process.

Bit-identity contract
---------------------
Fleet results are **bit-identical** to running each member through the
scalar engine (``tests/sim/test_fleet.py`` enforces this across the
full 12-policy taxonomy). Four design rules make that possible:

* Elementwise work (PI law, actuator gating, freeze timers, power
  assembly, leakage, metric folds) is batched — IEEE elementwise ops
  are bit-equal regardless of array shape. Reductions that are *not*
  shape-invariant (``np.sum`` is pairwise, not a left fold) are written
  as strict left folds in the scalar engine's loop order:
  ``np.add.accumulate`` along a row whose first column is the running
  total, so ``((total + c0) + c1) + ...`` for every accumulator and
  member in one call.
* The thermal update is **one** :meth:`~repro.thermal.model.StepOperator.apply_batch`
  **call per step** over the whole live batch: two einsums (``A_d @ T``
  and ``B_d @ P`` per row) plus the ambient add. einsum's per-element
  summation order is shape-invariant, so row ``i`` of the batched
  application is bitwise equal to the scalar engine's
  :meth:`~repro.thermal.model.StepOperator.apply` — which uses the same
  einsum formulation rather than BLAS ``@`` precisely so the two paths
  can never diverge (gemm and gemv pick shape-dependent blocking and
  differ in the last bits).
* Per-run state lives **core-major**: slot ``(i, c)`` holds the
  counters, trace position and trace-pool entry of the process on core
  ``c`` of chip ``i``, so a step updates them with slice arithmetic.
  Threads change cores only at OS ticks, where the member's slots are
  permuted to follow its new assignment.
* Control *decisions* with heavy branching (OS ticks: thermal-table
  folds, migration proposals, scheduler moves) are not re-implemented.
  Each fleet member owns a real scalar simulator; at its OS tick the
  batched state is written into the member's real policy objects, the
  member's real ``_os_tick`` runs, and the mutated state is read back.
  Ticks are rare (every ~360 steps), so the sync cost is negligible —
  and there is no second implementation of the decision logic to drift.

Batching rules
--------------
All members must be *fleet-eligible*: no sensor guards and no
hardware trip. :func:`fleet_blockers` reports why a config is
ineligible; :class:`FleetEngine` refuses such members with
:class:`FleetIncompatibleError` — the
:class:`~repro.sim.runner.ParallelRunner` routes them through the
process-pool fallback instead. Heterogeneous machines/packages are fine:
members are grouped per substrate and per policy family, and each group
steps in lockstep with members retiring as their horizons end.

Stochastic members (fault plans, sensor noise) batch too, by **stream
replay**: each member keeps its own per-fault and per-chip RNG streams
(exactly the ones its scalar run would own), and the batched loop draws
from them per step, per member in ascending row order, per fault in
plan order — one draw of the scalar's exact shape at each point the
scalar loop would draw. Streams are mutually independent, so the
interleaving across members cannot perturb any member's sequence, and
the per-member draw order is the scalar order by construction. The
sensor-fault *transforms* are vectorised over the member stack by
:class:`~repro.faults.injector.FleetFaultInjector` (one cohort per
distinct plan within a group); DVFS-gate and migration fault hooks call
each member's real scalar injector at the same decision points the
scalar engine consults it, so counters and streams live on the real
objects. NaN readings (``mode="nan"`` dropouts) are handled by writing
every reduction the sensor values feed — hottest-unit and chip-hot
folds, PI clamping, trend-window min/first — as explicit selection
folds matching Python/scalar NaN semantics bit for bit.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.control.pi import PIBank
from repro.core.dvfs import DVFSPolicy
from repro.core.stopgo import StopGoPolicy
from repro.faults.injector import FleetFaultInjector
from repro.obs.telemetry import TelemetrySampler
from repro.osmodel.timer import FIRE_SLACK_S
from repro.sim.engine import (
    EngineSubstrate,
    SimulationConfig,
    ThermalTimingSimulator,
)
from repro.sim.metrics import EMERGENCY_TOLERANCE_C, MetricsAccumulator
from repro.sim.results import RunResult
from repro.sim.workloads import Workload
from repro.thermal.layouts import HOTSPOT_UNITS
from repro.uarch.power import (
    L2_BANK_PEAK_W,
    L2_IDLE_FRACTION,
    XBAR_IDLE_FRACTION,
    XBAR_PEAK_W,
)

_OM_L2 = 1 - L2_IDLE_FRACTION
_OM_XBAR = 1 - XBAR_IDLE_FRACTION
_U0, _U1 = HOTSPOT_UNITS

# Columns of the core-major progress state (_GroupBase.prog): the
# counters and trace position of the process on each (chip, core) slot.
_INSTR, _INT, _FP, _CYC, _ADJ, _POS = range(6)
_P_COLS = 6
# Trace-pool columns after the unit powers: the three trace-driven
# counters in the order above, then L2 activity.
_L2 = 3
# Rows of the metric fold buffer (_GroupBase.fold): column 0 holds the
# running total, columns 1..C one step's per-core terms.
_F_WORK, _F_STALL, _F_FROZEN, _F_WALL, _F_EMERG, _F_INSTR = range(6)
_F_ROWS = 6


class FleetIncompatibleError(ValueError):
    """A batch member cannot take the fleet fast path.

    Carries the offending member indices and their blockers so the
    runner can route exactly those points through the scalar fallback.
    """


def fleet_blockers(config: SimulationConfig) -> Tuple[str, ...]:
    """Why a config cannot run in a fleet batch (empty = eligible).

    Mirrors the scalar engine's :attr:`fusion_blockers` vocabulary for
    the features the batched loop does not implement: sensor guards and
    the PROCHOT hardware trip. Fault plans and sensor noise batch via
    per-member RNG stream replay (see the module docstring); sensor
    offset and quantization are deterministic elementwise transforms
    and batch fine.
    """
    blockers = []
    if config.guard is not None:
        blockers.append("sensor-guards")
    if config.hardware_trip:
        blockers.append("hardware-trip")
    return tuple(blockers)


class _Member:
    """One chip in the fleet: its real simulator plus batch bookkeeping."""

    __slots__ = ("index", "workload", "sim", "n_steps", "metrics", "fused")

    def __init__(self, index: int, workload: Optional[Workload], sim, n_steps: int):
        self.index = index
        self.workload = workload
        self.sim = sim
        self.n_steps = n_steps
        self.metrics: Optional[MetricsAccumulator] = None
        self.fused = False


class _LiveMetrics:
    """Telemetry-facing metrics view over the batched accumulators."""

    __slots__ = ("per_core_instructions",)

    def __init__(self, per_core_instructions: List[float]):
        self.per_core_instructions = per_core_instructions


def _member_tuple(entry):
    """Normalise a batch entry to ``(workload, spec, config)``."""
    if isinstance(entry, tuple):
        workload, spec, config = entry
    else:
        workload, spec, config = entry.workload, entry.spec, entry.config
    return workload, spec, config or SimulationConfig()


class FleetEngine:
    """Run a batch of independent chips with vectorised lockstep stepping.

    Args:
        members: Sequence of ``(workload, spec, config)`` tuples or
            objects with those attributes (e.g.
            :class:`~repro.sim.runner.RunPoint`).
        telemetry: Optional per-member samplers (same length as
            ``members``; ``None`` entries for unsampled members). Each
            sampler binds to its member's real simulator and observes
            exactly the series a scalar run would produce.
        substrates: Optional pre-built substrate pool to extend/reuse
            (keyed internally; pass the same dict across engines to
            share traces between batches).

    Raises:
        FleetIncompatibleError: If any member's config has
            :func:`fleet_blockers`.
    """

    def __init__(
        self,
        members: Sequence,
        *,
        telemetry: Optional[Sequence[Optional[TelemetrySampler]]] = None,
        substrates: Optional[Dict[tuple, EngineSubstrate]] = None,
    ):
        if not members:
            raise ValueError("fleet batch must contain at least one member")
        if telemetry is not None and len(telemetry) != len(members):
            raise ValueError("telemetry must have one entry per member")

        parsed = [_member_tuple(m) for m in members]
        bad = []
        for i, (_, _, config) in enumerate(parsed):
            blockers = fleet_blockers(config)
            if blockers:
                bad.append((i, blockers))
        if bad:
            detail = "; ".join(
                f"member {i}: {', '.join(blk)}" for i, blk in bad
            )
            raise FleetIncompatibleError(
                "batch contains fleet-ineligible members — route them "
                f"through the ParallelRunner fallback ({detail})"
            )

        self._substrates: Dict[tuple, EngineSubstrate] = (
            substrates if substrates is not None else {}
        )
        self._by_identity: Dict[tuple, Tuple[tuple, EngineSubstrate]] = {}
        self.members: List[_Member] = []
        for i, (workload, spec, config) in enumerate(parsed):
            substrate = self._substrate_for(config)
            sampler = telemetry[i] if telemetry is not None else None
            benchmarks = (
                workload.benchmarks if workload is not None else None
            )
            if benchmarks is None:
                raise ValueError(f"member {i} has no workload")
            sim = ThermalTimingSimulator(
                benchmarks,
                spec,
                config,
                telemetry=sampler,
                substrate=substrate,
            )
            n_steps = max(1, int(round(config.duration_s / sim.dt)))
            self.members.append(_Member(i, workload, sim, n_steps))

    # -- assembly ----------------------------------------------------------

    def _substrate_for(self, config: SimulationConfig) -> EngineSubstrate:
        """The shared substrate for a config's machine description.

        The key carries the scenario, so a batch mixing chip scenarios
        (e.g. a mesh16 sweep next to a biglittle4+4 sweep) builds one
        ThermalKernel per scenario and groups members accordingly.

        Sweeps share their machine description objects (default configs
        share one frozen ``MachineConfig``), so a lookup by the identity
        of those objects comes first; only an unseen combination pays
        for the ``repr`` of the whole machine tree. The identity memo
        keeps the objects alive, so their ids cannot be reused while
        the engine exists.
        """
        parts = (
            config.machine,
            config.package,
            config.core_sizes_mm,
            config.scenario,
        )
        ident = tuple(map(id, parts))
        hit = self._by_identity.get(ident)
        if hit is not None:
            return hit[1]
        key = tuple(map(repr, parts))
        substrate = self._substrates.get(key)
        if substrate is None:
            substrate = EngineSubstrate.for_config(config)
            self._substrates[key] = substrate
        self._by_identity[ident] = (parts, substrate)
        return substrate

    def _warm_key(self, member: _Member) -> tuple:
        """Warm-start sharing key: members with equal keys get equal states."""
        cfg = member.sim.config
        frac = cfg.warm_start_fraction
        return (
            id(member.sim._substrate),
            member.sim.benchmarks,
            float(cfg.trace_duration_s),
            int(cfg.seed),
            float(cfg.power_scale),
            frac,
            float(cfg.threshold_c) if frac is None else None,
        )

    def _group_key(self, member: _Member) -> tuple:
        """Lockstep-compatibility key for batching members together."""
        sim = member.sim
        throttle = sim.throttle
        if not sim.fusion_blockers:
            return (id(sim._substrate), "fused")
        if throttle is None:
            kind, scope = "none", "-"
        elif isinstance(throttle, DVFSPolicy):
            kind, scope = "dvfs", throttle.scope
        elif isinstance(throttle, StopGoPolicy):
            kind, scope = "stopgo", throttle.scope
        else:  # pragma: no cover - no other policy families exist
            raise FleetIncompatibleError(
                f"unknown throttle family {type(throttle).__name__}"
            )
        extra: tuple = ()
        if kind == "dvfs":
            # Per-controller, not just controllers[0]: a scenario's
            # per-class DVFS floors give distributed controllers
            # heterogeneous output_min values, and members may only be
            # batched when their whole floor vector matches.
            extra = tuple(
                (c.design.b0, c.design.b1, c.output_min, c.output_max)
                for c in throttle.controllers
            )
        return (
            id(sim._substrate),
            kind,
            scope,
            sim.migration is not None,
            extra,
        )

    # -- run ---------------------------------------------------------------

    def run(self) -> List[RunResult]:
        """Execute every member and return results in input order."""
        warm_cache: Dict[tuple, np.ndarray] = {}
        for member in self.members:
            sim = member.sim
            key = self._warm_key(member)
            temps = warm_cache.get(key)
            if temps is None:
                sim._warm_start()
                warm_cache[key] = sim.thermal.temperatures.copy()
            else:
                sim.thermal.set_temperatures(temps)
            member.metrics = MetricsAccumulator(
                sim.n_cores, sim.config.threshold_c
            )
            if sim.telemetry is not None:
                sim.telemetry.begin_run()

        groups: Dict[tuple, List[_Member]] = {}
        for member in self.members:
            groups.setdefault(self._group_key(member), []).append(member)

        # Groups of one run usually step the same traces (a policy sweep
        # splits one workload into several groups), so they share pools.
        pools: Dict[tuple, tuple] = {}
        for key, group in groups.items():
            # Descending horizons so retiring members always form a
            # suffix and the live set stays a contiguous prefix.
            group.sort(key=lambda m: -m.n_steps)
            if key[1] == "fused":
                _FusedGroup(group, pools).run()
                for member in group:
                    member.fused = True
            else:
                _StepwiseGroup(group, pools, kind=key[1], scope=key[2]).run()

        results: List[Optional[RunResult]] = [None] * len(self.members)
        for member in self.members:
            sim = member.sim
            sim.metrics = member.metrics
            sim.last_run_fused = member.fused
            result = sim._build_result(member.metrics)
            if member.workload is not None:
                result = replace(result, workload=member.workload.name)
            results[member.index] = result
        return results  # type: ignore[return-value]


def _stack_traces(traces, n_units: int) -> np.ndarray:
    """The trace pool of _GroupBase: every trace padded and stacked."""
    s_max = max(tr.n_samples for tr in traces)
    pool = np.zeros((len(traces) * s_max, n_units + 4))
    for j, tr in enumerate(traces):
        rows = pool[j * s_max : j * s_max + int(tr.n_samples)]
        rows[:, :n_units] = tr.unit_power
        rows[:, n_units + _INSTR] = tr.instructions
        rows[:, n_units + _INT] = tr.int_rf_accesses
        rows[:, n_units + _FP] = tr.fp_rf_accesses
        rows[:, n_units + _L2] = tr.l2_activity
    return pool


class _GroupBase:
    """Shared batched state for one lockstep group."""

    def __init__(self, members: List[_Member], pools: Dict[tuple, tuple]):
        self.members = members
        self.sims = [m.sim for m in members]
        s0 = self.sims[0]
        self.dt = s0.dt
        self.n_cores = s0.n_cores
        self.n_blocks = s0.thermal.network.n_blocks
        self.op = s0.thermal.operator_for(self.dt)
        self.nominal_cycles = self.dt * s0.config.machine.clock_hz
        self.cui = s0._core_unit_idx          # (C, U)
        self.n_units = self.cui.shape[1]
        self.unit_flat = s0._unit_flat        # (C*U,)
        self.l2_cols = np.asarray(s0._l2_idx_list, dtype=np.int64)
        self.xbar_i = s0._xbar_i
        self.hotspot_idx = s0._hotspot_idx    # (C, 2)
        self.n_steps = [m.n_steps for m in members]  # descending

        n = len(members)
        C = self.n_cores
        self.T = np.stack([s.thermal.temperatures for s in self.sims])
        self.l2_base = np.array(
            [[s.config.power_scale * L2_BANK_PEAK_W for s in self.sims]]
        ).T  # (N, 1)
        self.xbar_base = np.array(
            [[s.config.power_scale * XBAR_PEAK_W for s in self.sims]]
        ).T
        self.ref_w = np.stack([s.leakage.reference_w for s in self.sims])
        leak = s0.leakage
        self.leak_beta = leak.beta
        self.leak_tref = leak.t_ref_c
        self.leak_cap = leak.max_eval_temp_c
        for s in self.sims:
            if (
                s.leakage.beta != leak.beta
                or s.leakage.t_ref_c != leak.t_ref_c
                or s.leakage.max_eval_temp_c != leak.max_eval_temp_c
            ):  # pragma: no cover - engine always uses default leakage
                raise FleetIncompatibleError("heterogeneous leakage models")
        self.leak_buf = np.empty((n, self.n_blocks))
        self.emerg_thresh = np.array(
            [s.config.threshold_c + EMERGENCY_TOLERANCE_C for s in self.sims]
        )

        # Metric accumulators. The summed ones are column 0 of the fold
        # buffer (see _fold_metrics) and the attributes are views of it.
        self.fold = np.zeros((n, _F_ROWS, C + 1))
        self.fold[:, _F_WALL, 1] = self.dt
        self.work_t = self.fold[:, _F_WORK, 0]
        self.stall_t = self.fold[:, _F_STALL, 0]
        self.frozen_t = self.fold[:, _F_FROZEN, 0]
        self.wall = self.fold[:, _F_WALL, 0]
        self.emerg = self.fold[:, _F_EMERG, 0]
        self.instr_tot = np.zeros(n)
        self.max_t = np.full(n, -273.15)
        self.pci = np.zeros((n, C))

        # Core-major slot state: slot (i, c) holds the performance
        # counters, trace position and trace-pool entry of the process
        # running on core c of chip i, so a step updates them with slice
        # arithmetic. Assignments change only at OS ticks, where
        # _permute_slots follows the moves.
        self.assign = np.array(
            [s.scheduler.assignment for s in self.sims], dtype=np.int64
        )
        slot_procs = [
            s.scheduler.process(pid)
            for s in self.sims
            for pid in s.scheduler.assignment
        ]
        self.prog = np.array(
            [
                (
                    p.counters.instructions,
                    p.counters.int_rf_accesses,
                    p.counters.fp_rf_accesses,
                    p.counters.cycles,
                    p.counters.adjusted_cycles,
                    p.position,
                )
                for p in slot_procs
            ]
        ).reshape(n, C, _P_COLS)

        # Trace pool: one row per trace sample holding its unit powers,
        # then instructions, int/fp RF accesses and L2 activity, so one
        # ``take`` fetches a whole step. Traces are padded to the longest
        # one; a slot reads rows slot_base + (position % slot_len), so
        # padding is never read. Pools are keyed by the identity of
        # their traces, which the members keep alive.
        pool_ids: Dict[int, int] = {}
        traces = []
        for p in slot_procs:
            if id(p.trace) not in pool_ids:
                pool_ids[id(p.trace)] = len(traces)
                traces.append(p.trace)
        pool_key = tuple(pool_ids)
        if pool_key not in pools:
            pools[pool_key] = (_stack_traces(traces, self.n_units), pool_ids)
        self.pool, pool_ids = pools[pool_key]
        s_max = self.pool.shape[0] // len(traces)
        self.slot_base = np.array(
            [pool_ids[id(p.trace)] * s_max for p in slot_procs],
            dtype=np.int64,
        ).reshape(n, C)
        self.slot_len = np.array(
            [p.trace.n_samples for p in slot_procs], dtype=np.int64
        ).reshape(n, C)

        # Telemetry cursors (-1 = no sampler).
        self.tel_stride = [0] * n
        self.tel_next = [-1] * n
        for i, s in enumerate(self.sims):
            if s.telemetry is not None:
                self.tel_stride[i] = s.telemetry.stride_steps(self.dt)
                self.tel_next[i] = self.tel_stride[i] - 1

    # -- shared helpers ----------------------------------------------------

    def _leakage(self, m):
        """Leakage of the live prefix, in a reused buffer, scalar op order."""
        leak = self.leak_buf[:m]
        np.minimum(self.T[:m, : self.n_blocks], self.leak_cap, out=leak)
        leak -= self.leak_tref
        leak *= self.leak_beta
        np.exp(leak, out=leak)
        leak *= self.ref_w[:m]
        return leak

    def _fold_metrics(self, m, mt, instr, work=None, stalled=None, frozen=None):
        """Fold one step into the accumulators in the scalar order.

        The step's per-core terms go into columns 1..C of the fold
        buffer (``work=None``: the prefilled full-speed work and no
        stalls). ``MetricsAccumulator.record_step`` adds them to each
        total one core at a time; ``np.add.accumulate`` along a row is
        that strict left fold ``((total + c0) + c1) + ...`` (``np.sum``
        is pairwise), for every total in one call. The wall row adds
        ``dt`` and the emergency row ``dt`` or 0.0, each then zeros, and
        a core that is not frozen adds 0.0: all exact, as totals are
        never -0.0. The instruction row starts from 0.0, like
        ``sum(core_instructions)``, and is added to its total as one
        term.
        """
        fold = self.fold[:m]
        if work is not None:
            fold[:, _F_WORK, 1:] = work
            fold[:, _F_STALL, 1:] = stalled
        if frozen is not None:
            np.multiply(frozen, self.dt, out=fold[:, _F_FROZEN, 1:])
        fold[:, _F_INSTR, 1:] = instr
        np.multiply(
            mt > self.emerg_thresh[:m], self.dt, out=fold[:, _F_EMERG, 1]
        )
        sums = np.add.accumulate(fold, axis=2)[:, :, -1]
        fold[:, :_F_INSTR, 0] = sums[:, :_F_INSTR]
        self.instr_tot[:m] += sums[:, _F_INSTR]
        self.pci[:m] += instr
        hotter = mt > self.max_t[:m]
        np.copyto(self.max_t[:m], mt, where=hotter)

    def _sample_telemetry(self, i, step, eff_scales):
        """One member's telemetry tap, fed from live batched state."""
        sim = self.sims[i]
        self._sync_sampler_counters(i)
        live = _LiveMetrics(self.pci[i].tolist())
        sim.telemetry.sample(
            (step + 1) * self.dt, self.T[i], eff_scales, live
        )
        self.tel_next[i] += self.tel_stride[i]

    def _sync_sampler_counters(self, i):
        """Hook: push batched counters into the member's real objects."""

    def _write_processes(self, i):
        """Write member ``i``'s slot state into its real processes."""
        sched = self.sims[i].scheduler
        for pid, row in zip(self.assign[i].tolist(), self.prog[i].tolist()):
            p = sched.process(pid)
            ctr = p.counters
            (
                ctr.instructions,
                ctr.int_rf_accesses,
                ctr.fp_rf_accesses,
                ctr.cycles,
                ctr.adjusted_cycles,
                p.position,
            ) = row

    def _finish_metrics(self):
        """Write the batched accumulators back into per-member metrics."""
        for i, member in enumerate(self.members):
            metrics = member.metrics
            metrics.wall_time_s = float(self.wall[i])
            metrics.work_time_s = float(self.work_t[i])
            metrics.stall_time_s = float(self.stall_t[i])
            metrics.frozen_time_s = float(self.frozen_t[i])
            metrics.instructions = float(self.instr_tot[i])
            metrics.max_temp_c = float(self.max_t[i])
            metrics.emergency_s = float(self.emerg[i])
            metrics.per_core_instructions = self.pci[i].tolist()

    def _finish_processes(self):
        """Write counters, positions and temperatures back to the sims."""
        for i, sim in enumerate(self.sims):
            sim.thermal.temperatures = self.T[i].copy()
            self._write_processes(i)


class _StepwiseGroup(_GroupBase):
    """Lockstep batched version of the engine's general stepwise loop."""

    def __init__(
        self,
        members: List[_Member],
        pools: Dict[tuple, tuple],
        kind: str,
        scope: str,
    ):
        super().__init__(members, pools)
        self.kind = kind
        self.scope = scope
        n = len(members)
        C = self.n_cores
        sims = self.sims

        self.su = np.array([s._stall_until for s in sims])

        offsets = [s.config.sensor_offset_c for s in sims]
        self.offset = np.array(offsets)[:, None, None]  # (N, 1, 1)
        # Rows past the last nonzero offset skip the add, as the scalar
        # loop does for a zero offset.
        self.offset_rows = max(
            (i + 1 for i, o in enumerate(offsets) if o), default=0
        )
        quant = np.array(
            [[[s.config.sensor_quantization_c]] for s in sims]
        )
        self.qmask = quant > 0
        self.any_quant = bool(self.qmask.any())
        self.qsafe = np.where(self.qmask, quant, 1.0)

        # Stochastic layer: per-member sensor-noise replay rows and
        # fault cohorts (one FleetFaultInjector per distinct plan).
        # Noise rows mirror the scalar gating exactly: the scalar loop
        # draws only when it reads sensors at all, which for a fleet
        # group means a throttled group or a faulted member of an
        # unthrottled ("none") group.
        self.fault_rows = [
            i for i, s in enumerate(sims) if s._faults is not None
        ]
        by_plan: Dict[object, List[int]] = {}
        for i in self.fault_rows:
            by_plan.setdefault(sims[i].config.fault_plan, []).append(i)
        self.fault_cohorts: List[
            Tuple[List[int], np.ndarray, FleetFaultInjector]
        ] = [
            (
                rows,
                np.asarray(rows, dtype=np.int64),
                FleetFaultInjector(
                    [sims[i]._faults for i in rows],
                    [self.n_steps[i] for i in rows],
                    self.dt,
                ),
            )
            for rows in by_plan.values()
        ]
        self.fault_flush: Dict[int, Tuple[FleetFaultInjector, int]] = {}
        for rows, _, finj in self.fault_cohorts:
            for j, i in enumerate(rows):
                self.fault_flush[i] = (finj, j)
        self.noise_rows: List[Tuple[int, float]] = [
            (i, s.config.sensor_noise_std_c)
            for i, s in enumerate(sims)
            if s.config.sensor_noise_std_c > 0
            and (kind != "none" or s._faults is not None)
        ]

        self.has_migration = sims[0].migration is not None
        if self.kind == "dvfs":
            pol = sims[0].throttle
            ctrl0 = pol.controllers[0]
            if self.scope == "distributed":
                setpoints = np.array(
                    [[s.throttle.setpoint_c] * C for s in sims]
                )
                # Per-class DVFS floors (scenario chips) give each core's
                # controller its own output_min; the group key guarantees
                # every member shares this vector, so a (C,) floor array
                # broadcasts against the (m, C) lane prefix exactly like
                # one scalar controller per lane. Homogeneous floors keep
                # the scalar fast path.
                floors = [c.output_min for c in pol.controllers]
                out_min = (
                    ctrl0.output_min
                    if all(f == ctrl0.output_min for f in floors)
                    else np.array(floors)
                )
            else:
                setpoints = np.array([s.throttle.setpoint_c for s in sims])
                out_min = ctrl0.output_min
            self.bank = PIBank(
                ctrl0.design,
                setpoints,
                output_min=out_min,
                output_max=ctrl0.output_max,
            )
            for i, s in enumerate(sims):
                ctrls = s.throttle.controllers
                if self.scope == "distributed":
                    for c in range(C):
                        self.bank.read_lane((i, c), ctrls[c])
                else:
                    self.bank.read_lane(i, ctrls[0])
            self.cur = np.array(
                [[a.current_scale for a in s.actuators] for s in sims]
            )
            self.trans = np.array(
                [[a.transitions for a in s.actuators] for s in sims],
                dtype=np.int64,
            )
            self.mta = np.array(
                [[a.min_transition_abs for a in s.actuators] for s in sims]
            )
            self.penalty = sims[0].actuators[0].transition_penalty_s
            for s in sims:
                if any(
                    a.transition_penalty_s != self.penalty
                    for a in s.actuators
                ):  # pragma: no cover - machine equality implies this
                    raise FleetIncompatibleError(
                        "heterogeneous actuator penalties"
                    )
            # Cubes of the current scales via Python pow — the scalar
            # engine computes ``s ** 3`` on Python floats, and numpy's
            # array power differs from it in the last bit for some
            # inputs. Cubes change only at accepted transitions (a few
            # per step at most), so the scalar pow stays off the hot
            # path.
            self.cube = np.array(
                [[float(v) ** 3 for v in row] for row in self.cur]
            )
            # Members whose plans gate DVFS commits: accepted-candidate
            # transitions replay through the member's real injector (so
            # reject/latency streams and counters advance exactly as in
            # the scalar run, where the actuator consults the gate only
            # for requests passing the min-transition filter).
            self.dvfs_fault_rows = [
                i for i in self.fault_rows if sims[i]._faults._dvfs_faults
            ]
            self.dvfs_fault_ix = np.asarray(
                self.dvfs_fault_rows, dtype=np.int64
            )
            self.frej = np.array(
                [[a.faulted_rejections for a in s.actuators] for s in sims],
                dtype=np.int64,
            )
        elif self.kind == "stopgo":
            self.fu = np.array(
                [s.throttle._frozen_until for s in sims]
            )
            self.trips = np.array(
                [s.throttle.trip_count for s in sims], dtype=np.int64
            )
            self.wsteps = np.array(
                [s.throttle._window_steps for s in sims], dtype=np.int64
            )
            self.wactive = np.array(
                [s.throttle._window_active for s in sims], dtype=np.int64
            )
            self.trip_temp = np.array(
                [[s.throttle.trip_temperature_c] for s in sims]
            )
            self.freeze = np.array([[s.throttle.freeze_s] for s in sims])

        if self.has_migration:
            u = len(HOTSPOT_UNITS)
            self.w_sum = np.zeros((n, C, u))
            self.w_first = np.full((n, C, u), np.nan)
            self.w_last = np.zeros((n, C, u))
            self.w_min = np.zeros(n)
            self.w_steps = np.zeros(n, dtype=np.int64)
            self.w_dur = np.zeros(n)

        # Step-scope buffers: every live-prefix element is overwritten
        # each step before it is read.
        self.pbuf = np.empty((n, self.n_blocks))
        self.lmbuf = np.ones((n, self.n_blocks))
        self.ones_sc = np.ones((n, C))
        # Per-slot progress increments; the cycles column is the constant
        # nominal cycle count every step.
        self.inc = np.empty((n, C, _P_COLS))
        self.inc[:, :, _CYC] = self.nominal_cycles

    # -- OS-tick bridge ----------------------------------------------------

    def _member_tick(self, i: int, t: float, sens_row: np.ndarray) -> None:
        """Run one member's real OS tick against synced batched state."""
        sim = self.sims[i]
        C = self.n_cores
        su_list = self.su[i].tolist()
        for c in range(C):
            sim._stall_until[c] = su_list[c]
        w = sim._window
        w._sum[...] = self.w_sum[i]
        np.copyto(w._first, self.w_first[i])
        w._last[...] = self.w_last[i]
        w._min_sum = float(self.w_min[i])
        w._steps = int(self.w_steps[i])
        w.duration_s = float(self.w_dur[i])
        self._sync_throttle_in(i)
        self._write_processes(i)

        readings = [{_U0: r[0], _U1: r[1]} for r in sens_row.tolist()]
        sim._os_tick(t, readings)

        self.su[i] = sim._stall_until
        self._permute_slots(i, sim.scheduler.assignment)
        # _os_tick always ends with window.reset() + per-core
        # reset_window; mirror the reset state directly.
        self.w_sum[i] = 0.0
        self.w_first[i] = np.nan
        self.w_last[i] = 0.0
        self.w_min[i] = 0.0
        self.w_steps[i] = 0
        self.w_dur[i] = 0.0
        self._sync_throttle_out(i)

    def _permute_slots(self, i: int, assignment: List[int]) -> None:
        """Move member ``i``'s slot state to follow a new assignment."""
        old = self.assign[i].tolist()
        if assignment == old:
            return
        src = [old.index(pid) for pid in assignment]
        self.assign[i] = assignment
        for arr in (self.prog, self.slot_base, self.slot_len):
            arr[i] = arr[i, src]

    def _sync_throttle_in(self, i: int) -> None:
        sim = self.sims[i]
        if self.kind == "dvfs":
            ctrls = sim.throttle.controllers
            if self.scope == "distributed":
                for c in range(self.n_cores):
                    self.bank.write_lane((i, c), ctrls[c])
            else:
                self.bank.write_lane(i, ctrls[0])
            for c, a in enumerate(sim.actuators):
                a.current_scale = float(self.cur[i, c])
                a.transitions = int(self.trans[i, c])
                a.faulted_rejections = int(self.frej[i, c])
        elif self.kind == "stopgo":
            pol = sim.throttle
            fu_list = self.fu[i].tolist()
            ws = self.wsteps[i].tolist()
            wa = self.wactive[i].tolist()
            for c in range(self.n_cores):
                pol._frozen_until[c] = fu_list[c]
                pol._window_steps[c] = int(ws[c])
                pol._window_active[c] = int(wa[c])
            pol.trip_count = int(self.trips[i])

    def _sync_throttle_out(self, i: int) -> None:
        sim = self.sims[i]
        if self.kind == "dvfs":
            ctrls = sim.throttle.controllers
            if self.scope == "distributed":
                for c in range(self.n_cores):
                    self.bank.read_lane((i, c), ctrls[c])
            else:
                self.bank.read_lane(i, ctrls[0])
        elif self.kind == "stopgo":
            pol = sim.throttle
            self.fu[i] = pol._frozen_until
            self.wsteps[i] = pol._window_steps
            self.wactive[i] = pol._window_active
            self.trips[i] = pol.trip_count

    def _sync_sampler_counters(self, i: int) -> None:
        """Refresh the real objects the sampler's counter closures read."""
        sim = self.sims[i]
        flush = self.fault_flush.get(i)
        if flush is not None:
            finj, j = flush
            finj.flush(j)
        if self.kind == "dvfs":
            for c, a in enumerate(sim.actuators):
                a.transitions = int(self.trans[i, c])
            ctrls = sim.throttle.controllers
            if self.scope == "distributed":
                for c in range(self.n_cores):
                    ctrls[c]._previous_error = float(
                        self.bank.previous_error[i, c]
                    )
            else:
                ctrls[0]._previous_error = float(self.bank.previous_error[i])
        elif self.kind == "stopgo":
            sim.throttle.trip_count = int(self.trips[i])

    # -- main loop ---------------------------------------------------------

    def run(self) -> None:
        dt = self.dt
        C = self.n_cores
        nb = self.n_blocks
        U = self.n_units
        op_apply_batch = self.op.apply_batch
        n_steps = self.n_steps
        total_steps = n_steps[0]
        alive = len(self.members)
        # Unthrottled ("none") groups read sensors only to feed fault
        # state/counters, matching the scalar loop's need_sensors gate
        # (throttle or faults; guards/series/profiler never batch).
        need_sensors = self.kind != "none" or bool(self.fault_rows)
        throttled = self.kind != "none"
        dvfs = self.kind == "dvfs"
        stopgo = self.kind == "stopgo"
        timers = [s._migration_timer for s in self.sims]
        # Earliest next firing over the group's timers: no alive timer
        # can fire before it, so the per-member poll runs only from then.
        next_fire = min(tm.next_fire_s for tm in timers)
        any_tel = any(st > 0 for st in self.tel_stride)
        injectors = [s._faults for s in self.sims]
        dvfs_fault_rows = self.dvfs_fault_rows if dvfs else []
        prog = self.prog

        for step in range(total_steps):
            while alive > 0 and n_steps[alive - 1] <= step:
                alive -= 1
            if alive == 0:
                break
            m = alive
            t = step * dt

            sens = hot = None
            if need_sensors:
                sens = self.T[:m][:, self.hotspot_idx]  # (m, C, 2)
                k = min(m, self.offset_rows)
                if k:
                    sens[:k] += self.offset[:k]
                # Per-member noise replay: each member's own sensor
                # stream, drawn in ascending row order with the scalar
                # draw shape. Rows are sorted ascending, so the alive
                # prefix cut is a break, not a filter.
                for i, std in self.noise_rows:
                    if i >= m:
                        break
                    sens[i] += self.sims[i]._sensor_rng.normal(
                        0.0, std, sens[i].shape
                    )
                if self.any_quant:
                    sens = np.where(
                        self.qmask[:m],
                        np.floor(sens / self.qsafe[:m] + 0.5)
                        * self.qsafe[:m],
                        sens,
                    )
                # Dynamic faults apply after the static pipeline, one
                # vectorised cohort at a time (cohort rows ascending,
                # so the alive subset is a prefix).
                for rows, rows_ix, finj in self.fault_cohorts:
                    mc = bisect_left(rows, m)
                    if mc:
                        r = rows_ix[:mc]
                        sens[r] = finj.apply_sensor_faults(step, sens[r])
                if throttled:
                    # Hottest-unit fold written as the scalar's Python
                    # ``max(r0, r1)`` (second wins only when strictly
                    # greater): np.maximum would propagate a NaN second
                    # reading where the scalar keeps the first. Bitwise
                    # equal for finite readings (selection reduction).
                    s0c = sens[..., 0]
                    s1c = sens[..., 1]
                    hot = np.where(s1c > s0c, s1c, s0c)

            if self.has_migration and t + FIRE_SLACK_S >= next_fire:
                for i in range(m):
                    if timers[i].fire_due(t):
                        self._member_tick(i, t, sens[i])
                next_fire = min(tm.next_fire_s for tm in timers[:m])

            # Throttle + actuation, batched.
            if dvfs:
                if self.scope == "distributed":
                    req = self.bank.step_prefix(m, hot)
                else:
                    # Chip-hot as the scalar's Python ``max`` left fold
                    # (update only on strictly-greater), so a NaN core
                    # reading falls through instead of poisoning the
                    # chip maximum as hot.max(axis=1) would.
                    chip_hot = hot[:, 0]
                    for c in range(1, C):
                        col = hot[:, c]
                        chip_hot = np.where(col > chip_hot, col, chip_hot)
                    g = self.bank.step_prefix(m, chip_hot)
                    req = np.broadcast_to(g[:, None], (m, C))
                cur = self.cur[:m]
                accept = np.abs(req - cur) >= self.mta[:m]
                extras = None
                nf = bisect_left(dvfs_fault_rows, m)
                if nf:
                    # Every gate candidate of the faulted members in one
                    # scan; nonzero walks row-major, so the injectors
                    # see ascending (member, core) order.
                    rows = self.dvfs_fault_ix[:nf]
                    fr, fc = accept[rows].nonzero()
                    for i, c in zip(rows[fr].tolist(), fc.tolist()):
                        allow, extra = injectors[i].dvfs_request(
                            t, c, float(req[i, c]), float(cur[i, c])
                        )
                        if not allow:
                            accept[i, c] = False
                            self.frej[i, c] += 1
                        elif extra > 0.0:
                            if extras is None:
                                extras = []
                            extras.append((i, c, extra))
                ri, ci = accept.nonzero()
                if ri.size:
                    np.copyto(cur, req, where=accept)
                    self.trans[:m] += accept
                    su = self.su[:m]
                    stall_w = accept
                    if extras is not None:
                        # Stretched PLL re-locks: the scalar adds base
                        # penalty and fault extra in one Python float
                        # add before the stall max — replicate that
                        # exact arithmetic per affected element.
                        stall_w = accept.copy()
                        for i, c, extra in extras:
                            stall_w[i, c] = False
                            su[i, c] = max(float(su[i, c]), t) + (
                                self.penalty + extra
                            )
                    if self.penalty > 0:
                        np.copyto(
                            su,
                            np.maximum(su, t) + self.penalty,
                            where=stall_w,
                        )
                    self.cube[ri, ci] = [v ** 3 for v in cur[ri, ci].tolist()]
                s_eff = cur
                frozen = None
                dyn_mult = self.cube[:m]
            elif stopgo:
                fu = self.fu[:m]
                frozen_pre = t < fu
                tripped = hot >= self.trip_temp[:m]
                newly = ~frozen_pre & tripped
                if np.count_nonzero(newly):
                    if self.scope == "distributed":
                        np.copyto(fu, t + self.freeze[:m], where=newly)
                        self.trips[:m] += newly.sum(axis=1)
                    else:
                        chip_trip = newly.any(axis=1)
                        np.copyto(
                            fu,
                            np.maximum(fu, t + self.freeze[:m]),
                            where=chip_trip[:, None],
                        )
                        self.trips[:m] += chip_trip
                active_b = t >= fu
                self.wsteps[:m] += 1
                self.wactive[:m] += active_b
                s_eff = active_b.astype(float)
                frozen = ~active_b
                dyn_mult = s_eff  # s in {0, 1}: s**3 == s bit-exactly
            else:
                s_eff = self.ones_sc[:m]
                frozen = None
                dyn_mult = None  # scale 1: dyn factor is just active/dt

            stalled = np.minimum(np.maximum(self.su[:m] - t, 0.0), dt)
            if frozen is None:
                active = dt - stalled
            else:
                active = np.where(frozen, 0.0, dt - stalled)
            work = s_eff * active
            adv = work / dt
            af = active / dt

            # One gather fetches every slot's trace sample.
            idx = prog[:m, :, _POS].astype(np.int64)
            idx %= self.slot_len[:m]
            idx += self.slot_base[:m]
            sample = self.pool.take(idx, axis=0)  # (m, C, U + 4)
            u_pw = sample[..., :U]

            dyn = af if dyn_mult is None else dyn_mult * af
            scaled = u_pw * dyn[:, :, None]
            l2_act = sample[..., U + _L2] * s_eff
            l2_act *= af
            # The scalar's running total from 0.0, a strict left fold.
            total_l2 = np.add.accumulate(l2_act, axis=1)[:, -1]

            p = self.pbuf[:m]
            p[:, self.unit_flat] = scaled.reshape(m, -1)
            p[:, self.l2_cols] = self.l2_base[:m] * (
                L2_IDLE_FRACTION + _OM_L2 * l2_act
            )
            p[:, self.xbar_i] = self.xbar_base[:m, 0] * (
                XBAR_IDLE_FRACTION
                + _OM_XBAR * np.minimum(1.0, total_l2 / C)
            )
            leak = self._leakage(m)
            if dvfs:
                lm = self.lmbuf[:m]
                lm[:, self.cui] = (s_eff ** 2)[:, :, None]
                leak *= lm
            p += leak

            # Progress: instruction and RF-access counters, adjusted
            # cycles and position advance by adv-weighted amounts, plain
            # cycles by the nominal count (the prefilled column).
            inc = self.inc[:m]
            np.multiply(
                sample[..., U + _INSTR : U + _FP + 1],
                adv[:, :, None],
                out=inc[..., _INSTR : _FP + 1],
            )
            np.multiply(adv, self.nominal_cycles, out=inc[..., _ADJ])
            inc[..., _POS] = adv
            prog[:m] += inc

            # Thermal update: one apply_batch call over the whole live
            # batch. Its rows are bitwise equal to scalar apply calls
            # (einsum summation is shape-invariant; see StepOperator),
            # and the axis-max is a selection reduction, exact in any
            # order.
            T = self.T
            nT = op_apply_batch(T[:m], p)
            T[:m] = nT
            mt = nT[:, :nb].max(axis=1)

            self._fold_metrics(m, mt, inc[..., _INSTR], work, stalled, frozen)

            if any_tel:
                for i in range(m):
                    if self.tel_next[i] == step:
                        self._sample_telemetry(
                            i,
                            step,
                            [float(work[i, c]) / dt for c in range(C)],
                        )

            if self.has_migration:
                self.w_sum[:m] += sens
                # Per-channel first-reading latch (fill wherever still
                # NaN), matching the scalar dict path under NaN
                # dropouts; for NaN-free readings it is the same
                # step-0 copy the array path performs (reset leaves
                # w_first all-NaN).
                wf = self.w_first[:m]
                np.copyto(wf, sens, where=np.isnan(wf))
                self.w_last[:m] = sens
                # Chip-min as a NaN-skipping fold: the scalar's Python
                # ``min`` never selects a NaN reading, so mask NaNs to
                # +inf before the (exact, selection) reduction.
                self.w_min[:m] += np.where(
                    np.isnan(sens), np.inf, sens
                ).reshape(m, -1).min(axis=1)
                self.w_steps[:m] += 1
                self.w_dur[:m] += dt

        self._finish()

    def _finish(self) -> None:
        self._finish_metrics()
        self._finish_processes()
        for _rows, _ix, finj in self.fault_cohorts:
            finj.flush_all()
        for i, sim in enumerate(self.sims):
            su_list = self.su[i].tolist()
            for c in range(self.n_cores):
                sim._stall_until[c] = su_list[c]
            self._sync_throttle_in(i)
            if self.has_migration:
                w = sim._window
                w._sum[...] = self.w_sum[i]
                np.copyto(w._first, self.w_first[i])
                w._last[...] = self.w_last[i]
                w._min_sum = float(self.w_min[i])
                w._steps = int(self.w_steps[i])
                w.duration_s = float(self.w_dur[i])


class _FusedGroup(_GroupBase):
    """Batched version of the engine's fused (unthrottled) fast path."""

    def run(self) -> None:
        dt = self.dt
        C = self.n_cores
        nb = self.n_blocks
        U = self.n_units
        op_batch = self.op.apply_batch
        n_steps = self.n_steps
        fold = self.fold
        # Every core works a full dt each step: no stalls, no freezes.
        fold[:, _F_WORK, 1:] = dt
        # Unthrottled runs never migrate, so each slot keeps its process
        # and its position advances one sample per step.
        base_pos = self.prog[:, :, _POS].astype(np.int64)
        p = np.empty((len(self.members), nb))

        chunk = 512
        alive = len(self.members)
        start = 0
        total_steps = n_steps[0]
        any_tel = any(st > 0 for st in self.tel_stride)
        tel_scales = [1.0] * C

        while start < total_steps:
            while alive > 0 and n_steps[alive - 1] <= start:
                alive -= 1
            if alive == 0:
                break
            m = alive
            end = min(start + chunk, n_steps[m - 1])
            k = end - start
            steps = np.arange(start, end)

            idx = (base_pos[:m, :, None] + steps[None, None, :]) % (
                self.slot_len[:m, :, None]
            )
            idx += self.slot_base[:m, :, None]
            sample = self.pool.take(idx, axis=0)  # (m, C, k, U + 4)
            u = sample[..., :U]
            l2g = sample[..., U + _L2]  # (m, C, k)
            ig = sample[..., U + _INSTR]

            dyn = np.empty((m, k, nb))
            total_l2 = np.zeros((m, k))
            for c in range(C):
                dyn[:, :, self.cui[c]] = u[:, c]
                total_l2 += l2g[:, c]
                dyn[:, :, self.l2_cols[c]] = self.l2_base[:m] * (
                    L2_IDLE_FRACTION + _OM_L2 * l2g[:, c]
                )
            dyn[:, :, self.xbar_i] = self.xbar_base[:m] * (
                XBAR_IDLE_FRACTION
                + _OM_XBAR * np.minimum(1.0, total_l2 / C)
            )

            T = self.T
            for j in range(k):
                pj = p[:m]
                np.add(dyn[:, j, :], self._leakage(m), out=pj)
                nT = op_batch(T[:m], pj)
                T[:m] = nT
                # Row max is a selection reduction — exact regardless of
                # reduction order, so the batched axis-max matches the
                # scalar engine's per-chip max bit for bit.
                self._fold_metrics(m, nT[:, :nb].max(axis=1), ig[:, :, j])
                if any_tel:
                    g_step = start + j
                    for i in range(m):
                        if self.tel_next[i] == g_step:
                            self._sample_telemetry(i, g_step, tel_scales)

            # Counter folds: sequential left folds over the chunk,
            # seeded with the running totals (np.add.accumulate is a
            # strict left fold, unlike pairwise np.sum), one counter at
            # a time to bound the temporaries. Instruction and RF-access
            # counters add the trace samples; cycles and adjusted cycles
            # the nominal count (full speed: adv = 1).
            seeded = np.empty((m, C, k + 1))
            for col in range(_POS):
                seeded[:, :, 0] = self.prog[:m, :, col]
                seeded[:, :, 1:] = (
                    sample[..., U + col] if col <= _FP else self.nominal_cycles
                )
                self.prog[:m, :, col] = np.add.accumulate(seeded, axis=2)[
                    :, :, -1
                ]
            self.prog[:m, :, _POS] += float(k)

            start = end

        self._finish_metrics()
        self._finish_processes()
