"""Batched fleet engine: vectorised stepping of many independent chips.

The scalar :class:`~repro.sim.engine.ThermalTimingSimulator` advances one
chip per process; a policy sweep therefore pays per-point process fan-out
for runs whose inner loop is a handful of tiny matrix-vector products.
:class:`FleetEngine` stacks N independent chips that share a floorplan
into ``(N, ...)`` arrays and advances them together: one vectorised
sensor read, one vectorised power assembly and one thermal-propagator
application for the whole batch per step, and one vectorised PI or
stop-go update per throttle kind, all inside a single process.

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
  member in one call. Steps write their terms into block buffers and
  each block folds once, before anything reads a total.
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
  counters, trace position and trace-window offset of the process on
  core ``c`` of chip ``i``, so a step updates them with slice
  arithmetic. Trace samples come from a bounded window per trace,
  refilled every few hundred steps, not from a copy of every trace.
  Threads change cores only at OS ticks, where the member's slots are
  permuted to follow its new assignment.
* Control *decisions* with heavy branching (OS ticks: thermal-table
  folds, migration proposals, scheduler moves) are not re-implemented.
  Each fleet member owns a real scalar simulator, built as any other
  on its machine's entry of the process-wide substrate table
  (:meth:`~repro.sim.engine.EngineSubstrate.shared`), so every member
  of one chip steps through the same floorplan, factored kernel and
  chip layout as a scalar run of it; at its OS tick the
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
:class:`~repro.sim.runner.ParallelRunner` routes them to the scalar
engine instead. Heterogeneous machines/packages are fine: members are
grouped by :func:`lockstep_key`, one rule per machine — its fusable
members in one group, its stepwise members (every throttle family,
scope and migration kind, and unthrottled members that cannot fuse) in
another — and each group steps in lockstep with members retiring as
their horizons end. Fusable members that :func:`stepwise_riders` seats
in the stepwise group (at least :data:`FLEET_MIN_WIDTH` wide, covering
their horizons) step there instead, as rows with no throttle stage, so
a machine's mixed batch runs one lockstep loop. A stepwise group runs
its shared stages once per step over all live rows and only the
throttle stage per throttle kind, on a basic slice of that kind's rows,
both scopes together (see :class:`_StepwiseGroup`).

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

import math
from bisect import bisect_left
from dataclasses import replace
from itertools import groupby
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.control.pi import PIBank
from repro.core.taxonomy import MigrationKind, PolicySpec, ThrottleKind
from repro.faults.injector import FleetFaultInjector
from repro.obs.telemetry import TelemetrySampler
from repro.osmodel.timer import FIRE_SLACK_S
from repro.sim.engine import (
    SimulationConfig,
    ThermalTimingSimulator,
    fusion_blockers,
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

# Columns of the core-major progress state (_GroupBase.prog): the
# counters and trace position of the process on each (chip, core) slot.
_INSTR, _INT, _FP, _CYC, _ADJ, _POS = range(6)
_P_COLS = 6
# Trace-pool columns after the unit powers: the three trace-driven
# counters in the order above, then L2 activity.
_L2 = 3
# Rows of the per-core metric block (_GroupBase.cfold) and of the
# per-step one (_GroupBase.tfold); column 0 of each holds the running
# total.
_C_WORK, _C_STALL, _C_FROZEN = range(3)
_T_WALL, _T_EMERG, _T_INSTR = range(3)
# Steps per deferred fold block, and per trace-window refill of the
# stepwise loop. A group wider than _BLOCK_ROWS / _BLOCK members folds
# shorter blocks, so that its block buffers hold at most _BLOCK_ROWS
# member-steps (but at least 8 steps) whatever its width.
_BLOCK = 64
_BLOCK_ROWS = 4096
_WINDOW = 256


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


def lockstep_key(
    spec: Optional[PolicySpec], config: SimulationConfig, substrate
) -> tuple:
    """Lockstep-compatibility key: points with equal keys step together.

    ``substrate`` identifies the point's machine description: the
    engine and the runner's planner both pass the
    :attr:`~repro.sim.engine.EngineSubstrate.key` of its shared
    substrate. A machine's points form at most two groups: the fusable
    ones and the stepwise ones, every throttle family together (the
    stepwise loop runs only its throttle stage per throttle kind,
    whatever the scope). :func:`stepwise_riders` then
    moves the fusable points that ride the stepwise group into it; the
    key alone cannot say which, since riding depends on the group's
    width and horizons. A DVFS member's controller design and per-core
    floors are functions of the machine description (its sample period
    and a scenario's per-class floors), so one group's DVFS rows share
    them.
    """
    return (substrate, "stepwise" if fusion_blockers(spec, config) else "fused")


#: Narrowest lockstep chunk (in :func:`live_width`) the default plan
#: steps in the fleet, and the narrowest stepwise group that unthrottled
#: points ride (:func:`stepwise_riders`). On a 2-vCPU host at a 0.15 s
#: horizon, a group of two ran at 0.84-1.09x the speed of its points'
#: scalar runs and a group of three at 1.31-1.65x, in every throttle
#: family; mixed-family pairs still lose in some mixes
#: (docs/PERFORMANCE.md).
FLEET_MIN_WIDTH = 3


def live_width(points: Sequence) -> float:
    """Mean number of live members per step of a lockstep chunk.

    ``points`` are anything with a ``config`` (run points, fleet
    members). A chunk steps until its longest horizon ends, and each
    step costs about the same whatever the number of live rows, so what
    it gains over the scalar engine grows with its member-steps over its
    longest horizon, not with its member count: three points of equal
    horizon have width 3, one long point beside two that retire early
    has less.
    """
    steps = [p.config.n_steps for p in points]
    return sum(steps) / max(steps)


def stepwise_riders(fusable: Sequence, stepwise: Sequence) -> List[bool]:
    """Which of a machine's fusable points step in its stepwise group.

    ``fusable`` and ``stepwise`` are one machine's points of each
    :func:`lockstep_key` kind (anything with a ``config``). An
    unthrottled point rides the stepwise loop as a row of kind
    ``"none"``: it pays only its width in the shared stages and no
    throttle stage, where a fused group of its own would pay every
    shared call of a step a second time. It rides when the stepwise
    points are at least :data:`FLEET_MIN_WIDTH` wide, the width at which
    the default plan steps them in the fleet, and its horizon is at most
    their longest one. A longer point would keep the loop stepping for
    it alone, and beside a narrow group its own fused loop is cheaper.
    :class:`FleetEngine` applies this rule to each machine of a batch
    and the runner's default plan to each stepwise chunk, so the two
    agree on every chunk the plan builds.
    """
    if not stepwise or live_width(stepwise) < FLEET_MIN_WIDTH:
        return [False] * len(fusable)
    longest = max(p.config.n_steps for p in stepwise)
    return [p.config.n_steps <= longest for p in fusable]


def _family(spec: Optional[PolicySpec]) -> Tuple[str, str, bool]:
    """A stepwise member's throttle family: ``(kind, scope, migrates)``."""
    if spec is None:
        return ("none", "-", False)
    kind = "dvfs" if spec.throttle is ThrottleKind.DVFS else "stopgo"
    return (kind, spec.scope.value, spec.migration is not MigrationKind.NONE)


class _Member:
    """One chip in the fleet: its real simulator plus batch bookkeeping."""

    __slots__ = (
        "index", "workload", "sim", "n_steps", "metrics", "fused", "width"
    )

    def __init__(self, index: int, workload: Optional[Workload], sim, n_steps: int):
        self.index = index
        self.workload = workload
        self.sim = sim
        self.n_steps = n_steps
        self.metrics: Optional[MetricsAccumulator] = None
        self.fused = False
        #: Members of the lockstep group this one stepped in.
        self.width = 0

    @property
    def config(self) -> SimulationConfig:
        """The member's configuration, as on a run point."""
        return self.sim.config


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

    Raises:
        FleetIncompatibleError: If any member's config has
            :func:`fleet_blockers`.
    """

    def __init__(
        self,
        members: Sequence,
        *,
        telemetry: Optional[Sequence[Optional[TelemetrySampler]]] = None,
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

        self.members: List[_Member] = []
        for i, (workload, spec, config) in enumerate(parsed):
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
            )
            self.members.append(_Member(i, workload, sim, config.n_steps))

    # -- assembly ----------------------------------------------------------

    def _warm_key(self, member: _Member) -> tuple:
        """Warm-start sharing key: members with equal keys get equal states."""
        cfg = member.sim.config
        frac = cfg.warm_start_fraction
        return (
            member.sim._substrate.key,
            member.sim.benchmarks,
            float(cfg.trace_duration_s),
            int(cfg.seed),
            float(cfg.power_scale),
            frac,
            float(cfg.threshold_c) if frac is None else None,
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
            sim = member.sim
            key = lockstep_key(sim.spec, sim.config, sim._substrate.key)
            groups.setdefault(key, []).append(member)
        for (machine, kind), fusable in groups.items():
            stepwise = groups.get((machine, "stepwise"))
            if kind == "fused" and stepwise:
                rides = stepwise_riders(fusable, stepwise)
                stepwise += [m for m, r in zip(fusable, rides) if r]
                fusable[:] = [m for m, r in zip(fusable, rides) if not r]

        for key, group in groups.items():
            if not group:
                continue
            # Descending horizons so retiring members always form a
            # suffix and the live set stays a contiguous prefix; within
            # a horizon each throttle family takes one run of rows.
            group.sort(key=lambda m: (-m.n_steps, _family(m.sim.spec)))
            for member in group:
                member.width = len(group)
            if key[1] == "fused":
                _FusedGroup(group).run()
                for member in group:
                    member.fused = True
            else:
                _StepwiseGroup(group).run()

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


class _GroupBase:
    """Shared batched state for one lockstep group."""

    def __init__(self, members: List[_Member]):
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
            [[s.config.threshold_c + EMERGENCY_TOLERANCE_C] for s in self.sims]
        )  # (N, 1)

        # Metric accumulators, folded a block of steps at a time (see
        # _flush_metrics). A step writes its per-core work, stall and
        # frozen terms into columns 1 + j*C .. of cfold, its per-core
        # instructions into row 1 + j of ifold and its chip maximum into
        # row j of mt_blk. Column 0 of cfold and tfold, and row 0 of
        # ifold, hold the running totals; the attributes are views.
        self.block = B = min(_BLOCK, max(8, _BLOCK_ROWS // n))
        self.blk_k = 0
        self.cfold = np.zeros((n, 3, 1 + B * C))
        self.tfold = np.zeros((n, 3, 1 + B))
        self.tfold[:, _T_WALL, 1:] = self.dt
        self.ifold = np.zeros((n, 1 + B, 1 + C))
        self.mt_blk = np.empty((B, n))
        self.work_t = self.cfold[:, _C_WORK, 0]
        self.stall_t = self.cfold[:, _C_STALL, 0]
        self.frozen_t = self.cfold[:, _C_FROZEN, 0]
        self.wall = self.tfold[:, _T_WALL, 0]
        self.emerg = self.tfold[:, _T_EMERG, 0]
        self.instr_tot = self.tfold[:, _T_INSTR, 0]
        self.pci = self.ifold[:, 0, 1:]
        self.max_t = np.full(n, -273.15)

        # Core-major slot state: slot (i, c) holds the performance
        # counters, trace position and trace of the process running on
        # core c of chip i, so a step updates them with slice
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

        # Trace windows (see _refill): the distinct traces of the group,
        # each slot's trace, each slot's offset from its absolute sample
        # position to its row of the window pool, and the end of its
        # window there.
        trace_ix: Dict[int, int] = {}
        self.traces = []
        for p in slot_procs:
            if id(p.trace) not in trace_ix:
                trace_ix[id(p.trace)] = len(self.traces)
                self.traces.append(p.trace)
        self.slot_trace = np.array(
            [trace_ix[id(p.trace)] for p in slot_procs], dtype=np.int64
        ).reshape(n, C)
        self.trace_len = np.array(
            [t.n_samples for t in self.traces], dtype=np.int64
        )
        self.slot_off = np.zeros((n, C), dtype=np.int64)
        self.slot_end = np.full((n, C), np.iinfo(np.int64).max)
        self.pool = np.empty((0, self.n_units + 4))
        #: ``base -> (trace, first, size)`` of each window in the pool,
        #: so a refill copies only the windows that moved.
        self.win_spec: Dict[int, Tuple[int, int, int]] = {}

        # Telemetry cursors (-1 = no sampler).
        self.tel_stride = [0] * n
        self.tel_next = [-1] * n
        for i, s in enumerate(self.sims):
            if s.telemetry is not None:
                self.tel_stride[i] = s.telemetry.stride_steps(self.dt)
                self.tel_next[i] = self.tel_stride[i] - 1

    # -- shared helpers ----------------------------------------------------

    def _refill(self, m: int, width: int) -> None:
        """Window the traces on what the live slots read in ``width`` steps.

        The slots on a trace are taken in order of their whole position
        in it (modulo its length); a run of them whose gaps are at most
        ``width`` shares one window, holding the samples at positions
        ``lo .. hi + width`` (modulo the trace length) for the run's
        lowest and highest positions. A slot reads row ``floor(pos) -
        slot_off`` with no modulo, its offset folding in the whole
        traces it has wrapped. That covers the next ``width`` steps
        because a position advances at most one sample per step; the
        extra row is for the float sum of fractional advances, which
        can round up onto the next whole sample. The assert checks both
        held over the previous window. Slots of different throttle
        families drift apart on a shared trace, so each keeps a window
        near its own position; when a trace's windows would hold more
        than ``n_samples + width`` rows, one window over the whole trace
        replaces them, and it stays in place across refills.
        """
        pos = self.prog[:m, :, _POS].astype(np.int64)  # floor: pos >= 0
        assert (pos - self.slot_off[:m] <= self.slot_end[:m]).all(), (
            "a trace position advanced more than one sample per step"
        )
        tr = self.slot_trace[:m].ravel()
        rel = pos.ravel() % self.trace_len[tr]
        order = np.lexsort((rel, tr))
        runs: List[list] = []  # [trace, lo, hi]
        run_of = []
        for j, r in zip(tr[order].tolist(), rel[order].tolist()):
            if runs and runs[-1][0] == j and r - runs[-1][2] <= width:
                runs[-1][2] = r
            else:
                runs.append([j, r, r])
            run_of.append(len(runs) - 1)
        windows: List[Tuple[int, int, int]] = []  # (trace, first, size)
        window_of = []
        for j, trace_runs in groupby(runs, key=lambda run: run[0]):
            trace_runs = list(trace_runs)
            n = self.traces[j].n_samples
            sizes = [last - first + width + 1 for _j, first, last in trace_runs]
            if sum(sizes) >= n + width:
                window_of += [len(windows)] * len(trace_runs)
                windows.append((j, 0, n + width))
                continue
            for (_j, first, _last), size in zip(trace_runs, sizes):
                window_of.append(len(windows))
                windows.append((j, first, size))
        rows = sum(size for _j, _first, size in windows)
        if self.pool.shape[0] < rows:
            self.pool = None  # free the old pool before the new one
            self.pool = np.empty((rows, self.n_units + 4))
            self.win_spec = {}
        # Only this layout's windows stay valid: rows outside them may
        # be overwritten by a later layout.
        valid, self.win_spec = self.win_spec, {}
        U = self.n_units
        shift = np.empty(len(windows), dtype=np.int64)
        end = np.empty(len(windows), dtype=np.int64)
        base = 0
        for w, (j, first, size) in enumerate(windows):
            shift[w] = first - base
            spec = (j, first, size)
            if valid.get(base) != spec:
                trace = self.traces[j]
                at = np.arange(first, first + size) % trace.n_samples
                win = self.pool[base : base + size]
                win[:, :U] = trace.unit_power[at]
                win[:, U + _INSTR] = trace.instructions[at]
                win[:, U + _INT] = trace.int_rf_accesses[at]
                win[:, U + _FP] = trace.fp_rf_accesses[at]
                win[:, U + _L2] = trace.l2_activity[at]
            self.win_spec[base] = spec
            base += size
            end[w] = base
        slot_window = np.empty(len(order), dtype=np.int64)
        slot_window[order] = np.asarray(window_of)[run_of]
        slot_window = slot_window.reshape(pos.shape)
        self.slot_off[:m] = pos - rel.reshape(pos.shape) + shift[slot_window]
        self.slot_end[:m] = end[slot_window]

    def _leakage(self, m):
        """Leakage of the live prefix, in a reused buffer, scalar op order."""
        leak = self.leak_buf[:m]
        np.minimum(self.T[:m, : self.n_blocks], self.leak_cap, out=leak)
        leak -= self.leak_tref
        leak *= self.leak_beta
        np.exp(leak, out=leak)
        leak *= self.ref_w[:m]
        return leak

    def _end_step(self, m: int) -> None:
        """Close a step's block slot; fold the block once it is full."""
        self.blk_k += 1
        if self.blk_k == self.block:
            self._flush(m)

    def _flush(self, m: int) -> None:
        """Fold every deferred block of rows ``[:m]``."""
        self._flush_metrics(m)

    def _flush_metrics(self, m: int) -> None:
        """Fold the block's steps into the accumulators of rows ``[:m]``.

        ``MetricsAccumulator.record_step`` adds each step's terms to its
        totals one core at a time, step after step. ``np.add.accumulate``
        along ``[total, step0 core0 .. core C-1, step1 core0, ...]`` is
        that same strict left fold (``np.sum`` is pairwise), for every
        total in one call. The wall row adds ``dt`` per step, the
        emergency row ``dt`` or 0.0, and a core that is not frozen adds
        0.0: all exact, as totals are never -0.0. A step's instructions
        are summed from 0.0, like ``sum(core_instructions)``, and then
        added to their total as one term; per-core instructions take a
        time fold. The maximum temperature is a NaN-skipping selection
        seeded with the running maximum, exact in any order.

        Readers of the totals (telemetry samples, retiring members,
        the final write-back) flush first.
        """
        k = self.blk_k
        if not k:
            return
        self.blk_k = 0
        cf = self.cfold[:m, :, : 1 + k * self.n_cores]
        cf[:, :, 0] = np.add.accumulate(cf, axis=2)[:, :, -1]
        mt = self.mt_blk[:k, :m].T
        tf = self.tfold[:m, :, : 1 + k]
        np.multiply(mt > self.emerg_thresh[:m], self.dt, out=tf[:, _T_EMERG, 1:])
        ifo = self.ifold[:m, : 1 + k]
        tf[:, _T_INSTR, 1:] = np.add.accumulate(ifo[:, 1:], axis=2)[:, :, -1]
        tf[:, :, 0] = np.add.accumulate(tf, axis=2)[:, :, -1]
        ifo[:, 0, 1:] = np.add.accumulate(ifo[:, :, 1:], axis=1)[:, -1]
        hottest = np.where(np.isnan(mt), -np.inf, mt).max(axis=1)
        np.copyto(self.max_t[:m], hottest, where=hottest > self.max_t[:m])

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
    """Lockstep batched version of the engine's general stepwise loop.

    One group holds every stepwise member of a machine, whatever its
    throttle family, and the fusable members that ride it
    (:func:`stepwise_riders`) as rows of kind ``"none"``. Rows lie in
    ``(-horizon, family)`` order (see :meth:`FleetEngine.run`), so the
    rows sharing a throttle kind form one run per horizon, distributed
    rows before global ones: a *stage* (runs of one kind on adjacent
    horizons form one stage). Each step
    runs the shared stages (trace gather, sensors, power, progress,
    thermal step, block writes) once over the live rows and the
    throttle stage once per stage, on a basic slice of its rows, into
    full-width buffers:

    * ``cur`` and ``cube``: a DVFS row's actuator scale and its cube;
      1.0 on every other row;
    * ``gate`` and ``frozen``: 0.0 and True on a frozen stop-go core;
      1.0 and False on every other core;
    * ``lmbuf``: the leakage multiplier, ``s**2`` on a DVFS row's core
      units and 1.0 elsewhere.

    The shared code then needs no branch per family: the scalar loop's
    stop-go ``s`` is 0.0 or 1.0, its frozen active time 0.0, and
    ``x * 1.0 == x`` for every product the neutral values enter.

    Scopes need no stage of their own either. A DVFS stage steps one
    :class:`~repro.control.pi.PIBank` with a ``(row, core)`` lane per
    core of every row; a global row's lanes all read its chip-hot value
    and so step as its one controller. A stop-go stage runs one trip
    pass, and only a trip splits on the row's scope.
    """

    def __init__(self, members: List[_Member]):
        super().__init__(members)
        n = len(members)
        C = self.n_cores
        sims = self.sims
        self.family = [_family(s.spec) for s in sims]
        kinds = [kind for kind, _scope, _mig in self.family]

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
        # row means a throttled member or a faulted unthrottled one.
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
            and (kinds[i] != "none" or s._faults is not None)
        ]

        self.mig_rows = [i for i, f in enumerate(self.family) if f[2]]
        self.has_migration = bool(self.mig_rows)
        dvfs_rows = [i for i, kind in enumerate(kinds) if kind == "dvfs"]
        stopgo_rows = [i for i, kind in enumerate(kinds) if kind == "stopgo"]
        self.has_dvfs = bool(dvfs_rows)
        self.has_stopgo = bool(stopgo_rows)

        # DVFS state. Cubes and squares of the scales via Python pow —
        # the scalar engine computes ``s ** 3`` and ``s ** 2`` on Python
        # floats, and numpy's array power differs from it in the last
        # bit for some inputs. They change only at accepted transitions
        # (a few per step at most), so the scalar pow stays off the hot
        # path.
        self.cur = np.ones((n, C))
        for i in dvfs_rows:
            self.cur[i] = [a.current_scale for a in sims[i].actuators]
        self.cube = np.array([[v ** 3 for v in row] for row in self.cur.tolist()])
        self.lmbuf = np.ones((n, self.n_blocks))
        for i in dvfs_rows:
            sq = [v ** 2 for v in self.cur[i].tolist()]
            self.lmbuf[i, self.cui] = np.array(sq)[:, None]
        self.trans = np.array(
            [[a.transitions for a in s.actuators] for s in sims],
            dtype=np.int64,
        )
        self.frej = np.array(
            [[a.faulted_rejections for a in s.actuators] for s in sims],
            dtype=np.int64,
        )
        self.mta = np.array(
            [[a.min_transition_abs for a in s.actuators] for s in sims]
        )
        self.penalty = 0.0
        if dvfs_rows:
            self.penalty = sims[dvfs_rows[0]].actuators[0].transition_penalty_s
        for i in dvfs_rows:
            if any(
                a.transition_penalty_s != self.penalty
                for a in sims[i].actuators
            ):  # pragma: no cover - machine equality implies this
                raise FleetIncompatibleError("heterogeneous actuator penalties")

        # Global-scope rows, as a column that selects per row.
        self.chip_rows = np.array(
            [[scope == "global"] for _kind, scope, _mig in self.family]
        )

        # Throttle stages, one per run of rows of one kind, ascending:
        # (lo, hi, rows whose plans gate DVFS commits, the same as an
        # index array, PI bank or None for stop-go, whether a global row
        # is among them). Gated rows replay accepted-candidate
        # transitions through the member's real injector, so
        # reject/latency streams and counters advance as in the scalar
        # run, where the actuator consults the gate only for requests
        # passing the min-transition filter.
        gated = [
            i for i in self.fault_rows if sims[i]._faults._dvfs_faults
        ]
        self.stages: List[tuple] = []
        #: Row -> (PI bank, lane) of each DVFS row.
        self.row_lane: Dict[int, Tuple[PIBank, int]] = {}
        for kind, run in groupby(range(n), key=lambda i: kinds[i]):
            if kind == "none":
                continue
            run = list(run)
            lo, hi = run[0], run[-1] + 1
            rows = [i for i in gated if lo <= i < hi]
            bank = self._pi_bank(lo, hi) if kind == "dvfs" else None
            self.stages.append((
                lo, hi, rows, np.asarray(rows, dtype=np.int64), bank,
                bool(self.chip_rows[lo:hi].any()),
            ))

        # Stop-go state. The duty windows count steps and active steps;
        # a block adds its step count and the active steps it stored as
        # unfrozen cores (see _flush).
        self.gate = np.ones((n, C))
        self.frozen = np.zeros((n, C), dtype=bool)
        self.fu = np.zeros((n, C))
        self.trips = np.zeros(n, dtype=np.int64)
        self.wsteps = np.zeros((n, C), dtype=np.int64)
        self.wactive = np.zeros((n, C), dtype=np.int64)
        self.trip_temp = np.full((n, 1), np.inf)
        self.freeze = np.zeros((n, 1))
        for i in stopgo_rows:
            pol = sims[i].throttle
            self.fu[i] = pol._frozen_until
            self.trips[i] = pol.trip_count
            self.wsteps[i] = pol._window_steps
            self.wactive[i] = pol._window_active
            self.trip_temp[i] = pol.trip_temperature_c
            self.freeze[i] = pol.freeze_s

        if self.has_migration:
            # Trend window, folded a block at a time like the metrics
            # (see _flush_window): a step stores its readings in row
            # 1 + j of whist, whose row 0 holds the running sums; the
            # chip-min and duration time folds keep their totals in
            # column 0 of wfold. Rows that do not migrate fold too, and
            # are never read.
            u = len(HOTSPOT_UNITS)
            self.whist = np.zeros((n, 1 + self.block, C, u))
            self.wfold = np.zeros((n, 2, 1 + self.block))
            self.wfold[:, 1, 1:] = self.dt
            self.w_sum = self.whist[:, 0]
            self.w_first = np.full((n, C, u), np.nan)
            self.w_last = np.zeros((n, C, u))
            self.w_min = self.wfold[:, 0, 0]
            self.w_steps = np.zeros(n, dtype=np.int64)
            self.w_dur = self.wfold[:, 1, 0]

        # Step-scope buffers: every live-prefix element is overwritten
        # each step before it is read.
        self.pbuf = np.empty((n, self.n_blocks))
        # Per-slot progress increments; the cycles column is the constant
        # nominal cycle count every step.
        self.inc = np.empty((n, C, _P_COLS))
        self.inc[:, :, _CYC] = self.nominal_cycles

    def _pi_bank(self, lo: int, hi: int) -> PIBank:
        """The PI bank of DVFS rows ``[lo:hi]``: lanes ``(row, core)``.

        Lane ``(row, c)`` mirrors the controller that drives core ``c``
        (``controller_for``): its own on a distributed row, the one
        shared controller on a global row, whose lanes then step with
        equal setpoints, floors, states and readings, bit for bit alike.
        Per-class DVFS floors (scenario chips) give each lane its
        controller's ``output_min``. The live rows of a stage are a
        prefix of its rows, so the bank steps a prefix of its lanes. A
        bank's controller design is a function of the machine
        description, so the first row's controller stands for every row.
        """
        C = self.n_cores
        sims = self.sims[lo:hi]
        lanes = [[s.throttle.controller_for(c) for c in range(C)] for s in sims]
        ctrl0 = lanes[0][0]
        bank = PIBank(
            ctrl0.design,
            [[s.throttle.setpoint_c] * C for s in sims],
            output_min=[[ctrl.output_min for ctrl in row] for row in lanes],
            output_max=ctrl0.output_max,
            block=self.block,
        )
        for lane in range(hi - lo):
            self.row_lane[lo + lane] = (bank, lane)
            self._read_bank(lo + lane)
        return bank

    def _read_bank(self, i: int) -> None:
        """Copy row ``i``'s controllers into its bank lanes."""
        bank, lane = self.row_lane[i]
        throttle = self.sims[i].throttle
        for c in range(self.n_cores):
            bank.read_lane((lane, c), throttle.controller_for(c))

    # -- OS-tick bridge ----------------------------------------------------

    def _member_tick(self, i: int, t: float, sens_row: np.ndarray) -> None:
        """Run one member's real OS tick against synced batched state.

        The deferred blocks must be folded first.
        """
        sim = self.sims[i]
        C = self.n_cores
        su_list = self.su[i].tolist()
        for c in range(C):
            sim._stall_until[c] = su_list[c]
        self._write_window(i)
        self._sync_throttle_in(i)
        self._write_processes(i)

        sim._os_tick(t, sens_row)

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

    def _write_window(self, i: int) -> None:
        """Write row ``i``'s trend window into its real simulator."""
        w = self.sims[i]._window
        w._sum[...] = self.w_sum[i]
        np.copyto(w._first, self.w_first[i])
        w._last[...] = self.w_last[i]
        w._min_sum = float(self.w_min[i])
        w._steps = int(self.w_steps[i])
        w.duration_s = float(self.w_dur[i])

    def _permute_slots(self, i: int, assignment: List[int]) -> None:
        """Move member ``i``'s slot state to follow a new assignment."""
        old = self.assign[i].tolist()
        if assignment == old:
            return
        src = [old.index(pid) for pid in assignment]
        self.assign[i] = assignment
        for arr in (self.prog, self.slot_trace, self.slot_off, self.slot_end):
            arr[i] = arr[i, src]

    def _flush_window(self, m: int, k: int) -> None:
        """Fold ``k`` steps of readings into the trend windows of ``[:m]``.

        Per step the scalar window adds each reading to its sum, latches
        the first non-NaN reading of each channel (a NaN reading is
        copied while the latch is still empty), keeps the last reading,
        and adds the chip's NaN-skipping minimum and ``dt`` to their
        totals. Over a block that is a time fold of the sums, minima and
        durations (``np.add.accumulate``, seeded with the totals) and
        selections for the latch and the last reading.
        """
        h = self.whist[:m, : 1 + k]
        h[:, 0] = np.add.accumulate(h, axis=1)[:, -1]
        steps = h[:, 1:]
        nan = np.isnan(steps)
        seen = ~nan
        first = np.take_along_axis(
            steps, seen.argmax(axis=1)[:, None], axis=1
        )[:, 0]
        np.copyto(
            self.w_first[:m],
            np.where(seen.any(axis=1), first, steps[:, -1]),
            where=np.isnan(self.w_first[:m]),
        )
        self.w_last[:m] = steps[:, -1]
        wf = self.wfold[:m, :, : 1 + k]
        wf[:, 0, 1:] = np.where(nan, np.inf, steps).reshape(m, k, -1).min(axis=2)
        wf[:, :, 0] = np.add.accumulate(wf, axis=2)[:, :, -1]
        self.w_steps[:m] += k

    def _sync_throttle_in(self, i: int) -> None:
        """Write row ``i``'s throttle state into its real policy objects."""
        kind = self.family[i][0]
        sim = self.sims[i]
        if kind == "dvfs":
            # A global row's one controller takes lane (row, 0).
            bank, lane = self.row_lane[i]
            for c, ctrl in enumerate(sim.throttle.controllers):
                bank.write_lane((lane, c), ctrl)
            for c, a in enumerate(sim.actuators):
                a.current_scale = float(self.cur[i, c])
                a.transitions = int(self.trans[i, c])
                a.faulted_rejections = int(self.frej[i, c])
        elif kind == "stopgo":
            pol = sim.throttle
            fu_list = self.fu[i].tolist()
            ws = self.wsteps[i].tolist()
            wa = self.wactive[i].tolist()
            for c in range(self.n_cores):
                pol._frozen_until[c] = fu_list[c]
                pol._window_steps[c] = ws[c]
                pol._window_active[c] = wa[c]
            pol.trip_count = int(self.trips[i])

    def _sync_throttle_out(self, i: int) -> None:
        """Read row ``i``'s throttle state back after its OS tick."""
        kind = self.family[i][0]
        if kind == "dvfs":
            self._read_bank(i)
        elif kind == "stopgo":
            pol = self.sims[i].throttle
            self.fu[i] = pol._frozen_until
            self.wsteps[i] = pol._window_steps
            self.wactive[i] = pol._window_active
            self.trips[i] = pol.trip_count

    def _sync_sampler_counters(self, i: int) -> None:
        """Refresh the real objects the sampler's counter closures read."""
        kind = self.family[i][0]
        sim = self.sims[i]
        flush = self.fault_flush.get(i)
        if flush is not None:
            finj, j = flush
            finj.flush(j)
        if kind == "dvfs":
            for c, a in enumerate(sim.actuators):
                a.transitions = int(self.trans[i, c])
            bank, lane = self.row_lane[i]
            prev = bank.previous_error[lane].tolist()
            for c, ctrl in enumerate(sim.throttle.controllers):
                ctrl._previous_error = prev[c]
        elif kind == "stopgo":
            sim.throttle.trip_count = int(self.trips[i])

    # -- throttle stages ---------------------------------------------------

    def _dvfs_stage(self, lo, hi, t, hot, j, gated, gated_ix, bank, chip):
        """PI step, actuator gate and PLL stalls of DVFS rows ``[lo:hi]``.

        ``chip`` says whether a global row is among them: every lane of
        a global row then reads the chip-hot value instead of its core's.
        """
        hot = hot[lo:hi]
        if chip:
            # Chip-hot as the scalar's Python ``max`` left fold, which
            # takes a reading only when it is strictly greater: np.fmax
            # skips a NaN reading as that fold does, and np.maximum puts
            # back a NaN first reading, which no later reading replaces.
            # Both are selections, so the value is the fold's exactly.
            hottest = np.fmax.reduce(hot, axis=1, keepdims=True)
            np.maximum(hot[:, :1], hottest, out=hottest)
            hot = np.where(self.chip_rows[lo:hi], hottest, hot)
        req = bank.step_prefix(hi - lo, hot, j)
        cur = self.cur[lo:hi]
        accept = np.abs(req - cur) >= self.mta[lo:hi]
        extras = None
        nf = bisect_left(gated, hi)
        if nf:
            # Every gate candidate of the faulted rows in one scan;
            # nonzero walks row-major, so the injectors see ascending
            # (member, core) order.
            rows = gated_ix[:nf]
            fr, fc = accept[rows - lo].nonzero()
            for i, c in zip(rows[fr].tolist(), fc.tolist()):
                r = i - lo
                allow, extra = self.sims[i]._faults.dvfs_request(
                    t, c, float(req[r, c]), float(cur[r, c])
                )
                if not allow:
                    accept[r, c] = False
                    self.frej[i, c] += 1
                elif extra > 0.0:
                    if extras is None:
                        extras = []
                    extras.append((r, c, extra))
        ri, ci = accept.nonzero()
        if not ri.size:
            return
        np.copyto(cur, req, where=accept)
        self.trans[lo:hi] += accept
        su = self.su[lo:hi]
        stall_w = accept
        if extras is not None:
            # Stretched PLL re-locks: the scalar adds base penalty and
            # fault extra in one Python float add before the stall max
            # — replicate that exact arithmetic per affected element.
            stall_w = accept.copy()
            for r, c, extra in extras:
                stall_w[r, c] = False
                su[r, c] = max(float(su[r, c]), t) + (self.penalty + extra)
        if self.penalty > 0:
            np.copyto(su, np.maximum(su, t) + self.penalty, where=stall_w)
        scales = cur[ri, ci].tolist()
        rows = ri + lo
        self.cube[rows, ci] = [v ** 3 for v in scales]
        self.lmbuf[rows[:, None], self.cui[ci]] = np.array(
            [v ** 2 for v in scales]
        )[:, None]

    def _stopgo_stage(self, lo, hi, t, hot):
        """Trips and freezes of stop-go rows ``[lo:hi]``, either scope.

        Writes the rows' ``frozen`` flags and their ``gate``.
        """
        fu = self.fu[lo:hi]
        frozen = self.frozen[lo:hi]
        np.less(t, fu, out=frozen)
        # A core trips when its hottest reading reaches the trip
        # temperature while it is not frozen (NaN never trips).
        newly = np.greater(hot[lo:hi] >= self.trip_temp[lo:hi], frozen)
        if np.count_nonzero(newly):
            # A trip freezes its core on a distributed row; on a global
            # row it freezes the whole chip, pushing no core's freeze
            # earlier, and counts once.
            until = t + self.freeze[lo:hi]
            chip_rows = self.chip_rows[lo:hi]
            chip_trip = newly.any(axis=1, keepdims=True) & chip_rows
            newly &= ~chip_rows
            np.copyto(fu, until, where=newly)
            np.copyto(fu, np.maximum(fu, until), where=chip_trip)
            self.trips[lo:hi] += newly.sum(axis=1) + chip_trip[:, 0]
            np.less(t, fu, out=frozen)
        np.logical_not(frozen, out=self.gate[lo:hi])

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
        stages = self.stages
        # The scalar loop reads sensors when it throttles or carries
        # faults (guards, series and profilers never batch); rows that
        # do neither read them here too, without side effects.
        throttled = bool(stages)
        need_sensors = throttled or bool(self.fault_rows)
        timers = [s._migration_timer for s in self.sims]
        mig_rows = self.mig_rows
        # Earliest next firing over the migrating rows' timers: no alive
        # timer can fire before it, so the per-row poll runs only from
        # then. Other rows' ticks change nothing a result reads.
        next_fire = min(
            (timers[i].next_fire_s for i in mig_rows), default=math.inf
        )
        any_tel = any(st > 0 for st in self.tel_stride)
        prog = self.prog
        migrates = self.has_migration
        has_stopgo = self.has_stopgo
        has_dvfs = self.has_dvfs
        cfold = self.cfold
        ifold = self.ifold
        mt_blk = self.mt_blk
        cur = self.cur
        cube = self.cube
        if migrates:
            whist = self.whist

        m = alive
        for step in range(total_steps):
            if n_steps[alive - 1] <= step:
                # Retiring members leave the live prefix folded.
                self._flush(alive)
                while alive > 0 and n_steps[alive - 1] <= step:
                    alive -= 1
                if alive == 0:
                    break
            m = alive
            t = step * dt
            if step % _WINDOW == 0:
                self._refill(m, _WINDOW)

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
                    # ``max(r)`` over ``(r0, r1)`` (second wins only when
                    # strictly greater): np.maximum would propagate a NaN
                    # second reading where the scalar keeps the first.
                    # Bitwise equal for finite readings (selection
                    # reduction).
                    s0c = sens[..., 0]
                    s1c = sens[..., 1]
                    hot = np.where(s1c > s0c, s1c, s0c)

            if migrates and t + FIRE_SLACK_S >= next_fire:
                self._flush(m)
                for i in mig_rows:
                    if i >= m:
                        break
                    if timers[i].fire_due(t):
                        self._member_tick(i, t, sens[i])
                next_fire = min(
                    (timers[i].next_fire_s for i in mig_rows if i < m),
                    default=math.inf,
                )

            # Throttle: one stage per run of rows, on basic slices.
            j = self.blk_k
            for lo, hi, gated, gated_ix, bank, chip in stages:
                if lo >= m:
                    break
                if hi > m:
                    hi = m
                if bank is not None:
                    self._dvfs_stage(
                        lo, hi, t, hot, j, gated, gated_ix, bank, chip
                    )
                else:
                    self._stopgo_stage(lo, hi, t, hot)

            # Work, stall and frozen terms land in this step's columns
            # of the metric block.
            cols = slice(1 + j * C, 1 + (j + 1) * C)
            stalled = np.minimum(
                np.maximum(self.su[:m] - t, 0.0), dt,
                out=cfold[:m, _C_STALL, cols],
            )
            active = dt - stalled
            if has_stopgo:
                # A frozen core's (dt - stalled) * 0.0 is the scalar's
                # active time 0.0 (dt - stalled is never negative).
                active *= self.gate[:m]
                np.multiply(self.frozen[:m], dt, out=cfold[:m, _C_FROZEN, cols])
            s_eff = cur[:m]
            work = np.multiply(s_eff, active, out=cfold[:m, _C_WORK, cols])
            adv = work / dt
            af = active / dt

            # One gather fetches every slot's trace sample from the
            # trace window.
            idx = prog[:m, :, _POS].astype(np.int64)
            idx -= self.slot_off[:m]
            sample = self.pool.take(idx, axis=0)  # (m, C, U + 4)
            u_pw = sample[..., :U]

            dyn = cube[:m] * af
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
            if has_dvfs:
                leak *= self.lmbuf[:m]
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
            ifold[:m, 1 + j, 1:] = inc[..., _INSTR]

            # Thermal update: one apply_batch call over the whole live
            # batch. Its rows are bitwise equal to scalar apply calls
            # (einsum summation is shape-invariant; see StepOperator),
            # and the axis-max is a selection reduction, exact in any
            # order.
            T = self.T
            nT = op_apply_batch(T[:m], p)
            T[:m] = nT
            np.max(nT[:, :nb], axis=1, out=mt_blk[j, :m])
            if migrates:
                whist[:m, 1 + j] = sens
            self._end_step(m)

            if any_tel:
                for i in range(m):
                    if self.tel_next[i] == step:
                        self._flush(m)
                        self._sample_telemetry(
                            i,
                            step,
                            [float(work[i, c]) / dt for c in range(C)],
                        )

        self._flush(m)
        self._finish()

    def _flush(self, m: int) -> None:
        """Fold every deferred block of rows ``[:m]``.

        Besides the metrics, a block holds the PI banks' outputs, the
        trend-window readings and, as the frozen terms of the metric
        block, the stop-go duty flags: a duty window adds the block's
        step count and its count of unfrozen steps, exact integer sums.
        """
        k = self.blk_k
        if not k:
            return
        if self.has_stopgo:
            frozen = self.cfold[:m, _C_FROZEN, 1 : 1 + k * self.n_cores]
            frozen = frozen.reshape(m, k, self.n_cores)
            self.wactive[:m] += k - np.count_nonzero(frozen, axis=1)
            self.wsteps[:m] += k
        for lo, hi, _gated, _ix, bank, _chip in self.stages:
            if bank is not None and lo < m:
                bank.fold_window(min(hi, m) - lo, k)
        if self.has_migration:
            self._flush_window(m, k)
        self._flush_metrics(m)

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
            if self.family[i][2]:
                self._write_window(i)


class _FusedGroup(_GroupBase):
    """Batched version of the engine's fused (unthrottled) fast path."""

    def run(self) -> None:
        dt = self.dt
        C = self.n_cores
        nb = self.n_blocks
        U = self.n_units
        op_batch = self.op.apply_batch
        n_steps = self.n_steps
        ifold = self.ifold
        mt_blk = self.mt_blk
        # Every core works a full dt each step: no stalls, no freezes.
        self.cfold[:, _C_WORK, 1:] = dt
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

        m = alive
        while start < total_steps:
            if n_steps[alive - 1] <= start:
                # Retiring members leave the live prefix folded.
                self._flush(alive)
                while alive > 0 and n_steps[alive - 1] <= start:
                    alive -= 1
                if alive == 0:
                    break
            m = alive
            end = min(start + chunk, n_steps[m - 1])
            k = end - start
            steps = np.arange(start, end)

            self._refill(m, k)
            idx = base_pos[:m, :, None] + steps[None, None, :]
            idx -= self.slot_off[:m, :, None]
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
                np.max(nT[:, :nb], axis=1, out=mt_blk[self.blk_k, :m])
                ifold[:m, 1 + self.blk_k, 1:] = ig[:, :, j]
                self._end_step(m)
                if any_tel:
                    g_step = start + j
                    for i in range(m):
                        if self.tel_next[i] == g_step:
                            self._flush(m)
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

        self._flush(m)
        self._finish_metrics()
        self._finish_processes()
