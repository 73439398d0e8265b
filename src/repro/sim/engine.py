"""The thermal/timing simulation engine (paper Figure 2, Section 3.3).

One engine step covers one trace sample period (100,000 nominal cycles =
27.78 us). Within a step, for each core:

1. the throttle policy reads that core's hotspot sensors and produces a
   frequency scale (stop-go: 1.0 or 0.0; DVFS: the PI output);
2. the DVFS actuator enforces the minimum-transition rule and charges the
   10 us PLL penalty for accepted changes; migration context switches
   charge 100 us to each involved core;
3. useful work is ``scale x (step - stall overlap)`` seconds of
   full-speed-equivalent execution: the core's trace position, retired
   instructions, and performance counters advance by exactly that much;
4. power is assembled — trace dynamic power scaled by the cubic DVFS
   relation and the active fraction, plus temperature-dependent leakage
   (voltage-squared scaled for DVFS domains) — and the thermal model steps.

Every 10 ms the OS timer fires: thermal-trend windows are folded into the
thread-core thermal table, and the migration policy (if any) may propose a
reassignment, which the scheduler executes with per-core penalties. This
is the paper's two-loop structure: a fast hardware PI loop inside a slow
OS migration loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.dvfs import DVFSActuator, DVFSPolicy
from repro.core.migration import MigrationContext, MigrationPolicy
from repro.core.policy import DEFAULT_THRESHOLD_C, ThrottlePolicy
from repro.core.sensor_migration import SensorBasedMigration
from repro.core.stopgo import StopGoPolicy
from repro.core.taxonomy import MigrationKind, PolicySpec, build_policy
from repro.faults.guards import GuardConfig, SensorGuardBank
from repro.faults.injector import FaultInjector, sensor_fault_masks
from repro.faults.models import FaultPlan, FaultSummary
from repro.osmodel.process import Process
from repro.osmodel.scheduler import Scheduler
from repro.osmodel.thermal_table import ThreadCoreThermalTable
from repro.obs.events import RunEventLog
from repro.obs.logconfig import get_logger
from repro.obs.profiler import NULL_PROFILER, StepProfiler
from repro.obs.telemetry import TelemetrySampler
from repro.osmodel.timer import DEFAULT_MIGRATION_PERIOD_S, PeriodicTimer
from repro.scenarios import Scenario
from repro.sim.metrics import EMERGENCY_TOLERANCE_C, MetricsAccumulator
from repro.sim.results import RunResult
from repro.sim.workloads import Workload
from repro.thermal.layouts import (
    HOTSPOT_UNITS,
    build_cmp_floorplan,
    core_block_name,
)
from repro.thermal.coupling import LeakageCouplingError, coupled_steady_state
from repro.thermal.leakage import LeakageModel, block_leakage_weights
from repro.thermal.model import ThermalKernel, ThermalModel
from repro.thermal.rc_network import RCNetwork
from repro.thermal.package import HIGH_PERFORMANCE_PACKAGE, ThermalPackage
from repro.uarch.config import DEFAULT_MACHINE, MachineConfig
from repro.uarch.interval_model import UNIT_ORDER
from repro.uarch.power import (
    L2_BANK_PEAK_W,
    L2_IDLE_FRACTION,
    XBAR_IDLE_FRACTION,
    XBAR_PEAK_W,
    PowerModel,
)
from repro.uarch.tracegen import generate_trace
from repro.util.memo import remember
from repro.util.rng import DEFAULT_ROOT_SEED, RngStream

#: Gradient weight (seconds) in the sensor-intensity observation: the
#: observed signal is (elevation above the chip's coolest sensor) +
#: tau * dT/dt, capturing both equilibrium level and transient trend.
GRADIENT_TAU_S = 0.010

def fusion_blockers(
    spec: Optional[PolicySpec], config: "SimulationConfig"
) -> Tuple[str, ...]:
    """Why a run cannot take the whole-run fused path (empty = eligible).

    Any entry means some per-step stage could perturb an intermediate
    state, so the engine must take the general stepwise path. A pure
    function of the point, so the runner can plan with it before any
    simulator exists; observers (event log, profiler, telemetry) never
    enter it, since the fused path serves them too.
    """
    blockers = []
    if spec is not None:
        blockers.append("throttle-policy")
        if spec.migration is not MigrationKind.NONE:
            blockers.append("migration-policy")
    plan = config.fault_plan
    if plan is not None and not plan.is_empty:
        blockers.append("fault-plan")
    if config.guard is not None:
        blockers.append("sensor-guards")
    if config.hardware_trip:
        blockers.append("hardware-trip")
    if not config.fuse_steps:
        blockers.append("disabled")
    return tuple(blockers)


@dataclass(frozen=True)
class SimulationConfig:
    """Everything configurable about a run.

    Defaults reproduce the paper's conditions: 0.5 s of silicon time,
    84.2 C limit, 10 ms migration cadence, warm-started package.
    """

    duration_s: float = 0.5
    threshold_c: float = DEFAULT_THRESHOLD_C
    seed: int = DEFAULT_ROOT_SEED
    machine: MachineConfig = DEFAULT_MACHINE
    package: ThermalPackage = HIGH_PERFORMANCE_PACKAGE
    trace_duration_s: float = 0.25
    #: Fraction of trace-mean power used for the warm-start steady state;
    #: ``None`` auto-calibrates the fraction so the hottest block starts
    #: just below the threshold (the controlled-equilibrium regime the
    #: paper's runs operate in).
    warm_start_fraction: Optional[float] = None
    migration_period_s: float = DEFAULT_MIGRATION_PERIOD_S
    sensor_noise_std_c: float = 0.0
    sensor_quantization_c: float = 0.0
    #: Static calibration error added to every sensor reading. A negative
    #: offset makes the chip look cooler than it is — the failure mode the
    #: hardware trip exists to catch.
    sensor_offset_c: float = 0.0
    #: Independent hardware overtemperature trip (PROCHOT-style): a
    #: dedicated analog circuit, separate from the digital sensors the
    #: policies read, that clock-gates the whole chip for
    #: ``hardware_trip_freeze_s`` whenever any block truly reaches the
    #: threshold. Off by default — the paper's policies are evaluated on
    #: their own merits; the sensor-bias ablation turns it on.
    hardware_trip: bool = False
    hardware_trip_freeze_s: float = 1e-3
    power_scale: float = 1.0
    #: Optional per-core edge lengths (mm) for the asymmetric-cores
    #: extension; ``None`` keeps the paper's uniform 4 mm cores. A larger
    #: core runs the same workload at lower power density and thus cooler.
    core_sizes_mm: Optional[Tuple[float, ...]] = None
    #: Dynamic fault injection (see :mod:`repro.faults`): sensor channels
    #: sticking, dropping out, drifting, spiking or stepping out of
    #: calibration; DVFS transitions rejected or stretched; migration
    #: requests dropped. ``None`` or an *empty* plan leaves the run
    #: bit-identical to the pre-fault engine. Participates in the
    #: result-cache key like every other configuration field.
    fault_plan: Optional[FaultPlan] = None
    #: Sensor-sanity guard layer (see :mod:`repro.faults.guards`): a
    #: watchdog that stops trusting stuck/implausible sensors and falls
    #: the affected core back to blind stop-go. Off (``None``) by default.
    guard: Optional[GuardConfig] = None
    #: Allow the whole-run fused fast path when nothing (policy, faults,
    #: guards, PROCHOT) can perturb an intermediate step. Results are
    #: bit-identical either way — see ``docs/PERFORMANCE.md`` — so this
    #: exists for equivalence testing and debugging, not for correctness.
    fuse_steps: bool = True
    #: Declarative chip description (see :mod:`repro.scenarios`): mesh or
    #: row topology, per-core classes (area/layout/power/DVFS floor) and
    #: technology node (clock, DVFS ladder, leakage physics). ``None``
    #: keeps the paper's hard-wired 4-core path bit-identical. Like every
    #: config field, a scenario hashes into the result-cache key.
    scenario: Optional["Scenario"] = None

    def __post_init__(self):
        """Reject non-finite numbers and non-physical values."""
        # A float or bool seed would run the same streams as its int and
        # key the result differently.
        if type(self.seed) is not int:
            raise ValueError(f"seed must be an int: {self.seed!r}")
        for name in _FLOAT_FIELDS:
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite: {value}")
        if not all(map(math.isfinite, self.core_sizes_mm or ())):
            raise ValueError(f"core_sizes_mm must be finite: {self.core_sizes_mm}")
        if (
            self.scenario is not None
            and self.scenario.n_cores != self.machine.n_cores
        ):
            raise ValueError(
                f"scenario {self.scenario.name!r} has "
                f"{self.scenario.n_cores} cores but machine.n_cores is "
                f"{self.machine.n_cores}; build the machine via "
                "Scenario.machine_config()"
            )
        if not self.duration_s > 0:
            raise ValueError(f"duration_s must be positive: {self.duration_s}")
        if not self.trace_duration_s > 0:
            raise ValueError(
                f"trace_duration_s must be positive: {self.trace_duration_s}"
            )
        if not self.power_scale > 0:
            raise ValueError(f"power_scale must be positive: {self.power_scale}")
        if not self.hardware_trip_freeze_s > 0:
            raise ValueError(
                f"hardware_trip_freeze_s must be positive: "
                f"{self.hardware_trip_freeze_s}"
            )
        if not self.migration_period_s > 0:
            raise ValueError(
                f"migration_period_s must be positive: {self.migration_period_s}"
            )
        if self.warm_start_fraction is not None and not (
            0.0 <= self.warm_start_fraction <= 1.0
        ):
            raise ValueError(
                f"warm_start_fraction must be in [0,1]: {self.warm_start_fraction}"
            )
        if self.sensor_noise_std_c < 0 or self.sensor_quantization_c < 0:
            raise ValueError("sensor fidelity parameters must be >= 0")

    @property
    def n_steps(self) -> int:
        """Sample periods a run of this configuration steps."""
        return max(1, int(round(self.duration_s / self.machine.sample_period_s)))


#: The scalar float fields of :class:`SimulationConfig`.
_FLOAT_FIELDS = tuple(
    f.name for f in fields(SimulationConfig) if f.type in ("float", "Optional[float]")
)


logger = get_logger(__name__)


def substrate_key(config: SimulationConfig) -> tuple:
    """The key of the machine description a config's substrate builds.

    It carries the scenario, so a batch mixing chip scenarios (e.g. a
    mesh16 sweep next to a biglittle4+4 sweep) builds one ThermalKernel
    per scenario and groups members accordingly.
    """
    return tuple(
        map(
            repr,
            (
                config.machine,
                config.package,
                config.core_sizes_mm,
                config.scenario,
            ),
        )
    )


#: Most entries each of :data:`_SUBSTRATES` and :data:`_SUBSTRATE_IDS`
#: holds; past it the oldest goes. A study uses a handful of chips (the
#: paper's CMP, the asymmetric-core variants, the scenario presets).
SUBSTRATE_TABLE_SIZE = 16

#: ``substrate_key -> EngineSubstrate``: one substrate per machine
#: description, oldest first.
_SUBSTRATES: Dict[tuple, "EngineSubstrate"] = {}
#: ``ids of (machine, package, core_sizes_mm, scenario) -> (those
#: objects, substrate_key)``, oldest first. An entry holds its objects,
#: so their ids cannot be reused while it lives; its key may name an
#: evicted substrate, which is then built again.
_SUBSTRATE_IDS: Dict[Tuple[int, ...], Tuple[tuple, tuple]] = {}


class ThermalTimingSimulator:
    """Runs one workload under one DTM policy.

    Observability is strictly opt-in: pass an
    :class:`~repro.obs.events.RunEventLog` to capture typed, timestamped
    engine events (its summary is attached to the returned
    :class:`~repro.sim.results.RunResult`), a
    :class:`~repro.obs.profiler.StepProfiler` to time the step loop's
    named sections, and/or a
    :class:`~repro.obs.telemetry.TelemetrySampler` to capture a bounded
    metrics time-series at a configurable sample period. None of them
    feed anything back into the simulation, so instrumented runs are
    byte-identical to uninstrumented ones, and none of them chooses the
    path: a fusion-eligible run stays fused under any mix of them.
    """

    def __init__(
        self,
        benchmarks: Sequence[str],
        spec: Optional[PolicySpec],
        config: Optional[SimulationConfig] = None,
        *,
        event_log: Optional[RunEventLog] = None,
        profiler: Optional[StepProfiler] = None,
        telemetry: Optional[TelemetrySampler] = None,
    ):
        """Assemble the full simulated machine for one run.

        The floorplan, factored thermal kernel, chip layout and fault
        masks come from the process-wide :meth:`EngineSubstrate.shared`
        table, so every simulator of one machine description steps
        through the same read-only parts.
        """
        self.config = config or SimulationConfig()
        self.event_log = event_log
        self.profiler = profiler
        self.telemetry = telemetry
        machine = self.config.machine
        if len(benchmarks) != machine.n_cores:
            raise ValueError(
                f"expected {machine.n_cores} benchmarks, got {len(benchmarks)}"
            )
        # Entries may be benchmark names or BenchmarkProfile objects (the
        # SMT extension runs merged profiles that have no registry entry).
        self._profiles = list(benchmarks)
        self.benchmarks = tuple(
            b if isinstance(b, str) else b.name for b in benchmarks
        )
        self.spec = spec
        self.dt = machine.sample_period_s
        self.n_cores = machine.n_cores

        substrate = self._substrate = EngineSubstrate.shared(self.config)
        self.floorplan = substrate.floorplan
        self.thermal = ThermalModel(
            self.floorplan, substrate.package, self.dt, kernel=substrate.kernel
        )
        layout = substrate.layout
        power_model = PowerModel(machine, scale=self.config.power_scale)
        scenario = self.config.scenario
        if scenario is not None:
            self.leakage = LeakageModel(
                self.floorplan,
                power_model.reference_leakage_w,
                beta=scenario.tech.leakage_beta,
                t_ref_c=scenario.tech.leakage_t_ref_c,
                weights=layout.leakage_weights,
            )
        else:
            self.leakage = LeakageModel(
                self.floorplan,
                power_model.reference_leakage_w,
                weights=layout.leakage_weights,
            )
        self._power_model = power_model

        # Traces and processes. A scenario scales each core's dynamic
        # power by its class (a LITTLE core's thread burns a fraction of
        # a big core's watts); the scale binds to the thread's home core
        # at t=0 and migrates with the thread (see docs/SCENARIOS.md).
        if scenario is not None:
            core_scales = [
                self.config.power_scale * s
                for s in scenario.core_power_scales()
            ]
        else:
            core_scales = [self.config.power_scale] * self.n_cores
        traces = [
            generate_trace(
                entry,
                machine,
                duration_s=self.config.trace_duration_s,
                seed=self.config.seed,
                power_scale=core_scales[i],
            )
            for i, entry in enumerate(self._profiles)
        ]
        processes = [
            Process(pid=i, benchmark=name, trace=trace)
            for i, (name, trace) in enumerate(zip(self.benchmarks, traces))
        ]
        self.scheduler = Scheduler(processes, self.n_cores)

        # Policies.
        if spec is None:
            self.throttle: Optional[ThrottlePolicy] = None
            self.migration: Optional[MigrationPolicy] = None
        else:
            self.throttle, self.migration = build_policy(
                spec,
                self.n_cores,
                self.dt,
                threshold_c=self.config.threshold_c,
                core_min_scales=(
                    scenario.core_min_scales() if scenario is not None else None
                ),
            )
        self.actuators = [
            DVFSActuator(
                transition_penalty_s=machine.dvfs.transition_penalty_s,
                min_transition=machine.dvfs.min_transition,
            )
            for _ in range(self.n_cores)
        ]
        self.thermal_table = ThreadCoreThermalTable(self.n_cores, HOTSPOT_UNITS)
        self._migration_timer = PeriodicTimer(self.config.migration_period_s)

        # Fault injection and guards: both strictly opt-in. With no plan
        # (or an empty one) and no guard config, every hook below stays
        # None and the run is bit-identical to the pre-fault engine.
        plan = self.config.fault_plan
        if plan is not None and not plan.is_empty:
            self._faults: Optional[FaultInjector] = FaultInjector(
                plan,
                n_cores=self.n_cores,
                units=HOTSPOT_UNITS,
                seed=self.config.seed,
                event_log=event_log,
                masks=substrate.fault_masks(plan),
            )
            for c, actuator in enumerate(self.actuators):
                actuator.fault_gate = self._faults.dvfs_gate_for(c)
            if self.migration is not None:
                self.migration.request_filter = self._faults.migration_request
        else:
            self._faults = None
        self._guards: Optional[SensorGuardBank] = (
            SensorGuardBank(
                self.n_cores, len(HOTSPOT_UNITS), self.dt, self.config.guard
            )
            if self.config.guard is not None
            else None
        )

        # Precomputed (read-only, possibly shared) indices into the
        # thermal network; see _ChipLayout.
        self._core_unit_idx = layout.core_unit_idx
        self._hotspot_idx = layout.hotspot_idx
        #: Monitored units of every core, in ``_hotspot_idx`` column order.
        self.hotspot_units = HOTSPOT_UNITS
        self._unit_flat = layout.unit_flat
        self._l2_idx_list = layout.l2_idx
        self._xbar_i = layout.xbar_i

        # Mutable run state. Stall deadlines live in a plain list: the
        # step loop reads one scalar per core per step, and list indexing
        # is several times cheaper than numpy 0-d extraction.
        self._stall_until = [0.0] * self.n_cores
        self._prochot_until = 0.0
        #: Hardware-trip activations over the run (0 unless enabled).
        self.prochot_events = 0
        self._window = _TrendWindow(self.n_cores, len(HOTSPOT_UNITS))
        #: Metrics of the most recent :meth:`run` (set when it completes).
        self.metrics: Optional[MetricsAccumulator] = None
        # Event-capture shadow state (never read by the simulation).
        self._prev_sg_frozen = [False] * self.n_cores
        self._in_emergency = False
        # Migration-trigger state: each core's critical hotspot at the last
        # considered migration round, and when that round happened.
        self._last_critical: Optional[List[str]] = None
        self._last_round_s = 0.0

        # Hot-path scratch buffers, reused every step. The step loop
        # writes every element of the power buffer each step (the three
        # index families partition the block set — checked by
        # _ChipLayout), so no per-step zeroing is needed.
        net = self.thermal.network
        n_units = len(UNIT_ORDER)
        self._power_buf = np.zeros(net.n_blocks)
        self._unit_pw_buf = np.empty((self.n_cores, n_units))
        self._scaled_buf = np.empty((self.n_cores, n_units))
        self._dyn_arr = np.empty(self.n_cores)
        self._dyn_col = self._dyn_arr[:, None]
        self._ssq_arr = np.empty(self.n_cores)
        self._ssq_col = self._ssq_arr[:, None]
        self._leak_mult = np.ones(net.n_blocks)

        #: Why the fused fast path (see run()) cannot be used (empty =
        #: eligible). Observers are absent from it: _run_fused serves
        #: them between spans of steps (see docs/OBSERVABILITY.md).
        self.fusion_blockers: Tuple[str, ...] = fusion_blockers(
            spec, self.config
        )
        #: Whether the most recent :meth:`run` took the fused fast path.
        self.last_run_fused = False

        if telemetry is not None:
            telemetry.bind(self)

    # -- helpers -----------------------------------------------------------

    @cached_property
    def _sensor_rng(self) -> RngStream:
        """The per-chip sensor-noise stream, derived on first use.

        Only noisy runs draw from it, so quiet runs never pay for the
        seed derivation; the stream is the same whenever it is created.
        """
        return RngStream(self.config.seed, "sensors", *self.benchmarks)

    def _warm_power(self, frac: float) -> np.ndarray:
        """Block power vector at a uniform fraction of trace-mean power."""
        p = np.zeros(self.thermal.network.n_blocks)
        for c in range(self.n_cores):
            trace = self.scheduler.process_on(c).trace
            p[self._core_unit_idx[c]] = trace.unit_power_mean * frac
            act = trace.l2_activity_mean * frac
            p[self._l2_idx_list[c]] = self.config.power_scale * L2_BANK_PEAK_W * (
                L2_IDLE_FRACTION + (1 - L2_IDLE_FRACTION) * act
            )
        p[self._xbar_i] = self.config.power_scale * XBAR_PEAK_W * XBAR_IDLE_FRACTION
        return p

    def _warm_temps(self, frac: float) -> np.ndarray:
        """Leakage-consistent steady temperatures at a power fraction."""
        temps, _ = coupled_steady_state(
            self.thermal, self.leakage, self._warm_power(frac), tolerance_c=1e-3
        )
        return temps

    def _warm_start(self) -> None:
        """Initialize temperatures at a throttled-equilibrium steady state.

        Real measurement runs start from a thermally settled machine (the
        paper waits for stable temperatures before measuring); the
        controlled equivalent here is the steady state whose hottest block
        sits just below the threshold. If even full trace-mean power stays
        below the threshold, the workload is thermally unconstrained and
        full power is used.
        """
        frac = self.config.warm_start_fraction
        n_blocks = self.thermal.network.n_blocks

        def max_block_temp(fraction: float) -> float:
            """Hottest block at ``fraction`` of mean power, self-consistently."""
            # A diverging leakage fixed point means the operating point is
            # unsustainable — for bisection purposes, "infinitely hot".
            try:
                return float(self._warm_temps(fraction)[:n_blocks].max())
            except LeakageCouplingError:
                return float("inf")

        if frac is None:
            target = self.config.threshold_c - 2.0
            if max_block_temp(1.0) <= target:
                frac = 1.0
            else:
                lo, hi = 0.05, 1.0
                for _ in range(10):
                    mid = 0.5 * (lo + hi)
                    if max_block_temp(mid) > target:
                        hi = mid
                    else:
                        lo = mid
                frac = lo
        self.thermal.set_temperatures(self._warm_temps(frac))

    # -- main loop ------------------------------------------------------------

    def run(self) -> RunResult:
        """Execute the full run and return its result.

        Dispatches to the fused whole-run fast path when
        :attr:`fusion_blockers` is empty, and to the general stepwise loop
        otherwise. The two paths perform the same floating-point
        operations in the same order, so results are bit-identical.
        """
        cfg = self.config
        n_steps = cfg.n_steps
        self._warm_start()
        metrics = MetricsAccumulator(self.n_cores, cfg.threshold_c)
        if self.telemetry is not None:
            self.telemetry.begin_run()
        self.last_run_fused = not self.fusion_blockers
        logger.debug(
            "run start: workload=%s policy=%s steps=%d dt=%.3g fused=%s",
            "-".join(self.benchmarks),
            self.spec.name if self.spec else "unthrottled",
            n_steps,
            self.dt,
            self.last_run_fused,
        )
        if self.last_run_fused:
            self._run_fused(n_steps, metrics)
        else:
            self._run_stepwise(n_steps, metrics)
        self.metrics = metrics
        logger.debug(
            "run end: bips=%.3f duty=%.3f migrations=%d",
            metrics.bips,
            metrics.duty_cycle,
            self.scheduler.total_migrations,
        )
        return self._build_result(metrics)

    def _run_stepwise(self, n_steps: int, metrics: MetricsAccumulator) -> None:
        """The general per-step loop: every edge is checked every step.

        The paper's controllers sample the sensors at every trace step, so
        any active policy collapses the fusion horizon to a single step —
        this loop is the fast path for every throttled run. It assembles
        the power vector into preallocated buffers (the index families
        partition the block set, so every element is overwritten each
        step), keeps per-core scalar work in plain Python, and advances
        temperatures through the cached
        :class:`~repro.thermal.model.StepOperator`.
        """
        cfg = self.config
        dt = self.dt
        n_cores = self.n_cores
        n_blocks = self.thermal.network.n_blocks
        dvfs = isinstance(self.throttle, DVFSPolicy)
        stopgo = isinstance(self.throttle, StopGoPolicy)
        nominal_cycles = dt * cfg.machine.clock_hz
        events = self.event_log
        prof = self.profiler if self.profiler is not None else NULL_PROFILER
        thermal = self.thermal
        apply_step = thermal.operator_for(dt).apply
        leak_power = self.leakage.power_fast
        throttle = self.throttle
        guards = self._guards
        faults = self._faults
        window = self._window
        record_step = metrics.record_step
        process_on = self.scheduler.process_on
        # Each trace's scalar columns as Python lists over the window this
        # run can reach, built for this run only: list indexing hands back
        # a float directly, several times cheaper than numpy 0-d
        # extraction, and a Python float is the same number as the
        # float64 it came from. The window holds the samples from ``base
        # = int(position)`` on, modulo the trace length. A position
        # advances at most one sample per step, and its float sum can
        # round up onto the next whole sample, so after ``k`` steps it
        # reads at most row ``k + 1`` and a run reads rows ``0 ..
        # n_steps``; a read past the window raises IndexError.
        columns = {}
        for p in self.scheduler.processes:
            tr = p.trace
            n_samples = int(tr.n_samples)
            base = int(p.position)
            rows = (base + np.arange(min(n_steps + 1, n_samples))) % n_samples
            columns[p.pid] = (
                base,
                n_samples,
                tr.unit_power[rows],
                tr.l2_activity[rows].tolist(),
                tr.instructions[rows].tolist(),
                tr.int_rf_accesses[rows].tolist(),
                tr.fp_rf_accesses[rows].tolist(),
            )
        actuators = self.actuators
        # Core -> process binding changes only when a migration executes,
        # which only happens inside _os_tick — refreshed there below.
        procs = [process_on(c) for c in range(n_cores)]
        core_cols = [columns[p.pid] for p in procs]
        stall_until = self._stall_until
        hotspot_idx = self._hotspot_idx
        migration_due = self._migration_timer.fire_due

        # Telemetry sampling: one state read after every `tel_stride`-th
        # step. The sampler consumes true post-step temperatures (never
        # the sensor path) and feeds nothing back, so it perturbs neither
        # the need_sensors gating below nor any simulated value.
        telemetry = self.telemetry
        if telemetry is not None:
            tel_stride = telemetry.stride_steps(dt)
            tel_next = tel_stride - 1
        else:
            tel_stride = 0
            tel_next = -1

        # Policies, guards and faults consume readings every step; an
        # attached profiler does not, so profiling an unthrottled run
        # reads no sensors and draws no noise. Readings stay one
        # (n_cores, units) array; the policies get each core's hottest.
        need_sensors = (
            throttle is not None or guards is not None or faults is not None
        )
        window_live = throttle is not None and self.migration is not None
        offset = cfg.sensor_offset_c
        noise = cfg.sensor_noise_std_c
        quant = cfg.sensor_quantization_c

        # Reusable profiler section handles (no-ops when unprofiled).
        sec_sensors = prof.section("sensors")
        sec_throttle = prof.section("throttle")
        sec_power = prof.section("power")
        sec_thermal = prof.section("thermal-step")
        sec_os_tick = prof.section("os-tick")

        # Preallocated step-scope buffers: consumers read, never keep.
        power = self._power_buf
        unit_buf = self._unit_pw_buf
        scaled_buf = self._scaled_buf
        dyn_arr = self._dyn_arr
        ssq_arr = self._ssq_arr
        leak_mult = self._leak_mult
        unit_flat = self._unit_flat
        l2_idx = self._l2_idx_list
        xbar_i = self._xbar_i
        core_range = range(n_cores)
        core_work = [0.0] * n_cores
        core_stall = [0.0] * n_cores
        core_frozen = [False] * n_cores
        core_instr = [0.0] * n_cores
        ones_scales = [1.0] * n_cores
        l2_base = cfg.power_scale * L2_BANK_PEAK_W
        xbar_base = cfg.power_scale * XBAR_PEAK_W

        hot: List[float] = []
        temps = None
        for step in range(n_steps):
            t = step * dt

            if need_sensors:
                with sec_sensors:
                    temps = thermal.temperatures[hotspot_idx]  # (n_cores, 2)
                    if offset:
                        temps = temps + offset
                    if noise > 0:
                        # One normal((n_cores, 2)) draw per sensor read:
                        # the fleet replays this stream per member, so
                        # the draw shape and cadence are a contract.
                        temps = temps + self._sensor_rng.normal(
                            0.0, noise, temps.shape
                        )
                    if quant > 0:
                        # Round-half-up-to-grid (x.5 snaps toward +inf,
                        # so -0.5 reads 0.0 on a unit grid) — not
                        # np.round's round-half-even.
                        temps = np.floor(temps / quant + 0.5) * quant
                    if faults is not None:
                        # Dynamic faults apply after the static pipeline:
                        # a stuck or dropped channel latches the
                        # *reported* (already offset/noisy/quantized)
                        # value, as real readout paths do.
                        temps = faults.apply_sensor_faults(t, temps)
                    if throttle is not None:
                        # Python's max keeps a unit's reading unless a
                        # later one is strictly greater, so a NaN first
                        # unit wins and a NaN later one is skipped —
                        # the fleet's fold matches it.
                        hot = [max(r) for r in temps.tolist()]

            # Sensor-sanity watchdog: sees exactly what the policies see.
            if guards is not None:
                for core, transition in guards.observe(t, temps):
                    logger.debug("guard %s core=%d t=%.6f", transition, core, t)
                    if events is not None:
                        events.emit(
                            t,
                            "guard.trip" if transition == "trip" else "guard.clear",
                            core,
                        )

            # Outer loop: OS timer + migration.
            if migration_due(t):
                with sec_os_tick:
                    self._os_tick(t, temps)
                procs = [process_on(c) for c in core_range]
                core_cols = [columns[p.pid] for p in procs]

            # Inner loop: throttling.
            if throttle is None:
                scales = ones_scales
            else:
                prev_trips = throttle.trip_count if stopgo else 0
                with sec_throttle:
                    scales = throttle.scales_from_hottest(t, hot)
                if events is not None and stopgo:
                    self._emit_stopgo_events(events, t, scales, prev_trips)

            # Independent hardware overtemperature trip (PROCHOT-style):
            # reads true silicon, not the (possibly miscalibrated) digital
            # sensors, and clock-gates the whole chip when it fires.
            prochot_active = False
            if cfg.hardware_trip:
                if t < self._prochot_until:
                    prochot_active = True
                elif thermal.max_block_temperature() >= cfg.threshold_c:
                    self._prochot_until = t + cfg.hardware_trip_freeze_s
                    self.prochot_events += 1
                    prochot_active = True
                    if events is not None:
                        events.emit(
                            t,
                            "prochot-trip",
                            temp_c=float(thermal.max_block_temperature()),
                        )
                    logger.debug("prochot trip #%d at t=%.6f", self.prochot_events, t)

            with sec_power:
                total_l2_act = 0.0
                for c in core_range:
                    proc = procs[c]
                    (
                        base, n_samples, unit_power,
                        l2_col, instr_col, int_col, fp_col,
                    ) = core_cols[c]
                    idx = (int(proc.position) - base) % n_samples

                    guard_scale = (
                        guards.override(c, t) if guards is not None else None
                    )
                    if dvfs:
                        actuator = actuators[c]
                        if guard_scale is not None:
                            # Fallback: the PLL is left where it is (no
                            # re-lock on distrusted feedback); the blind
                            # duty cycle clock-gates the core instead.
                            s = actuator.current_scale
                            frozen = guard_scale == 0.0
                        else:
                            requested = scales[c]
                            if requested != requested:
                                # NaN command — the PI loop was fed an
                                # invalid (e.g. dropped-out) reading. A
                                # real PLL ignores a garbage request and
                                # holds its operating point.
                                requested = actuator.current_scale
                            prev_scale = actuator.current_scale
                            prev_transitions = actuator.transitions
                            penalty = actuator.request(requested, t)
                            if penalty > 0:
                                stall_until[c] = max(stall_until[c], t) + penalty
                            s = actuator.current_scale
                            frozen = False
                            if events is not None:
                                if actuator.transitions > prev_transitions:
                                    events.emit(
                                        t,
                                        "dvfs-transition",
                                        c,
                                        **{
                                            "from": prev_scale,
                                            "to": s,
                                            "penalty_s": penalty,
                                        },
                                    )
                                elif scales[c] != prev_scale:
                                    events.emit(
                                        t,
                                        "dvfs-rejected",
                                        c,
                                        requested=scales[c],
                                        current=prev_scale,
                                    )
                    else:
                        s = scales[c] if guard_scale is None else guard_scale
                        frozen = s == 0.0
                    if prochot_active:
                        frozen = True  # hardware gate overrides everything

                    stalled = min(max(stall_until[c] - t, 0.0), dt)
                    active = 0.0 if frozen else dt - stalled
                    work = s * active  # full-speed-equivalent seconds
                    adv = work / dt  # fraction of a full-speed sample

                    # Dynamic power: cubic DVFS scaling x active fraction.
                    dyn_arr[c] = (s ** 3) * (active / dt)
                    unit_buf[c] = unit_power[idx]

                    # Shared structures driven by this core's traffic.
                    l2_act = l2_col[idx] * s * (active / dt)
                    total_l2_act += l2_act
                    power[l2_idx[c]] = l2_base * (
                        L2_IDLE_FRACTION + (1 - L2_IDLE_FRACTION) * l2_act
                    )

                    # Leakage voltage scaling: DVFS lowers Vdd with
                    # frequency; stop-go keeps nominal voltage (state is
                    # preserved).
                    if dvfs:
                        ssq_arr[c] = s ** 2

                    # Progress: PerformanceCounters.update and
                    # Process.advance inlined (their validation can never
                    # fire here — ``adv`` is in [0, 1] by construction —
                    # and the call overhead dominates at this rate).
                    instr = instr_col[idx] * adv
                    ctr = proc.counters
                    ctr.instructions += instr
                    ctr.int_rf_accesses += int_col[idx] * adv
                    ctr.fp_rf_accesses += fp_col[idx] * adv
                    ctr.cycles += nominal_cycles
                    ctr.adjusted_cycles += nominal_cycles * adv
                    proc.position += adv

                    core_work[c] = work
                    # Overhead stalls (PLL re-locks, migration context
                    # switches) are charged even while the core is frozen:
                    # the penalty window still elapses during a stop-go or
                    # PROCHOT freeze, and dropping the overlap undercounts
                    # the overhead ledger.
                    core_stall[c] = stalled
                    core_frozen[c] = frozen
                    core_instr[c] = instr

                # Vectorized tail: scale each core's unit-power row by its
                # dynamic multiplier and scatter into the power vector.
                np.multiply(unit_buf, self._dyn_col, out=scaled_buf)
                power[unit_flat] = scaled_buf.reshape(-1)
                power[xbar_i] = xbar_base * (
                    XBAR_IDLE_FRACTION
                    + (1 - XBAR_IDLE_FRACTION) * min(1.0, total_l2_act / n_cores)
                )
                leak = leak_power(thermal.temperatures[:n_blocks])
                if dvfs:
                    leak_mult[self._core_unit_idx] = self._ssq_col
                    np.multiply(leak, leak_mult, out=leak)
                np.add(power, leak, out=power)

            with sec_thermal:
                new_temps = apply_step(thermal.temperatures, power)
                thermal.temperatures = new_temps
            max_temp = float(new_temps[:n_blocks].max())
            record_step(dt, core_work, core_stall, core_frozen, core_instr, max_temp)
            if step == tel_next:
                telemetry.sample(
                    (step + 1) * dt,
                    new_temps,
                    [core_work[c] / dt for c in core_range],
                    metrics,
                )
                tel_next += tel_stride
            if events is not None:
                self._emit_emergency_edge(events, t, max_temp)
            if window_live:
                # The trend window only feeds the OS-tick fold into the
                # thread-core thermal table, whose sole reader is an
                # active migration policy — without one the fold
                # self-skips (duration_s stays 0) and nothing observable
                # changes.
                window.accumulate(temps, dt)

    def _run_fused(self, n_steps: int, metrics: MetricsAccumulator) -> None:
        """Fused whole-run fast path for runs no per-step stage perturbs.

        Eligible only when :attr:`fusion_blockers` is empty: no throttle
        or migration policy, faults, guards or PROCHOT. Every core then
        runs at scale 1.0 with no stalls, so the dynamic-power schedule
        is a pure function of the trace positions and is assembled in
        vectorized chunks up front.
        Temperature-dependent leakage still forces a sequential thermal
        recursion, but each step collapses to one leakage evaluation, one
        affine :meth:`~repro.thermal.model.StepOperator.apply` and one
        metrics fold — the same floating-point operations, in the same
        order, as the stepwise path under this configuration, so results
        are bit-identical (asserted by ``tests/sim/test_fusion.py``).

        Observers read the recursion between spans of steps. A span ends
        where one is due: a telemetry sample or an OS tick (with an event
        log or profiler attached; it runs the stepwise loop's
        :meth:`_os_tick`), or at the chunk end. With an event log, a span
        keeps each step's chip maximum, and after it the emergency edges
        of its steps are checked from those, before the observers due at
        its end run. They run in the stepwise loop's order and see the
        same values. A profiler is charged ``power`` for chunk assembly
        and counter folds, ``thermal-step`` for the recursion and
        ``os-tick`` for ticks. Unobserved, a span is a whole chunk.
        """
        cfg = self.config
        dt = self.dt
        n_cores = self.n_cores
        thermal = self.thermal
        n_blocks = thermal.network.n_blocks
        apply_step = thermal.operator_for(dt).apply
        leak_power = self.leakage.power_fast
        record_step = metrics.record_step
        nominal_cycles = dt * cfg.machine.clock_hz
        l2_base = cfg.power_scale * L2_BANK_PEAK_W
        xbar_base = cfg.power_scale * XBAR_PEAK_W

        procs = [self.scheduler.process_on(c) for c in range(n_cores)]
        base_pos = [int(p.position) for p in procs]
        core_work = [dt] * n_cores  # scale 1.0, fully active
        core_stall = [0.0] * n_cores
        core_frozen = [False] * n_cores

        # Observer schedule, as counts of completed steps; `never` is
        # past the run. An unthrottled step has effective scale 1.0 and
        # work dt, exactly what the stepwise telemetry tap computes.
        never = n_steps + 1
        telemetry = self.telemetry
        events = self.event_log
        prof = self.profiler if self.profiler is not None else NULL_PROFILER
        sec_power = prof.section("power")
        sec_thermal = prof.section("thermal-step")
        sec_os_tick = prof.section("os-tick")
        if telemetry is not None:
            tel_stride = telemetry.stride_steps(dt)
            tel_due = tel_stride
            tel_scales = [1.0] * n_cores
        else:
            tel_due = never
        timer = self._migration_timer
        ticking = events is not None or self.profiler is not None
        tick_due = timer.next_due_step(dt) if ticking else never

        def observe(done: int, temps: np.ndarray) -> int:
            """Serve the observers due after ``done`` steps -> next stop."""
            nonlocal tel_due, tick_due
            if done == tel_due:
                telemetry.sample(done * dt, temps, tel_scales, metrics)
                tel_due += tel_stride
            if done == tick_due and done < n_steps:
                t = done * dt
                timer.fire_due(t)  # true here by next_due_step's contract
                with sec_os_tick:
                    self._os_tick(t, None)
                tick_due = timer.next_due_step(dt, done + 1)
            return min(tel_due, tick_due)

        # Each step's chip maximum over the current span, for its
        # emergency edges (kept only with an event log).
        maxima: Optional[List[float]] = [] if events is not None else None
        temps = thermal.temperatures
        stop = observe(0, temps)
        chunk = 8192
        for start in range(0, n_steps, chunk):
            k = min(chunk, n_steps - start)
            with sec_power:
                steps = np.arange(start, start + k)
                dyn = np.empty((k, n_blocks))
                total_l2 = np.zeros(k)
                instr_cols = []
                int_rf_cols = []
                fp_rf_cols = []
                for c in range(n_cores):
                    tr = procs[c].trace
                    idx = (base_pos[c] + steps) % tr.n_samples
                    # Same op order as the stepwise loop (multiplying by
                    # the unit dynamic factor included), element-for-element.
                    dyn[:, self._core_unit_idx[c]] = tr.unit_power[idx] * 1.0
                    l2_act = tr.l2_activity[idx] * 1.0 * 1.0
                    total_l2 += l2_act
                    dyn[:, self._l2_idx_list[c]] = l2_base * (
                        L2_IDLE_FRACTION + (1 - L2_IDLE_FRACTION) * l2_act
                    )
                    instr_cols.append(tr.instructions[idx] * 1.0)
                    int_rf_cols.append(tr.int_rf_accesses[idx] * 1.0)
                    fp_rf_cols.append(tr.fp_rf_accesses[idx] * 1.0)
                dyn[:, self._xbar_i] = xbar_base * (
                    XBAR_IDLE_FRACTION
                    + (1 - XBAR_IDLE_FRACTION) * np.minimum(1.0, total_l2 / n_cores)
                )
                instr_rows = np.stack(instr_cols, axis=1).tolist()

            # Sequential thermal recursion: leakage depends on the current
            # temperatures, so steps cannot collapse into one matrix
            # power, but each iteration is only leakage + apply + fold.
            i = 0
            while i < k:
                end = min(k, stop - start)
                with sec_thermal:
                    for j in range(i, end):
                        p = dyn[j] + leak_power(temps[:n_blocks])
                        temps = apply_step(temps, p)
                        max_temp = float(temps[:n_blocks].max())
                        record_step(
                            dt, core_work, core_stall, core_frozen,
                            instr_rows[j], max_temp,
                        )
                        if maxima is not None:
                            maxima.append(max_temp)
                if maxima:
                    for step, step_max in enumerate(maxima, start + i):
                        self._emit_emergency_edge(events, step * dt, step_max)
                    maxima.clear()
                i = end
                if start + i == stop:
                    stop = observe(stop, temps)

            # Fold per-process bookkeeping exactly as the stepwise loop
            # would: sequential adds per step, in step order.
            with sec_power:
                for c in range(n_cores):
                    ctr = procs[c].counters
                    ic = instr_cols[c].tolist()
                    rc = int_rf_cols[c].tolist()
                    fc = fp_rf_cols[c].tolist()
                    si = ctr.instructions
                    sr = ctr.int_rf_accesses
                    sf = ctr.fp_rf_accesses
                    cyc = ctr.cycles
                    adj = ctr.adjusted_cycles
                    for j in range(k):
                        si += ic[j]
                        sr += rc[j]
                        sf += fc[j]
                        cyc += nominal_cycles
                        adj += nominal_cycles
                    ctr.instructions = si
                    ctr.int_rf_accesses = sr
                    ctr.fp_rf_accesses = sf
                    ctr.cycles = cyc
                    ctr.adjusted_cycles = adj
                    procs[c].advance(float(k))

        thermal.temperatures = temps

    def _emit_emergency_edge(
        self, events: RunEventLog, t: float, max_temp: float
    ) -> None:
        """Emit ``emergency-enter``/``-exit`` if step ``t`` crossed the envelope.

        Both step loops call it after each step's thermal update with
        that step's start time and its hottest block temperature.
        """
        emergency = max_temp > self.config.threshold_c + EMERGENCY_TOLERANCE_C
        if emergency and not self._in_emergency:
            events.emit(t, "emergency-enter", temp_c=float(max_temp))
        elif self._in_emergency and not emergency:
            events.emit(t, "emergency-exit", temp_c=float(max_temp))
        self._in_emergency = emergency

    def _emit_stopgo_events(
        self,
        events: RunEventLog,
        t: float,
        scales: Sequence[float],
        prev_trips: int,
    ) -> None:
        """Emit trip/thaw events from this step's stop-go scale vector.

        One ``stopgo-trip`` event is emitted per trip the policy counted
        this step (so the event count always equals
        ``RunResult.stopgo_trips``), annotated with the cores that
        entered a freeze; ``stopgo-thaw`` marks each core resuming.
        """
        frozen_now = [s == 0.0 for s in scales]
        newly_frozen = [
            c
            for c in range(self.n_cores)
            if frozen_now[c] and not self._prev_sg_frozen[c]
        ]
        trips = self.throttle.trip_count - prev_trips
        for _ in range(trips):
            events.emit(t, "stopgo-trip", cores=newly_frozen)
        for c in range(self.n_cores):
            if self._prev_sg_frozen[c] and not frozen_now[c]:
                events.emit(t, "stopgo-thaw", c)
        self._prev_sg_frozen = frozen_now

    def _migration_triggered(self, t: float, readings: List[Dict[str, float]]) -> bool:
        """Whether a migration round should be considered at this tick.

        The paper actuates migration decisions "when the local thermal
        control of at least two individual cores signals that their
        critical hotspots have changed". We implement that trigger plus
        two complements it implies: a core sitting in a stop-go freeze is
        itself a signal that rebalancing is needed (the thermally-chaotic
        stop-go regime the paper describes), and a slow periodic fallback
        keeps profiling data flowing when the system is quiescent.
        """
        critical = [max(r.items(), key=lambda kv: kv[1])[0] for r in readings]
        if self._last_critical is None:
            self._last_critical = critical
            self._last_round_s = t
            return True
        changed = sum(
            1 for a, b in zip(critical, self._last_critical) if a != b
        )
        frozen = isinstance(self.throttle, StopGoPolicy) and any(
            self.throttle.is_frozen(c, t) for c in range(self.n_cores)
        )
        # Periodic fallback only while the sensor policy is still profiling
        # (it must keep generating placements until its table can estimate
        # every thread-core pair, Figure 6's "profile more" branch).
        needs_profiling = isinstance(
            self.migration, SensorBasedMigration
        ) and not self.thermal_table.is_sufficient(
            [p.pid for p in self.scheduler.processes]
        )
        stale = (
            t - self._last_round_s >= 3 * self.config.migration_period_s
            and needs_profiling
        )
        if changed >= 2 or frozen or stale:
            self._last_critical = critical
            self._last_round_s = t
            return True
        return False

    # -- OS tick ---------------------------------------------------------------

    def _os_tick(self, t: float, temps: Optional[np.ndarray]) -> None:
        """Timer interrupt: fold trend windows, maybe migrate.

        ``temps`` is this step's ``(n_cores, units)`` reading array
        (``None`` when the run reads no sensors). The migration trigger
        and policies take per-core ``{unit: reading}`` dicts in
        ``HOTSPOT_UNITS`` order; this is the one place they are built.
        """
        events = self.event_log
        if events is not None:
            events.emit(t, "os-tick")
        window = self._window
        if self.throttle is not None and window.duration_s > 0:
            exponent = 3.0 if isinstance(self.throttle, DVFSPolicy) else 1.0
            baseline = window.chip_min_avg()
            for c in range(self.n_cores):
                pid = self.scheduler.assignment[c]
                avg_scale = self.throttle.average_scale(c)
                for k, unit in enumerate(HOTSPOT_UNITS):
                    obs = (
                        window.avg(c, k)
                        - baseline
                        + GRADIENT_TAU_S * window.gradient(c, k)
                    )
                    self.thermal_table.record(
                        pid, c, unit, obs, avg_scale, exponent=exponent
                    )

        readings = None
        if self.migration is not None and self.throttle is not None:
            readings = [dict(zip(HOTSPOT_UNITS, r)) for r in temps.tolist()]
        if readings is not None and self._migration_triggered(t, readings):
            urgent = isinstance(self.throttle, StopGoPolicy) and any(
                self.throttle.is_frozen(c, t) for c in range(self.n_cores)
            )
            ctx = MigrationContext(
                time_s=t,
                scheduler=self.scheduler,
                readings=readings,
                avg_scales=[
                    self.throttle.average_scale(c) for c in range(self.n_cores)
                ],
                thermal_table=self.thermal_table,
                rebalance_urgent=urgent,
            )
            new_assignment = self.migration.decide(ctx)
            if new_assignment is not None:
                if events is not None:
                    events.emit(
                        t, "migration-decision", assignment=list(new_assignment)
                    )
                record = self.scheduler.apply_assignment(new_assignment, t)
                if record is not None:
                    penalty = self.config.machine.migration_penalty_s
                    for c in record.cores_involved:
                        self._stall_until[c] = max(self._stall_until[c], t) + penalty
                    self.throttle.on_migration(record.cores_involved, t)
                    if events is not None:
                        for pid in sorted(record.moves):
                            events.emit(t, "migration", record.moves[pid], pid=pid)
                    logger.debug(
                        "migration at t=%.6f: moves=%s cores=%s",
                        t,
                        record.moves,
                        record.cores_involved,
                    )

        # Fresh observation window for the next interval.
        window.reset()
        if self.throttle is not None:
            for c in range(self.n_cores):
                self.throttle.reset_window(c)

    # -- result assembly ----------------------------------------------------------

    def _build_result(self, metrics: MetricsAccumulator) -> RunResult:
        dvfs_transitions = sum(a.transitions for a in self.actuators)
        stopgo_trips = (
            self.throttle.trip_count if isinstance(self.throttle, StopGoPolicy) else 0
        )
        if self._faults is not None or self._guards is not None:
            injector = self._faults
            guards = self._guards
            fault_summary: Optional[FaultSummary] = FaultSummary(
                sensor_faulted_samples=(
                    injector.sensor_faulted_samples if injector else 0
                ),
                dvfs_rejected=injector.dvfs_rejected if injector else 0,
                dvfs_delayed=injector.dvfs_delayed if injector else 0,
                migrations_dropped=(
                    injector.migrations_dropped if injector else 0
                ),
                guard_trips=guards.trips if guards else 0,
                guard_fallback_s=guards.fallback_s if guards else 0.0,
            )
        else:
            fault_summary = None
        return RunResult(
            policy=self.spec.name if self.spec else "unthrottled",
            workload="-".join(self.benchmarks),
            benchmarks=self.benchmarks,
            duration_s=metrics.wall_time_s,
            bips=metrics.bips,
            duty_cycle=metrics.duty_cycle,
            instructions=metrics.instructions,
            per_core_instructions=tuple(metrics.per_core_instructions),
            max_temp_c=metrics.max_temp_c,
            emergency_s=metrics.emergency_s,
            migrations=self.scheduler.total_migrations,
            dvfs_transitions=dvfs_transitions,
            stopgo_trips=stopgo_trips,
            prochot_events=self.prochot_events,
            events=(
                self.event_log.summary() if self.event_log is not None else None
            ),
            faults=fault_summary,
            telemetry=(
                self.telemetry.summary() if self.telemetry is not None else None
            ),
        )


class _TrendWindow:
    """Accumulates sensor statistics between OS ticks."""

    def __init__(self, n_cores: int, n_units: int):
        """Size the window for ``n_cores`` x ``n_units`` hotspots."""
        self.n_cores = n_cores
        self.n_units = n_units
        self.reset()

    def reset(self) -> None:
        """Empty the window (called at every OS tick)."""
        self._sum = np.zeros((self.n_cores, self.n_units))
        self._first = np.full((self.n_cores, self.n_units), np.nan)
        # Whether every channel of _first holds a reading yet.
        self._latched = False
        self._last = np.zeros((self.n_cores, self.n_units))
        self._min_sum = 0.0
        self._steps = 0
        self.duration_s = 0.0

    def accumulate(self, temps: np.ndarray, dt: float) -> None:
        """Fold one step's ``(n_cores, n_units)`` readings into the window.

        A dropped-out channel reads NaN. The sums and the last reading
        take it as it comes; a channel's first reading is its first
        non-NaN one; the chip minimum skips NaN (``+inf`` on a step with
        no valid reading). ``fleet._flush_window`` folds blocks of steps
        by the same rules.
        """
        self._sum += temps
        if not self._latched:
            first = self._first
            np.copyto(first, temps, where=np.isnan(first))
            self._latched = not np.isnan(first).any()
        self._last[...] = temps
        chip_min = temps.min()
        if chip_min != chip_min:
            chip_min = np.where(np.isnan(temps), np.inf, temps).min()
        self._min_sum += chip_min
        self._steps += 1
        self.duration_s += dt

    def avg(self, core: int, unit_idx: int) -> float:
        """Mean temperature of one hotspot over the window."""
        if self._steps == 0:
            return 0.0
        return float(self._sum[core, unit_idx] / self._steps)

    def gradient(self, core: int, unit_idx: int) -> float:
        """Temperature slope (deg C/s) over the window.

        With ``n`` samples at spacing ``dt``, the first and last samples
        are ``(n - 1) * dt`` apart — dividing the rise by the full window
        duration ``n * dt`` would bias every observed dT/dt low by a
        factor ``(n - 1) / n``.
        """
        if self._steps < 2 or self.duration_s <= 0:
            return 0.0
        span_s = self.duration_s * (self._steps - 1) / self._steps
        return float(
            (self._last[core, unit_idx] - self._first[core, unit_idx]) / span_s
        )

    def chip_min_avg(self) -> float:
        """Average of the chip's coolest sensor reading over the window."""
        if self._steps == 0:
            return 0.0
        return self._min_sum / self._steps


class _ChipLayout:
    """Where each core's power lands in one chip's thermal network.

    Index arrays into the network and the leakage weights of the
    floorplan: pure functions of the floorplan and core count, built
    once per :class:`EngineSubstrate` and shared by every simulator on
    it. Every array is read-only (``flags.writeable`` is off), so no
    simulator can perturb another's through a shared one.
    """

    __slots__ = (
        "core_unit_idx",
        "hotspot_idx",
        "unit_flat",
        "l2_idx",
        "xbar_i",
        "leakage_weights",
    )

    def __init__(self, floorplan, network: RCNetwork, n_cores: int):
        """Resolve block names to network indices; check the partition."""
        index = network.index
        #: (n_cores, n_units) block index of every core unit.
        self.core_unit_idx = np.array(
            [
                [index(core_block_name(c, u)) for u in UNIT_ORDER]
                for c in range(n_cores)
            ],
            dtype=int,
        )
        #: (n_cores, n_hotspots) block index of every sensed unit.
        self.hotspot_idx = np.array(
            [
                [index(core_block_name(c, u)) for u in HOTSPOT_UNITS]
                for c in range(n_cores)
            ],
            dtype=int,
        )
        self.unit_flat = self.core_unit_idx.reshape(-1)
        #: Per-core L2 bank block index (plain ints for the step loop).
        self.l2_idx = tuple(index(f"l2_{c}") for c in range(n_cores))
        self.xbar_i = index("xbar")
        # The step loops overwrite every element of their power buffers
        # each step, which is only sound if the three index families
        # partition the block set.
        covered = sorted(
            self.unit_flat.tolist() + list(self.l2_idx) + [self.xbar_i]
        )
        if covered != list(range(network.n_blocks)):
            raise RuntimeError(
                "power indices do not partition the floorplan blocks"
            )
        for arr in (self.core_unit_idx, self.hotspot_idx, self.unit_flat):
            arr.flags.writeable = False
        self.leakage_weights = block_leakage_weights(floorplan)


class EngineSubstrate:
    """The parts of a simulator that depend only on its chip.

    Holds everything about a simulator that is a pure deterministic
    function of the machine description rather than of any one run, so
    a simulator built on it costs little beyond its own run state:

    * the floorplan and the factored
      :class:`~repro.thermal.model.ThermalKernel` (network + LU +
      propagator cache), so ``expm`` runs once per chip, not per
      simulator;
    * the chip layout (:attr:`layout`): the network index arrays of
      core units, hotspot sensors, L2 banks and crossbar (with the
      check that they partition the blocks), and the floorplan's
      leakage area x density weights and their sum;
    * the sensor-fault channel masks of each fault plan
      (:meth:`fault_masks`).

    Substrates come only from :meth:`shared`, one per machine
    description (machine, package, core sizes and scenario) per
    process; per-run knobs (duration, threshold, seed, power scale,
    trace duration, fault plan) vary freely on one substrate. Nothing
    else memoises a floorplan or RC network: they stay warm as long as
    their substrate stays in the table. Traces are not held here:
    ``generate_trace``'s bounded memo keeps the newest ones.

    Shared arrays are read-only: ``flags.writeable`` is off, so a write
    through any simulator raises instead of silently changing its
    neighbours. Every part is deterministic in :attr:`key`, so a
    substrate built again after an eviction gives bit-identical runs.
    """

    def __init__(self, config: SimulationConfig, key: tuple):
        """Build the floorplan and factor the thermal kernel once."""
        self.key = key
        self.machine = config.machine
        self.package = config.package
        scenario = config.scenario
        self.floorplan = (
            scenario.build_floorplan()
            if scenario is not None
            else build_cmp_floorplan(
                self.machine.n_cores, core_sizes_mm=config.core_sizes_mm
            )
        )
        self.kernel = ThermalKernel(self.floorplan, self.package)
        # Pre-warm the propagator every simulator on this machine needs.
        self.kernel.operator_for(self.machine.sample_period_s)
        self.layout = _ChipLayout(
            self.floorplan, self.kernel.network, self.machine.n_cores
        )
        self._fault_masks: Dict[FaultPlan, Dict[int, np.ndarray]] = {}

    @classmethod
    def shared(cls, config: SimulationConfig) -> "EngineSubstrate":
        """The process-wide substrate of ``config``'s machine description.

        Looked up by :func:`substrate_key`, the ``repr`` of the whole
        description, which the identities of the config's machine,
        package, core sizes and scenario (a sweep's configs share those
        objects) map to without building it again. Both tables store
        through :func:`~repro.util.memo.remember` (first stored wins,
        at most :data:`SUBSTRATE_TABLE_SIZE` entries each), and a
        missing substrate is built outside its lock.
        """
        parts = (
            config.machine,
            config.package,
            config.core_sizes_mm,
            config.scenario,
        )
        ident = tuple(map(id, parts))
        hit = _SUBSTRATE_IDS.get(ident)
        if hit is not None:
            substrate = _SUBSTRATES.get(hit[1])
            if substrate is not None:
                return substrate
        key = substrate_key(config)
        substrate = _SUBSTRATES.get(key)
        if substrate is None:
            substrate = remember(
                _SUBSTRATES, key, cls(config, key), SUBSTRATE_TABLE_SIZE
            )
        remember(_SUBSTRATE_IDS, ident, (parts, key), SUBSTRATE_TABLE_SIZE)
        return substrate

    def fault_masks(self, plan: FaultPlan) -> Dict[int, np.ndarray]:
        """The (cached, read-only) sensor-fault channel masks of ``plan``."""
        masks = self._fault_masks.get(plan)
        if masks is None:
            masks = sensor_fault_masks(
                plan, self.machine.n_cores, HOTSPOT_UNITS
            )
            self._fault_masks[plan] = masks
        return masks


def run_workload(
    workload: Workload,
    spec: Optional[PolicySpec],
    config: Optional[SimulationConfig] = None,
    *,
    event_log: Optional[RunEventLog] = None,
    profiler: Optional[StepProfiler] = None,
    telemetry: Optional[TelemetrySampler] = None,
) -> RunResult:
    """Convenience: simulate one Table 4 workload under one policy.

    ``event_log``, ``profiler`` and ``telemetry`` opt into observability
    capture; see :class:`ThermalTimingSimulator`.
    """
    sim = ThermalTimingSimulator(
        workload.benchmarks,
        spec,
        config,
        event_log=event_log,
        profiler=profiler,
        telemetry=telemetry,
    )
    result = sim.run()
    return replace(result, workload=workload.name)
