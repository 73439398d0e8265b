"""Robustness harness: how gracefully does each DTM policy degrade?

The paper ranks its 12 policies under ideal dynamics. This harness
re-ranks them under injected faults (:mod:`repro.faults`): for each
policy it simulates a ladder of fault *severities* on one workload and
reports, per severity, throughput relative to the policy's own no-fault
run and the change in thermal-violation time. A policy that tolerates a
drifting sensor or a lost migration request gracefully keeps its
relative throughput near 1.0 and its violation delta near zero; a
brittle one collapses or cooks.

Severity ladder (deterministic pure functions of the run duration, so
the fault spec hashes into the result-cache key like any config field):

* ``none`` — the reference run (empty plan);
* ``mild`` — one slow positive sensor drift plus stretched DVFS
  transitions: annoying, in the *safe* direction;
* ``moderate`` — adds warm spikes, a core of dropped-out sensors, a
  lossy DVFS actuator and a lossy migration path;
* ``severe`` — the dangerous cases: a chip-wide cool-side calibration
  step, a hot core whose sensor sticks at a cool value, NaN dropouts,
  cold spikes, and mostly-dead actuation.

With ``include_guards=True`` every faulted point is also run with the
sensor-sanity guard layer enabled, so the degradation table shows what
graceful-degradation hardware buys (and costs) per policy.

All points execute as one flat batch through the session's
:class:`~repro.sim.runner.ParallelRunner`, so ``repro --jobs N
robustness`` fans the whole sweep out and serial vs. parallel sweeps are
bit-identical. ``repro robustness --backend fleet`` steps the whole
severity x policy campaign through the batched
:class:`~repro.sim.fleet.FleetEngine` instead: fault plans and sensor
noise are fleet-eligible (the engine replays each member's private RNG
streams in step order), so the entire Monte-Carlo campaign rides the
vectorised path — only guarded points (``include_guards=True``) fall
back to the pool — and every backend produces the same degradation
table bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.taxonomy import ALL_POLICY_SPECS, PolicySpec
from repro.experiments.common import default_config, get_default_runner
from repro.faults.guards import GuardConfig
from repro.faults.models import (
    CalibrationStepFault,
    DriftFault,
    DropoutFault,
    DVFSLatencyFault,
    DVFSRejectFault,
    FaultPlan,
    MigrationDropFault,
    SpikeFault,
    StuckAtFault,
)
from repro.sim.engine import SimulationConfig
from repro.sim.results import RunResult
from repro.sim.runner import ParallelRunner, RunPoint
from repro.sim.workloads import Workload, get_workload
from repro.util.tables import render_table

#: Severity ladder, mildest first. ``none`` is the per-policy baseline.
SEVERITIES: Tuple[str, ...] = ("none", "mild", "moderate", "severe")


def severity_plan(
    severity: str, duration_s: float, n_cores: int = 4
) -> Optional[FaultPlan]:
    """The fault plan for one severity level.

    Windows are fixed fractions of the run, so the same severity scales
    to any horizon; construction is pure (all randomness lives in the
    per-fault runtime streams).
    """
    d = float(duration_s)
    if severity == "none":
        return None
    if severity == "mild":
        return FaultPlan(
            name="mild",
            faults=(
                # A diode walking warm: the safe direction — the policy
                # throttles more than it must.
                DriftFault(
                    core=0, unit="intreg",
                    start_s=0.2 * d, end_s=d, rate_c_per_s=10.0,
                ),
                # Every PLL re-lock takes 3x nominal.
                DVFSLatencyFault(start_s=0.0, end_s=d, extra_penalty_s=20e-6),
            ),
        )
    if severity == "moderate":
        return FaultPlan(
            name="moderate",
            faults=(
                DriftFault(
                    core=0, unit="intreg",
                    start_s=0.2 * d, end_s=d, rate_c_per_s=10.0,
                ),
                SpikeFault(start_s=0.0, end_s=d, magnitude_c=12.0, prob=0.005),
                DropoutFault(
                    core=1 % n_cores,
                    start_s=0.3 * d, end_s=0.7 * d, mode="last-good",
                ),
                DVFSRejectFault(
                    core=0, start_s=0.25 * d, end_s=0.75 * d, prob=0.5
                ),
                MigrationDropFault(start_s=0.0, end_s=d, prob=0.5),
                DVFSLatencyFault(start_s=0.0, end_s=d, extra_penalty_s=20e-6),
            ),
        )
    if severity == "severe":
        return FaultPlan(
            name="severe",
            faults=(
                # Chip-wide cool-side miscalibration: every core looks
                # 4 C cooler than it is — the failure mode that cooks.
                CalibrationStepFault(start_s=0.2 * d, end_s=d, offset_c=-4.0),
                # A hot core's critical sensor sticks at a cool value.
                StuckAtFault(
                    core=0, unit="intreg", start_s=0.3 * d, end_s=d,
                    value_c=70.0,
                ),
                DropoutFault(
                    core=2 % n_cores,
                    start_s=0.3 * d, end_s=0.8 * d, mode="nan",
                ),
                SpikeFault(start_s=0.0, end_s=d, magnitude_c=-15.0, prob=0.01),
                DVFSRejectFault(start_s=0.2 * d, end_s=0.9 * d, prob=0.8),
                DVFSLatencyFault(start_s=0.0, end_s=d, extra_penalty_s=100e-6),
                MigrationDropFault(start_s=0.0, end_s=d, prob=0.8),
            ),
        )
    raise ValueError(f"unknown severity {severity!r}; known: {SEVERITIES}")


@dataclass(frozen=True)
class DegradationCell:
    """One (policy, severity) outcome."""

    severity: str
    bips: float
    #: Throughput relative to the same policy's no-fault run.
    relative_bips: float
    #: Thermal-violation time beyond the no-fault run (seconds).
    emergency_delta_s: float
    #: Injected fault occurrences (sensor samples + actuation).
    injected: int
    guard_trips: int
    guard_fallback_s: float


@dataclass(frozen=True)
class RobustnessRow:
    """One policy's degradation ladder."""

    spec_key: str
    policy_name: str
    #: Unguarded cells, aligned with the report's severity tuple.
    cells: Tuple[DegradationCell, ...]
    #: Guard-enabled cells when the sweep included guards.
    guarded_cells: Optional[Tuple[DegradationCell, ...]] = None


@dataclass(frozen=True)
class RobustnessReport:
    """The full sweep: severity ladder x policies on one workload."""

    workload: str
    duration_s: float
    severities: Tuple[str, ...]
    guarded: bool
    rows: Tuple[RobustnessRow, ...]


def _cell(
    severity: str, result: RunResult, baseline: RunResult
) -> DegradationCell:
    faults = result.faults
    return DegradationCell(
        severity=severity,
        bips=result.bips,
        relative_bips=(
            result.bips / baseline.bips if baseline.bips else float("nan")
        ),
        emergency_delta_s=result.emergency_s - baseline.emergency_s,
        injected=faults.total_injected if faults else 0,
        guard_trips=faults.guard_trips if faults else 0,
        guard_fallback_s=faults.guard_fallback_s if faults else 0.0,
    )


def compute(
    config: Optional[SimulationConfig] = None,
    specs: Optional[Sequence[PolicySpec]] = None,
    severities: Sequence[str] = SEVERITIES,
    workload: Optional[Workload] = None,
    include_guards: bool = False,
    runner: Optional[ParallelRunner] = None,
) -> RobustnessReport:
    """Run the sweep and fold it into a :class:`RobustnessReport`.

    The per-policy no-fault baseline is always simulated, whether or not
    ``"none"`` appears in ``severities`` (relative numbers need it).
    """
    config = config or default_config(duration_s=0.1)
    specs = list(specs) if specs is not None else list(ALL_POLICY_SPECS)
    workload = workload or get_workload("workload7")
    runner = runner or get_default_runner()
    severities = tuple(severities)
    for severity in severities:
        severity_plan(severity, 1.0, config.machine.n_cores)  # validate names

    n_cores = config.machine.n_cores
    plans: Dict[str, Optional[FaultPlan]] = {
        severity: severity_plan(severity, config.duration_s, n_cores)
        for severity in dict.fromkeys(("none",) + severities)
    }

    # One flat batch: [spec x severity (x guarded)] in a fixed order.
    points: List[RunPoint] = []
    index: Dict[Tuple[str, str, bool], int] = {}
    for spec in specs:
        for severity, plan in plans.items():
            variants = (False, True) if include_guards else (False,)
            for guarded in variants:
                cfg = replace(
                    config,
                    fault_plan=plan,
                    guard=GuardConfig() if guarded else None,
                )
                index[(spec.key, severity, guarded)] = len(points)
                points.append(RunPoint(workload, spec, cfg))
    results = runner.run_points(points)

    rows: List[RobustnessRow] = []
    for spec in specs:
        baseline = results[index[(spec.key, "none", False)]]
        cells = tuple(
            _cell(sev, results[index[(spec.key, sev, False)]], baseline)
            for sev in severities
        )
        guarded_cells = (
            tuple(
                _cell(sev, results[index[(spec.key, sev, True)]], baseline)
                for sev in severities
            )
            if include_guards
            else None
        )
        rows.append(
            RobustnessRow(
                spec_key=spec.key,
                policy_name=spec.name,
                cells=cells,
                guarded_cells=guarded_cells,
            )
        )
    return RobustnessReport(
        workload=workload.name,
        duration_s=config.duration_s,
        severities=severities,
        guarded=include_guards,
        rows=tuple(rows),
    )


def _degradation_table(
    report: RobustnessReport, guarded: bool, title: str
) -> str:
    headers = ["policy"]
    for severity in report.severities:
        headers.append(f"{severity} BIPSx")
        headers.append(f"{severity} dTV ms")
    rows = []
    for row in report.rows:
        cells = row.guarded_cells if guarded else row.cells
        line: List[object] = [row.spec_key]
        for cell in cells:
            line.append(f"{cell.relative_bips:.3f}")
            line.append(f"{cell.emergency_delta_s * 1e3:+.2f}")
        rows.append(line)
    return render_table(headers, rows, title=title)


def render(report: RobustnessReport) -> str:
    """The degradation table(s) as aligned plain text.

    ``BIPSx`` is throughput relative to the policy's own no-fault run;
    ``dTV ms`` is the change in thermal-violation (emergency) time in
    milliseconds — positive means the faults made the chip spend longer
    above the envelope.
    """
    parts = [
        _degradation_table(
            report,
            guarded=False,
            title=(
                f"Degradation under injected faults — {report.workload}, "
                f"{report.duration_s:g} s "
                f"(BIPSx: relative throughput vs. no-fault; "
                f"dTV: thermal-violation delta)"
            ),
        )
    ]
    if report.guarded:
        parts.append("")
        parts.append(
            _degradation_table(
                report,
                guarded=True,
                title="Same sweep with the sensor-sanity guard layer enabled:",
            )
        )
    return "\n".join(parts)

