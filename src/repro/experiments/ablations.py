"""Sensitivity studies backing the paper's side claims and our own design
choices (DESIGN.md calls these out as ablation benches).

* :func:`threshold_sweep` — Section 5.3: "raising the temperature
  threshold to 100 C increased the duty cycles ... by 10 to 15%.
  Nonetheless, the relative performance tradeoffs remain as presented."
* :func:`sensor_fidelity_sweep` — the policies act on sensors, not true
  temperatures; this quantifies what quantisation and noise cost.
* :func:`sensor_bias_sweep` — miscalibrated sensors, with and without
  the hardware failsafe.
* :func:`pi_gain_sweep` — Section 4.1: "these constants can actually
  deviate significantly while still achieving the intended goals."
* :func:`migration_period_sweep` — the 10 ms OS cadence against faster
  and slower outer loops.

:func:`compute` declares every row of the four configuration sweeps up
front and runs them as one batch; the PI-gain rows, which need a
controller design no :class:`~repro.sim.runner.RunPoint` describes, go
through the runner's :meth:`~repro.sim.runner.ParallelRunner.map_cached`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.control.pi import PAPER_KI, PAPER_KP, design_pi
from repro.core.dvfs import DVFSPolicy
from repro.core.taxonomy import MigrationKind, PolicySpec, Scope, ThrottleKind
from repro.experiments.common import (
    default_config,
    get_default_runner,
    run_cells,
)
from repro.sim.engine import SimulationConfig, ThermalTimingSimulator
from repro.sim.runner import RunPoint
from repro.sim.workloads import get_workload
from repro.util.tables import render_table

_DSG = PolicySpec(ThrottleKind.STOP_GO, Scope.DISTRIBUTED, MigrationKind.NONE)
_DDV = PolicySpec(ThrottleKind.DVFS, Scope.DISTRIBUTED, MigrationKind.NONE)
_DSG_CTR = PolicySpec(ThrottleKind.STOP_GO, Scope.DISTRIBUTED, MigrationKind.COUNTER)

#: Hot workloads used for the focused sweeps (full grid not needed).
SWEEP_WORKLOADS = ("workload3", "workload7", "workload8")

#: Default points of the threshold and migration-period sweeps.
THRESHOLDS_C = (84.2, 92.0, 100.0)
PERIODS_S = (5e-3, 10e-3, 20e-3, 40e-3)

#: One declared sweep row: its label, policy and configuration; the row
#: averages that policy over the sweep's workloads.
Row = Tuple[str, PolicySpec, SimulationConfig]


@dataclass(frozen=True)
class SweepPoint:
    """One configuration point of a sweep."""

    label: str
    bips: float
    duty_cycle: float
    emergency_s: float


def _averaged(rows: Sequence[Row], workloads: Sequence[str]) -> List[SweepPoint]:
    """Run every row over ``workloads`` as one batch; average each row."""
    mixes = [get_workload(w) for w in workloads]
    results = iter(run_cells([
        RunPoint(w, spec, cfg) for _label, spec, cfg in rows for w in mixes
    ]))
    points = []
    for label, _spec, _cfg in rows:
        runs = [next(results) for _ in mixes]
        n = len(runs)
        points.append(SweepPoint(
            label=label,
            bips=sum(r.bips for r in runs) / n,
            duty_cycle=sum(r.duty_cycle for r in runs) / n,
            emergency_s=sum(r.emergency_s for r in runs) / n,
        ))
    return points


def _threshold_rows(config: SimulationConfig, thresholds) -> List[Row]:
    return [
        (f"{spec.name} @ {threshold:.1f}C", spec,
         replace(config, threshold_c=float(threshold)))
        for threshold in thresholds
        for spec in (_DSG, _DDV)
    ]


def _sensor_rows(config: SimulationConfig) -> List[Row]:
    return [
        (label, _DDV, replace(
            config, sensor_noise_std_c=noise, sensor_quantization_c=quant
        ))
        for label, noise, quant in (
            ("ideal", 0.0, 0.0),
            ("noise 0.5C", 0.5, 0.0),
            ("noise 2.0C", 2.0, 0.0),
            ("quantized 1C", 0.0, 1.0),
            ("noise 1C + quantized 1C", 1.0, 1.0),
        )
    ]


def _bias_rows(config: SimulationConfig) -> List[Row]:
    return [
        (label, _DDV, replace(config, sensor_offset_c=offset, hardware_trip=trip))
        for label, offset, trip in (
            ("calibrated", 0.0, False),
            ("reads 3C low", -3.0, False),
            ("reads 3C low + hardware trip", -3.0, True),
            ("reads 3C high", 3.0, False),
        )
    ]


def _period_rows(config: SimulationConfig, periods_s) -> List[Row]:
    return [
        (f"period {period * 1000:.0f} ms", _DSG_CTR,
         replace(config, migration_period_s=float(period)))
        for period in periods_s
    ]


def threshold_sweep(
    thresholds=THRESHOLDS_C,
    config: Optional[SimulationConfig] = None,
    workloads: Sequence[str] = SWEEP_WORKLOADS,
) -> List[SweepPoint]:
    """Duty cycle of dist stop-go and dist DVFS versus thermal limit."""
    return _averaged(
        _threshold_rows(config or default_config(), thresholds), workloads
    )


def sensor_fidelity_sweep(
    config: Optional[SimulationConfig] = None,
    workloads: Sequence[str] = SWEEP_WORKLOADS,
) -> List[SweepPoint]:
    """Dist DVFS under degraded sensors (noise and ACPI-style rounding)."""
    return _averaged(_sensor_rows(config or default_config()), workloads)


def sensor_bias_sweep(
    config: Optional[SimulationConfig] = None,
    workloads: Sequence[str] = SWEEP_WORKLOADS,
) -> List[SweepPoint]:
    """Miscalibrated sensors, with and without the hardware failsafe.

    A sensor reading a few degrees *low* makes the PI controller steer the
    true silicon past the threshold — the one fault mode closed-loop DTM
    cannot see. The PROCHOT-style hardware trip (an independent analog
    circuit reading true silicon) bounds the damage at a small throughput
    cost. This motivates why real processors pair digital control sensors
    with a dedicated trip circuit.
    """
    return _averaged(_bias_rows(config or default_config()), workloads)


def _pi_gain_point(payload: Tuple[float, str, SimulationConfig]) -> SweepPoint:
    """One PI-gain row: dist DVFS with (Kp, Ki) scaled by ``factor``.

    Built directly on the simulator: the policy needs a non-default
    controller design, which the taxonomy factory does not parameterise.
    """
    factor, workload_name, config = payload
    workload = get_workload(workload_name)
    sim = ThermalTimingSimulator(workload.benchmarks, _DDV, config)
    sim.throttle = DVFSPolicy(
        sim.n_cores,
        dt=sim.dt,
        scope="distributed",
        design=design_pi(PAPER_KP * factor, PAPER_KI * factor, sim.dt),
        threshold_c=config.threshold_c,
    )
    r = sim.run()
    return SweepPoint(f"gains x{factor}", r.bips, r.duty_cycle, r.emergency_s)


def pi_gain_sweep(
    gain_factors=(0.25, 0.5, 1.0, 2.0, 4.0),
    config: Optional[SimulationConfig] = None,
    workload_name: str = "workload7",
) -> List[SweepPoint]:
    """Dist DVFS with the PI gains scaled around the paper's values."""
    config = config or default_config()
    return get_default_runner().map_cached(
        "ablations.pi_gain",
        _pi_gain_point,
        [(factor, workload_name, config) for factor in gain_factors],
    )


def migration_period_sweep(
    periods_s=PERIODS_S,
    config: Optional[SimulationConfig] = None,
    workloads: Sequence[str] = SWEEP_WORKLOADS,
) -> List[SweepPoint]:
    """Dist stop-go + counter migration versus the OS decision cadence."""
    return _averaged(
        _period_rows(config or default_config(), periods_s), workloads
    )


def compute(
    config: Optional[SimulationConfig] = None,
) -> Dict[str, List[SweepPoint]]:
    """Every sweep at its default points: ``{sweep name: rows}``.

    The rows of the four configuration sweeps run as one batch.
    """
    config = config or default_config()
    declared = {
        "threshold": _threshold_rows(config, THRESHOLDS_C),
        "sensors": _sensor_rows(config),
        "sensor_bias": _bias_rows(config),
        "pi_gains": [],  # not RunPoint-shaped; see pi_gain_sweep
        "migration_period": _period_rows(config, PERIODS_S),
    }
    points = iter(_averaged(
        [row for rows in declared.values() for row in rows], SWEEP_WORKLOADS
    ))
    sweeps = {
        name: [next(points) for _ in rows] for name, rows in declared.items()
    }
    sweeps["pi_gains"] = pi_gain_sweep(config=config)
    return sweeps


def render(data: Dict[str, Sequence[SweepPoint]]) -> str:
    """One table per sweep, titled ``Ablation: <sweep name>``."""
    return "\n\n".join(
        render_table(
            ["configuration", "BIPS", "duty cycle", "emergency (s)"],
            [
                [p.label, f"{p.bips:.2f}", f"{p.duty_cycle:.2%}",
                 f"{p.emergency_s:.4f}"]
                for p in points
            ],
            title=f"Ablation: {name}",
        )
        for name, points in data.items()
    )


def main() -> str:
    """Compute and print every sweep."""
    text = render(compute())
    print(text)
    return text


if __name__ == "__main__":
    main()
