"""Many-core threshold sweep: the taxonomy re-run at 16 and 64 cores.

The paper evaluates its policy taxonomy on a 4-core chip; the ROADMAP
asks which conclusions survive scale and heterogeneity. This experiment
re-runs a representative slice of the taxonomy across the preset
scenarios (``mesh16``, ``mesh64``, ``biglittle4+4`` — see
``docs/SCENARIOS.md``) and a small emergency-threshold sweep, reporting
per-scenario throughput relative to the unthrottled reference at the
same threshold. Points are submitted to the session's default runner as
one flat batch, so ``--backend fleet`` steps each scenario's members in
lockstep on one shared :class:`~repro.thermal.model.ThermalKernel`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.taxonomy import PolicySpec, spec_by_key
from repro.experiments.common import default_config, get_default_runner
from repro.scenarios import Scenario, get_scenario
from repro.sim.engine import SimulationConfig
from repro.sim.results import RunResult
from repro.sim.runner import RunPoint
from repro.sim.workloads import get_workload, tile_workload
from repro.util.tables import render_table

#: Tiled across every scenario chip (the paper's Figure 5 workload).
WORKLOAD_NAME = "workload7"

#: Default scenario slice: homogeneous 16-core, dense 64-core, and the
#: heterogeneous big.LITTLE chip.
DEFAULT_SCENARIOS: Tuple[str, ...] = ("mesh16", "mesh64", "biglittle4+4")

#: Emergency thresholds swept (the paper's 84.2 C plus one colder and
#: one hotter operating point).
DEFAULT_THRESHOLDS_C: Tuple[float, ...] = (82.0, 84.2, 86.0)

#: Representative taxonomy slice: both mechanisms, both scopes, plus the
#: best migration-augmented policy from the paper's conclusions.
DEFAULT_POLICY_KEYS: Tuple[str, ...] = (
    "global-stop-go-none",
    "distributed-stop-go-none",
    "global-dvfs-none",
    "distributed-dvfs-none",
    "distributed-dvfs-sensor",
)


@dataclass(frozen=True)
class ManycoreCell:
    """One (scenario, policy, threshold) grid cell's summary metrics."""

    scenario: str
    spec_key: str
    threshold_c: float
    bips: float
    relative_throughput: float
    emergency_s: float
    duty_cycle: float


@dataclass(frozen=True)
class ManycoreData:
    """The full sweep: cells plus the axes they were computed over."""

    scenarios: Tuple[str, ...]
    thresholds_c: Tuple[float, ...]
    policy_keys: Tuple[str, ...]
    cells: Tuple[ManycoreCell, ...]


def _scenario_config(
    base: SimulationConfig, scenario: Scenario, threshold_c: float
) -> SimulationConfig:
    """The base config rebound to one scenario chip and threshold."""
    return replace(
        base,
        machine=scenario.machine_config(),
        scenario=scenario,
        threshold_c=threshold_c,
    )


def compute(
    config: Optional[SimulationConfig] = None,
    scenarios: Sequence[str] = DEFAULT_SCENARIOS,
    thresholds_c: Sequence[float] = DEFAULT_THRESHOLDS_C,
    policy_keys: Sequence[str] = DEFAULT_POLICY_KEYS,
) -> ManycoreData:
    """Run the scenario x policy x threshold grid in one runner batch.

    Every (scenario, threshold) pair also runs unthrottled to anchor the
    relative-throughput column, exactly as the paper normalises its
    tables against the no-DTM reference.
    """
    base = config or default_config()
    specs: List[Optional[PolicySpec]] = [None] + [
        spec_by_key(k) for k in policy_keys
    ]
    points: List[RunPoint] = []
    labels: List[Tuple[str, str, float]] = []
    for name in scenarios:
        scenario = get_scenario(name)
        workload = tile_workload(get_workload(WORKLOAD_NAME), scenario.n_cores)
        for threshold_c in thresholds_c:
            cfg = _scenario_config(base, scenario, threshold_c)
            for spec in specs:
                points.append(RunPoint(workload, spec, cfg))
                labels.append(
                    (name, spec.key if spec else "unthrottled", threshold_c)
                )
    results = get_default_runner().run_points(points)
    by_cell: Dict[Tuple[str, str, float], RunResult] = dict(
        zip(labels, results)
    )
    cells: List[ManycoreCell] = []
    for name in scenarios:
        for threshold_c in thresholds_c:
            ref = by_cell[(name, "unthrottled", threshold_c)]
            for spec in specs:
                key = spec.key if spec else "unthrottled"
                r = by_cell[(name, key, threshold_c)]
                cells.append(
                    ManycoreCell(
                        scenario=name,
                        spec_key=key,
                        threshold_c=threshold_c,
                        bips=r.bips,
                        relative_throughput=(
                            r.bips / ref.bips if ref.bips else float("nan")
                        ),
                        emergency_s=r.emergency_s,
                        duty_cycle=r.duty_cycle,
                    )
                )
    return ManycoreData(
        scenarios=tuple(scenarios),
        thresholds_c=tuple(float(t) for t in thresholds_c),
        policy_keys=tuple(policy_keys),
        cells=tuple(cells),
    )


def render(data: ManycoreData) -> str:
    """Per-scenario tables: policy rows x threshold columns."""
    sections: List[str] = []
    keys = ("unthrottled",) + data.policy_keys
    for name in data.scenarios:
        by_key: Dict[Tuple[str, float], ManycoreCell] = {
            (c.spec_key, c.threshold_c): c
            for c in data.cells
            if c.scenario == name
        }
        rows = []
        for key in keys:
            row = [key]
            for t in data.thresholds_c:
                c = by_key[(key, t)]
                row.append(
                    f"{c.relative_throughput:.3f} "
                    f"({c.emergency_s * 1000:.1f}ms)"
                )
            rows.append(row)
        headers = ["policy"] + [f"{t:g} C" for t in data.thresholds_c]
        sections.append(
            render_table(
                headers,
                rows,
                title=(
                    f"{name}: relative throughput (emergency time) "
                    f"vs unthrottled"
                ),
            )
        )
    return "\n\n".join(sections)

