"""Table 8: the summary grid — relative instruction throughput of all 12
taxonomy combinations.

Paper values::

                 no migration    counter-based    sensor-based
                 stop-go  DVFS   stop-go  DVFS    stop-go  DVFS
    Global        0.62X   2.1X    1.2X    2.2X     1.2X    2.1X
    Distributed  baseline 2.5X    2X      2.6X     2.1X    2.6X
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.core.taxonomy import (
    ALL_POLICY_SPECS,
    MigrationKind,
    PolicySpec,
    Scope,
    ThrottleKind,
)
from repro.experiments.common import default_config, run_matrix
from repro.sim.engine import SimulationConfig
from repro.sim.workloads import Workload
from repro.util.tables import render_grid

#: Paper's grid for EXPERIMENTS.md comparison (spec key -> relative X).
PAPER_VALUES = {
    "global-stop-go-none": 0.62,
    "global-dvfs-none": 2.1,
    "global-stop-go-counter": 1.2,
    "global-dvfs-counter": 2.2,
    "global-stop-go-sensor": 1.2,
    "global-dvfs-sensor": 2.1,
    "distributed-stop-go-none": 1.0,
    "distributed-dvfs-none": 2.5,
    "distributed-stop-go-counter": 2.0,
    "distributed-dvfs-counter": 2.6,
    "distributed-stop-go-sensor": 2.1,
    "distributed-dvfs-sensor": 2.6,
}


@dataclass(frozen=True)
class Table8Grid:
    """Relative throughput of every taxonomy cell."""

    relative: Dict[str, float]  # spec key -> X over distributed stop-go

    def cell(self, scope: Scope, throttle: ThrottleKind, migration: MigrationKind) -> float:
        """Look up one cell."""
        return self.relative[PolicySpec(throttle, scope, migration).key]

    @property
    def best_key(self) -> str:
        """Spec key of the best-performing combination."""
        return max(self.relative, key=lambda k: self.relative[k])


def compute(
    config: Optional[SimulationConfig] = None,
    workloads: Optional[Sequence[Workload]] = None,
) -> Table8Grid:
    """Run the full 12-policy grid and compute relative throughput."""
    config = config or default_config()
    grid = run_matrix(list(ALL_POLICY_SPECS), workloads, config)

    def avg_bips(key: str) -> float:
        results = grid[key]
        return sum(r.bips for r in results.values()) / len(results)

    base = avg_bips("distributed-stop-go-none")
    return Table8Grid(
        relative={s.key: avg_bips(s.key) / base for s in ALL_POLICY_SPECS}
    )


def render(grid: Table8Grid) -> str:
    """Paper-style Table 8."""
    col_labels = [
        "no-mig stop-go",
        "no-mig DVFS",
        "counter stop-go",
        "counter DVFS",
        "sensor stop-go",
        "sensor DVFS",
    ]
    rows = []
    for scope in (Scope.GLOBAL, Scope.DISTRIBUTED):
        row = []
        for migration in (MigrationKind.NONE, MigrationKind.COUNTER, MigrationKind.SENSOR):
            for throttle in (ThrottleKind.STOP_GO, ThrottleKind.DVFS):
                value = grid.cell(scope, throttle, migration)
                if scope is Scope.DISTRIBUTED and throttle is ThrottleKind.STOP_GO \
                        and migration is MigrationKind.NONE:
                    row.append("baseline")
                else:
                    row.append(f"{value:.2f}X")
        rows.append(row)
    return render_grid(
        ["Global", "Distributed"],
        col_labels,
        rows,
        corner="scope",
        title="Table 8: relative instruction throughput of all policy combinations",
    )

