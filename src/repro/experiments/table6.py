"""Table 6: counter-based migration on top of each base policy.

Paper values: stop-go + migration 5.34 BIPS / 37.93% / 1.18X / 1.91
speedup over non-migration; dist stop-go 9.15 / 65.12% / 2.02X / 2.02;
global DVFS 9.88 / 70.05% / 2.18X / 1.06; dist DVFS 11.62 / 82.42% /
2.57X / 1.02.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

from repro.core.taxonomy import MigrationKind, PolicySpec, spec_by_key
from repro.experiments.common import (
    average_metrics,
    default_config,
    run_matrix,
)
from repro.experiments.table5 import TABLE5_SPECS
from repro.sim.engine import SimulationConfig
from repro.sim.workloads import Workload
from repro.util.tables import render_table

def with_migration(spec: PolicySpec, kind: MigrationKind) -> PolicySpec:
    """The taxonomy's cell of the same base policy with ``kind`` migration."""
    return spec_by_key(replace(spec, migration=kind).key)


@dataclass(frozen=True)
class MigrationRow:
    """One Table 6/7 row: a migration policy and its speedups."""

    policy_name: str
    spec_key: str
    bips: float
    duty_cycle: float
    relative_throughput: float
    speedup_over_base: float
    migrations: float


def compute(
    config: Optional[SimulationConfig] = None,
    workloads: Optional[Sequence[Workload]] = None,
    kind: MigrationKind = MigrationKind.COUNTER,
) -> List[MigrationRow]:
    """Rows for migration policy ``kind`` over each base policy."""
    config = config or default_config()
    migration_specs = [with_migration(s, kind) for s in TABLE5_SPECS]
    grid = run_matrix(list(TABLE5_SPECS) + migration_specs, workloads, config)
    baseline = grid["distributed-stop-go-none"]
    rows = []
    for base, mig in zip(TABLE5_SPECS, migration_specs):
        avg = average_metrics(grid[mig.key], baseline, mig)
        base_avg = average_metrics(grid[base.key], baseline, base)
        rows.append(
            MigrationRow(
                policy_name=mig.name,
                spec_key=mig.key,
                bips=avg.bips,
                duty_cycle=avg.duty_cycle,
                relative_throughput=avg.relative_throughput,
                speedup_over_base=avg.bips / base_avg.bips,
                migrations=avg.migrations,
            )
        )
    return rows


def render(rows: Sequence[MigrationRow]) -> str:
    """Paper-style Table 6."""
    return render_table(
        [
            "policy",
            "BIPS",
            "duty cycle",
            "relative throughput",
            "speedup over non-migration",
        ],
        [
            [
                r.policy_name,
                f"{r.bips:.2f}",
                f"{r.duty_cycle:.2%}",
                f"{r.relative_throughput:.2f}",
                f"{r.speedup_over_base:.2f}",
            ]
            for r in rows
        ],
        title="Table 6: performance counter-based migration policies",
    )

