"""Table 7: sensor-based migration on top of each base policy, including
the speedup over the corresponding counter-based policy.

Paper values: stop-go + sensor migration 5.43 / 38.64% / 1.20X / 1.95 /
1.02; dist stop-go 9.27 / 66.61% / 2.05X / 2.05 / 1.01; global DVFS
9.63 / 68.37% / 2.13X / 1.03 / 0.97; dist DVFS 11.70 / 82.64% / 2.59X /
1.03 / 1.01 — i.e. sensor-based performs "slightly better overall" but
not uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.taxonomy import MigrationKind
from repro.experiments import table6
from repro.experiments.common import default_config
from repro.sim.engine import SimulationConfig
from repro.sim.workloads import Workload
from repro.util.tables import render_table


@dataclass(frozen=True)
class Table7Row:
    """One Table 7 row: sensor migration vs. base and vs. counter."""

    policy_name: str
    spec_key: str
    bips: float
    duty_cycle: float
    relative_throughput: float
    speedup_over_base: float
    speedup_over_counter: float


def compute(
    config: Optional[SimulationConfig] = None,
    workloads: Optional[Sequence[Workload]] = None,
) -> List[Table7Row]:
    """Rows for the sensor policy, referencing the counter policy rows."""
    config = config or default_config()
    sensor_rows = table6.compute(config, workloads, kind=MigrationKind.SENSOR)
    counter_rows = table6.compute(config, workloads, kind=MigrationKind.COUNTER)
    out = []
    for s_row, c_row in zip(sensor_rows, counter_rows):
        out.append(
            Table7Row(
                policy_name=s_row.policy_name,
                spec_key=s_row.spec_key,
                bips=s_row.bips,
                duty_cycle=s_row.duty_cycle,
                relative_throughput=s_row.relative_throughput,
                speedup_over_base=s_row.speedup_over_base,
                speedup_over_counter=s_row.bips / c_row.bips,
            )
        )
    return out


def render(rows: Sequence[Table7Row]) -> str:
    """Paper-style Table 7."""
    return render_table(
        [
            "policy",
            "BIPS",
            "duty cycle",
            "relative throughput",
            "speedup over non-migration",
            "speedup over counter-based",
        ],
        [
            [
                r.policy_name,
                f"{r.bips:.2f}",
                f"{r.duty_cycle:.2%}",
                f"{r.relative_throughput:.2f}",
                f"{r.speedup_over_base:.2f}",
                f"{r.speedup_over_counter:.2f}",
            ]
            for r in rows
        ],
        title="Table 7: sensor-based migration policies",
    )

