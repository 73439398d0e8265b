"""Table 5: average BIPS, duty cycle and relative throughput of the four
non-migration policies across all 12 workloads.

Paper values for reference: global stop-go 2.79 BIPS / 19.77% / 0.62X;
distributed stop-go 4.53 / 32.57% / 1.00X; global DVFS 9.36 / 66.49% /
2.07X; distributed DVFS 11.36 / 81.02% / 2.51X.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.core.taxonomy import spec_by_key
from repro.experiments.common import (
    PolicyAverages,
    average_metrics,
    default_config,
    run_matrix,
)
from repro.sim.engine import SimulationConfig
from repro.sim.workloads import Workload
from repro.util.tables import render_table

#: The four non-migration policies, in the paper's row order.
TABLE5_SPECS = tuple(
    spec_by_key(key)
    for key in (
        "global-stop-go-none",
        "distributed-stop-go-none",
        "global-dvfs-none",
        "distributed-dvfs-none",
    )
)

#: The paper's published row values, keyed like our rows (for EXPERIMENTS.md).
PAPER_VALUES = {
    "global-stop-go-none": (2.79, 0.1977, 0.62),
    "distributed-stop-go-none": (4.53, 0.3257, 1.00),
    "global-dvfs-none": (9.36, 0.6649, 2.07),
    "distributed-dvfs-none": (11.36, 0.8102, 2.51),
}


def compute(
    config: Optional[SimulationConfig] = None,
    workloads: Optional[Sequence[Workload]] = None,
) -> List[PolicyAverages]:
    """Run (or fetch) the Table 5 grid and return one row per policy."""
    config = config or default_config()
    grid = run_matrix(list(TABLE5_SPECS), workloads, config)
    baseline = grid["distributed-stop-go-none"]
    return [
        average_metrics(grid[s.key], baseline, s) for s in TABLE5_SPECS
    ]


def render(rows: Sequence[PolicyAverages]) -> str:
    """Paper-style Table 5."""
    return render_table(
        ["policy", "BIPS", "duty cycle", "relative throughput"],
        [
            [r.policy_name, f"{r.bips:.2f}", f"{r.duty_cycle:.2%}",
             f"{r.relative_throughput:.2f}"]
            for r in rows
        ],
        title="Table 5: average throughput and duty cycle, non-migration policies",
    )

