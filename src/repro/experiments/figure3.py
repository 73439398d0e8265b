"""Figure 3: per-workload instruction throughput of global stop-go,
global ("synchronous") DVFS and distributed DVFS, normalised to the
distributed stop-go baseline.

The paper's bar chart shows distributed DVFS winning on every workload,
global stop-go far below 1.0 everywhere, and the spread widening on
mixed (IIFF-style) workloads where a single hot benchmark drags global
policies down.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.experiments.common import default_config, run_matrix
from repro.experiments.table5 import TABLE5_SPECS
from repro.obs.logconfig import get_logger
from repro.sim.engine import SimulationConfig
from repro.sim.workloads import ALL_WORKLOADS, Workload
from repro.util.ascii_plot import bar_chart
from repro.util.tables import render_table

#: Figure 3 plots the three non-baseline policies.
FIGURE3_KEYS = ("global-stop-go-none", "global-dvfs-none", "distributed-dvfs-none")


@dataclass(frozen=True)
class Figure3Row:
    """One workload's bars."""

    workload: str
    label: str
    relative: Dict[str, float]  # spec key -> normalised throughput


def compute(
    config: Optional[SimulationConfig] = None,
    workloads: Optional[Sequence[Workload]] = None,
) -> List[Figure3Row]:
    """One row per workload with throughput normalised to dist stop-go."""
    config = config or default_config()
    workloads = list(workloads) if workloads is not None else list(ALL_WORKLOADS)
    get_logger(__name__).info(
        "figure3: %d workloads x %d policies at %.3g s",
        len(workloads),
        len(TABLE5_SPECS),
        config.duration_s,
    )
    grid = run_matrix(list(TABLE5_SPECS), workloads, config)
    baseline = grid["distributed-stop-go-none"]
    rows = []
    for w in workloads:
        base = baseline[w.name].bips
        rows.append(
            Figure3Row(
                workload=w.name,
                label=w.label,
                relative={
                    key: grid[key][w.name].bips / base for key in FIGURE3_KEYS
                },
            )
        )
    return rows


def render(rows: Sequence[Figure3Row]) -> str:
    """The figure's data as a table plus a bar chart of the winning series."""
    table = render_table(
        ["workload", "Global stop-go", "Global DVFS", "Dist. DVFS"],
        [
            [
                r.label,
                f"{r.relative['global-stop-go-none']:.2f}",
                f"{r.relative['global-dvfs-none']:.2f}",
                f"{r.relative['distributed-dvfs-none']:.2f}",
            ]
            for r in rows
        ],
        title=(
            "Figure 3: normalised instruction throughput per workload "
            "(relative to distributed stop-go)"
        ),
    )
    chart = bar_chart(
        [r.workload for r in rows],
        [r.relative["distributed-dvfs-none"] for r in rows],
        reference=1.0,
        unit="X",
    )
    return table + "\n\nDist. DVFS vs baseline (| marks 1.0X):\n" + chart

