"""Figure 7: per-workload performance delta of the two migration policies
in conjunction with distributed DVFS ("best-performing practical policy of
the original four"), versus the non-migration distributed DVFS policy.

The paper's bars range from about -2% to +8%: migration helps most of the
mixed workloads a little and hurts a few, because both mechanisms are
approximation algorithms whose assumptions sometimes misfire.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.taxonomy import spec_by_key
from repro.experiments.common import default_config, run_matrix
from repro.sim.engine import SimulationConfig
from repro.sim.workloads import ALL_WORKLOADS, Workload
from repro.util.ascii_plot import bar_chart
from repro.util.tables import render_table

_BASE = spec_by_key("distributed-dvfs-none")
_COUNTER = spec_by_key("distributed-dvfs-counter")
_SENSOR = spec_by_key("distributed-dvfs-sensor")


@dataclass(frozen=True)
class Figure7Row:
    """One workload's two bars (percent deltas vs. non-migration)."""

    workload: str
    label: str
    counter_delta_pct: float
    sensor_delta_pct: float


def compute(
    config: Optional[SimulationConfig] = None,
    workloads: Optional[Sequence[Workload]] = None,
) -> List[Figure7Row]:
    """Per-workload migration deltas on distributed DVFS."""
    config = config or default_config()
    workloads = list(workloads) if workloads is not None else list(ALL_WORKLOADS)
    grid = run_matrix([_BASE, _COUNTER, _SENSOR], workloads, config)
    rows = []
    for w in workloads:
        base = grid[_BASE.key][w.name].bips
        rows.append(
            Figure7Row(
                workload=w.name,
                label=w.label,
                counter_delta_pct=100.0 * (grid[_COUNTER.key][w.name].bips / base - 1.0),
                sensor_delta_pct=100.0 * (grid[_SENSOR.key][w.name].bips / base - 1.0),
            )
        )
    return rows


def render(rows: Sequence[Figure7Row]) -> str:
    """The figure's data as a table plus a delta chart."""
    table = render_table(
        ["workload", "counter-based delta", "sensor-based delta"],
        [
            [r.label, f"{r.counter_delta_pct:+.2f}%", f"{r.sensor_delta_pct:+.2f}%"]
            for r in rows
        ],
        title=(
            "Figure 7: per-workload gains/losses of migration policies on "
            "distributed DVFS"
        ),
    )
    shift = max(abs(r.sensor_delta_pct) for r in rows) + 1.0
    chart = bar_chart(
        [r.workload for r in rows],
        [r.sensor_delta_pct + shift for r in rows],
        reference=shift,
        unit="",
    )
    return (
        table
        + f"\n\nsensor-based deltas, shifted by +{shift:.1f} "
        "(| marks zero):\n" + chart
    )

