"""Figure 5: hotspot temperatures and DVFS control output on one core
across several migration intervals.

The paper plots, for the gzip-twolf-ammp-lucas workload under distributed
DVFS + counter-based migration, (a) the temperatures of the FP and
integer register logic on the first core as threads migrate through it
(lucas -> gzip -> lucas -> ammp in their run), and (b) the PI controller's
frequency-scale output over the same interval: the critical hotspot is
served by the controller while the other hotspot "drifts" with the
resident thread's profile.

The run carries a :class:`~repro.obs.telemetry.TelemetrySampler` whose
period is one engine step, so its series holds every step. The sampler
reads true model temperatures, not the sensor path; under Figure 5's
noiseless default configuration the two are the same values. Only the
extracted window (:class:`Figure5Data`) is cached, never the raw series.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.core.taxonomy import MigrationKind, PolicySpec, Scope, ThrottleKind
from repro.experiments.common import default_config, get_default_runner
from repro.obs.telemetry import TelemetrySampler
from repro.sim.engine import SimulationConfig, run_workload
from repro.sim.workloads import get_workload
from repro.util.ascii_plot import multi_series
from repro.util.tables import render_table

#: The paper uses workload7 (gzip-twolf-ammp-lucas).
WORKLOAD_NAME = "workload7"

#: Policy under which the figure is recorded.
SPEC = PolicySpec(ThrottleKind.DVFS, Scope.DISTRIBUTED, MigrationKind.COUNTER)


@dataclass(frozen=True)
class Figure5Data:
    """Time series for one core across a window containing migrations."""

    core: int
    times_ms: np.ndarray
    intreg_temp_c: np.ndarray
    fpreg_temp_c: np.ndarray
    frequency_scale: np.ndarray
    resident_benchmark: List[str]       # per sample

    @property
    def resident_sequence(self) -> List[str]:
        """Distinct benchmarks in residence order (the paper's callouts)."""
        seq: List[str] = []
        for name in self.resident_benchmark:
            if not seq or seq[-1] != name:
                seq.append(name)
        return seq


@dataclass(frozen=True)
class Figure5Point:
    """One Figure 5 computation: the run's configuration and window."""

    config: SimulationConfig
    window_s: float


def _compute_point(point: Figure5Point) -> Figure5Data:
    """Run the workload under a per-step sampler and extract the window.

    Sample ``k`` (at ``k * dt``) holds the temperatures at the start of
    step ``k``; step ``k``'s effective frequency scale and resident
    thread land in sample ``k + 1``. So temperatures and times come from
    samples ``0..n-1`` and scales and residents from samples ``1..n``.
    """
    config = point.config
    workload = get_workload(WORKLOAD_NAME)
    sampler = TelemetrySampler(config.machine.sample_period_s)
    run_workload(workload, SPEC, config, telemetry=sampler)
    series = sampler.series

    def per_core(name: str, labels: str = "") -> np.ndarray:
        """One instrument's columns as a (samples, cores) array."""
        return np.array([
            series.column(f'{name}{{core="{c}"{labels}}}')
            for c in range(len(workload.benchmarks))
        ]).T

    times = np.array(series.times[:-1])
    intreg = per_core("hotspot_temp_c", ',unit="intreg"')[:-1]
    fpreg = per_core("hotspot_temp_c", ',unit="fpreg"')[:-1]
    scales = per_core("core_freq_scale")[1:]
    assignments = per_core("core_resident_pid")[1:]

    # Busiest core: most residency changes.
    changes = (np.diff(assignments, axis=0) != 0).sum(axis=0)
    core = int(np.argmax(changes))

    change_steps = np.flatnonzero(np.diff(assignments[:, core]) != 0)
    start_step = max(0, int(change_steps[0]) - 20) if change_steps.size else 0
    dt = float(times[1] - times[0]) if len(times) > 1 else 1.0
    n_window = min(len(times) - start_step, max(2, int(round(point.window_s / dt))))
    sl = slice(start_step, start_step + n_window)

    t0 = times[sl]
    return Figure5Data(
        core=core,
        times_ms=1000.0 * (t0 - t0[0]),
        intreg_temp_c=intreg[sl, core].copy(),
        fpreg_temp_c=fpreg[sl, core].copy(),
        frequency_scale=scales[sl, core].copy(),
        resident_benchmark=[
            workload.benchmarks[pid] for pid in assignments[sl, core].tolist()
        ],
    )


def compute(
    config: Optional[SimulationConfig] = None,
    window_s: float = 0.06,
) -> Figure5Data:
    """Sample the run and extract the busiest core's window.

    Chooses the core with the most thread changes and a window starting
    just before its first migration, mirroring the paper's presentation of
    "several migration intervals". The window goes through the default
    runner's :meth:`~repro.sim.runner.ParallelRunner.map_cached`, so a
    disk-cached runner computes it once.
    """
    point = Figure5Point(config or default_config(), window_s)
    (data,) = get_default_runner().map_cached("figure5", _compute_point, [point])
    return data


def render(data: Figure5Data, n_rows: int = 24) -> str:
    """A tabular view of the two sub-figures (sampled to ``n_rows``)."""
    idx = np.linspace(0, len(data.times_ms) - 1, n_rows).astype(int)
    rows = [
        [
            f"{data.times_ms[i]:.2f}",
            f"{data.intreg_temp_c[i]:.2f}",
            f"{data.fpreg_temp_c[i]:.2f}",
            f"{data.frequency_scale[i]:.2f}",
            data.resident_benchmark[i],
        ]
        for i in idx
    ]
    header = (
        f"Figure 5: core {data.core} across migrations "
        f"(residents: {' -> '.join(data.resident_sequence)})"
    )
    table = render_table(
        ["time (ms)", "int reg (C)", "FP reg (C)", "freq scale", "resident"],
        rows,
        title=header,
    )
    sketch = multi_series(
        data.times_ms,
        {
            "int reg (C)": data.intreg_temp_c,
            "FP reg (C)": data.fpreg_temp_c,
            "freq scale": data.frequency_scale,
        },
        time_unit="ms",
    )
    return table + "\n\n" + sketch


def main() -> str:
    """Compute and print the figure data."""
    text = render(compute())
    print(text)
    return text


if __name__ == "__main__":
    main()
