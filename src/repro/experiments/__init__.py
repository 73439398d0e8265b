"""Experiment harness: one module per table/figure of the paper.

Every module exposes ``compute(...)`` returning structured rows and
``render(...)`` producing a paper-style plain-text table, so benchmark
output can be compared against the publication side by side. ``compute``
declares every simulation point up front and runs them as one batch
through :func:`~repro.experiments.common.run_cells`, which caches runs per
(workload, policy, configuration) — the tables share the same underlying
12x12 grid of simulations.

Experiment index (see DESIGN.md for the full mapping):

* :mod:`repro.experiments.table1` — Pentium M-style per-benchmark
  temperatures (stable temps and oscillation ranges);
* :mod:`repro.experiments.table5` — non-migration policy averages;
* :mod:`repro.experiments.figure3` — per-workload normalised throughput;
* :mod:`repro.experiments.figure5` — migration/DVFS time series;
* :mod:`repro.experiments.table6` — counter-based migration;
* :mod:`repro.experiments.table7` — sensor-based migration;
* :mod:`repro.experiments.figure7` — per-workload migration deltas;
* :mod:`repro.experiments.table8` — the full 12-policy summary grid;
* :mod:`repro.experiments.ablations` — threshold, sensor-fidelity,
  sensor-bias, PI-gain, and migration-period sensitivity studies;
* :mod:`repro.experiments.extensions` — asymmetric-core and SMT studies.
"""

from repro.experiments.common import (
    average_metrics,
    clear_result_cache,
    default_config,
    run_cells,
    run_matrix,
)

__all__ = [
    "average_metrics",
    "clear_result_cache",
    "default_config",
    "run_cells",
    "run_matrix",
]
