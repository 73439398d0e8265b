"""The thermal/timing simulator (paper Section 3.3).

This package closes the loop of Figure 2: power traces feed a DTM policy
and the HotSpot-style thermal model, progress is tracked in absolute time
(cores may run at different effective rates under DVFS/stop-go), and
temperature-dependent leakage feeds back into the power input.

* :mod:`repro.sim.workloads` — the 12 four-program workloads (Table 4);
* :mod:`repro.sim.engine` — the stepping engine and its configuration;
* :mod:`repro.sim.metrics` — BIPS and adjusted-duty-cycle accounting;
* :mod:`repro.sim.results` — result containers and time series;
* :mod:`repro.sim.runner` — parallel point execution + on-disk caching.
"""

from repro.sim.engine import SimulationConfig, ThermalTimingSimulator, run_workload
from repro.sim.metrics import MetricsAccumulator
from repro.sim.results import RunResult
from repro.sim.runner import (
    ParallelRunner,
    ResultCache,
    RunPoint,
    RunnerStats,
    config_hash,
)
from repro.sim.workloads import ALL_WORKLOADS, Workload, get_workload

__all__ = [
    "ALL_WORKLOADS",
    "MetricsAccumulator",
    "ParallelRunner",
    "ResultCache",
    "RunPoint",
    "RunResult",
    "RunnerStats",
    "SimulationConfig",
    "ThermalTimingSimulator",
    "Workload",
    "config_hash",
    "get_workload",
    "run_workload",
]
