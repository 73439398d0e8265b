"""repro — a reproduction of "Techniques for Multicore Thermal
Management: Classification and New Exploration" (Donald & Martonosi,
ISCA 2006).

The package implements the paper's full stack in Python:

* :mod:`repro.uarch` — a Turandot/PowerTimer-style performance & power
  substrate producing per-unit power traces for 22 synthetic SPEC CPU2000
  benchmark models;
* :mod:`repro.thermal` — a HotSpot-style compact thermal RC model
  (floorplans, package, transient/steady solvers, leakage, sensors);
* :mod:`repro.control` — formal control tools (transfer functions, c2d,
  stability, the paper's PI design);
* :mod:`repro.osmodel` — processes, scheduler, timer interrupts and the
  thread-core thermal table;
* :mod:`repro.core` — the DTM policy taxonomy: stop-go and PI-DVFS
  throttling (global/distributed) and counter-/sensor-based migration;
* :mod:`repro.sim` — the thermal/timing simulation engine and the Table 4
  workloads;
* :mod:`repro.experiments` — regeneration of every table and figure in
  the paper's evaluation.

Quickstart::

    from repro import SimulationConfig, run_workload, get_workload, spec_by_key

    workload = get_workload("workload7")           # gzip-twolf-ammp-lucas
    spec = spec_by_key("distributed-dvfs-sensor")  # best policy in the paper
    result = run_workload(workload, spec, SimulationConfig(duration_s=0.1))
    print(result.summary())
"""

from repro.core.taxonomy import (
    ALL_POLICY_SPECS,
    BASELINE_SPEC,
    MigrationKind,
    PolicySpec,
    Scope,
    ThrottleKind,
    build_policy,
    spec_by_key,
)
from repro.obs import (
    RunEventLog,
    StepProfiler,
    configure_logging,
    get_logger,
)
from repro.sim.engine import SimulationConfig, ThermalTimingSimulator, run_workload
from repro.sim.results import RunResult
from repro.sim.runner import ParallelRunner, ResultCache, RunPoint, config_hash
from repro.sim.workloads import ALL_WORKLOADS, Workload, get_workload

__version__ = "1.0.0"

__all__ = [
    "ALL_POLICY_SPECS",
    "ALL_WORKLOADS",
    "BASELINE_SPEC",
    "MigrationKind",
    "ParallelRunner",
    "PolicySpec",
    "ResultCache",
    "RunEventLog",
    "RunPoint",
    "RunResult",
    "Scope",
    "StepProfiler",
    "SimulationConfig",
    "ThermalTimingSimulator",
    "ThrottleKind",
    "Workload",
    "__version__",
    "build_policy",
    "config_hash",
    "configure_logging",
    "get_logger",
    "get_workload",
    "run_workload",
    "spec_by_key",
]
