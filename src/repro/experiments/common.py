"""Shared machinery for the experiment modules.

Every experiment driver declares its simulation points up front and runs
them as one batch through the session's default
:class:`~repro.sim.runner.ParallelRunner` (:func:`get_default_runner`).
The paper's main tables and figures are views over one grid of
12 workloads x 12 policies; :func:`run_matrix` is that grid, so computing
Table 5, Table 6, Table 7, Figure 3, Figure 7 and Table 8 in one session
costs one pass over the grid. Points that a
:class:`~repro.sim.runner.RunPoint` cannot describe go through the
runner's :meth:`~repro.sim.runner.ParallelRunner.map_cached` instead.

The runner serves every value from its in-memory memo, then its
content-addressed on-disk cache (if any), and computes only what
neither holds, so a session never simulates a point twice and misses
survive across sessions. The default runner is swappable via
:func:`set_default_runner` and configured by the CLI's
``--jobs``/``--no-cache`` flags.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.core.taxonomy import PolicySpec
from repro.sim.engine import SimulationConfig
from repro.sim.results import RunResult
from repro.sim.runner import ParallelRunner, RunPoint
from repro.sim.workloads import ALL_WORKLOADS, Workload

#: Session-wide execution backend; ``jobs=1``/no disk cache by default,
#: which preserves the historical in-process serial behaviour.
_RUNNER = ParallelRunner()


def get_default_runner() -> ParallelRunner:
    """The runner every experiment driver routes its simulations through."""
    return _RUNNER


def set_default_runner(runner: ParallelRunner) -> ParallelRunner:
    """Install ``runner`` as the session default; returns the previous one."""
    global _RUNNER
    previous = _RUNNER
    _RUNNER = runner
    return previous


def default_config(duration_s: float = 0.5, **overrides) -> SimulationConfig:
    """The paper's experimental configuration (0.5 s of silicon time)."""
    return SimulationConfig(duration_s=duration_s, **overrides)


def clear_result_cache() -> int:
    """Drop the default runner's memo; returns how many values it held.

    The default runner's on-disk cache (if any) is untouched — use
    ``get_default_runner().cache.clear()`` for that.
    """
    return _RUNNER.clear_memo()


def run_matrix(
    specs: Sequence[Optional[PolicySpec]],
    workloads: Optional[Sequence[Workload]] = None,
    config: Optional[SimulationConfig] = None,
) -> Dict[str, Dict[str, RunResult]]:
    """Run a policy x workload grid as one batch of the default runner.

    Returns ``{spec_key: {workload_name: RunResult}}``; ``None`` in
    ``specs`` denotes the unthrottled reference run.
    """
    workloads = list(workloads) if workloads is not None else list(ALL_WORKLOADS)
    config = config or default_config()
    results = iter(get_default_runner().run_points(
        [RunPoint(w, spec, config) for spec in specs for w in workloads]
    ))
    return {
        spec.key if spec else "unthrottled": {
            w.name: next(results) for w in workloads
        }
        for spec in specs
    }


@dataclass(frozen=True)
class PolicyAverages:
    """Workload-averaged metrics of one policy (a Table 5/6/7 row)."""

    spec_key: str
    policy_name: str
    bips: float
    duty_cycle: float
    relative_throughput: float
    emergency_s: float
    migrations: float


def average_metrics(
    results: Dict[str, RunResult],
    baseline: Dict[str, RunResult],
    spec: Optional[PolicySpec],
) -> PolicyAverages:
    """Average one policy's per-workload results against a baseline."""
    names = sorted(results)
    if sorted(baseline) != names:
        raise ValueError("results and baseline must cover the same workloads")
    n = len(names)
    if n == 0:
        raise ValueError("no workloads to average")
    bips = sum(results[w].bips for w in names) / n
    base_bips = sum(baseline[w].bips for w in names) / n
    return PolicyAverages(
        spec_key=spec.key if spec else "unthrottled",
        policy_name=spec.name if spec else "unthrottled",
        bips=bips,
        duty_cycle=sum(results[w].duty_cycle for w in names) / n,
        relative_throughput=bips / base_bips if base_bips else float("nan"),
        emergency_s=sum(results[w].emergency_s for w in names) / n,
        migrations=sum(results[w].migrations for w in names) / n,
    )
