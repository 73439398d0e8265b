"""Shared machinery for the experiment modules.

All of the paper's main tables and figures are views over the same grid
of simulations: 12 workloads x 12 policies. :func:`run_matrix` executes
and caches those runs so that computing Table 5, Table 6, Table 7,
Figure 3, Figure 7 and Table 8 in one session costs one pass over the
grid.

Two cache layers cooperate:

* a module-level in-memory dict (keyed by workload, policy and
  configuration) deduplicates runs within one session, exactly as
  before;
* the session's default :class:`~repro.sim.runner.ParallelRunner` —
  swappable via :func:`set_default_runner` and configured by the CLI's
  ``--jobs``/``--no-cache`` flags — optionally adds a process pool and a
  content-addressed on-disk cache underneath, so misses fan out across
  cores and survive across sessions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.core.taxonomy import BASELINE_SPEC, PolicySpec
from repro.obs.logconfig import get_logger
from repro.sim.engine import SimulationConfig
from repro.sim.results import RunResult
from repro.sim.runner import ParallelRunner, RunPoint
from repro.sim.workloads import ALL_WORKLOADS, Workload

logger = get_logger(__name__)

_CACHE: Dict[Tuple, RunResult] = {}

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


def _config_key(config: SimulationConfig) -> Tuple:
    """Cache key covering EVERY configuration field.

    ``SimulationConfig`` is a frozen dataclass of frozen dataclasses, so
    the instance itself is hashable and equality-complete — using it
    directly makes it impossible for a newly added field to silently
    alias two different configurations in the cache.
    """
    return (config,)


def _memory_key(
    workload: Workload, spec: Optional[PolicySpec], config: SimulationConfig
) -> Tuple:
    """In-memory cache key; the frozen workload itself, not its name, so
    two mixes that share a name never alias."""
    return (workload, spec.key if spec else "unthrottled", _config_key(config))


def clear_result_cache() -> int:
    """Drop every in-memory cached run; returns how many were discarded.

    The default runner's on-disk cache (if any) is untouched — use
    ``get_default_runner().cache.clear()`` for that.
    """
    n = len(_CACHE)
    _CACHE.clear()
    return n


def run_cached(
    workload: Workload, spec: Optional[PolicySpec], config: SimulationConfig
) -> RunResult:
    """Run (or fetch) one (workload, policy) simulation."""
    key = _memory_key(workload, spec, config)
    if key not in _CACHE:
        _CACHE[key] = _RUNNER.run_workload(workload, spec, config)
    return _CACHE[key]


def run_matrix(
    specs: Sequence[Optional[PolicySpec]],
    workloads: Optional[Sequence[Workload]] = None,
    config: Optional[SimulationConfig] = None,
) -> Dict[str, Dict[str, RunResult]]:
    """Run a policy x workload grid.

    Returns ``{spec_key: {workload_name: RunResult}}``; ``None`` in
    ``specs`` denotes the unthrottled reference run. Grid cells missing
    from the in-memory cache are submitted to the default runner as one
    flat batch, so a parallel runner fans the whole remainder out at
    once instead of cell by cell.
    """
    workloads = list(workloads) if workloads is not None else list(ALL_WORKLOADS)
    config = config or default_config()
    cells = [(spec, w) for spec in specs for w in workloads]
    missing = [
        (spec, w)
        for spec, w in cells
        if _memory_key(w, spec, config) not in _CACHE
    ]
    if missing:
        logger.info(
            "run_matrix: %d of %d grid cells missing from the in-memory "
            "cache; submitting to the runner",
            len(missing),
            len(cells),
        )
        points = [RunPoint(w, spec, config) for spec, w in missing]
        for (spec, w), result in zip(missing, _RUNNER.run_points(points)):
            _CACHE[_memory_key(w, spec, config)] = result
    out: Dict[str, Dict[str, RunResult]] = {}
    for spec in specs:
        key = spec.key if spec else "unthrottled"
        out[key] = {
            w.name: _CACHE[_memory_key(w, spec, config)] for w in workloads
        }
    return out


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


def baseline_results(
    workloads: Optional[Sequence[Workload]] = None,
    config: Optional[SimulationConfig] = None,
) -> Dict[str, RunResult]:
    """Distributed stop-go (the paper's baseline) across the workloads."""
    return run_matrix([BASELINE_SPEC], workloads, config)[BASELINE_SPEC.key]
