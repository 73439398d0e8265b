"""Shared machinery for the experiment modules.

Every experiment driver declares its simulation points up front and runs
them as one batch through :func:`run_cells`. The paper's main tables and
figures are views over one grid of 12 workloads x 12 policies;
:func:`run_matrix` is that grid over :func:`run_cells`, so computing
Table 5, Table 6, Table 7, Figure 3, Figure 7 and Table 8 in one session
costs one pass over the grid. Points that a
:class:`~repro.sim.runner.RunPoint` cannot describe go through the
runner's :meth:`~repro.sim.runner.ParallelRunner.map_cached` instead.

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
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.taxonomy import PolicySpec
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


def _memory_key(point: RunPoint) -> Tuple:
    """In-memory cache key; the frozen workload itself, not its name, so
    two mixes that share a name never alias.

    ``SimulationConfig`` is a frozen dataclass of frozen dataclasses, so
    the instance itself is hashable and equality-complete — using it
    directly makes it impossible for a newly added field to silently
    alias two different configurations in the cache.
    """
    spec = point.spec
    return (point.workload, spec.key if spec else "unthrottled", point.config)


def clear_result_cache() -> int:
    """Drop every in-memory cached run; returns how many were discarded.

    The default runner's on-disk cache (if any) is untouched — use
    ``get_default_runner().cache.clear()`` for that.
    """
    n = len(_CACHE)
    _CACHE.clear()
    return n


def run_cells(points: Sequence[RunPoint]) -> List[RunResult]:
    """Run (or fetch) every point; results align with ``points``.

    Each point costs one in-memory lookup (hashing a key walks its
    configuration tree, so a hit is not looked up twice). Points missing
    from the in-memory cache are submitted to the default runner as one
    flat batch (each distinct point once), so the runner's plan sees the
    whole remainder at once instead of point by point.
    """
    results: List[Optional[RunResult]] = []
    missing: Dict[Tuple, List[int]] = {}
    for i, point in enumerate(points):
        key = _memory_key(point)
        result = _CACHE.get(key)
        if result is None:
            missing.setdefault(key, []).append(i)
        results.append(result)
    if missing:
        logger.info(
            "run_cells: %d of %d points missing from the in-memory cache; "
            "submitting to the runner",
            len(missing),
            len(points),
        )
        fresh = _RUNNER.run_points([points[idxs[0]] for idxs in missing.values()])
        for (key, idxs), result in zip(missing.items(), fresh):
            _CACHE[key] = result
            for i in idxs:
                results[i] = result
    return results  # type: ignore[return-value]


def run_matrix(
    specs: Sequence[Optional[PolicySpec]],
    workloads: Optional[Sequence[Workload]] = None,
    config: Optional[SimulationConfig] = None,
) -> Dict[str, Dict[str, RunResult]]:
    """Run a policy x workload grid through :func:`run_cells`.

    Returns ``{spec_key: {workload_name: RunResult}}``; ``None`` in
    ``specs`` denotes the unthrottled reference run.
    """
    workloads = list(workloads) if workloads is not None else list(ALL_WORKLOADS)
    config = config or default_config()
    results = iter(
        run_cells([RunPoint(w, spec, config) for spec in specs for w in workloads])
    )
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
