"""What the benchmark measures: workloads, metrics and how they relate.

``BENCHMARK.json`` at the repository root is the machine-readable copy of
the workload and metric lists below; ``tests/bench/test_spec.py`` keeps
the two in agreement. Everything else here (the per-layer to end-to-end
mapping, per-workload meaning of each metric) has no place in that file's
fixed schema and lives only here.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, Tuple

#: The benchmark's default ``--seed``; ``bench/expected/`` holds the
#: output digests for this seed only.
DEFAULT_SEED = 20060617

#: Default measured seconds per workload run (``run_seconds``).
RUN_SECONDS = 10

#: Fresh-interpreter set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 7

#: How strongly set-up time (imports, file reads, process start) follows
#: the vCPU's speed; see :attr:`Workload.speed_exponent`.
SETUP_SPEED_EXPONENT = 0.85

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@dataclass(frozen=True)
class Workload:
    """One set of inputs, why it exists, and what its operation is."""

    name: str
    why: str
    #: One timed operation, and the work item ``throughput`` counts.
    op: str
    work_unit: str
    #: How strongly the workload's operations follow the vCPU's speed, as
    #: the exponent of ``bench/speed.py``: the value that made the run-to-
    #: run spread of its times smallest over ten runs on the shared 2-vCPU
    #: machine (README, "Reference seconds").
    speed_exponent: float
    #: Fresh processes that time the cold operation (at most
    #: :data:`SETUP_REPEATS`); ``cold_s`` is their median. Fewer where the
    #: cold operation is long.
    cold_repeats: int = SETUP_REPEATS


WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        "artifacts",
        "regenerating the paper's tables and figures cold and warm: scalar "
        "loop, table1's checked ThermalModel.step path, cache puts then gets",
        op="one warm regeneration of all 8 artifacts from the disk cache",
        work_unit="artifacts",
        speed_exponent=1.2,
        cold_repeats=1,
    ),
    Workload(
        "sweep-fleet",
        "256 short points per round through the fleet engine: fixed "
        "per-point cost (construction, warm start, batching), no cache",
        op="one 256-point fleet round",
        work_unit="points",
        speed_exponent=1.15,
    ),
    Workload(
        "long-run",
        "15 points of 5,400 steps through the scalar engine: per-step kernels "
        "dominate, so kernel speed-ups and slower single runs show here",
        op="one pass over the 15 points",
        work_unit="engine steps",
        speed_exponent=1.1,
        cold_repeats=3,
    ),
    Workload(
        "serve-mixed",
        "repro serve under 2 closed-loop clients, 90% cache hits and 10% "
        "new points, so cache reads and writes interleave",
        op="one served request",
        work_unit="requests",
        speed_exponent=0.8,
    ),
)

WORKLOAD_NAMES: Tuple[str, ...] = tuple(w.name for w in WORKLOADS)


@dataclass(frozen=True)
class EndToEnd:
    """A metric a user of the system sees, with its regression bound."""

    name: str
    unit: str
    better: str
    #: Share of the parent's median by which it may worsen.
    bound: float
    meaning: str


#: Times are in reference seconds (``bench/speed.py``): wall time
#: corrected for the speed the vCPU ran at.
END_TO_END: Tuple[EndToEnd, ...] = (
    EndToEnd(
        "setup_s", "s", "lower", 0.1,
        "interpreter start to the end of set-up (imports, inputs, server "
        "start), median of fresh interpreters",
    ),
    EndToEnd(
        "cold_s", "s", "lower", 0.1,
        "the first operation in a fresh process on an empty result cache, "
        "median of the workload's cold_repeats processes",
    ),
    EndToEnd(
        "warm_ms", "ms", "lower", 0.1,
        "median latency of the operations after the cold one",
    ),
    EndToEnd(
        "throughput", "1/s", "higher", 0.1,
        "work items per second at the median operation (serve-mixed: "
        "requests per second over the whole load)",
    ),
    EndToEnd(
        "peak_rss_mb", "MB", "lower", 0.05,
        "peak resident memory of the measuring process",
    ),
)

#: Shorthands for the mapping table below.
_ALL = WORKLOAD_NAMES
_ART, _SWEEP, _LONG, _SERVE = WORKLOAD_NAMES


@dataclass(frozen=True)
class PerLayer:
    """A metric of one layer, and the end-to-end metrics it should move."""

    name: str
    unit: str
    better: str
    #: ``(end-to-end metric, workload)`` pairs this metric should move.
    moves: Tuple[Tuple[str, str], ...]


def _layer(names, unit, better, moves):
    return tuple(PerLayer(n, unit, better, tuple(moves)) for n in names)


def _calls_busy(prefix, moves, extra=()):
    """``<prefix>.calls`` and ``<prefix>.busy_s`` plus extra suffixes."""
    out = _layer([f"{prefix}.calls"], "count", "lower", moves)
    out += _layer([f"{prefix}.busy_s"], "s", "lower", moves)
    for suffix, unit, better in extra:
        out += _layer([f"{prefix}.{suffix}"], unit, better, moves)
    return out


_STEP = (("throughput", _LONG),)
_POINTS = (("throughput", _SWEEP),)
_COLD = (("cold_s", _ART),)
_WARM = (("warm_ms", _ART),)
_SERVED = (("warm_ms", _SERVE), ("throughput", _SERVE))
_SELF_S = ("self_s", "s", "lower")

PER_LAYER: Tuple[PerLayer, ...] = (
    # uarch.tracegen: trace synthesis on the first run of each benchmark.
    _calls_busy("uarch.generate_trace", (("cold_s", _ART), ("cold_s", _SWEEP)))
    # thermal.model
    + _layer(["thermal.ThermalModel.init.busy_s"], "s", "lower",
             _COLD + _POINTS)
    + _calls_busy("thermal.StepOperator.apply", _STEP + _COLD)
    + _calls_busy("thermal.StepOperator.apply_batch", _POINTS,
                  extra=(("rows", "count", "higher"),))
    + _calls_busy("thermal.ThermalModel.step", _COLD)
    # thermal.leakage
    + _calls_busy("thermal.LeakageModel.power_fast", _STEP + _COLD)
    + _calls_busy("thermal.LeakageModel.power", _COLD)
    # thermal.coupling: the warm start.
    + _calls_busy("thermal.coupled_steady_state",
                  _POINTS + (("throughput", _SERVE),))
    # core: policies and actuators.
    + _calls_busy("core.DVFSPolicy.scales_from_hottest", _STEP + _COLD)
    + _calls_busy("core.StopGoPolicy.scales_from_hottest", _STEP + _COLD)
    + _calls_busy("core.DVFSActuator.request", _STEP + _COLD)
    + _calls_busy("core.MigrationPolicy.decide", _STEP + _COLD)
    # control.pi
    + _calls_busy("control.PIBank.step_prefix", _POINTS)
    + _calls_busy("control.design_pi", _POINTS)
    # faults.injector
    + _calls_busy("faults.FleetFaultInjector.apply_sensor_faults", _POINTS)
    # sim.metrics
    + _calls_busy("sim.MetricsAccumulator.record_step", _STEP)
    # sim.engine
    + _calls_busy("engine.ThermalTimingSimulator.init", _STEP + _COLD + _POINTS)
    + _calls_busy("engine.ThermalTimingSimulator.run", _STEP + _COLD
                  + (("throughput", _SERVE),), extra=(_SELF_S,))
    + _layer(["engine.steps", "engine.runs_fused"], "count", "higher",
             _STEP + _COLD)
    + _layer(["engine.runs_stepwise"], "count", "lower", _STEP + _COLD)
    + _layer(["engine.us_per_step"], "us", "lower", _STEP + _COLD)
    # sim.fleet
    + _calls_busy("fleet.FleetEngine.init", _POINTS)
    + _calls_busy("fleet.FleetEngine.run", _POINTS,
                  extra=(_SELF_S,))
    + _layer(["fleet.members", "fleet.members_fused"], "count", "higher",
             _POINTS)
    + _layer(["fleet.us_per_member_step"], "us", "lower", _POINTS)
    # sim.runner
    + _calls_busy("runner.run_points", _WARM + _COLD + _SERVED,
                  extra=(_SELF_S,))
    + _calls_busy("runner.config_hash", _WARM + _SERVED)
    + _layer(["runner.code_version.busy_s"], "s", "lower", _COLD)
    + _calls_busy("runner.ResultCache.get", _WARM + _SERVED,
                  extra=(("hits", "count", "higher"),))
    + _calls_busy("runner.ResultCache.put", _COLD + _SERVED,
                  extra=(("bytes", "B", "lower"),))
    + _layer(["runner.cache_hit_ratio"], "ratio", "higher", _WARM + _SERVED)
    + _layer(["runner.map_cached.busy_s"], "s", "lower", _WARM + _COLD)
    + _layer(["runner.points_cached", "runner.points_fleet"], "count",
             "higher", _WARM + _POINTS)
    + _layer(["runner.points_pool"], "count", "lower", _COLD + _SERVED)
    # experiments: one span per artifact computation, one for rendering.
    + _layer(
        [
            f"experiments.{a}.compute_s"
            for a in ("table1", "table5", "table6", "table7", "table8",
                      "figure3", "figure5", "figure7")
        ]
        + ["experiments.render_s"],
        "s", "lower", _COLD + _WARM,
    )
    # serve: handler stages by wrapper, queue/execute/ttfb from /metrics.
    + _calls_busy("serve.JobRequest.parse", _SERVED)
    + _calls_busy("serve.ServeExecutor.execute", _SERVED)
    + _calls_busy("serve.job_payload", _SERVED)
    + _layer(
        [
            "serve.queue_wait.p50_ms", "serve.queue_wait.mean_ms",
            "serve.execute.p50_ms", "serve.execute.mean_ms",
            "serve.ttfb.p50_ms", "serve.ttfb.p99_ms",
            "serve.http_overhead_p50_ms", "serve.client.p99_ms",
        ],
        "ms", "lower", _SERVED,
    )
    + _layer(["serve.jobs_failed", "serve.job_retries"], "count", "lower",
             _SERVED)
    # The cost of tracing itself, on every workload.
    + _layer(["bench.trace_overhead_frac"], "ratio", "lower",
             tuple(("throughput", w) for w in _ALL))
)


def benchmark_json() -> Dict:
    """The content ``BENCHMARK.json`` must have."""
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench", "tests/bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }


def bound_of(metric: str):
    """The regression bound of an end-to-end metric (None per-layer)."""
    for m in END_TO_END:
        if m.name == metric:
            return m.bound
    return None


def better_of(metric: str) -> str:
    """``"lower"`` or ``"higher"``: which direction improves ``metric``."""
    for m in END_TO_END + PER_LAYER:
        if m.name == metric:
            return m.better
    raise KeyError(metric)
