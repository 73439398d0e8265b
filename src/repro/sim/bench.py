"""Engine throughput benchmark suite (steps/second per policy).

One canonical case list drives three consumers so they can never drift
apart:

* ``benchmarks/test_engine_speed.py`` — the pytest-benchmark suite;
* ``benchmarks/bench_to_json.py`` / ``repro bench`` — measures the same
  cases with :func:`time.perf_counter` (no pytest dependency) and writes
  the tracked ``BENCH_engine.json`` artifact at the repo root;
* the CI bench job — reruns the *short* cases and fails when any drops
  more than :data:`DEFAULT_TOLERANCE` below the committed baseline
  (``repro bench --short --check BENCH_engine.json``).

Measurement protocol: each case builds a fresh simulator per round
(engine state is single-shot) and times ``sim.run()`` only — simulator
construction (trace synthesis, RC-network assembly, ``expm``) is
one-time setup cost, not hot-loop throughput. ``steps_per_second`` is
computed from the *best* round, which is far more stable under machine
noise than the mean and is therefore what the regression gate compares.
See ``docs/PERFORMANCE.md`` for schema and interpretation.
"""

from __future__ import annotations

import json
import platform
import sys
import time
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.taxonomy import spec_by_key
from repro.faults.models import (
    DriftFault,
    DropoutFault,
    DVFSRejectFault,
    FaultPlan,
    SpikeFault,
)
from repro.sim.engine import SimulationConfig, ThermalTimingSimulator
from repro.sim.fleet import FleetEngine

#: Current ``BENCH_engine.json`` schema identifier.
SCHEMA = "repro-bench-engine/1"

#: Regression gate: fail when a case drops more than this fraction below
#: the committed baseline's steps/second.
DEFAULT_TOLERANCE = 0.30

#: Default timing repetitions (the best round is reported).
DEFAULT_ROUNDS = 3

#: Horizon of the short cases (seconds of silicon time; 720 steps).
SHORT_RUN_S = 0.02

#: Horizon of the full-length Table-1-style case (the paper's default
#: measurement window used by ``experiments/table1.py``).
FULL_RUN_S = 0.5

#: Horizon of the sampled-telemetry cases (3600 steps). Longer than
#: :data:`SHORT_RUN_S` on purpose: the fused path's per-run setup cost
#: amortizes with horizon, so the short window would understate the
#: sampled path's steady-state rate.
TELEMETRY_RUN_S = 0.1

#: Horizon of each point in the backend-contrast sweep cases (72 steps).
#: Deliberately short: a sweep point's cost is dominated by per-point
#: overhead (simulator construction, warm start, pool dispatch), which
#: is precisely what the fleet backend amortizes — the paper-style
#: characterization sweeps this models use many short screening runs,
#: not a few long ones.
SWEEP_RUN_S = 0.002

#: Warm-start power fraction for sweep points. Fixing the fraction makes
#: the warm start threshold-independent, so the fleet's warm cache
#: computes it once per batch (the pool path still pays it per worker).
SWEEP_WARM_FRACTION = 0.5

#: Worker count of the pool-backend comparator cases: a typical
#: ``repro --jobs 4 sweep`` invocation.
SWEEP_POOL_JOBS = 4


@dataclass(frozen=True)
class BenchCase:
    """One benchmarked engine configuration.

    Attributes:
        key: Stable identifier; the case's name in ``BENCH_engine.json``
            and the pytest parametrize id.
        spec_key: Policy key from the taxonomy, or ``None`` for an
            unthrottled run.
        duration_s: Silicon time simulated per round.
        faulted: Whether the run carries the benchmark fault plan
            (exercises the sensor-fault and actuation hot paths, and —
            because a plan blocks fusion — keeps the stepwise loop
            honest on an otherwise-fusible config). On a sweep-backend
            case, every point of the batch carries the plan — the
            Monte-Carlo fault-campaign shape `repro robustness` runs.
        short: Whether the case belongs to the quick suite that CI
            reruns on every push; the full-length case is excluded.
        description: One line for humans, recorded in the artifact.
        sample_period_s: When set, the run carries a
            :class:`~repro.obs.telemetry.TelemetrySampler` at this
            period — the fusion-aware instrumentation path.
        backend: ``None`` (default) for a plain single-engine case.
            ``"fleet"`` / ``"pool"`` turn the case into a *sweep-batch*
            case: one round runs a :data:`SWEEP_THRESHOLDS`-sized batch
            of points end-to-end through a fresh
            :class:`~repro.sim.runner.ParallelRunner` with that backend
            (fleet: ``jobs=1``; pool: ``jobs=SWEEP_POOL_JOBS`` worker
            processes; no cache), timing runner + engine construction +
            stepping. ``steps_per_second`` then counts total engine
            steps across the batch, so fleet/pool ratios equal
            sweep-point throughput ratios.
        scenario: Named preset from :mod:`repro.scenarios` the case runs
            on (``None`` = the paper's 4-core chip). The workload mix is
            tiled across the scenario's cores; sweep-backend scenario
            cases use the shorter :data:`MANYCORE_SWEEP_THRESHOLDS`
            grid to bound many-core runtime.
        engine: ``"scalar"`` (default) runs a single-engine case on a
            :class:`ThermalTimingSimulator`; ``"fleet"`` runs the same
            point as a one-member :class:`~repro.sim.fleet.FleetEngine`
            batch and times ``FleetEngine.run()`` only, as the scalar
            cases time ``run()`` only. The ratio of the two is the
            fleet's fixed per-step overhead at N=1
            (:func:`fleet_n1_ratios`).
    """

    key: str
    spec_key: Optional[str]
    duration_s: float
    faulted: bool
    short: bool
    description: str
    sample_period_s: Optional[float] = None
    backend: Optional[str] = None
    scenario: Optional[str] = None
    engine: str = "scalar"


ENGINE_BENCH_CASES: Tuple[BenchCase, ...] = (
    BenchCase(
        "unthrottled", None, SHORT_RUN_S, False, True,
        "no policy: pure power/thermal stepping (fused whole-run path)",
    ),
    BenchCase(
        "stopgo", "distributed-stop-go-none", SHORT_RUN_S, False, True,
        "per-core stop-go throttling, counter-free",
    ),
    BenchCase(
        "dvfs", "distributed-dvfs-none", SHORT_RUN_S, False, True,
        "per-core PI-controlled DVFS",
    ),
    BenchCase(
        "dvfs+sensor-migration", "distributed-dvfs-sensor", SHORT_RUN_S,
        False, True,
        "per-core DVFS plus sensor-based thread migration",
    ),
    BenchCase(
        "faulted-dvfs", "distributed-dvfs-none", SHORT_RUN_S, True, True,
        "per-core DVFS under an active fault plan (fusion blocked, "
        "sensor-fault + DVFS-reject hot paths exercised)",
    ),
    BenchCase(
        "table1-full", None, FULL_RUN_S, False, False,
        "full-length Table-1-style unthrottled characterization run",
    ),
    # One-member fleet twins of the three cases above: the same point
    # through FleetEngine, whose per-step overhead at N=1 is what
    # routing the scalar engine through the fleet would cost.
    BenchCase(
        "fleet-n1-unthrottled", None, SHORT_RUN_S, False, True,
        "the unthrottled case as a one-member FleetEngine batch",
        engine="fleet",
    ),
    BenchCase(
        "fleet-n1-stopgo", "distributed-stop-go-none", SHORT_RUN_S, False,
        True,
        "the stopgo case as a one-member FleetEngine batch",
        engine="fleet",
    ),
    BenchCase(
        "fleet-n1-dvfs", "distributed-dvfs-none", SHORT_RUN_S, False, True,
        "the dvfs case as a one-member FleetEngine batch",
        engine="fleet",
    ),
    # Sampled-telemetry cases (docs/PERFORMANCE.md §3): the sampler
    # keeps whatever fast path the config allows (the unthrottled one
    # stays fully fused).
    BenchCase(
        "sampled-unthrottled", None, TELEMETRY_RUN_S, False, True,
        "unthrottled with the telemetry sampler at 1 ms: fused chunks "
        "between sample instants",
        sample_period_s=1e-3,
    ),
    BenchCase(
        "sampled-dvfs", "distributed-dvfs-none", TELEMETRY_RUN_S, False, True,
        "per-core DVFS with the telemetry sampler at 1 ms",
        sample_period_s=1e-3,
    ),
    # Backend-contrast sweep pairs: the same fine-grained threshold
    # sweep, end to end, through the batched fleet engine vs the
    # process-pool ParallelRunner path (jobs=SWEEP_POOL_JOBS). The
    # gated >=10x fleet advantage comes from sharing traces, the
    # thermal kernel, the PI design and one warm start across the
    # batch, and stepping all chips in lockstep (one apply_batch call
    # per step) — where the pool pays per-point construction, a per-point
    # warm start, per-worker trace regeneration and pool dispatch.
    BenchCase(
        "fleet-sweep-unthrottled", None, SWEEP_RUN_S, False, True,
        "threshold sweep of unthrottled runs batched through the fleet "
        "engine (shared substrate, vectorised fused stepping)",
        backend="fleet",
    ),
    BenchCase(
        "pool-sweep-unthrottled", None, SWEEP_RUN_S, False, True,
        "the same unthrottled threshold sweep, one engine per point "
        "through the process-pool ParallelRunner",
        backend="pool",
    ),
    BenchCase(
        "fleet-sweep-dvfs", "distributed-dvfs-none", SWEEP_RUN_S, False,
        True,
        "threshold sweep of per-core PI-DVFS runs batched through the "
        "fleet engine (vectorised PI bank + stop-go-free stepwise loop)",
        backend="fleet",
    ),
    BenchCase(
        "pool-sweep-dvfs", "distributed-dvfs-none", SWEEP_RUN_S, False,
        True,
        "the same PI-DVFS threshold sweep, one engine per point through "
        "the process-pool ParallelRunner",
        backend="pool",
    ),
    # Fault-campaign contrast pair: the same sweep with every point
    # carrying the benchmark fault plan — the batched Monte-Carlo
    # robustness-campaign shape. The fleet engine replays each member's
    # private fault/noise RNG streams in step order, so this measures
    # the stochastic stepwise path, not the fused one.
    BenchCase(
        "fleet-faults-dvfs", "distributed-dvfs-none", SWEEP_RUN_S, True,
        True,
        "faulted PI-DVFS threshold sweep batched through the fleet "
        "engine (stream-replay stochastic layer, vectorised "
        "sensor-fault transforms)",
        backend="fleet",
    ),
    BenchCase(
        "pool-faults-dvfs", "distributed-dvfs-none", SWEEP_RUN_S, True,
        True,
        "the same faulted PI-DVFS threshold sweep, one engine per point "
        "through the process-pool ParallelRunner",
        backend="pool",
    ),
    # Many-core scenario cases (docs/SCENARIOS.md): the mesh16 and
    # big.LITTLE chips through both backends, on the shorter manycore
    # threshold grid. Excluded from the --short CI gate (short=False):
    # tracked for trend data via the full `repro bench` suite.
    BenchCase(
        "fleet-mesh16-dvfs", "distributed-dvfs-none", SWEEP_RUN_S, False,
        False,
        "PI-DVFS threshold sweep on the 16-core mesh scenario batched "
        "through the fleet engine (one shared 193-block kernel)",
        backend="fleet", scenario="mesh16",
    ),
    BenchCase(
        "pool-mesh16-dvfs", "distributed-dvfs-none", SWEEP_RUN_S, False,
        False,
        "the same mesh16 PI-DVFS sweep, one engine per point through "
        "the process-pool ParallelRunner",
        backend="pool", scenario="mesh16",
    ),
    BenchCase(
        "fleet-biglittle-dvfs", "distributed-dvfs-none", SWEEP_RUN_S,
        False, False,
        "PI-DVFS threshold sweep on the heterogeneous big.LITTLE chip "
        "batched through the fleet engine (per-class DVFS floors in "
        "the PI bank)",
        backend="fleet", scenario="biglittle4+4",
    ),
)

#: Trip-threshold values (deg C) swept by the backend-contrast cases;
#: every threshold is a distinct simulation point (different setpoints,
#: trip levels and emergency accounting), as in the paper's severity
#: sweeps. 64 points at 0.125 C spacing: batch sizes this large are
#: where the fleet's shared-cost amortization pays off.
SWEEP_THRESHOLDS: Tuple[float, ...] = tuple(
    80.0 + 0.125 * i for i in range(64)
)

#: Shorter grid for many-core scenario sweeps: each point costs ~4-16x
#: a 4-core point (more blocks, more cores), so 16 points keep the
#: cases tractable while still amortizing the fleet's shared setup.
MANYCORE_SWEEP_THRESHOLDS: Tuple[float, ...] = tuple(
    80.0 + 0.5 * i for i in range(16)
)


def _bench_fault_plan(duration_s: float) -> FaultPlan:
    """The fixed fault plan carried by the ``faulted-dvfs`` case.

    Deliberately touches all three faultable hot paths — per-sample
    sensor rewrites (drift + spikes), a windowed dropout, and DVFS
    commit rejection — without changing which code *exists* on the
    path; windows scale with the horizon so the plan is meaningful at
    any ``duration_s``.
    """
    d = float(duration_s)
    return FaultPlan(
        name="bench",
        faults=(
            DriftFault(
                core=0, unit="intreg",
                start_s=0.2 * d, end_s=d, rate_c_per_s=10.0,
            ),
            SpikeFault(start_s=0.0, end_s=d, magnitude_c=8.0, prob=0.01),
            DropoutFault(
                core=1, start_s=0.3 * d, end_s=0.7 * d, mode="last-good",
            ),
            DVFSRejectFault(start_s=0.25 * d, end_s=0.75 * d, prob=0.5),
        ),
    )


def _case_scenario_kwargs(case: BenchCase) -> Dict:
    """Scenario-dependent ``SimulationConfig`` kwargs for ``case``."""
    if case.scenario is None:
        return {}
    from repro.scenarios import get_scenario

    scenario = get_scenario(case.scenario)
    return {"machine": scenario.machine_config(), "scenario": scenario}


def _case_workload(case: BenchCase):
    """The (scenario-tiled) workload ``case`` runs."""
    from repro.sim.workloads import get_workload, tile_workload

    workload = get_workload("workload7")
    if case.scenario is None:
        return workload
    from repro.scenarios import get_scenario

    return tile_workload(workload, get_scenario(case.scenario).n_cores)


def case_thresholds(case: BenchCase) -> Tuple[float, ...]:
    """The threshold grid a sweep-backend case sweeps."""
    if case.scenario is not None:
        return MANYCORE_SWEEP_THRESHOLDS
    return SWEEP_THRESHOLDS


def case_config(case: BenchCase) -> SimulationConfig:
    """The :class:`SimulationConfig` a case runs under."""
    kwargs = {"duration_s": case.duration_s}
    if case.faulted:
        kwargs["fault_plan"] = _bench_fault_plan(case.duration_s)
    kwargs.update(_case_scenario_kwargs(case))
    return SimulationConfig(**kwargs)


def sweep_case_points(case: BenchCase) -> List["RunPoint"]:
    """The point batch a sweep-backend case runs each round."""
    from repro.sim.runner import RunPoint

    if case.backend is None:
        raise ValueError(f"{case.key} is not a sweep-backend case")
    workload = _case_workload(case)
    spec = spec_by_key(case.spec_key) if case.spec_key else None
    kwargs = {}
    if case.faulted:
        kwargs["fault_plan"] = _bench_fault_plan(case.duration_s)
    kwargs.update(_case_scenario_kwargs(case))
    return [
        RunPoint(
            workload,
            spec,
            SimulationConfig(
                duration_s=case.duration_s,
                threshold_c=threshold,
                warm_start_fraction=SWEEP_WARM_FRACTION,
                **kwargs,
            ),
        )
        for threshold in case_thresholds(case)
    ]


def build_simulator(case: BenchCase) -> ThermalTimingSimulator:
    """A fresh simulator for one benchmark round of ``case``."""
    from repro.obs.telemetry import TelemetrySampler

    if case.backend is not None:
        raise ValueError(
            f"{case.key} is a sweep-backend case; it has no single "
            "simulator (see sweep_case_points)"
        )
    if case.engine != "scalar":
        raise ValueError(
            f"{case.key} is a fleet-engine case (see build_fleet_engine)"
        )
    workload = _case_workload(case)
    spec = spec_by_key(case.spec_key) if case.spec_key else None
    telemetry = (
        TelemetrySampler(case.sample_period_s)
        if case.sample_period_s is not None
        else None
    )
    return ThermalTimingSimulator(
        workload.benchmarks, spec, case_config(case), telemetry=telemetry
    )


def build_fleet_engine(case: BenchCase) -> FleetEngine:
    """A fresh one-member fleet for one round of a fleet-engine case."""
    if case.engine != "fleet":
        raise ValueError(f"{case.key} is not a fleet-engine case")
    spec = spec_by_key(case.spec_key) if case.spec_key else None
    return FleetEngine([(_case_workload(case), spec, case_config(case))])


def case_steps(case: BenchCase) -> int:
    """Engine steps one round of ``case`` simulates.

    Sweep-backend cases count the whole point batch, not one run.
    """
    config = case_config(case)
    per_run = max(
        1, int(round(case.duration_s / config.machine.sample_period_s))
    )
    if case.backend is not None:
        return per_run * len(case_thresholds(case))
    return per_run


@dataclass(frozen=True)
class BenchCaseResult:
    """Measured throughput for one case."""

    case: BenchCase
    simulated_steps: int
    round_seconds: Tuple[float, ...]

    @property
    def best_seconds(self) -> float:
        """Fastest round's wall time."""
        return min(self.round_seconds)

    @property
    def steps_per_second(self) -> float:
        """Throughput of the best round — the gated headline number."""
        return self.simulated_steps / self.best_seconds

    @property
    def steps_per_second_mean(self) -> float:
        """Mean-round throughput, recorded for context."""
        mean = sum(self.round_seconds) / len(self.round_seconds)
        return self.simulated_steps / mean


def run_case(
    case: BenchCase,
    rounds: int = DEFAULT_ROUNDS,
    warmup_rounds: int = 1,
) -> BenchCaseResult:
    """Time ``case`` for ``rounds`` measured rounds (plus warmup)."""
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    timings: List[float] = []
    if case.backend is not None:
        # Sweep-batch case: time the whole batch end to end — runner,
        # engine construction and stepping — with a fresh runner per
        # round so nothing (substrates, traces) leaks across rounds.
        # That is the cost a cold `repro sweep` invocation actually
        # pays per backend.
        from repro.sim.runner import ParallelRunner

        points = sweep_case_points(case)
        jobs = SWEEP_POOL_JOBS if case.backend == "pool" else 1
        for i in range(warmup_rounds + rounds):
            runner = ParallelRunner(
                jobs=jobs, cache=None, backend=case.backend
            )
            start = time.perf_counter()
            runner.run_points(points)
            elapsed = time.perf_counter() - start
            if i >= warmup_rounds:
                timings.append(elapsed)
        return BenchCaseResult(case, case_steps(case), tuple(timings))
    build = build_fleet_engine if case.engine == "fleet" else build_simulator
    for i in range(warmup_rounds + rounds):
        sim = build(case)
        start = time.perf_counter()
        sim.run()
        elapsed = time.perf_counter() - start
        if i >= warmup_rounds:
            timings.append(elapsed)
    return BenchCaseResult(case, case_steps(case), tuple(timings))


def run_suite(
    short_only: bool = False,
    rounds: int = DEFAULT_ROUNDS,
    cases: Optional[Sequence[BenchCase]] = None,
) -> Dict:
    """Run the suite and return the ``BENCH_engine.json`` payload.

    Args:
        short_only: Restrict to the quick cases CI reruns.
        rounds: Measured rounds per case (best round is reported).
        cases: Explicit case list; defaults to
            :data:`ENGINE_BENCH_CASES` (filtered by ``short_only``).

    Returns:
        A JSON-serializable dict following :data:`SCHEMA`.
    """
    selected = list(cases if cases is not None else ENGINE_BENCH_CASES)
    if short_only:
        selected = [c for c in selected if c.short]
    payload: Dict = {
        "schema": SCHEMA,
        "suite": "engine",
        "workload": "workload7",
        "rounds": rounds,
        "environment": {
            "python": platform.python_version(),
            "numpy": __import__("numpy").__version__,
            "platform": platform.platform(),
        },
        "cases": {},
    }
    for case in selected:
        result = run_case(case, rounds=rounds)
        payload["cases"][case.key] = {
            "policy": case.spec_key,
            "description": case.description,
            "duration_s": case.duration_s,
            "faulted": case.faulted,
            "short": case.short,
            "sample_period_s": case.sample_period_s,
            "backend": case.backend,
            "scenario": case.scenario,
            "engine": case.engine,
            "sweep_points": (
                len(case_thresholds(case)) if case.backend is not None else None
            ),
            "simulated_steps": result.simulated_steps,
            "steps_per_second": round(result.steps_per_second, 1),
            "steps_per_second_mean": round(result.steps_per_second_mean, 1),
            "best_round_s": round(result.best_seconds, 6),
        }
    ratios = fleet_n1_ratios(payload)
    if ratios:
        payload["fleet_n1_ratio"] = ratios
    return payload


def _scalar_twin(case: BenchCase) -> Optional[BenchCase]:
    """The scalar case a fleet-engine case runs the same point as."""
    for other in ENGINE_BENCH_CASES:
        if other.engine == "scalar" and replace(
            other, key=case.key, description=case.description,
            engine=case.engine,
        ) == case:
            return other
    return None


def fleet_n1_ratios(payload: Dict) -> Dict[str, float]:
    """One-member fleet steps/s over its scalar twin's, per fleet case.

    Keyed by the fleet case; only cases measured together with their
    scalar twin in ``payload`` appear. Above 1 the fleet is faster.
    """
    cases = payload["cases"]
    ratios = {}
    for case in ENGINE_BENCH_CASES:
        twin = _scalar_twin(case) if case.engine == "fleet" else None
        if twin is not None and case.key in cases and twin.key in cases:
            ratios[case.key] = round(
                cases[case.key]["steps_per_second"]
                / cases[twin.key]["steps_per_second"],
                3,
            )
    return ratios


def write_bench_json(payload: Dict, path: str) -> str:
    """Write a suite payload as pretty-printed JSON; returns ``path``."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=False)
        fh.write("\n")
    return path


def load_bench_json(path: str) -> Dict:
    """Load and sanity-check a ``BENCH_engine.json`` payload."""
    with open(path) as fh:
        payload = json.load(fh)
    if payload.get("schema") != SCHEMA:
        raise ValueError(
            f"{path}: expected schema {SCHEMA!r}, got "
            f"{payload.get('schema')!r}"
        )
    return payload


def compare_to_baseline(
    current: Dict,
    baseline: Dict,
    tolerance: float = DEFAULT_TOLERANCE,
) -> List[str]:
    """Regression check of ``current`` against a committed ``baseline``.

    Only cases present in both payloads are compared (so adding a case
    does not invalidate an old baseline, and the short CI suite can be
    checked against the full committed artifact). A case regresses when
    its ``steps_per_second`` falls more than ``tolerance`` below the
    baseline's.

    Returns:
        Human-readable regression messages; empty means the gate passes.
    """
    if not 0 <= tolerance < 1:
        raise ValueError(f"tolerance must be in [0, 1), got {tolerance}")
    problems: List[str] = []
    for key, base in baseline["cases"].items():
        cur = current["cases"].get(key)
        if cur is None:
            continue
        floor = base["steps_per_second"] * (1.0 - tolerance)
        if cur["steps_per_second"] < floor:
            problems.append(
                f"{key}: {cur['steps_per_second']:.0f} steps/s is "
                f"{1 - cur['steps_per_second'] / base['steps_per_second']:.0%} "
                f"below baseline {base['steps_per_second']:.0f} "
                f"(floor {floor:.0f} at tolerance {tolerance:.0%})"
            )
    return problems


def render_suite(payload: Dict) -> str:
    """One-line-per-case text summary of a suite payload."""
    lines = [
        f"engine throughput ({payload['workload']}, best of "
        f"{payload['rounds']} rounds):"
    ]
    for key, entry in payload["cases"].items():
        lines.append(
            f"  {key:24s} {entry['steps_per_second']:>10,.0f} steps/s  "
            f"({entry['simulated_steps']} steps, "
            f"{entry['duration_s']:g} s silicon)"
        )
    for key, ratio in payload.get("fleet_n1_ratio", {}).items():
        lines.append(f"  {key:24s} {ratio:>10.3f} x its scalar twin")
    return "\n".join(lines)


def add_bench_arguments(parser) -> None:
    """Install the ``bench`` flags on an argparse parser (or subparser)."""
    parser.add_argument(
        "-o", "--output", default=None, metavar="FILE",
        help="write the JSON payload (default: BENCH_engine.json unless "
             "--check is given)",
    )
    parser.add_argument(
        "--short", action="store_true",
        help="run only the quick cases (the set CI regression-gates)",
    )
    parser.add_argument(
        "--rounds", type=int, default=DEFAULT_ROUNDS,
        help=f"measured rounds per case (default: {DEFAULT_ROUNDS})",
    )
    parser.add_argument(
        "--cases", nargs="+", default=None, metavar="KEY",
        choices=sorted(c.key for c in ENGINE_BENCH_CASES),
        help="run only the named cases (e.g. the fleet-sweep-*/"
             "pool-sweep-* backend contrast); composes with --check, "
             "which only compares cases present in both payloads",
    )
    parser.add_argument(
        "--check", default=None, metavar="BASELINE",
        help="compare against a committed BENCH_engine.json and exit "
             "non-zero on regression instead of writing a new artifact",
    )
    parser.add_argument(
        "--tolerance", type=float, default=DEFAULT_TOLERANCE,
        help="allowed fractional drop below the baseline before --check "
             f"fails (default: {DEFAULT_TOLERANCE})",
    )


def run_from_args(args) -> int:
    """Execute a parsed ``bench`` invocation; returns the exit code."""
    cases = None
    if getattr(args, "cases", None):
        wanted = set(args.cases)
        cases = [c for c in ENGINE_BENCH_CASES if c.key in wanted]
    payload = run_suite(
        short_only=args.short, rounds=args.rounds, cases=cases
    )
    print(render_suite(payload))

    if args.check:
        baseline = load_bench_json(args.check)
        problems = compare_to_baseline(
            payload, baseline, tolerance=args.tolerance
        )
        if problems:
            print(f"\nREGRESSION vs {args.check}:", file=sys.stderr)
            for problem in problems:
                print(f"  {problem}", file=sys.stderr)
            return 1
        print(
            f"\nok: no case more than {args.tolerance:.0%} below "
            f"{args.check}"
        )
        if args.output:
            print(f"baseline updated -> {write_bench_json(payload, args.output)}")
        return 0

    path = write_bench_json(payload, args.output or "BENCH_engine.json")
    print(f"\nbaseline written -> {path}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Standalone entry point (``benchmarks/bench_to_json.py``)."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro bench",
        description="measure engine throughput and write BENCH_engine.json",
    )
    add_bench_arguments(parser)
    return run_from_args(parser.parse_args(argv))
