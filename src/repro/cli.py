"""Command-line interface.

Exposes the library's main entry points without writing Python::

    python -m repro list                      # workloads, policies, benchmarks
    python -m repro run -w workload7 -p distributed-dvfs-sensor -d 0.1
    python -m repro run --scenario mesh16 -p distributed-dvfs-none -d 0.05
    python -m repro run -p dvfs-dist-none --events-out events.jsonl --profile
    python -m repro run -p global-dvfs-none --fault-spec faults.json
    python -m repro run -p dvfs-dist-none --sample-period 1e-3 --telemetry-out out/run
    python -m repro report out/run [--html dash.html]
    python -m repro report --diff out/runA out/runB
    python -m repro compare -w workload7 -d 0.1 [-o results.json]
    python -m repro --jobs 4 experiment table5 [-d 0.2]
    python -m repro --jobs 4 robustness -d 0.1 [--guards] [-o table.txt]
    python -m repro profile -w workload7 -d 0.05
    python -m repro trace gzip -o gzip.npz [-d 0.25]
    python -m repro trace spans.json [--chrome-out chrome.json]
    python -m repro cache [--clear]
    python -m repro bench [--short] [--check BENCH_engine.json]
    python -m repro serve [--port 8023] [--serve-workers 4]
    python -m repro serve-bench [--check BENCH_serve.json]

``run`` simulates one (workload, policy) pair, optionally under a JSON
fault specification (see ``docs/MODELING.md`` section 8) and optionally
on a named chip scenario (``--scenario cmp4|mesh16|mesh64|biglittle4+4``,
see ``docs/SCENARIOS.md``; the workload mix tiles across the scenario's
cores); ``compare``
runs all 12 taxonomy cells on one workload and prints the comparison;
``experiment`` regenerates one of the paper's tables/figures;
``robustness`` sweeps injected-fault severities across the policy
taxonomy and prints the degradation table; ``profile`` times the
engine's step sections per policy; ``trace`` generates and saves a
benchmark power trace — or, given a span JSON file saved from the serve
``/jobs/<id>/trace`` endpoint, renders the distributed trace as an
ASCII waterfall (``--chrome-out`` additionally exports it for
Perfetto); ``cache`` inspects or clears the on-disk result
cache; ``bench`` measures engine throughput (steps/second per policy)
and writes — or regression-checks against — the tracked
``BENCH_engine.json`` baseline (see ``docs/PERFORMANCE.md``);
``serve`` runs the async thermal-simulation-as-a-service HTTP server
(job queue + worker pool over the same runner/cache substrate) and
``serve-bench`` load-tests one server process and writes — or
regression-checks against — the tracked ``BENCH_serve.json`` latency
artifact (see ``docs/SERVING.md``).

Observability: ``run --events-out FILE`` exports the run's typed event
log (DVFS transitions, stop-go trips, migrations, OS ticks, PROCHOT
trips, emergencies) as JSONL and prints the per-type counts;
``run --profile`` prints the engine section-timing table (add
``--trace-out FILE`` for a Perfetto-loadable Chrome trace);
``run --sample-period S`` attaches the fusion-aware telemetry sampler
and ``--telemetry-out PREFIX`` writes the run's observability bundle
(result + time series + Prometheus snapshot + events); ``report``
renders a bundle as an ASCII or ``--html`` dashboard and ``report
--diff A B`` compares two bundles metric-by-metric; ``compare
--trace-out FILE`` traces the batch and exports its point spans (one
lane per worker process) as a Chrome trace; the global ``--log-level
debug|info|warning|error`` flag turns on structured logging on stderr.
See ``docs/OBSERVABILITY.md``.

The global ``--jobs N`` flag fans independent simulations out over N
worker processes (``--jobs 0`` = all cores), and results are cached
on disk (``$REPRO_CACHE_DIR`` or ``~/.cache/repro-dtm``) keyed by
configuration + policy + workload + code version, so re-running a
command only simulates changed points. ``--no-cache`` disables the disk
cache for one invocation. Parallel runs produce bit-identical output to
serial ones. The default ``--backend auto`` plans each batch: points
that share a lockstep group (same chip, throttle family, scope and
migration) step three or more at a time in one vectorised engine, the
rest on the scalar engine — same results bit-for-bit, typically several
times faster for policy/threshold sweeps and fault/noise campaigns (the
engine replays each member's private RNG streams in step order).
``--backend pool`` runs every point on the scalar engine and
``--backend fleet`` batches every compatible point; ``--fleet-chunk N``
streams oversized campaigns through the engine N points at a time.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from typing import List, Optional

from repro.core.taxonomy import ALL_POLICY_SPECS, spec_by_key
from repro.experiments.common import get_default_runner, set_default_runner
from repro.experiments.robustness import SEVERITIES as ROBUSTNESS_SEVERITIES
from repro.faults import load_fault_spec_file
from repro.obs import (
    LOG_LEVELS,
    RunEventLog,
    StepProfiler,
    configure_logging,
    get_logger,
)
from repro.sim.bench import add_bench_arguments, run_from_args as run_bench
from repro.sim.engine import SimulationConfig, run_workload
from repro.sim.report import comparison_report, save_results
from repro.sim.runner import BACKENDS, ParallelRunner, ResultCache
from repro.scenarios import SCENARIOS, get_scenario, scenario_names
from repro.sim.workloads import ALL_WORKLOADS, get_workload, tile_workload
from repro.uarch.benchmarks import ALL_BENCHMARKS
from repro.uarch.tracegen import generate_trace
from repro.uarch.trace_io import save_trace

logger = get_logger(__name__)

#: Experiment modules addressable from the CLI.
EXPERIMENTS = (
    "table1", "table5", "table6", "table7", "table8",
    "figure3", "figure5", "figure7", "ablations", "extensions",
    "robustness", "manycore",
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Techniques for Multicore Thermal Management' "
            "(Donald & Martonosi, ISCA 2006)"
        ),
    )
    parser.add_argument(
        "-j", "--jobs", type=int, default=1,
        help="worker processes for independent simulations (0 = all cores)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the on-disk result cache for this invocation",
    )
    parser.add_argument(
        "--backend", choices=BACKENDS, default="auto",
        help="execution backend for independent simulations: 'auto' "
             "(default) plans each batch, stepping points that share a "
             "lockstep group three or more at a time in the vectorised "
             "fleet engine and the rest on the scalar engine; 'pool' "
             "runs every point on the scalar engine; 'fleet' steps all "
             "compatible points of a batch together in one vectorised "
             "engine (bit-identical results on every backend; "
             "incompatible points fall back to the scalar engine)",
    )
    parser.add_argument(
        "--fleet-chunk", type=int, default=None, metavar="N",
        help="with --backend auto or fleet, stream points through the "
             "batched engine in chunks of at most N (default: no cap); "
             "bounds campaign memory without changing results",
    )
    parser.add_argument(
        "--log-level", choices=LOG_LEVELS, default="warning",
        help="structured-logging verbosity on stderr (default: warning)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list workloads, policies and benchmarks")

    run = sub.add_parser("run", help="simulate one workload under one policy")
    run.add_argument("-w", "--workload", default="workload7")
    run.add_argument(
        "-p", "--policy", default="distributed-dvfs-sensor",
        help="policy key (see 'repro list'), or 'none' for unthrottled",
    )
    run.add_argument("-d", "--duration", type=float, default=0.1,
                     help="silicon seconds to simulate")
    run.add_argument("--seed", type=int, default=None)
    run.add_argument(
        "--scenario", default=None, choices=scenario_names(),
        help="simulate a named chip scenario (docs/SCENARIOS.md) instead "
             "of the paper's 4-core CMP; the workload mix is tiled "
             "across the scenario's cores",
    )
    run.add_argument(
        "--events-out", default=None, metavar="FILE",
        help="capture the run's typed event log and write it as JSONL",
    )
    run.add_argument(
        "--profile", action="store_true",
        help="time the engine's step sections and print the table",
    )
    run.add_argument(
        "--sample-period", type=float, default=None, metavar="SECONDS",
        help="attach the telemetry sampler at this silicon-time period "
             "(fusion-aware: sampled runs keep the fused fast path)",
    )
    run.add_argument(
        "--telemetry-out", default=None, metavar="PREFIX",
        help="write the run's observability bundle (result + telemetry "
             "series + Prometheus snapshot [+ events]) under PREFIX; "
             "implies --sample-period 1e-3 unless given",
    )
    run.add_argument(
        "--trace-out", default=None, metavar="FILE",
        help="write the run and its profiled engine sections as Chrome "
             "trace-event JSON (requires --profile)",
    )
    run.add_argument(
        "--fault-spec", default=None, metavar="FILE",
        help="inject faults from a JSON fault specification "
             "(docs/MODELING.md section 8); prints the fault/guard "
             "accounting after the run",
    )

    profile = sub.add_parser(
        "profile", help="time the engine's step sections per policy"
    )
    profile.add_argument("-w", "--workload", default="workload7")
    profile.add_argument("-d", "--duration", type=float, default=0.05)
    profile.add_argument(
        "-p", "--policies", nargs="*", default=None, metavar="KEY",
        help="policy keys to profile ('none' = unthrottled; default: a "
             "representative policy from each taxonomy class)",
    )

    report = sub.add_parser(
        "report",
        help="render a run-observability bundle as a dashboard, or diff "
             "two bundles",
    )
    report.add_argument(
        "prefix", nargs="?", default=None,
        help="bundle prefix written by 'run --telemetry-out PREFIX'",
    )
    report.add_argument(
        "--html", default=None, metavar="FILE",
        help="write a self-contained HTML dashboard instead of ASCII",
    )
    report.add_argument(
        "--diff", nargs=2, default=None, metavar=("A", "B"),
        help="compare two bundle prefixes metric-by-metric",
    )
    report.add_argument(
        "--tolerance", type=float, default=1e-9,
        help="relative tolerance before a --diff metric is flagged "
             "(default: 1e-9)",
    )
    report.add_argument(
        "--width", type=int, default=60,
        help="sparkline width of the ASCII dashboard (default: 60)",
    )

    compare = sub.add_parser(
        "compare", help="run all 12 policies on one workload"
    )
    compare.add_argument("-w", "--workload", default="workload7")
    compare.add_argument("-d", "--duration", type=float, default=0.1)
    compare.add_argument("-o", "--output", default=None,
                         help="save per-run results as JSON")
    compare.add_argument(
        "--trace-out", default=None, metavar="FILE",
        help="trace the batch and export its point, fleet-group and "
             "engine-section spans as Chrome trace-event JSON",
    )

    experiment = sub.add_parser(
        "experiment", help="regenerate one of the paper's tables/figures"
    )
    experiment.add_argument("name", choices=EXPERIMENTS)
    experiment.add_argument("-d", "--duration", type=float, default=None,
                            help="override the simulation horizon")

    robustness = sub.add_parser(
        "robustness",
        help="sweep injected-fault severities across the policy taxonomy",
    )
    robustness.add_argument("-w", "--workload", default="workload7")
    robustness.add_argument("-d", "--duration", type=float, default=0.1)
    robustness.add_argument(
        "-p", "--policies", nargs="*", default=None, metavar="KEY",
        help="policy keys to sweep (default: all 12 taxonomy cells)",
    )
    robustness.add_argument(
        "--severities", nargs="+", default=None, metavar="LEVEL",
        choices=ROBUSTNESS_SEVERITIES,
        help=f"severity levels to run (default: {' '.join(ROBUSTNESS_SEVERITIES)})",
    )
    robustness.add_argument(
        "--guards", action="store_true",
        help="also run every faulted point with the sensor-sanity guard "
             "layer enabled and print the guarded table",
    )
    robustness.add_argument(
        "-o", "--output", default=None, metavar="FILE",
        help="also write the rendered degradation table to FILE",
    )

    trace = sub.add_parser(
        "trace",
        help="generate and save a power trace, or render a distributed "
             "trace (a span file from /jobs/<id>/trace) as a waterfall",
    )
    trace.add_argument(
        "benchmark", metavar="BENCHMARK|SPANS",
        help="a benchmark name (generates a power trace; requires -o) "
             "or the path of a span JSON file fetched from the serve "
             "endpoint /jobs/<id>/trace",
    )
    trace.add_argument(
        "-o", "--output", default=None,
        help="output .npz path (power-trace mode only)",
    )
    trace.add_argument("-d", "--duration", type=float, default=0.25)
    trace.add_argument(
        "--chrome-out", default=None, metavar="FILE",
        help="also export the rendered spans as Chrome trace-event JSON",
    )
    trace.add_argument(
        "--width", type=int, default=48, metavar="COLS",
        help="waterfall bar width in columns (default: 48)",
    )

    cache = sub.add_parser("cache", help="inspect or clear the result cache")
    cache.add_argument("--clear", action="store_true",
                       help="delete every cached result")

    bench = sub.add_parser(
        "bench",
        help="measure engine throughput (steps/s per policy) and write "
             "or check BENCH_engine.json",
    )
    add_bench_arguments(bench)

    serve = sub.add_parser(
        "serve",
        help="run the async HTTP job server (thermal simulation as a "
             "service; see docs/SERVING.md)",
    )
    from repro.serve.server import add_serve_arguments

    add_serve_arguments(serve)

    serve_bench = sub.add_parser(
        "serve-bench",
        help="load-test a serve process (cold vs warm cache) and write "
             "or check BENCH_serve.json",
    )
    from repro.serve.bench import add_serve_bench_arguments

    add_serve_bench_arguments(serve_bench)

    return parser


def _cmd_list() -> int:
    print("Workloads (paper Table 4):")
    for w in ALL_WORKLOADS:
        print(f"  {w.name:12s} {w.label}")
    print("\nPolicies (paper Table 2) — use the key with 'repro run -p':")
    for spec in ALL_POLICY_SPECS:
        marker = "  <- baseline" if spec.is_baseline else ""
        print(f"  {spec.key:35s} {spec.name}{marker}")
    print("\nBenchmarks (synthetic SPEC CPU2000 profiles):")
    print("  " + ", ".join(sorted(ALL_BENCHMARKS)))
    print("\nScenarios (docs/SCENARIOS.md) — use with 'repro run --scenario':")
    for s in SCENARIOS.values():
        classes = "+".join(
            sorted({c.name for c in s.core_classes})
        )
        print(
            f"  {s.name:14s} {s.rows}x{s.cols} {s.topology:4s} "
            f"{classes:12s} {s.tech.name}"
        )
    return 0


def _config(duration: float, seed: Optional[int] = None) -> SimulationConfig:
    kwargs = {"duration_s": duration}
    if seed is not None:
        kwargs["seed"] = seed
    return SimulationConfig(**kwargs)


def _cmd_run(args) -> int:
    from dataclasses import replace

    from repro.obs import TelemetrySampler
    from repro.obs.tracing import (
        KIND_POINT,
        NULL_TRACER,
        SpanRecorder,
        section_spans,
    )

    if args.trace_out and not args.profile:
        print("error: --trace-out requires --profile", file=sys.stderr)
        return 2
    workload = get_workload(args.workload)
    spec = None if args.policy == "none" else spec_by_key(args.policy)
    config = _config(args.duration, args.seed)
    if args.scenario:
        scenario = get_scenario(args.scenario)
        config = replace(
            config,
            machine=scenario.machine_config(),
            scenario=scenario,
        )
        workload = tile_workload(workload, scenario.n_cores)
    if args.fault_spec:
        plan, guard = load_fault_spec_file(args.fault_spec)
        config = replace(config, fault_plan=plan, guard=guard)
    event_log = RunEventLog() if args.events_out else None
    profiler = StepProfiler() if args.profile else None
    sample_period = args.sample_period
    if sample_period is None and args.telemetry_out:
        sample_period = 1e-3
    sampler = (
        TelemetrySampler(sample_period) if sample_period is not None else None
    )
    tracer = SpanRecorder() if args.trace_out else NULL_TRACER
    if event_log is not None or profiler is not None or sampler is not None:
        # Observability capture needs the simulation to actually run, so
        # instrumented runs execute inline instead of consulting the
        # result cache (results are identical either way).
        with tracer.span(
            f"{args.policy} on {args.workload}", KIND_POINT, mode="inline"
        ) as run_span:
            started = time.time()
            result = run_workload(
                workload, spec, config,
                event_log=event_log, profiler=profiler, telemetry=sampler,
            )
        if args.trace_out:
            tracer.extend(
                section_spans(run_span.context, started, profiler.totals())
            )
    else:
        result = get_default_runner().run_workload(workload, spec, config)
    print(result.summary())
    print(
        f"  instructions={result.instructions:.3e}  "
        f"emergencies={result.emergency_s * 1000:.2f} ms  "
        f"transitions={result.dvfs_transitions}  trips={result.stopgo_trips}"
    )
    if result.faults is not None:
        f = result.faults
        print(
            f"  faults: sensor-samples={f.sensor_faulted_samples}  "
            f"dvfs-rejected={f.dvfs_rejected}  dvfs-delayed={f.dvfs_delayed}  "
            f"migrations-dropped={f.migrations_dropped}"
        )
        print(
            f"  guards: trips={f.guard_trips}  "
            f"fallback={f.guard_fallback_s * 1000:.2f} ms"
        )
    if sampler is not None:
        summary = sampler.summary()
        print(
            f"  telemetry: {summary.samples} samples @ "
            f"{summary.sample_period_s:g} s, "
            f"{summary.instruments} instruments"
        )
    if event_log is not None:
        path = event_log.write_jsonl(args.events_out)
        counts = event_log.counts()
        print(f"\nevents: {len(event_log)} captured -> {path}")
        for name in sorted(counts):
            print(f"  {name:20s} {counts[name]}")
    if profiler is not None:
        from repro.obs import render_engine_sections

        print()
        print(render_engine_sections(profiler.totals(),
                                     title="engine sections:"))
    if args.trace_out:
        from repro.obs import span_trace_events, write_chrome_trace

        write_chrome_trace(span_trace_events(tracer.spans()), args.trace_out)
        print(f"\nengine trace -> {args.trace_out}")
    if args.telemetry_out:
        from repro.obs import write_bundle

        paths = write_bundle(args.telemetry_out, result, sampler, event_log)
        print(f"\ntelemetry bundle ({len(paths)} files):")
        for p in paths:
            print(f"  {p}")
        print(f"render it with: repro report {args.telemetry_out}")
    return 0


#: Default policy set for ``repro profile``: one representative from each
#: taxonomy class (plus the unthrottled reference).
PROFILE_DEFAULT_POLICIES = (
    "none",
    "global-stop-go-none",
    "distributed-dvfs-none",
    "distributed-stop-go-counter",
    "distributed-dvfs-sensor",
)


def _cmd_profile(args) -> int:
    workload = get_workload(args.workload)
    keys = (
        list(args.policies)
        if args.policies
        else list(PROFILE_DEFAULT_POLICIES)
    )
    from repro.obs import render_engine_sections

    config = _config(args.duration)
    print(
        f"engine step sections on {workload.name} "
        f"({args.duration:g} s of silicon time), canonical order:\n"
    )
    for key in keys:
        spec = None if key == "none" else spec_by_key(key)
        profiler = StepProfiler()
        run_workload(workload, spec, config, profiler=profiler)
        print(render_engine_sections(
            profiler.totals(), title=f"{spec.key if spec else 'unthrottled'}:"
        ))
        print()
    return 0


def _cmd_report(args) -> int:
    from repro.obs import (
        diff_metrics,
        load_bundle,
        render_ascii,
        render_diff,
        render_html,
    )

    if args.diff:
        a, b = (load_bundle(p) for p in args.diff)
        deltas = diff_metrics(a.result, b.result, rel_tol=args.tolerance)
        print(render_diff(deltas, a.label, b.label), end="")
        return 0
    if not args.prefix:
        print(
            "error: report needs a bundle prefix (or --diff A B)",
            file=sys.stderr,
        )
        return 2
    bundle = load_bundle(args.prefix)
    if args.html:
        with open(args.html, "w", encoding="utf-8") as fh:
            fh.write(render_html(bundle))
        print(f"dashboard -> {args.html}")
        return 0
    print(render_ascii(bundle, width=args.width), end="")
    return 0


def _cmd_compare(args) -> int:
    from repro.obs.tracing import SpanRecorder
    from repro.sim.runner import RunPoint

    workload = get_workload(args.workload)
    config = _config(args.duration)
    tracer = SpanRecorder() if args.trace_out else None
    results = get_default_runner().run_points(
        [RunPoint(workload, spec, config) for spec in ALL_POLICY_SPECS],
        tracer=tracer,
    )
    for result in results:
        print(result.summary())
    print()
    print(
        comparison_report(
            results, title=f"All 12 policies on {workload.label}"
        )
    )
    if args.output:
        path = save_results(results, args.output)
        print(f"\nresults saved to {path}")
    if args.trace_out:
        from repro.obs import span_trace_events, write_chrome_trace

        events = span_trace_events(tracer.spans())
        write_chrome_trace(events, args.trace_out)
        print(
            f"runner trace ({len(events)} events) -> {args.trace_out}"
        )
    return 0


def _cmd_experiment(args) -> int:
    import importlib

    from repro.experiments.common import default_config

    module = importlib.import_module(f"repro.experiments.{args.name}")
    if args.duration is None or args.name == "table1":
        # Table 1 runs its own 900 s mobile protocol at any -d.
        data = module.compute()
    else:
        data = module.compute(default_config(duration_s=args.duration))
    print(module.render(data))
    return 0


def _cmd_robustness(args) -> int:
    from repro.experiments import robustness
    from repro.experiments.common import default_config

    workload = get_workload(args.workload)
    specs = (
        [spec_by_key(k) for k in args.policies]
        if args.policies
        else None
    )
    severities = (
        tuple(args.severities) if args.severities else robustness.SEVERITIES
    )
    report = robustness.compute(
        config=default_config(duration_s=args.duration),
        specs=specs,
        severities=severities,
        workload=workload,
        include_guards=args.guards,
    )
    text = robustness.render(report)
    print(text)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
        print(f"\ndegradation table saved to {args.output}")
    return 0


def _cmd_trace(args) -> int:
    # Both rejection paths raise SystemExit(2), matching what argparse
    # itself did before this subcommand became dual-mode (`choices=` on
    # the positional, `required=True` on -o).
    if args.benchmark in ALL_BENCHMARKS:
        if not args.output:
            print(
                "error: -o/--output is required when generating a power "
                "trace",
                file=sys.stderr,
            )
            raise SystemExit(2)
        trace = generate_trace(args.benchmark, duration_s=args.duration)
        path = save_trace(trace, args.output)
        print(
            f"{args.benchmark}: {trace.n_samples} samples, "
            f"{trace.duration_s * 1000:.1f} ms, mean core power "
            f"{trace.mean_core_power_w:.1f} W -> {path}"
        )
        return 0
    import os.path

    if os.path.exists(args.benchmark):
        return _render_span_file(args)
    print(
        f"error: {args.benchmark!r} is neither a benchmark "
        f"({', '.join(sorted(ALL_BENCHMARKS))}) nor a span file",
        file=sys.stderr,
    )
    raise SystemExit(2)


def _render_span_file(args) -> int:
    """Render a ``/jobs/<id>/trace`` span document as an ASCII waterfall."""
    import json

    from repro.obs.tracing import (
        render_waterfall,
        spans_from_payload,
        validate_trace,
    )

    with open(args.benchmark, encoding="utf-8") as fh:
        payload = json.load(fh)
    try:
        spans = spans_from_payload(payload)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(render_waterfall(spans, width=args.width), end="")
    problems = validate_trace(spans)
    for problem in problems:
        print(f"warning: {problem}", file=sys.stderr)
    if args.chrome_out:
        from repro.obs import span_trace_events, write_chrome_trace

        write_chrome_trace(span_trace_events(spans), args.chrome_out)
        print(f"chrome trace -> {args.chrome_out}")
    return 0


def _cmd_cache(args) -> int:
    cache = ResultCache()
    print(f"cache directory: {cache.root}")
    if args.clear:
        print(f"cleared {cache.clear()} cached results")
    else:
        print(f"cached results: {len(cache)}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.jobs < 0:
        parser.error(f"--jobs must be >= 0 (0 = all cores), got {args.jobs}")
    if args.fleet_chunk is not None and args.fleet_chunk < 1:
        parser.error(f"--fleet-chunk must be >= 1, got {args.fleet_chunk}")
    period = getattr(args, "sample_period", None)
    if period is not None and not (math.isfinite(period) and period > 0):
        parser.error(
            f"--sample-period must be finite and positive, got {period}"
        )
    configure_logging(args.log_level)
    logger.debug("command=%s argv=%s", args.command, argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "cache":
        return _cmd_cache(args)
    if args.command == "profile":
        return _cmd_profile(args)
    if args.command == "report":
        # Pure file rendering: no simulations, no runner, no cache.
        return _cmd_report(args)
    if args.command == "bench":
        # Timed inline runs: never touches the result cache or the
        # parallel runner (timings must come from this process).
        return run_bench(args)
    if args.command == "serve":
        # The server owns its runners and (sharded) cache; it must not
        # inherit this process's default runner.
        from repro.serve.server import run_server, serve_config_from_args

        return run_server(serve_config_from_args(args))
    if args.command == "serve-bench":
        from repro.serve.bench import run_from_args as run_serve_bench

        return run_serve_bench(args)

    runner = ParallelRunner(
        jobs=args.jobs,
        cache=None if args.no_cache else ResultCache(),
        backend=args.backend,
        fleet_chunk=args.fleet_chunk,
    )
    previous = set_default_runner(runner)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "compare":
            return _cmd_compare(args)
        if args.command == "experiment":
            return _cmd_experiment(args)
        if args.command == "robustness":
            return _cmd_robustness(args)
        if args.command == "trace":
            return _cmd_trace(args)
        raise AssertionError(f"unhandled command {args.command}")  # pragma: no cover
    finally:
        set_default_runner(previous)
        stats = runner.stats
        if stats.points:
            print(
                f"[runner] {stats.summary()} "
                f"(jobs={runner.jobs}, cache="
                f"{'off' if runner.cache is None else runner.cache.root})",
                file=sys.stderr,
            )


if __name__ == "__main__":
    sys.exit(main())
