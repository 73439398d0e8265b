"""Load generator and latency benchmark for the serve subsystem.

Fires hundreds-to-thousands of concurrent ``POST /run`` requests at one
server process — by default an in-thread server started just for the
measurement, or an already-running one via ``--url`` — in two phases:

* **cold**: every request is a *unique* sweep point (distinct
  ``threshold_c``), so each one simulates and populates the shared
  result cache;
* **warm**: many more requests drawn round-robin from the same point
  set, so every one is served from the cache. Warm latency is the
  service overhead proper — HTTP parse, queueing, cache lookup,
  serialisation — which is what the regression gate bounds.
* **warm-traced** (honesty contrast, reported but never gated): a third
  pass over the same cache-hot points with client tracing on — every
  request carries a ``traceparent`` header, so the server records the
  full span set per job. The artifact's ``warm_traced`` stats and
  ``tracing_overhead_p50_ms`` delta track what tracing costs without
  tightening the warm-p50 gate.

The artifact (``BENCH_serve.json``, schema :data:`SCHEMA`) records
per-phase latency percentiles and throughput; ``repro serve-bench
--check BENCH_serve.json`` re-measures and fails on regression, and
always enforces the absolute bar ``warm p50 <``
:data:`WARM_P50_LIMIT_MS` milliseconds (on the *untraced* warm phase
only).
"""

from __future__ import annotations

import concurrent.futures
import json
import platform
import sys
import time
from typing import Dict, List, Optional, Sequence

from repro.obs.exporters import parse_prometheus_text

#: Current ``BENCH_serve.json`` schema identifier.
SCHEMA = "repro-bench-serve/1"

#: Absolute acceptance bar: warm-cache p50 must stay under this (ms).
WARM_P50_LIMIT_MS = 20.0

#: Regression gate: warm p50 may grow at most this factor over the
#: committed baseline before ``--check`` fails. Latency on shared CI
#: runners is far noisier than throughput, hence the generous factor.
DEFAULT_LATENCY_FACTOR = 3.0

#: Default number of unique sweep points (= cold-phase requests).
DEFAULT_UNIQUE = 48

#: Default warm-phase request count.
DEFAULT_WARM_REQUESTS = 1024

#: Default concurrent client threads (each with its own connection).
#: Eight keeps the single event loop queue-light, so warm p50 measures
#: service overhead rather than client-side queueing.
DEFAULT_CONCURRENCY = 8

#: Silicon time per simulated point: 72 engine steps, the short
#: screening-run shape characterization sweeps are made of.
DEFAULT_DURATION_S = 0.002


def request_body(index: int, duration_s: float = DEFAULT_DURATION_S) -> Dict:
    """The ``index``-th unique load-generator request.

    Distinct ``threshold_c`` per index makes every request a distinct
    cache key while keeping the simulation cost identical.
    """
    return {
        "workload": "workload7",
        "config": {
            "duration_s": duration_s,
            "threshold_c": 80.0 + 0.125 * (index % 160),
            "warm_start_fraction": 0.5,
        },
    }


def percentile(sorted_values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending-sorted sequence."""
    if not sorted_values:
        raise ValueError("percentile of an empty sequence")
    rank = min(
        len(sorted_values) - 1,
        max(0, int(round(fraction * (len(sorted_values) - 1)))),
    )
    return sorted_values[rank]


def _phase_stats(latencies_s: List[float], wall_s: float) -> Dict:
    """Summary statistics for one phase's request latencies."""
    ordered = sorted(latencies_s)
    to_ms = 1e3
    return {
        "requests": len(ordered),
        "wall_s": round(wall_s, 4),
        "throughput_rps": round(len(ordered) / wall_s, 1) if wall_s else None,
        "p50_ms": round(percentile(ordered, 0.50) * to_ms, 3),
        "p90_ms": round(percentile(ordered, 0.90) * to_ms, 3),
        "p99_ms": round(percentile(ordered, 0.99) * to_ms, 3),
        "max_ms": round(ordered[-1] * to_ms, 3),
        "mean_ms": round(sum(ordered) / len(ordered) * to_ms, 3),
    }


def _fire(url: str, bodies: Sequence[Dict], concurrency: int,
          timeout_s: float, trace: bool = False) -> List[float]:
    """Send every body as ``POST /run``; returns per-request latencies.

    ``concurrency`` worker threads each hold a private keep-alive
    :class:`~repro.serve.client.ServeClient` — the thread pool *is* the
    simulated caller population. With ``trace=True`` every request
    carries a ``traceparent`` header (one fresh trace per request),
    which is the traced-contrast phase's whole difference.
    """
    from repro.serve.client import ServeClient

    import threading

    local = threading.local()
    attr = "client_traced" if trace else "client"

    def one(body: Dict) -> float:
        client = getattr(local, attr, None)
        if client is None:
            client = ServeClient(url, timeout_s=timeout_s, trace=trace)
            setattr(local, attr, client)
        start = time.perf_counter()
        payload = client.run(body)
        elapsed = time.perf_counter() - start
        if payload.get("state") != "done":
            raise RuntimeError(f"request failed: {payload}")
        return elapsed

    with concurrent.futures.ThreadPoolExecutor(
        max_workers=concurrency, thread_name_prefix="loadgen"
    ) as pool:
        return list(pool.map(one, bodies))


def run_load(
    url: Optional[str] = None,
    unique: int = DEFAULT_UNIQUE,
    warm_requests: int = DEFAULT_WARM_REQUESTS,
    concurrency: int = DEFAULT_CONCURRENCY,
    duration_s: float = DEFAULT_DURATION_S,
    serve_workers: int = 4,
    request_timeout_s: float = 300.0,
    traced_requests: Optional[int] = None,
) -> Dict:
    """Run the cold/warm load campaign; returns the artifact payload.

    With ``url`` ``None`` a private server (ephemeral port, fresh
    in-memory registry, the ambient cache directory) is started on a
    background thread and drained afterwards — the whole campaign then
    measures exactly one server process end to end.

    ``traced_requests`` sizes the traced-contrast phase (default: a
    quarter of ``warm_requests``, at least 1; ``0`` disables it). It
    runs *after* the metrics scrape, so the artifact's
    ``server_metrics``, ``total_requests`` and every gated statistic
    describe exactly the untraced campaign the baselines were built on.
    """
    if unique < 1 or warm_requests < 1 or concurrency < 1:
        raise ValueError("unique, warm_requests and concurrency must be >= 1")
    if traced_requests is None:
        traced_requests = max(1, warm_requests // 4)
    if traced_requests < 0:
        raise ValueError(f"traced_requests must be >= 0: {traced_requests}")
    handle = None
    if url is None:
        from repro.serve.server import ServeConfig, start_in_thread

        handle = start_in_thread(
            ServeConfig(port=0, workers=serve_workers,
                        queue_size=max(256, unique + warm_requests))
        )
        url = handle.url
    try:
        cold_bodies = [request_body(i, duration_s) for i in range(unique)]
        warm_bodies = [
            request_body(i % unique, duration_s)
            for i in range(warm_requests)
        ]

        start = time.perf_counter()
        cold = _fire(url, cold_bodies, concurrency, request_timeout_s)
        cold_wall = time.perf_counter() - start

        start = time.perf_counter()
        warm = _fire(url, warm_bodies, concurrency, request_timeout_s)
        warm_wall = time.perf_counter() - start

        from repro.serve.client import ServeClient

        with ServeClient(url) as client:
            census = client.healthz()
            metrics = parse_prometheus_text(client.metrics_text())

        traced = []
        traced_wall = 0.0
        if traced_requests:
            traced_bodies = [
                request_body(i % unique, duration_s)
                for i in range(traced_requests)
            ]
            start = time.perf_counter()
            traced = _fire(url, traced_bodies, concurrency,
                           request_timeout_s, trace=True)
            traced_wall = time.perf_counter() - start
    finally:
        if handle is not None:
            handle.stop()

    served = {
        series: value
        for series, value in sorted(metrics.items())
        if series.startswith(("serve_", "cache_"))
        and "_bucket" not in series
        and "_seconds" not in series
    }
    payload = {
        "schema": SCHEMA,
        "suite": "serve-load",
        "environment": {
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "load": {
            "unique_points": unique,
            "warm_requests": warm_requests,
            "concurrency": concurrency,
            "duration_s": duration_s,
            "serve_workers": census.get("workers"),
            "traced_requests": traced_requests,
        },
        "total_requests": len(cold) + len(warm),
        "cold": _phase_stats(cold, cold_wall),
        "warm": _phase_stats(warm, warm_wall),
        "server_metrics": served,
    }
    if traced:
        warm_traced = _phase_stats(traced, traced_wall)
        payload["warm_traced"] = warm_traced
        payload["tracing_overhead_p50_ms"] = round(
            warm_traced["p50_ms"] - payload["warm"]["p50_ms"], 3
        )
    return payload


def load_bench_json(path: str) -> Dict:
    """Load and schema-check a ``BENCH_serve.json`` payload."""
    with open(path) as fh:
        payload = json.load(fh)
    if payload.get("schema") != SCHEMA:
        raise ValueError(
            f"{path}: expected schema {SCHEMA!r}, got "
            f"{payload.get('schema')!r}"
        )
    return payload


def write_bench_json(payload: Dict, path: str) -> str:
    """Write an artifact payload as pretty-printed JSON; returns ``path``."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=False)
        fh.write("\n")
    return path


def compare_to_baseline(
    current: Dict,
    baseline: Optional[Dict],
    latency_factor: float = DEFAULT_LATENCY_FACTOR,
) -> List[str]:
    """Gate ``current`` against the absolute bar and a baseline.

    Always enforces ``warm p50 <`` :data:`WARM_P50_LIMIT_MS`; with a
    ``baseline`` additionally fails when warm p50 grew by more than
    ``latency_factor`` over it.

    Returns:
        Human-readable problem messages; empty means the gate passes.
    """
    if latency_factor <= 1.0:
        raise ValueError(f"latency_factor must be > 1: {latency_factor}")
    problems: List[str] = []
    warm_p50 = current["warm"]["p50_ms"]
    if warm_p50 >= WARM_P50_LIMIT_MS:
        problems.append(
            f"warm p50 {warm_p50:.3f} ms breaches the absolute "
            f"{WARM_P50_LIMIT_MS:g} ms bar"
        )
    if baseline is not None:
        base_p50 = baseline["warm"]["p50_ms"]
        ceiling = base_p50 * latency_factor
        if warm_p50 > ceiling:
            problems.append(
                f"warm p50 {warm_p50:.3f} ms is more than "
                f"{latency_factor:g}x the baseline {base_p50:.3f} ms "
                f"(ceiling {ceiling:.3f} ms)"
            )
    return problems


def render(payload: Dict) -> str:
    """Multi-line human summary of a load-campaign artifact."""
    lines = [
        f"serve load: {payload['total_requests']} requests "
        f"({payload['load']['unique_points']} unique points, "
        f"{payload['load']['concurrency']} concurrent clients)"
    ]
    phases = ["cold", "warm"]
    if "warm_traced" in payload:
        phases.append("warm_traced")
    for phase in phases:
        s = payload[phase]
        lines.append(
            f"  {phase:11s} {s['requests']:>5d} req  "
            f"p50 {s['p50_ms']:>9.3f} ms  p90 {s['p90_ms']:>9.3f} ms  "
            f"p99 {s['p99_ms']:>9.3f} ms  "
            f"{s['throughput_rps']:>8.1f} req/s"
        )
    if "tracing_overhead_p50_ms" in payload:
        lines.append(
            f"  tracing overhead (p50, reported only): "
            f"{payload['tracing_overhead_p50_ms']:+.3f} ms"
        )
    return "\n".join(lines)


def add_serve_bench_arguments(parser) -> None:
    """Install the ``serve-bench`` flags on an argparse (sub)parser."""
    parser.add_argument(
        "-o", "--output", default=None, metavar="FILE",
        help="write the JSON artifact (default: BENCH_serve.json unless "
             "--check is given)",
    )
    parser.add_argument(
        "--url", default=None, metavar="URL",
        help="target an already-running server instead of starting one "
             "in-process",
    )
    parser.add_argument(
        "--unique", type=int, default=DEFAULT_UNIQUE, metavar="N",
        help=f"unique sweep points = cold-phase requests "
             f"(default: {DEFAULT_UNIQUE})",
    )
    parser.add_argument(
        "--warm-requests", type=int, default=DEFAULT_WARM_REQUESTS,
        metavar="N",
        help=f"warm-phase (cache-hit) requests "
             f"(default: {DEFAULT_WARM_REQUESTS})",
    )
    parser.add_argument(
        "--concurrency", type=int, default=DEFAULT_CONCURRENCY, metavar="N",
        help=f"concurrent client threads (default: {DEFAULT_CONCURRENCY})",
    )
    parser.add_argument(
        "--duration-s", type=float, default=DEFAULT_DURATION_S,
        metavar="SECONDS",
        help="silicon time per simulated point "
             f"(default: {DEFAULT_DURATION_S:g})",
    )
    parser.add_argument(
        "--serve-workers", type=int, default=4, metavar="N",
        help="worker count of the in-process server (ignored with --url; "
             "default: 4)",
    )
    parser.add_argument(
        "--traced-requests", type=int, default=None, metavar="N",
        help="traced-contrast phase size (reported, never gated; "
             "default: warm-requests // 4, 0 disables)",
    )
    parser.add_argument(
        "--check", default=None, metavar="BASELINE",
        help="gate against a committed BENCH_serve.json (and the "
             f"absolute warm-p50 < {WARM_P50_LIMIT_MS:g} ms bar) instead "
             "of writing a new artifact",
    )
    parser.add_argument(
        "--latency-factor", type=float, default=DEFAULT_LATENCY_FACTOR,
        help="allowed warm-p50 growth factor over the baseline before "
             f"--check fails (default: {DEFAULT_LATENCY_FACTOR})",
    )


def run_from_args(args) -> int:
    """Execute a parsed ``serve-bench`` invocation; returns the exit code."""
    payload = run_load(
        url=args.url,
        unique=args.unique,
        warm_requests=args.warm_requests,
        concurrency=args.concurrency,
        duration_s=args.duration_s,
        serve_workers=args.serve_workers,
        traced_requests=args.traced_requests,
    )
    print(render(payload))

    if args.check:
        baseline = load_bench_json(args.check)
        problems = compare_to_baseline(
            payload, baseline, latency_factor=args.latency_factor
        )
        if problems:
            print(f"\nREGRESSION vs {args.check}:", file=sys.stderr)
            for problem in problems:
                print(f"  {problem}", file=sys.stderr)
            return 1
        print(
            f"\nok: warm p50 {payload['warm']['p50_ms']:.3f} ms within "
            f"{args.latency_factor:g}x of {args.check} and under the "
            f"{WARM_P50_LIMIT_MS:g} ms bar"
        )
        if args.output:
            print(
                f"baseline updated -> "
                f"{write_bench_json(payload, args.output)}"
            )
        return 0

    path = write_bench_json(payload, args.output or "BENCH_serve.json")
    print(f"\nartifact written -> {path}")
    return 0
