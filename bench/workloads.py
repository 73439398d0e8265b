"""The four benchmark workloads, driven through repro's public entry points.

Each workload runs in its own process (``bench/worker.py``), so module
memos — generated traces, RC networks, ``design_pi`` — never carry from
one workload to the next. A workload has four phases:

* ``setup()`` — imports and untimed preparation (``setup_s``);
* the cold operation — first use on a fresh process and an empty result
  cache (``cold_s``);
* timed operations (``warm_ms``, ``throughput``) — until the run's
  seconds are spent, or a fixed count for traced runs, whose counters
  must repeat exactly;
* ``check()`` — outside the timed region: 16 sampled points (all 15 on
  ``long-run``) are recomputed with the scalar reference
  ``SimulationConfig(fuse_steps=False)`` and must match bitwise; with the
  default seed, outputs must also match ``bench/expected/``.

Operations are timed as ``(start, end)`` clock readings; ``bench/run.py``
turns each into reference seconds (``bench/speed.py``) and takes medians.
"""

from __future__ import annotations

import importlib
import random
import statistics
import threading
import time
import traceback
from dataclasses import replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro import (
    ALL_POLICY_SPECS,
    ALL_WORKLOADS,
    ParallelRunner,
    ResultCache,
    RunPoint,
    SimulationConfig,
    config_hash,
    get_workload,
    run_workload,
    spec_by_key,
)
from repro.faults.models import (
    DriftFault,
    DropoutFault,
    DVFSRejectFault,
    FaultPlan,
    SpikeFault,
)
from repro.sim.report import result_to_dict

from bench.common import (
    canonical, dumps, percentile, result_tuple, sha256,
)
from bench.serving import (
    HttpClient,
    bucket_quantile,
    histogram_delta,
    histogram_mean,
    parse_histograms,
    parse_samples,
)
from bench.tracer import NullTracer

#: Reference recomputations per run (outside the timed region).
CHECK_POINTS = 16

#: Throttle families of the sweep and serve points (``None`` = unthrottled).
FAMILIES: Tuple[Optional[str], ...] = (
    None,
    "distributed-dvfs-none",
    "distributed-stop-go-none",
    "distributed-dvfs-sensor",
)

#: Horizon of a short screening point: 72 engine steps.
SHORT_HORIZON_S = 0.002

#: Fixed warm-start fraction of short points, so a batch shares one warm
#: start whatever its thresholds.
SHORT_WARM_FRACTION = 0.5


def _spec(key: Optional[str]):
    return spec_by_key(key) if key else None


def fault_plan(duration_s: float):
    """Drift, spikes, a dropout window and DVFS rejections over a run.

    Touches all three faultable hot paths (sensor rewrites, sensor
    dropout, DVFS commit rejection); windows scale with the horizon.
    """
    d = float(duration_s)
    return FaultPlan(
        name="bench",
        faults=(
            DriftFault(core=0, unit="intreg", start_s=0.2 * d, end_s=d,
                       rate_c_per_s=10.0),
            SpikeFault(start_s=0.0, end_s=d, magnitude_c=8.0, prob=0.01),
            DropoutFault(core=1, start_s=0.3 * d, end_s=0.7 * d,
                         mode="last-good"),
            DVFSRejectFault(start_s=0.25 * d, end_s=0.75 * d, prob=0.5),
        ),
    )


class Workload:
    """Shared run loop: a cold operation, then timed operations."""

    name = ""
    #: Fewest timed operations in a time-bounded run.
    min_ops = 1
    #: Timed operations of a traced run (and of its untraced twin).
    trace_ops = 1

    def __init__(self, seed: int, scratch: Path):
        """Bind the seed and a private scratch directory."""
        self.seed = seed
        self.scratch = scratch
        self.tracer = NullTracer()
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self._lock = threading.Lock()

    # -- bookkeeping -----------------------------------------------------

    def attempt(self) -> None:
        """Count one attempted operation (thread-safe)."""
        with self._lock:
            self.attempted += 1

    def fail(self, message: str) -> None:
        """Count one failed operation (thread-safe)."""
        with self._lock:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(message)

    def _guarded(self, label: str, fn, *args):
        """Run ``fn``; an exception counts as a failed operation."""
        self.attempt()
        try:
            return fn(*args)
        except Exception:  # an operation that raised is a failed op
            self.fail(f"{label}: {traceback.format_exc(limit=3)}")
            return None

    # -- phases ----------------------------------------------------------

    def setup(self) -> None:
        """Untimed preparation (beyond imports)."""

    def op(self):
        """One operation: ``(work items, output)``."""
        raise NotImplementedError

    def verify(self, index: int, output) -> None:
        """Check one operation's output (untimed)."""

    def cold(self) -> Tuple[float, float]:
        """Time the first operation on fresh process state: ``(start, end)``."""
        t0 = time.perf_counter()
        with self.tracer.op("cold"):
            out = self._guarded("cold", self.op)
        t1 = time.perf_counter()
        if out is not None:
            self.verify(0, out[1])
        return t0, t1

    def timed(self, seconds: float, ops: int) -> Dict:
        """Timed operations after the cold one.

        ``ops`` > 0 fixes their number; otherwise they run for about
        ``seconds``, and at least :attr:`min_ops` of them. Returns each
        operation's ``(start, end)`` and the work items of one operation.
        """
        t0 = time.perf_counter()
        intervals: List[Tuple[float, float]] = []
        work = 0
        while True:
            i = len(intervals) + 1
            t = time.perf_counter()
            with self.tracer.op(f"op-{i}"):
                out = self._guarded(f"op {i}", self.op)
            end = time.perf_counter()
            intervals.append((t, end))
            if out is not None:
                work, output = out
                self.verify(i, output)
            spent = end - t0
            if ops > 0:
                if len(intervals) >= ops:
                    break
            elif len(intervals) >= self.min_ops and (
                spent >= seconds or spent + (end - t) > 1.25 * seconds
            ):
                break
        return {"ops": intervals, "work": work}

    def outputs(self) -> Dict:
        """The run's outputs, compared to ``bench/expected`` by default."""
        return {}

    def check(self) -> None:
        """Reference recomputations (untimed)."""

    def layer_metrics(self) -> Dict[str, float]:
        """Per-layer metrics the workload measures itself."""
        return {}

    def close(self) -> None:
        """Release servers, connections and files."""

    # -- shared check ----------------------------------------------------

    def _check_against_reference(self, pairs) -> None:
        """Each ``(point, result)`` must equal a scalar reference run."""
        for point, result in pairs:
            ref = self._guarded(
                f"reference {point.label}", run_workload, point.workload,
                point.spec, replace(point.config, fuse_steps=False),
            )
            if ref is not None and canonical(ref) != canonical(result):
                self.fail(f"{point.label}: differs from the scalar reference")


class Artifacts(Workload):
    """Cold then warm regeneration of the paper's 8 artifacts."""

    name = "artifacts"
    #: The cold pass uses up the run's seconds; these warm passes then
    #: span about 8 s, long enough to average over the vCPU's speed swings.
    min_ops = 200
    trace_ops = 20
    ARTIFACTS = ("table1", "table5", "table6", "table7", "table8",
                 "figure3", "figure5", "figure7")
    #: Grid horizon (1,800 steps); Table 1 keeps its own fixed protocol.
    GRID_HORIZON_S = 0.05

    def setup(self) -> None:
        """Import every artifact module and open an empty cache."""
        from repro.experiments import clear_result_cache, default_config
        from repro.experiments.common import set_default_runner

        self._clear = clear_result_cache
        self._set_runner = set_default_runner
        self.modules = {
            a: importlib.import_module(f"repro.experiments.{a}")
            for a in self.ARTIFACTS
        }
        self.config = default_config(
            duration_s=self.GRID_HORIZON_S, seed=self.seed
        )
        self.cache = ResultCache(self.scratch / "cache")
        self.first: Optional[Dict[str, str]] = None

    def op(self):
        """Regenerate every artifact through a fresh CLI-default runner."""
        self._clear()
        previous = self._set_runner(
            ParallelRunner(jobs=1, backend="pool", cache=self.cache)
        )
        texts = {}
        try:
            for name, module in self.modules.items():
                with self.tracer.span(f"experiments.{name}.compute"):
                    if name == "table1":
                        rows = module.compute(seed=self.seed)
                    else:
                        rows = module.compute(self.config)
                with self.tracer.span(f"experiments.{name}.render"):
                    texts[name] = module.render(rows)
        finally:
            self._set_runner(previous)
        return len(texts), texts

    def verify(self, index: int, output) -> None:
        """Warm regenerations must render exactly what the cold one did."""
        if self.first is None:
            self.first = output
        elif output != self.first:
            self.fail(f"op {index}: warm artifacts differ from the cold ones")

    def outputs(self) -> Dict:
        """SHA-256 of each rendered artifact."""
        return {name: sha256(text) for name, text in (self.first or {}).items()}

    def check(self) -> None:
        """Cached grid points must equal scalar reference runs."""
        grid = [
            RunPoint(w, spec, self.config)
            for spec in (None,) + tuple(ALL_POLICY_SPECS)
            for w in ALL_WORKLOADS
        ]
        cached = [p for p in grid if config_hash(p) in self.cache]
        if len(cached) < CHECK_POINTS:
            self.fail(f"only {len(cached)} grid points in the cache")
            return
        sample = random.Random(self.seed).sample(cached, CHECK_POINTS)
        runner = ParallelRunner(jobs=1, cache=self.cache)
        results = runner.run_points(sample)
        if runner.stats.cache_hits != len(sample):
            self.fail("sampled grid points were not served from the cache")
        self._check_against_reference(zip(sample, results))


class _PointBatch(Workload):
    """A workload whose operation runs one fixed batch of points."""

    def verify(self, index: int, output) -> None:
        """Every batch must reproduce the first one exactly."""
        forms = [canonical(r) for r in output]
        if self.first is None:
            self.first = output
            self._first_forms = forms
        elif forms != self._first_forms:
            self.fail(f"op {index}: results differ from the first batch")

    def outputs(self) -> Dict:
        """Headline numbers and digest of every point's result."""
        return {"points": [result_tuple(r) for r in self.first or ()]}

    def check(self) -> None:
        """Sampled results must equal scalar reference runs."""
        if self.first is None:
            return
        n = min(CHECK_POINTS, len(self.points))
        idx = random.Random(self.seed).sample(range(len(self.points)), n)
        self._check_against_reference(
            (self.points[i], self.first[i]) for i in idx
        )


class SweepFleet(_PointBatch):
    """Rounds of 256 short points through a fresh fleet-backend runner."""

    name = "sweep-fleet"
    min_ops = 10
    trace_ops = 10
    THRESHOLDS = tuple(80.0 + 0.125 * i for i in range(32))

    def setup(self) -> None:
        """Build the 4 families x 32 thresholds x {clean, faulted} points."""
        workload = get_workload("workload7")
        plan = fault_plan(SHORT_HORIZON_S)
        self.points = [
            RunPoint(
                workload, _spec(family),
                SimulationConfig(
                    duration_s=SHORT_HORIZON_S, threshold_c=threshold,
                    warm_start_fraction=SHORT_WARM_FRACTION, seed=self.seed,
                    fault_plan=faults,
                ),
            )
            for family in FAMILIES
            for threshold in self.THRESHOLDS
            for faults in (None, plan)
        ]
        self.first = None

    def op(self):
        """One round through a fresh runner (nothing shared across rounds)."""
        runner = ParallelRunner(jobs=1, backend="fleet", cache=None)
        results = runner.run_points(self.points)
        return len(results), results


class LongRun(_PointBatch):
    """Passes of 15 points of 5,400 engine steps each."""

    name = "long-run"
    min_ops = 3
    trace_ops = 2
    #: A tenth of the paper's horizon, so that a 10 s run holds three
    #: passes. Per-point fixed cost (construction, warm start, keying) is
    #: about 8 ms, so stepping is over 95% of a pass; bench/README.md
    #: gives the measurement.
    HORIZON_S = 0.15
    POLICIES = (None, "distributed-dvfs-none", "distributed-stop-go-none",
                "global-dvfs-counter", "distributed-dvfs-sensor")
    WORKLOADS = ("workload2", "workload7", "workload11")

    def setup(self) -> None:
        """Build the 5 policies x 3 workloads points."""
        config = SimulationConfig(duration_s=self.HORIZON_S, seed=self.seed)
        self.points = [
            RunPoint(get_workload(w), _spec(p), config)
            for w in self.WORKLOADS
            for p in self.POLICIES
        ]
        dt = config.machine.sample_period_s
        self.steps = len(self.points) * max(1, int(round(config.duration_s / dt)))
        self.first = None

    def op(self):
        """One pass through an uncached inline runner."""
        return self.steps, ParallelRunner(jobs=1).run_points(self.points)


class ServeMixed(Workload):
    """``repro serve`` in-process under 2 closed-loop keep-alive clients."""

    name = "serve-mixed"
    #: Requests per client in a traced run.
    trace_ops = 500
    CLIENTS = 2
    HOT_POINTS = 48
    #: One request in MISS_EVERY asks for a never-seen point (10%).
    MISS_EVERY = 10

    def setup(self) -> None:
        """Start the server on a fresh cache and open the connections."""
        from repro.serve.server import ServeConfig, start_in_thread

        self.handle = start_in_thread(
            ServeConfig(
                port=0, workers=2, backend="pool", jobs=1, queue_size=256,
                cache_dir=str(self.scratch / "cache"),
            )
        )
        server = self.handle.server
        self.clients = [
            HttpClient(server.config.host, server.port)
            for _ in range(self.CLIENTS)
        ]
        status, _ = self.clients[0].request("GET", "/healthz")
        if status != 200:
            raise RuntimeError(f"healthz answered {status}")
        names = [w.name for w in ALL_WORKLOADS]
        self.hot = [
            self._body(names[i % len(names)], FAMILIES[i // len(names)], 82.0)
            for i in range(self.HOT_POINTS)
        ]
        self.hot_points: List[Optional[list]] = [None] * self.HOT_POINTS
        self.requests: List[Tuple[float, float]] = []
        self.layer: Dict[str, float] = {}

    def _body(self, workload: str, policy: Optional[str], threshold: float):
        body = {
            "workload": workload,
            "config": {
                "duration_s": SHORT_HORIZON_S,
                "threshold_c": threshold,
                "warm_start_fraction": SHORT_WARM_FRACTION,
                "seed": self.seed,
            },
        }
        if policy is not None:
            body["policy"] = policy
        return body

    def _send(self, client, body) -> Optional[list]:
        """One ``POST /run``; returns the result points, or None (failed)."""
        self.attempt()
        try:
            status, payload = client.request("POST", "/run", body)
        except Exception as exc:  # transport failure: a failed op
            self.fail(f"request: {type(exc).__name__}: {exc}")
            return None
        if status != 200 or payload.get("state") != "done":
            self.fail(f"request: HTTP {status} {str(payload)[:200]}")
            return None
        return payload["points"]

    def _run_clients(self, fn) -> Tuple[float, float]:
        """Run ``fn(client index)`` on one thread per client: ``(start, end)``."""
        threads = [
            threading.Thread(target=fn, args=(c,), name=f"bench-client-{c}")
            for c in range(self.CLIENTS)
        ]
        t0 = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return t0, time.perf_counter()

    def _prime(self, c: int) -> None:
        client = self.clients[c]
        for i in range(c, self.HOT_POINTS, self.CLIENTS):
            with self.tracer.span("serve.request"):
                self.hot_points[i] = self._send(client, self.hot[i])

    def _load(self, c: int, deadline: float, requests: int) -> None:
        client = self.clients[c]
        rng = random.Random(f"{self.seed}/{c}")
        done: List[Tuple[float, float]] = []
        k = 0
        while (requests > 0 and k < requests) or (
            requests <= 0 and time.perf_counter() < deadline
        ):
            k += 1
            # Every MISS_EVERY-th request is new, staggered across clients,
            # so the mix does not depend on the seed or the load's length.
            if (k + c * self.MISS_EVERY // self.CLIENTS) % self.MISS_EVERY == 0:
                hot = None
                # Thresholds below the hot set's, unique per request.
                body = self._body("workload7", "distributed-dvfs-none",
                                  70.0 + 1e-3 * (self.CLIENTS * k + c))
            else:
                hot = rng.randrange(self.HOT_POINTS)
                body = self.hot[hot]
            t = time.perf_counter()
            with self.tracer.op(f"c{c}-r{k}"), self.tracer.span("serve.request"):
                points = self._send(client, body)
            done.append((t, time.perf_counter()))
            if hot is not None and points is not None:
                if dumps(points) != dumps(self.hot_points[hot]):
                    self.fail(f"hot point {hot}: payload changed")
        with self._lock:
            self.requests.extend(done)

    def _scrape(self) -> str:
        status, text = self.clients[0].request("GET", "/metrics")
        if status != 200:
            raise RuntimeError(f"/metrics answered {status}")
        return text

    def cold(self) -> Tuple[float, float]:
        """Prime the hot set: every request simulates and fills the cache."""
        with self.tracer.op("prime"):
            return self._run_clients(self._prime)

    def timed(self, seconds: float, ops: int) -> Dict:
        """Mixed closed-loop load for ``seconds`` (or ``ops`` per client).

        Each request is one operation; ``load`` spans the whole load, over
        which ``throughput`` counts requests.
        """
        before = self._scrape()
        deadline = time.perf_counter() + seconds
        self.requests = []
        load = self._run_clients(lambda c: self._load(c, deadline, ops))
        after = self._scrape()
        self._stage_metrics(
            parse_histograms(before), parse_histograms(after),
            parse_samples(before), parse_samples(after),
        )
        return {"ops": sorted(self.requests), "work": 1, "load": load}

    def _stage_metrics(self, h0, h1, s0, s1) -> None:
        """Stage p50/mean/p99 of the timed load from the server histograms."""
        out = {}
        for stage, hist in (("queue_wait", "queue_wait_seconds"),
                            ("execute", "execute_seconds"),
                            ("ttfb", "ttfb_seconds")):
            if hist not in h1:
                continue
            delta = histogram_delta(h1[hist], h0.get(hist))
            out[f"serve.{stage}.p50_ms"] = 1e3 * bucket_quantile(0.5, delta["buckets"])
            out[f"serve.{stage}.mean_ms"] = 1e3 * histogram_mean(delta)
            if stage == "ttfb":
                out["serve.ttfb.p99_ms"] = 1e3 * bucket_quantile(
                    0.99, delta["buckets"]
                )
        # Wall times, like the server's own histograms they are set against.
        latencies = [end - start for start, end in self.requests]
        if latencies:
            client_p50 = 1e3 * statistics.median(latencies)
            out["serve.client.p99_ms"] = 1e3 * percentile(latencies, 0.99)
            if "serve.ttfb.p50_ms" in out:
                out["serve.http_overhead_p50_ms"] = (
                    client_p50 - out["serve.ttfb.p50_ms"]
                )

        def grew(series):
            return s1.get(series, 0.0) - s0.get(series, 0.0)

        out["serve.jobs_failed"] = grew('serve_jobs_total{state="failed"}')
        out["serve.job_retries"] = grew("serve_job_retries_total")
        self.layer = out

    def layer_metrics(self) -> Dict[str, float]:
        """The ``serve.*`` stage metrics of the timed load."""
        return self.layer

    def outputs(self) -> Dict:
        """Served result points of the hot set."""
        return {"hot": self.hot_points}

    def check(self) -> None:
        """Sampled served results must equal scalar reference runs."""
        for i in random.Random(self.seed).sample(range(self.HOT_POINTS),
                                                 CHECK_POINTS):
            points = self.hot_points[i]
            if points is None:
                continue
            body = self.hot[i]
            ref = self._guarded(
                f"reference hot point {i}", run_workload,
                get_workload(body["workload"]), _spec(body.get("policy")),
                SimulationConfig(fuse_steps=False, **body["config"]),
            )
            if ref is not None and dumps(result_to_dict(ref)) != dumps(
                points[0]["result"]
            ):
                self.fail(f"hot point {i}: differs from the scalar reference")

    def close(self) -> None:
        """Close the connections and drain the server."""
        for client in getattr(self, "clients", ()):
            client.close()
        handle = getattr(self, "handle", None)
        if handle is not None:
            handle.stop()


WORKLOAD_CLASSES = {
    cls.name: cls for cls in (Artifacts, SweepFleet, LongRun, ServeMixed)
}
