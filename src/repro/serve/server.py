"""The asyncio HTTP/JSON job server: thermal simulation as a service.

``repro serve`` turns the simulation substrate into a long-running
process: an :mod:`asyncio` event loop accepts HTTP/1.1 requests
(keep-alive supported, stdlib only), a bounded priority
:class:`~repro.serve.jobs.JobQueue` buffers submitted jobs, and a small
worker pool executes each job through an ordinary
:class:`~repro.sim.runner.ParallelRunner` — any of its backends, per
request — against one shared sharded/evicting
:class:`~repro.sim.runner.ResultCache`. Results are therefore
bit-identical to local runs of the same points, and a re-submitted job
is served from the cache without simulating.

Endpoints::

    GET  /healthz                 liveness + queue/worker census
    GET  /metrics                 Prometheus text exposition
    POST /jobs                    submit a job        -> 202 {"id": ...}
    GET  /jobs/<id>               job status
    GET  /jobs/<id>/result        result payload (409 until done)
    GET  /jobs/<id>/trace         merged distributed-trace spans (404
                                  unless the submission carried a
                                  ``traceparent`` header)
    POST /jobs/<id>/cancel        cancel (queued: immediate; running:
                                  cooperative — result is discarded)
    POST /run                     submit and wait: the result payload in
                                  one round trip (the load generator's
                                  endpoint)

Distributed tracing: a submission with a W3C ``traceparent`` header is
traced end to end — the server parents a request span on the caller's
context and records queue-wait, execute, runner point and engine
section spans beneath it (see :mod:`repro.obs.tracing`). Untraced
requests skip every span allocation, and tracing never changes results
or cache keys. Stage-latency histograms (``queue_wait_seconds``,
``execute_seconds``, ``ttfb_seconds``) are always recorded.

Operational semantics:

* **Per-job timeout** (``--job-timeout`` or per-request ``timeout_s``):
  a job still executing when its budget expires is marked ``timeout``
  and its eventual result discarded. The worker *slot* is freed only
  when the underlying execution returns (simulations cannot be
  preempted mid-step), so timeouts protect callers, not capacity.
* **Retry on worker death**: executions that die with a broken process
  pool / pipe (a pool worker OOM-killed mid-job) are retried on a fresh
  runner up to ``--retries`` times before the job fails.
* **Graceful drain**: SIGTERM/SIGINT closes the listener and the queue
  (new submissions 503), lets running jobs finish (bounded by
  ``--drain-timeout``), then exits 0.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import contextlib
import json
import os
import signal
import socket
import threading
import time
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.obs.exporters import prometheus_text
from repro.obs.logconfig import get_logger
from repro.obs.telemetry import MetricsRegistry
from repro.obs.tracing import (
    KIND_EXECUTE,
    KIND_QUEUE,
    SpanRecorder,
    TraceContext,
    finished_span,
    spans_payload,
)
from repro.serve.jobs import (
    Job,
    JobQueue,
    JobState,
    JobStore,
    QueueClosedError,
    QueueFullError,
)
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    JobRequest,
    ProtocolError,
    job_payload,
)
from repro.sim.runner import BACKENDS, ParallelRunner, ResultCache

logger = get_logger(__name__)

#: Request-latency histogram bucket bounds (seconds).
LATENCY_BUCKETS_S = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
    5.0, 10.0, 30.0,
)

#: Largest accepted request body (1 MiB of JSON is a very large sweep).
MAX_BODY_BYTES = 1 << 20


class WorkerDiedError(Exception):
    """An execution died with its worker; the job is retryable."""


#: Exception types classified as worker death (retryable) rather than
#: a job failure: the pool process vanished, not the simulation erred.
_WORKER_DEATH_TYPES = (
    WorkerDiedError,
    concurrent.futures.BrokenExecutor,
    BrokenPipeError,
    EOFError,
)


@dataclass
class ServeConfig:
    """Everything configurable about one server process."""

    host: str = "127.0.0.1"
    port: int = 8023
    #: Concurrent job executions (worker tasks + executor threads).
    workers: int = 4
    queue_size: int = 256
    #: Default per-job budget (seconds); requests may override.
    job_timeout_s: float = 300.0
    #: Extra executions after a worker death before the job fails.
    retries: int = 1
    #: Default execution backend for jobs that do not name one (see
    #: :class:`~repro.sim.runner.ParallelRunner`).
    backend: str = "auto"
    #: ``ParallelRunner`` worker processes per job (1 = inline).
    jobs: int = 1
    fleet_chunk: Optional[int] = None
    cache_dir: Optional[str] = None
    cache_max_bytes: Optional[int] = None
    no_cache: bool = False
    drain_timeout_s: float = 30.0

    def __post_init__(self):
        """Reject non-sensical sizes before any socket is opened."""
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1: {self.workers}")
        if self.queue_size < 1:
            raise ValueError(f"queue_size must be >= 1: {self.queue_size}")
        if self.job_timeout_s <= 0:
            raise ValueError(
                f"job_timeout_s must be positive: {self.job_timeout_s}"
            )
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0: {self.retries}")
        if self.jobs < 0:
            raise ValueError(f"jobs must be >= 0 (0 = all cores): {self.jobs}")
        if self.fleet_chunk is not None and self.fleet_chunk < 1:
            raise ValueError(f"fleet_chunk must be >= 1: {self.fleet_chunk}")
        if self.backend not in BACKENDS:
            raise ValueError(f"unknown backend {self.backend!r}")


class ServeExecutor:
    """Executes one job request through a :class:`ParallelRunner`.

    A fresh runner per execution keeps retry semantics clean (a broken
    process pool never leaks into the next attempt) and starts with an
    empty memo. What stays warm across jobs is the shared ``cache`` and
    the bounded process-wide tables: machine substrates
    (:meth:`~repro.sim.engine.EngineSubstrate.shared`: floorplan,
    factored thermal kernel, chip layout, fault masks; 16 chips), power
    traces (:func:`~repro.uarch.tracegen.generate_trace`; 64 traces) and
    cache-key fragments. Runs on executor threads — everything here must
    be thread-safe, which the sharded cache, the locked metrics registry
    and the memo tables (:func:`~repro.util.memo.remember`) are.
    """

    def __init__(
        self,
        cache: Optional[ResultCache],
        registry: Optional[MetricsRegistry] = None,
        backend: str = "auto",
        jobs: int = 1,
        fleet_chunk: Optional[int] = None,
    ):
        """Bind the shared cache/registry and default backend."""
        self.cache = cache
        self.registry = registry
        self.backend = backend
        self.jobs = jobs
        self.fleet_chunk = fleet_chunk

    def execute(
        self, request: JobRequest, trace: Optional[TraceContext] = None,
    ) -> Tuple[Dict, int, int, list]:
        """Run the request's grid.

        Returns ``(payload, cache_hits, simulated, spans)``; ``spans``
        holds the runner's distributed spans (point/section/fleet-group)
        parented under ``trace``, empty when untraced — a fresh recorder
        per execution, so concurrent jobs never mix spans.
        """
        tracer = SpanRecorder() if trace is not None else None
        runner = ParallelRunner(
            jobs=self.jobs,
            cache=self.cache,
            backend=request.backend or self.backend,
            fleet_chunk=self.fleet_chunk,
            registry=self.registry,
            tracer=tracer,
        )
        results = runner.run_points(request.run_points(), trace=trace)
        return (
            job_payload(request, results),
            runner.stats.cache_hits,
            runner.stats.simulated,
            tracer.spans() if tracer is not None else [],
        )


class ThermalServeServer:
    """One serving process: HTTP front end, job queue, worker pool."""

    def __init__(
        self,
        config: Optional[ServeConfig] = None,
        executor: Optional[ServeExecutor] = None,
        registry: Optional[MetricsRegistry] = None,
    ):
        """Wire the queue, store, metrics and executor (no I/O yet)."""
        self.config = config or ServeConfig()
        self.registry = registry if registry is not None else MetricsRegistry()
        cache = None
        if not self.config.no_cache:
            cache = ResultCache(
                self.config.cache_dir,
                registry=self.registry,
                max_bytes=self.config.cache_max_bytes,
            )
        self.cache = cache
        self.executor = executor or ServeExecutor(
            cache,
            registry=self.registry,
            backend=self.config.backend,
            jobs=self.config.jobs,
            fleet_chunk=self.config.fleet_chunk,
        )
        self.queue = JobQueue(self.config.queue_size)
        self.store = JobStore()
        self.started_at = time.time()
        self._server: Optional[asyncio.AbstractServer] = None
        self._workers: list = []
        self._thread_pool: Optional[concurrent.futures.ThreadPoolExecutor] = None
        self._draining = False
        self._drained = asyncio.Event()
        self._running_jobs = 0
        self._connections: set = set()

        reg = self.registry
        self._g_queue_depth = reg.gauge(
            "serve_queue_depth", help="jobs waiting in the priority queue"
        )
        self._g_running = reg.gauge(
            "serve_jobs_running", help="jobs currently executing"
        )
        self._ctr_submitted = reg.counter(
            "serve_jobs_submitted_total", help="jobs accepted into the queue"
        )
        self._ctr_jobs = {
            state: reg.counter(
                "serve_jobs_total",
                help="jobs finished, by terminal state",
                state=state.value,
            )
            for state in (
                JobState.DONE, JobState.FAILED, JobState.CANCELLED,
                JobState.TIMEOUT,
            )
        }
        self._ctr_retries = reg.counter(
            "serve_job_retries_total",
            help="job executions retried after a worker death",
        )
        self._h_queue_wait = reg.histogram(
            "queue_wait_seconds", LATENCY_BUCKETS_S,
            help="time jobs spend queued before a worker picks them up",
        )
        self._h_execute = reg.histogram(
            "execute_seconds", LATENCY_BUCKETS_S,
            help="worker execution time per job, across all attempts",
        )
        self._h_ttfb = reg.histogram(
            "ttfb_seconds", LATENCY_BUCKETS_S,
            help="submission to terminal state per job",
        )
        self._ctr_requests: Dict[str, object] = {}
        self._h_latency: Dict[str, object] = {}

    # -- metrics helpers ----------------------------------------------------

    def _observe_request(self, route: str, elapsed_s: float) -> None:
        ctr = self._ctr_requests.get(route)
        if ctr is None:
            ctr = self._ctr_requests[route] = self.registry.counter(
                "serve_requests_total",
                help="HTTP requests handled, by route",
                route=route,
            )
            self._h_latency[route] = self.registry.histogram(
                "serve_request_seconds",
                LATENCY_BUCKETS_S,
                help="request handling latency by route",
                route=route,
            )
        ctr.inc()
        self._h_latency[route].observe(elapsed_s)

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        """Bind the listener and start the worker pool."""
        self._thread_pool = concurrent.futures.ThreadPoolExecutor(
            max_workers=self.config.workers,
            thread_name_prefix="serve-exec",
        )
        self._workers = [
            asyncio.create_task(self._worker(i))
            for i in range(self.config.workers)
        ]
        self._server = await asyncio.start_server(
            self._tracked_connection,
            host=self.config.host,
            port=self.config.port,
            family=socket.AF_INET,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        logger.info("serving on %s:%d", self.config.host, self.port)

    @property
    def url(self) -> str:
        """Base URL of the bound listener."""
        return f"http://{self.config.host}:{self.port}"

    async def drain(self, timeout_s: Optional[float] = None) -> bool:
        """Stop accepting work, wait for in-flight jobs, stop workers.

        Returns True when everything finished inside the timeout.
        """
        if self._draining:
            await self._drained.wait()
            return True
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self.queue.close()
        timeout = timeout_s if timeout_s is not None else self.config.drain_timeout_s
        clean = True
        if self._workers:
            done, pending = await asyncio.wait(self._workers, timeout=timeout)
            for task in pending:
                task.cancel()
            clean = not pending
            with contextlib.suppress(asyncio.CancelledError):
                await asyncio.gather(*pending, return_exceptions=True)
        if self._thread_pool is not None:
            self._thread_pool.shutdown(wait=clean, cancel_futures=True)
        # Idle keep-alive connections never see another request; close
        # them (in-flight /run responses were written above, since every
        # job is terminal once the workers exit).
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        self._drained.set()
        return clean

    # -- worker pool --------------------------------------------------------

    async def _worker(self, index: int) -> None:
        loop = asyncio.get_running_loop()
        while True:
            job = await self.queue.get()
            self._g_queue_depth.set(float(len(self.queue)))
            if job is None:
                return
            if job.cancel_requested:
                job.finish(JobState.CANCELLED)
                self._ctr_jobs[JobState.CANCELLED].inc()
                continue
            job.state = JobState.RUNNING
            job.started_at = time.time()
            queue_wait = job.started_at - job.submitted_at
            self._h_queue_wait.observe(queue_wait)
            if job.trace is not None:
                # The wait was measured between two job timestamps, so
                # the span is backdated rather than context-managed.
                job.spans.append(
                    finished_span(
                        job.trace.child(), "queue-wait", KIND_QUEUE,
                        job.submitted_at, queue_wait,
                        queue_depth=job.queue_depth_at_submit,
                        priority=job.request.priority,
                    )
                )
            self._running_jobs += 1
            self._g_running.set(float(self._running_jobs))
            timeout = job.request.timeout_s or self.config.job_timeout_s
            try:
                await self._execute_with_retry(loop, job, timeout)
            finally:
                self._running_jobs -= 1
                self._g_running.set(float(self._running_jobs))
                self._ctr_jobs[job.state].inc()
                finished = job.finished_at or time.time()
                self._h_execute.observe(finished - job.started_at)
                self._h_ttfb.observe(finished - job.submitted_at)

    async def _execute_with_retry(self, loop, job: Job, timeout: float) -> None:
        deadline = time.monotonic() + timeout
        # One execute-span context covers every attempt, so runner spans
        # from the successful attempt parent consistently even after a
        # worker-death retry.
        exec_ctx = job.trace.child() if job.trace is not None else None
        exec_started = time.time()
        exec_t0 = time.perf_counter()
        while True:
            job.attempts += 1
            budget = deadline - time.monotonic()
            if budget <= 0:
                job.finish(JobState.TIMEOUT,
                           error=f"timed out after {timeout:g} s")
                return
            try:
                payload, cache_hits, _simulated, spans = await asyncio.wait_for(
                    loop.run_in_executor(
                        self._thread_pool, self.executor.execute,
                        job.request, exec_ctx,
                    ),
                    timeout=budget,
                )
            except asyncio.TimeoutError:
                job.finish(JobState.TIMEOUT,
                           error=f"timed out after {timeout:g} s")
                return
            except _WORKER_DEATH_TYPES as exc:
                if job.attempts <= self.config.retries:
                    logger.warning(
                        "job %s: worker died (%s), retrying (%d/%d)",
                        job.id, exc, job.attempts, self.config.retries,
                    )
                    self._ctr_retries.inc()
                    continue
                job.finish(
                    JobState.FAILED,
                    error=f"worker died after {job.attempts} attempts: {exc}",
                )
                return
            except ProtocolError as exc:
                job.finish(JobState.FAILED, error=str(exc))
                return
            except Exception as exc:  # simulation raised: a job failure
                logger.exception("job %s failed", job.id)
                job.finish(
                    JobState.FAILED, error=f"{type(exc).__name__}: {exc}"
                )
                return
            if job.cancel_requested:
                job.finish(JobState.CANCELLED)
                return
            job.cache_hits = cache_hits
            if exec_ctx is not None:
                job.spans.extend(spans)
                job.spans.append(
                    finished_span(
                        exec_ctx, "execute", KIND_EXECUTE,
                        exec_started, time.perf_counter() - exec_t0,
                        attempts=job.attempts,
                        backend=job.request.backend or self.config.backend,
                        n_points=job.request.n_points,
                        cache_hits=cache_hits,
                    )
                )
            job.finish(JobState.DONE, payload=payload)
            return

    # -- HTTP front end -----------------------------------------------------

    async def _tracked_connection(self, reader, writer) -> None:
        """Connection callback wrapper: register the handler for drain."""
        task = asyncio.current_task()
        self._connections.add(task)
        try:
            await self._handle_connection(reader, writer)
        except asyncio.CancelledError:
            with contextlib.suppress(Exception):
                writer.close()
        finally:
            self._connections.discard(task)

    async def _handle_connection(self, reader, writer) -> None:
        try:
            while True:
                request = await self._read_request(reader)
                if request is None:
                    return
                method, path, headers, body = request
                started = time.perf_counter()
                try:
                    status, payload, content_type, route = await self._route(
                        method, path, headers, body
                    )
                except ProtocolError as exc:
                    status, content_type, route = 400, "application/json", "error"
                    payload = {"error": str(exc)}
                except Exception as exc:  # pragma: no cover - defensive
                    logger.exception("internal error handling %s %s",
                                     method, path)
                    status, content_type, route = 500, "application/json", "error"
                    payload = {"error": f"internal error: {exc}"}
                self._observe_request(route, time.perf_counter() - started)
                keep_alive = (
                    headers.get("connection", "keep-alive").lower() != "close"
                    and not self._draining
                )
                await self._write_response(
                    writer, status, payload, content_type, keep_alive
                )
                if not keep_alive:
                    return
        except (ConnectionResetError, asyncio.IncompleteReadError):
            pass
        finally:
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    async def _read_request(self, reader):
        line = await reader.readline()
        if not line:
            return None
        try:
            method, path, _version = line.decode("latin-1").split()
        except ValueError:
            raise ProtocolError(f"malformed request line: {line!r}") from None
        headers: Dict[str, str] = {}
        while True:
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
            name, _, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        if length > MAX_BODY_BYTES:
            raise ProtocolError(
                f"request body too large ({length} > {MAX_BODY_BYTES} bytes)"
            )
        body = await reader.readexactly(length) if length else b""
        return method.upper(), path, headers, body

    async def _write_response(
        self, writer, status: int, payload, content_type: str,
        keep_alive: bool,
    ) -> None:
        reason = {
            200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 409: "Conflict",
            500: "Internal Server Error", 503: "Service Unavailable",
        }.get(status, "OK")
        if content_type == "application/json":
            data = json.dumps(payload, separators=(",", ":")).encode("utf-8")
        else:
            data = payload.encode("utf-8")
        writer.write(
            (
                f"HTTP/1.1 {status} {reason}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(data)}\r\n"
                f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
                "\r\n"
            ).encode("latin-1")
        )
        writer.write(data)
        await writer.drain()

    def _parse_body(self, body: bytes) -> Dict:
        if not body:
            raise ProtocolError("request body must be a JSON object")
        try:
            return json.loads(body)
        except json.JSONDecodeError as exc:
            raise ProtocolError(f"invalid JSON body: {exc}") from None

    def _submit(self, data: Dict,
                headers: Optional[Dict[str, str]] = None) -> Job:
        request = JobRequest.parse(data)
        if self.queue.closed:
            raise QueueClosedError("server is draining")
        job = self.store.create(request)
        client_ctx = TraceContext.from_traceparent(
            (headers or {}).get("traceparent")
        )
        if client_ctx is not None:
            # The request span's context: its parent is the caller's
            # client span, stitching both sides into one trace.
            job.trace = client_ctx.child()
        job.queue_depth_at_submit = len(self.queue)
        try:
            self.queue.put(job)
        except (QueueFullError, QueueClosedError):
            job.finish(JobState.CANCELLED, error="rejected at submission")
            raise
        self._ctr_submitted.inc()
        self._g_queue_depth.set(float(len(self.queue)))
        return job

    async def _route(self, method: str, path: str,
                     headers: Dict[str, str], body: bytes):
        """Dispatch one request; returns (status, payload, type, route)."""
        if path == "/healthz" and method == "GET":
            return 200, {
                "status": "draining" if self._draining else "ok",
                "version": PROTOCOL_VERSION,
                "uptime_s": time.time() - self.started_at,
                "queue_depth": len(self.queue),
                "running": self._running_jobs,
                "workers": self.config.workers,
                "jobs": self.store.states(),
            }, "application/json", "healthz"
        if path == "/metrics" and method == "GET":
            return 200, prometheus_text(self.registry), "text/plain", "metrics"
        if path == "/jobs" and method == "POST":
            try:
                job = self._submit(self._parse_body(body), headers)
            except (QueueFullError, QueueClosedError) as exc:
                return 503, {"error": str(exc)}, "application/json", "submit"
            out = {
                "id": job.id,
                "state": job.state.value,
                "n_points": job.request.n_points,
            }
            if job.trace is not None:
                out["trace_id"] = job.trace.trace_id
            return 202, out, "application/json", "submit"
        if path == "/run" and method == "POST":
            try:
                job = self._submit(self._parse_body(body), headers)
            except (QueueFullError, QueueClosedError) as exc:
                return 503, {"error": str(exc)}, "application/json", "run"
            await job.finished.wait()
            return self._result_response(job, route="run")
        if path.startswith("/jobs/"):
            parts = path.split("/")
            job = self.store.get(parts[2])
            if job is None:
                return 404, {
                    "error": f"unknown job {parts[2]!r}"
                }, "application/json", "status"
            if len(parts) == 3 and method == "GET":
                return 200, job.status(), "application/json", "status"
            if len(parts) == 4 and parts[3] == "result" and method == "GET":
                return self._result_response(job, route="result")
            if len(parts) == 4 and parts[3] == "trace" and method == "GET":
                return self._trace_response(job)
            if len(parts) == 4 and parts[3] == "cancel" and method == "POST":
                return self._cancel(job)
        return 404, {
            "error": f"no route for {method} {path}"
        }, "application/json", "error"

    def _trace_response(self, job: Job):
        """The merged span document for a traced job (404 untraced)."""
        if job.trace is None:
            return 404, {
                "id": job.id,
                "error": "job was not traced "
                         "(no traceparent header at submission)",
            }, "application/json", "trace"
        payload = spans_payload(job.spans, trace_id=job.trace.trace_id)
        payload.update({"id": job.id, "state": job.state.value})
        return 200, payload, "application/json", "trace"

    def _result_response(self, job: Job, route: str):
        if job.state is JobState.DONE:
            payload = dict(job.payload)
            payload.update({
                "id": job.id,
                "state": job.state.value,
                "cache_hits": job.cache_hits,
                "elapsed_s": job.finished_at - job.submitted_at,
            })
            if job.trace is not None:
                payload["trace_id"] = job.trace.trace_id
            return 200, payload, "application/json", route
        if job.done:
            return 409, {
                "id": job.id,
                "state": job.state.value,
                "error": job.error or f"job is {job.state.value}",
            }, "application/json", route
        return 409, {
            "id": job.id,
            "state": job.state.value,
            "error": "job has not finished",
        }, "application/json", route

    def _cancel(self, job: Job):
        if job.done:
            return 200, {
                "id": job.id, "state": job.state.value, "cancelled": False,
            }, "application/json", "cancel"
        job.cancel_requested = True
        if job.state is JobState.QUEUED:
            # Lazy heap removal: mark terminal now; the heap entry is
            # skipped at pop time.
            job.finish(JobState.CANCELLED)
            self.queue.discard(job)
            self._ctr_jobs[JobState.CANCELLED].inc()
            self._g_queue_depth.set(float(len(self.queue)))
        return 200, {
            "id": job.id, "state": job.state.value, "cancelled": True,
        }, "application/json", "cancel"


# ---------------------------------------------------------------------------
# Entry points: blocking CLI server and the in-thread harness
# ---------------------------------------------------------------------------


async def _serve_until_signalled(server: ThermalServeServer) -> None:
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, stop.set)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass
    await server.start()
    print(f"serving on {server.url}", flush=True)
    print(
        f"  workers={server.config.workers} "
        f"queue={server.config.queue_size} "
        f"backend={server.config.backend} "
        f"cache={'off' if server.cache is None else server.cache.root}",
        flush=True,
    )
    await stop.wait()
    running = server._running_jobs + len(server.queue)
    print(f"draining: {running} job(s) in flight...", flush=True)
    clean = await server.drain()
    print(f"drained {'cleanly' if clean else 'with stragglers'}; bye",
          flush=True)


def run_server(config: ServeConfig) -> int:
    """Blocking entry point for ``repro serve``; returns the exit code."""
    server = ThermalServeServer(config)
    try:
        asyncio.run(_serve_until_signalled(server))
    except KeyboardInterrupt:  # pragma: no cover - signal handler races
        pass
    return 0


class ServerHandle:
    """A server running on a dedicated thread, for tests and benchmarks.

    The embedding process stays "one server process" — the load
    generator's requests all land in this thread's event loop.
    """

    def __init__(self, server: ThermalServeServer, thread: threading.Thread,
                 loop: asyncio.AbstractEventLoop):
        """Internal: built by :func:`start_in_thread`."""
        self.server = server
        self._thread = thread
        self._loop = loop

    @property
    def url(self) -> str:
        """Base URL of the running server."""
        return self.server.url

    def stop(self, timeout_s: float = 30.0) -> None:
        """Drain the server and join its thread."""
        future = asyncio.run_coroutine_threadsafe(
            self.server.drain(timeout_s), self._loop
        )
        try:
            future.result(timeout=timeout_s + 5.0)
        finally:
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=10.0)


def start_in_thread(
    config: Optional[ServeConfig] = None,
    executor: Optional[ServeExecutor] = None,
    registry: Optional[MetricsRegistry] = None,
) -> ServerHandle:
    """Start a server on a background thread; returns once it is bound."""
    config = config or ServeConfig(port=0)
    server = ThermalServeServer(config, executor=executor, registry=registry)
    loop = asyncio.new_event_loop()
    ready = threading.Event()
    failure: list = []

    def _main():
        asyncio.set_event_loop(loop)

        async def _start():
            try:
                await server.start()
            except Exception as exc:
                failure.append(exc)
            finally:
                ready.set()

        loop.create_task(_start())
        loop.run_forever()
        # Drain callbacks scheduled during shutdown, then close.
        loop.run_until_complete(asyncio.sleep(0))
        loop.close()

    thread = threading.Thread(target=_main, name="repro-serve", daemon=True)
    thread.start()
    if not ready.wait(timeout=30.0):  # pragma: no cover - startup hang
        raise RuntimeError("serve thread failed to start in time")
    if failure:
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=5.0)
        raise failure[0]
    return ServerHandle(server, thread, loop)


def add_serve_arguments(parser) -> None:
    """Install the ``repro serve`` flags on an argparse (sub)parser."""
    parser.add_argument(
        "--host", default="127.0.0.1",
        help="interface to bind (default: 127.0.0.1)",
    )
    parser.add_argument(
        "--port", type=int, default=8023,
        help="TCP port (0 = ephemeral, printed at startup; default: 8023)",
    )
    parser.add_argument(
        "--serve-workers", type=int, default=4, metavar="N",
        help="concurrent job executions (default: 4)",
    )
    parser.add_argument(
        "--queue-size", type=int, default=256, metavar="N",
        help="bounded job-queue capacity; full -> HTTP 503 (default: 256)",
    )
    parser.add_argument(
        "--job-timeout", type=float, default=300.0, metavar="SECONDS",
        help="default per-job budget; requests may override (default: 300)",
    )
    parser.add_argument(
        "--retries", type=int, default=1, metavar="N",
        help="re-executions after a worker death before the job fails "
             "(default: 1)",
    )
    parser.add_argument(
        "--cache-max-bytes", type=int, default=None, metavar="BYTES",
        help="LRU-evict the result cache above this size "
             "(default: unbounded)",
    )
    parser.add_argument(
        "--drain-timeout", type=float, default=30.0, metavar="SECONDS",
        help="how long SIGTERM waits for in-flight jobs (default: 30)",
    )


def serve_config_from_args(args) -> ServeConfig:
    """Build a :class:`ServeConfig` from parsed CLI args."""
    return ServeConfig(
        host=args.host,
        port=args.port,
        workers=args.serve_workers,
        queue_size=args.queue_size,
        job_timeout_s=args.job_timeout,
        retries=args.retries,
        backend=args.backend,
        jobs=args.jobs if args.jobs else (os.cpu_count() or 1),
        fleet_chunk=args.fleet_chunk,
        cache_max_bytes=args.cache_max_bytes,
        no_cache=args.no_cache,
        drain_timeout_s=args.drain_timeout,
    )
