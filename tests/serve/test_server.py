"""End-to-end server tests over real sockets.

Each test starts a private server (ephemeral port) on a background
thread via :func:`start_in_thread` and talks to it with the stdlib
:class:`ServeClient`. Deterministic lifecycle tests (cancel, timeout,
retry) inject a controllable executor instead of running simulations;
the bit-identity tests run real (tiny) simulations through both
backends. The SIGTERM drain test exercises the actual CLI entry point
in a subprocess.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading

import pytest

from repro.obs.exporters import parse_prometheus_text
from repro.serve.bench import run_load
from repro.serve.client import ServeClient, ServeError
from repro.serve.protocol import JobRequest, job_payload
from repro.serve.server import ServeConfig, start_in_thread
from repro.sim.runner import ParallelRunner

#: Tiny but real simulation request: 72 engine steps per point.
QUICK_BODY = {
    "workload": "workload7",
    "config": {"duration_s": 0.002, "threshold_c": 81.0},
}


def quick_config(tmp_path, **overrides):
    kwargs = dict(
        port=0, workers=2, cache_dir=str(tmp_path / "serve-cache"),
        jobs=1,
    )
    kwargs.update(overrides)
    return ServeConfig(**kwargs)


@pytest.mark.parametrize(
    "field, value",
    [("jobs", -3), ("fleet_chunk", 0), ("fleet_chunk", -1), ("workers", 0)],
)
def test_config_rejects_bad_sizes(tmp_path, field, value):
    with pytest.raises(ValueError, match=f"{field} must be"):
        quick_config(tmp_path, **{field: value})


def test_config_accepts_all_cores_and_no_chunk_cap(tmp_path):
    config = quick_config(tmp_path, jobs=0, fleet_chunk=None)
    assert (config.jobs, config.fleet_chunk) == (0, None)


class ControlledExecutor:
    """Injectable executor: blocks, fails, or dies on command."""

    def __init__(self, die_first_n=0, block=False):
        self.die_first_n = die_first_n
        self.block = block
        self.calls = 0
        self.started = threading.Event()
        self.release = threading.Event()

    def execute(self, request, trace=None):
        self.calls += 1
        self.started.set()
        if self.calls <= self.die_first_n:
            raise BrokenPipeError("worker process vanished")
        if self.block and not self.release.wait(timeout=30):
            raise RuntimeError("test forgot to release the executor")
        return {"n_points": 0, "points": []}, 0, 0, []


@pytest.fixture
def controlled(tmp_path):
    """A 1-worker server around a ControlledExecutor, always drained."""
    handles = []

    def start(**kwargs):
        executor = ControlledExecutor(
            die_first_n=kwargs.pop("die_first_n", 0),
            block=kwargs.pop("block", False),
        )
        config = quick_config(
            tmp_path, workers=kwargs.pop("workers", 1), no_cache=True,
            **kwargs,
        )
        handle = start_in_thread(config, executor=executor)
        handles.append((handle, executor))
        return handle, executor

    yield start
    for handle, executor in handles:
        executor.release.set()
        handle.stop()


class TestEndpoints:
    def test_round_trip_and_warm_cache(self, tmp_path):
        handle = start_in_thread(quick_config(tmp_path))
        try:
            with ServeClient(handle.url) as client:
                health = client.healthz()
                assert health["status"] == "ok"

                job_id = client.submit(QUICK_BODY)
                status = client.wait(job_id, timeout_s=120)
                assert status["state"] == "done"
                assert status["attempts"] == 1
                cold = client.result(job_id)
                assert cold["n_points"] == 1
                assert cold["cache_hits"] == 0

                warm = client.run(QUICK_BODY)
                assert warm["state"] == "done"
                assert warm["cache_hits"] == 1
                assert warm["points"] == cold["points"]
        finally:
            handle.stop()

    def test_errors_and_metrics(self, tmp_path):
        handle = start_in_thread(quick_config(tmp_path))
        try:
            with ServeClient(handle.url) as client:
                with pytest.raises(ServeError) as excinfo:
                    client.submit({"nonsense": 1})
                assert excinfo.value.status == 400

                with pytest.raises(ServeError) as excinfo:
                    client.status("job-999999")
                assert excinfo.value.status == 404

                job_id = client.submit(QUICK_BODY)
                client.wait(job_id, timeout_s=120)
                # Result of an unknown id 404s; done job's result is 200.
                client.result(job_id)

                metrics = parse_prometheus_text(client.metrics_text())
                assert metrics['serve_jobs_total{state="done"}'] >= 1
                assert "serve_queue_depth" in metrics
                assert "serve_jobs_running" in metrics
                assert metrics['serve_requests_total{route="submit"}'] >= 1
                bucket_series = [
                    k for k in metrics
                    if k.startswith("serve_request_seconds_bucket")
                ]
                assert bucket_series, "latency histogram not exported"
        finally:
            handle.stop()

    def test_unrunnable_requests_get_400(self, tmp_path):
        """Non-finite numbers, fractional seeds and grids past the step
        budget are refused at submission, before they reach a worker."""
        handle = start_in_thread(quick_config(tmp_path))
        try:
            with ServeClient(handle.url) as client:
                for body in (
                    {"policy": "distributed-dvfs-none",
                     "config": {"threshold_c": float("nan")}},
                    {"config": {"power_scale": float("inf")}},
                    {"config": {"seed": 1.5}},
                    {"config": {"duration_s": 1e9}},
                ):
                    with pytest.raises(ServeError) as excinfo:
                        client.submit(body)
                    assert excinfo.value.status == 400, body
        finally:
            handle.stop()

    def test_result_409_while_running(self, controlled):
        handle, executor = controlled(block=True)
        with ServeClient(handle.url) as client:
            job_id = client.submit({})
            assert executor.started.wait(timeout=10)
            with pytest.raises(ServeError) as excinfo:
                client.result(job_id)
            assert excinfo.value.status == 409
            executor.release.set()
            assert client.wait(job_id, timeout_s=10)["state"] == "done"


class TestBitIdentity:
    @pytest.mark.parametrize("backend", ["pool", "fleet"])
    def test_served_equals_direct_runner(self, tmp_path, backend):
        """A served sweep is bit-identical to a direct ParallelRunner run."""
        body = {
            "workload": "workload7",
            "policy": "distributed-dvfs-none",
            "config": {"duration_s": 0.002},
            "sweep": {"field": "threshold_c", "values": [80.0, 90.0]},
            "backend": backend,
        }
        handle = start_in_thread(quick_config(tmp_path))
        try:
            with ServeClient(handle.url) as client:
                served = client.run(body)
        finally:
            handle.stop()
        assert served["state"] == "done"

        request = JobRequest.parse(body)
        runner = ParallelRunner(jobs=1, cache=None, backend=backend)
        direct = job_payload(request, runner.run_points(request.run_points()))
        assert served["n_points"] == direct["n_points"]
        # The payloads went through JSON on the wire; result_to_dict uses
        # shortest-repr floats, so equality here is result bit-identity.
        assert served["points"] == direct["points"]
        assert json.loads(json.dumps(direct["points"])) == direct["points"]


class TestLifecycle:
    def test_timeout_marks_job_and_discards_result(self, controlled):
        handle, executor = controlled(block=True)
        with ServeClient(handle.url) as client:
            job_id = client.submit({"timeout_s": 0.2})
            status = client.wait(job_id, timeout_s=10)
            assert status["state"] == "timeout"
            assert "timed out" in status["error"]
            with pytest.raises(ServeError) as excinfo:
                client.result(job_id)
            assert excinfo.value.status == 409

    def test_cancel_running_job_discards_result(self, controlled):
        handle, executor = controlled(block=True)
        with ServeClient(handle.url) as client:
            job_id = client.submit({})
            assert executor.started.wait(timeout=10)
            ack = client.cancel(job_id)
            assert ack["cancelled"] is True
            executor.release.set()
            status = client.wait(job_id, timeout_s=10)
            assert status["state"] == "cancelled"

    def test_cancel_queued_job_never_executes(self, controlled):
        handle, executor = controlled(block=True)
        with ServeClient(handle.url) as client:
            blocker = client.submit({})
            assert executor.started.wait(timeout=10)
            queued = client.submit({})
            ack = client.cancel(queued)
            assert ack["cancelled"] is True
            assert client.status(queued)["state"] == "cancelled"
            executor.release.set()
            assert client.wait(blocker, timeout_s=10)["state"] == "done"
            # The cancelled job never reached the executor.
            assert executor.calls == 1

    def test_cancel_finished_job_is_a_noop(self, controlled):
        handle, executor = controlled()
        with ServeClient(handle.url) as client:
            job_id = client.submit({})
            client.wait(job_id, timeout_s=10)
            assert client.cancel(job_id)["cancelled"] is False

    def test_retry_on_worker_death(self, controlled):
        handle, executor = controlled(die_first_n=1, retries=2)
        with ServeClient(handle.url) as client:
            job_id = client.submit({})
            status = client.wait(job_id, timeout_s=10)
            assert status["state"] == "done"
            assert status["attempts"] == 2

    def test_worker_death_exhausts_retries(self, controlled):
        handle, executor = controlled(die_first_n=10, retries=1)
        with ServeClient(handle.url) as client:
            job_id = client.submit({})
            status = client.wait(job_id, timeout_s=10)
            assert status["state"] == "failed"
            assert "worker died" in status["error"]
            assert status["attempts"] == 2

    def test_full_queue_returns_503(self, controlled):
        handle, executor = controlled(block=True, queue_size=1)
        with ServeClient(handle.url) as client:
            client.submit({})  # picked up by the single worker
            assert executor.started.wait(timeout=10)
            client.submit({})  # fills the queue
            with pytest.raises(ServeError) as excinfo:
                client.submit({})
            assert excinfo.value.status == 503


class TestLoadGenerator:
    def test_small_campaign_counts_and_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "load-cache"))
        payload = run_load(
            unique=2, warm_requests=6, concurrency=2, serve_workers=2
        )
        assert payload["schema"] == "repro-bench-serve/1"
        assert payload["total_requests"] == 8
        assert payload["cold"]["requests"] == 2
        assert payload["warm"]["requests"] == 6
        assert payload["server_metrics"]["cache_misses_total"] == 2.0
        assert payload["server_metrics"]["cache_hits_total"] == 6.0
        assert payload["warm"]["p50_ms"] > 0


class TestGracefulDrain:
    def test_sigterm_drains_and_exits_zero(self, tmp_path):
        """`repro serve` under SIGTERM finishes in-flight work, exits 0."""
        env = dict(os.environ)
        env["PYTHONPATH"] = "src"
        env["REPRO_CACHE_DIR"] = str(tmp_path / "drain-cache")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--serve-workers", "1"],
            cwd=os.path.dirname(os.path.dirname(os.path.dirname(
                os.path.abspath(__file__)))),
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            line = proc.stdout.readline()
            assert line.startswith("serving on http://"), line
            url = line.split()[-1].strip()
            with ServeClient(url) as client:
                job_id = client.submit(QUICK_BODY)
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, out
        assert "draining" in out
        assert "drained cleanly" in out
        # The submitted job was allowed to finish before exit: a fresh
        # cache dir only gains entries when the simulation actually ran.
        cache_root = tmp_path / "drain-cache"
        assert any(cache_root.rglob("*.pkl")), (
            "in-flight job was dropped instead of drained"
        )

    def test_submissions_rejected_while_draining(self, tmp_path):
        handle = start_in_thread(quick_config(tmp_path))
        stopper = threading.Thread(target=handle.stop)
        with ServeClient(handle.url) as client:
            client.run(QUICK_BODY)
            stopper.start()
            stopper.join()
            with pytest.raises((ServeError, ConnectionError, OSError)):
                client.submit(QUICK_BODY)
