"""End-to-end distributed tracing through a live serve process.

A traced submission must come back as ONE connected trace — client
span, server request root, queue wait, execution, per-point and
engine-section spans — retrievable from ``GET /jobs/<id>/trace``.
Also pins the client's stale-connection retry accounting (the
satellite fix: per-attempt latencies used to be lost on retry).
"""

from __future__ import annotations

import http.client

import pytest

from repro.obs.tracing import (
    KIND_CLIENT,
    KIND_REQUEST,
    render_waterfall,
    spans_from_payload,
    validate_trace,
)
from repro.serve.client import ServeClient, ServeError
from repro.serve.server import start_in_thread

from tests.serve.test_server import QUICK_BODY, quick_config

SWEEP_BODY = {
    "workload": "workload7",
    "policy": "distributed-dvfs-none",
    "config": {"duration_s": 0.002},
    "sweep": {"field": "threshold_c", "values": [80.0, 90.0]},
    # Engine-section spans come from the scalar engine's profiler; the
    # default plan would step this lockstep pair in the fleet.
    "backend": "pool",
}


@pytest.fixture
def server(tmp_path):
    handle = start_in_thread(quick_config(tmp_path, workers=2))
    yield handle
    handle.stop()


class TestEndToEndTrace:
    def test_traced_run_yields_one_connected_trace(self, server):
        with ServeClient(server.url, trace=True) as client:
            payload = client.run(SWEEP_BODY)
            assert payload["state"] == "done"
            assert payload["trace_id"] == client.last_trace.trace_id
            doc = client.trace(payload["id"])

        spans = spans_from_payload(doc)
        assert doc["trace_id"] == payload["trace_id"]
        # The server-side set alone is a valid trace rooted at the
        # request span (its parent — the client span — is remote).
        assert validate_trace(spans, root_kind=KIND_REQUEST) == []
        kinds = {s.kind for s in spans}
        assert {"request", "queue", "execute", "point", "section"} <= kinds
        assert {s.trace_id for s in spans} == {payload["trace_id"]}

        # Stitched with the client-side span, the client becomes the root.
        client_spans = [
            s for s in client.recorder.spans() if s.kind == KIND_CLIENT
        ]
        run_span = next(
            s for s in client_spans if s.name == "POST /run"
        )
        merged = spans + [run_span]
        roots = [
            s for s in merged
            if s.parent_id not in {x.span_id for x in merged}
        ]
        assert roots == [run_span]

        # Stage attributes survived the journey.
        by_kind = {s.kind: s for s in spans}
        assert "queue_depth" in by_kind["queue"].attrs
        assert by_kind["execute"].attrs["attempts"] == 1
        assert by_kind["execute"].attrs["n_points"] == 2
        points = [s for s in spans if s.kind == "point"]
        assert len(points) == 2

        # And the merged trace renders as a waterfall.
        out = render_waterfall(merged)
        assert "POST /run" in out
        assert f"{len(merged)} spans" in out

    def test_untraced_job_404s_on_trace(self, server):
        with ServeClient(server.url) as client:
            payload = client.run(QUICK_BODY)
            with pytest.raises(ServeError) as excinfo:
                client.trace(payload["id"])
            assert excinfo.value.status == 404
            assert "trace_id" not in payload

    def test_malformed_traceparent_served_untraced(self, server):
        """A bad header is dropped per W3C guidance, never an error."""
        host, port = server.url.split("//")[1].split(":")
        conn = http.client.HTTPConnection(host, int(port), timeout=30)
        try:
            conn.request(
                "POST", "/run", body=b"{}",
                headers={
                    "Content-Type": "application/json",
                    "traceparent": "00-not-a-real-header-01",
                },
            )
            response = conn.getresponse()
            import json

            payload = json.loads(response.read())
        finally:
            conn.close()
        assert response.status == 200
        assert payload["state"] == "done"
        assert "trace_id" not in payload

    def test_cache_hits_cross_tracing_modes(self, server):
        """A traced resubmit of an untraced body is fully cache-served."""
        with ServeClient(server.url) as plain:
            cold = plain.run(SWEEP_BODY)
            assert cold["cache_hits"] == 0
        with ServeClient(server.url, trace=True) as traced:
            warm = traced.run(SWEEP_BODY)
        assert warm["cache_hits"] == 2
        assert warm["points"] == cold["points"]
        hit_spans = [
            s for s in spans_from_payload(traced.trace(warm["id"]))
            if s.attrs.get("cache") == "hit"
        ]
        assert len(hit_spans) == 2


class _FailingConnection:
    """Fake stale keep-alive connection: dies on first use."""

    def __init__(self):
        self.closed = False

    def request(self, *args, **kwargs):
        raise ConnectionResetError("stale keep-alive connection")

    def close(self):
        self.closed = True


class TestClientRetryAccounting:
    def test_retry_exposes_both_attempt_latencies(self, server):
        """The satellite fix: a retried request keeps BOTH timings."""
        with ServeClient(server.url) as client:
            stale = _FailingConnection()
            client._conn = stale
            health = client.healthz()
            assert health["status"] == "ok"
            assert stale.closed
            assert client.last_attempts == 2
            assert len(client.last_attempt_latencies_s) == 2
            assert all(t > 0.0 for t in client.last_attempt_latencies_s)

    def test_single_attempt_on_healthy_connection(self, server):
        with ServeClient(server.url) as client:
            client.healthz()
            client.healthz()  # keep-alive reuse
            assert client.last_attempts == 1
            assert len(client.last_attempt_latencies_s) == 1

    def test_both_attempts_failing_raises_with_two_timings(self):
        client = ServeClient("http://127.0.0.1:1")  # nothing listens
        client._connect = _FailingConnection  # every reconnect is dead
        with pytest.raises(ConnectionResetError):
            client.healthz()
        assert client.last_attempts == 2
        assert len(client.last_attempt_latencies_s) == 2

    def test_traced_retry_annotates_attempts(self, server):
        with ServeClient(server.url, trace=True) as client:
            client._conn = _FailingConnection()
            client.healthz()
            span = client.recorder.spans()[-1]
            assert span.kind == KIND_CLIENT
            assert span.attrs["attempts"] == 2
            assert span.attrs["status"] == 200
