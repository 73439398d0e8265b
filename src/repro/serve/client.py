"""Stdlib HTTP client for the serve subsystem.

A thin, dependency-free wrapper over :mod:`http.client` speaking the
JSON protocol of :mod:`repro.serve.server`. One :class:`ServeClient`
holds one keep-alive connection; it is *not* thread-safe — the load
generator gives each of its threads a private client, which is exactly
how a real pool of callers behaves.

Tracing: constructed with ``trace=True``, the client mints a fresh
:class:`~repro.obs.tracing.TraceContext` per request, sends it as a W3C
``traceparent`` header and records a client-side span (kind ``client``)
into its recorder. The server continues the same trace through queue,
worker and engine; ``client.trace(job_id)`` fetches the merged span set
from ``GET /jobs/<id>/trace``.
"""

from __future__ import annotations

import http.client
import json
import time
from typing import Dict, List, Optional, Tuple
from urllib.parse import urlparse

from repro.obs.tracing import KIND_CLIENT, NULL_TRACER, SpanRecorder, TraceContext


class ServeError(Exception):
    """A non-2xx response from the server."""

    def __init__(self, status: int, payload):
        """Capture the HTTP status and decoded body."""
        self.status = status
        self.payload = payload
        message = payload.get("error") if isinstance(payload, dict) else payload
        super().__init__(f"HTTP {status}: {message}")


class ServeClient:
    """One keep-alive connection to a running serve process."""

    def __init__(
        self,
        url: str,
        timeout_s: float = 60.0,
        trace: bool = False,
        recorder: Optional[SpanRecorder] = None,
    ):
        """Connect lazily to ``url`` (e.g. ``http://127.0.0.1:8023``).

        ``trace=True`` sends a ``traceparent`` header with every request
        (a fresh trace per request) and records client-side spans into
        ``recorder`` (one is created when not given; read it back via
        ``self.recorder``). The last request's context is kept in
        ``self.last_trace``.
        """
        parsed = urlparse(url)
        if parsed.scheme not in ("http", ""):
            raise ValueError(f"only http:// URLs are supported: {url!r}")
        self.host = parsed.hostname or "127.0.0.1"
        self.port = parsed.port or 80
        self.timeout_s = timeout_s
        self.tracing = bool(trace)
        if self.tracing:
            self.recorder = recorder if recorder is not None else SpanRecorder()
        else:
            self.recorder = recorder if recorder is not None else NULL_TRACER
        #: Trace context of the most recent traced request (None untraced).
        self.last_trace: Optional[TraceContext] = None
        #: How many transport attempts the last request took (1 normally,
        #: 2 after a stale keep-alive retry).
        self.last_attempts = 0
        #: Wall-clock seconds of each transport attempt of the last
        #: request, in order — the retried attempt keeps its own timing.
        self.last_attempt_latencies_s: List[float] = []
        self._conn: Optional[http.client.HTTPConnection] = None

    def close(self) -> None:
        """Close the underlying connection (reopened on next use)."""
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "ServeClient":
        """Context-manager entry; returns self."""
        return self

    def __exit__(self, *exc) -> None:
        """Context-manager exit closes the connection."""
        self.close()

    # -- transport ----------------------------------------------------------

    def _connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout_s
        )

    def _request(self, method: str, path: str,
                 body: Optional[Dict] = None) -> Tuple[int, object, str]:
        data = (
            json.dumps(body, separators=(",", ":")).encode("utf-8")
            if body is not None else None
        )
        headers = {"Content-Type": "application/json"} if data else {}
        self.last_attempts = 0
        self.last_attempt_latencies_s = []
        recorder = self.recorder if self.tracing else NULL_TRACER
        with recorder.span(f"{method} {path}", KIND_CLIENT) as cspan:
            # The client span IS the remote trace's parent: its minted
            # root context goes out as the traceparent header.
            if cspan.context is not None:
                headers["traceparent"] = cspan.context.to_traceparent()
                self.last_trace = cspan.context
            # Two transport attempts at most: the first may hit a stale
            # keep-alive connection (server closed between requests);
            # the retry runs on a fresh connection. Each attempt records
            # its own wall-clock latency — the pre-fix code timed only
            # the outer call, so a retried request lost the measurement
            # of the attempt that actually succeeded.
            last_error: Optional[Exception] = None
            response = None
            raw = b""
            for attempt in range(2):
                if self._conn is None:
                    self._conn = self._connect()
                self.last_attempts = attempt + 1
                t0 = time.perf_counter()
                try:
                    self._conn.request(method, path, body=data, headers=headers)
                    response = self._conn.getresponse()
                    raw = response.read()
                    self.last_attempt_latencies_s.append(
                        time.perf_counter() - t0
                    )
                    last_error = None
                    break
                except (http.client.HTTPException, ConnectionError, OSError) as exc:
                    self.last_attempt_latencies_s.append(
                        time.perf_counter() - t0
                    )
                    last_error = exc
                    self.close()
            if last_error is not None:
                raise last_error
            cspan.annotate(attempts=self.last_attempts, status=response.status)
        content_type = response.getheader("Content-Type", "")
        if content_type.startswith("application/json"):
            payload = json.loads(raw) if raw else None
        else:
            payload = raw.decode("utf-8")
        if response.will_close:
            self.close()
        return response.status, payload, content_type

    def _json(self, method: str, path: str, body: Optional[Dict] = None,
              ok: Tuple[int, ...] = (200,)):
        status, payload, _ = self._request(method, path, body)
        if status not in ok:
            raise ServeError(status, payload)
        return payload

    # -- API ----------------------------------------------------------------

    def healthz(self) -> Dict:
        """Server liveness/census document."""
        return self._json("GET", "/healthz")

    def metrics_text(self) -> str:
        """The raw Prometheus exposition from ``/metrics``."""
        status, payload, _ = self._request("GET", "/metrics")
        if status != 200:
            raise ServeError(status, payload)
        return payload

    def submit(self, request: Dict) -> str:
        """Submit a job; returns its id (raises :class:`ServeError` on 4xx/5xx)."""
        return self._json("POST", "/jobs", request, ok=(202,))["id"]

    def status(self, job_id: str) -> Dict:
        """Status document for ``job_id``."""
        return self._json("GET", f"/jobs/{job_id}")

    def result(self, job_id: str) -> Dict:
        """Result payload for a finished job (409 while running)."""
        return self._json("GET", f"/jobs/{job_id}/result")

    def trace(self, job_id: str) -> Dict:
        """The merged span document from ``GET /jobs/<id>/trace``.

        404s (untraced job, unknown id) raise :class:`ServeError`.
        """
        return self._json("GET", f"/jobs/{job_id}/trace")

    def cancel(self, job_id: str) -> Dict:
        """Request cancellation of ``job_id``."""
        return self._json("POST", f"/jobs/{job_id}/cancel")

    def run(self, request: Dict) -> Dict:
        """Submit and wait: the result payload in one round trip."""
        return self._json("POST", "/run", request)

    def wait(self, job_id: str, timeout_s: float = 300.0,
             poll_s: float = 0.05) -> Dict:
        """Poll ``status`` until the job is terminal; returns the status.

        Raises ``TimeoutError`` if the job is still live after
        ``timeout_s``.
        """
        deadline = time.monotonic() + timeout_s
        while True:
            status = self.status(job_id)
            if status["state"] not in ("queued", "running"):
                return status
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {status['state']} "
                    f"after {timeout_s:g} s"
                )
            time.sleep(poll_s)
