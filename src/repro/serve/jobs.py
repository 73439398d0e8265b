"""Job lifecycle and the bounded priority queue of the serve subsystem.

A :class:`Job` tracks one submitted :class:`~repro.serve.protocol.JobRequest`
through ``queued -> running -> {done, failed, cancelled, timeout}``.
The :class:`JobQueue` is a bounded max-priority heap (higher ``priority``
runs sooner; FIFO within a priority level) with asyncio-native blocking
``get`` for the worker pool and non-blocking ``put`` for the request
handler — a full queue is backpressure the HTTP layer surfaces as 503,
never an unbounded buffer.

Cancellation is cooperative and race-free by construction: a queued job
is *lazily* removed (it stays in the heap but is skipped at pop time),
a running job has its ``cancel_requested`` flag set and the worker
discards the result when the executor returns.
"""

from __future__ import annotations

import asyncio
import enum
import heapq
import itertools
import time
from collections import OrderedDict
from typing import Callable, Dict, List, Optional

from repro.obs.tracing import (
    KIND_REQUEST,
    Span,
    TraceContext,
    finished_span,
)
from repro.serve.protocol import JobRequest


class JobState(enum.Enum):
    """Lifecycle states of a served job."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"
    TIMEOUT = "timeout"


#: States a job never leaves.
TERMINAL_STATES = frozenset(
    {JobState.DONE, JobState.FAILED, JobState.CANCELLED, JobState.TIMEOUT}
)


class Job:
    """One submitted request and everything observed about it since."""

    __slots__ = (
        "id", "request", "state", "submitted_at", "started_at",
        "finished_at", "payload", "error", "attempts", "cache_hits",
        "cancel_requested", "finished", "trace", "spans",
        "queue_depth_at_submit", "on_finish",
    )

    def __init__(self, job_id: str, request: JobRequest):
        """A freshly submitted job in the ``queued`` state."""
        self.id = job_id
        self.request = request
        self.state = JobState.QUEUED
        self.submitted_at = time.time()
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.payload: Optional[Dict] = None
        self.error: Optional[str] = None
        self.attempts = 0
        self.cache_hits = 0
        self.cancel_requested = False
        #: Request-span context (a child of the caller's ``traceparent``
        #: context); ``None`` for untraced submissions.
        self.trace: Optional[TraceContext] = None
        #: Finished spans accumulated by server/worker/runner stages;
        #: :meth:`finish` caps them with the root request span.
        self.spans: List[Span] = []
        #: Live queue depth observed when the job was enqueued.
        self.queue_depth_at_submit = 0
        #: Set once the job reaches a terminal state; ``/run`` and the
        #: drain path await it.
        self.finished = asyncio.Event()
        #: Called with the job once it reaches a terminal state (the
        #: owning :class:`JobStore` counts its finished jobs with it).
        self.on_finish: Optional[Callable[["Job"], None]] = None

    @property
    def done(self) -> bool:
        """Whether the job reached a terminal state."""
        return self.state in TERMINAL_STATES

    def finish(self, state: JobState, *, payload: Optional[Dict] = None,
               error: Optional[str] = None) -> None:
        """Transition to a terminal state exactly once.

        Traced jobs get their root ``request`` span appended here: it
        covers submission to terminal state, and its parent is the
        caller's client span (absent from the server-side span set, so
        parentage checkers see exactly one root).
        """
        if self.done:  # pragma: no cover - defensive; workers finish once
            return
        self.state = state
        self.payload = payload
        self.error = error
        self.finished_at = time.time()
        if self.trace is not None:
            self.spans.append(
                finished_span(
                    self.trace, self.id, KIND_REQUEST,
                    self.submitted_at, self.finished_at - self.submitted_at,
                    state=state.value,
                    priority=self.request.priority,
                )
            )
        self.finished.set()
        if self.on_finish is not None:
            self.on_finish(self)

    def status(self) -> Dict:
        """JSON-safe status document for the ``GET /jobs/<id>`` endpoint."""
        out = {
            "id": self.id,
            "state": self.state.value,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "attempts": self.attempts,
            "cache_hits": self.cache_hits,
            "cancel_requested": self.cancel_requested,
            "request": self.request.describe(),
        }
        if self.trace is not None:
            out["trace_id"] = self.trace.trace_id
        if self.error is not None:
            out["error"] = self.error
        return out


class QueueFullError(Exception):
    """The bounded queue rejected a submission; maps to HTTP 503."""


class QueueClosedError(Exception):
    """The queue is draining; new submissions are rejected (503)."""


class JobQueue:
    """Bounded max-priority queue feeding the worker pool.

    ``put`` never blocks (full -> :class:`QueueFullError`); ``get``
    awaits work and returns ``None`` once the queue is closed *and*
    empty, which is each worker's signal to exit. Higher
    ``request.priority`` pops first; equal priorities pop in submission
    order. Cancelled jobs left in the heap are skipped (and do not count
    toward the bound once cancelled).
    """

    def __init__(self, maxsize: int = 256):
        """An empty open queue holding at most ``maxsize`` live entries."""
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self._heap: List = []
        self._seq = itertools.count()
        self._live = 0  # queued, non-cancelled entries
        self._closed = False
        self._waiters: List[asyncio.Future] = []

    def __len__(self) -> int:
        """Number of live (queued, non-cancelled) entries."""
        return self._live

    @property
    def closed(self) -> bool:
        """Whether the queue has stopped accepting submissions."""
        return self._closed

    def put(self, job: Job) -> None:
        """Enqueue ``job`` or raise (full / closed)."""
        if self._closed:
            raise QueueClosedError("server is draining")
        if self._live >= self.maxsize:
            raise QueueFullError(
                f"job queue is full ({self.maxsize} queued)"
            )
        heapq.heappush(
            self._heap, (-job.request.priority, next(self._seq), job)
        )
        self._live += 1
        self._wake()

    def discard(self, job: Job) -> None:
        """Account a queued job's cancellation (lazy heap removal)."""
        if self._live > 0:
            self._live -= 1
        self._wake()  # drain may be waiting on the queue to empty

    async def get(self) -> Optional[Job]:
        """The next runnable job, or ``None`` when closed and drained."""
        while True:
            while self._heap:
                _prio, _seq, job = heapq.heappop(self._heap)
                if job.state is not JobState.QUEUED:
                    continue  # cancelled while queued; already discounted
                self._live -= 1
                return job
            if self._closed:
                return None
            future = asyncio.get_running_loop().create_future()
            self._waiters.append(future)
            try:
                await future
            finally:
                if not future.done():  # pragma: no cover - cancellation
                    future.cancel()
                if future in self._waiters:
                    self._waiters.remove(future)

    def close(self) -> None:
        """Stop accepting submissions; wake every waiting worker."""
        self._closed = True
        self._wake(everyone=True)

    def _wake(self, everyone: bool = False) -> None:
        if everyone:
            for future in self._waiters:
                if not future.done():
                    future.set_result(None)
            self._waiters.clear()
            return
        while self._waiters:
            future = self._waiters.pop(0)
            if not future.done():
                future.set_result(None)
                return


class JobStore:
    """Id-addressed registry of every job the server has seen.

    Bounded: once more than ``max_finished`` jobs have reached a
    terminal state, the oldest finished jobs are forgotten (their ids
    404 afterwards) so a long-lived server's memory stays flat. Live
    jobs are never evicted. The store keeps its finished ids in
    finishing order, so pruning at each :meth:`create` costs O(1)
    amortised, not a pass over every retained job.
    """

    def __init__(self, max_finished: int = 4096):
        """An empty store retaining at most ``max_finished`` results."""
        if max_finished < 1:
            raise ValueError(f"max_finished must be >= 1: {max_finished}")
        self.max_finished = max_finished
        self._jobs: "OrderedDict[str, Job]" = OrderedDict()
        #: Ids of the retained finished jobs, oldest finished first.
        self._finished: "OrderedDict[str, None]" = OrderedDict()
        self._counter = itertools.count(1)

    def __len__(self) -> int:
        """Number of retained jobs (live and finished)."""
        return len(self._jobs)

    def create(self, request: JobRequest) -> Job:
        """Mint a new job with a fresh id."""
        job = Job(f"job-{next(self._counter):06d}", request)
        job.on_finish = self._finish
        self._jobs[job.id] = job
        self._prune()
        return job

    def get(self, job_id: str) -> Optional[Job]:
        """The job for ``job_id``, or ``None`` if unknown/forgotten."""
        return self._jobs.get(job_id)

    def states(self) -> Dict[str, int]:
        """Live census: ``{state value: count}`` over retained jobs."""
        counts: Dict[str, int] = {}
        for job in self._jobs.values():
            counts[job.state.value] = counts.get(job.state.value, 0) + 1
        return counts

    def _finish(self, job: Job) -> None:
        self._finished[job.id] = None

    def _prune(self) -> None:
        while len(self._finished) > self.max_finished:
            job_id, _ = self._finished.popitem(last=False)
            del self._jobs[job_id]
