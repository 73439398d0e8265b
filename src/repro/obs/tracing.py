"""W3C-compatible distributed tracing for the serve/runner/engine stack.

The serve subsystem (PR 8) made the reproduction a long-running service,
but a served request's journey — client HTTP call, priority-queue wait,
worker execution, :class:`~repro.sim.runner.ParallelRunner` fan-out,
engine run — was invisible end to end. This module is the stdlib-only
span layer that connects it:

* :class:`TraceContext` — an immutable ``(trace_id, span_id, parent_id)``
  triple compatible with the W3C ``traceparent`` header
  (``00-<trace-id>-<span-id>-01``). Frozen dataclass of strings, so it
  pickles across process pools unchanged.
* :class:`Span` — one finished, named, timed operation. Spans carry an
  epoch start (``time.time``) so spans recorded in different processes
  align on one axis, and a monotonic-clock duration
  (``time.perf_counter``) so they never go negative under clock steps.
* :class:`SpanRecorder` — a thread-safe collector of finished spans.
  Worker processes build their own recorder and ship finished spans back
  pickled; the parent merges them with :meth:`SpanRecorder.extend`.
* :data:`NULL_TRACER` — the allocation-free no-op recorder (the
  :data:`~repro.obs.profiler.NULL_PROFILER` of tracing): with tracing
  off, the instrumented code paths cost one attribute read.

Tracing follows the observability contract of PRs 2/5: it only reads
clocks, never feeds anything back into a simulation (traced runs are
bit-identical to untraced ones), and no trace state enters the
result-cache key (``tests/sim/test_tracing.py`` enforces both).

Spans are the only timing record above the engine. The runner's
per-point timing is its ``point`` spans, engine step-profiler totals
become ``section`` leaf spans (:func:`section_spans`), and every Chrome
trace the package writes is built from spans.

Rendering/export: :func:`render_waterfall` draws an ASCII waterfall
(``repro trace <file>``); :func:`repro.obs.exporters.span_trace_events`
converts spans to Chrome trace-event JSON; the serve server returns
:func:`spans_payload` documents from ``GET /jobs/<id>/trace``.
"""

from __future__ import annotations

import os
import re
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.util.ascii_plot import span_bar

#: ``traceparent`` version prefix this layer emits (the only one defined).
TRACEPARENT_VERSION = "00"

#: Sampled flag emitted on every minted header.
TRACEPARENT_FLAGS = "01"

#: Span taxonomy: one kind per stage of a served request's journey.
KIND_CLIENT = "client"          # client-side HTTP request span
KIND_REQUEST = "request"        # server-side root: submit -> terminal state
KIND_QUEUE = "queue"            # priority-queue wait
KIND_EXECUTE = "execute"        # worker execution incl. retries
KIND_GROUP = "fleet-group"      # one batched FleetEngine chunk
KIND_POINT = "point"            # one SweepPoint (cache-hit/pool/fleet)
KIND_SECTION = "section"        # engine StepProfiler leaf section

#: JSON wire-format identifier of a span payload document.
TRACE_SCHEMA = "repro-trace/1"

_TRACEPARENT_RE = re.compile(
    r"^([0-9a-f]{2})-([0-9a-f]{32})-([0-9a-f]{16})-([0-9a-f]{2})$"
)


def _hex_id(n_bytes: int) -> str:
    """``n_bytes`` of OS randomness as lowercase hex."""
    return os.urandom(n_bytes).hex()


@dataclass(frozen=True)
class TraceContext:
    """One position in a trace: ids only, no timing, pickle-safe.

    ``trace_id`` is shared by every span of one request journey;
    ``span_id`` names this position; ``parent_id`` names the position it
    descends from (``None`` for a locally-minted root).
    """

    trace_id: str
    span_id: str
    parent_id: Optional[str] = None

    def __post_init__(self):
        """Reject ids that could not have come from the hex minters."""
        if len(self.trace_id) != 32 or len(self.span_id) != 16:
            raise ValueError(
                f"trace_id must be 32 hex chars and span_id 16: "
                f"{self.trace_id!r}/{self.span_id!r}"
            )

    @classmethod
    def new(cls) -> "TraceContext":
        """Mint a fresh root context (new trace id, no parent)."""
        return cls(trace_id=_hex_id(16), span_id=_hex_id(8))

    def child(self) -> "TraceContext":
        """A fresh child position under this context's span."""
        return TraceContext(
            trace_id=self.trace_id,
            span_id=_hex_id(8),
            parent_id=self.span_id,
        )

    def to_traceparent(self) -> str:
        """The W3C ``traceparent`` header value for this position."""
        return (
            f"{TRACEPARENT_VERSION}-{self.trace_id}-{self.span_id}-"
            f"{TRACEPARENT_FLAGS}"
        )

    @classmethod
    def from_traceparent(cls, header: Optional[str]) -> Optional["TraceContext"]:
        """Parse a ``traceparent`` header; ``None`` when absent/malformed.

        Malformed headers are *dropped*, not errors: a request with a
        bad header is simply served untraced, per the W3C guidance.
        """
        if not header:
            return None
        match = _TRACEPARENT_RE.match(header.strip().lower())
        if match is None:
            return None
        _version, trace_id, span_id, _flags = match.groups()
        if trace_id == "0" * 32 or span_id == "0" * 16:
            return None
        return cls(trace_id=trace_id, span_id=span_id)


@dataclass(frozen=True)
class Span:
    """One finished, timed operation inside a trace.

    ``started_at`` is epoch seconds (cross-process comparable);
    ``elapsed_s`` comes from the monotonic clock of the recording
    process. ``attrs`` values must be JSON-safe scalars.
    """

    name: str
    kind: str
    trace_id: str
    span_id: str
    parent_id: Optional[str]
    started_at: float
    elapsed_s: float
    pid: int
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def end_at(self) -> float:
        """Epoch seconds at which the span finished."""
        return self.started_at + self.elapsed_s

    def to_dict(self) -> Dict:
        """JSON-safe wire form (see :func:`span_from_dict`)."""
        return {
            "name": self.name,
            "kind": self.kind,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "started_at": self.started_at,
            "elapsed_s": self.elapsed_s,
            "pid": self.pid,
            "attrs": dict(self.attrs),
        }


def span_from_dict(data: Dict) -> Span:
    """Rebuild a :class:`Span` from its :meth:`Span.to_dict` form."""
    return Span(
        name=data["name"],
        kind=data["kind"],
        trace_id=data["trace_id"],
        span_id=data["span_id"],
        parent_id=data.get("parent_id"),
        started_at=float(data["started_at"]),
        elapsed_s=float(data["elapsed_s"]),
        pid=int(data.get("pid", 0)),
        attrs=dict(data.get("attrs") or {}),
    )


def finished_span(
    context: TraceContext,
    name: str,
    kind: str,
    started_at: float,
    elapsed_s: float,
    **attrs,
) -> Span:
    """A completed span at an exact, already-known context and timing.

    For stages whose boundaries were observed *before* the span object
    could exist — e.g. the queue wait, measured between two job
    timestamps — where a context manager would re-measure the wrong
    interval.
    """
    return Span(
        name=name,
        kind=kind,
        trace_id=context.trace_id,
        span_id=context.span_id,
        parent_id=context.parent_id,
        started_at=started_at,
        elapsed_s=max(0.0, elapsed_s),
        pid=os.getpid(),
        attrs=attrs,
    )


class _ActiveSpan:
    """Context manager measuring one span; records it on exit.

    ``context`` is available from ``__enter__`` on, so child work can be
    parented before the span finishes. Extra attributes can be attached
    mid-flight with :meth:`annotate`.
    """

    __slots__ = ("_recorder", "_name", "_kind", "context", "_attrs",
                 "_started_at", "_t0")

    def __init__(self, recorder: "SpanRecorder", name: str, kind: str,
                 parent: Optional[TraceContext], attrs: Dict[str, object]):
        self._recorder = recorder
        self._name = name
        self._kind = kind
        self.context = parent.child() if parent is not None else TraceContext.new()
        self._attrs = attrs
        self._started_at = 0.0
        self._t0 = 0.0

    def annotate(self, **attrs) -> None:
        """Attach/overwrite attributes on the eventual span."""
        self._attrs.update(attrs)

    def __enter__(self) -> "_ActiveSpan":
        self._started_at = time.time()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self._attrs.setdefault("error", f"{exc_type.__name__}: {exc}")
        self._recorder.record(
            Span(
                name=self._name,
                kind=self._kind,
                trace_id=self.context.trace_id,
                span_id=self.context.span_id,
                parent_id=self.context.parent_id,
                started_at=self._started_at,
                elapsed_s=time.perf_counter() - self._t0,
                pid=os.getpid(),
                attrs=self._attrs,
            )
        )


class SpanRecorder:
    """Thread-safe collector of finished spans.

    Process-safety is by value, not by sharing: each process records
    into its own recorder, spans travel back pickled with the results,
    and the parent folds them in with :meth:`extend`.
    """

    def __init__(self):
        """Start empty."""
        self._spans: List[Span] = []
        self._lock = threading.Lock()

    def __len__(self) -> int:
        """Number of recorded spans."""
        return len(self._spans)

    def span(self, name: str, kind: str,
             parent: Optional[TraceContext] = None, **attrs) -> _ActiveSpan:
        """A context manager that times its body and records the span."""
        return _ActiveSpan(self, name, kind, parent, attrs)

    def record(self, span: Span) -> None:
        """Append one finished span."""
        with self._lock:
            self._spans.append(span)

    def extend(self, spans: Sequence[Span]) -> None:
        """Fold in spans recorded elsewhere (another thread or process)."""
        with self._lock:
            self._spans.extend(spans)

    def spans(self) -> List[Span]:
        """Snapshot of every recorded span, in recording order."""
        with self._lock:
            return list(self._spans)


class _NullActiveSpan:
    """Shared no-op active span: no clock reads, no context."""

    __slots__ = ()

    context: Optional[TraceContext] = None

    def annotate(self, **attrs) -> None:
        """No-op."""

    def __enter__(self) -> "_NullActiveSpan":
        """No-op."""
        return self

    def __exit__(self, *exc) -> None:
        """No-op."""


class NullRecorder:
    """Drop-in recorder that measures and stores nothing (tracing off)."""

    _SPAN = _NullActiveSpan()

    def __len__(self) -> int:
        """Always zero."""
        return 0

    def span(self, name: str, kind: str,
             parent: Optional[TraceContext] = None, **attrs) -> _NullActiveSpan:
        """The shared no-op active span, whatever the arguments."""
        return self._SPAN

    def record(self, span: Span) -> None:
        """No-op."""

    def extend(self, spans: Sequence[Span]) -> None:
        """No-op."""

    def spans(self) -> List[Span]:
        """Always empty."""
        return []


#: Shared no-op instance the instrumented layers fall back to.
NULL_TRACER = NullRecorder()


def section_spans(
    parent: TraceContext,
    started_at: float,
    sections: Dict[str, float],
) -> List[Span]:
    """Engine :class:`~repro.obs.profiler.StepProfiler` totals as leaf spans.

    Sections are per-step aggregates, so they are laid out
    *sequentially* from the parent span's start in canonical engine
    order: the waterfall and the Chrome trace show shares of the run,
    not the original per-step interleaving.
    """
    from repro.obs.profiler import ENGINE_SECTIONS

    ordered = [n for n in ENGINE_SECTIONS if n in sections] + [
        n for n in sections if n not in ENGINE_SECTIONS
    ]
    spans: List[Span] = []
    cursor = started_at
    for name in ordered:
        spans.append(
            finished_span(
                parent.child(), name, KIND_SECTION, cursor, sections[name]
            )
        )
        cursor += sections[name]
    return spans


# ---------------------------------------------------------------------------
# Trace documents, validation, rendering
# ---------------------------------------------------------------------------


def spans_payload(spans: Sequence[Span], trace_id: Optional[str] = None) -> Dict:
    """The JSON document served by ``GET /jobs/<id>/trace``."""
    spans = list(spans)
    if trace_id is None and spans:
        trace_id = spans[0].trace_id
    return {
        "schema": TRACE_SCHEMA,
        "trace_id": trace_id,
        "n_spans": len(spans),
        "spans": [s.to_dict() for s in spans],
    }


def spans_from_payload(payload: Dict) -> List[Span]:
    """Rebuild spans from a :func:`spans_payload` document."""
    if payload.get("schema") != TRACE_SCHEMA:
        raise ValueError(
            f"expected trace schema {TRACE_SCHEMA!r}, got "
            f"{payload.get('schema')!r}"
        )
    return [span_from_dict(d) for d in payload.get("spans", [])]


def validate_trace(
    spans: Sequence[Span], root_kind: Optional[str] = None
) -> List[str]:
    """Structural problems of a span set; empty list means well-formed.

    Checks: at least one span, unique span ids, a single trace id,
    exactly one root (a span whose parent is not in the set — a remote
    parent, e.g. the client's span, is allowed), every other span's
    parent recorded, and — when ``root_kind`` is given — the root being
    of that kind. This is the same contract ``scripts/check_trace.py``
    enforces in CI without importing the package.
    """
    problems: List[str] = []
    spans = list(spans)
    if not spans:
        return ["trace has no spans"]
    ids = [s.span_id for s in spans]
    if len(set(ids)) != len(ids):
        problems.append("duplicate span ids")
    trace_ids = {s.trace_id for s in spans}
    if len(trace_ids) != 1:
        problems.append(f"multiple trace ids: {sorted(trace_ids)}")
    known = set(ids)
    roots = [s for s in spans if s.parent_id is None or s.parent_id not in known]
    if len(roots) != 1:
        problems.append(
            f"expected exactly one root span, found {len(roots)}: "
            f"{[s.name for s in roots]}"
        )
    elif root_kind is not None and roots[0].kind != root_kind:
        problems.append(
            f"root span {roots[0].name!r} has kind {roots[0].kind!r}, "
            f"expected {root_kind!r}"
        )
    return problems


def _ordered_tree(spans: Sequence[Span]) -> List[tuple]:
    """``(depth, span)`` pairs in waterfall order (DFS, starts ascending)."""
    known = {s.span_id for s in spans}
    children: Dict[Optional[str], List[Span]] = {}
    for s in spans:
        parent = s.parent_id if s.parent_id in known else None
        children.setdefault(parent, []).append(s)
    for siblings in children.values():
        siblings.sort(key=lambda s: (s.started_at, s.name))
    out: List[tuple] = []

    def visit(span: Span, depth: int) -> None:
        out.append((depth, span))
        for child in children.get(span.span_id, []):
            visit(child, depth + 1)

    for root in children.get(None, []):
        visit(root, 0)
    return out


def render_waterfall(spans: Sequence[Span], width: int = 48) -> str:
    """An ASCII waterfall of one trace: tree on the left, bars on the right.

    One row per span in depth-first order; each bar is positioned on the
    shared wall-clock axis via :func:`repro.util.ascii_plot.span_bar`,
    annotated with the span's duration, kind and salient attributes.
    """
    spans = list(spans)
    if not spans:
        return "(empty trace)\n"
    t0 = min(s.started_at for s in spans)
    t1 = max(s.end_at for s in spans)
    rows = _ordered_tree(spans)
    labels = []
    for depth, span in rows:
        tag = span.attrs.get("mode") or span.attrs.get("cache")
        suffix = f" [{tag}]" if tag else ""
        labels.append(f"{'  ' * depth}{span.name}{suffix}")
    label_width = max(len(label) for label in labels)
    header = (
        f"trace {spans[0].trace_id[:12]}…  "
        f"{len(spans)} spans  {(t1 - t0) * 1e3:.2f} ms total"
    )
    lines = [header]
    for label, (_depth, span) in zip(labels, rows):
        bar = span_bar(t0, t1, span.started_at, span.end_at, width=width)
        lines.append(
            f"{label.ljust(label_width)} {bar} "
            f"{span.elapsed_s * 1e3:9.2f} ms  {span.kind}"
        )
    return "\n".join(lines) + "\n"
