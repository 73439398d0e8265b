"""Time repro's layers from outside, by wrapping callables at call sites.

The traced run installs a wrapper on each :data:`TARGETS` entry — a class
attribute (``StepOperator.apply``) or the module global a call site looks
up (``repro.sim.engine.coupled_steady_state``) — and removes every wrapper
afterwards. Wrappers only read the clock and pass arguments and results
through untouched, so the engine takes the same path it takes untraced:
nothing here is a fusion blocker, unlike ``StepProfiler``.

Two kinds of wrapper:

* **span** targets (coarse calls such as ``ParallelRunner.run_points``)
  record one span each: name, start, end, parent span and the
  benchmark operation it belongs to;
* **leaf** targets (hot calls such as ``StepOperator.apply``) are
  aggregated per ``(parent span, function)`` into a call count and busy
  time, so memory stays bounded however many steps run.

A span's self time is its duration minus its child spans and the
outermost leaf calls made directly under it. A target that no longer
exists is reported as absent, never as an error, so a refactor of the
program never has to edit the benchmark. State is per thread (the serve
workload runs requests on several), merged when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple


@dataclass(frozen=True)
class Target:
    """One wrapped callable.

    Attributes:
        metric: Metric prefix (``<prefix>.calls``, ``<prefix>.busy_s``).
        module: Module holding the call site's lookup.
        attr: Dotted attribute path inside ``module``.
        span: Record individual spans instead of per-parent aggregates.
        before: Optional ``before(args) -> token``, called before the call.
        after: Optional ``after(counters, args, result, token)``, called
            after it returns, outside the timed interval.
    """

    metric: str
    module: str
    attr: str
    span: bool = False
    before: Optional[Callable] = None
    after: Optional[Callable] = None


def _apply_batch_rows(counters, args, result, token):
    counters["thermal.StepOperator.apply_batch.rows"] += len(args[1])


def _steps_of(sim) -> int:
    return max(1, int(round(sim.config.duration_s / sim.dt)))


def _engine_run(counters, args, result, token):
    sim = args[0]
    counters["engine.steps"] += _steps_of(sim)
    fused = getattr(sim, "last_run_fused", False)
    counters["engine.runs_fused" if fused else "engine.runs_stepwise"] += 1


def _fleet_init(counters, args, result, token):
    counters["fleet.members"] += len(getattr(args[0], "members", ()))


def _fleet_run(counters, args, result, token):
    for member in getattr(args[0], "members", ()):
        sim = getattr(member, "sim", None)
        if sim is None:
            continue
        counters["fleet.member_steps"] += _steps_of(sim)
        if getattr(sim, "last_run_fused", False):
            counters["fleet.members_fused"] += 1


def _runner_stats(args):
    stats = getattr(args[0], "stats", None)
    return None if stats is None else (stats.cache_hits, stats.simulated)


def _runner_points(counters, args, result, token):
    if token is not None:
        hits, simulated = _runner_stats(args)
        counters["runner.points_cached"] += hits - token[0]
        counters["runner.points_simulated"] += simulated - token[1]


def _cache_hit(counters, args, result, token):
    if result is not None:
        counters["runner.ResultCache.get.hits"] += 1


def _cache_bytes(args):
    return getattr(args[0], "total_bytes", None)


def _cache_put_bytes(counters, args, result, token):
    # Growth of the cache's own size account; puts that overlap in other
    # threads, or evictions they trigger, blur it slightly.
    if token is not None:
        counters["runner.ResultCache.put.bytes"] += _cache_bytes(args) - token


TARGETS: Tuple[Target, ...] = (
    Target("uarch.generate_trace", "repro.sim.engine", "generate_trace"),
    Target("uarch.generate_trace", "repro.experiments.table1", "generate_trace"),
    Target("thermal.ThermalModel.init", "repro.thermal.model",
           "ThermalModel.__init__"),
    Target("thermal.StepOperator.apply", "repro.thermal.model",
           "StepOperator.apply"),
    Target("thermal.StepOperator.apply_batch", "repro.thermal.model",
           "StepOperator.apply_batch", after=_apply_batch_rows),
    Target("thermal.ThermalModel.step", "repro.thermal.model",
           "ThermalModel.step"),
    Target("thermal.LeakageModel.power_fast", "repro.thermal.leakage",
           "LeakageModel.power_fast"),
    Target("thermal.LeakageModel.power", "repro.thermal.leakage",
           "LeakageModel.power"),
    Target("thermal.coupled_steady_state", "repro.sim.engine",
           "coupled_steady_state"),
    Target("thermal.coupled_steady_state", "repro.thermal.coupling",
           "coupled_steady_state"),
    Target("core.DVFSPolicy.scales_from_hottest", "repro.core.dvfs",
           "DVFSPolicy.scales_from_hottest"),
    Target("core.StopGoPolicy.scales_from_hottest", "repro.core.stopgo",
           "StopGoPolicy.scales_from_hottest"),
    Target("core.DVFSActuator.request", "repro.core.dvfs",
           "DVFSActuator.request"),
    Target("core.MigrationPolicy.decide", "repro.core.migration",
           "MigrationPolicy.decide"),
    Target("control.PIBank.step_prefix", "repro.control.pi",
           "PIBank.step_prefix"),
    Target("control.design_pi", "repro.control.pi", "design_pi"),
    Target("faults.FleetFaultInjector.apply_sensor_faults",
           "repro.faults.injector", "FleetFaultInjector.apply_sensor_faults"),
    Target("sim.MetricsAccumulator.record_step", "repro.sim.metrics",
           "MetricsAccumulator.record_step"),
    Target("engine.ThermalTimingSimulator.init", "repro.sim.engine",
           "ThermalTimingSimulator.__init__"),
    Target("engine.ThermalTimingSimulator.run", "repro.sim.engine",
           "ThermalTimingSimulator.run", span=True, after=_engine_run),
    Target("fleet.FleetEngine.init", "repro.sim.fleet",
           "FleetEngine.__init__", after=_fleet_init),
    Target("fleet.FleetEngine.run", "repro.sim.fleet", "FleetEngine.run",
           span=True, after=_fleet_run),
    Target("runner.run_points", "repro.sim.runner",
           "ParallelRunner.run_points", span=True, before=_runner_stats,
           after=_runner_points),
    Target("runner.map_cached", "repro.sim.runner",
           "ParallelRunner.map_cached", span=True, before=_runner_stats,
           after=_runner_points),
    Target("runner.config_hash", "repro.sim.runner", "config_hash"),
    Target("runner.code_version", "repro.sim.runner", "code_version"),
    Target("runner.ResultCache.get", "repro.sim.runner", "ResultCache.get",
           after=_cache_hit),
    Target("runner.ResultCache.put", "repro.sim.runner", "ResultCache.put",
           before=_cache_bytes, after=_cache_put_bytes),
    Target("serve.JobRequest.parse", "repro.serve.protocol",
           "JobRequest.parse"),
    Target("serve.ServeExecutor.execute", "repro.serve.server",
           "ServeExecutor.execute", span=True),
    Target("serve.job_payload", "repro.serve.server", "job_payload"),
)


class _ThreadState:
    """One thread's open spans, finished spans, aggregates and counters."""

    def __init__(self):
        self.stack: List[int] = []
        self.op: Optional[str] = None
        self.leaf_depth = 0
        #: ``(id, parent, name, start, end, op)`` per finished span.
        self.spans: List[Tuple] = []
        #: ``(parent span, metric) -> [calls, busy_s]``.
        self.leaves: Dict[Tuple[int, str], List] = {}
        #: Busy time of outermost leaf calls directly under each span.
        self.leaf_busy: Dict[int, float] = defaultdict(float)
        self.counters: Dict[str, float] = defaultdict(float)


class Tracer:
    """Wraps :data:`TARGETS` while installed; collects spans and counts.

    Use as a context manager, or call :meth:`install` and
    :meth:`restore`. :meth:`span` and :meth:`op` record spans from the
    benchmark's own code around its calls into the program.
    """

    def __init__(self, targets: Tuple[Target, ...] = TARGETS):
        """Prepare (but do not install) wrappers for ``targets``."""
        self.targets = targets
        #: ``module:attr`` of every target that could not be resolved.
        self.absent: List[str] = []
        self._installed: List[Tuple[object, str, object, bool]] = []
        self._states: List[_ThreadState] = []
        self._states_lock = threading.Lock()
        tracer = self

        class _Local(threading.local):
            def __init__(self):
                self.state = _ThreadState()
                with tracer._states_lock:
                    tracer._states.append(self.state)

        self._local = _Local()
        self._ids = itertools.count(1)
        self.origin = time.perf_counter()

    # -- installation --------------------------------------------------------

    def install(self) -> "Tracer":
        """Wrap every resolvable target; unresolvable ones go to ``absent``."""
        for target in self.targets:
            resolved = _resolve(target)
            if resolved is None:
                self.absent.append(f"{target.module}:{target.attr}")
                continue
            owner, name, raw = resolved
            # An inherited method is wrapped on the named class and later
            # deleted from it again, rather than overwriting the base's.
            own = not isinstance(owner, type) or name in owner.__dict__
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrap(raw.__func__, target))
            else:
                wrapped = self._wrap(raw, target)
            setattr(owner, name, wrapped)
            self._installed.append((owner, name, raw, own))
        return self

    def restore(self) -> None:
        """Put every original callable back, in reverse order."""
        while self._installed:
            owner, name, raw, own = self._installed.pop()
            if own:
                setattr(owner, name, raw)
            else:
                delattr(owner, name)

    def __enter__(self) -> "Tracer":
        """Install the wrappers."""
        return self.install()

    def __exit__(self, *exc) -> None:
        """Restore the originals."""
        self.restore()

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, fn: Callable, target: Target) -> Callable:
        local = self._local
        clock = time.perf_counter
        metric = target.metric
        before = target.before
        after = target.after

        if target.span:
            @functools.wraps(fn)
            def span_wrapper(*args, **kwargs):
                token = before(args) if before is not None else None
                with self.span(metric):
                    result = fn(*args, **kwargs)
                if after is not None:
                    after(local.state.counters, args, result, token)
                return result

            return span_wrapper

        @functools.wraps(fn)
        def leaf_wrapper(*args, **kwargs):
            st = local.state
            token = before(args) if before is not None else None
            st.leaf_depth += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                st.leaf_depth -= 1
                parent = st.stack[-1] if st.stack else 0
                agg = st.leaves.get((parent, metric))
                if agg is None:
                    agg = st.leaves[(parent, metric)] = [0, 0.0]
                agg[0] += 1
                agg[1] += elapsed
                if st.leaf_depth == 0 and parent:
                    st.leaf_busy[parent] += elapsed
            if after is not None:
                after(st.counters, args, result, token)
            return result

        return leaf_wrapper

    # -- spans from the benchmark's own code -----------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a span around a block of benchmark code."""
        st = self._local.state
        sid = next(self._ids)
        parent = st.stack[-1] if st.stack else 0
        st.stack.append(sid)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            st.stack.pop()
            st.spans.append((sid, parent, name, t0, t1, st.op))

    @contextlib.contextmanager
    def op(self, op_id: str):
        """Mark spans in this thread as belonging to one workload op."""
        st = self._local.state
        previous, st.op = st.op, op_id
        try:
            with self.span("bench.op"):
                yield
        finally:
            st.op = previous

    # -- results -------------------------------------------------------------

    def _merged(self):
        with self._states_lock:
            states = list(self._states)
        spans = [s for st in states for s in st.spans]
        leaves: Dict[Tuple[int, str], List] = {}
        leaf_busy: Dict[int, float] = defaultdict(float)
        counters: Dict[str, float] = defaultdict(float)
        for st in states:
            for key, (calls, busy) in st.leaves.items():
                agg = leaves.setdefault(key, [0, 0.0])
                agg[0] += calls
                agg[1] += busy
            for sid, busy in st.leaf_busy.items():
                leaf_busy[sid] += busy
            for name, value in st.counters.items():
                counters[name] += value
        return spans, leaves, leaf_busy, counters

    def summary(self) -> Dict[str, float]:
        """Per-layer metrics: ``<target>.calls/busy_s/self_s`` and counters.

        Harness spans named ``experiments.<artifact>.compute`` and
        ``experiments.<artifact>.render`` become
        ``experiments.<artifact>.compute_s`` and ``experiments.render_s``.
        """
        spans, leaves, leaf_busy, counters = self._merged()
        out: Dict[str, float] = defaultdict(float)
        child_time: Dict[int, float] = defaultdict(float)
        for sid, parent, _name, t0, t1, _op in spans:
            child_time[parent] += t1 - t0
        for sid, _parent, name, t0, t1, _op in spans:
            dur = t1 - t0
            if name.startswith("experiments."):
                if name.endswith(".render"):
                    out["experiments.render_s"] += dur
                else:
                    out[name + "_s"] += dur
                continue
            out[f"{name}.calls"] += 1
            out[f"{name}.busy_s"] += dur
            out[f"{name}.self_s"] += dur - child_time[sid] - leaf_busy[sid]
        for (_parent, name), (calls, busy) in leaves.items():
            out[f"{name}.calls"] += calls
            out[f"{name}.busy_s"] += busy
        out.update(counters)

        def ratio(num, den, scale=1.0):
            return scale * num / den if den else 0.0

        out["engine.us_per_step"] = ratio(
            out["engine.ThermalTimingSimulator.run.busy_s"],
            out["engine.steps"], 1e6,
        )
        out["fleet.us_per_member_step"] = ratio(
            out["fleet.FleetEngine.run.busy_s"], out["fleet.member_steps"], 1e6
        )
        out["runner.cache_hit_ratio"] = ratio(
            out["runner.ResultCache.get.hits"],
            out["runner.ResultCache.get.calls"],
        )
        # Fleet engines are built by the runner in every workload here.
        out["runner.points_fleet"] = out["fleet.members"]
        out["runner.points_pool"] = (
            out["runner.points_simulated"] - out["fleet.members"]
        )
        return dict(out)

    def write(self, path, **meta) -> None:
        """Write spans, leaf aggregates, counters and absences as JSON."""
        spans, leaves, _leaf_busy, counters = self._merged()
        doc = {
            **meta,
            "absent": self.absent,
            "spans": [
                {"id": sid, "parent": parent, "name": name,
                 "start_s": t0 - self.origin, "end_s": t1 - self.origin,
                 "op": op}
                for sid, parent, name, t0, t1, op in sorted(
                    spans, key=lambda s: s[3]
                )
            ],
            "leaves": [
                {"parent": parent, "name": name, "calls": calls,
                 "busy_s": busy}
                for (parent, name), (calls, busy) in sorted(leaves.items())
            ],
            "counters": dict(counters),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)


def _resolve(target: Target):
    """``(owner, attribute name, raw attribute)`` or None when absent."""
    try:
        owner = importlib.import_module(target.module)
    except ImportError:
        return None
    *path, name = target.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        for klass in owner.__mro__:
            if name in klass.__dict__:
                return owner, name, klass.__dict__[name]
        return None
    raw = getattr(owner, name, None)
    return None if raw is None else (owner, name, raw)


class NullTracer:
    """The untraced stand-in: :meth:`span` and :meth:`op` do nothing."""

    def span(self, name: str):
        """No-op context manager."""
        return contextlib.nullcontext()

    def op(self, op_id: str):
        """No-op context manager."""
        return contextlib.nullcontext()
