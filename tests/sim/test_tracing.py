"""Non-perturbation contract of tracing at the runner/engine layer.

The two invariants `docs/OBSERVABILITY.md` §0 promises for every
observer hold for the span layer too:

* a traced run's results are **bit-identical** to an untraced run —
  across the fused, stepwise, fleet and faulted execution paths;
* trace state never enters the result-cache key, so traced and
  untraced runs share one cache entry in both directions.

Plus the process-pool plumbing: `TraceContext` survives a real pickle
round trip through worker processes, and the spans that come back form
one connected tree.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import replace

from repro.core.taxonomy import BASELINE_SPEC, spec_by_key
from repro.obs.tracing import (
    KIND_EXECUTE,
    KIND_GROUP,
    KIND_POINT,
    KIND_SECTION,
    SpanRecorder,
    TraceContext,
    validate_trace,
)
from repro.sim.bench import _bench_fault_plan
from repro.sim.engine import SimulationConfig
from repro.sim.runner import (
    ParallelRunner,
    ResultCache,
    RunPoint,
    config_hash,
)
from repro.sim.workloads import get_workload

CFG = SimulationConfig(duration_s=0.005)
W7 = get_workload("workload7")
DVFS = spec_by_key("distributed-dvfs-none")


def tracing_points():
    """Fused (unthrottled), stepwise (dvfs) and faulted points."""
    return [
        RunPoint(W7, None, CFG),
        RunPoint(W7, DVFS, CFG),
        RunPoint(
            W7, BASELINE_SPEC,
            replace(CFG, fault_plan=_bench_fault_plan(CFG.duration_s)),
        ),
    ]


def as_dicts(results):
    return [dataclasses.asdict(r) for r in results]


class TestNonPerturbation:
    def test_traced_pool_run_is_bit_identical(self):
        """Fused, stepwise and faulted paths agree traced vs untraced."""
        points = tracing_points()
        plain = ParallelRunner(
            jobs=1, cache=None, backend="pool"
        ).run_points(points)
        tracer = SpanRecorder()
        traced = ParallelRunner(
            jobs=1, cache=None, backend="pool"
        ).run_points(points, tracer=tracer)
        assert as_dicts(plain) == as_dicts(traced)
        assert len(tracer) > 0

    def test_traced_fleet_run_is_bit_identical(self):
        points = [RunPoint(W7, None, CFG), RunPoint(W7, None, replace(
            CFG, threshold_c=90.0))]
        plain = ParallelRunner(
            jobs=1, cache=None, backend="fleet"
        ).run_points(points)
        tracer = SpanRecorder()
        traced = ParallelRunner(
            jobs=1, cache=None, backend="fleet"
        ).run_points(points, tracer=tracer)
        assert as_dicts(plain) == as_dicts(traced)
        kinds = {s.kind for s in tracer.spans()}
        assert KIND_GROUP in kinds
        assert KIND_POINT in kinds

    def test_trace_never_enters_the_cache_key(self, tmp_path):
        """Traced and untraced runs share cache entries both ways."""
        points = tracing_points()
        for point in points:
            assert config_hash(point, "v") == config_hash(point, "v")

        cold = ParallelRunner(
            jobs=1, cache=ResultCache(tmp_path), version="v"
        )
        cold_results = cold.run_points(points, tracer=SpanRecorder())
        assert cold.stats.simulated == len(points)

        # Untraced rerun hits every traced-run entry ...
        warm = ParallelRunner(
            jobs=1, cache=ResultCache(tmp_path), version="v"
        )
        warm_results = warm.run_points(points)
        assert warm.stats.simulated == 0
        assert warm.stats.cache_hits == len(points)
        assert as_dicts(cold_results) == as_dicts(warm_results)

        # ... and a traced rerun hits them too, with cache-hit spans.
        tracer = SpanRecorder()
        third = ParallelRunner(
            jobs=1, cache=ResultCache(tmp_path), version="v"
        )
        third_results = third.run_points(points, tracer=tracer)
        assert third.stats.simulated == 0
        assert as_dicts(third_results) == as_dicts(cold_results)
        hits = [
            s for s in tracer.spans() if s.attrs.get("cache") == "hit"
        ]
        assert len(hits) == len(points)
        assert all(s.elapsed_s == 0.0 for s in hits)


class TestProcessPoolPropagation:
    def test_context_survives_a_real_process_pool(self, tmp_path):
        """jobs=2 ships contexts out and spans back; the tree connects."""
        points = [
            RunPoint(W7, None, CFG),
            RunPoint(W7, DVFS, CFG),
        ]
        tracer = SpanRecorder()
        runner = ParallelRunner(
            jobs=2, cache=None, tracer=tracer, backend="pool"
        )
        root = TraceContext.new()
        results = runner.run_points(points, trace=root)
        assert len(results) == len(points)

        spans = tracer.spans()
        kinds = {s.kind for s in spans}
        assert KIND_POINT in kinds
        assert KIND_SECTION in kinds
        # Every span belongs to the caller's trace and links back to it.
        assert {s.trace_id for s in spans} == {root.trace_id}
        point_spans = [s for s in spans if s.kind == KIND_POINT]
        assert len(point_spans) == len(points)
        assert {s.parent_id for s in point_spans} == {root.span_id}
        # Worker-recorded spans name worker pids (one Chrome-trace lane
        # per worker), parented correctly.
        assert all(s.pid != os.getpid() for s in point_spans)
        section_spans_ = [s for s in spans if s.kind == KIND_SECTION]
        point_ids = {s.span_id for s in point_spans}
        assert all(s.parent_id in point_ids for s in section_spans_)

    def test_standalone_traced_run_roots_itself(self):
        """With a tracer but no inbound context, a batch span roots all."""
        tracer = SpanRecorder()
        ParallelRunner(jobs=1, cache=None).run_points(
            [RunPoint(W7, None, CFG)], tracer=tracer
        )
        spans = tracer.spans()
        assert validate_trace(spans, root_kind=KIND_EXECUTE) == []
