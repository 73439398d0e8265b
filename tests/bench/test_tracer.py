"""The benchmark's call-site wrappers measure without changing the path."""

import math
import sys
import types

from bench.common import canonical
from bench.spec import PER_LAYER
from bench.tracer import TARGETS, Target, Tracer, _resolve
from bench.workloads import fault_plan
from repro import (
    ParallelRunner,
    ResultCache,
    RunPoint,
    SimulationConfig,
    ThermalTimingSimulator,
    get_workload,
    spec_by_key,
)
from repro.sim.fleet import FleetEngine
from repro.thermal.layouts import build_cmp_floorplan
from repro.thermal.model import ThermalModel
from repro.thermal.package import HIGH_PERFORMANCE_PACKAGE

TINY_S = 0.002  # 72 engine steps


def _point(spec_key=None, threshold=84.2, faults=False, duration_s=TINY_S):
    return RunPoint(
        get_workload("workload7"),
        spec_by_key(spec_key) if spec_key else None,
        SimulationConfig(
            duration_s=duration_s, threshold_c=threshold, warm_start_fraction=0.5,
            fault_plan=fault_plan(TINY_S) if faults else None,
        ),
    )


def _raw_attributes():
    out = {}
    for target in TARGETS:
        resolved = _resolve(target)
        if resolved is not None:
            owner, name, _raw = resolved
            out[(target.module, target.attr)] = (owner, name, owner.__dict__.get(name))
    return out


def test_fusion_eligible_run_stays_fused_under_wrappers():
    point = _point()
    with Tracer() as tracer:
        sim = ThermalTimingSimulator(point.workload.benchmarks, None, point.config)
        sim.run()
    assert sim.fusion_blockers == ()
    assert sim.last_run_fused
    summary = tracer.summary()
    assert summary["engine.runs_fused"] == 1
    assert summary.get("engine.runs_stepwise", 0) == 0
    assert summary["engine.steps"] == 72
    assert summary["thermal.StepOperator.apply.calls"] == 72


def test_fleet_members_still_fuse_under_wrappers():
    points = [_point(threshold=t) for t in (80.0, 82.0, 84.0)]
    with Tracer() as tracer:
        engine = FleetEngine(points)
        engine.run()
    assert all(m.sim.last_run_fused for m in engine.members)
    summary = tracer.summary()
    assert summary["fleet.members"] == 3
    assert summary["fleet.members_fused"] == 3
    assert summary["thermal.StepOperator.apply_batch.rows"] == 3 * 72


def test_wrapped_results_are_bitwise_equal_to_unwrapped():
    points = [
        _point(), _point("distributed-dvfs-sensor"),
        _point("distributed-stop-go-none", faults=True),
    ]

    def run_both():
        pool = ParallelRunner(jobs=1).run_points(points)
        fleet = ParallelRunner(backend="fleet").run_points(points)
        return canonical(pool), canonical(fleet)

    plain = run_both()
    with Tracer():
        wrapped = run_both()
    assert wrapped == plain
    assert plain[0] == plain[1]


def test_every_original_callable_is_restored():
    before = _raw_attributes()
    assert len(before) == len(TARGETS)
    tracer = Tracer().install()
    assert any(
        owner.__dict__.get(name) is not raw
        for owner, name, raw in before.values()
    )
    tracer.restore()
    assert _raw_attributes() == before


def test_inherited_attribute_is_removed_again(monkeypatch):
    module = types.ModuleType("bench_fake_layer")

    class Base:
        def work(self):
            return 1

    class Child(Base):
        pass

    module.Child = Child
    monkeypatch.setitem(sys.modules, module.__name__, module)
    tracer = Tracer((Target("fake.work", module.__name__, "Child.work"),))
    with tracer:
        assert "work" in Child.__dict__
        assert Child().work() == 1
    assert "work" not in Child.__dict__
    assert tracer.summary()["fake.work.calls"] == 1


def test_absent_targets_are_tolerated():
    targets = (
        Target("gone.module", "repro.no_such_module", "f"),
        Target("gone.class", "repro.sim.engine", "NoSuchEngine.run"),
        Target("gone.method", "repro.sim.engine", "ThermalTimingSimulator.gone"),
        Target("kept", "repro.sim.engine", "ThermalTimingSimulator.run", span=True),
    )
    point = _point()
    with Tracer(targets) as tracer:
        ThermalTimingSimulator(point.workload.benchmarks, None, point.config).run()
    assert len(tracer.absent) == 3
    assert tracer.summary()["kept.calls"] == 1


def test_self_time_excludes_child_spans_and_outer_leaves(monkeypatch):
    module = types.ModuleType("bench_fake_stack")

    def leaf(inner=False):
        if inner:
            module.leaf()
        return 0

    def outer():
        module.inner_span()
        module.leaf(inner=True)

    module.leaf = leaf
    module.outer = outer
    module.inner_span = lambda: sum(range(1000))
    monkeypatch.setitem(sys.modules, module.__name__, module)
    targets = (
        Target("outer", module.__name__, "outer", span=True),
        Target("inner", module.__name__, "inner_span", span=True),
        Target("leaf", module.__name__, "leaf"),
    )
    with Tracer(targets) as tracer:
        module.outer()
    s = tracer.summary()
    assert s["leaf.calls"] == 2  # the nested call counts, once
    expected = s["outer.busy_s"] - s["inner.busy_s"]
    assert s["outer.self_s"] < expected
    assert s["outer.self_s"] >= 0.0
    assert math.isclose(s["inner.self_s"], s["inner.busy_s"])


def test_tracer_reports_every_program_layer_metric(tmp_path):
    """Each non-serve per-layer metric is produced (a typo would read 0)."""
    points = [
        # Long enough for one 10 ms OS tick, so migration decides once.
        _point(), _point("distributed-dvfs-sensor", duration_s=0.011),
        _point("distributed-stop-go-none"), _point("global-dvfs-counter"),
    ]
    fleet_points = [
        _point("distributed-dvfs-none", faults=True), _point(threshold=81.0),
    ]
    with Tracer() as tracer:
        runner = ParallelRunner(jobs=1, cache=ResultCache(tmp_path))
        runner.run_points(points)
        ParallelRunner(jobs=1, cache=ResultCache(tmp_path)).run_points(points)
        ParallelRunner(backend="fleet").run_points(fleet_points)
        runner.map_cached("bench-test", math.sqrt, [4.0])
        runner.map_cached("bench-test", math.sqrt, [4.0])
        model = ThermalModel(build_cmp_floorplan(4), HIGH_PERFORMANCE_PACKAGE, 1e-3)
        model.step([1.0] * model.network.n_blocks)
    summary = tracer.summary()
    program = [
        m.name for m in PER_LAYER
        if not m.name.startswith(("serve.", "experiments.", "bench."))
    ]
    missing = [name for name in program if name not in summary]
    assert missing == []
    # 4 points on the second runner, then the warm map_cached task.
    assert summary["runner.points_cached"] == 5
    # 4 points and the cold task on the first runner; 2 in the fleet.
    assert summary["runner.points_pool"] == 5
    assert summary["runner.points_fleet"] == 2
    cache = ResultCache(tmp_path)
    assert summary["runner.ResultCache.put.bytes"] == cache.total_bytes > 0
    assert 0.0 < summary["runner.cache_hit_ratio"] < 1.0


def test_trace_generation_counts_at_engine_call_site():
    point = RunPoint(
        get_workload("workload3"), None,
        SimulationConfig(duration_s=TINY_S, seed=424242),
    )
    with Tracer() as tracer:
        ParallelRunner(jobs=1).run_points([point])
    assert tracer.summary()["uarch.generate_trace.calls"] == 4
