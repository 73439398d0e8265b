"""The runner's default plan: lockstep groups in the fleet, the rest scalar.

``ParallelRunner()`` plans every batch: eligible points that share a
lockstep group (one per machine for stepwise points, whatever their
throttle family, and one for fusable points) three or more at a time
step in a fleet chunk, fusable points riding a stepwise chunk of their
machine that covers their horizons, and narrower groups and blocked
points run on the scalar engine. Whatever the plan, results and cache
keys equal the scalar reference's.
"""

import dataclasses
from dataclasses import replace

import pytest

from repro.core.taxonomy import ALL_POLICY_SPECS, spec_by_key
from repro.faults.guards import GuardConfig
from repro.obs.telemetry import MetricsRegistry
from repro.obs.tracing import KIND_POINT, SpanRecorder
from repro.sim.engine import SimulationConfig
from repro.sim.runner import ParallelRunner, ResultCache, RunPoint, live_width
from repro.sim.workloads import get_workload

W7 = get_workload("workload7")
CFG = SimulationConfig(duration_s=0.002)
DVFS = spec_by_key("distributed-dvfs-none")
STOPGO = spec_by_key("global-stop-go-none")


def mixed_points():
    """Three DVFS points and a stop-go one (a group), one guarded point."""
    return [
        RunPoint(W7, DVFS, CFG),
        RunPoint(W7, STOPGO, CFG),
        RunPoint(W7, DVFS, replace(CFG, threshold_c=86.0)),
        RunPoint(W7, DVFS, replace(CFG, guard=GuardConfig())),
        RunPoint(W7, DVFS, replace(CFG, threshold_c=88.0)),
    ]


def dvfs_points(n):
    return [
        RunPoint(W7, DVFS, replace(CFG, threshold_c=80.0 + i)) for i in range(n)
    ]


def as_dicts(results):
    return [dataclasses.asdict(r) for r in results]


class TestPlan:
    def test_default_backend_is_auto(self):
        assert ParallelRunner().backend == "auto"

    def test_groups_of_three_go_to_the_fleet_the_rest_scalar(self):
        runner = ParallelRunner()
        assert runner._plan(mixed_points()) == [
            ([0, 1, 2, 4], "lockstep"),
            ([3], "sensor-guards"),
        ]

    def test_throttle_families_share_one_lockstep_chunk(self):
        """``compare``'s batch: the 12 taxonomy policies on one workload
        are one chunk, every family together."""
        points = [RunPoint(W7, spec, CFG) for spec in ALL_POLICY_SPECS]
        assert ParallelRunner()._plan(points) == [
            (list(range(12)), "lockstep")
        ]

    def test_unthrottled_points_ride_wide_stepwise_chunks_only(self):
        """A fusable point rides its machine's stepwise chunk when that
        chunk is three wide and covers its horizon; beside a narrow pair,
        or longer than every stepwise point, it stays apart."""
        unthrottled = RunPoint(W7, None, CFG)
        points = [unthrottled] + mixed_points()[:3]
        assert ParallelRunner()._plan(points) == [([0, 1, 2, 3], "lockstep")]
        assert ParallelRunner()._plan([unthrottled] + dvfs_points(2)) == [
            ([0], "narrow"),
            ([1], "narrow"),
            ([2], "narrow"),
        ]
        longer = RunPoint(W7, None, replace(CFG, duration_s=0.003))
        assert ParallelRunner()._plan([longer] + mixed_points()[:3]) == [
            ([1, 2, 3], "lockstep"),
            ([0], "narrow"),
        ]

    def test_riders_take_a_covering_chunk_under_jobs_2(self):
        """Six DVFS points split into a short and a long chunk of three;
        the long unthrottled point fits only the long chunk, the short
        one takes the less loaded one. Results equal the pool's."""
        short, long = CFG, replace(CFG, duration_s=0.003)
        points = [
            RunPoint(W7, DVFS, replace(cfg, threshold_c=80.0 + i))
            for cfg in (short, long)
            for i in range(3)
        ] + [RunPoint(W7, None, long), RunPoint(W7, None, short)]
        runner = ParallelRunner(jobs=2)
        assert runner._plan(points) == [
            ([0, 1, 2, 7], "lockstep"),
            ([3, 4, 5, 6], "lockstep"),
        ]
        pool = ParallelRunner(backend="pool").run_points(points)
        assert as_dicts(runner.run_points(points)) == as_dicts(pool)
        assert runner.stats.fleet == len(points)
        # At equal horizons the riders spread over both chunks.
        points = dvfs_points(6) + [RunPoint(W7, None, CFG)] * 2
        assert runner._plan(points) == [
            ([0, 1, 2, 6], "lockstep"),
            ([3, 4, 5, 7], "lockstep"),
        ]

    def test_riders_respect_fleet_chunk(self):
        """A chunk already at the ``fleet_chunk`` cap seats no rider."""
        points = [RunPoint(W7, None, CFG)] + dvfs_points(3)
        assert ParallelRunner(fleet_chunk=3)._plan(points) == [
            ([1, 2, 3], "lockstep"),
            ([0], "narrow"),
        ]

    def test_riders_count_as_fleet_points_with_the_group_width(self):
        """A rider is a ``fleet``/``lockstep`` point in the stats, the
        path counter and its span, tagged with its group's width."""
        points = [RunPoint(W7, None, CFG)] + mixed_points()[:3]
        registry = MetricsRegistry()
        tracer = SpanRecorder()
        runner = ParallelRunner(registry=registry, tracer=tracer)
        runner.run_points(points)
        assert (runner.stats.fleet, runner.stats.scalar) == (4, 0)
        assert registry.counter(
            "runner_points_total", path="fleet", reason="lockstep"
        ).value == 4
        spans = [s for s in tracer.spans() if s.kind == KIND_POINT]
        assert [s.attrs["path"] for s in spans] == ["fleet"] * 4
        assert [s.attrs["group_width"] for s in spans] == [4] * 4

    def test_width_counts_member_steps_over_the_longest_horizon(self):
        """Three points whose two short ones retire early are narrow;
        equal horizons are as wide as their count."""
        long = RunPoint(W7, DVFS, replace(CFG, duration_s=0.011))
        short = dvfs_points(2)
        assert live_width(dvfs_points(3)) == 3.0
        assert live_width([long] + short) < 3.0
        assert ParallelRunner()._plan([long] + short) == [
            ([0], "narrow"),
            ([1], "narrow"),
            ([2], "narrow"),
        ]

    def test_a_pair_runs_on_the_scalar_engine(self):
        assert ParallelRunner()._plan(dvfs_points(2)) == [
            ([0], "narrow"),
            ([1], "narrow"),
        ]

    def test_auto_matches_pool_and_counts_paths(self):
        points = mixed_points()
        pool = ParallelRunner(backend="pool").run_points(points)
        runner = ParallelRunner()
        auto = runner.run_points(points)
        assert as_dicts(auto) == as_dicts(pool)
        stats = runner.stats
        assert (stats.fleet, stats.scalar) == (4, 1)
        assert stats.fallbacks == {"sensor-guards": 1}
        assert stats.summary().startswith(
            "5 points: 5 simulated (4 fleet, 1 scalar: 1 sensor-guards), "
            "0 cached"
        )

    def test_fleet_backend_steps_singletons_in_the_fleet(self):
        runner = ParallelRunner(backend="fleet")
        assert runner._plan(mixed_points()) == [
            ([0, 1, 2, 4], "lockstep"),
            ([3], "sensor-guards"),
        ]

    def test_pool_backend_plans_every_point_scalar(self):
        runner = ParallelRunner(backend="pool")
        assert runner._plan(dvfs_points(2)) == [
            ([0], "pool-backend"),
            ([1], "pool-backend"),
        ]

    @pytest.mark.parametrize(
        "jobs, chunk, sizes, narrow",
        [
            (1, None, [7], 0),
            (2, None, [4, 3], 0),
            (8, None, [4, 3], 0),  # at most n // 3 chunks of three or more
            (1, 3, [3], 4),  # the chunks of two run scalar
            (4, 4, [4, 3], 0),
        ],
    )
    def test_groups_split_by_jobs_and_fleet_chunk(
        self, jobs, chunk, sizes, narrow
    ):
        runner = ParallelRunner(jobs=jobs, fleet_chunk=chunk)
        plan = runner._plan(dvfs_points(7))
        fleet = [len(idxs) for idxs, reason in plan if reason == "lockstep"]
        assert fleet == sizes
        assert [r for _i, r in plan if r != "lockstep"] == ["narrow"] * narrow
        assert sorted(i for idxs, _r in plan for i in idxs) == list(range(7))

    def test_fleet_chunk_bounds_results_not(self):
        points = dvfs_points(6)
        whole = ParallelRunner().run_points(points)
        chunked = ParallelRunner(fleet_chunk=3).run_points(points)
        assert as_dicts(whole) == as_dicts(chunked)


class TestParallelPlan:
    def test_jobs_2_equals_jobs_1_with_the_same_cache_keys(self, tmp_path):
        points = mixed_points() + dvfs_points(3)
        serial_cache = ResultCache(tmp_path / "serial")
        parallel_cache = ResultCache(tmp_path / "parallel")
        serial = ParallelRunner(jobs=1, cache=serial_cache, version="v")
        parallel = ParallelRunner(jobs=2, cache=parallel_cache, version="v")
        assert as_dicts(serial.run_points(points)) == as_dicts(
            parallel.run_points(points)
        )

        def keys(cache):
            return sorted(p.name for p in cache.root.glob("*/*.pkl"))

        assert keys(serial_cache) == keys(parallel_cache)
        assert len(keys(serial_cache)) == len(points)
        assert parallel.stats.fleet == serial.stats.fleet > 0

    def test_traced_parallel_plan_returns_every_span(self):
        tracer = SpanRecorder()
        ParallelRunner(jobs=2, tracer=tracer).run_points(mixed_points())
        points = [s for s in tracer.spans() if s.kind == KIND_POINT]
        by_path = {}
        for span in points:
            by_path.setdefault(span.attrs["path"], []).append(span)
        assert len(by_path["fleet"]) == 4
        assert all(s.attrs["group_width"] == 4 for s in by_path["fleet"])
        assert len(by_path["scalar"]) == 1
        assert {s.attrs["reason"] for s in by_path["scalar"]} == {
            "sensor-guards",
        }
        assert all(s.attrs["group_width"] == 1 for s in by_path["scalar"])


class TestPathCounter:
    def test_registry_counts_points_by_path_and_reason(self):
        registry = MetricsRegistry()
        ParallelRunner(registry=registry).run_points(mixed_points())
        ParallelRunner(registry=registry).run_points(dvfs_points(2))
        ParallelRunner(registry=registry, backend="pool").run_points(
            dvfs_points(1)
        )

        def count(path, reason):
            return registry.counter(
                "runner_points_total", path=path, reason=reason
            ).value

        assert count("fleet", "lockstep") == 4
        assert count("scalar", "narrow") == 2
        assert count("scalar", "sensor-guards") == 1
        assert count("scalar", "pool-backend") == 1
