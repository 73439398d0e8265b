"""Tests for the parallel runner and its content-addressed result cache.

The acceptance bar: any experiment run with ``jobs > 1`` must produce
bit-identical metrics to the serial path, and a warm-cache rerun must
execute zero simulations.
"""

import dataclasses
import pickle
from pathlib import Path

import pytest

from repro.core.taxonomy import BASELINE_SPEC, spec_by_key
from repro.experiments.common import (
    clear_result_cache,
    get_default_runner,
    run_matrix,
    set_default_runner,
)
from repro.obs.tracing import KIND_POINT, SpanRecorder
from repro.serve.protocol import JobRequest
from repro.sim import runner as runner_module
from repro.sim.engine import SimulationConfig, run_workload
from repro.sim.runner import (
    ParallelRunner,
    ResultCache,
    RunPoint,
    code_version,
    config_hash,
    stable_hash,
)
from repro.sim.workloads import ALL_WORKLOADS, get_workload

QUICK = SimulationConfig(duration_s=0.01)
DVFS = spec_by_key("distributed-dvfs-none")


def quick_points(n=3, config=QUICK):
    specs = [BASELINE_SPEC, DVFS, None]
    return [
        RunPoint(w, specs[i % len(specs)], config)
        for i, w in enumerate(ALL_WORKLOADS[:n])
    ]


class TestSerialParallelEquivalence:
    def test_parallel_matches_serial_bit_for_bit(self):
        """Every RunResult field agrees exactly between jobs=1 and jobs=2."""
        points = quick_points(3)
        serial = ParallelRunner(jobs=1).run_points(points)
        parallel = ParallelRunner(jobs=2).run_points(points)
        assert len(serial) == len(parallel) == len(points)
        for s, p in zip(serial, parallel):
            assert dataclasses.asdict(s) == dataclasses.asdict(p)

    def test_parallel_matches_direct_run_workload(self):
        """The runner introduces no drift versus the plain entry point."""
        point = quick_points(1)[0]
        direct = run_workload(point.workload, point.spec, point.config)
        via_pool = ParallelRunner(jobs=2).run_points(quick_points(2))[0]
        assert direct == via_pool

    def test_results_ordered_by_input(self):
        points = quick_points(3)
        results = ParallelRunner(jobs=3).run_points(points)
        for point, result in zip(points, results):
            assert result.workload == point.workload.name

    def test_sweep_parallel_matches_serial(self):
        """A served sweep's grid agrees across backends too."""
        points = JobRequest.parse({
            "workloads": ["workload1", "workload7"],
            "policy": DVFS.key,
            "config": {"duration_s": QUICK.duration_s},
            "sweep": {"field": "threshold_c", "values": [80.0, 90.0]},
        }).run_points()
        serial = ParallelRunner(jobs=1).run_points(points)
        parallel = ParallelRunner(jobs=2).run_points(points)
        assert len(serial) == 4
        assert serial == parallel

    def test_run_matrix_parallel_matches_serial(self):
        """The experiments' shared grid agrees across backends."""
        workloads = list(ALL_WORKLOADS[:2])
        specs = [BASELINE_SPEC, DVFS]
        clear_result_cache()
        serial = run_matrix(specs, workloads, QUICK)
        clear_result_cache()
        old = set_default_runner(ParallelRunner(jobs=2))
        try:
            parallel = run_matrix(specs, workloads, QUICK)
        finally:
            set_default_runner(old)
            clear_result_cache()
        assert serial == parallel


class TestCache:
    def test_warm_rerun_executes_zero_simulations(self, tmp_path):
        points = quick_points(2)
        first = ParallelRunner(jobs=1, cache=ResultCache(tmp_path), version="v")
        cold = first.run_points(points)
        assert first.stats.simulated == len(points)
        assert first.stats.cache_hits == 0

        second = ParallelRunner(jobs=2, cache=ResultCache(tmp_path), version="v")
        warm = second.run_points(points)
        assert second.stats.simulated == 0
        assert second.stats.cache_hits == len(points)
        assert warm == cold

    def test_config_change_invalidates(self, tmp_path):
        runner = ParallelRunner(jobs=1, cache=ResultCache(tmp_path), version="v")
        w = get_workload("workload1")
        runner.run_workload(w, BASELINE_SPEC, QUICK)
        runner.run_workload(
            w, BASELINE_SPEC, SimulationConfig(duration_s=0.01, threshold_c=90.0)
        )
        assert runner.stats.simulated == 2

    def test_policy_change_invalidates(self, tmp_path):
        runner = ParallelRunner(jobs=1, cache=ResultCache(tmp_path), version="v")
        w = get_workload("workload1")
        runner.run_workload(w, BASELINE_SPEC, QUICK)
        runner.run_workload(w, DVFS, QUICK)
        runner.run_workload(w, None, QUICK)
        assert runner.stats.simulated == 3

    def test_code_version_change_invalidates(self, tmp_path):
        cache = ResultCache(tmp_path)
        w = get_workload("workload1")
        a = ParallelRunner(cache=cache, version="v1")
        a.run_workload(w, BASELINE_SPEC, QUICK)
        b = ParallelRunner(cache=cache, version="v2")
        b.run_workload(w, BASELINE_SPEC, QUICK)
        assert b.stats.simulated == 1
        assert b.stats.cache_hits == 0

    @pytest.mark.parametrize(
        "garbage", [b"not a pickle", b"garbage\n", b"", b"\x80\x05trunc"]
    )
    def test_corrupt_entry_is_a_miss_not_an_error(self, tmp_path, garbage):
        cache = ResultCache(tmp_path)
        point = quick_points(1)[0]
        key = config_hash(point, "v")
        cache.put(key, "placeholder")
        path = Path(cache._path(key))
        path.write_bytes(garbage)
        runner = ParallelRunner(cache=ResultCache(tmp_path), version="v")
        result = runner.run_points([point])[0]
        assert result.workload == point.workload.name
        assert runner.stats.simulated == 1
        # The corrupt entry was overwritten with the good result.
        assert pickle.loads(path.read_bytes()) == result

    def test_duplicate_points_simulate_once(self, tmp_path):
        point = quick_points(1)[0]
        runner = ParallelRunner(jobs=1, cache=ResultCache(tmp_path), version="v")
        a, b = runner.run_points([point, point])
        assert a == b
        assert runner.stats.simulated == 1

    def test_clear_and_len(self, tmp_path):
        cache = ResultCache(tmp_path)
        runner = ParallelRunner(cache=cache, version="v")
        runner.run_points(quick_points(2))
        assert len(cache) == 2
        assert cache.clear() == 2
        assert len(cache) == 0


#: Payloads :func:`_simulate_payload` has computed, in call order.
COMPUTED = []


def _simulate_payload(point):
    """A ``map_cached`` payload function: one point on the scalar engine."""
    COMPUTED.append(point)
    return run_workload(point.workload, point.spec, point.config)


class TestMemo:
    """One get-or-compute routine serves ``run_points`` and ``map_cached``."""

    @staticmethod
    def counts(runner):
        stats = runner.stats
        return stats.cache_hits, stats.cache_misses, stats.simulated

    def test_results_align_with_points(self):
        workloads = list(ALL_WORKLOADS[:2])
        points = [
            RunPoint(w, spec, QUICK)
            for spec in (DVFS, None, BASELINE_SPEC)
            for w in workloads
        ]
        results = ParallelRunner(jobs=1).run_points(points)
        for point, result in zip(points, results):
            assert result.benchmarks == point.workload.benchmarks
            assert result.policy == (
                point.spec.name if point.spec else "unthrottled"
            )

    def test_duplicates_and_memo_hits_are_not_resubmitted(self, monkeypatch):
        runner = ParallelRunner(jobs=1)
        batches = []
        execute_plan = runner._execute_plan

        def recording(points, trace, tracer):
            batches.append(len(points))
            return execute_plan(points, trace, tracer)

        monkeypatch.setattr(runner, "_execute_plan", recording)
        cached = RunPoint(ALL_WORKLOADS[0], BASELINE_SPEC, QUICK)
        runner.run_points([cached])
        fresh = [RunPoint(w, None, QUICK) for w in ALL_WORKLOADS[:2]]
        runner.run_points([cached] + fresh + fresh)
        assert batches == [1, 2]
        runner.run_points([cached] + fresh)
        assert batches == [1, 2]
        assert runner.stats.simulated == 3

    def test_map_cached_computes_a_repeated_payload_once(self):
        a, b = quick_points(2)
        runner = ParallelRunner(jobs=1)
        COMPUTED.clear()
        results = runner.map_cached("simulate", _simulate_payload, [a, b, a])
        assert COMPUTED == [a, b]
        assert results[0] is results[2]
        assert results[1] is not results[0]
        assert runner.stats.simulated == 2
        assert runner.map_cached("simulate", _simulate_payload, [b]) == [
            results[1]
        ]
        assert COMPUTED == [a, b]

    @pytest.mark.parametrize("via", ["run_points", "map_cached"])
    def test_fresh_memo_and_disk_serve_one_result(self, tmp_path, via):
        """A point served freshly, from the memo and from the disk of a
        new runner is the same result, and both entry points count the
        three ways alike: one (hits, misses, simulated) lookup per
        distinct key of a call."""
        point = quick_points(1)[0]
        reference = run_workload(point.workload, point.spec, point.config)

        def serve(runner):
            if via == "run_points":
                return runner.run_points([point, point])
            return runner.map_cached("simulate", _simulate_payload, [point, point])

        first = ParallelRunner(cache=ResultCache(tmp_path), version="v")
        fresh = serve(first)
        assert self.counts(first) == (0, 1, 1)
        reads = []
        get = first.cache.get
        first.cache.get = lambda key: reads.append(key) or get(key)
        memo = serve(first)
        assert self.counts(first) == (1, 1, 1)
        assert reads == []
        second = ParallelRunner(cache=ResultCache(tmp_path), version="v")
        disk = serve(second)
        assert self.counts(second) == (1, 0, 0)
        assert fresh[0] is fresh[1] is memo[0] is memo[1]
        assert disk[0] is disk[1]
        assert fresh[0] == disk[0] == reference

    def test_memo_hits_leave_hit_spans(self):
        tracer = SpanRecorder()
        runner = ParallelRunner(tracer=tracer)
        point = quick_points(1)[0]
        runner.run_points([point])
        runner.run_points([point])
        hits = [s for s in tracer.spans() if s.attrs.get("cache") == "hit"]
        assert [s.name for s in hits] == [point.label]

    def test_clear_memo(self):
        runner = ParallelRunner()
        runner.run_points(quick_points(2))
        assert runner.clear_memo() == 2
        assert runner.clear_memo() == 0
        runner.run_points(quick_points(2))
        assert runner.stats.simulated == 4


class TestCacheConcurrency:
    """Two writers racing on one key must never tear or leak files."""

    def test_concurrent_writers_same_key(self, tmp_path):
        """Hammer one key from two threads: after every round the entry
        is a complete pickle holding one of the written values (atomic
        temp-file + os.replace publication), reads mid-race never see a
        torn value, and no orphaned ``*.tmp`` files survive."""
        import threading

        cache = ResultCache(tmp_path)
        key = "a" * 64
        rounds = 200
        errors = []
        barrier = threading.Barrier(2)

        def writer(tag):
            try:
                for i in range(rounds):
                    barrier.wait()
                    cache.put(key, (tag, i))
            except Exception as exc:  # pragma: no cover - fail loudly
                errors.append(exc)

        threads = [
            threading.Thread(target=writer, args=(tag,))
            for tag in ("left", "right")
        ]
        for t in threads:
            t.start()
        seen = 0
        while any(t.is_alive() for t in threads):
            value = cache.get(key)
            if value is not None:
                assert value[0] in ("left", "right")
                assert 0 <= value[1] < rounds
                seen += 1
        for t in threads:
            t.join()

        assert not errors
        final = cache.get(key)
        assert final is not None and final[0] in ("left", "right")
        assert final[1] == rounds - 1
        leftovers = list(tmp_path.rglob("*.tmp"))
        assert leftovers == []
        assert len(cache) == 1
        assert seen > 0

    def test_concurrent_distinct_keys(self, tmp_path):
        """Writers on different keys sharing one shard directory don't
        interfere."""
        import threading

        cache = ResultCache(tmp_path)
        keys = ["ab" + format(i, "062x") for i in range(8)]

        def writer(key):
            for i in range(50):
                cache.put(key, (key, i))

        threads = [
            threading.Thread(target=writer, args=(k,)) for k in keys
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for key in keys:
            assert cache.get(key) == (key, 49)
        assert len(cache) == len(keys)
        assert list(tmp_path.rglob("*.tmp")) == []


class TestSerialFallback:
    def test_jobs_1_never_creates_a_pool(self, monkeypatch):
        """jobs=1 must stay in-process: poison the pool to prove it."""
        import concurrent.futures

        def boom(*a, **k):
            raise AssertionError("ProcessPoolExecutor created with jobs=1")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", boom)
        results = ParallelRunner(jobs=1).run_points(quick_points(2))
        assert len(results) == 2

    def test_single_point_never_creates_a_pool(self, monkeypatch):
        import concurrent.futures

        def boom(*a, **k):
            raise AssertionError("pool created for a single point")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", boom)
        results = ParallelRunner(jobs=8).run_points(quick_points(1))
        assert len(results) == 1

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ValueError):
            ParallelRunner(jobs=-2)

    def test_jobs_zero_means_all_cores(self):
        import os

        assert ParallelRunner(jobs=0).jobs == (os.cpu_count() or 1)


class TestObservability:
    def test_per_point_timings_recorded(self, tmp_path):
        tracer = SpanRecorder()
        runner = ParallelRunner(
            cache=ResultCache(tmp_path), version="v", tracer=tracer
        )
        points = quick_points(2)
        runner.run_points(points)
        spans = [s for s in tracer.spans() if s.kind == KIND_POINT]
        assert len(spans) == 2
        for span, point in zip(spans, points):
            assert span.name == point.label
            assert "cache" not in span.attrs
            assert span.elapsed_s > 0
        runner.run_points(points)
        hits = [
            s for s in tracer.spans()
            if s.kind == KIND_POINT and s.attrs.get("cache") == "hit"
        ]
        assert [s.name for s in hits] == [p.label for p in points]
        assert "2 simulated" in runner.stats.summary()

    def test_default_runner_is_serial_uncached(self):
        runner = get_default_runner()
        assert runner.jobs == 1
        assert runner.cache is None

    def test_execution_spans_recorded(self, tmp_path):
        """Point spans carry a wall-clock start and the executing pid for
        the Chrome-trace export; warm reruns leave zero-length hit spans."""
        import os

        tracer = SpanRecorder()
        runner = ParallelRunner(
            cache=ResultCache(tmp_path), version="v", tracer=tracer
        )
        points = quick_points(2)
        runner.run_points(points)
        cold = [s for s in tracer.spans() if s.kind == KIND_POINT]
        assert len(cold) == 2
        for span in cold:
            assert span.pid == os.getpid()
            assert span.started_at > 0
            assert span.elapsed_s > 0
        runner.run_points(points)
        warm = [s for s in tracer.spans() if s.kind == KIND_POINT][2:]
        assert len(warm) == 2
        for span in warm:
            assert span.attrs["cache"] == "hit"
            assert span.elapsed_s == 0.0

    def test_registry_counters_mirror_stats(self, tmp_path):
        from repro.obs.telemetry import MetricsRegistry

        registry = MetricsRegistry()
        cache = ResultCache(tmp_path, registry=registry)
        runner = ParallelRunner(cache=cache, version="v", registry=registry)
        points = quick_points(2)
        runner.run_points(points)
        # The memo answers the rerun: counted as cached, no disk read.
        runner.run_points(points)
        ParallelRunner(
            cache=cache, version="v", registry=registry
        ).run_points(points)
        snap = registry.as_dict()
        assert snap["runner_points_simulated_total"] == 2
        assert snap["runner_points_cached_total"] == 4
        assert snap["cache_misses_total"] == 2
        assert snap["cache_hits_total"] == 2
        assert snap["cache_puts_total"] == 2


class TestHashingPrimitives:
    def test_stable_hash_rejects_unknown_types(self):
        with pytest.raises(TypeError):
            stable_hash(object())

    def test_stable_hash_distinguishes_structure(self):
        assert stable_hash([1, 2]) != stable_hash([2, 1])
        assert stable_hash("12") != stable_hash(12)

    def test_code_version_is_cached_and_hex(self):
        v = code_version()
        assert v == code_version()
        assert len(v) == 64
        int(v, 16)


def _pinned_points():
    """Points whose cache keys are pinned below, by name."""
    from repro.faults.guards import GuardConfig
    from repro.faults.models import (
        DropoutFault,
        DVFSRejectFault,
        FaultPlan,
        SpikeFault,
    )
    from repro.scenarios import get_scenario
    from repro.sim.workloads import tile_workload

    w7 = get_workload("workload7")
    plan = FaultPlan(
        name="pinned",
        faults=(
            DropoutFault(core=1, start_s=0.001, end_s=0.004, mode="nan"),
            SpikeFault(start_s=0.0, end_s=0.005, magnitude_c=8.0, prob=0.05),
            DVFSRejectFault(start_s=0.002, end_s=0.004, prob=0.5),
        ),
    )
    mesh16 = get_scenario("mesh16")
    return {
        "default": RunPoint(w7, None, SimulationConfig()),
        "fault-plan": RunPoint(
            w7, DVFS,
            SimulationConfig(duration_s=0.005, fault_plan=plan, seed=7),
        ),
        "guard": RunPoint(
            w7,
            spec_by_key("distributed-stop-go-none"),
            SimulationConfig(guard=GuardConfig(), threshold_c=82.5),
        ),
        "mesh16": RunPoint(
            tile_workload(w7, mesh16.n_cores),
            DVFS,
            SimulationConfig(
                duration_s=0.004,
                machine=mesh16.machine_config(),
                scenario=mesh16,
            ),
        ),
        "core-sizes": RunPoint(
            w7, DVFS, SimulationConfig(core_sizes_mm=(3.5, 4.0, 4.5, 5.0))
        ),
    }


#: ``config_hash(point, version="pinned")`` of :func:`_pinned_points`.
#: A change to canonicalization or hashing must not move these: every
#: cached result on disk is addressed by them. Only a change to the
#: hashed schema may: dropping the per-step series flag from
#: ``SimulationConfig`` moved all five, to the earlier code's digests of
#: the same canonical forms without that one field entry.
PINNED_KEYS = {
    "default": "9dea3aa52a8733da5ac35255336374c543bb7a122fc4974aac2b059ddaedeebf",
    "fault-plan": "2c6b00dbfe1873fb2fdb69712577f05565f7552527926aa0de597bfa2588a7aa",
    "guard": "c9bae5921760c8ae103f0ebd5fa1f3a06ae0d7a959b90989fe861528da84b38e",
    "mesh16": "b713f23c7672e415d07ffeb58ee11f67620b184b4b1cf2f1712bb6734aa47efd",
    "core-sizes": "ee82586fd476c654ab8010355f8da640c02fe6528c1f5e973b08d7412a5ddeda",
}


class TestPinnedCacheKeys:
    """Cache keys are byte-stable: faster keying cannot move one silently."""

    @pytest.mark.parametrize("name", sorted(PINNED_KEYS))
    def test_key_is_pinned(self, name):
        point = _pinned_points()[name]
        assert config_hash(point, version="pinned") == PINNED_KEYS[name]

    def test_warm_and_cold_table_keep_every_key(self, monkeypatch):
        """Keys are the same whether the fragment and point-key tables
        are warm, as in a long-lived process, or cold, in any order and
        repeated."""
        points = list(_pinned_points().values())
        batch = points + points[::-1] + quick_points(3)
        warm = [config_hash(p, "pinned") for p in batch]
        cold = []
        for p in batch:
            monkeypatch.setattr(runner_module, "_FRAGMENTS", {})
            monkeypatch.setattr(runner_module, "_POINT_KEYS", {})
            cold.append(config_hash(p, "pinned"))
        assert warm == cold
        assert warm[: len(PINNED_KEYS)] == [
            PINNED_KEYS[name] for name in _pinned_points()
        ]

    def test_table_pins_its_objects(self, monkeypatch):
        """The table holds what it keyed by id, so no id can be reused."""
        monkeypatch.setattr(runner_module, "_FRAGMENTS", {})
        point = _pinned_points()["fault-plan"]
        config_hash(point, "pinned")
        held = [entry[0] for entry in runner_module._FRAGMENTS.values()]
        assert any(obj is point.config.fault_plan for obj in held)
        assert any(obj is point.config.machine for obj in held)
