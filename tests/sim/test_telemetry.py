"""Engine-level telemetry guarantees: non-perturbation and fusion-awareness.

The telemetry sampler's core contract, mirrored after
``tests/sim/test_fusion.py``: attaching a sampler changes no reported
number (bit-identical metrics across the benchmark policy configs),
never blocks the fused fast path, produces the identical sampled series
whether the run fused or stepped, and never enters the result-cache key.
"""

import gc
import weakref
from dataclasses import fields, replace

import numpy as np
import pytest

from repro.core.taxonomy import spec_by_key
from repro.obs.telemetry import TelemetrySampler
from repro.sim.engine import SimulationConfig, ThermalTimingSimulator
from repro.sim.runner import ParallelRunner, ResultCache, RunPoint, config_hash
from repro.sim.workloads import get_workload
from repro.thermal.layouts import HOTSPOT_UNITS

W7 = get_workload("workload7")
CFG = SimulationConfig(duration_s=0.02)
PERIOD = 1e-3

#: The four policy configs of the `repro bench` case list (repro.sim.bench).
POLICY_KEYS = [
    None,
    "distributed-stop-go-none",
    "distributed-dvfs-none",
    "distributed-dvfs-sensor",
]
POLICY_IDS = ["unthrottled", "stopgo", "dvfs", "dvfs+sensor-migration"]


def _sim(spec_key, config, **kwargs):
    spec = spec_by_key(spec_key) if spec_key else None
    return ThermalTimingSimulator(W7.benchmarks, spec, config, **kwargs)


def scalar_fields(result) -> dict:
    """Every RunResult field except the observability attachments."""
    return {
        f.name: getattr(result, f.name)
        for f in fields(result)
        if f.name not in ("series", "events", "telemetry")
    }


class TestNonPerturbation:
    @pytest.mark.parametrize("spec_key", POLICY_KEYS, ids=POLICY_IDS)
    def test_sampled_run_bit_identical(self, spec_key):
        """A sampled run reports exactly the numbers an unsampled one does."""
        plain_sim = _sim(spec_key, CFG)
        plain = plain_sim.run()
        sampled_sim = _sim(spec_key, CFG, telemetry=TelemetrySampler(PERIOD))
        sampled = sampled_sim.run()

        assert scalar_fields(plain) == scalar_fields(sampled)
        np.testing.assert_array_equal(
            plain_sim.thermal.temperatures, sampled_sim.thermal.temperatures
        )
        assert plain.telemetry is None
        assert sampled.telemetry is not None
        assert sampled.telemetry.sample_period_s == PERIOD
        assert sampled.telemetry.samples > 0

    def test_sampler_is_not_a_fusion_blocker(self):
        """The tentpole guarantee: telemetry keeps the fused fast path."""
        sim = _sim(None, CFG, telemetry=TelemetrySampler(PERIOD))
        assert sim.fusion_blockers == ()
        sim.run()
        assert sim.last_run_fused

    @pytest.mark.parametrize("spec_key", POLICY_KEYS, ids=POLICY_IDS)
    def test_fused_and_stepwise_series_identical(self, spec_key):
        """The sampled series is invariant under the fuse_steps flag."""
        sam_a = TelemetrySampler(PERIOD)
        _sim(spec_key, CFG, telemetry=sam_a).run()
        sam_b = TelemetrySampler(PERIOD)
        _sim(
            spec_key, replace(CFG, fuse_steps=False), telemetry=sam_b
        ).run()

        assert sam_a.series.times == sam_b.series.times
        assert list(sam_a.series.columns) == list(sam_b.series.columns)
        assert {
            'hotspot_temp_c{core="0",unit="intreg"}',
            'core_resident_pid{core="3"}',
        } <= set(sam_a.series.columns)
        for column in sam_a.series.columns:
            assert sam_a.series.column(column) == sam_b.series.column(column)
        assert sam_a.registry.as_dict() == sam_b.registry.as_dict()

    def test_sample_count_and_instants(self):
        """t=0 plus one sample per whole-step-quantized period."""
        sam = TelemetrySampler(PERIOD)
        _sim(None, CFG, telemetry=sam).run()
        dt = CFG.machine.sample_period_s
        stride = sam.stride_steps(dt)
        n_steps = int(round(CFG.duration_s / dt))
        assert sam.samples == 1 + n_steps // stride
        assert sam.series.times[0] == 0.0
        assert sam.series.times[1] == pytest.approx(stride * dt)

    @pytest.mark.parametrize("spec_key", ["distributed-dvfs-counter", None])
    def test_sampled_run_freed_without_cycle_collector(self, spec_key):
        """Simulator and sampler form no reference cycle, so a finished
        sampled run (and its series) is freed as soon as it is dropped."""
        cfg = replace(CFG, duration_s=0.002, hardware_trip=True)
        sam = TelemetrySampler(PERIOD)
        sim = _sim(spec_key, cfg, telemetry=sam)
        sim.run()
        refs = [weakref.ref(sim), weakref.ref(sam)]
        gc.disable()
        try:
            del sim, sam
            assert [r() for r in refs] == [None, None]
        finally:
            gc.enable()

    def test_sampler_single_use(self):
        sam = TelemetrySampler(PERIOD)
        _sim(None, CFG, telemetry=sam)
        with pytest.raises(ValueError, match="already bound"):
            _sim(None, CFG, telemetry=sam)


class TestHotspotAndResidentColumns:
    """The per-unit hotspot and resident-thread columns of a migrating
    DVFS run, checked at every sample of a per-step series."""

    @pytest.fixture(scope="class")
    def run(self):
        cfg = SimulationConfig(duration_s=0.03)
        sampler = TelemetrySampler(cfg.machine.sample_period_s)
        sim = _sim("distributed-dvfs-counter", cfg, telemetry=sampler)
        sim.run()
        return sim, sampler.series

    def test_hottest_unit_is_core_temp(self, run):
        sim, series = run
        for c in range(sim.n_cores):
            units = [
                series.column(f'hotspot_temp_c{{core="{c}",unit="{u}"}}')
                for u in HOTSPOT_UNITS
            ]
            assert [max(row) for row in zip(*units)] == series.column(
                f'core_temp_c{{core="{c}"}}'
            )

    def test_residents_are_a_permutation(self, run):
        sim, series = run
        pids = sorted(p.pid for p in sim.scheduler.processes)
        for row in self._residents(sim, series):
            assert sorted(row) == pids

    def test_residents_change_once_per_tick_with_moves(self, run):
        sim, series = run
        residents = self._residents(sim, series)
        changed = sum(a != b for a, b in zip(residents, residents[1:]))
        ticks_with_moves = len(sim.scheduler.migration_history)
        assert ticks_with_moves > 0
        assert changed == ticks_with_moves
        migrations = series.column("migrations_total")
        grew = sum(b > a for a, b in zip(migrations, migrations[1:]))
        assert changed <= grew

    @staticmethod
    def _residents(sim, series):
        columns = [
            series.column(f'core_resident_pid{{core="{c}"}}')
            for c in range(sim.n_cores)
        ]
        return list(zip(*columns))


class TestCacheIndependence:
    def test_telemetry_never_in_cache_key(self):
        """Telemetry is an engine attachment, not configuration: the
        cache key of a point is the same whether or not a run that
        produced it was sampled."""
        point = RunPoint(W7, None, CFG)
        key = config_hash(point, "vtest")
        assert key == config_hash(RunPoint(W7, None, CFG), "vtest")

    def test_sampled_result_serves_unsampled_request(self, tmp_path):
        """A cache warmed by an instrumented runner hits for a plain one."""
        cache = ResultCache(tmp_path / "cache")
        warm = ParallelRunner(jobs=1, cache=cache, version="vtest")
        point = RunPoint(W7, None, SimulationConfig(duration_s=0.005))
        first = warm.run_points([point])[0]
        assert warm.stats.simulated == 1

        plain = ParallelRunner(jobs=1, cache=cache, version="vtest")
        second = plain.run_points([point])[0]
        assert plain.stats.cache_hits == 1
        assert plain.stats.simulated == 0
        assert scalar_fields(first) == scalar_fields(second)
