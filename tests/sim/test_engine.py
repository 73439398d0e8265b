"""Tests for the thermal/timing engine."""

import pytest

from repro.core.taxonomy import spec_by_key
from repro.sim.engine import SimulationConfig, ThermalTimingSimulator, run_workload
from repro.sim.workloads import get_workload

W7 = get_workload("workload7")  # gzip-twolf-ammp-lucas


class TestConfigValidation:
    def test_bad_duration(self):
        with pytest.raises(ValueError):
            SimulationConfig(duration_s=0.0)

    def test_bad_warm_start(self):
        with pytest.raises(ValueError):
            SimulationConfig(warm_start_fraction=1.5)

    def test_bad_sensor_noise(self):
        with pytest.raises(ValueError):
            SimulationConfig(sensor_noise_std_c=-1.0)

    @pytest.mark.parametrize(
        "field", [
            "trace_duration_s", "power_scale", "hardware_trip_freeze_s",
            "migration_period_s",
        ],
    )
    @pytest.mark.parametrize("value", [0.0, -0.1])
    def test_non_positive_scalars_rejected_at_construction(self, field, value):
        """These used to fail deep inside trace generation (or not at
        all); they must raise a clear ValueError up front."""
        with pytest.raises(ValueError, match=field):
            SimulationConfig(**{field: value})

    def test_benchmark_count_must_match_cores(self):
        with pytest.raises(ValueError):
            ThermalTimingSimulator(("gzip",), None, SimulationConfig(duration_s=0.01))


class TestUnthrottled:
    def test_runs_at_full_speed(self):
        cfg = SimulationConfig(duration_s=0.02)
        result = run_workload(W7, None, cfg)
        assert result.policy == "unthrottled"
        assert result.duty_cycle == pytest.approx(1.0)
        assert result.migrations == 0

    def test_bips_matches_trace_rates(self):
        """With no throttling, throughput equals the sum of the traces'
        nominal rates."""
        cfg = SimulationConfig(duration_s=0.02)
        sim = ThermalTimingSimulator(W7.benchmarks, None, cfg)
        n_steps = int(round(cfg.duration_s / sim.dt))
        expected = sum(
            float(
                sim.scheduler.process(i).trace.instructions[:n_steps].sum()
            )
            for i in range(4)
        ) / cfg.duration_s / 1e9
        result = sim.run()
        assert result.bips == pytest.approx(expected, rel=0.02)


class TestDeterminism:
    def test_same_seed_same_result(self):
        cfg = SimulationConfig(duration_s=0.02)
        a = run_workload(W7, spec_by_key("distributed-dvfs-none"), cfg)
        b = run_workload(W7, spec_by_key("distributed-dvfs-none"), cfg)
        assert a.bips == b.bips
        assert a.duty_cycle == b.duty_cycle
        assert a.max_temp_c == b.max_temp_c

    def test_different_seed_different_result(self):
        a = run_workload(
            W7, spec_by_key("distributed-dvfs-none"),
            SimulationConfig(duration_s=0.02, seed=1),
        )
        b = run_workload(
            W7, spec_by_key("distributed-dvfs-none"),
            SimulationConfig(duration_s=0.02, seed=2),
        )
        assert a.bips != b.bips


class TestThermalSafety:
    @pytest.mark.parametrize(
        "key",
        [
            "distributed-stop-go-none",
            "global-stop-go-none",
            "distributed-dvfs-none",
            "global-dvfs-none",
            "distributed-dvfs-sensor",
            "distributed-stop-go-counter",
        ],
    )
    def test_no_thermal_emergencies(self, key):
        """Every policy must keep the chip inside the envelope."""
        cfg = SimulationConfig(duration_s=0.05)
        result = run_workload(W7, spec_by_key(key), cfg)
        assert result.emergency_s == 0.0, result.max_temp_c
        assert result.max_temp_c <= 84.2 + 0.35

    def test_unthrottled_overheats(self):
        """Sanity: the limit binds — without DTM the chip exceeds it."""
        cfg = SimulationConfig(duration_s=0.05)
        result = run_workload(W7, None, cfg)
        assert result.max_temp_c > 84.2


class TestPolicyBehaviour:
    def test_stopgo_freezes_and_resumes(self, quick_stopgo_run):
        r = quick_stopgo_run
        assert r.stopgo_trips > 0
        assert 0.05 < r.duty_cycle < 0.9

    def test_dvfs_scales_continuously(self, quick_dvfs_run):
        r = quick_dvfs_run
        assert r.dvfs_transitions > 0
        assert r.stopgo_trips == 0
        assert 0.4 < r.duty_cycle < 1.0

    def test_dvfs_beats_stopgo(self, quick_dvfs_run, quick_stopgo_run):
        """The paper's headline: DVFS >> stop-go under thermal duress."""
        assert quick_dvfs_run.bips > 1.3 * quick_stopgo_run.bips

    def test_distributed_beats_global_stopgo(self):
        cfg = SimulationConfig(duration_s=0.05)
        dist = run_workload(W7, spec_by_key("distributed-stop-go-none"), cfg)
        glob = run_workload(W7, spec_by_key("global-stop-go-none"), cfg)
        assert dist.bips > glob.bips

    def test_migration_policy_migrates(self):
        cfg = SimulationConfig(duration_s=0.06)
        r = run_workload(W7, spec_by_key("distributed-stop-go-counter"), cfg)
        assert r.migrations > 0

    def test_migration_rescues_stopgo(self):
        cfg = SimulationConfig(duration_s=0.06)
        base = run_workload(W7, spec_by_key("distributed-stop-go-none"), cfg)
        mig = run_workload(W7, spec_by_key("distributed-stop-go-counter"), cfg)
        assert mig.bips > base.bips


class TestWarmStart:
    def test_auto_warm_start_below_threshold(self):
        cfg = SimulationConfig(duration_s=0.005)
        sim = ThermalTimingSimulator(
            W7.benchmarks, spec_by_key("distributed-dvfs-none"), cfg
        )
        sim._warm_start()
        assert sim.thermal.max_block_temperature() <= 84.2 - 1.0

    def test_cool_workload_starts_at_full_power_steady(self):
        cool = ("mcf", "mcf", "mcf", "mcf")
        cfg = SimulationConfig(duration_s=0.005)
        sim = ThermalTimingSimulator(cool, spec_by_key("distributed-dvfs-none"), cfg)
        sim._warm_start()
        # mcf everywhere cannot reach the limit: warm start uses full power.
        assert sim.thermal.max_block_temperature() < 84.2 - 1.0

    def test_explicit_fraction_respected(self):
        cfg = SimulationConfig(duration_s=0.005, warm_start_fraction=0.1)
        sim = ThermalTimingSimulator(
            W7.benchmarks, spec_by_key("distributed-dvfs-none"), cfg
        )
        sim._warm_start()
        low = sim.thermal.max_block_temperature()
        cfg2 = SimulationConfig(duration_s=0.005, warm_start_fraction=0.9)
        sim2 = ThermalTimingSimulator(
            W7.benchmarks, spec_by_key("distributed-dvfs-none"), cfg2
        )
        sim2._warm_start()
        assert sim2.thermal.max_block_temperature() > low


class TestAccounting:
    def test_duration_respected(self, quick_dvfs_run):
        assert quick_dvfs_run.duration_s == pytest.approx(0.05, rel=0.01)

    def test_instructions_consistent(self, quick_dvfs_run):
        r = quick_dvfs_run
        assert sum(r.per_core_instructions) == pytest.approx(r.instructions)
        assert r.bips == pytest.approx(r.instructions / r.duration_s / 1e9)

    def test_result_workload_name(self):
        cfg = SimulationConfig(duration_s=0.01)
        r = run_workload(W7, spec_by_key("distributed-dvfs-none"), cfg)
        assert r.workload == "workload7"
        assert r.benchmarks == W7.benchmarks
