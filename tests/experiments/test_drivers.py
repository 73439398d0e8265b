"""The ablation and extension drivers: one batch through the runner.

Each driver's ``compute`` declares its points up front and runs them as
one batch through the session runner. These tests check that the batch
really reaches the fleet, that every row still equals a direct per-point
run, and that a disk-cached runner serves a second ``compute`` whole.
"""

from dataclasses import replace

import pytest

from repro.core.taxonomy import spec_by_key
from repro.experiments import ablations, extensions
from repro.experiments.common import (
    clear_result_cache,
    default_config,
    set_default_runner,
)
from repro.obs.telemetry import MetricsRegistry
from repro.sim.engine import ThermalTimingSimulator, run_workload
from repro.sim.runner import ParallelRunner, ResultCache
from repro.sim.workloads import Workload, get_workload
from repro.uarch.benchmarks import get_benchmark
from repro.uarch.config import MachineConfig
from repro.uarch.smt import merge_profiles

#: Three 10 ms OS periods, so the migration rows differ from each other.
CFG = default_config(duration_s=0.03)
DSG = spec_by_key("distributed-stop-go-none")
DDV = spec_by_key("distributed-dvfs-none")


@pytest.fixture
def runner():
    """A fresh session runner without a disk cache, and an empty
    in-memory cache around the test."""
    runner = ParallelRunner(jobs=1, cache=None)
    clear_result_cache()
    previous = set_default_runner(runner)
    yield runner
    set_default_runner(previous)
    clear_result_cache()


def _mean(runs, field):
    return sum(getattr(r, field) for r in runs) / len(runs)


def _ablation_references(config):
    """``{(sweep, label): (spec, config)}`` for the four config sweeps,
    written out independently of the driver."""
    ctr = spec_by_key("distributed-stop-go-counter")
    rows = {}
    for t in (84.2, 92.0, 100.0):
        for spec in (DSG, DDV):
            rows["threshold", f"{spec.name} @ {t:.1f}C"] = (
                spec, replace(config, threshold_c=t)
            )
    for label, noise, quant in (
        ("ideal", 0.0, 0.0), ("noise 0.5C", 0.5, 0.0), ("noise 2.0C", 2.0, 0.0),
        ("quantized 1C", 0.0, 1.0), ("noise 1C + quantized 1C", 1.0, 1.0),
    ):
        rows["sensors", label] = (DDV, replace(
            config, sensor_noise_std_c=noise, sensor_quantization_c=quant
        ))
    for label, offset, trip in (
        ("calibrated", 0.0, False), ("reads 3C low", -3.0, False),
        ("reads 3C low + hardware trip", -3.0, True), ("reads 3C high", 3.0, False),
    ):
        rows["sensor_bias", label] = (DDV, replace(
            config, sensor_offset_c=offset, hardware_trip=trip
        ))
    for period, label in ((5e-3, "5"), (10e-3, "10"), (20e-3, "20"), (40e-3, "40")):
        rows["migration_period", f"period {label} ms"] = (
            ctr, replace(config, migration_period_s=period)
        )
    return rows


class TestAblations:
    def test_config_sweeps_run_in_the_fleet_and_match_scalar_runs(self, runner):
        data = ablations.compute(CFG)
        # 18 rows x 3 workloads, less the 3 rows that repeat the
        # calibrated dist-DVFS point: 51 distinct points, of which only
        # the hardware-trip ones leave the fleet; the 5 PI-gain rows are
        # map_cached tasks.
        assert runner.stats.fleet == 48
        assert runner.stats.scalar == 8
        assert runner.stats.fallbacks == {"hardware-trip": 3, "task": 5}

        references = _ablation_references(CFG)
        seen = set()
        for name in ("threshold", "sensors", "sensor_bias", "migration_period"):
            for point in data[name]:
                spec, cfg = references[name, point.label]
                seen.add((name, point.label))
                runs = [
                    run_workload(get_workload(w), spec, cfg)
                    for w in ablations.SWEEP_WORKLOADS
                ]
                assert point.bips == _mean(runs, "bips"), point.label
                assert point.duty_cycle == _mean(runs, "duty_cycle"), point.label
                assert point.emergency_s == _mean(runs, "emergency_s"), point.label
        assert seen == set(references)
        assert [p.label for p in data["pi_gains"]] == [
            f"gains x{f}" for f in (0.25, 0.5, 1.0, 2.0, 4.0)
        ]
        assert list(data) == [
            "threshold", "sensors", "sensor_bias", "pi_gains", "migration_period"
        ]


class TestExtensions:
    def test_asymmetric_rows_equal_direct_runs(self, runner):
        data = extensions.compute(CFG)
        asym = replace(CFG, core_sizes_mm=(5.0, 5.0, 2.65, 2.65))
        good = ("gzip", "sixtrack", "mcf", "swim")
        bad = ("mcf", "swim", "gzip", "sixtrack")
        expected = {
            "symmetric, hot on cores 0/1": (good, DDV, CFG),
            "symmetric, hot on cores 2/3": (bad, DDV, CFG),
            "asymmetric, hot on BIG cores": (good, DDV, asym),
            "asymmetric, hot on SMALL cores": (bad, DDV, asym),
            "no migration": (bad, DDV, asym),
            "counter-based migration": (
                bad, spec_by_key("distributed-dvfs-counter"), asym
            ),
            "sensor-based migration": (
                bad, spec_by_key("distributed-dvfs-sensor"), asym
            ),
            "CMP-4: one thread per core": (good, DDV, CFG),
        }
        rows = [
            r for name in (extensions.PLACEMENT, extensions.RECOVERY)
            for r in data[name]
        ] + data[extensions.SMT][:1]
        assert [r.label for r in rows] == list(expected)
        for row in rows:
            benchmarks, spec, cfg = expected[row.label]
            ref = run_workload(Workload("asym-study", benchmarks), spec, cfg)
            assert (row.bips, row.duty_cycle, row.migrations, row.max_temp_c) == (
                ref.bips, ref.duty_cycle, ref.migrations, ref.max_temp_c
            ), row.label

    def test_smt_rows_equal_direct_simulator_runs(self, runner):
        smt = extensions.compute(CFG)[extensions.SMT][1:]
        smt_cfg = replace(
            CFG, machine=MachineConfig(n_cores=2), core_sizes_mm=(5.657, 5.657)
        )
        for row, pairs in zip(smt, (
            (("gzip", "swim"), ("sixtrack", "mcf")),
            (("gzip", "sixtrack"), ("mcf", "swim")),
        )):
            profiles = [
                merge_profiles(get_benchmark(a), get_benchmark(b))
                for a, b in pairs
            ]
            ref = ThermalTimingSimulator(profiles, DDV, smt_cfg).run()
            assert (row.bips, row.duty_cycle, row.max_temp_c) == (
                ref.bips, ref.duty_cycle, ref.max_temp_c
            ), row.label


@pytest.mark.parametrize(
    "module, n_points",
    # Distinct RunPoints plus map_cached rows: 51 + 5 PI-gain rows, and
    # 6 + 2 SMT rows (two extension rows repeat another row's point).
    [(ablations, 56), (extensions, 8)],
    ids=["ablations", "extensions"],
)
def test_second_compute_is_served_from_the_disk_cache(module, n_points, tmp_path):
    """Both the RunPoint rows and the map_cached rows land in the cache."""
    runner = ParallelRunner(jobs=1, cache=ResultCache(tmp_path))
    clear_result_cache()
    previous = set_default_runner(runner)
    try:
        first = module.compute(CFG)
        assert runner.stats.simulated == n_points
        assert runner.stats.cache_hits == 0
        clear_result_cache()
        second = module.compute(CFG)
    finally:
        set_default_runner(previous)
        clear_result_cache()
    assert second == first
    assert runner.stats.simulated == n_points
    assert runner.stats.cache_hits == n_points


@pytest.mark.parametrize(
    "module, fallbacks",
    [
        (ablations, {"hardware-trip": 3, "task": 5}),
        (extensions, {"narrow": 2, "task": 2}),
    ],
    ids=["ablations", "extensions"],
)
def test_every_simulated_point_is_ledgered_by_path(module, fallbacks):
    """map_cached tasks count as scalar points, so the split adds up."""
    registry = MetricsRegistry()
    runner = ParallelRunner(jobs=1, cache=None, registry=registry)
    clear_result_cache()
    previous = set_default_runner(runner)
    try:
        module.compute(default_config(duration_s=0.01))
    finally:
        set_default_runner(previous)
        clear_result_cache()
    stats = runner.stats
    assert stats.simulated == stats.fleet + stats.scalar
    assert stats.fallbacks == fallbacks
    assert stats.scalar == sum(fallbacks.values())
    by_path = {
        (dict(c.labels)["path"], dict(c.labels)["reason"]): c.value
        for c in registry.collect()
        if c.name == "runner_points_total"
    }
    assert sum(by_path.values()) == stats.simulated
    assert by_path[("fleet", "lockstep")] == stats.fleet
    assert by_path[("scalar", "task")] == fallbacks["task"]
