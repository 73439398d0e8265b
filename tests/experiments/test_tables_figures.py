"""Tests for the table/figure experiment modules.

These run at a short horizon over a workload subset — enough to verify
the modules' mechanics and coarse orderings; the full-horizon paper
comparison lives in benchmarks/ and EXPERIMENTS.md, with the shape pins
in tests/test_calibration.py.
"""

import numpy as np
import pytest

from repro.experiments import figure3, figure5, figure7, table5, table6, table7, table8
from repro.experiments.common import default_config, set_default_runner
from repro.sim.runner import ParallelRunner, ResultCache
from repro.sim.workloads import get_workload

CFG = default_config(duration_s=0.04)
# Subset spanning hot-int, mixed, cool and all-fp workloads.
WORKLOADS = [get_workload(n) for n in ("workload3", "workload7", "workload10")]


@pytest.fixture(scope="module")
def t5_rows():
    return table5.compute(CFG, WORKLOADS)


class TestTable5:
    def test_four_rows_in_order(self, t5_rows):
        keys = [r.spec_key for r in t5_rows]
        assert keys == [s.key for s in table5.TABLE5_SPECS]

    def test_baseline_normalised(self, t5_rows):
        by_key = {r.spec_key: r for r in t5_rows}
        assert by_key["distributed-stop-go-none"].relative_throughput == pytest.approx(1.0)

    def test_orderings(self, t5_rows):
        by_key = {r.spec_key: r.relative_throughput for r in t5_rows}
        assert by_key["global-stop-go-none"] < 1.0
        assert by_key["global-dvfs-none"] > 1.0
        assert by_key["distributed-dvfs-none"] >= by_key["global-dvfs-none"]

    def test_duty_cycle_orderings(self, t5_rows):
        by_key = {r.spec_key: r.duty_cycle for r in t5_rows}
        assert by_key["distributed-dvfs-none"] > by_key["distributed-stop-go-none"]

    def test_render(self, t5_rows):
        text = table5.render(t5_rows)
        assert "Table 5" in text
        assert "Dist. DVFS" in text


class TestFigure3:
    def test_rows_per_workload(self):
        rows = figure3.compute(CFG, WORKLOADS)
        assert [r.workload for r in rows] == [w.name for w in WORKLOADS]
        for r in rows:
            assert set(r.relative) == set(figure3.FIGURE3_KEYS)

    def test_dist_dvfs_wins_everywhere(self):
        rows = figure3.compute(CFG, WORKLOADS)
        for r in rows:
            assert r.relative["distributed-dvfs-none"] >= r.relative[
                "global-stop-go-none"
            ]

    def test_render(self):
        text = figure3.render(figure3.compute(CFG, WORKLOADS))
        assert "Figure 3" in text


class TestTable6And7:
    def test_table6_rows(self):
        rows = table6.compute(CFG, WORKLOADS)
        assert len(rows) == 4
        for r in rows:
            assert "migration" in r.policy_name
            assert r.speedup_over_base > 0

    def test_stopgo_migration_speedup_exceeds_dvfs_migration_speedup(self):
        """Migration rescues stop-go far more than it helps DVFS."""
        rows = {r.spec_key: r for r in table6.compute(CFG, WORKLOADS)}
        assert (
            rows["distributed-stop-go-counter"].speedup_over_base
            > rows["distributed-dvfs-counter"].speedup_over_base
        )

    def test_table7_references_counter(self):
        rows = table7.compute(CFG, WORKLOADS)
        assert len(rows) == 4
        for r in rows:
            assert 0.5 < r.speedup_over_counter < 2.0

    def test_renders(self):
        assert "Table 6" in table6.render(table6.compute(CFG, WORKLOADS))
        assert "Table 7" in table7.render(table7.compute(CFG, WORKLOADS))


class TestFigure7:
    def test_deltas_are_small_percentages(self):
        rows = figure7.compute(CFG, WORKLOADS)
        for r in rows:
            assert -15.0 < r.counter_delta_pct < 20.0
            assert -15.0 < r.sensor_delta_pct < 20.0

    def test_render(self):
        assert "Figure 7" in figure7.render(figure7.compute(CFG, WORKLOADS))


class TestTable8:
    @pytest.fixture(scope="class")
    def grid(self):
        return table8.compute(CFG, WORKLOADS)

    def test_all_twelve_cells(self, grid):
        assert len(grid.relative) == 12

    def test_baseline_cell_is_one(self, grid):
        assert grid.relative["distributed-stop-go-none"] == pytest.approx(1.0)

    def test_best_policy_is_dvfs_family(self, grid):
        assert "dvfs" in grid.best_key

    def test_render_contains_baseline_marker(self, grid):
        assert "baseline" in table8.render(grid)


@pytest.fixture(scope="module")
def fig5_data():
    return figure5.compute(default_config(duration_s=0.05))


class TestFigure5:
    def test_window_extraction(self, fig5_data):
        data = fig5_data
        assert len(data.times_ms) == len(data.intreg_temp_c)
        assert len(data.resident_benchmark) == len(data.times_ms)
        assert 0 <= data.core < 4
        # Residency changes occurred within the window.
        assert len(data.resident_sequence) >= 2

    def test_scales_physical(self, fig5_data):
        assert fig5_data.frequency_scale.min() >= 0.0
        assert fig5_data.frequency_scale.max() <= 1.0

    def test_render(self, fig5_data):
        text = figure5.render(fig5_data, n_rows=8)
        assert "Figure 5" in text
        assert "->" in text

    def test_window_is_cached(self, tmp_path, fig5_data):
        """A second compute through a disk-cached runner is one cache hit
        that simulates nothing, and the cache holds the extracted window."""
        cache = ResultCache(tmp_path / "cache")
        runner = ParallelRunner(jobs=1, cache=cache, version="vtest")
        previous = set_default_runner(runner)
        try:
            first = figure5.compute(default_config(duration_s=0.05))
            assert runner.stats.simulated == 1
            second = figure5.compute(default_config(duration_s=0.05))
        finally:
            set_default_runner(previous)
        assert runner.stats.simulated == 1
        assert runner.stats.cache_hits == 1
        for data in (first, second):
            assert data.core == fig5_data.core
            assert data.resident_benchmark == fig5_data.resident_benchmark
            np.testing.assert_array_equal(
                data.frequency_scale, fig5_data.frequency_scale
            )
        (entry,) = (tmp_path / "cache").glob("*/*.pkl")
        assert isinstance(cache.get(entry.stem), figure5.Figure5Data)
