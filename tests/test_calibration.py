"""Calibration shape pins.

These tests hold the reproduction to the paper's qualitative results at a
reduced horizon (0.15 s instead of 0.5 s — the policies reach their
operating regime within a few tens of milliseconds). The quantitative
bands are deliberately loose: they must catch a broken calibration, not a
small drift. The full-horizon paper comparison is generated by the
benchmark harness and recorded in EXPERIMENTS.md.
"""

import pytest

from repro.core.taxonomy import spec_by_key
from repro.experiments.common import default_config, run_cells
from repro.sim.runner import RunPoint
from repro.sim.workloads import ALL_WORKLOADS

CFG = default_config(duration_s=0.15)
#: A representative spread: hot-int, mixed, memory-bound, all-fp.
WORKLOAD_NAMES = ("workload2", "workload3", "workload7", "workload10", "workload12")
WORKLOADS = [w for w in ALL_WORKLOADS if w.name in WORKLOAD_NAMES]


def avg(key):
    results = run_cells([RunPoint(w, spec_by_key(key), CFG) for w in WORKLOADS])
    n = len(results)
    bips = sum(r.bips for r in results) / n
    duty = sum(r.duty_cycle for r in results) / n
    emergency = sum(r.emergency_s for r in results)
    return bips, duty, emergency


@pytest.fixture(scope="module")
def baseline():
    return avg("distributed-stop-go-none")


class TestBaselineRegime:
    def test_baseline_duty_around_one_third(self, baseline):
        """Paper Table 5: distributed stop-go averages ~33% duty."""
        _, duty, _ = baseline
        assert 0.22 < duty < 0.50

    def test_global_stopgo_is_worst(self, baseline):
        bips, _, _ = baseline
        g_bips, g_duty, _ = avg("global-stop-go-none")
        assert g_bips < bips
        assert g_duty < 0.35  # paper: < 20%


class TestHeadlineResults:
    def test_distributed_dvfs_around_2_5x(self, baseline):
        """The paper's headline: dist. DVFS ~2.5X over dist. stop-go."""
        base_bips, _, _ = baseline
        bips, duty, _ = avg("distributed-dvfs-none")
        assert 1.8 < bips / base_bips < 3.5
        assert duty > 0.65  # paper: 81%

    def test_global_dvfs_between(self, baseline):
        base_bips, _, _ = baseline
        g_bips, _, _ = avg("global-dvfs-none")
        d_bips, _, _ = avg("distributed-dvfs-none")
        assert base_bips < g_bips <= d_bips * 1.01

    def test_migration_rescues_stopgo(self, baseline):
        """Paper Table 6: ~2X from migration on stop-go; we land lower
        (~1.5X, see EXPERIMENTS.md) but the effect must be large."""
        base_bips, _, _ = baseline
        bips, _, _ = avg("distributed-stop-go-counter")
        assert bips / base_bips > 1.3

    def test_migration_roughly_neutral_on_dvfs(self):
        """Paper Table 6/7: +1-3% on dist. DVFS — small either way."""
        d_bips, _, _ = avg("distributed-dvfs-none")
        c_bips, _, _ = avg("distributed-dvfs-counter")
        s_bips, _, _ = avg("distributed-dvfs-sensor")
        assert abs(c_bips / d_bips - 1.0) < 0.06
        assert abs(s_bips / d_bips - 1.0) < 0.06


class TestThermalEnvelope:
    @pytest.mark.parametrize(
        "key",
        [
            "distributed-stop-go-none",
            "distributed-dvfs-none",
            "global-dvfs-none",
            "distributed-dvfs-sensor",
        ],
    )
    def test_no_emergencies(self, key):
        _, _, emergency = avg(key)
        assert emergency == 0.0


class TestDutyCyclePredictsThroughput:
    def test_duty_metric_validity(self):
        """The paper validated the duty metric: achieved BIPS relative to
        the uncontrolled case is predicted by the measured duty cycle."""
        for w in WORKLOADS[:3]:
            controlled, free = run_cells([
                RunPoint(w, spec_by_key("distributed-dvfs-none"), CFG),
                RunPoint(w, None, CFG),
            ])
            predicted = controlled.duty_cycle
            actual = controlled.bips / free.bips
            assert actual == pytest.approx(predicted, abs=0.08)
