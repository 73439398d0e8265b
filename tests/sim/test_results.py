"""Tests for result containers."""

import pytest

from repro.sim.results import RunResult


def make_result(workload="w", bips=10.0, policy="p"):
    return RunResult(
        policy=policy,
        workload=workload,
        benchmarks=("a", "b", "c", "d"),
        duration_s=0.5,
        bips=bips,
        duty_cycle=0.8,
        instructions=bips * 0.5e9,
        per_core_instructions=(1.0, 2.0, 3.0, 4.0),
        max_temp_c=83.0,
        emergency_s=0.0,
        migrations=3,
        dvfs_transitions=100,
        stopgo_trips=0,
    )


class TestRunResult:
    def test_relative_to(self):
        base = make_result(bips=5.0)
        better = make_result(bips=12.5)
        assert better.relative_to(base) == pytest.approx(2.5)

    def test_relative_requires_same_workload(self):
        with pytest.raises(ValueError):
            make_result(workload="w1").relative_to(make_result(workload="w2"))

    def test_relative_zero_baseline(self):
        with pytest.raises(ZeroDivisionError):
            make_result().relative_to(make_result(bips=0.0))

    def test_emergency_flag(self):
        assert not make_result().had_emergency

    def test_summary_contains_key_fields(self):
        s = make_result(policy="Dist. DVFS").summary()
        assert "Dist. DVFS" in s
        assert "BIPS" in s
