"""Tests for the shared experiment machinery."""

import pytest

from repro.core.taxonomy import BASELINE_SPEC, spec_by_key
from repro.experiments.common import (
    average_metrics,
    clear_result_cache,
    default_config,
    get_default_runner,
    run_matrix,
)
from repro.sim.runner import RunPoint
from repro.sim.workloads import ALL_WORKLOADS, Workload, get_workload

QUICK = default_config(duration_s=0.01)
WORKLOADS = list(ALL_WORKLOADS[:2])


def run_one(workload, spec, config):
    (result,) = get_default_runner().run_points([RunPoint(workload, spec, config)])
    return result


class TestCaching:
    def test_cache_hit_returns_same_object(self):
        clear_result_cache()
        a = run_one(WORKLOADS[0], BASELINE_SPEC, QUICK)
        b = run_one(WORKLOADS[0], BASELINE_SPEC, QUICK)
        assert a is b

    def test_cache_distinguishes_policies(self):
        a = run_one(WORKLOADS[0], BASELINE_SPEC, QUICK)
        b = run_one(WORKLOADS[0], spec_by_key("distributed-dvfs-none"), QUICK)
        assert a is not b

    def test_cache_distinguishes_configs(self):
        a = run_one(WORKLOADS[0], BASELINE_SPEC, QUICK)
        b = run_one(
            WORKLOADS[0], BASELINE_SPEC, default_config(duration_s=0.012)
        )
        assert a is not b

    def test_cache_distinguishes_workloads_sharing_a_name(self):
        real = get_workload("workload1")
        impostor = Workload(real.name, get_workload("workload7").benchmarks)
        a = run_matrix([BASELINE_SPEC], [real], QUICK)[BASELINE_SPEC.key]
        b = run_matrix([BASELINE_SPEC], [impostor], QUICK)[BASELINE_SPEC.key]
        assert a[real.name].benchmarks == real.benchmarks
        assert b[real.name].benchmarks == impostor.benchmarks
        assert run_one(impostor, BASELINE_SPEC, QUICK) is b[real.name]

    def test_clear_reports(self):
        run_one(WORKLOADS[0], BASELINE_SPEC, QUICK)
        assert clear_result_cache() >= 1


class TestRunMatrix:
    def test_structure(self):
        grid = run_matrix([BASELINE_SPEC, None], WORKLOADS, QUICK)
        assert set(grid) == {BASELINE_SPEC.key, "unthrottled"}
        assert set(grid[BASELINE_SPEC.key]) == {w.name for w in WORKLOADS}

    def test_unthrottled_entry(self):
        grid = run_matrix([None], WORKLOADS, QUICK)
        r = grid["unthrottled"][WORKLOADS[0].name]
        assert r.policy == "unthrottled"


class TestAverages:
    def test_relative_throughput_of_baseline_is_one(self):
        grid = run_matrix([BASELINE_SPEC], WORKLOADS, QUICK)
        base = grid[BASELINE_SPEC.key]
        avg = average_metrics(base, base, BASELINE_SPEC)
        assert avg.relative_throughput == pytest.approx(1.0)
        assert avg.policy_name == BASELINE_SPEC.name

    def test_mismatched_workloads_rejected(self):
        grid = run_matrix([BASELINE_SPEC], WORKLOADS, QUICK)
        base = grid[BASELINE_SPEC.key]
        partial = {WORKLOADS[0].name: base[WORKLOADS[0].name]}
        with pytest.raises(ValueError):
            average_metrics(partial, base, BASELINE_SPEC)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            average_metrics({}, {}, BASELINE_SPEC)
