"""Unit tests for the bench suite plumbing (no simulations run here)."""

import json

import pytest

from repro.sim.bench import (
    DEFAULT_TOLERANCE,
    ENGINE_BENCH_CASES,
    SCHEMA,
    _scalar_twin,
    build_fleet_engine,
    build_simulator,
    case_config,
    case_steps,
    compare_to_baseline,
    fleet_n1_ratios,
    load_bench_json,
    write_bench_json,
)


def _payload(**sps):
    return {
        "schema": SCHEMA,
        "cases": {
            key: {"steps_per_second": value} for key, value in sps.items()
        },
    }


class TestCaseList:
    def test_keys_unique(self):
        keys = [c.key for c in ENGINE_BENCH_CASES]
        assert len(keys) == len(set(keys))

    def test_covers_policy_fault_and_full_axes(self):
        assert any(c.spec_key is None and c.short for c in ENGINE_BENCH_CASES)
        assert any(c.faulted for c in ENGINE_BENCH_CASES)
        assert any(not c.short for c in ENGINE_BENCH_CASES)

    def test_faulted_case_carries_plan(self):
        faulted = next(c for c in ENGINE_BENCH_CASES if c.faulted)
        plan = case_config(faulted).fault_plan
        assert plan is not None and not plan.is_empty

    def test_unfaulted_case_has_no_plan(self):
        plain = next(c for c in ENGINE_BENCH_CASES if not c.faulted)
        assert case_config(plain).fault_plan is None

    def test_case_steps_match_horizon(self):
        # 0.02 s at the 100k-cycle / 3.6 GHz sample period = 720 steps.
        short = next(c for c in ENGINE_BENCH_CASES if c.duration_s == 0.02)
        assert case_steps(short) == 720


class TestFleetN1Cases:
    FLEET = [c for c in ENGINE_BENCH_CASES if c.engine == "fleet"]

    def test_each_fleet_case_has_a_scalar_twin(self):
        assert {c.key for c in self.FLEET} == {
            "fleet-n1-unthrottled", "fleet-n1-stopgo", "fleet-n1-dvfs"
        }
        twins = {_scalar_twin(c).key for c in self.FLEET}
        assert twins == {"unthrottled", "stopgo", "dvfs"}

    def test_builds_a_one_member_fleet(self):
        case = self.FLEET[0]
        engine = build_fleet_engine(case)
        assert len(engine.members) == 1
        assert engine.members[0].sim.config == case_config(case)
        with pytest.raises(ValueError):
            build_simulator(case)
        with pytest.raises(ValueError):
            build_fleet_engine(_scalar_twin(case))

    def test_ratio_is_fleet_over_twin(self):
        payload = _payload(dvfs=1000.0, **{"fleet-n1-dvfs": 250.0})
        payload["cases"]["fleet-n1-stopgo"] = {"steps_per_second": 9.0}
        assert fleet_n1_ratios(payload) == {"fleet-n1-dvfs": 0.25}


class TestCaseSelectionFlag:
    def _parser(self):
        import argparse

        from repro.sim.bench import add_bench_arguments

        parser = argparse.ArgumentParser()
        add_bench_arguments(parser)
        return parser

    def test_known_keys_parse(self):
        args = self._parser().parse_args(
            ["--cases", "fleet-sweep-dvfs", "pool-sweep-dvfs"]
        )
        assert args.cases == ["fleet-sweep-dvfs", "pool-sweep-dvfs"]

    def test_unknown_key_rejected(self):
        with pytest.raises(SystemExit):
            self._parser().parse_args(["--cases", "no-such-case"])

    def test_default_is_all_cases(self):
        assert self._parser().parse_args([]).cases is None


class TestRegressionGate:
    def test_passes_when_equal(self):
        p = _payload(a=1000.0, b=2000.0)
        assert compare_to_baseline(p, p) == []

    def test_passes_within_tolerance(self):
        cur = _payload(a=1000.0 * (1 - DEFAULT_TOLERANCE) + 1)
        assert compare_to_baseline(cur, _payload(a=1000.0)) == []

    def test_fails_beyond_tolerance(self):
        problems = compare_to_baseline(
            _payload(a=500.0), _payload(a=1000.0)
        )
        assert len(problems) == 1 and "a:" in problems[0]

    def test_improvement_never_fails(self):
        assert compare_to_baseline(
            _payload(a=9000.0), _payload(a=1000.0)
        ) == []

    def test_short_subset_checked_against_full_baseline(self):
        baseline = _payload(a=1000.0, full_only=5000.0)
        assert compare_to_baseline(_payload(a=1000.0), baseline) == []

    def test_tolerance_validation(self):
        p = _payload(a=1.0)
        with pytest.raises(ValueError):
            compare_to_baseline(p, p, tolerance=1.5)


class TestArtifactIO:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "bench.json")
        payload = _payload(a=123.4)
        write_bench_json(payload, path)
        assert load_bench_json(path) == payload

    def test_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "other/9", "cases": {}}))
        with pytest.raises(ValueError):
            load_bench_json(str(path))


class TestCommittedBaseline:
    def test_repo_artifact_is_loadable_and_complete(self):
        import os

        root = os.path.join(os.path.dirname(__file__), "..", "..")
        payload = load_bench_json(os.path.join(root, "BENCH_engine.json"))
        # The baseline may lag the suite (new cases land before the
        # artifact is regenerated; compare_to_baseline only checks
        # shared keys) but must never name unknown cases, and every
        # CI-gated short case must be present.
        suite_keys = {c.key for c in ENGINE_BENCH_CASES}
        assert set(payload["cases"]) <= suite_keys
        short_keys = {c.key for c in ENGINE_BENCH_CASES if c.short}
        assert short_keys <= set(payload["cases"])
        for entry in payload["cases"].values():
            assert entry["steps_per_second"] > 0
