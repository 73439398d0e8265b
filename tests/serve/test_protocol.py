"""Wire-schema tests: request validation and payload serialisation."""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.core.taxonomy import spec_by_key
from repro.serve.protocol import (
    CONFIG_FIELDS,
    MAX_REQUEST_STEPS,
    SWEEP_FIELDS,
    JobRequest,
    ProtocolError,
    job_payload,
)
from repro.sim.engine import SimulationConfig, run_workload
from repro.sim.report import result_to_dict
from repro.sim.workloads import get_workload


class TestParse:
    def test_defaults(self):
        request = JobRequest.parse({})
        assert request.workloads == ("workload7",)
        assert request.policy is None
        assert request.config_overrides == ()
        assert request.sweep_values == ()
        assert request.backend is None
        assert request.priority == 0
        assert request.n_points == 1

    def test_full_request(self):
        request = JobRequest.parse(
            {
                "workloads": ["workload1", "workload7"],
                "policy": "distributed-dvfs-none",
                "config": {"duration_s": 0.002, "threshold_c": 82.0},
                "sweep": {"field": "threshold_c", "values": [80.0, 85.0]},
                "backend": "fleet",
                "priority": 3,
                "timeout_s": 10,
            }
        )
        assert request.workloads == ("workload1", "workload7")
        assert request.policy == "distributed-dvfs-none"
        assert dict(request.config_overrides) == {
            "duration_s": 0.002, "threshold_c": 82.0,
        }
        assert request.sweep_field == "threshold_c"
        assert request.sweep_values == (80.0, 85.0)
        assert request.n_points == 4
        assert request.timeout_s == 10.0

    def test_policy_none_string(self):
        assert JobRequest.parse({"policy": "none"}).policy is None

    def test_policy_canonicalised(self):
        spec = spec_by_key("distributed-dvfs-none")
        # Whatever alias the taxonomy accepts must resolve to the
        # canonical key, so equal requests hash to equal cache keys.
        assert JobRequest.parse({"policy": spec.key}).policy == spec.key

    @pytest.mark.parametrize(
        "body",
        [
            {"nonsense": 1},
            {"workload": "no-such-workload"},
            {"policy": "no-such-policy"},
            {"workloads": []},
            {"workloads": ["workload7"], "workload": "workload7"},
            {"config": {"machine": {}}},
            {"config": {"record_series": True}},
            {"config": {"duration_s": "fast"}},
            {"config": {"hardware_trip": 1}},
            {"sweep": {"field": "threshold_c"}},
            {"sweep": {"field": "fault_plan", "values": [1]}},
            {"sweep": {"field": "threshold_c", "values": []}},
            {"backend": "gpu"},
            {"priority": 1.5},
            {"priority": True},
            {"timeout_s": 0},
            {"timeout_s": -3},
        ],
    )
    def test_rejects(self, body):
        with pytest.raises(ProtocolError):
            JobRequest.parse(body)

    @pytest.mark.parametrize(
        "text",
        [
            '{"policy": "distributed-dvfs-none", "config": {"threshold_c": NaN}}',
            '{"config": {"power_scale": Infinity}}',
            '{"config": {"sensor_offset_c": -Infinity}}',
            '{"config": {"warm_start_fraction": NaN}}',
            '{"config": {"duration_s": 1e400}}',
            pytest.param(
                '{"config": {"threshold_c": 1' + "0" * 400 + "}}",
                id="int-past-float-range",
            ),
            '{"sweep": {"field": "power_scale", "values": [1.0, Infinity]}}',
            '{"config": {"seed": 1.5}}',
            '{"config": {"seed": 2.0}}',
            '{"config": {"seed": true}}',
            '{"sweep": {"field": "seed", "values": [1, 1.5]}}',
        ],
    )
    def test_rejects_non_finite_numbers_and_non_integer_seeds(self, text):
        """Parsed from the wire as a server parses it: JSON's NaN and
        Infinity literals must not reach a configuration."""
        with pytest.raises(ProtocolError):
            JobRequest.parse(json.loads(text))

    def test_integer_seeds_and_finite_numbers_accepted(self):
        request = JobRequest.parse(
            {
                "config": {"seed": 7, "threshold_c": 1e6, "power_scale": 2},
                "sweep": {"field": "seed", "values": [1, 2, 3]},
            }
        )
        assert [p.config.seed for p in request.run_points()] == [1, 2, 3]

    def test_not_a_dict(self):
        with pytest.raises(ProtocolError):
            JobRequest.parse(["not", "a", "dict"])

    def test_sweep_fields_are_config_fields(self):
        assert set(SWEEP_FIELDS) <= set(CONFIG_FIELDS)

    def test_describe_is_json_safe(self):
        request = JobRequest.parse(
            {"sweep": {"field": "seed", "values": [1, 2]}, "priority": 2}
        )
        echo = json.loads(json.dumps(request.describe()))
        assert echo["n_points"] == 2
        assert echo["sweep"] == {"field": "seed", "values": [1, 2]}


class TestRunPoints:
    def test_grid_matches_sweep_order(self):
        """The expanded grid is sweep value major, workload minor."""
        request = JobRequest.parse(
            {
                "workloads": ["workload1", "workload7"],
                "policy": "distributed-dvfs-none",
                "config": {"duration_s": 0.002},
                "sweep": {"field": "threshold_c", "values": [80.0, 90.0]},
            }
        )
        points = request.run_points()
        spec = spec_by_key("distributed-dvfs-none")
        workloads = [get_workload("workload1"), get_workload("workload7")]
        base = SimulationConfig(duration_s=0.002)
        expected = [
            (w.name, replace(base, threshold_c=v))
            for v in (80.0, 90.0)
            for w in workloads
        ]
        assert [(p.workload.name, p.config) for p in points] == expected
        assert all(p.spec is spec for p in points)

    def test_no_sweep_one_point_per_workload(self):
        request = JobRequest.parse({"workloads": ["workload1", "workload7"]})
        points = request.run_points()
        assert [p.workload.name for p in points] == ["workload1", "workload7"]
        assert all(p.spec is None for p in points)

    def test_grid_steps_over_the_budget_are_rejected_at_parse(self):
        """A job that cannot finish inside the job timeout keeps its
        executor thread stepping after the timeout; refuse it up front."""
        with pytest.raises(ProtocolError, match="steps"):
            JobRequest.parse({"config": {"duration_s": 1e9}})
        period = SimulationConfig().machine.sample_period_s
        per_point = MAX_REQUEST_STEPS // 4
        body = {
            "workloads": ["workload1", "workload7"],
            "config": {"duration_s": per_point * period},
            "sweep": {"field": "seed", "values": [1, 2]},
        }
        request = JobRequest.parse(body)
        steps = sum(p.config.n_steps for p in request.run_points())
        assert steps == MAX_REQUEST_STEPS
        body["sweep"]["values"].append(3)
        with pytest.raises(ProtocolError, match="steps"):
            JobRequest.parse(body)
        # A duration sweep counts each value's own steps.
        sweep = {"field": "duration_s", "values": [per_point * period] * 4}
        assert JobRequest.parse({"sweep": sweep}).n_points == 4
        sweep["values"][-1] = (per_point + 1) * period
        with pytest.raises(ProtocolError, match="steps"):
            JobRequest.parse({"sweep": sweep})

    def test_invalid_config_surfaces_as_protocol_error(self):
        request = JobRequest.parse({"config": {"duration_s": -1.0}})
        with pytest.raises(ProtocolError):
            request.run_points()


class TestJobPayload:
    def test_payload_round_trips_results(self):
        request = JobRequest.parse(
            {"config": {"duration_s": 0.002},
             "sweep": {"field": "seed", "values": [1, 2]}}
        )
        points = request.run_points()
        results = [
            run_workload(p.workload, p.spec, p.config) for p in points
        ]
        payload = job_payload(request, results)
        assert payload["n_points"] == 2
        assert [e["value"] for e in payload["points"]] == [1, 2]
        assert [e["result"] for e in payload["points"]] == [
            result_to_dict(r) for r in results
        ]
        # JSON round trip preserves the serialisation exactly
        # (shortest-repr floats), i.e. payload equality is bit-identity.
        assert json.loads(json.dumps(payload)) == payload
