"""Wire-schema tests: request validation and payload serialisation."""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.core.taxonomy import spec_by_key
from repro.serve.protocol import (
    CONFIG_FIELDS,
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
