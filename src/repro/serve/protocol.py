"""JSON wire schema of the thermal-simulation service.

A *job request* names the same ingredients a direct
:class:`~repro.sim.runner.ParallelRunner` call takes — workloads, a
policy key, scalar configuration overrides — plus an optional sweep
axis, and expands to the identical :class:`~repro.sim.runner.RunPoint`
grid :func:`repro.sim.sweep.sweep_config_field` would build. Because
the server routes those points through an ordinary runner, a served
result is bit-identical to a local run of the same request (the tests
in ``tests/serve/test_server.py`` enforce this for both backends).

Everything here is transport-agnostic pure data: parsing/validation of
request dictionaries (:class:`JobRequest`), and serialisation of result
batches into the response payload (:func:`job_payload`), reusing
:func:`repro.sim.report.result_to_dict` so the served result schema is
the same one ``repro compare -o`` archives.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.taxonomy import spec_by_key
from repro.sim.engine import SimulationConfig
from repro.sim.report import result_to_dict
from repro.sim.runner import RunPoint
from repro.sim.workloads import get_workload

#: Wire-format identifier carried by every response envelope.
PROTOCOL_VERSION = "repro-serve/1"

#: SimulationConfig fields a request may override: JSON-safe scalars
#: only (the structured fields — machine, package, fault plans, guards —
#: stay server-side concerns).
CONFIG_FIELDS: Tuple[str, ...] = (
    "duration_s",
    "threshold_c",
    "seed",
    "trace_duration_s",
    "warm_start_fraction",
    "migration_period_s",
    "sensor_noise_std_c",
    "sensor_quantization_c",
    "sensor_offset_c",
    "hardware_trip",
    "hardware_trip_freeze_s",
    "power_scale",
    "fuse_steps",
)

#: Fields accepted as a sweep axis (numeric scalars only).
SWEEP_FIELDS: Tuple[str, ...] = (
    "duration_s",
    "threshold_c",
    "seed",
    "warm_start_fraction",
    "migration_period_s",
    "sensor_noise_std_c",
    "sensor_quantization_c",
    "sensor_offset_c",
    "power_scale",
)

_BOOL_FIELDS = frozenset(
    f.name for f in fields(SimulationConfig) if f.type in ("bool", bool)
)


class ProtocolError(ValueError):
    """A malformed or invalid request; maps to HTTP 400."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ProtocolError(message)


def _check_scalar(field: str, value) -> object:
    """Validate one config override value against its field."""
    if field in _BOOL_FIELDS:
        _require(
            isinstance(value, bool),
            f"config field {field!r} must be a boolean, got {value!r}",
        )
        return value
    if value is None and field == "warm_start_fraction":
        return None
    _require(
        isinstance(value, (int, float)) and not isinstance(value, bool),
        f"config field {field!r} must be a number, got {value!r}",
    )
    return value


@dataclass(frozen=True)
class JobRequest:
    """One validated job: a (sweep x workloads) grid of run points.

    ``sweep_values`` empty means "no sweep": the grid is just the base
    configuration across ``workloads``. ``backend`` ``None`` defers to
    the server's default execution backend.
    """

    workloads: Tuple[str, ...]
    policy: Optional[str]
    config_overrides: Tuple[Tuple[str, object], ...] = ()
    sweep_field: Optional[str] = None
    sweep_values: Tuple[object, ...] = ()
    backend: Optional[str] = None
    priority: int = 0
    timeout_s: Optional[float] = None

    @classmethod
    def parse(cls, data: Dict) -> "JobRequest":
        """Validate a request dictionary into a :class:`JobRequest`.

        Raises :class:`ProtocolError` with a client-actionable message
        on any schema violation — unknown workload or policy, non-scalar
        override, unknown or non-numeric sweep field, bad backend.
        """
        _require(isinstance(data, dict), "request body must be a JSON object")
        unknown = set(data) - {
            "workload", "workloads", "policy", "config", "sweep",
            "backend", "priority", "timeout_s",
        }
        _require(not unknown, f"unknown request fields: {sorted(unknown)}")

        if "workloads" in data:
            _require(
                "workload" not in data,
                "give either 'workload' or 'workloads', not both",
            )
            raw_workloads = data["workloads"]
            _require(
                isinstance(raw_workloads, list) and raw_workloads,
                "'workloads' must be a non-empty list",
            )
        else:
            raw_workloads = [data.get("workload", "workload7")]
        workloads = []
        for name in raw_workloads:
            try:
                workloads.append(get_workload(name).name)
            except (KeyError, TypeError):
                raise ProtocolError(f"unknown workload {name!r}") from None

        policy = data.get("policy")
        if policy is not None and policy != "none":
            try:
                policy = spec_by_key(policy).key
            except (KeyError, AttributeError):
                raise ProtocolError(f"unknown policy key {policy!r}") from None
        else:
            policy = None

        overrides = data.get("config", {})
        _require(
            isinstance(overrides, dict),
            "'config' must be an object of SimulationConfig overrides",
        )
        checked: List[Tuple[str, object]] = []
        for field in sorted(overrides):
            _require(
                field in CONFIG_FIELDS,
                f"unknown or unsupported config field {field!r}; "
                f"supported: {list(CONFIG_FIELDS)}",
            )
            checked.append((field, _check_scalar(field, overrides[field])))

        sweep_field = None
        sweep_values: Tuple[object, ...] = ()
        sweep = data.get("sweep")
        if sweep is not None:
            _require(
                isinstance(sweep, dict)
                and set(sweep) == {"field", "values"},
                "'sweep' must be {'field': ..., 'values': [...]}",
            )
            sweep_field = sweep["field"]
            _require(
                sweep_field in SWEEP_FIELDS,
                f"unknown sweep field {sweep_field!r}; "
                f"supported: {list(SWEEP_FIELDS)}",
            )
            raw_values = sweep["values"]
            _require(
                isinstance(raw_values, list) and raw_values,
                "'sweep.values' must be a non-empty list",
            )
            sweep_values = tuple(
                _check_scalar(sweep_field, v) for v in raw_values
            )

        backend = data.get("backend")
        _require(
            backend in (None, "pool", "fleet"),
            f"backend must be 'pool' or 'fleet', got {backend!r}",
        )
        priority = data.get("priority", 0)
        _require(
            isinstance(priority, int) and not isinstance(priority, bool),
            f"priority must be an integer, got {priority!r}",
        )
        timeout_s = data.get("timeout_s")
        if timeout_s is not None:
            _require(
                isinstance(timeout_s, (int, float))
                and not isinstance(timeout_s, bool)
                and timeout_s > 0,
                f"timeout_s must be a positive number, got {timeout_s!r}",
            )
            timeout_s = float(timeout_s)
        return cls(
            workloads=tuple(workloads),
            policy=policy,
            config_overrides=tuple(checked),
            sweep_field=sweep_field,
            sweep_values=sweep_values,
            backend=backend,
            priority=priority,
            timeout_s=timeout_s,
        )

    @property
    def n_points(self) -> int:
        """Size of the request's run-point grid."""
        return max(1, len(self.sweep_values)) * len(self.workloads)

    def base_config(self) -> SimulationConfig:
        """The request's configuration before any sweep substitution."""
        try:
            return SimulationConfig(**dict(self.config_overrides))
        except (ValueError, TypeError) as exc:
            raise ProtocolError(f"invalid configuration: {exc}") from None

    def run_points(self) -> List[RunPoint]:
        """Expand to the grid a direct sweep call would build.

        Order matches :func:`repro.sim.sweep.sweep_config_field`: sweep
        value major, workload minor.
        """
        base = self.base_config()
        spec = spec_by_key(self.policy) if self.policy else None
        workloads = [get_workload(name) for name in self.workloads]
        if not self.sweep_values:
            return [RunPoint(w, spec, base) for w in workloads]
        points = []
        for value in self.sweep_values:
            try:
                config = replace(base, **{self.sweep_field: value})
            except (ValueError, TypeError) as exc:
                raise ProtocolError(
                    f"invalid sweep value {value!r} for "
                    f"{self.sweep_field!r}: {exc}"
                ) from None
            points.extend(RunPoint(w, spec, config) for w in workloads)
        return points

    def describe(self) -> Dict:
        """JSON-safe echo of the request for status responses."""
        return {
            "workloads": list(self.workloads),
            "policy": self.policy,
            "config": dict(self.config_overrides),
            "sweep": (
                {"field": self.sweep_field, "values": list(self.sweep_values)}
                if self.sweep_field is not None
                else None
            ),
            "backend": self.backend,
            "priority": self.priority,
            "timeout_s": self.timeout_s,
            "n_points": self.n_points,
        }


def job_payload(request: JobRequest, results: Sequence) -> Dict:
    """The result payload for a completed job.

    One entry per run point, in the request's grid order, each carrying
    the sweep value it was run at (``None`` without a sweep) and the
    :func:`~repro.sim.report.result_to_dict` serialisation of its
    result — floats round-trip exactly through JSON (shortest-repr), so
    payload equality is result bit-identity.
    """
    values = list(request.sweep_values) or [None]
    entries = []
    i = 0
    for value in values:
        for workload in request.workloads:
            entries.append(
                {
                    "value": value,
                    "workload": workload,
                    "policy": request.policy,
                    "result": result_to_dict(results[i]),
                }
            )
            i += 1
    assert i == len(results), (i, len(results))
    return {"n_points": len(entries), "points": entries}
