"""Result persistence and reporting.

:class:`~repro.sim.results.RunResult` objects serialise to/from plain
JSON (the scalar metrics; observability attachments stay out), and a
set of results renders as a comparison report. This is what a downstream
study would archive next to its configuration.
"""

from __future__ import annotations

import json
import pathlib
from typing import Dict, List, Sequence, Union

from repro.sim.results import RunResult
from repro.util.tables import render_table

_PathLike = Union[str, pathlib.Path]

#: Serialisation format version.
FORMAT_VERSION = 1

#: RunResult fields persisted: the scalar metrics, no attachments.
_FIELDS = (
    "policy",
    "workload",
    "benchmarks",
    "duration_s",
    "bips",
    "duty_cycle",
    "instructions",
    "per_core_instructions",
    "max_temp_c",
    "emergency_s",
    "migrations",
    "dvfs_transitions",
    "stopgo_trips",
    "prochot_events",
)


def result_to_dict(result: RunResult) -> Dict:
    """A JSON-safe dictionary of one result's scalar metrics."""
    out = {"format_version": FORMAT_VERSION}
    for name in _FIELDS:
        value = getattr(result, name)
        if isinstance(value, tuple):
            value = list(value)
        out[name] = value
    return out


def result_from_dict(data: Dict) -> RunResult:
    """Inverse of :func:`result_to_dict`."""
    if data.get("format_version") != FORMAT_VERSION:
        raise ValueError(
            f"unsupported result format version {data.get('format_version')}"
        )
    kwargs = {name: data.get(name, 0) for name in _FIELDS}
    kwargs["benchmarks"] = tuple(kwargs["benchmarks"])
    kwargs["per_core_instructions"] = tuple(kwargs["per_core_instructions"])
    return RunResult(**kwargs)


def save_results(results: Sequence[RunResult], path: _PathLike) -> pathlib.Path:
    """Write a list of results as a JSON document."""
    path = pathlib.Path(path)
    if path.suffix != ".json":
        path = path.with_suffix(path.suffix + ".json")
    payload = {
        "format_version": FORMAT_VERSION,
        "results": [result_to_dict(r) for r in results],
    }
    path.write_text(json.dumps(payload, indent=2), encoding="utf-8")
    return path


def load_results(path: _PathLike) -> List[RunResult]:
    """Read results written by :func:`save_results`."""
    payload = json.loads(pathlib.Path(path).read_text(encoding="utf-8"))
    if payload.get("format_version") != FORMAT_VERSION:
        raise ValueError(
            f"unsupported results-file format version "
            f"{payload.get('format_version')}"
        )
    return [result_from_dict(d) for d in payload["results"]]


def comparison_report(
    results: Sequence[RunResult],
    baseline_policy: str = "Dist. stop-go",
    title: str = "Policy comparison",
) -> str:
    """Render results as a comparison table, normalised to a baseline.

    Results are grouped by policy (averaged across workloads when a
    policy appears multiple times). If ``baseline_policy`` is absent, the
    relative column is omitted.
    """
    if not results:
        raise ValueError("no results to report")
    by_policy: Dict[str, List[RunResult]] = {}
    for r in results:
        by_policy.setdefault(r.policy, []).append(r)

    def avg(items: List[RunResult], attr: str) -> float:
        """Mean of ``attr`` over ``items``."""
        return sum(getattr(r, attr) for r in items) / len(items)

    base_bips = (
        avg(by_policy[baseline_policy], "bips")
        if baseline_policy in by_policy
        else None
    )
    rows = []
    for policy, items in by_policy.items():
        row = [
            policy,
            str(len(items)),
            f"{avg(items, 'bips'):.2f}",
            f"{avg(items, 'duty_cycle'):.1%}",
            f"{max(r.max_temp_c for r in items):.1f}",
        ]
        if base_bips:
            row.append(f"{avg(items, 'bips') / base_bips:.2f}X")
        rows.append(row)
    headers = ["policy", "runs", "avg BIPS", "avg duty", "max T (C)"]
    if base_bips:
        headers.append("vs baseline")
    return render_table(headers, rows, title=title)
