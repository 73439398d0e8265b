"""Helpers shared by the workloads, the runner and the comparison tool."""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import math
import statistics
from pathlib import Path
from typing import Dict, List, Sequence

BENCH_DIR = Path(__file__).resolve().parent
EXPECTED_DIR = BENCH_DIR / "expected"
OUT_DIR = BENCH_DIR / "out"


def quartiles(values: Sequence[float]):
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)``."""
    if len(values) < 2:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of ``values`` (``fraction`` in [0, 1])."""
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def canonical(obj):
    """A JSON-safe, exact form of a result object.

    Dataclasses become ``{field: value}``, floats their ``repr`` (which
    round-trips exactly, NaN included), tuples lists, enums their value.
    Two results are bitwise equal exactly when their canonical forms are.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return repr(obj)
    if isinstance(obj, enum.Enum):
        return canonical(obj.value)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: canonical(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, (list, tuple)):
        return [canonical(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): canonical(v) for k, v in sorted(obj.items())}
    if hasattr(obj, "tobytes"):  # numpy arrays and scalars
        return {"dtype": str(obj.dtype), "shape": list(getattr(obj, "shape", ())),
                "sha256": hashlib.sha256(obj.tobytes()).hexdigest()}
    raise TypeError(f"no canonical form for {type(obj).__name__}")


def result_tuple(result) -> list:
    """A result's headline numbers plus a digest of its canonical form."""
    return [
        result.workload, result.policy, repr(result.bips),
        repr(result.duty_cycle), repr(result.max_temp_c),
        repr(result.emergency_s), result.migrations, result.dvfs_transitions,
        result.stopgo_trips, sha256(dumps(canonical(result)))[:16],
    ]


def dumps(obj) -> str:
    """Deterministic compact JSON."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def sha256(text: str) -> str:
    """Hex SHA-256 of a string."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_expected(workload: str):
    """The committed default-seed outputs of ``workload``, or None."""
    path = EXPECTED_DIR / f"{workload}.json"
    if not path.exists():
        return None
    return json.loads(path.read_text(encoding="utf-8"))


def write_expected(workload: str, outputs) -> Path:
    """Commit ``outputs`` as the default-seed expectation of ``workload``."""
    EXPECTED_DIR.mkdir(exist_ok=True)
    path = EXPECTED_DIR / f"{workload}.json"
    path.write_text(json.dumps(outputs, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path


def diff_outputs(expected, actual, limit: int = 5) -> List[str]:
    """Human-readable differences between two output documents."""
    problems: List[str] = []
    keys = sorted(set(expected) | set(actual))
    for key in keys:
        if dumps(expected.get(key)) != dumps(actual.get(key)):
            problems.append(f"{key}: output differs from bench/expected")
            if len(problems) >= limit:
                break
    return problems


def load_records(paths: Sequence[str]) -> List[Dict]:
    """Result records (one JSON object per file) from files or directory trees."""
    records = []
    for raw in paths:
        path = Path(raw)
        files = sorted(path.rglob("*.json")) if path.is_dir() else [path]
        for file in files:
            records.append(json.loads(file.read_text(encoding="utf-8")))
    return records
