"""The benchmark definition is within its limits and agrees with itself."""

import json
from pathlib import Path

from bench import spec
from bench.workloads import WORKLOAD_CLASSES

ROOT = Path(__file__).resolve().parents[2]


def _names(items):
    return [item.name for item in items]


def test_limits():
    assert 2 <= len(spec.WORKLOADS) <= 8
    assert 1 <= len(spec.END_TO_END) <= 16
    assert 1 <= len(spec.PER_LAYER) <= 128


def test_names_units_and_directions():
    names = (
        _names(spec.WORKLOADS) + _names(spec.END_TO_END) + _names(spec.PER_LAYER)
    )
    assert len(names) == len(set(names)), "every name is used once"
    for name in names:
        assert spec.NAME_RE.match(name), name
    for metric in spec.END_TO_END + spec.PER_LAYER:
        assert spec.UNIT_RE.match(metric.unit), metric
        assert metric.better in ("lower", "higher"), metric
    for workload in spec.WORKLOADS:
        assert "\n" not in workload.why and len(workload.why) <= 200


def test_end_to_end_bounds_and_setup_metric():
    # 10% on times, 5% on memory; a noisy machine is met by steadier
    # measurement, never by a looser bound.
    bounds = {m.name: m.bound for m in spec.END_TO_END}
    assert bounds == {"setup_s": 0.1, "cold_s": 0.1, "warm_ms": 0.1,
                      "throughput": 0.1, "peak_rss_mb": 0.05}
    setup = next(m for m in spec.END_TO_END if m.name == "setup_s")
    assert (setup.unit, setup.better) == ("s", "lower")
    assert setup.bound == max(m.bound for m in spec.END_TO_END)


def test_every_per_layer_metric_maps_to_an_end_to_end_metric_and_workload():
    end_to_end = set(_names(spec.END_TO_END))
    workloads = set(spec.WORKLOAD_NAMES)
    for metric in spec.PER_LAYER:
        assert metric.moves, metric.name
        for e2e, workload in metric.moves:
            assert e2e in end_to_end, (metric.name, e2e)
            assert workload in workloads, (metric.name, workload)


def test_benchmark_json_agrees_with_the_benchmark():
    committed = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert committed == spec.benchmark_json()
    assert set(committed) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    for path in committed["paths"]:
        assert (ROOT / path).is_dir(), path
    assert (ROOT / committed["command"][1]).is_file()
    assert list(WORKLOAD_CLASSES) == list(spec.WORKLOAD_NAMES)
