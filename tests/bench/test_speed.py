"""Times are corrected for CPU speed the way bench/speed.py documents."""

import math

import pytest

from bench.run import end_to_end
from bench.spec import SETUP_SPEED_EXPONENT
from bench.speed import REFERENCE_PROBE_S, SpeedTrace


def _trace(durations, period=0.05):
    return SpeedTrace([(i * period, d) for i, d in enumerate(durations)])


def test_reference_speed_leaves_wall_time_unchanged():
    trace = _trace([REFERENCE_PROBE_S] * 20)
    assert math.isclose(trace.reference_s(0.1, 0.7), 0.6)
    # Before the first and after the last sample the nearest one holds.
    assert math.isclose(trace.reference_s(-1.0, 3.0), 4.0)


def test_half_speed_counts_half():
    trace = _trace([REFERENCE_PROBE_S] * 10 + [2 * REFERENCE_PROBE_S] * 10)
    # Samples 0-9 at full speed hold until t = 0.475, samples 10-19 after.
    assert math.isclose(trace.reference_s(0.1, 0.3), 0.2)
    assert math.isclose(trace.reference_s(0.6, 0.8), 0.1)
    assert math.isclose(trace.reference_s(0.375, 0.575), 0.1 + 0.05)


def test_exponent_sets_how_strongly_time_follows_the_probe():
    trace = _trace([2 * REFERENCE_PROBE_S] * 20)
    assert math.isclose(trace.reference_s(0.0, 1.0, exponent=0.5), 2 ** -0.5)
    assert math.isclose(trace.reference_s(0.0, 1.0, exponent=2.0), 0.25)


def test_one_slow_probe_is_smoothed_away():
    durations = [REFERENCE_PROBE_S] * 20
    durations[10] = 5 * REFERENCE_PROBE_S  # delayed by the workload
    assert math.isclose(_trace(durations).reference_s(0.0, 1.0), 1.0)


def test_no_samples_is_an_error():
    with pytest.raises(ValueError):
        SpeedTrace([])


def test_end_to_end_metrics_are_medians_of_corrected_times():
    record = {
        "setups": [(0.0, 0.5), (1.0, 1.7), (2.0, 2.6)],
        "colds": [(3.0, 4.0)],
        "ops": [(5.0, 5.2), (6.0, 6.1), (7.0, 7.4)],
        "work": 8,
        "peak_rss_mb": 100.0,
    }
    exponents = {}

    def half(a, b, exponent):
        exponents[(a, b)] = exponent
        return (b - a) / 2

    metrics = end_to_end(record, half, 1.1)
    assert {exponents[x] for x in record["setups"]} == {SETUP_SPEED_EXPONENT}
    assert {exponents[x] for x in record["colds"] + record["ops"]} == {1.1}
    assert metrics["setup_s"] == pytest.approx(0.3)
    assert metrics["cold_s"] == pytest.approx(0.5)
    assert metrics["warm_ms"] == pytest.approx(100.0)
    assert metrics["throughput"] == pytest.approx(80.0)
    assert metrics["peak_rss_mb"] == 100.0
    assert record["wall"]["warm_ms"] == pytest.approx(200.0)
    assert record["quartiles"]["warm_ms"] == pytest.approx([50.0, 200.0])

    record["load"] = (5.0, 7.4)
    metrics = end_to_end(record, lambda a, b, exponent: b - a, 1.0)
    assert metrics["throughput"] == pytest.approx(3 / 2.4)
