"""Stage latencies are read back from the server's histograms correctly."""

import math

import pytest

from bench.serving import (
    bucket_quantile,
    histogram_delta,
    histogram_mean,
    parse_histograms,
    parse_samples,
)
from repro.obs.exporters import prometheus_text
from repro.obs.telemetry import MetricsRegistry

BUCKETS = [(1.0, 10.0), (2.0, 30.0), (math.inf, 40.0)]


@pytest.mark.parametrize(
    "q, expected",
    [
        (0.0, 0.0),
        (0.25, 1.0),    # rank 10: the top of the first bucket
        (0.5, 1.5),     # rank 20: halfway through (1, 2]
        (0.75, 2.0),    # rank 30: the top of (1, 2]
        (0.95, 2.0),    # rank 38 lands in +Inf: highest finite bound
    ],
)
def test_bucket_quantile_interpolates_within_the_bucket(q, expected):
    assert bucket_quantile(q, BUCKETS) == pytest.approx(expected)


def test_bucket_quantile_of_an_empty_histogram_is_nan():
    assert math.isnan(bucket_quantile(0.5, [(1.0, 0.0), (math.inf, 0.0)]))
    with pytest.raises(ValueError):
        bucket_quantile(1.5, BUCKETS)


def test_histograms_round_trip_through_the_server_exposition():
    registry = MetricsRegistry()
    hist = registry.histogram("ttfb_seconds", (0.001, 0.01, 0.1), help="t")
    registry.counter("serve_jobs_total", help="j", state="failed").inc(3)
    for value in (0.0005, 0.002, 0.004, 0.006, 0.05):
        hist.observe(value)
    before = parse_histograms(prometheus_text(registry))["ttfb_seconds"]
    for value in (0.02, 0.03, 0.04, 0.2):
        hist.observe(value)
    text = prometheus_text(registry)
    after = parse_histograms(text)["ttfb_seconds"]
    assert after["count"] == 9
    assert [count for _le, count in after["buckets"]] == [1, 4, 8, 9]
    delta = histogram_delta(after, before)
    assert [count for _le, count in delta["buckets"]] == [0, 0, 3, 4]
    assert histogram_mean(delta) == pytest.approx(0.29 / 4)
    # Rank 2 of 4 falls in (0.01, 0.1], which holds 3: 0.01 + 0.09 * 2/3.
    assert bucket_quantile(0.5, delta["buckets"]) == pytest.approx(0.07)
    assert parse_samples(text)['serve_jobs_total{state="failed"}'] == 3
