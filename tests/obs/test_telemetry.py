"""Unit tests for the metrics registry and telemetry instruments."""

import pytest

from repro.obs.telemetry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    TelemetrySampler,
    TelemetrySeries,
    instrument_id,
)


class TestInstrumentIds:
    def test_unlabelled(self):
        assert instrument_id("x_total", ()) == "x_total"

    def test_labels_sorted_and_quoted(self):
        reg = MetricsRegistry()
        gauge = reg.gauge("core_temp_c", core=3)
        assert gauge.id == 'core_temp_c{core="3"}'


class TestCounter:
    def test_monotone(self):
        reg = MetricsRegistry()
        ctr = reg.counter("hits_total")
        ctr.inc()
        ctr.inc(2.5)
        assert ctr.value == 3.5

    def test_negative_rejected(self):
        ctr = MetricsRegistry().counter("hits_total")
        with pytest.raises(ValueError):
            ctr.inc(-1.0)


class TestGauge:
    def test_set_overwrites(self):
        gauge = MetricsRegistry().gauge("temp_c")
        gauge.set(80.0)
        gauge.set(75.5)
        assert gauge.value == 75.5


class TestHistogram:
    def test_bucketing(self):
        hist = MetricsRegistry().histogram("err", buckets=(0.0, 1.0, 2.0))
        for v in (-0.5, 0.5, 0.5, 1.5, 99.0):
            hist.observe(v)
        # Per-bucket counts: one slot per finite bound plus overflow.
        assert hist.bucket_counts == [1, 2, 1, 1]
        assert hist.count == 5
        assert hist.sum == pytest.approx(101.0)
        assert hist.cumulative_counts() == [1, 3, 4, 5]

    def test_boundary_goes_to_lower_bucket(self):
        """``le`` semantics: a value equal to a bound lands at that bound."""
        hist = MetricsRegistry().histogram("err", buckets=(0.0, 1.0))
        hist.observe(1.0)
        assert hist.bucket_counts == [0, 1, 0]

    def test_unsorted_buckets_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().histogram("err", buckets=(1.0, 0.0))


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        a = reg.counter("hits_total", core=0)
        b = reg.counter("hits_total", core=0)
        assert a is b
        assert len(reg) == 1

    def test_labels_distinguish(self):
        reg = MetricsRegistry()
        a = reg.gauge("temp_c", core=0)
        b = reg.gauge("temp_c", core=1)
        assert a is not b
        assert len(reg) == 2

    def test_kind_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError):
            reg.gauge("x", core=0)

    def test_bucket_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.histogram("err", buckets=(0.0, 1.0))
        with pytest.raises(ValueError):
            reg.histogram("err", buckets=(0.0, 2.0), core=1)

    def test_collect_preserves_registration_order(self):
        reg = MetricsRegistry()
        reg.gauge("b")
        reg.counter("a_total")
        assert [i.name for i in reg.collect()] == ["b", "a_total"]

    def test_as_dict_snapshot(self):
        reg = MetricsRegistry()
        reg.counter("hits_total").inc(2)
        reg.gauge("temp_c", core=0).set(81.0)
        hist = reg.histogram("err", buckets=(0.0,))
        hist.observe(-1.0)
        snap = reg.as_dict()
        assert snap["hits_total"] == 2
        assert snap['temp_c{core="0"}'] == 81.0
        assert snap["err_count"] == 1
        assert snap["err_sum"] == -1.0

    def test_instrument_classes_exported(self):
        reg = MetricsRegistry()
        assert isinstance(reg.counter("c_total"), Counter)
        assert isinstance(reg.gauge("g"), Gauge)
        assert isinstance(reg.histogram("h", buckets=(0.0,)), Histogram)


class TestSeries:
    def test_append_and_rows(self):
        series = TelemetrySeries(1e-3, ["a", "b"])
        series.append(0.0, [1.0, 2.0])
        series.append(1e-3, [3.0, 4.0])
        assert series.n_samples == 2
        assert series.column("b") == [2.0, 4.0]
        assert series.rows() == [(0.0, [1.0, 2.0]), (1e-3, [3.0, 4.0])]

    def test_length_mismatch_rejected(self):
        series = TelemetrySeries(1e-3, ["a"])
        with pytest.raises(ValueError):
            series.append(0.0, [1.0, 2.0])


class TestSamplerConfig:
    def test_period_must_be_positive(self):
        with pytest.raises(ValueError):
            TelemetrySampler(0.0)
        with pytest.raises(ValueError):
            TelemetrySampler(-1e-3)

    @pytest.mark.parametrize("period", [float("inf"), float("nan")])
    def test_period_must_be_finite(self, period):
        with pytest.raises(ValueError, match="finite"):
            TelemetrySampler(period)

    def test_stride_quantizes_to_whole_steps(self):
        sam = TelemetrySampler(1e-3)
        dt = 1.0 / 36000.0  # the engine's 27.78 us step
        assert sam.stride_steps(dt) == 36

    def test_stride_floors_at_one_step(self):
        sam = TelemetrySampler(1e-9)
        assert sam.stride_steps(2.7778e-5) == 1
