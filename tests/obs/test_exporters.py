"""Unit tests for the telemetry export formats."""

import csv
import io
import json
from dataclasses import replace

import pytest

from repro.obs.exporters import (
    parse_prometheus_text,
    prometheus_text,
    read_series_jsonl,
    span_trace_events,
    write_chrome_trace,
    write_series_csv,
    write_series_jsonl,
)
from repro.obs.profiler import ENGINE_SECTIONS
from repro.obs.telemetry import MetricsRegistry, TelemetrySeries
from repro.obs.tracing import (
    KIND_POINT,
    SpanRecorder,
    TraceContext,
    finished_span,
    section_spans,
)


def _series():
    series = TelemetrySeries(1e-3, ['temp_c{core="0"}', "hits_total"])
    series.append(0.0, [80.123456789012345, 0.0])
    series.append(1e-3, [81.5, 3.0])
    return series


class TestSeriesJsonl:
    def test_round_trip_exact(self, tmp_path):
        path = tmp_path / "series.jsonl"
        original = _series()
        write_series_jsonl(original, path)
        loaded = read_series_jsonl(path)
        assert loaded.sample_period_s == original.sample_period_s
        assert list(loaded.columns) == list(original.columns)
        assert loaded.rows() == original.rows()  # floats exact

    def test_file_object_round_trip(self):
        buf = io.StringIO()
        write_series_jsonl(_series(), buf)
        buf.seek(0)
        assert read_series_jsonl(buf).n_samples == 2

    def test_header_schema(self, tmp_path):
        path = tmp_path / "series.jsonl"
        write_series_jsonl(_series(), path)
        header = json.loads(path.read_text().splitlines()[0])
        assert header["schema"] == "repro-telemetry/1"
        assert header["sample_period_s"] == 1e-3

    def test_wrong_schema_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"schema": "other/9", "sample_period_s": 1, '
                        '"columns": []}\n')
        with pytest.raises(ValueError, match="schema"):
            read_series_jsonl(path)


class TestSeriesCsv:
    def test_csv_values_round_trip_exactly(self, tmp_path):
        path = tmp_path / "series.csv"
        original = _series()
        write_series_csv(original, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t"] + list(original.columns)
        assert float(rows[1][1]) == 80.123456789012345


class TestPrometheus:
    def _registry(self):
        reg = MetricsRegistry()
        reg.gauge("core_temp_c", help="true core temperature", core=0).set(81.25)
        reg.gauge("core_temp_c", core=1).set(79.0)
        reg.counter("dvfs_transitions_total").inc(7)
        hist = reg.histogram("pi_error_c", buckets=(-1.0, 0.0, 1.0), domain=0)
        for v in (-2.0, -0.5, 0.5, 3.0):
            hist.observe(v)
        return reg

    def test_exposition_structure(self):
        text = prometheus_text(self._registry())
        assert "# HELP core_temp_c true core temperature" in text
        assert "# TYPE core_temp_c gauge" in text
        assert '# TYPE pi_error_c histogram' in text
        assert 'core_temp_c{core="0"} 81.25' in text
        assert 'pi_error_c_bucket{domain="0",le="+Inf"} 4' in text
        assert 'pi_error_c_count{domain="0"} 4' in text

    def test_buckets_cumulative(self):
        text = prometheus_text(self._registry())
        values = parse_prometheus_text(text)
        assert values['pi_error_c_bucket{domain="0",le="-1.0"}'] == 1
        assert values['pi_error_c_bucket{domain="0",le="0.0"}'] == 2
        assert values['pi_error_c_bucket{domain="0",le="1.0"}'] == 3
        assert values['pi_error_c_bucket{domain="0",le="+Inf"}'] == 4

    def test_parse_inverts_format(self):
        values = parse_prometheus_text(prometheus_text(self._registry()))
        assert values["dvfs_transitions_total"] == 7
        assert values['core_temp_c{core="1"}'] == 79.0


def _valid_trace_event(event):
    """Chrome trace-event schema check for the phases we emit."""
    assert event["ph"] in ("X", "M")
    assert isinstance(event["pid"], int)
    if event["ph"] == "X":
        assert isinstance(event["name"], str)
        assert event["ts"] >= 0
        assert event["dur"] >= 0
        assert isinstance(event["tid"], int)
    else:
        assert event["name"] in ("process_name", "thread_name")
        assert "name" in event["args"]


class TestChromeTrace:
    def _spans(self):
        """A point span with engine-section totals laid out beneath it."""
        recorder = SpanRecorder()
        with recorder.span("test run", KIND_POINT) as run:
            pass
        started_at = recorder.spans()[0].started_at
        # Non-canonical dict order on purpose.
        sections = {"power": 0.006, "sensors": 0.002}
        recorder.extend(section_spans(run.context, started_at, sections))
        return recorder.spans()

    def test_sections_in_canonical_order(self):
        events = span_trace_events(self._spans())
        names = [e["name"] for e in events if e.get("cat") == "section"]
        canon = [n for n in ENGINE_SECTIONS if n in names]
        assert names == canon

    def test_runner_events_lane_per_pid(self):
        """Point spans shipped back by two pool workers get one lane each."""
        root = TraceContext.new()
        spans = [
            replace(
                finished_span(root.child(), f"point-{pid}", KIND_POINT,
                              started_at, 0.5, mode="pool"),
                pid=pid,
            )
            for pid, started_at in ((100, 10.0), (101, 10.2))
        ]
        events = span_trace_events(spans)
        for event in events:
            _valid_trace_event(event)
        meta = [e for e in events if e["ph"] == "M"]
        assert {e["pid"] for e in meta} == {100, 101}
        points = [e for e in events if e.get("cat") == KIND_POINT]
        assert min(e["ts"] for e in points) == 0.0  # aligned to first start
        assert {e["pid"] for e in points} == {100, 101}

    def test_span_events_empty_without_spans(self):
        assert span_trace_events([]) == []

    def test_written_file_is_loadable_json(self, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome_trace(span_trace_events(self._spans()), path)
        payload = json.loads(path.read_text())
        assert payload["displayTimeUnit"] == "ms"
        assert isinstance(payload["traceEvents"], list)
        for event in payload["traceEvents"]:
            _valid_trace_event(event)
