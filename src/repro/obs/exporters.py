"""Telemetry export formats: JSONL/CSV series, Prometheus text, Chrome trace.

Four serialisations of the observability layer's data, all dependency-free:

* :func:`write_series_jsonl` / :func:`read_series_jsonl` — a
  :class:`~repro.obs.telemetry.TelemetrySeries` as a self-describing
  JSON-lines file (header record + one row record per sample);
* :func:`write_series_csv` — the same series as one CSV table for
  spreadsheet/pandas consumption;
* :func:`prometheus_text` / :func:`parse_prometheus_text` — a
  :class:`~repro.obs.telemetry.MetricsRegistry` snapshot in the
  Prometheus text exposition format (``# HELP`` / ``# TYPE`` comments,
  cumulative histogram buckets);
* :func:`span_trace_events` / :func:`write_chrome_trace` — Chrome
  trace-event JSON (the format Perfetto and ``chrome://tracing`` load)
  built from :class:`~repro.obs.tracing.Span` s, one lane per recording
  process. Every trace the package writes goes through it: served jobs,
  ``repro compare --trace-out`` (the runner's point, fleet-group and
  section spans) and ``repro run --profile --trace-out`` (engine
  sections as spans under one run span).
"""

from __future__ import annotations

import csv
import json
import math
import os
from typing import Dict, List, Optional, Sequence, TextIO, Union

from repro.obs.telemetry import MetricsRegistry, TelemetrySeries

#: Schema identifier of the JSONL series export's header record.
SERIES_SCHEMA = "repro-telemetry/1"

_Dest = Union[str, os.PathLike, TextIO]


def _open_dest(dest: _Dest, mode: str = "w"):
    """``(file object, needs_close)`` for a path or open file object."""
    if hasattr(dest, "write") or hasattr(dest, "read"):
        return dest, False
    return open(dest, mode, encoding="utf-8", newline=""), True


# ---------------------------------------------------------------------------
# Time-series: JSONL and CSV
# ---------------------------------------------------------------------------


def write_series_jsonl(series: TelemetrySeries, dest: _Dest) -> None:
    """Write a series as JSONL: one header record, then one row per sample.

    Header: ``{"schema", "sample_period_s", "columns"}``; rows:
    ``{"t": <seconds>, "v": [<value per column>]}`` with values aligned
    to the header's column order. Floats round-trip exactly (JSON uses
    the shortest exact ``repr``).
    """
    fh, close = _open_dest(dest)
    try:
        header = {
            "schema": SERIES_SCHEMA,
            "sample_period_s": series.sample_period_s,
            "columns": list(series.columns),
        }
        fh.write(json.dumps(header, separators=(",", ":")) + "\n")
        for t, values in series.rows():
            fh.write(
                json.dumps({"t": t, "v": values}, separators=(",", ":")) + "\n"
            )
    finally:
        if close:
            fh.close()


def read_series_jsonl(src: _Dest) -> TelemetrySeries:
    """Load a series written by :func:`write_series_jsonl`."""
    fh, close = _open_dest(src, "r")
    try:
        lines = [line.strip() for line in fh if line.strip()]
    finally:
        if close:
            fh.close()
    if not lines:
        raise ValueError("empty telemetry series file")
    header = json.loads(lines[0])
    if header.get("schema") != SERIES_SCHEMA:
        raise ValueError(
            f"expected series schema {SERIES_SCHEMA!r}, got "
            f"{header.get('schema')!r}"
        )
    series = TelemetrySeries(header["sample_period_s"], header["columns"])
    for line in lines[1:]:
        record = json.loads(line)
        series.append(record["t"], record["v"])
    return series


def write_series_csv(series: TelemetrySeries, dest: _Dest) -> None:
    """Write a series as one CSV table: ``t`` plus one column per series."""
    fh, close = _open_dest(dest)
    try:
        writer = csv.writer(fh)
        writer.writerow(["t"] + list(series.columns))
        for t, values in series.rows():
            writer.writerow([repr(t)] + [repr(v) for v in values])
    finally:
        if close:
            fh.close()


# ---------------------------------------------------------------------------
# Prometheus text exposition
# ---------------------------------------------------------------------------


def _format_value(value: float) -> str:
    """A Prometheus-parseable number (``+Inf``/``-Inf``/``NaN`` spelled out)."""
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if math.isnan(value):
        return "NaN"
    return repr(float(value))


def _format_labels(labels, extra: Optional[Dict[str, str]] = None) -> str:
    """``{k="v",...}`` (empty string when there are no labels)."""
    pairs = list(labels) + sorted((extra or {}).items())
    if not pairs:
        return ""
    return "{" + ",".join(f'{k}="{v}"' for k, v in pairs) + "}"


def prometheus_text(registry: MetricsRegistry) -> str:
    """A registry snapshot in the Prometheus text exposition format.

    One ``# HELP`` / ``# TYPE`` pair per metric name (first-registered
    help wins), then every labelled sample. Histograms expand to
    cumulative ``_bucket{le=...}`` samples (including ``le="+Inf"``)
    plus ``_sum`` and ``_count``.
    """
    by_name: Dict[str, List] = {}
    for inst in registry.collect():
        by_name.setdefault(inst.name, []).append(inst)
    lines: List[str] = []
    for name, instruments in by_name.items():
        first = instruments[0]
        if first.help:
            lines.append(f"# HELP {name} {first.help}")
        lines.append(f"# TYPE {name} {first.kind}")
        for inst in instruments:
            if inst.kind == "histogram":
                cumulative = inst.cumulative_counts()
                bounds = [_format_value(b) for b in inst.buckets] + ["+Inf"]
                for bound, count in zip(bounds, cumulative):
                    labels = _format_labels(inst.labels, {"le": bound})
                    lines.append(f"{name}_bucket{labels} {count}")
                labels = _format_labels(inst.labels)
                lines.append(f"{name}_sum{labels} {_format_value(inst.sum)}")
                lines.append(f"{name}_count{labels} {inst.count}")
            else:
                labels = _format_labels(inst.labels)
                lines.append(f"{name}{labels} {_format_value(inst.value)}")
    return "\n".join(lines) + "\n"


def parse_prometheus_text(text: str) -> Dict[str, float]:
    """Parse exposition text back into ``{series id: value}``.

    A deliberately small parser for round-trip tests and the report
    loader: comment/blank lines are skipped, every sample line must be
    ``name[{labels}] value``.
    """
    out: Dict[str, float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        series, _, value = line.rpartition(" ")
        if not series:
            raise ValueError(f"malformed exposition line: {line!r}")
        out[series] = float(value)
    return out


def write_prometheus(registry: MetricsRegistry, dest: _Dest) -> None:
    """Write :func:`prometheus_text` of ``registry`` to ``dest``."""
    fh, close = _open_dest(dest)
    try:
        fh.write(prometheus_text(registry))
    finally:
        if close:
            fh.close()


# ---------------------------------------------------------------------------
# Chrome trace events (Perfetto / chrome://tracing)
# ---------------------------------------------------------------------------


def _complete_event(
    name: str,
    cat: str,
    ts_us: float,
    dur_us: float,
    pid: int,
    tid: int,
    args: Optional[Dict] = None,
) -> Dict:
    """One ``ph: "X"`` (complete) trace event."""
    event = {
        "name": name,
        "cat": cat,
        "ph": "X",
        "ts": ts_us,
        "dur": dur_us,
        "pid": pid,
        "tid": tid,
    }
    if args:
        event["args"] = args
    return event


def _metadata_event(kind: str, name: str, pid: int, tid: int = 0) -> Dict:
    """A ``ph: "M"`` metadata event naming a process or thread lane."""
    return {
        "name": kind,
        "ph": "M",
        "pid": pid,
        "tid": tid,
        "args": {"name": name},
    }


def span_trace_events(spans: Sequence) -> List[Dict]:
    """Trace events for a merged set of :class:`~repro.obs.tracing.Span` s.

    One lane per recording process (client, server, pool workers), each
    span placed at its wall-clock offset from the earliest span, with
    ids/kind/attrs in ``args`` so Perfetto's query view can reconstruct
    parentage. Works on whatever ``GET /jobs/<id>/trace`` returned.
    """
    spans = list(spans)
    if not spans:
        return []
    t0 = min(s.started_at for s in spans)
    events: List[Dict] = []
    for pid in sorted({s.pid for s in spans}):
        events.append(_metadata_event("process_name", f"pid {pid}", pid))
    for span in spans:
        args = {
            "trace_id": span.trace_id,
            "span_id": span.span_id,
            "parent_id": span.parent_id or "",
        }
        args.update(span.attrs)
        events.append(
            _complete_event(
                span.name,
                span.kind,
                (span.started_at - t0) * 1e6,
                span.elapsed_s * 1e6,
                span.pid,
                0,
                args,
            )
        )
    return events


def write_chrome_trace(events: Sequence[Dict], dest: _Dest) -> None:
    """Write trace events as a Chrome/Perfetto-loadable JSON object."""
    fh, close = _open_dest(dest)
    try:
        json.dump(
            {"traceEvents": list(events), "displayTimeUnit": "ms"},
            fh,
            separators=(",", ":"),
        )
        fh.write("\n")
    finally:
        if close:
            fh.close()
