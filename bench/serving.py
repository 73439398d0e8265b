"""The serve workload's client side: HTTP, and reading ``/metrics``.

The load generator speaks HTTP with :mod:`http.client` directly rather
than through ``repro.serve.client``, so a change to the program's own
client never changes how the benchmark measures the server.
"""

from __future__ import annotations

import http.client
import json
import math
import re
from typing import Dict, List, Optional, Tuple

_SAMPLE = re.compile(r"^([A-Za-z_:][A-Za-z0-9_:]*)(\{[^}]*\})?\s+(\S+)$")
_LE = re.compile(r'le="([^"]+)"')


class HttpClient:
    """One keep-alive HTTP/1.1 connection exchanging JSON."""

    def __init__(self, host: str, port: int, timeout_s: float = 120.0):
        """Connect lazily to ``host:port``."""
        self._conn = http.client.HTTPConnection(host, port, timeout=timeout_s)

    def request(self, method: str, path: str,
                body: Optional[Dict] = None) -> Tuple[int, object]:
        """Send one request; returns ``(status, decoded body)``."""
        data = None
        headers = {}
        if body is not None:
            data = json.dumps(body, separators=(",", ":")).encode("utf-8")
            headers["Content-Type"] = "application/json"
        try:
            self._conn.request(method, path, body=data, headers=headers)
            response = self._conn.getresponse()
            raw = response.read()
        except (http.client.HTTPException, OSError):
            self._conn.close()
            raise
        if response.getheader("Content-Type", "").startswith("application/json"):
            return response.status, json.loads(raw)
        return response.status, raw.decode("utf-8")

    def close(self) -> None:
        """Close the connection."""
        self._conn.close()


def parse_histograms(text: str) -> Dict[str, Dict]:
    """Histograms of a Prometheus text exposition.

    Returns ``{name: {"buckets": [(upper bound, cumulative count), ...],
    "sum": float, "count": float}}`` with buckets in ascending order and
    ``+Inf`` last. Only unlabelled histograms (apart from ``le``) are
    collected; other samples are ignored.
    """
    out: Dict[str, Dict] = {}
    for line in text.splitlines():
        match = _SAMPLE.match(line.strip())
        if match is None:
            continue
        series, labels, value = match.group(1), match.group(2) or "", match.group(3)
        for suffix in ("_bucket", "_sum", "_count"):
            if series.endswith(suffix):
                name = series[: -len(suffix)]
                break
        else:
            continue
        other = _LE.sub("", labels).strip("{},")
        if other:
            continue
        hist = out.setdefault(name, {"buckets": [], "sum": 0.0, "count": 0.0})
        if suffix == "_bucket":
            le = _LE.search(labels).group(1)
            hist["buckets"].append((float(le), float(value)))
        else:
            hist[suffix[1:]] = float(value)
    for hist in out.values():
        hist["buckets"].sort()
    return out


def parse_samples(text: str) -> Dict[str, float]:
    """Every sample of an exposition as ``{"name{labels}": value}``."""
    out: Dict[str, float] = {}
    for line in text.splitlines():
        match = _SAMPLE.match(line.strip())
        if match is not None:
            out[match.group(1) + (match.group(2) or "")] = float(match.group(3))
    return out


def histogram_delta(after: Dict, before: Optional[Dict]) -> Dict:
    """The observations ``after`` holds beyond ``before`` (same buckets)."""
    if before is None:
        return after
    return {
        "buckets": [
            (le, count - prev)
            for (le, count), (_le, prev) in zip(after["buckets"], before["buckets"])
        ],
        "sum": after["sum"] - before["sum"],
        "count": after["count"] - before["count"],
    }


def bucket_quantile(q: float, buckets: List[Tuple[float, float]]) -> float:
    """Estimate the ``q`` quantile from cumulative histogram buckets.

    Linear interpolation inside the bucket holding the rank, with the
    lowest bucket starting at 0 and a rank in the ``+Inf`` bucket
    reported as the highest finite bound — the rule Prometheus'
    ``histogram_quantile`` uses. Returns NaN for an empty histogram.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    if not buckets or buckets[-1][1] <= 0:
        return math.nan
    rank = q * buckets[-1][1]
    lower, below = 0.0, 0.0
    for upper, cumulative in buckets:
        if cumulative >= rank:
            if math.isinf(upper):
                return lower
            if cumulative == below:
                return upper
            return lower + (upper - lower) * (rank - below) / (cumulative - below)
        lower, below = upper, cumulative
    return lower


def histogram_mean(hist: Dict) -> float:
    """Mean observation of a histogram (NaN when empty)."""
    return hist["sum"] / hist["count"] if hist["count"] else math.nan
