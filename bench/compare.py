"""Compare two sets of benchmark records, or summarise one.

Usage::

    python bench/compare.py A [B] [--json FILE]

``A`` and ``B`` are record files or directories of them, as written by
``python bench/run.py --record DIR``. Run the parent commit into ``A``
and the change into ``B``, at least ten runs each, alternating which
side runs first.

With one set, prints each (workload, metric)'s median and quartiles;
``--json`` writes them (``bench/baseline.json`` is such a summary). With
two, adds the change in median, the fraction of pairs the change wins,
and a verdict:

* **better** — the change wins at least 9/10 of the pairs (ties count
  for neither) and the medians differ by more than ``A``'s quartile
  spread;
* **unresolved** — either side's quartile spread, relative to its
  median, exceeds the metric's bound, and not every run of the change
  beats every run of the parent;
* **worse** — the change's median is worse than ``A``'s by more than the
  bound (for per-layer metrics, which have none: the mirror of
  *better*);
* **unchanged** — otherwise.

Pairs match runs by seed when both sets use the same seeds, else by order.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Sequence

_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(_ROOT))

from bench.common import load_records, quartiles  # noqa: E402
from bench.spec import bound_of, better_of  # noqa: E402


def series(records: Sequence[Dict]) -> Dict:
    """``{(workload, metric): [(seed, value), ...]}`` in record order."""
    out = defaultdict(list)
    for record in records:
        for metric, value in record["metrics"].items():
            out[(record["workload"], metric)].append((record["seed"], value))
    return out


def pair_up(a: List, b: List):
    """Pairs of values, by seed when the seed sets match, else by order."""
    seeds_a = [s for s, _ in a]
    if sorted(seeds_a) == sorted(s for s, _ in b) and len(set(seeds_a)) == len(a):
        by_seed = dict(b)
        return [(v, by_seed[s]) for s, v in a]
    return [(x, y) for (_, x), (_, y) in zip(a, b)]


def win_fraction(pairs: Sequence, sign: float) -> float:
    """Share of ``(a, b)`` pairs where ``b`` is better (ties count for neither)."""
    return sum(1 for x, y in pairs if sign * (y - x) > 0) / max(1, len(pairs))


def verdict(a: Sequence[float], b: Sequence[float],
            pairs: Sequence, better: str, bound: Optional[float]) -> str:
    """The guide's rule for one (workload, metric); see the module doc."""
    sign = 1.0 if better == "higher" else -1.0
    qa, qb = quartiles(a), quartiles(b)
    gain = sign * (qb[1] - qa[1])
    spread_a = qa[2] - qa[0]
    if win_fraction(pairs, sign) >= 0.9 and gain > spread_a:
        return "better"
    if bound is None:
        lost = win_fraction(pairs, -sign) >= 0.9
        return "worse" if lost and -gain > spread_a else "unchanged"
    all_better = all(sign * (y - x) > 0 for x in a for y in b)

    def rel(q):
        return (q[2] - q[0]) / abs(q[1]) if q[1] else 0.0

    if max(rel(qa), rel(qb)) > bound and not all_better:
        return "unresolved"
    if -gain > bound * abs(qa[1]):
        return "worse"
    return "unchanged"


def summarise(by_key: Dict) -> Dict:
    """``{workload: {metric: {median, q1, q3, n}}}`` of :func:`series`."""
    out: Dict[str, Dict] = defaultdict(dict)
    for (workload, metric), values in sorted(by_key.items()):
        q1, q2, q3 = quartiles([v for _, v in values])
        out[workload][metric] = {"median": q2, "q1": q1, "q3": q3,
                                 "n": len(values)}
    return dict(out)


def _fmt(values):
    q1, q2, q3 = quartiles(values)
    return f"{q2:12.6g} [{q1:.5g}, {q3:.5g}]"


def main(argv=None) -> int:
    """Print the summary or comparison table; returns the exit code."""
    parser = argparse.ArgumentParser(description="Compare benchmark records.")
    parser.add_argument("a", help="record file or directory (the parent)")
    parser.add_argument("b", nargs="?", help="record file or directory (the change)")
    parser.add_argument("--json", metavar="FILE",
                        help="write the summary of A as JSON")
    args = parser.parse_args(argv)

    set_a = series(load_records([args.a]))
    if args.json:
        Path(args.json).write_text(
            json.dumps(summarise(set_a), indent=1) + "\n", encoding="utf-8"
        )
    if args.b is None:
        print(f"{'metric':44s} {'workload':12s} {'median [q1, q3]':>34s}   n")
        for (workload, metric), values in sorted(set_a.items()):
            vals = [v for _, v in values]
            print(f"{metric:44s} {workload:12s} {_fmt(vals):>34s} {len(vals):3d}")
        return 0

    set_b = series(load_records([args.b]))
    print(f"{'metric':44s} {'workload':12s} {'A median [q1, q3]':>34s} "
          f"{'B median [q1, q3]':>34s} {'change':>8s} {'wins':>5s}  verdict")
    for key in sorted(set(set_a) & set(set_b)):
        workload, metric = key
        a = [v for _, v in set_a[key]]
        b = [v for _, v in set_b[key]]
        pairs = pair_up(set_a[key], set_b[key])
        better = better_of(metric)
        wins = win_fraction(pairs, 1.0 if better == "higher" else -1.0)
        med_a = quartiles(a)[1]
        change = (quartiles(b)[1] - med_a) / abs(med_a) if med_a else 0.0
        print(f"{metric:44s} {workload:12s} {_fmt(a):>34s} {_fmt(b):>34s} "
              f"{change:+8.1%} {wins:5.2f}  "
              f"{verdict(a, b, pairs, better, bound_of(metric))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
