"""Run one workload in a fresh process; spawned by ``bench/run.py``.

Protocol on standard output: ``READY`` once set-up is done (the parent
times set-up from spawn to this line); then ``COLD <start> <end>`` with
``--cold-only``, nothing more with ``--setup-only``, and otherwise one
``RESULT <json>`` line. Everything else goes to standard error. Times are
``time.perf_counter()`` readings, which on Linux share one clock across
processes; the parent converts them to reference seconds.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(_ROOT / "src"), str(_ROOT)]

from bench.common import (  # noqa: E402
    diff_outputs, dumps, load_expected, sha256, write_expected,
)
from bench.spec import DEFAULT_SEED  # noqa: E402
from bench.tracer import Tracer  # noqa: E402
from bench.workloads import WORKLOAD_CLASSES  # noqa: E402


def main(argv=None) -> int:
    """Set up, measure, check, and report one workload."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("workload", choices=sorted(WORKLOAD_CLASSES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--scratch", required=True)
    stage = parser.add_mutually_exclusive_group()
    stage.add_argument("--setup-only", action="store_true")
    stage.add_argument("--cold-only", action="store_true")
    parser.add_argument("--fixed", action="store_true",
                        help="run the traced run's fixed operation count")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--write-expected", action="store_true",
                        help="commit this run's outputs to bench/expected")
    args = parser.parse_args(argv)

    workload = WORKLOAD_CLASSES[args.workload](args.seed, Path(args.scratch))
    try:
        workload.setup()
        print("READY", flush=True)
        if args.setup_only:
            return 0
        if args.cold_only:
            start, end = workload.cold()
            print(f"COLD {start!r} {end!r}", flush=True)
            return 0 if workload.failed == 0 else 1
        tracer = Tracer() if args.trace else None
        if tracer is not None:
            workload.tracer = tracer.install()
        try:
            cold = workload.cold()
            measured = workload.timed(
                args.seconds - (time.perf_counter() - cold[0]),
                workload.trace_ops if args.fixed else 0,
            )
        finally:
            if tracer is not None:
                tracer.restore()
        outputs = workload.outputs()
        if args.write_expected:
            write_expected(args.workload, outputs)
        elif args.seed == DEFAULT_SEED:
            expected = load_expected(args.workload)
            if expected is None:
                workload.problems.append("no bench/expected outputs")
            else:
                workload.problems.extend(diff_outputs(expected, outputs))
        workload.check()
        layer = dict(tracer.summary()) if tracer is not None else {}
        layer.update(workload.layer_metrics())
        if tracer is not None and args.trace_out:
            tracer.write(args.trace_out, workload=args.workload, seed=args.seed)
        result = {
            "cold": cold,
            **measured,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "attempted": workload.attempted,
            "failed": workload.failed,
            "problems": workload.problems,
            "outputs_sha256": sha256(dumps(outputs)),
            "absent": list(tracer.absent) if tracer is not None else [],
            "layer": layer,
        }
        print("RESULT " + json.dumps(result), flush=True)
        return 0
    finally:
        workload.close()


if __name__ == "__main__":
    sys.exit(main())
