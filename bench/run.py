"""Run the repository benchmark and print every metric by name and unit.

Usage::

    python bench/run.py [--workload NAME ...] [--seed N] [--seconds S]
                        [--trace [0|1]] [--record DIR]

Each workload runs in seven fresh worker processes (``bench/worker.py``):
six that set up and, for most workloads, time the cold operation, and
one that sets up, runs the cold and the timed operations, and checks the
outputs. ``setup_s`` is the median of the seven set-ups, ``cold_s`` the
median cold operation, ``warm_ms`` the median timed operation. With
``--trace`` a workload instead runs a fixed operation count twice —
untraced, then with the layer wrappers installed — and reports the
per-layer metrics plus the tracing overhead between the two; the trace
lands in ``bench/out/<workload>.trace.json``.

Every process runs on one vCPU beside a speedometer (``bench/speed.py``),
and every end-to-end time is in reference seconds: wall time corrected
for the speed that vCPU ran at, moment by moment.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. The exit code is non-zero when
any output check fails or a worker dies.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(_ROOT))

from bench.common import OUT_DIR, quartiles  # noqa: E402
from bench.spec import (  # noqa: E402
    DEFAULT_SEED, END_TO_END, PER_LAYER, RUN_SECONDS, SETUP_REPEATS,
    SETUP_SPEED_EXPONENT, WORKLOAD_NAMES, WORKLOADS,
)
from bench.speed import Speedometer, pin_to_one_cpu  # noqa: E402

WORKER = _ROOT / "bench" / "worker.py"

#: A worker still running after this many seconds is killed.
WORKER_TIMEOUT_S = 170.0


class WorkerError(RuntimeError):
    """A worker process died, hung or broke the output protocol."""


class Worker:
    """One ``bench/worker.py`` process and its stdout protocol."""

    def __init__(self, workload: str, args, scratch: Path, *extra: str):
        """Spawn the worker; the set-up clock starts now."""
        self.scratch = scratch
        scratch.mkdir(parents=True, exist_ok=True)
        (scratch / "tmp").mkdir(exist_ok=True)
        env = dict(os.environ)
        # Nothing may write outside the checkout: the program's default
        # result cache and temporary files go to the scratch directory.
        env["REPRO_CACHE_DIR"] = str(scratch / "default-cache")
        env["TMPDIR"] = str(scratch / "tmp")
        # One BLAS thread: an idle OpenBLAS worker spinning on the second
        # core slows the measured thread by about a third, varying run to
        # run, and all load must come from the workload's own threads.
        env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = "1"
        argv = [
            sys.executable, str(WORKER), workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--scratch", str(scratch), *extra,
        ]
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, stdout=subprocess.PIPE, text=True, env=env, cwd=str(_ROOT)
        )
        self._timer = threading.Timer(WORKER_TIMEOUT_S, self.proc.kill)
        self._timer.start()

    def next_line(self, prefix: str) -> str:
        """The rest of the next protocol line starting with ``prefix``."""
        for line in self.proc.stdout:
            if line.startswith(prefix):
                return line[len(prefix):]
            sys.stderr.write(line)
        self.close()
        raise WorkerError(
            f"worker exited ({self.proc.returncode}) before {prefix.strip()!r}"
        )

    def ready(self) -> tuple:
        """``(spawn, end of set-up)`` clock readings."""
        self.next_line("READY")
        return self.t0, time.perf_counter()

    def result(self) -> dict:
        """The worker's result record."""
        record = json.loads(self.next_line("RESULT "))
        self.close()
        if self.proc.returncode != 0:
            raise WorkerError(f"worker exited with {self.proc.returncode}")
        return record

    def close(self) -> None:
        """Wait for the process, stop the watchdog, drop the scratch dir."""
        try:
            self.proc.stdout.read()
            self.proc.wait()
        finally:
            self._timer.cancel()
            shutil.rmtree(self.scratch, ignore_errors=True)


def _scratch(workload: str, n: int) -> Path:
    return OUT_DIR / "tmp" / f"{workload}-{os.getpid()}-{n}"


def _info(workload: str):
    return next(w for w in WORKLOADS if w.name == workload)


def end_to_end(record: dict, reference_s, exponent: float) -> dict:
    """End-to-end metrics of a run from its clock readings.

    ``record`` holds ``setups`` and ``colds`` (lists of ``(start, end)``),
    the measuring worker's ``ops``, ``work`` per operation, ``load`` (or
    None) and ``peak_rss_mb``; ``reference_s(start, end, exponent)``
    converts an interval to reference seconds, with
    :data:`SETUP_SPEED_EXPONENT` for set-ups and ``exponent`` for the
    workload's operations. Each time is a median over the run's
    repetitions; their quartiles go to ``record["quartiles"]`` and the
    wall-time medians to ``record["wall"]``.
    """
    def ref(interval):
        return reference_s(*interval, exponent)

    samples = {
        "setup_s": [reference_s(a, b, SETUP_SPEED_EXPONENT)
                    for a, b in record["setups"]],
        "cold_s": [ref(x) for x in record["colds"]],
        "warm_ms": [1e3 * ref(x) for x in record["ops"]],
    }
    medians = {name: statistics.median(v) for name, v in samples.items()}
    load = record.get("load")
    if load:  # requests completed over the whole load
        throughput = len(record["ops"]) / ref(load)
    else:
        throughput = 1e3 * record["work"] / medians["warm_ms"]
    record["quartiles"] = {
        name: [quartiles(v)[0], quartiles(v)[2]] for name, v in samples.items()
    }
    record["wall"] = {
        "setup_s": statistics.median(b - a for a, b in record["setups"]),
        "cold_s": statistics.median(b - a for a, b in record["colds"]),
        "warm_ms": 1e3 * statistics.median(b - a for a, b in record["ops"]),
    }
    return {**medians, "throughput": throughput,
            "peak_rss_mb": record["peak_rss_mb"]}


def measure(workload: str, args, speed: Speedometer) -> dict:
    """Untraced run: the measuring worker amid set-up (and cold) workers."""
    cold_repeats = _info(workload).cold_repeats
    setups, colds = [], []

    def setup_worker(n: int) -> None:
        cold = n < cold_repeats - 1
        worker = Worker(workload, args, _scratch(workload, n),
                        "--cold-only" if cold else "--setup-only")
        setups.append(worker.ready())
        if cold:
            start, end = worker.next_line("COLD ").split()
            colds.append((float(start), float(end)))
        worker.close()
        if worker.proc.returncode != 0:
            raise WorkerError(f"set-up worker exited with {worker.proc.returncode}")

    # Half of the extra workers run before the measuring one and half
    # after, so the samples span the whole run.
    extras = range(SETUP_REPEATS - 1)
    for n in extras[1::2]:
        setup_worker(n)
    extra = ("--write-expected",) if args.write_expected else ()
    worker = Worker(workload, args, _scratch(workload, SETUP_REPEATS), *extra)
    setups.append(worker.ready())
    record = worker.result()
    colds.append(record["cold"])
    for n in extras[0::2]:
        setup_worker(n)
    record.update(setups=setups, colds=colds)
    record["metrics"] = end_to_end(
        record, speed.trace().reference_s, _info(workload).speed_exponent
    )
    return record


def trace(workload: str, args, speed: Speedometer) -> dict:
    """Traced run: the same fixed work untraced, then traced."""
    base = Worker(workload, args, _scratch(workload, 0), "--fixed")
    base.ready()
    untraced = base.result()
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    trace_out = OUT_DIR / f"{workload}.trace.json"
    traced_worker = Worker(
        workload, args, _scratch(workload, 1), "--fixed", "--trace", "1",
        "--trace-out", str(trace_out),
    )
    traced_worker.ready()
    record = traced_worker.result()
    if record["outputs_sha256"] != untraced["outputs_sha256"]:
        record["problems"].append("traced outputs differ from untraced ones")
    reference_s = speed.trace().reference_s
    exponent = _info(workload).speed_exponent

    def warm(rec):
        return statistics.median(reference_s(a, b, exponent) for a, b in rec["ops"])

    layer = record["layer"]
    layer["bench.trace_overhead_frac"] = warm(record) / warm(untraced) - 1.0
    record["metrics"] = {m.name: float(layer.get(m.name, 0.0)) for m in PER_LAYER}
    record["attempted"] += untraced["attempted"]
    record["failed"] += untraced["failed"]
    record["problems"] += untraced["problems"]
    record["trace_file"] = str(trace_out.relative_to(_ROOT))
    return record


def _report(workload: str, record: dict, traced: bool) -> None:
    info = _info(workload)
    print(f"== {workload} (seed {record['seed']}) — op: {info.op}")
    if traced:
        for m in PER_LAYER:
            print(f"  {m.name:52s} {record['metrics'][m.name]:14.6g} {m.unit}")
        if record["absent"]:
            print(f"  absent targets: {', '.join(record['absent'])}")
        print(f"  trace: {record['trace_file']}")
    else:
        counts = {"setup_s": len(record["setups"]),
                  "cold_s": len(record["colds"]), "warm_ms": len(record["ops"])}
        notes = {
            name: f"median of {counts[name]} [q1 {q1:.6g}, q3 {q3:.6g}], "
                  f"wall median {record['wall'][name]:.6g}"
            for name, (q1, q3) in record["quartiles"].items()
        }
        notes["throughput"] = f"{info.work_unit}/s"
        for m in END_TO_END:
            value = record["metrics"][m.name]
            print(f"  {m.name:12s} {value:14.6f} {m.unit:5s} {notes.get(m.name, '')}")
    frac = record["failed"] / max(1, record["attempted"])
    print(f"  attempted {record['attempted']}, failed {record['failed']} "
          f"(failed_frac {frac:g})")
    for problem in record["problems"]:
        print(f"  CHECK FAILED: {problem}")


def main(argv=None) -> int:
    """Parse arguments, run the workloads, report; returns the exit code."""
    parser = argparse.ArgumentParser(
        description="Run the repository benchmark.",
    )
    parser.add_argument("--workload", "--workloads", dest="workloads",
                        nargs="+", choices=WORKLOAD_NAMES, default=None,
                        help="workloads to run (default: all)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="measured seconds per workload (untraced)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="report per-layer metrics from a traced run")
    parser.add_argument("--record", metavar="DIR", default=None,
                        help="also write each workload's record to DIR")
    parser.add_argument("--write-expected", action="store_true",
                        help="commit this seed's outputs to bench/expected")
    args = parser.parse_args(argv)

    if not (_ROOT / "src" / "repro").is_dir():
        print(f"error: no repro sources under {_ROOT / 'src'}", file=sys.stderr)
        return 2
    workloads = args.workloads or list(WORKLOAD_NAMES)
    pin_to_one_cpu()
    speed_file = OUT_DIR / "tmp" / f"speed-{os.getpid()}.txt"
    try:
        with Speedometer(speed_file) as speed:
            return _run(workloads, args, speed)
    finally:
        speed_file.unlink(missing_ok=True)


def _run(workloads, args, speed: Speedometer) -> int:
    units = {m.name: m.unit for m in END_TO_END + PER_LAYER}
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    run = trace if args.trace else measure
    for workload in workloads:
        try:
            record = run(workload, args, speed)
        except WorkerError as exc:
            print(f"error: {workload}: {exc}", file=sys.stderr)
            return 1
        record.update(workload=workload, seed=args.seed, trace=args.trace,
                      seconds=args.seconds)
        _report(workload, record, bool(args.trace))
        correct = record["failed"] == 0 and not record["problems"]
        summary["correct"] &= correct
        summary["attempted"] += record["attempted"]
        summary["failed"] += record["failed"]
        prefix = "" if len(workloads) == 1 else f"{workload}."
        for name, value in record["metrics"].items():
            summary["metrics"][prefix + name] = {"value": value, "unit": units[name]}
        if args.record:
            out = Path(args.record)
            out.mkdir(parents=True, exist_ok=True)
            keep = ("workload", "seed", "seconds", "trace", "attempted",
                    "failed", "metrics", "problems", "quartiles", "wall")
            doc = {k: record[k] for k in keep if k in record}
            doc["correct"] = correct
            (out / f"{workload}-{time.time_ns()}.json").write_text(
                json.dumps(doc, indent=1), encoding="utf-8"
            )
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
