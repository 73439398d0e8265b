"""Track the speed of the CPU the benchmark runs on, and correct its times.

On the shared virtual machines this benchmark is run on, each vCPU
switches between two speeds about 1.5x apart, for seconds at a time (a
neighbour's load on the same physical core). Raw wall times then measure
the neighbour as much as the program: over ten-second windows the median
of a sweep-fleet round moved by a third.

The remedy is a speedometer: a small process pinned to the same vCPU as
the workload, which runs a fixed probe every :data:`PROBE_PERIOD_S` and
records how long it took. Every timed interval is then converted to
*reference seconds*: each slice of the interval counts
``(REFERENCE_PROBE_S / probe duration at that moment) ** exponent``
seconds. With exponent 1, time spent while the vCPU runs at half speed
counts half. Code does not all slow alike: interpreter-bound simulation
slows a little more than the probe, and code that partly waits on the
clock (a server's thread hand-offs, process start-up) slows less, so each
workload, and set-up, has its own measured exponent (``bench/spec.py``).
On a CPU whose speed holds still this is wall time times a constant. The
probe mixes object allocation and small NumPy operations, like the
program does, and is independent of the program, so a change to the
program moves the corrected time as it moves the wall time.

Run as a script (``python bench/speed.py OUT``), this module is the
speedometer process; ``bench/run.py`` starts it through
:class:`Speedometer`.
"""

from __future__ import annotations

import bisect
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Sequence, Tuple

import numpy as np

#: Seconds between the end of one probe and the start of the next.
PROBE_PERIOD_S = 0.05

#: Probe duration of the reference speed, close to the fast state of the
#: 2-vCPU machine the baselines were measured on.
REFERENCE_PROBE_S = 0.6e-3

#: Samples in the running median that smooths the probe durations; a probe
#: delayed by the workload's own time slice is one outlier among them.
SMOOTH_SAMPLES = 5

_SMALL = np.arange(16.0)


def probe() -> None:
    """Fixed work: 1,500 small objects, then 150 small NumPy operations."""
    objects = [{"a": i, "b": [i, i + 1]} for i in range(1500)]
    del objects
    x = _SMALL
    for _ in range(150):
        x = x * 0.5 + _SMALL


def pin_to_one_cpu() -> None:
    """Pin this process (and every child it starts) to one allowed vCPU.

    The workload and the speedometer must share a vCPU for the probe to
    measure the speed the workload runs at.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


class SpeedTrace:
    """Probe samples, and the reference-second length of any interval."""

    def __init__(self, samples: Sequence[Tuple[float, float]]):
        """``samples`` are ``(start, duration)`` pairs in clock order."""
        if not samples:
            raise ValueError("no speed samples")
        self.times = [t for t, _ in samples]
        durations = [d for _, d in samples]
        half = SMOOTH_SAMPLES // 2
        self.durations = [
            statistics.median(durations[max(0, i - half):i + half + 1])
            for i in range(len(durations))
        ]
        # Sample i stands for the time nearer to it than to its neighbours.
        self._edges = [
            (a + b) / 2 for a, b in zip(self.times, self.times[1:])
        ]

    def reference_s(self, start: float, end: float, exponent: float = 1.0) -> float:
        """Seconds ``[start, end]`` would have taken at the reference speed.

        ``exponent`` is how strongly the timed code follows the probe: a
        slice at probe duration ``p`` counts ``(REFERENCE_PROBE_S / p) **
        exponent`` of its length.
        """
        total = 0.0
        i = bisect.bisect_right(self._edges, start)
        lo = start
        while True:
            hi = end if i >= len(self._edges) else min(end, self._edges[i])
            total += (hi - lo) * (REFERENCE_PROBE_S / self.durations[i]) ** exponent
            if hi >= end:
                return total
            lo, i = hi, i + 1


class Speedometer:
    """The speedometer process, for the length of a ``with`` block.

    Start it after :func:`pin_to_one_cpu`, so it inherits the workload's
    vCPU. :meth:`trace` reads the samples once the block has ended.
    """

    def __init__(self, out: Path):
        """Record samples to ``out``."""
        self.out = out
        self.proc = None

    def __enter__(self) -> "Speedometer":
        """Start the process and wait for its first sample."""
        self.out.parent.mkdir(parents=True, exist_ok=True)
        self.out.write_text("")
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), str(self.out)],
            stdout=subprocess.DEVNULL,
        )
        deadline = time.perf_counter() + 30.0
        while not self._samples():
            if self.proc.poll() is not None or time.perf_counter() > deadline:
                self.__exit__()
                raise RuntimeError("the speedometer did not start")
            time.sleep(PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        """Stop the process and wait for it."""
        if self.proc is not None and self.proc.poll() is None:
            self.proc.terminate()
        if self.proc is not None:
            self.proc.wait()

    def _samples(self) -> List[Tuple[float, float]]:
        samples = []
        for line in self.out.read_text(encoding="utf-8").splitlines():
            parts = line.split()
            if len(parts) == 2:  # the last line may be cut short
                samples.append((float(parts[0]), float(parts[1])))
        return samples

    def trace(self) -> SpeedTrace:
        """Every sample taken so far."""
        return SpeedTrace(self._samples())


def main(argv=None) -> int:
    """Probe every :data:`PROBE_PERIOD_S` until terminated or orphaned."""
    out = (argv or sys.argv[1:])[0]
    parent = os.getppid()
    clock = time.perf_counter
    probe()  # first call pays for allocator and NumPy warm-up
    with open(out, "a", encoding="utf-8") as fh:
        while os.getppid() == parent:
            t0 = clock()
            probe()
            fh.write(f"{t0!r} {clock() - t0!r}\n")
            fh.flush()
            time.sleep(PROBE_PERIOD_S)
    return 0


if __name__ == "__main__":
    sys.exit(main())
