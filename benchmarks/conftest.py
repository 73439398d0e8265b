"""Shared benchmark configuration.

Every benchmark regenerates one table or figure of the paper and runs
its shape assertions. The simulation horizon defaults to the paper's
0.5 s of silicon time; set ``REPRO_BENCH_DURATION`` (seconds) to trade
fidelity for speed. Results are cached across benchmarks within a
session (the tables are views over one policy x workload grid).

At the committed 0.5 s horizon each benchmark checks its rendered output
byte for byte against ``results/<name>.txt`` and fails on any
difference; a missing file is written, which is how ``results/`` is
regenerated (delete the file, rerun). At any other horizon nothing is
written under ``results/``. EXPERIMENTS.md quotes those files.
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro.experiments.common import default_config

#: Where rendered tables/figures are written.
RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"

#: The horizon the committed ``results/`` files were rendered at.
COMMITTED_DURATION_S = 0.5


def bench_duration() -> float:
    """Simulation horizon for benchmark runs (seconds of silicon time)."""
    return float(os.environ.get("REPRO_BENCH_DURATION", "0.5"))


@pytest.fixture(scope="session")
def config():
    """The session's simulation configuration."""
    return default_config(duration_s=bench_duration())


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    """Output directory for rendered experiment artifacts."""
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def save_result(results_dir: pathlib.Path, name: str, text: str) -> None:
    """Check one rendered experiment against ``results/<name>.txt``.

    Writes the file only when it is missing; fails when it differs from
    ``text``. Off the committed horizon, only echoes ``text``.
    """
    print(f"\n{text}")
    if bench_duration() != COMMITTED_DURATION_S:
        return
    path = results_dir / f"{name}.txt"
    if not path.exists():
        path.write_bytes((text + "\n").encode("utf-8"))
        print(f"[saved to {path}]")
    committed = path.read_bytes().decode("utf-8")
    assert committed == text + "\n", f"{path} differs from the regenerated output"
