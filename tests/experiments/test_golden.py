"""Golden-file regression tests against the checked-in ``results/``.

These pin the paper-facing summary numbers of Table 1 and Figure 3 to
the values committed in ``results/table1.txt`` and ``results/figure3.txt``
(both produced at the paper's default configuration), and Figure 5 to
``results/figure5.txt`` byte for byte, so performance work — the
parallel runner, cache layers, future vectorisation — cannot silently
drift the reproduction.

The runs are deterministic, so current code reproduces the files
exactly; the tolerances (±2 C, ±0.05 relative throughput) only leave
room for intentional, reviewed model changes, at which point the golden
files should be regenerated alongside.

Full-fidelity runs at the default horizon are slow (~2 s per
simulation), so by default each table is spot-checked on a
representative subset; set ``REPRO_GOLDEN_FULL=1`` to verify every row.
The batch executes through a ``jobs=2`` :class:`ParallelRunner`, which
doubles as an end-to-end check that the parallel path reproduces the
serially-generated golden numbers.
"""

import os
import re
from pathlib import Path

import pytest

from repro.experiments import figure3, figure5, table1
from repro.experiments.common import clear_result_cache, set_default_runner
from repro.sim.runner import ParallelRunner
from repro.sim.workloads import get_workload

RESULTS_DIR = Path(__file__).resolve().parents[2] / "results"

FULL = os.environ.get("REPRO_GOLDEN_FULL", "") not in ("", "0")

#: Subset rows checked by default (one oscillating benchmark included).
TABLE1_SUBSET = ("gzip", "mcf", "bzip2")
FIGURE3_SUBSET = ("workload1", "workload7")

TEMP_TOL_C = 2
RELATIVE_TOL = 0.05


@pytest.fixture(autouse=True)
def parallel_default_runner():
    """Route the experiment drivers through a 2-worker runner."""
    clear_result_cache()
    old = set_default_runner(ParallelRunner(jobs=2))
    yield
    set_default_runner(old)
    clear_result_cache()


# -- golden-file parsers ------------------------------------------------------


def parse_table1_golden():
    """``results/table1.txt`` -> ({benchmark: steady_c}, {benchmark: (lo, hi)})."""
    text = (RESULTS_DIR / "table1.txt").read_text()
    steady, ranges = {}, {}
    for line in text.splitlines():
        m = re.match(r"(\w+)\s+\| SPEC\w+\s+\| (\d+)-(\d+)\s*$", line)
        if m:
            ranges[m.group(1)] = (int(m.group(2)), int(m.group(3)))
            continue
        m = re.match(r"(\w+)\s+\| SPEC\w+\s+\| (\d+)\s*$", line)
        if m:
            steady[m.group(1)] = int(m.group(2))
    return steady, ranges


def parse_figure3_golden():
    """``results/figure3.txt`` -> {workload_name: (stopgo, gdvfs, ddvfs)}."""
    text = (RESULTS_DIR / "figure3.txt").read_text()
    out = {}
    order = [get_workload(f"workload{i}") for i in range(1, 13)]
    by_label = {w.label: w.name for w in order}
    for line in text.splitlines():
        parts = [p.strip() for p in line.split("|")]
        if len(parts) == 4 and parts[0] in by_label:
            out[by_label[parts[0]]] = tuple(float(p) for p in parts[1:])
    return out


def test_golden_files_parse():
    steady, ranges = parse_table1_golden()
    assert len(steady) == 8 and len(ranges) == 4
    bars = parse_figure3_golden()
    assert len(bars) == 12


# -- regressions --------------------------------------------------------------


def test_table1_matches_golden():
    steady_golden, ranges_golden = parse_table1_golden()
    names = (
        list(steady_golden) + list(ranges_golden) if FULL else list(TABLE1_SUBSET)
    )
    rows = {r.benchmark: r for r in table1.compute(benchmarks=names)}
    assert set(rows) == set(names)
    for name in names:
        row = rows[name]
        if name in steady_golden:
            assert row.stable, name
            assert abs(row.steady_c - steady_golden[name]) <= TEMP_TOL_C, (
                f"{name}: steady {row.steady_c} C drifted from golden "
                f"{steady_golden[name]} C"
            )
        else:
            assert not row.stable, name
            lo, hi = row.range_c
            glo, ghi = ranges_golden[name]
            assert abs(lo - glo) <= TEMP_TOL_C and abs(hi - ghi) <= TEMP_TOL_C, (
                f"{name}: range {lo}-{hi} C drifted from golden {glo}-{ghi} C"
            )


def test_figure3_matches_golden():
    golden = parse_figure3_golden()
    names = sorted(golden) if FULL else list(FIGURE3_SUBSET)
    workloads = [get_workload(n) for n in names]
    rows = {r.workload: r for r in figure3.compute(workloads=workloads)}
    for name in names:
        computed = (
            rows[name].relative["global-stop-go-none"],
            rows[name].relative["global-dvfs-none"],
            rows[name].relative["distributed-dvfs-none"],
        )
        for got, want, series in zip(
            computed, golden[name], ("global stop-go", "global DVFS", "dist. DVFS")
        ):
            assert got == pytest.approx(want, abs=RELATIVE_TOL), (
                f"{name} {series}: {got:.3f} drifted from golden {want:.2f}"
            )


def test_figure5_matches_golden_bytes():
    """One run at the paper's default configuration renders exactly the
    committed file (``benchmarks/conftest.py`` appends the newline)."""
    text = figure5.render(figure5.compute()) + "\n"
    assert text == (RESULTS_DIR / "figure5.txt").read_text()
