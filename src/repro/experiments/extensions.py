"""Extension study: asymmetric cores (the paper's named future axis).

Section 9 of the paper: "SMT and asymmetric cores are two possible
extensions" to the taxonomy. This module explores the asymmetric-cores
axis with the machinery already in place: cores that share one
microarchitecture (identical traces and power) but occupy different
silicon areas, so a big core runs a given thread at lower power density —
and therefore cooler — than a small one.

Three questions, each answered by a function:

* :func:`placement_sensitivity` — with *no* migration, how much does it
  matter whether the hot threads start on the big cores or the small
  ones?
* :func:`asymmetric_migration_study` — can the migration policies recover
  a bad initial placement? Sensor-based migration is the interesting
  case: its thread-core thermal table learns per-core biases, which on an
  asymmetric chip are large and real (counter-based intensity is
  core-blind by construction).
* :func:`smt_study` — the SMT axis: four threads on four cores against
  merged pairs on two cores of the same total area.

:func:`compute` declares the rows of all three up front and runs them as
one batch; each function above is a view of it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.taxonomy import spec_by_key
from repro.experiments.common import default_config, get_default_runner
from repro.sim.engine import SimulationConfig, ThermalTimingSimulator
from repro.sim.results import RunResult
from repro.sim.runner import RunPoint
from repro.sim.workloads import Workload
from repro.uarch.benchmarks import get_benchmark
from repro.uarch.config import MachineConfig
from repro.uarch.smt import merge_profiles
from repro.util.tables import render_table

#: Big-big-small-small configuration with the same total core area as
#: four uniform 4 mm cores (2 * 5.0^2 + 2 * 2.65^2 ~ 64 mm^2).
ASYMMETRIC_SIZES: Tuple[float, ...] = (5.0, 5.0, 2.65, 2.65)

#: The study workload: two hot programs (gzip, sixtrack) + two cool ones.
STUDY_BENCHMARKS: Tuple[str, ...] = ("gzip", "sixtrack", "mcf", "swim")

_DDV = spec_by_key("distributed-dvfs-none")
_DDV_SENSOR = spec_by_key("distributed-dvfs-sensor")
_DDV_COUNTER = spec_by_key("distributed-dvfs-counter")

#: SMT-2 chip: two cores holding the same total area as four 4 mm cores.
SMT_CORE_SIZES: Tuple[float, ...] = (5.657, 5.657)

#: The two SMT pairings: each hot thread with a cool one, and hot+hot.
SMT_PAIRINGS: Tuple[Tuple[str, Tuple[Tuple[str, str], ...]], ...] = (
    ("SMT-2, complementary pairs", (("gzip", "swim"), ("sixtrack", "mcf"))),
    ("SMT-2, aligned pairs (hot+hot)", (("gzip", "sixtrack"), ("mcf", "swim"))),
)

#: The studies :func:`compute` returns, in render order.
PLACEMENT = "asymmetric cores — placement sensitivity"
RECOVERY = "asymmetric cores — migration recovery"
SMT = "SMT vs CMP at equal area"


@dataclass(frozen=True)
class ExtensionRow:
    """One configuration of the asymmetric-cores study."""

    label: str
    bips: float
    duty_cycle: float
    migrations: int
    max_temp_c: float


def _row(label: str, r: RunResult) -> ExtensionRow:
    return ExtensionRow(label, r.bips, r.duty_cycle, r.migrations, r.max_temp_c)


def _smt_point(
    payload: Tuple[Tuple[Tuple[str, str], ...], SimulationConfig],
) -> RunResult:
    """One SMT row: merged benchmark pairs on the 2-core SMT chip.

    Built directly on the simulator: the merged profiles are not named
    benchmarks, so no :class:`~repro.sim.workloads.Workload` names them.
    """
    pairs, config = payload
    profiles = [
        merge_profiles(get_benchmark(a), get_benchmark(b)) for a, b in pairs
    ]
    smt_config = replace(
        config, machine=MachineConfig(n_cores=2), core_sizes_mm=SMT_CORE_SIZES
    )
    return ThermalTimingSimulator(profiles, _DDV, smt_config).run()


def compute(
    config: Optional[SimulationConfig] = None,
) -> Dict[str, List[ExtensionRow]]:
    """Every study: ``{study name: rows}``.

    The asymmetric-core rows and the CMP-4 row run as one batch; the SMT
    rows run through the runner's
    :meth:`~repro.sim.runner.ParallelRunner.map_cached`.
    """
    config = config or default_config()
    asym = replace(config, core_sizes_mm=ASYMMETRIC_SIZES)
    good = STUDY_BENCHMARKS  # hot threads on the big cores 0/1
    bad = good[2:] + good[:2]  # hot threads on the small cores 2/3
    declared = {
        PLACEMENT: [
            ("symmetric, hot on cores 0/1", good, _DDV, config),
            ("symmetric, hot on cores 2/3", bad, _DDV, config),
            ("asymmetric, hot on BIG cores", good, _DDV, asym),
            ("asymmetric, hot on SMALL cores", bad, _DDV, asym),
        ],
        RECOVERY: [
            ("no migration", bad, _DDV, asym),
            ("counter-based migration", bad, _DDV_COUNTER, asym),
            ("sensor-based migration", bad, _DDV_SENSOR, asym),
        ],
        SMT: [("CMP-4: one thread per core", good, _DDV, config)],
    }
    results = iter(get_default_runner().run_points([
        RunPoint(Workload("asym-study", benchmarks), spec, cfg)
        for rows in declared.values()
        for _label, benchmarks, spec, cfg in rows
    ]))
    data = {
        name: [_row(label, next(results)) for label, *_ in rows]
        for name, rows in declared.items()
    }
    smt = get_default_runner().map_cached(
        "extensions.smt", _smt_point,
        [(pairs, config) for _label, pairs in SMT_PAIRINGS],
    )
    data[SMT] += [_row(label, r) for (label, _), r in zip(SMT_PAIRINGS, smt)]
    return data


def placement_sensitivity(
    config: Optional[SimulationConfig] = None,
) -> List[ExtensionRow]:
    """Hot-threads-on-big-cores vs. hot-threads-on-small-cores, no migration.

    On the symmetric chip the two placements are equivalent by symmetry
    (up to edge effects); on the asymmetric chip the good placement runs
    the hot threads at lower density and wins.
    """
    return compute(config)[PLACEMENT]


def asymmetric_migration_study(
    config: Optional[SimulationConfig] = None,
) -> List[ExtensionRow]:
    """Can migration recover a hot-on-small placement?

    All rows start from the *bad* placement (hot threads on the small
    cores) on the asymmetric chip.
    """
    return compute(config)[RECOVERY]


def smt_study(
    config: Optional[SimulationConfig] = None,
) -> List[ExtensionRow]:
    """CMP-4 vs. 2-way-SMT-2 at equal silicon area (paper Section 9).

    Four threads (gzip, sixtrack, mcf, swim) run either one-per-core on
    the 4-core chip, or as merged pairs on a 2-core chip of equal total
    core area. Two pairings are studied:

    * *complementary* — each hot thread shares its core with a cool one
      (gzip+swim, sixtrack+mcf);
    * *aligned* — the hot threads share one core (gzip+sixtrack) and the
      cool threads the other (mcf+swim).

    The thermal hazard SMT introduces is visible in the merged profiles:
    an int+fp pair stresses both register files of one core at once,
    leaving no cool unit for the DTM policies to exploit.
    """
    return compute(config)[SMT]


def render(data: Dict[str, Sequence[ExtensionRow]]) -> str:
    """One table per study, titled ``Extension: <study name>``."""
    return "\n\n".join(
        render_table(
            ["configuration", "BIPS", "duty cycle", "migrations", "max T (C)"],
            [
                [r.label, f"{r.bips:.2f}", f"{r.duty_cycle:.2%}",
                 str(r.migrations), f"{r.max_temp_c:.1f}"]
                for r in rows
            ],
            title=f"Extension: {name}",
        )
        for name, rows in data.items()
    )

