"""Table 1: per-benchmark processor temperatures on a mobile platform.

The paper measures a Pentium M (Banias, 1.5 GHz) notebook through the
ACPI thermal diode while running SPEC programs: most settle at a steady
temperature between 59 and 71 C (Table 1a), while bzip2/ammp/facerec/
fma3d oscillate over ~6 degree ranges (Table 1b).

We reproduce the measurement protocol on the simulated mobile chip:

* single core + 1 MB L2 (``mobile_machine_config``), notebook cooling
  solution (``MOBILE_PACKAGE``);
* one thermal diode at the edge of the die — we read the L2 region
  adjacent to the die edge, whose temperature integrates total chip
  power the way a package-edge diode does;
* readings rounded to whole degrees (the ACPI interface restriction);
* the machine idles to a settled temperature before each run (warm start
  at idle power), then the benchmark runs long enough to reach its
  operating temperature.

Because the paper's temperature oscillations unfold over seconds-to-
minutes of real execution (full SPEC phases), the Table 1 runs stretch
each benchmark's phase period by ``PHASE_STRETCH`` and simulate several
seconds — the mobile package's external time constants filter anything
faster into invisibility, exactly as on the real laptop.

The benchmarks are measured in small cohorts (:data:`COHORT`) stepped in
lockstep through one shared ``StepOperator.apply_batch`` per step, with
each member's dynamic power precomputed before the loop. Memory, not
speed, caps the cohort: every member's power rows stay alive for the
whole run. Each cohort is one runner payload, so with ``jobs > 1``
cohorts still measure concurrently. The cohort is a batching device
only: every benchmark's readings are bitwise equal to stepping it alone
through ``ThermalModel.step``, whichever cohort it lands in.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.experiments.common import get_default_runner
from repro.obs.logconfig import get_logger
from repro.sim.runner import ParallelRunner
from repro.thermal.coupling import initialize_coupled_steady
from repro.thermal.layouts import build_mobile_floorplan, mobile_sensor_block
from repro.thermal.leakage import LeakageModel
from repro.thermal.model import ThermalModel
from repro.thermal.package import MOBILE_PACKAGE, ThermalPackage
from repro.uarch.benchmarks import get_benchmark
from repro.uarch.config import mobile_machine_config
from repro.uarch.interval_model import UNIT_ORDER
from repro.uarch.power import L2_BANK_PEAK_W, L2_IDLE_FRACTION
from repro.uarch.tracegen import generate_trace
from repro.util.rng import DEFAULT_ROOT_SEED
from repro.util.tables import render_table

#: The benchmarks of Table 1a with the paper's measured steady temps (C).
PAPER_STABLE = {
    "gzip": 70,
    "mcf": 59,
    "parser": 67,
    "twolf": 67,
    "mesa": 65,
    "swim": 62,
    "lucas": 63,
    "sixtrack": 71,
}

#: The benchmarks of Table 1b with the paper's measured ranges (C).
PAPER_RANGES = {
    "bzip2": (67, 72),
    "ammp": (58, 64),
    "facerec": (65, 71),
    "fma3d": (61, 67),
}

#: Block read by the edge thermal diode.
DIODE_BLOCK = mobile_sensor_block()

#: Mobile power budget relative to the high-performance chip: lower clock
#: (1.5 vs 3.6 GHz) and a power-conscious design point.
MOBILE_POWER_SCALE = 0.27

#: Workload-independent platform heat reaching the diode (uncore, PLL,
#: I/O, bus interface): the Banias diode sits at the package edge where
#: this baseline is a large share of what it sees, compressing the
#: apparent spread between hot and cool programs.
PLATFORM_IDLE_W = 5.0

#: Slow-down applied to benchmark phase periods (see module docstring).
#: Real SPEC programs swing over minutes — slow enough that the whole
#: cooling stack (including the heatsink, tau ~ a minute) follows, which
#: is why the ACPI diode sees multi-degree ranges.
PHASE_STRETCH = 6000.0

#: ACPI reading granularity.
QUANTIZATION_C = 1.0

#: Benchmarks stepped in lockstep per runner payload. Memory, not speed,
#: sets the size: each member holds its dynamic-power rows for the whole
#: run (~4.3 MB at the 900 s protocol). Measured on a 2-vCPU VM, Table 1
#: alone takes 11.9 s one at a time, 5.4 s at 2, 3.8 s at 3 and 1.6 s at
#: 12, its transient peak growing from +25 to +34, +38 and +67 MB above
#: imports. At 2 a full regeneration's peak RSS moves by under 0.5 MB.
COHORT = 2


@dataclass(frozen=True)
class Table1Row:
    """One benchmark's measured temperature behaviour."""

    benchmark: str
    category: str  # "SPECint" / "SPECfp"
    stable: bool
    steady_c: Optional[int]            # Table 1a entries
    range_c: Optional[Tuple[int, int]]  # Table 1b entries


@dataclass(frozen=True)
class Table1Point:
    """One cohort measurement's full input — the runner's cache key."""

    benchmarks: Tuple[str, ...]
    duration_s: float
    dt: float
    package: ThermalPackage
    power_scale: float
    seed: int


def _measure_point(point: Table1Point) -> Tuple[np.ndarray, ...]:
    """Runner task: each cohort member's diode readings (picklable, pure)."""
    temps = _diode_temperatures(
        point.benchmarks,
        point.duration_s,
        point.dt,
        point.package,
        point.power_scale,
        point.seed,
    )
    return tuple(_quantise(temps[:, i]) for i in range(temps.shape[1]))


def _simulate_benchmark(
    name: str,
    duration_s: float,
    dt: float,
    package: ThermalPackage,
    power_scale: float,
    seed: int,
) -> np.ndarray:
    """Diode readings (quantised, 1/dt Hz) while ``name`` runs alone."""
    point = Table1Point((name,), duration_s, dt, package, power_scale, seed)
    return _measure_point(point)[0]


def _quantise(temperatures: np.ndarray) -> np.ndarray:
    """What the ACPI interface reports for raw diode temperatures."""
    return np.round(temperatures / QUANTIZATION_C) * QUANTIZATION_C


def _l2_power(activity, power_scale: float):
    """L2 block power (W), platform baseline included; float or array."""
    return PLATFORM_IDLE_W + power_scale * L2_BANK_PEAK_W * (
        L2_IDLE_FRACTION + (1 - L2_IDLE_FRACTION) * activity
    )


def _diode_temperatures(
    names: Sequence[str],
    duration_s: float,
    dt: float,
    package: ThermalPackage,
    power_scale: float,
    seed: int,
) -> np.ndarray:
    """Raw diode temperatures, ``(n_steps, len(names))``, benchmarks in lockstep.

    Column ``i`` is bitwise equal to stepping ``names[i]`` alone through
    ``ThermalModel.step`` and ``LeakageModel.power``: the loop performs
    the same floating-point operations row by row, and
    ``StepOperator.apply_batch`` rows equal scalar ``apply`` calls.
    """
    # Sample the interval model directly at the coarse thermal step: the
    # trace then holds one power bin per step, phases included.
    machine = replace(
        mobile_machine_config(),
        trace_sample_cycles=int(round(dt * mobile_machine_config().clock_hz)),
    )
    floorplan = build_mobile_floorplan()
    model = ThermalModel(floorplan, package, dt)
    # 130 nm mobile part: leakage is a smaller share than at 90 nm.
    leakage = LeakageModel(floorplan, 8.0 * power_scale)
    net = model.network
    unit_idx = np.array([net.index(f"core0.{u}") for u in UNIT_ORDER])
    l2_idx = net.index("l2_0")
    n_blocks = net.n_blocks

    temps = np.empty((len(names), net.n_nodes))
    dyn = None  # (n_bins, cohort, n_blocks) dynamic power per step
    for i, name in enumerate(names):
        profile = get_benchmark(name)
        stretched = replace(
            profile,
            phase=replace(
                profile.phase, period_s=profile.phase.period_s * PHASE_STRETCH
            ),
        )
        trace = generate_trace(
            stretched,
            machine,
            duration_s=duration_s,
            seed=seed,
            power_scale=power_scale,
            use_cache=False,
        )
        # The real protocol runs each benchmark for minutes before (and
        # while) polling — the whole stack is warm. Start from the
        # benchmark's mean-power steady state and let the phases swing
        # around it.
        mean_p = np.zeros(n_blocks)
        mean_p[unit_idx] = trace.unit_power.mean(axis=0)
        mean_p[l2_idx] = _l2_power(float(trace.l2_activity.mean()), power_scale)
        temps[i] = initialize_coupled_steady(
            model, leakage, mean_p, tolerance_c=1e-3
        )
        if dyn is None:
            # Every trace of the cohort has the same machine and horizon,
            # hence the same number of bins.
            dyn = np.zeros((trace.n_samples, len(names), n_blocks))
        dyn[:, i, unit_idx] = trace.unit_power
        dyn[:, i, l2_idx] = _l2_power(trace.l2_activity, power_scale)
        del trace  # only one benchmark's trace is alive at a time

    n_bins = dyn.shape[0]
    n_steps = max(1, int(round(duration_s / dt)))
    apply_batch = model.operator_for(dt).apply_batch
    ref, beta = leakage.reference_w, leakage.beta
    t_ref, cap = leakage.t_ref_c, leakage.max_eval_temp_c
    diode = net.index(DIODE_BLOCK)
    out = np.empty((n_steps, len(names)))
    for k in range(n_steps):
        leak = ref * np.exp(beta * (np.minimum(temps[:, :n_blocks], cap) - t_ref))
        temps = apply_batch(temps, leak + dyn[k % n_bins])
        out[k] = temps[:, diode]
    return out


def compute(
    duration_s: float = 900.0,
    dt: float = 20e-3,
    package: ThermalPackage = MOBILE_PACKAGE,
    power_scale: float = MOBILE_POWER_SCALE,
    seed: int = DEFAULT_ROOT_SEED,
    benchmarks: Optional[Sequence[str]] = None,
    runner: Optional[ParallelRunner] = None,
) -> List[Table1Row]:
    """Measure every Table 1 benchmark; returns rows in the paper's order.

    The benchmarks (``benchmarks`` in the order given, default the
    paper's) are cut into cohorts of :data:`COHORT` that step in
    lockstep; a benchmark's readings do not depend on its cohort. Each
    cohort is one payload of ``runner`` (default: the session's default
    runner), so with ``jobs > 1`` cohorts measure concurrently, and with
    a disk cache re-computing the table only re-measures changed
    cohorts.
    """
    names = list(benchmarks) if benchmarks is not None else (
        list(PAPER_STABLE) + list(PAPER_RANGES)
    )
    runner = runner or get_default_runner()
    get_logger(__name__).info(
        "table1: measuring %d benchmarks for %.0f s at dt=%.3g",
        len(names),
        duration_s,
        dt,
    )
    cohorts = [
        tuple(names[i:i + COHORT]) for i in range(0, len(names), COHORT)
    ]
    points = [
        Table1Point(cohort, duration_s, dt, package, power_scale, seed)
        for cohort in cohorts
    ]
    cohort_readings = runner.map_cached(
        "table1-readings",
        _measure_point,
        points,
        labels=[f"table1/{'+'.join(cohort)}" for cohort in cohorts],
    )
    all_readings = [r for readings in cohort_readings for r in readings]
    rows = []
    for name, readings in zip(names, all_readings):
        profile = get_benchmark(name)
        settle = readings[len(readings) // 3:]  # discard the ramp-up
        stable = not profile.phase.is_oscillating
        if stable:
            steady = int(round(float(np.median(settle))))
            row = Table1Row(name, _category(profile), True, steady, None)
        else:
            lo, hi = int(settle.min()), int(settle.max())
            row = Table1Row(name, _category(profile), False, None, (lo, hi))
        rows.append(row)
    return rows


def _category(profile) -> str:
    return "SPECint" if profile.suite == "int" else "SPECfp"


def render(rows: Sequence[Table1Row]) -> str:
    """Paper-style Tables 1a and 1b."""
    stable_rows = [
        [r.benchmark, r.category, f"{r.steady_c}"]
        for r in rows
        if r.stable
    ]
    osc_rows = [
        [r.benchmark, r.category, f"{r.range_c[0]}-{r.range_c[1]}"]
        for r in rows
        if not r.stable
    ]
    parts = []
    if stable_rows:
        parts.append(
            render_table(
                ["benchmark", "category", "steady-state temperature (C)"],
                stable_rows,
                title="Table 1a: temperatures of stable benchmarks",
            )
        )
    if osc_rows:
        parts.append(
            render_table(
                ["benchmark", "category", "temperature range (C)"],
                osc_rows,
                title="Table 1b: temperature ranges of oscillating benchmarks",
            )
        )
    return "\n\n".join(parts)


def main() -> str:
    """Compute and print both sub-tables."""
    text = render(compute())
    print(text)
    return text


if __name__ == "__main__":
    main()
