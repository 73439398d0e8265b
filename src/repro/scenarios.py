"""Declarative many-core scenarios: core classes, tech nodes, presets.

The paper evaluates its 12-policy taxonomy on one homogeneous 4-core
90 nm CMP. This module generalises that chip into data: a
:class:`Scenario` names a topology (the paper's core row or a tiled
mesh), a tuple of :class:`CoreClass` entries (big/LITTLE/accelerator
tiles with their own unit layout, area, power scale and DVFS floor) and
a :class:`TechNode` (HotSpot/lumos-style voltage/frequency ladder plus
leakage parameters). The engine, fleet, CLI and experiments consume
scenarios purely through this module, so adding a chip is a table edit,
not a code change — see ``docs/SCENARIOS.md`` for the gallery and a
worked "add your own core class" example.

Everything here is a frozen dataclass built from tuples, strings and
numbers only, so scenarios hash into the runner's content-addressed
cache key (:func:`repro.sim.runner.stable_hash`) without special cases,
and each scenario object is encoded once per process.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.control.pi import MAX_FREQUENCY_SCALE, MIN_FREQUENCY_SCALE
from repro.thermal.floorplan import Floorplan
from repro.thermal.layouts import (
    CORE_UNITS,
    DEFAULT_CORE_LAYOUT,
    DEFAULT_CORE_SIZE_MM,
    LayoutItems,
    build_cmp_floorplan,
    build_mesh_floorplan,
)
from repro.uarch.config import MachineConfig, default_machine_config

#: Cache-heavy layout for efficiency ("LITTLE") cores: larger caches in
#: the bottom band, a thinner execution band on top — in-order-style
#: silicon where SRAM dominates and the datapath is modest.
EFFICIENCY_CORE_LAYOUT: LayoutItems = (
    ("icache", (0.00, 0.00, 0.50, 0.45)),
    ("dcache", (0.50, 0.00, 0.50, 0.45)),
    ("bpred", (0.00, 0.45, 0.25, 0.25)),
    ("decode", (0.25, 0.45, 0.25, 0.25)),
    ("iq", (0.50, 0.45, 0.25, 0.25)),
    ("lsu", (0.75, 0.45, 0.25, 0.25)),
    ("fxu", (0.00, 0.70, 0.22, 0.30)),
    ("intreg", (0.22, 0.70, 0.13, 0.30)),
    ("bxu", (0.35, 0.70, 0.13, 0.30)),
    ("fpreg", (0.48, 0.70, 0.13, 0.30)),
    ("fpu", (0.61, 0.70, 0.39, 0.30)),
)

#: Datapath-heavy layout for accelerator-leaning tiles: small front end,
#: a tall execution band where the register files and FPU dominate.
ACCELERATOR_CORE_LAYOUT: LayoutItems = (
    ("icache", (0.00, 0.00, 0.30, 0.25)),
    ("dcache", (0.30, 0.00, 0.70, 0.25)),
    ("bpred", (0.00, 0.25, 0.20, 0.20)),
    ("decode", (0.20, 0.25, 0.30, 0.20)),
    ("iq", (0.50, 0.25, 0.25, 0.20)),
    ("lsu", (0.75, 0.25, 0.25, 0.20)),
    ("fxu", (0.00, 0.45, 0.25, 0.55)),
    ("intreg", (0.25, 0.45, 0.15, 0.55)),
    ("bxu", (0.40, 0.45, 0.10, 0.55)),
    ("fpreg", (0.50, 0.45, 0.15, 0.55)),
    ("fpu", (0.65, 0.45, 0.35, 0.55)),
)


@dataclass(frozen=True)
class CoreClass:
    """One core type placeable on a scenario chip.

    ``power_scale`` multiplies the machine's nominal per-core power
    (a LITTLE core burns a fraction of a big core's watts);
    ``min_freq_scale`` is the class's lowest legal DVFS operating point
    (simple in-order cores often cannot scale as deep as big cores
    hold voltage margins); ``layout`` is the fractional unit plan as
    hashable items.
    """

    name: str
    size_mm: float = DEFAULT_CORE_SIZE_MM
    power_scale: float = 1.0
    min_freq_scale: float = MIN_FREQUENCY_SCALE
    layout: LayoutItems = DEFAULT_CORE_LAYOUT

    def __post_init__(self) -> None:
        """Validate geometry, power and operating-point parameters."""
        if not self.size_mm > 0:
            raise ValueError(f"size_mm must be positive, got {self.size_mm}")
        if not self.power_scale > 0:
            raise ValueError(
                f"power_scale must be positive, got {self.power_scale}"
            )
        if not 0.0 < self.min_freq_scale < MAX_FREQUENCY_SCALE:
            raise ValueError(
                "min_freq_scale must be in (0, "
                f"{MAX_FREQUENCY_SCALE}), got {self.min_freq_scale}"
            )
        units = sorted(u for u, _ in self.layout)
        if units != sorted(CORE_UNITS):
            raise ValueError(
                f"layout for class {self.name!r} must cover exactly "
                f"{sorted(CORE_UNITS)}, got {units}"
            )


@dataclass(frozen=True)
class TechNode:
    """A CMOS technology node: clocking, DVFS ladder, leakage physics.

    ``dvfs_ladder`` lists ``(voltage_scale, frequency_scale)`` operating
    points in ascending frequency order (HotSpot/lumos-style per-node
    tables); the lowest rung bounds how deep PI-DVFS may throttle on
    this node. ``leakage_beta`` / ``leakage_t_ref_c`` parameterise the
    exponential temperature dependence of leakage
    (``P = P_ref * exp(beta * (T - T_ref))``): smaller nodes leak more
    steeply, which is exactly the feedback loop the paper's thermal
    policies must tame.
    """

    name: str
    process_nm: float
    vdd: float
    clock_hz: float
    dvfs_ladder: Tuple[Tuple[float, float], ...]
    leakage_beta: float = 0.028
    leakage_t_ref_c: float = 85.0

    def __post_init__(self) -> None:
        """Validate the ladder's range and monotonicity."""
        if not self.dvfs_ladder:
            raise ValueError(f"tech node {self.name!r} needs a DVFS ladder")
        freqs = [f for _, f in self.dvfs_ladder]
        if any(not 0.0 < f <= MAX_FREQUENCY_SCALE for f in freqs):
            raise ValueError(
                f"ladder frequency scales must be in (0, "
                f"{MAX_FREQUENCY_SCALE}]: {freqs}"
            )
        if freqs != sorted(freqs):
            raise ValueError(
                f"ladder must ascend in frequency scale: {freqs}"
            )
        if any(not 0.0 < v <= 1.5 for v, _ in self.dvfs_ladder):
            raise ValueError(
                "ladder voltage scales must be in (0, 1.5]: "
                f"{[v for v, _ in self.dvfs_ladder]}"
            )

    @property
    def min_freq_scale(self) -> float:
        """The node's lowest legal frequency scale (bottom ladder rung)."""
        return self.dvfs_ladder[0][1]


#: The paper's node: 3.6 GHz at 90 nm, the full 0.2–1.0 DVFS range.
TECH_90NM = TechNode(
    name="90nm",
    process_nm=90.0,
    vdd=1.0,
    clock_hz=3.6e9,
    dvfs_ladder=(
        (0.70, 0.20),
        (0.78, 0.40),
        (0.85, 0.60),
        (0.93, 0.80),
        (1.00, 1.00),
    ),
)

#: 65 nm shrink: slightly faster clock, steeper leakage.
TECH_65NM = TechNode(
    name="65nm",
    process_nm=65.0,
    vdd=1.0,
    clock_hz=4.0e9,
    dvfs_ladder=(
        (0.72, 0.25),
        (0.80, 0.45),
        (0.87, 0.65),
        (0.94, 0.85),
        (1.00, 1.00),
    ),
    leakage_beta=0.032,
)

#: 45 nm node for dense meshes: many slower cores, leakage-dominated.
TECH_45NM = TechNode(
    name="45nm",
    process_nm=45.0,
    vdd=0.9,
    clock_hz=3.2e9,
    dvfs_ladder=(
        (0.70, 0.30),
        (0.78, 0.50),
        (0.86, 0.70),
        (0.93, 0.85),
        (1.00, 1.00),
    ),
    leakage_beta=0.036,
    leakage_t_ref_c=80.0,
)

#: The paper's out-of-order big core.
PERFORMANCE_CORE = CoreClass(name="perf")

#: A LITTLE core: ~42% of the big core's area, 45% of its power, and a
#: shallower DVFS floor (in-order pipelines hold voltage margins).
EFFICIENCY_CORE = CoreClass(
    name="little",
    size_mm=2.6,
    power_scale=0.45,
    min_freq_scale=0.40,
    layout=EFFICIENCY_CORE_LAYOUT,
)

#: A dense mesh tile for 64-core chips: small, mid-power, cache-light.
DENSE_CORE = CoreClass(
    name="dense",
    size_mm=2.0,
    power_scale=0.55,
    min_freq_scale=0.30,
    layout=ACCELERATOR_CORE_LAYOUT,
)


@dataclass(frozen=True)
class Scenario:
    """A complete chip description: topology × core classes × tech node.

    ``topology`` is ``"row"`` (the paper's cores-over-L2 strip, built by
    :func:`repro.thermal.layouts.build_cmp_floorplan`) or ``"mesh"``
    (tiled ``rows × cols`` fabric from
    :func:`repro.thermal.layouts.build_mesh_floorplan`). ``core_classes``
    assigns a class per core, row-major; a length-1 tuple replicates one
    class across the whole chip.
    """

    name: str
    rows: int
    cols: int
    core_classes: Tuple[CoreClass, ...]
    tech: TechNode = TECH_90NM
    topology: str = "mesh"

    def __post_init__(self) -> None:
        """Validate shape, class count and topology."""
        if self.rows < 1 or self.cols < 1:
            raise ValueError(
                f"rows and cols must be >= 1, got {self.rows}x{self.cols}"
            )
        if self.topology not in ("row", "mesh"):
            raise ValueError(
                f"topology must be 'row' or 'mesh', got {self.topology!r}"
            )
        if self.topology == "row" and self.rows != 1:
            raise ValueError("row topology requires rows == 1")
        n = self.rows * self.cols
        if len(self.core_classes) not in (1, n):
            raise ValueError(
                f"core_classes must have 1 or {n} entries, "
                f"got {len(self.core_classes)}"
            )

    @property
    def n_cores(self) -> int:
        """Total core count (``rows * cols``)."""
        return self.rows * self.cols

    def core_class_for(self, core: int) -> CoreClass:
        """The class of core ``core`` (row-major index)."""
        if len(self.core_classes) == 1:
            return self.core_classes[0]
        return self.core_classes[core]

    def core_power_scales(self) -> List[float]:
        """Per-core power multipliers relative to the nominal core."""
        return [self.core_class_for(i).power_scale for i in range(self.n_cores)]

    def core_min_scales(self) -> List[float]:
        """Per-core DVFS floors: max of class floor and ladder bottom."""
        floor = self.tech.min_freq_scale
        return [
            max(self.core_class_for(i).min_freq_scale, floor)
            for i in range(self.n_cores)
        ]

    def build_floorplan(self) -> Floorplan:
        """Construct the scenario's chip floorplan."""
        classes = [self.core_class_for(i) for i in range(self.n_cores)]
        if self.topology == "row":
            return build_cmp_floorplan(
                n_cores=self.n_cores,
                core_sizes_mm=[c.size_mm for c in classes],
                core_layouts=[c.layout for c in classes],
            )
        return build_mesh_floorplan(self.rows, self.cols, classes)

    def machine_config(
        self, base: Optional[MachineConfig] = None
    ) -> MachineConfig:
        """A machine config with this scenario's core count and node."""
        base = default_machine_config() if base is None else base
        return dataclasses.replace(
            base,
            n_cores=self.n_cores,
            process_nm=self.tech.process_nm,
            vdd=self.tech.vdd,
            clock_hz=self.tech.clock_hz,
        )


#: The paper's chip expressed as a scenario (row of four big cores).
CMP4 = Scenario(
    name="cmp4",
    rows=1,
    cols=4,
    core_classes=(PERFORMANCE_CORE,),
    tech=TECH_90NM,
    topology="row",
)

#: Homogeneous 16-core mesh of big cores on the paper's node.
MESH16 = Scenario(
    name="mesh16",
    rows=4,
    cols=4,
    core_classes=(PERFORMANCE_CORE,),
    tech=TECH_90NM,
)

#: Dense 64-core mesh on the 45 nm node (leakage-dominated regime).
MESH64 = Scenario(
    name="mesh64",
    rows=8,
    cols=8,
    core_classes=(DENSE_CORE,),
    tech=TECH_45NM,
)

#: big.LITTLE 2×4 mesh: a row of four big cores under four LITTLE cores.
BIGLITTLE_4_4 = Scenario(
    name="biglittle4+4",
    rows=2,
    cols=4,
    core_classes=(
        PERFORMANCE_CORE,
        PERFORMANCE_CORE,
        PERFORMANCE_CORE,
        PERFORMANCE_CORE,
        EFFICIENCY_CORE,
        EFFICIENCY_CORE,
        EFFICIENCY_CORE,
        EFFICIENCY_CORE,
    ),
    tech=TECH_90NM,
)

#: Name -> preset registry consumed by the CLI and experiments.
SCENARIOS: Dict[str, Scenario] = {
    s.name: s for s in (CMP4, MESH16, MESH64, BIGLITTLE_4_4)
}


def get_scenario(name: str) -> Scenario:
    """Look up a preset scenario by name."""
    try:
        return SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; choose from {scenario_names()}"
        ) from None


def scenario_names() -> List[str]:
    """Registered preset names, in registry order."""
    return list(SCENARIOS)
