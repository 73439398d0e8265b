"""Concrete floorplans: the paper's 4-core CMP and a mobile chip.

The single-core mobile chip serves the Table 1 reproduction.

The per-core layout follows the out-of-order PowerPC-style floorplans used
in the paper's lineage (HotSpot's EV6-style plans, and Li et al. HPCA'05):
caches along the bottom, front-end in the middle band, execution units and
the two register files — the paper's hotspots — in the top band. The chip
places four such cores in a row over a crossbar strip and a 4 MB shared L2
split into four banks, so that cores have distinct lateral surroundings
(edge cores vs. inner cores), which the sensor-based migration policy must
learn (Section 6.3 of the paper).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.thermal.floorplan import Block, Floorplan

#: Units inside one core. ``intreg`` and ``fpreg`` are the paper's two
#: monitored hotspots ("integer register logic", "FP register logic").
CORE_UNITS: Tuple[str, ...] = (
    "icache",
    "dcache",
    "bpred",
    "decode",
    "iq",
    "lsu",
    "fxu",
    "intreg",
    "bxu",
    "fpreg",
    "fpu",
)

#: The two per-core hotspot units watched by thermal sensors.
HOTSPOT_UNITS: Tuple[str, str] = ("intreg", "fpreg")

#: Fractional layout of a core (x, y, width, height in the unit square).
_CORE_LAYOUT: Dict[str, Tuple[float, float, float, float]] = {
    "icache": (0.00, 0.00, 0.50, 0.35),
    "dcache": (0.50, 0.00, 0.50, 0.35),
    "bpred": (0.00, 0.35, 0.25, 0.30),
    "decode": (0.25, 0.35, 0.25, 0.30),
    "iq": (0.50, 0.35, 0.25, 0.30),
    "lsu": (0.75, 0.35, 0.25, 0.30),
    "fxu": (0.00, 0.65, 0.22, 0.35),
    "intreg": (0.22, 0.65, 0.13, 0.35),
    "bxu": (0.35, 0.65, 0.13, 0.35),
    "fpreg": (0.48, 0.65, 0.13, 0.35),
    "fpu": (0.61, 0.65, 0.39, 0.35),
}

#: A core layout as immutable ``(unit, (x, y, w, h))`` items — the
#: hashable form scenario tables carry (dicts cannot live in frozen
#: dataclasses or memoisation keys).
LayoutItems = Tuple[Tuple[str, Tuple[float, float, float, float]], ...]

#: The paper's out-of-order core layout in :data:`LayoutItems` form.
DEFAULT_CORE_LAYOUT: LayoutItems = tuple(_CORE_LAYOUT.items())

#: Default core edge length (mm) for the 90 nm 4-core chip.
DEFAULT_CORE_SIZE_MM = 4.0

#: Height (mm) of the crossbar/interconnect strip between cores and L2.
XBAR_HEIGHT_MM = 0.8

#: Height (mm) of the shared L2 region (4 MB, spanning the chip width).
L2_HEIGHT_MM = 5.2

#: Height (mm) of one mesh tile's private L2 bank.
MESH_L2_HEIGHT_MM = 1.6

#: Width (mm) of the mesh NoC spine (the single ``xbar`` block).
MESH_NOC_WIDTH_MM = 0.8


def core_block_name(core_index: int, unit: str) -> str:
    """Canonical name of a unit inside a core, e.g. ``core2.fpreg``."""
    return f"core{core_index}.{unit}"


def parse_block_name(name: str) -> Tuple[int, str]:
    """Inverse of :func:`core_block_name`.

    Returns ``(core_index, unit)``; shared blocks (L2 banks, crossbar)
    return core index ``-1``.
    """
    if name.startswith("core") and "." in name:
        prefix, unit = name.split(".", 1)
        return int(prefix[4:]), unit
    return -1, name


def _layout_items(
    layout: object,
) -> LayoutItems:
    """Normalise a core layout (mapping or items) into :data:`LayoutItems`.

    Validates that the layout covers exactly :data:`CORE_UNITS` so every
    core, whatever its class, exposes the same block-name contract the
    engine's power-index partition relies on.
    """
    if hasattr(layout, "items"):
        items = tuple(
            (str(u), tuple(float(v) for v in box))
            for u, box in layout.items()  # type: ignore[attr-defined]
        )
    else:
        items = tuple(
            (str(u), tuple(float(v) for v in box)) for u, box in layout
        )
    if tuple(sorted(u for u, _ in items)) != tuple(sorted(CORE_UNITS)):
        raise ValueError(
            "core layout must define exactly the units "
            f"{sorted(CORE_UNITS)}, got {sorted(u for u, _ in items)}"
        )
    return items  # type: ignore[return-value]


def build_core_floorplan(
    core_size_mm: float = DEFAULT_CORE_SIZE_MM,
    origin: Tuple[float, float] = (0.0, 0.0),
    prefix: str = "",
    layout: Optional[LayoutItems] = None,
) -> Floorplan:
    """One out-of-order core, optionally name-prefixed and translated.

    ``layout`` selects an alternative fractional unit layout (e.g. the
    cache-heavy efficiency-core plan from :mod:`repro.scenarios`); the
    default is the paper's out-of-order plan.
    """
    if not core_size_mm > 0:
        raise ValueError(f"core_size_mm must be positive, got {core_size_mm}")
    items = DEFAULT_CORE_LAYOUT if layout is None else _layout_items(layout)
    ox, oy = origin
    blocks = [
        Block(
            prefix + unit,
            ox + fx * core_size_mm,
            oy + fy * core_size_mm,
            fw * core_size_mm,
            fh * core_size_mm,
        )
        for unit, (fx, fy, fw, fh) in items
    ]
    return Floorplan(blocks)


def build_cmp_floorplan(
    n_cores: int = 4,
    core_size_mm: float = DEFAULT_CORE_SIZE_MM,
    core_sizes_mm: Optional[Sequence[float]] = None,
    core_layouts: Optional[Sequence[Optional[LayoutItems]]] = None,
) -> Floorplan:
    """The paper's chip: ``n_cores`` cores over a crossbar and L2 banks.

    Core ``i`` occupies a square column above the crossbar; the L2 is
    split into one bank per core column so the thermal model resolves
    lateral gradients along the chip.

    ``core_sizes_mm`` enables the *asymmetric cores* axis the paper names
    as a possible extension: per-core edge lengths (same microarchitecture
    and power, different silicon area — a larger core runs the same
    workload at lower power density and therefore cooler).

    ``core_layouts`` optionally gives each core its own fractional unit
    layout (heterogeneous big.LITTLE rows from :mod:`repro.scenarios`);
    ``None`` entries fall back to the default layout.
    """
    if n_cores < 1:
        raise ValueError(f"n_cores must be >= 1, got {n_cores}")
    if core_sizes_mm is None:
        sizes = [core_size_mm] * n_cores
    else:
        sizes = [float(s) for s in core_sizes_mm]
        if len(sizes) != n_cores:
            raise ValueError(
                f"core_sizes_mm must have {n_cores} entries, got {len(sizes)}"
            )
        if any(not s > 0 for s in sizes):
            raise ValueError(f"core sizes must be positive: {sizes}")
    layouts: List[Optional[LayoutItems]] = (
        [None] * n_cores if core_layouts is None else list(core_layouts)
    )
    if len(layouts) != n_cores:
        raise ValueError(
            f"core_layouts must have {n_cores} entries, got {len(layouts)}"
        )
    blocks: List[Block] = []
    xbar_bottom = L2_HEIGHT_MM
    core_bottom = L2_HEIGHT_MM + XBAR_HEIGHT_MM
    x = 0.0
    for i, size in enumerate(sizes):
        core = build_core_floorplan(
            size,
            origin=(x, core_bottom),
            prefix=f"core{i}.",
            layout=layouts[i],
        )
        blocks.extend(core.blocks)
        x += size
    chip_width = sum(sizes)
    blocks.append(Block("xbar", 0.0, xbar_bottom, chip_width, XBAR_HEIGHT_MM))
    x = 0.0
    for i, size in enumerate(sizes):
        blocks.append(Block(f"l2_{i}", x, 0.0, size, L2_HEIGHT_MM))
        x += size
    return Floorplan(blocks)


def build_mesh_floorplan(
    rows: int,
    cols: int,
    core_classes: Optional[Sequence] = None,
    core_size_mm: float = DEFAULT_CORE_SIZE_MM,
) -> Floorplan:
    """A ``rows × cols`` tiled many-core mesh over an L2/NoC fabric.

    Tile ``i = r * cols + c`` (row-major, row 0 at the bottom) holds a
    private L2 bank (``l2_{i}``, full tile width) under core ``i``'s unit
    blocks. A single vertical NoC spine along the right edge plays the
    ``xbar`` role so the engine's three power-index families (core units,
    per-core L2 banks, one shared interconnect) partition the block set
    exactly as on the paper's 4-core chip.

    ``core_classes`` is an optional length ``rows*cols`` sequence of
    objects with ``size_mm`` and ``layout`` attributes (duck-typed so this
    module stays import-independent of :mod:`repro.scenarios`, which
    imports it). Heterogeneous rows — e.g. a big row under a LITTLE row —
    get per-row heights; columns share a uniform pitch sized for the
    largest core so tiles never overlap. Gaps between small tiles and the
    pitch boundary are legal floorplan whitespace.
    """
    if rows < 1 or cols < 1:
        raise ValueError(f"mesh needs rows, cols >= 1, got {rows}x{cols}")
    n_cores = rows * cols
    if core_classes is not None and len(core_classes) != n_cores:
        raise ValueError(
            f"core_classes must have {n_cores} entries, got {len(core_classes)}"
        )

    def _tile(i: int) -> Tuple[float, LayoutItems]:
        if core_classes is None:
            return float(core_size_mm), DEFAULT_CORE_LAYOUT
        cls = core_classes[i]
        return float(cls.size_mm), _layout_items(cls.layout)

    tiles = [_tile(i) for i in range(n_cores)]
    if any(not size > 0 for size, _ in tiles):
        raise ValueError("mesh core sizes must be positive")
    tile_w = max(size for size, _ in tiles)
    row_heights = [
        MESH_L2_HEIGHT_MM
        + max(tiles[r * cols + c][0] for c in range(cols))
        for r in range(rows)
    ]
    blocks: List[Block] = []
    y = 0.0
    for r in range(rows):
        for c in range(cols):
            i = r * cols + c
            size, layout = tiles[i]
            x = c * tile_w
            blocks.append(
                Block(f"l2_{i}", x, y, tile_w, MESH_L2_HEIGHT_MM)
            )
            core = build_core_floorplan(
                size,
                origin=(x, y + MESH_L2_HEIGHT_MM),
                prefix=f"core{i}.",
                layout=layout,
            )
            blocks.extend(core.blocks)
        y += row_heights[r]
    blocks.append(Block("xbar", cols * tile_w, 0.0, MESH_NOC_WIDTH_MM, y))
    return Floorplan(blocks)


def build_mobile_floorplan(core_size_mm: float = 6.0) -> Floorplan:
    """A single-core mobile chip (the Table 1 Pentium M stand-in).

    One core above a 1 MB L2 block; the ACPI-style thermal diode sits at
    the edge of the die (see :func:`mobile_sensor_block`).
    """
    l2_height = core_size_mm * 0.6
    core = build_core_floorplan(
        core_size_mm, origin=(0.0, l2_height), prefix="core0."
    )
    l2 = Block("l2_0", 0.0, 0.0, core_size_mm, l2_height)
    return Floorplan(list(core.blocks) + [l2])


def mobile_sensor_block() -> str:
    """Block holding the mobile chip's single edge thermal diode.

    The Pentium M's ACPI diode sits at the edge of the processor. We read
    the L2 region, which reaches the die's bottom edge and integrates
    total chip power the way a package-edge diode does (the Table 1
    experiment reads this block through 1 °C quantisation).
    """
    return "l2_0"


def core_names(n_cores: int) -> List[str]:
    """``["core0", ..., "core{n-1}"]`` — used for labeling results."""
    return [f"core{i}" for i in range(n_cores)]


def hotspot_blocks(core_index: int) -> List[str]:
    """The monitored hotspot block names of one core."""
    return [core_block_name(core_index, unit) for unit in HOTSPOT_UNITS]


def all_core_blocks(core_index: int) -> List[str]:
    """All block names belonging to one core."""
    return [core_block_name(core_index, unit) for unit in CORE_UNITS]
