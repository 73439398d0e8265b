"""Mesh floorplan invariants and the CMP memoisation regression.

``build_mesh_floorplan`` tiles per-class cores over an L2 fabric with a
NoC spine; the engine relies on the result being a valid (non-overlap)
floorplan whose block names partition into exactly the families the
power-index builder expects. These tests pin those invariants — for the
fixed presets and, via Hypothesis, over random grid shapes and core
class mixes.
"""

import pytest

from repro.scenarios import (
    DENSE_CORE,
    EFFICIENCY_CORE,
    EFFICIENCY_CORE_LAYOUT,
    PERFORMANCE_CORE,
)
from repro.thermal.floorplan import ADJACENCY_TOLERANCE_MM
from repro.thermal.layouts import (
    CORE_UNITS,
    build_cmp_floorplan,
    build_mesh_floorplan,
)

CLASS_POOL = (PERFORMANCE_CORE, EFFICIENCY_CORE, DENSE_CORE)


def assert_mesh_contract(fp, rows, cols):
    """The block-name partition the engine's power indexing requires."""
    n = rows * cols
    names = set(fp.names)
    for i in range(n):
        for unit in CORE_UNITS:
            assert f"core{i}.{unit}" in names
        assert f"l2_{i}" in names
    assert "xbar" in names
    assert len(fp) == n * len(CORE_UNITS) + n + 1


class TestMeshFloorplan:
    def test_homogeneous_mesh_block_partition(self):
        fp = build_mesh_floorplan(4, 4)
        assert_mesh_contract(fp, 4, 4)

    def test_single_tile_mesh(self):
        fp = build_mesh_floorplan(1, 1)
        assert_mesh_contract(fp, 1, 1)

    def test_heterogeneous_mesh_uses_class_geometry(self):
        classes = [PERFORMANCE_CORE] * 4 + [EFFICIENCY_CORE] * 4
        fp = build_mesh_floorplan(2, 4, core_classes=classes)
        assert_mesh_contract(fp, 2, 4)
        # Tile 4 is the first little core: its units follow the
        # efficiency layout scaled to its (smaller) core size.
        layout = dict(EFFICIENCY_CORE_LAYOUT)
        fx, fy, fw, fh = layout["icache"]
        block = fp.block("core4.icache")
        assert block.width == pytest.approx(fw * EFFICIENCY_CORE.size_mm)
        assert block.height == pytest.approx(fh * EFFICIENCY_CORE.size_mm)

    def test_tiles_are_row_major_from_bottom_left(self):
        fp = build_mesh_floorplan(2, 2)
        l2 = [fp.block(f"l2_{i}") for i in range(4)]
        assert l2[0].y == l2[1].y and l2[2].y == l2[3].y
        assert l2[2].y > l2[0].y
        assert l2[1].x > l2[0].x and l2[3].x > l2[2].x

    def test_noc_spine_spans_full_height_at_right_edge(self):
        fp = build_mesh_floorplan(3, 2)
        xbar = fp.block("xbar")
        _, y_min, x_max, y_max = fp.bounding_box
        assert xbar.x2 == pytest.approx(x_max)
        assert xbar.y == pytest.approx(y_min)
        assert xbar.y2 == pytest.approx(y_max)

    def test_distinct_class_mixes_never_alias(self):
        homo = build_mesh_floorplan(2, 2)
        hetero = build_mesh_floorplan(
            2, 2, core_classes=[EFFICIENCY_CORE] * 4
        )
        assert homo.bounding_box != hetero.bounding_box

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            build_mesh_floorplan(0, 4)
        with pytest.raises(ValueError):
            build_mesh_floorplan(2, 2, core_classes=[PERFORMANCE_CORE] * 3)
        with pytest.raises(ValueError):
            build_mesh_floorplan(1, 1, core_size_mm=0.0)


class TestCmpMemoisationRegression:
    """Scenarios sharing ``n_cores`` but not core layouts get their own
    geometry."""

    def test_core_layouts_participate_in_memo_key(self):
        default = build_cmp_floorplan(4)
        little = build_cmp_floorplan(
            4, core_layouts=[EFFICIENCY_CORE_LAYOUT] * 4
        )
        # Same names, different geometry: aliasing would silently hand
        # one scenario the other's thermal RC network.
        assert default.names == little.names
        assert (
            default.block("core0.icache").height
            != little.block("core0.icache").height
        )


# -- Hypothesis properties (skipped when hypothesis is absent) ------------

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

grid_strategy = st.tuples(
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=4),
).flatmap(
    lambda rc: st.tuples(
        st.just(rc[0]),
        st.just(rc[1]),
        st.lists(
            st.sampled_from(CLASS_POOL),
            min_size=rc[0] * rc[1],
            max_size=rc[0] * rc[1],
        ),
    )
)


@settings(max_examples=30, deadline=None)
@given(grid=grid_strategy)
def test_property_mesh_partition_and_adjacency(grid):
    """Any rows x cols x class mix yields a valid mesh: the Floorplan
    constructor enforces pairwise non-overlap, the name partition holds,
    and every adjacency is symmetric with positive shared length."""
    rows, cols, classes = grid
    fp = build_mesh_floorplan(rows, cols, core_classes=classes)
    assert_mesh_contract(fp, rows, cols)
    for i, j, length, d_i, d_j in fp.adjacent_pairs():
        assert length > ADJACENCY_TOLERANCE_MM
        a, b = fp.blocks[i], fp.blocks[j]
        assert not a.overlaps(b)
        back_length, back_d_j, back_d_i = b.shared_edge(a)
        assert back_length == pytest.approx(length)
        assert (back_d_i, back_d_j) == (d_i, d_j)


@settings(max_examples=30, deadline=None)
@given(grid=grid_strategy)
def test_property_every_tile_connects_to_the_fabric(grid):
    """No block is thermally isolated: core units tile their core, each
    core sits on its L2 bank, L2 banks chain across a row, and every row
    reaches the NoC spine — so the adjacency graph is connected."""
    rows, cols, classes = grid
    fp = build_mesh_floorplan(rows, cols, core_classes=classes)
    adjacency = {i: set() for i in range(len(fp))}
    for i, j, _, _, _ in fp.adjacent_pairs():
        adjacency[i].add(j)
        adjacency[j].add(i)
    seen = set()
    stack = [0]
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        stack.extend(adjacency[node] - seen)
    assert seen == set(range(len(fp)))
