"""Tests for the asymmetric-cores extension."""

import pytest

from repro.experiments import extensions
from repro.experiments.common import default_config
from repro.sim.engine import SimulationConfig
from repro.thermal.layouts import build_cmp_floorplan

CFG = default_config(duration_s=0.06)


class TestAsymmetricFloorplan:
    def test_sizes_respected(self):
        fp = build_cmp_floorplan(4, core_sizes_mm=(5.0, 5.0, 2.65, 2.65))
        big = fp.block("core0.intreg").area_mm2
        small = fp.block("core2.intreg").area_mm2
        assert big == pytest.approx(small * (5.0 / 2.65) ** 2)

    def test_l2_banks_track_core_columns(self):
        fp = build_cmp_floorplan(4, core_sizes_mm=(5.0, 5.0, 2.65, 2.65))
        assert fp.block("l2_0").width == pytest.approx(5.0)
        assert fp.block("l2_3").width == pytest.approx(2.65)

    def test_validation(self):
        with pytest.raises(ValueError):
            build_cmp_floorplan(4, core_sizes_mm=(5.0, 5.0))
        with pytest.raises(ValueError):
            build_cmp_floorplan(2, core_sizes_mm=(4.0, -1.0))


class TestEngineSupport:
    def test_config_carries_core_sizes(self):
        cfg = SimulationConfig(duration_s=0.01, core_sizes_mm=(5.0, 5.0, 2.65, 2.65))
        from repro.sim.engine import ThermalTimingSimulator

        sim = ThermalTimingSimulator(("gzip", "sixtrack", "mcf", "swim"), None, cfg)
        assert sim.floorplan.block("core0.fpu").area_mm2 > sim.floorplan.block(
            "core2.fpu"
        ).area_mm2


class TestStudies:
    def test_placement_rows(self):
        rows = extensions.placement_sensitivity(CFG)
        assert len(rows) == 4
        by_label = {r.label: r for r in rows}
        # A hot thread on a small core runs hotter/slower than on a big one.
        assert (
            by_label["asymmetric, hot on BIG cores"].bips
            >= by_label["asymmetric, hot on SMALL cores"].bips
        )

    def test_migration_recovery_rows(self):
        rows = extensions.asymmetric_migration_study(CFG)
        assert [r.label for r in rows] == [
            "no migration",
            "counter-based migration",
            "sensor-based migration",
        ]
        assert rows[2].migrations >= 0

    def test_render(self):
        rows = extensions.asymmetric_migration_study(CFG)
        text = extensions.render({"demo": rows})
        assert "Extension: demo" in text
        assert "sensor-based migration" in text


class TestSmtStudy:
    def test_three_configurations(self):
        rows = extensions.smt_study(CFG)
        labels = [r.label for r in rows]
        assert labels[0].startswith("CMP-4")
        assert any("complementary" in l for l in labels)
        assert any("aligned" in l for l in labels)

    def test_all_configurations_safe_and_productive(self):
        for r in extensions.smt_study(CFG):
            assert r.bips > 0
            assert r.max_temp_c < 85.0

    def test_cmp_beats_smt_at_equal_area(self):
        """The literature's thermal finding (Donald & Martonosi [9],
        Li et al.): under a thermal limit and equal area, one thread per
        smaller core outperforms merged pairs on bigger SMT cores."""
        rows = {r.label: r for r in extensions.smt_study(CFG)}
        cmp4 = rows["CMP-4: one thread per core"].bips
        smt = max(
            r.bips for label, r in rows.items() if label.startswith("SMT-2")
        )
        assert cmp4 > smt
