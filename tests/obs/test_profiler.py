"""Unit tests for the named-section step profiler."""

import time

import pytest

from repro.obs.profiler import (
    ENGINE_SECTIONS,
    NULL_PROFILER,
    StepProfiler,
    render_engine_sections,
    sorted_sections,
)


class TestStepProfiler:
    def test_sections_accumulate(self):
        prof = StepProfiler()
        for _ in range(3):
            with prof.section("a"):
                time.sleep(0.001)
        with prof.section("b"):
            pass
        totals = prof.totals()
        assert set(totals) == {"a", "b"}
        assert totals["a"] >= 0.003
        assert totals["b"] >= 0.0

    def test_empty_profiler(self):
        prof = StepProfiler()
        assert prof.totals() == {}

    def test_exception_still_charged(self):
        prof = StepProfiler()
        with pytest.raises(RuntimeError):
            with prof.section("boom"):
                raise RuntimeError("bang")
        assert set(prof.totals()) == {"boom"}


class TestNullProfiler:
    def test_sections_are_noops(self):
        with NULL_PROFILER.section("anything"):
            pass
        assert NULL_PROFILER.totals() == {}

    def test_allocation_free(self):
        """Every section() call returns the one shared no-op object."""
        a = NULL_PROFILER.section("sensors")
        b = NULL_PROFILER.section("power")
        assert a is b
        assert a is NULL_PROFILER.section("anything-else")


class TestRendering:
    def test_sorted_hottest_first(self):
        assert sorted_sections({"cold": 0.1, "hot": 0.9}) == [
            ("hot", 0.9), ("cold", 0.1),
        ]

    def test_render_contains_sections_and_shares(self):
        text = render_engine_sections(
            {"power": 0.75, "sensors": 0.25}, title="t:"
        )
        lines = text.splitlines()
        assert lines[0] == "t:"
        assert lines[1].lstrip().startswith("sensors")
        assert "25.0%" in lines[1]
        assert "total" in lines[-1]

    def test_render_empty(self):
        """No measured time: every canonical row at zero, no divide by zero."""
        lines = render_engine_sections({}).splitlines()
        assert len(lines) == len(ENGINE_SECTIONS) + 1
        assert all("0.00 ms" in line for line in lines)

    def test_engine_render_canonical_order_with_zero_rows(self):
        """Canonical order, every section present even when unmeasured."""
        text = render_engine_sections({"power": 0.9, "sensors": 0.1})
        lines = [line.strip() for line in text.splitlines()]
        names = [line.split()[0] for line in lines[:-1]]
        assert names == list(ENGINE_SECTIONS)
        os_tick_line = next(line for line in lines if line.startswith("os-tick"))
        assert "0.00 ms" in os_tick_line
        assert "90.0%" in next(line for line in lines if line.startswith("power"))

    def test_engine_render_appends_extras_hottest_first(self):
        text = render_engine_sections({"power": 0.5, "zeta": 0.2, "alpha": 0.3})
        lines = [line.strip().split()[0] for line in text.splitlines()]
        assert lines[len(ENGINE_SECTIONS):-1] == ["alpha", "zeta"]
