"""Lightweight named-section wall-time profiler for the engine step loop.

The engine's step has five well-defined phases — sensor reads, throttle
policy evaluation, power assembly, the thermal solve, and the 10 ms OS
tick — and performance work needs to know which of them dominates for
which policy class (stop-go runs are thermal-solve bound; sensor-based
migration adds OS-tick cost).  :class:`StepProfiler` accumulates
wall-clock time per named section with one ``perf_counter`` pair per
entry and no allocation on the hot path.

Profiling reads the clock but never feeds anything back into the
simulation, so profiled runs produce byte-identical results to
unprofiled ones; when no profiler is supplied the engine uses
:data:`NULL_PROFILER`, whose sections are reusable no-ops. Traces carry
a profiler's :meth:`~StepProfiler.totals` as ``section`` spans
(:func:`repro.obs.tracing.section_spans`).
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

#: The engine's canonical section names, in step order.
ENGINE_SECTIONS = ("sensors", "throttle", "power", "thermal-step", "os-tick")


class _Section:
    """Context manager timing one named section (reused across entries)."""

    __slots__ = ("_profiler", "_name", "_t0")

    def __init__(self, profiler: "StepProfiler", name: str):
        """Bind the section to its profiler and charge name."""
        self._profiler = profiler
        self._name = name
        self._t0 = 0.0

    def __enter__(self) -> "_Section":
        """Start the clock."""
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        """Charge the elapsed time to the section's name."""
        self._profiler._record(self._name, time.perf_counter() - self._t0)


class StepProfiler:
    """Accumulates wall time per named section."""

    def __init__(self) -> None:
        """Start with no sections and zero accumulated time."""
        self._totals: Dict[str, float] = {}
        self._sections: Dict[str, _Section] = {}

    def _record(self, name: str, elapsed: float) -> None:
        self._totals[name] = self._totals.get(name, 0.0) + elapsed

    def section(self, name: str) -> _Section:
        """A context manager charging its body's wall time to ``name``."""
        section = self._sections.get(name)
        if section is None:
            section = self._sections[name] = _Section(self, name)
        return section

    def totals(self) -> Dict[str, float]:
        """Accumulated seconds per section."""
        return dict(self._totals)


class _NullSection:
    """No-op section used when profiling is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSection":
        """No-op."""
        return self

    def __exit__(self, *exc) -> None:
        """No-op."""
        pass


class NullProfiler:
    """Drop-in profiler that measures nothing (observability off)."""

    _SECTION = _NullSection()

    def section(self, name: str) -> _NullSection:
        """The shared no-op section, whatever the ``name``."""
        return self._SECTION

    def totals(self) -> Dict[str, float]:
        """Always empty — nothing is measured."""
        return {}


#: Shared no-op instance the engine falls back to.
NULL_PROFILER = NullProfiler()


def sorted_sections(totals: Dict[str, float]) -> List[Tuple[str, float]]:
    """Sections sorted hottest-first."""
    return sorted(totals.items(), key=lambda kv: kv[1], reverse=True)


def render_engine_sections(
    totals: Dict[str, float], title: Optional[str] = None
) -> str:
    """Render engine step sections in canonical :data:`ENGINE_SECTIONS` order.

    Every canonical section appears — with a 0.00 ms row when it never
    ran (an unthrottled run has no throttle entries, a short horizon may
    never reach an OS tick) — so tables from different policies line up
    row-for-row. Percent-of-total accompanies every section; sections
    outside the canonical set (if any) follow in hottest-first order.
    """
    lines = []
    if title:
        lines.append(title)
    extras = sorted_sections(
        {n: v for n, v in totals.items() if n not in ENGINE_SECTIONS}
    )
    ordered = list(ENGINE_SECTIONS) + [name for name, _ in extras]
    grand = sum(totals.values())
    width = max(len(name) for name in ordered)
    for name in ordered:
        elapsed = totals.get(name, 0.0)
        share = elapsed / grand if grand > 0 else 0.0
        lines.append(f"  {name:{width}s}  {elapsed * 1000:9.2f} ms  {share:6.1%}")
    lines.append(f"  {'total':{width}s}  {grand * 1000:9.2f} ms")
    return "\n".join(lines)
