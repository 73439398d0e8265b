"""Result containers for simulation runs."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.faults.models import FaultSummary
from repro.obs.events import EventLogSummary
from repro.obs.telemetry import TelemetrySummary


@dataclass(frozen=True)
class RunResult:
    """Outcome of one (workload, policy) simulation."""

    policy: str
    workload: str
    benchmarks: Tuple[str, ...]
    duration_s: float
    bips: float
    duty_cycle: float
    instructions: float
    per_core_instructions: Tuple[float, ...]
    max_temp_c: float
    emergency_s: float
    migrations: int
    dvfs_transitions: int
    stopgo_trips: int
    #: Hardware overtemperature trips (0 unless the PROCHOT-style
    #: failsafe is enabled in the configuration).
    prochot_events: int = 0
    #: Always ``None``. Per-step series come from a
    #: :class:`~repro.obs.telemetry.TelemetrySampler`; this retired slot
    #: stays only because the benchmark's committed result digests
    #: (``bench/expected``) hash every field name of a result.
    series: None = None
    #: Per-type event counts when the run was executed with a
    #: :class:`~repro.obs.events.RunEventLog` attached; ``None`` (and
    #: absent from every comparison of interest) when observability is
    #: off, keeping uninstrumented results identical to the seed.
    events: Optional[EventLogSummary] = None
    #: Fault-injection and guard accounting when the run carried a
    #: non-empty :class:`~repro.faults.models.FaultPlan` or a
    #: :class:`~repro.faults.guards.GuardConfig`; ``None`` otherwise, so
    #: un-faulted results stay identical to the pre-fault engine's.
    faults: Optional[FaultSummary] = None
    #: Telemetry-capture roll-up when the run carried a
    #: :class:`~repro.obs.telemetry.TelemetrySampler`; ``None`` otherwise.
    #: Like ``events``, this is an attachment, never a metric: sampled
    #: runs report bit-identical numbers to uninstrumented ones.
    telemetry: Optional[TelemetrySummary] = None

    @property
    def had_emergency(self) -> bool:
        """Whether the run ever exceeded the emergency envelope."""
        return self.emergency_s > 0.0

    def relative_to(self, baseline: "RunResult") -> float:
        """Throughput relative to a baseline run of the same workload."""
        if baseline.workload != self.workload:
            raise ValueError(
                f"cannot compare across workloads: {self.workload} vs "
                f"{baseline.workload}"
            )
        if baseline.bips == 0:
            raise ZeroDivisionError("baseline achieved zero throughput")
        return self.bips / baseline.bips

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.workload:12s} {self.policy:40s} "
            f"BIPS={self.bips:6.2f} duty={self.duty_cycle:6.1%} "
            f"maxT={self.max_temp_c:5.1f}C migrations={self.migrations}"
        )
