"""Machine configuration — a direct encoding of the paper's Table 3.

Every number in :func:`default_machine_config` appears in Table 3 of the
paper ("Design parameters for modeled CPU and its four cores"); the class
also derives the quantities the rest of the system needs (trace sample
period, nominal per-cycle time).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

from repro.util.validation import check_positive


@dataclass(frozen=True)
class CacheConfig:
    """One cache level: size/associativity/block size/latency."""

    size_bytes: int
    associativity: int
    block_bytes: int
    latency_cycles: int

    def __post_init__(self):
        check_positive(self.size_bytes, "size_bytes")
        check_positive(self.associativity, "associativity")
        check_positive(self.block_bytes, "block_bytes")
        check_positive(self.latency_cycles, "latency_cycles")
        sets = self.size_bytes / (self.associativity * self.block_bytes)
        if sets != int(sets) or int(sets) < 1:
            raise ValueError(
                f"cache geometry does not divide evenly: {self.size_bytes}B / "
                f"({self.associativity} ways * {self.block_bytes}B blocks)"
            )

    @property
    def n_sets(self) -> int:
        """Number of sets."""
        return self.size_bytes // (self.associativity * self.block_bytes)


@dataclass(frozen=True)
class BranchPredictorConfig:
    """Hybrid predictor: bimodal + gshare + selector (Table 3)."""

    bimodal_entries: int = 16 * 1024
    gshare_entries: int = 16 * 1024
    selector_entries: int = 16 * 1024
    history_bits: int = 14

    def __post_init__(self):
        for name in ("bimodal_entries", "gshare_entries", "selector_entries"):
            check_positive(getattr(self, name), name)


@dataclass(frozen=True)
class CoreConfig:
    """Per-core resources (Table 3 'Core Configuration')."""

    fetch_width: int = 4
    dispatch_width: int = 4
    retire_width: int = 4
    mem_int_queue: Tuple[int, int] = (2, 20)  # 2 queues x 20 entries
    fp_queue: Tuple[int, int] = (2, 5)
    n_fxu: int = 2
    n_fpu: int = 2
    n_lsu: int = 2
    n_bxu: int = 1
    gpr: int = 120
    fpr: int = 108
    spr: int = 90
    reorder_buffer: int = 128
    branch_predictor: BranchPredictorConfig = field(
        default_factory=BranchPredictorConfig
    )

    @property
    def issue_width(self) -> int:
        """Maximum instructions issued per cycle across all units."""
        return self.n_fxu + self.n_fpu + self.n_lsu + self.n_bxu


@dataclass(frozen=True)
class DVFSConfig:
    """DVFS actuator limits (Table 3 'DVFS Parameters')."""

    transition_penalty_s: float = 10e-6
    min_frequency_scale: float = 0.2
    min_transition: float = 0.02  # 2% of range

    def __post_init__(self):
        check_positive(self.transition_penalty_s, "transition_penalty_s")
        if not 0 < self.min_frequency_scale < 1:
            raise ValueError(
                f"min_frequency_scale must be in (0,1): {self.min_frequency_scale}"
            )
        if not 0 < self.min_transition < 1:
            raise ValueError(f"min_transition must be in (0,1): {self.min_transition}")


@dataclass(frozen=True)
class MachineConfig:
    """The full modeled CPU (Table 3)."""

    process_nm: int = 90
    vdd: float = 1.0
    clock_hz: float = 3.6e9
    n_cores: int = 4
    core: CoreConfig = field(default_factory=CoreConfig)
    l1d: CacheConfig = field(
        default_factory=lambda: CacheConfig(32 * 1024, 2, 128, 1)
    )
    l1i: CacheConfig = field(
        default_factory=lambda: CacheConfig(64 * 1024, 2, 128, 1)
    )
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig(4 * 1024 * 1024, 4, 128, 9)
    )
    memory_latency_cycles: int = 100
    dvfs: DVFSConfig = field(default_factory=DVFSConfig)
    migration_penalty_s: float = 100e-6
    trace_sample_cycles: int = 100_000

    def __post_init__(self):
        check_positive(self.clock_hz, "clock_hz")
        check_positive(self.n_cores, "n_cores")
        check_positive(self.memory_latency_cycles, "memory_latency_cycles")
        check_positive(self.migration_penalty_s, "migration_penalty_s")
        check_positive(self.trace_sample_cycles, "trace_sample_cycles")

    @property
    def cycle_time_s(self) -> float:
        """Nominal (unscaled) cycle time."""
        return 1.0 / self.clock_hz

    @property
    def sample_period_s(self) -> float:
        """Trace sample period: 100,000 cycles = 27.78 us at 3.6 GHz.

        The paper rounds this to "28 us"; the exact value reproduces the
        published discrete PI coefficients.
        """
        return self.trace_sample_cycles / self.clock_hz

    @property
    def min_frequency_hz(self) -> float:
        """Lowest DVFS operating point (720 MHz in Table 3)."""
        return self.clock_hz * self.dvfs.min_frequency_scale


#: The paper's machine, one frozen instance that every default (engine
#: config, trace) shares, so memos keyed by its id hit.
DEFAULT_MACHINE = MachineConfig()


def default_machine_config() -> MachineConfig:
    """The paper's 4-core, 3.6 GHz, 90 nm configuration."""
    return DEFAULT_MACHINE


def mobile_machine_config() -> MachineConfig:
    """The Table 1 measurement platform stand-in: 1.5 GHz, 1 MB L2.

    Mirrors the Pentium M Banias used for the real-hardware measurements:
    lower clock, smaller L2 (the paper notes mcf stays cool precisely
    because Banias provides only 1 MB of L2).
    """
    return MachineConfig(
        process_nm=130,
        vdd=1.1,
        clock_hz=1.5e9,
        n_cores=1,
        l2=CacheConfig(1024 * 1024, 4, 128, 9),
    )
