"""Trace generation and memoisation.

``generate_trace`` runs the interval engine for a benchmark profile and
converts the resulting activity into a :class:`PowerTrace` via the power
model. Traces are deterministic in ``(profile, machine, duration, seed,
power scale)``, and the module memo keys on exactly those, the profile
and machine by value: the same 22 traces back every policy and workload
combination (the paper likewise generates each SimPoint trace once and
reuses it across all experiments). It keeps the newest
:data:`TRACE_CACHE_SIZE` traces, and an identity probe of as many
entries finds them again without hashing the profile and machine.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.uarch.benchmarks import BenchmarkProfile, get_benchmark
from repro.uarch.config import DEFAULT_MACHINE, MachineConfig
from repro.uarch.interval_model import simulate_intervals
from repro.uarch.power import PowerModel
from repro.uarch.trace import PowerTrace
from repro.util.memo import remember
from repro.util.rng import DEFAULT_ROOT_SEED, RngStream

#: Default full-speed trace length (seconds). The paper's traces are
#: "hundreds of milliseconds" and loop to fill the 0.5 s experiment.
DEFAULT_TRACE_DURATION_S = 0.25

#: Most traces the memo keeps; past it the oldest goes. The paper's grid
#: uses 22 traces; 64 default-length traces hold about 70 MB.
TRACE_CACHE_SIZE = 64

#: ``(profile, machine, duration_s, seed, power_scale) -> PowerTrace``,
#: oldest first.
_TRACE_CACHE: Dict[tuple, PowerTrace] = {}
#: The same keyed by the profile's and machine's ids ``-> (profile,
#: machine, trace)``: an entry pins its objects, so their ids cannot be
#: reused, and may outlive its trace's memo entry (so at most twice
#: :data:`TRACE_CACHE_SIZE` traces stay alive).
_TRACE_IDS: Dict[tuple, tuple] = {}


def generate_trace(
    benchmark,
    config: Optional[MachineConfig] = None,
    duration_s: float = DEFAULT_TRACE_DURATION_S,
    seed: int = DEFAULT_ROOT_SEED,
    power_scale: float = 1.0,
    use_cache: bool = True,
) -> PowerTrace:
    """Generate (or fetch from cache) the power trace of one benchmark.

    Parameters
    ----------
    benchmark:
        A :class:`BenchmarkProfile` or a benchmark name.
    config:
        Machine configuration; defaults to the paper's Table 3 machine.
    duration_s:
        Full-speed length of the trace.
    seed:
        Root seed for the benchmark's phase/jitter streams.
    power_scale:
        Uniform power-budget scale (see :class:`PowerModel`).
    use_cache:
        Reuse a previously generated identical trace if available.
    """
    profile = (
        benchmark if isinstance(benchmark, BenchmarkProfile) else get_benchmark(benchmark)
    )
    if config is None:
        config = DEFAULT_MACHINE
    if not duration_s > 0:
        raise ValueError(f"duration_s must be positive: {duration_s}")

    if not use_cache:
        return _build_trace(profile, config, duration_s, seed, power_scale)
    ident = (id(profile), id(config), duration_s, seed, power_scale)
    hit = _TRACE_IDS.get(ident)
    if hit is not None:
        return hit[2]
    key = (profile, config, duration_s, seed, power_scale)
    trace = _TRACE_CACHE.get(key)
    if trace is None:
        trace = remember(_TRACE_CACHE, key, _build_trace(*key), TRACE_CACHE_SIZE)
    remember(_TRACE_IDS, ident, (profile, config, trace), TRACE_CACHE_SIZE)
    return trace


def _build_trace(
    profile: BenchmarkProfile, config: MachineConfig, duration_s: float,
    seed: int, power_scale: float,
) -> PowerTrace:
    n_intervals = max(1, int(round(duration_s / config.sample_period_s)))
    rng = RngStream(seed, "trace", profile.name)
    stats = simulate_intervals(profile, config, n_intervals, rng)
    model = PowerModel(config, scale=power_scale)

    return PowerTrace(
        benchmark=profile.name,
        sample_period_s=config.sample_period_s,
        sample_cycles=config.trace_sample_cycles,
        unit_power=model.core_unit_power(stats),
        l2_activity=stats.l2_activity.copy(),
        instructions=stats.instructions.copy(),
        int_rf_accesses=stats.int_rf_accesses.copy(),
        fp_rf_accesses=stats.fp_rf_accesses.copy(),
    )


def clear_trace_cache() -> int:
    """Drop all cached traces; returns how many were discarded."""
    n = len(_TRACE_CACHE)
    _TRACE_CACHE.clear()
    _TRACE_IDS.clear()
    return n
