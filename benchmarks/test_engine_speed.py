"""Performance benchmark: engine throughput in simulated-steps/second.

Unlike the table/figure benchmarks (which measure one full experiment,
rounds=1), this one uses pytest-benchmark conventionally — repeated
rounds over a fixed small run — so regressions in the hot loop (power
assembly, thermal step, policy updates) show up as timing changes across
revisions.

The case list is shared with ``repro bench`` / ``BENCH_engine.json``
(see :mod:`repro.sim.bench`): the four policy configs, a faulted DVFS
run (fusion blocked, fault hot paths exercised), and a full-length
Table-1-style characterization run.
"""

import pytest

from repro.sim.bench import ENGINE_BENCH_CASES, build_simulator, case_steps

# Sweep-backend cases (fleet vs pool batches) time a whole runner batch
# and one-member fleet cases a FleetEngine, not one simulator — `repro
# bench` measures those; here we keep the single-engine protocol.
SCALAR_CASES = [
    c for c in ENGINE_BENCH_CASES if c.backend is None and c.engine == "scalar"
]
SHORT_CASES = [c for c in SCALAR_CASES if c.short]
FULL_CASES = [c for c in SCALAR_CASES if not c.short]


def _measure(benchmark, case, rounds):
    # Fresh simulator per round, built outside the timed body — the same
    # run()-only protocol as `repro bench` (docs/PERFORMANCE.md).
    def setup():
        return (build_simulator(case),), {}

    result = benchmark.pedantic(
        lambda sim: sim.run(),
        setup=setup, rounds=rounds, iterations=1, warmup_rounds=1,
    )
    # Sanity on the measured run itself.
    assert result.bips > 0
    n_steps = case_steps(case)
    if benchmark.stats is not None:  # None under --benchmark-disable
        benchmark.extra_info["simulated_steps"] = n_steps
        benchmark.extra_info["steps_per_second"] = (
            n_steps / benchmark.stats.stats.mean
        )


@pytest.mark.parametrize(
    "case", SHORT_CASES, ids=[c.key for c in SHORT_CASES]
)
def test_engine_steps_per_second(benchmark, case):
    _measure(benchmark, case, rounds=3)


@pytest.mark.parametrize(
    "case", FULL_CASES, ids=[c.key for c in FULL_CASES]
)
def test_engine_steps_per_second_full(benchmark, case):
    # Full-length run: one round is ~25x a short round, so don't repeat.
    _measure(benchmark, case, rounds=1)
