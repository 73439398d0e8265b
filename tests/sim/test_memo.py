"""The one memo rule, and the trace memo that follows it.

Every process-wide memo stores through :func:`repro.util.memo.remember`:
an exact key, a module-constant bound, oldest out first, first stored
value kept. For the trace memo that means a run's result does not depend
on what ran before it in the process, and a served sweep over a trace
ingredient cannot grow the process past the memo's bound.
"""

import gc
import sys
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, replace

import numpy as np
import pytest

from repro.serve.protocol import JobRequest
from repro.serve.server import ServeExecutor
from repro.sim.engine import SimulationConfig, run_workload
from repro.sim.workloads import get_workload
from repro.uarch import tracegen
from repro.uarch.benchmarks import get_benchmark
from repro.uarch.config import CoreConfig, MachineConfig, default_machine_config
from repro.uarch.tracegen import TRACE_CACHE_SIZE, generate_trace
from repro.util.memo import remember

W7 = get_workload("workload7")

#: Table 3's machine with a core that issues one instruction a cycle.
NARROW = replace(
    MachineConfig(), core=CoreConfig(n_fxu=1, n_fpu=0, n_lsu=0, n_bxu=0)
)

TRACE_FIELDS = (
    "unit_power", "l2_activity", "instructions", "int_rf_accesses",
    "fp_rf_accesses",
)


@pytest.fixture
def empty_memo(monkeypatch):
    """A cold trace memo for the test, the process's memo restored after."""
    monkeypatch.setattr(tracegen, "_TRACE_CACHE", {})
    monkeypatch.setattr(tracegen, "_TRACE_IDS", {})
    return tracegen


def assert_same_trace(a, b):
    assert (a.benchmark, a.sample_period_s, a.sample_cycles) == (
        b.benchmark, b.sample_period_s, b.sample_cycles
    )
    for name in TRACE_FIELDS:
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


class TestRemember:
    def test_first_value_wins_and_the_oldest_goes_first(self):
        table = {}
        assert remember(table, "a", 1, 3) == 1
        assert remember(table, "a", 2, 3) == 1
        for key in "bcd":
            remember(table, key, key, 3)
        assert list(table.items()) == [("b", "b"), ("c", "c"), ("d", "d")]

    def test_threads_that_build_at_once_share_the_first_stored(self):
        table = {}
        arrived = threading.Barrier(4, timeout=30)

        def build_then_store(k):
            value = object()
            arrived.wait()
            return remember(table, "key", value, 8)

        with ThreadPoolExecutor(4) as pool:
            stored = list(pool.map(build_then_store, range(4)))
        assert all(s is stored[0] for s in stored)
        assert table == {"key": stored[0]}


class TestOrderIndependence:
    def test_narrow_machine_result_does_not_depend_on_an_earlier_run(
        self, empty_memo
    ):
        """The memo used to key on the machine's sample size and clock
        only, so a narrow-issue run after a default-machine run replayed
        the default machine's traces."""
        narrow = SimulationConfig(duration_s=0.002, machine=NARROW)
        alone = asdict(run_workload(W7, None, narrow))
        empty_memo.clear_trace_cache()
        default = run_workload(W7, None, SimulationConfig(duration_s=0.002))
        after = asdict(run_workload(W7, None, narrow))
        assert after == alone
        assert default.instructions != alone["instructions"]

    def test_a_renamed_profile_gets_its_own_trace(self, empty_memo):
        """A profile that keeps a registry name but changes a parameter
        is a different benchmark to the trace memo."""
        gzip = get_benchmark("gzip")
        slow = replace(gzip, base_ipc=gzip.base_ipc / 2)
        registered = generate_trace(gzip, duration_s=0.002)
        variant = generate_trace(slow, duration_s=0.002)
        assert variant is not registered
        assert_same_trace(
            variant, generate_trace(slow, duration_s=0.002, use_cache=False)
        )
        assert not np.array_equal(variant.instructions, registered.instructions)


class TestDefaultMachine:
    def test_default_machine_calls_leave_one_identity_entry(self, empty_memo):
        """Every default shares one machine object, so repeated calls
        without a machine hit the identity probe instead of pinning a
        fresh machine each."""
        first = generate_trace("gzip", duration_s=0.001)
        for _ in range(99):
            assert generate_trace("gzip", duration_s=0.001) is first
        assert len(empty_memo._TRACE_IDS) == 1
        assert len(empty_memo._TRACE_CACHE) == 1

    def test_engine_default_is_the_trace_default(self):
        assert SimulationConfig().machine is default_machine_config()


class TestBound:
    def test_served_seed_sweep_leaves_the_memo_at_its_bound(self, empty_memo):
        """100 seeds of one 4-benchmark workload are 400 traces; the memo
        keeps the newest TRACE_CACHE_SIZE, and a point whose traces were
        evicted runs bit-identically when they are built again."""
        body = {
            "workload": "workload7",
            "policy": "distributed-dvfs-none",
            "config": {"duration_s": 0.002, "trace_duration_s": 0.002},
            "sweep": {"field": "seed", "values": list(range(100))},
        }
        executor = ServeExecutor(cache=None)
        swept, _, simulated, _ = executor.execute(JobRequest.parse(body))
        assert simulated == 100
        assert len(empty_memo._TRACE_CACHE) == TRACE_CACHE_SIZE
        assert len(empty_memo._TRACE_IDS) == TRACE_CACHE_SIZE
        kept_seeds = {key[3] for key in empty_memo._TRACE_CACHE}
        assert kept_seeds == set(range(100 - TRACE_CACHE_SIZE // 4, 100))

        first = dict(body, sweep={"field": "seed", "values": [0]})
        again, _, _, _ = executor.execute(JobRequest.parse(first))
        assert again["points"] == swept["points"][:1]
        assert len(empty_memo._TRACE_CACHE) == TRACE_CACHE_SIZE
        profile = get_benchmark(W7.benchmarks[0])
        config = SimulationConfig(duration_s=0.002, trace_duration_s=0.002)
        assert_same_trace(
            generate_trace(profile, config.machine, 0.002, seed=0),
            generate_trace(
                profile, config.machine, 0.002, seed=0, use_cache=False
            ),
        )

    def test_identity_entries_do_not_keep_evicted_traces_alive(self, empty_memo):
        """Twice the bound of distinct traces leave at most the bound
        alive. After each build, the oldest memoised trace is asked for
        through an equal machine copy, which adds an identity entry that
        outlives the trace's memo entry; a strong entry kept 95 alive."""
        machine = default_machine_config()
        copy = replace(machine)
        refs = []
        for seed in range(2 * TRACE_CACHE_SIZE):
            refs.append(
                weakref.ref(generate_trace("gzip", machine, 0.001, seed=seed))
            )
            if seed >= TRACE_CACHE_SIZE - 1:
                generate_trace(
                    "gzip", copy, 0.001, seed=seed - TRACE_CACHE_SIZE + 1
                )
        gc.collect()
        alive = [seed for seed, ref in enumerate(refs) if ref() is not None]
        assert alive == list(range(TRACE_CACHE_SIZE, 2 * TRACE_CACHE_SIZE))
        assert len(empty_memo._TRACE_IDS) == TRACE_CACHE_SIZE

        # A dead identity entry falls back to the value-keyed lookup and
        # is replaced by a live one.
        rebuilt = generate_trace("gzip", copy, 0.001, seed=TRACE_CACHE_SIZE - 1)
        assert generate_trace(
            "gzip", copy, 0.001, seed=TRACE_CACHE_SIZE - 1
        ) is rebuilt
        assert_same_trace(
            rebuilt,
            generate_trace(
                "gzip", machine, 0.001, seed=TRACE_CACHE_SIZE - 1,
                use_cache=False,
            ),
        )

    def test_threads_churning_a_small_memo_keep_it_bounded_and_exact(
        self, empty_memo, monkeypatch
    ):
        """Eight threads ask for more traces than a 4-entry memo holds,
        with thread switches forced every few bytecodes: every answer
        equals a fresh build, and the memo never passes its bound."""
        monkeypatch.setattr(tracegen, "TRACE_CACHE_SIZE", 4)
        names = ["gzip", "mcf", "art"]
        fresh = {
            (name, seed): generate_trace(
                name, duration_s=0.001, seed=seed, use_cache=False
            )
            for name in names
            for seed in range(3)
        }
        sizes = []

        def churn(offset):
            for i in range(24):
                name, seed = names[(offset + i) % 3], (offset + i // 3) % 3
                got = generate_trace(name, duration_s=0.001, seed=seed)
                assert_same_trace(got, fresh[name, seed])
                sizes.append(len(empty_memo._TRACE_CACHE))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(8) as pool:
                futures = [pool.submit(churn, k) for k in range(8)]
                for f in futures:
                    f.result(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert len(sizes) == 8 * 24
        assert max(sizes) <= 4


# -- Hypothesis property (skipped when hypothesis is absent) ----------------

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

#: Machines whose cores issue 1, 4 and 7 (Table 3) instructions a cycle.
MACHINES = [
    replace(MachineConfig(), core=core)
    for core in (
        CoreConfig(n_fxu=1, n_fpu=0, n_lsu=0, n_bxu=0),
        CoreConfig(n_fxu=2, n_fpu=1, n_lsu=1, n_bxu=0),
        CoreConfig(),
    )
]

#: A small space, so a drawn call sequence often repeats a benchmark,
#: seed and scale on another core, which a memo keyed on less than the
#: whole machine would answer wrongly. A call passes either the shared
#: machine object (found by identity) or an equal copy (found by value).
trace_args = st.tuples(
    st.sampled_from(["gzip", "art"]),
    st.sampled_from(MACHINES),
    st.booleans(),
    st.sampled_from([1, 2]),
    st.sampled_from([0.5, 1.0]),
)


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(calls=st.lists(trace_args, min_size=2, max_size=6))
def test_property_memoised_trace_equals_a_fresh_build(empty_memo, calls):
    """Whatever was asked for before, in whatever order, the memo hands
    back the trace a fresh build of the same arguments gives."""
    empty_memo.clear_trace_cache()
    for name, machine, copy, seed, scale in calls:
        if copy:
            machine = replace(machine)
        args = (get_benchmark(name), machine, 0.002, seed, scale)
        assert_same_trace(
            generate_trace(*args), generate_trace(*args, use_cache=False)
        )
