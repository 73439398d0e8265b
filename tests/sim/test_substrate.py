"""The shared substrate table: one set of machine parts per chip per process.

:meth:`~repro.sim.engine.EngineSubstrate.shared` hands every simulator,
fleet member and runner plan the substrate of its machine description.
These tests pin what the table promises: threads that miss together
still share one substrate, the table keeps its bound and evicts the
oldest entry first, an identity entry never outlives the objects whose
ids it keys nor returns a substrate the table has evicted, and a run is
bit-identical whether its substrate came from a warm table or a freshly
emptied one.
"""

import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict

import numpy as np
import pytest

from repro.core.taxonomy import spec_by_key
from repro.scenarios import SCENARIOS
from repro.sim import engine
from repro.sim.engine import (
    EngineSubstrate,
    SimulationConfig,
    ThermalTimingSimulator,
    substrate_key,
)
from repro.sim.fleet import FleetEngine
from repro.sim.workloads import get_workload, tile_workload

W7 = get_workload("workload7")
DVFS = spec_by_key("distributed-dvfs-none")
STOPGO = spec_by_key("global-stop-go-none")


def _empty_tables(monkeypatch, table=None):
    monkeypatch.setattr(engine, "_SUBSTRATES", {} if table is None else table)
    monkeypatch.setattr(engine, "_SUBSTRATE_IDS", {})


def _run(spec, config, workload=W7):
    sim = ThermalTimingSimulator(workload.benchmarks, spec, config)
    return sim, sim.run()


def _asym(i):
    """The ``i``-th of a family of distinct 4-core machine descriptions."""
    return SimulationConfig(
        duration_s=0.002, core_sizes_mm=(4.0, 4.0, 4.0, 3.0 + 0.1 * i)
    )


class _YieldingTable(dict):
    """A key table that sleeps after every read, so any thread that
    reads and then writes on that reading lets every other thread in
    between, as an unlucky thread switch would."""

    def get(self, key, default=None):
        value = super().get(key, default)
        time.sleep(0.01)
        return value


def test_threads_share_one_substrate_and_match_serial_runs(monkeypatch):
    """Four threads that all miss the table build at once; the first
    stored substrate wins, and every run equals its serial twin."""
    cfg = SimulationConfig(duration_s=0.002)
    jobs = [(DVFS, cfg), (STOPGO, cfg), (None, cfg)]
    fleet_members = [(W7, DVFS, cfg), (W7, STOPGO, cfg), (W7, None, cfg)]
    serial = [asdict(_run(spec, c)[1]) for spec, c in jobs]
    serial_fleet = [asdict(r) for r in FleetEngine(fleet_members).run()]

    _empty_tables(monkeypatch, _YieldingTable())
    # Every thread finishes building before any may store: all four
    # missed the table, and a second build anywhere would time out.
    arrived = threading.Barrier(4, timeout=30)
    build = EngineSubstrate.__init__

    def build_then_wait(self, config, key):
        build(self, config, key)
        arrived.wait()

    monkeypatch.setattr(EngineSubstrate, "__init__", build_then_wait)

    def scalar(job):
        sim, result = _run(*job)
        return [sim._substrate], [asdict(result)]

    def fleet(_):
        fleet = FleetEngine(fleet_members)
        results = fleet.run()
        return [m.sim._substrate for m in fleet.members], [
            asdict(r) for r in results
        ]

    with ThreadPoolExecutor(4) as pool:
        futures = [pool.submit(scalar, job) for job in jobs]
        futures.append(pool.submit(fleet, None))
        outputs = [f.result(timeout=60) for f in futures]

    substrates = [s for used, _ in outputs for s in used]
    assert len({id(s) for s in substrates}) == 1
    assert list(engine._SUBSTRATES.values()) == [substrates[0]]
    assert [r for _, results in outputs[:3] for r in results] == serial
    assert outputs[3][1] == serial_fleet


def test_concurrent_churn_keeps_the_table_consistent(monkeypatch):
    """Eight threads cycle through more machines than the table holds,
    with thread switches forced every few bytecodes: every lookup finds
    its own machine, and the table ends at its bound with every
    identity entry pointing into it."""
    _empty_tables(monkeypatch)
    size = engine.SUBSTRATE_TABLE_SIZE
    configs = [_asym(i) for i in range(2 * size)]

    def churn(offset):
        for i in range(3 * size):
            config = configs[(offset + i) % len(configs)]
            assert EngineSubstrate.shared(config).key == substrate_key(config)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(8) as pool:
            futures = [pool.submit(churn, 5 * k) for k in range(8)]
            for f in futures:
                f.result(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert len(engine._SUBSTRATES) == size
    assert len(engine._SUBSTRATE_IDS) <= size
    for ident, (parts, key) in engine._SUBSTRATE_IDS.items():
        assert ident == tuple(map(id, parts))
    for config in configs:
        substrate = EngineSubstrate.shared(config)
        assert engine._SUBSTRATES[substrate_key(config)] is substrate


def test_shared_kernel_serialises_its_solves(monkeypatch):
    """SciPy's LU solve shifts the pivot array in place while the GIL is
    released, so the warm starts of simulators on other threads must
    not solve on one kernel's factorization at once. Each watched solve
    stays open a moment (on its own copy of the pivots, so an unguarded
    overlap is caught, not fatal); none may start inside another."""
    from repro.thermal import model

    kernel = EngineSubstrate.shared(SimulationConfig()).kernel
    solve = model.lu_solve
    open_solves, overlaps = [], []

    def watched(lu_and_piv, rhs):
        open_solves.append(None)
        overlaps.append(len(open_solves) > 1)
        time.sleep(0.002)
        lu, piv = lu_and_piv
        try:
            return solve((lu, piv.copy()), rhs)
        finally:
            open_solves.pop()

    monkeypatch.setattr(model, "lu_solve", watched)
    n = kernel.network.n_blocks
    powers = [np.full(n, 0.5 + 0.1 * k) for k in range(4)]
    with ThreadPoolExecutor(4) as pool:
        futures = [
            pool.submit(lambda p: [kernel.steady_state(p) for _ in range(5)], p)
            for p in powers
        ]
        results = [f.result(timeout=60) for f in futures]
    assert len(overlaps) == 20 and not any(overlaps)
    monkeypatch.setattr(model, "lu_solve", solve)
    for p, temps in zip(powers, results):
        for t in temps:
            np.testing.assert_array_equal(t, kernel.steady_state(p))


def test_table_keeps_its_bound_and_evicts_the_oldest_first(monkeypatch):
    _empty_tables(monkeypatch)
    size = engine.SUBSTRATE_TABLE_SIZE
    configs = [_asym(i) for i in range(size + 3)]
    first, reference = _run(DVFS, configs[0])
    built = [EngineSubstrate.shared(c) for c in configs]
    assert built[0] is first._substrate
    assert len(engine._SUBSTRATES) == size
    assert list(engine._SUBSTRATES) == [s.key for s in built[3:]]
    assert all(
        engine._SUBSTRATES[s.key] is s for s in built[3:]
    )
    assert len(engine._SUBSTRATE_IDS) == size
    for ident, (parts, key) in engine._SUBSTRATE_IDS.items():
        assert ident == tuple(map(id, parts))
        assert key in engine._SUBSTRATES

    again, result = _run(DVFS, configs[0])
    assert again._substrate is not first._substrate
    assert again._substrate.key == first._substrate.key
    assert asdict(result) == asdict(reference)
    np.testing.assert_array_equal(
        again.thermal.temperatures, first.thermal.temperatures
    )


def test_identity_hit_never_returns_an_evicted_substrate(monkeypatch):
    """An identity entry outlives the substrate its key names when other
    objects of the same machine description took that substrate's place
    in line; a lookup through it then builds the substrate again."""
    _empty_tables(monkeypatch)
    size = engine.SUBSTRATE_TABLE_SIZE
    first = EngineSubstrate.shared(_asym(0))
    for i in range(1, size):
        EngineSubstrate.shared(_asym(i))
    twin = _asym(0)  # equal description, new objects: a new identity
    assert EngineSubstrate.shared(twin) is first
    EngineSubstrate.shared(_asym(size))  # evicts the first substrate
    ident = tuple(
        map(id, (twin.machine, twin.package, twin.core_sizes_mm, None))
    )
    assert engine._SUBSTRATE_IDS[ident][1] == first.key
    assert first.key not in engine._SUBSTRATES
    again = EngineSubstrate.shared(twin)
    assert again is not first and again.key == first.key
    assert engine._SUBSTRATES[again.key] is again


def test_no_pinned_id_is_reused(monkeypatch):
    """Configs made and dropped one after another often land at a freed
    one's address; the table pins every object it keys by id, so each
    lookup still finds its own machine."""
    _empty_tables(monkeypatch)
    size = engine.SUBSTRATE_TABLE_SIZE
    for _ in range(2):
        for i in range(size + 3):
            config = _asym(i)
            assert EngineSubstrate.shared(config).key == substrate_key(config)
            del config
    for ident, (parts, _) in engine._SUBSTRATE_IDS.items():
        assert ident == tuple(map(id, parts))


# -- Hypothesis property (skipped when hypothesis is absent) ----------------

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

#: Every scenario preset, then the paper's chip at several core sizes.
CHIPS = [(name, None) for name in SCENARIOS] + [
    (None, None),
    (None, (3.0, 4.0, 5.0, 4.5)),
    (None, (5.0, 5.0, 5.0, 5.0)),
]


def _chip_config(chip, duration_s):
    name, core_sizes = chip
    if name is None:
        return W7, SimulationConfig(
            duration_s=duration_s, core_sizes_mm=core_sizes
        )
    scenario = SCENARIOS[name]
    return tile_workload(W7, scenario.n_cores), SimulationConfig(
        duration_s=duration_s,
        machine=scenario.machine_config(),
        scenario=scenario,
    )


@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    chip=st.sampled_from(CHIPS),
    spec=st.sampled_from([None, DVFS, STOPGO]),
    duration_s=st.sampled_from([0.001, 0.002]),
)
def test_property_shared_table_equals_a_fresh_one(chip, spec, duration_s):
    workload, config = _chip_config(chip, duration_s)
    warm_sim, warm = _run(spec, config, workload)
    with pytest.MonkeyPatch.context() as mp:
        _empty_tables(mp)
        fresh_sim, fresh = _run(spec, config, workload)
        assert fresh_sim._substrate is not warm_sim._substrate
    assert asdict(fresh) == asdict(warm)
    np.testing.assert_array_equal(
        fresh_sim.thermal.temperatures, warm_sim.thermal.temperatures
    )
