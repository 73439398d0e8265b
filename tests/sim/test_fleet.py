"""Fleet-vs-scalar equivalence: the batched engine's acceptance bar.

:class:`~repro.sim.fleet.FleetEngine` is a pure batching optimization —
for any eligible batch, every member's result must be **bit-identical**
to running that member alone through the scalar
:class:`~repro.sim.engine.ThermalTimingSimulator`: all RunResult fields,
final thermal state, per-process counters and positions, and sampled
telemetry series. These tests enforce that across the full 12-policy
taxonomy, under permutations and slicings of the batch, and (via
Hypothesis, when available) over randomized batch sizes, durations,
thresholds, dt values and policy mixes.
"""

import dataclasses
from dataclasses import fields, replace

import numpy as np
import pytest

from repro.core.taxonomy import ALL_POLICY_SPECS, spec_by_key
from repro.faults.guards import GuardConfig
from repro.obs.telemetry import TelemetrySampler
from repro.obs.tracing import NULL_TRACER
from repro.sim.bench import _bench_fault_plan
from repro.sim.engine import SimulationConfig, ThermalTimingSimulator
from repro.sim.fleet import FleetEngine, FleetIncompatibleError, fleet_blockers
from repro.sim.runner import ParallelRunner, ResultCache, RunPoint
from repro.sim.workloads import get_workload
from repro.uarch.config import MachineConfig

W7 = get_workload("workload7")
CFG = SimulationConfig(duration_s=0.02)


def scalar_fields(result) -> dict:
    """Every RunResult field except the attachments compared separately."""
    return {
        f.name: getattr(result, f.name)
        for f in fields(result)
        if f.name not in ("series", "events")
    }


def scalar_run(workload, spec, config, telemetry=None):
    """One member's reference run through the scalar engine."""
    sim = ThermalTimingSimulator(
        workload.benchmarks, spec, config, telemetry=telemetry
    )
    return sim, sim.run()


def stream_states(sim) -> dict:
    """The generator state of every RNG stream a simulator owns."""
    states = {"sensors": sim._sensor_rng.generator.bit_generator.state}
    if sim._faults is not None:
        for i, stream in sim._faults._rng.items():
            states[i] = stream.generator.bit_generator.state
    return states


def assert_member_matches_scalar(fleet_result, member_sim, workload, spec, config):
    """Bitwise comparison of one fleet member against a fresh scalar run."""
    ref_sim, ref = scalar_run(workload, spec, config)
    fr = scalar_fields(fleet_result)
    fr["workload"] = ref.workload  # fleet tags the workload name
    assert fr == scalar_fields(ref)
    # Every stream ends where the scalar run's does: the fleet drew
    # exactly the scalar's sequence from each, no more and no less.
    assert stream_states(member_sim) == stream_states(ref_sim)
    np.testing.assert_array_equal(
        member_sim.thermal.temperatures, ref_sim.thermal.temperatures
    )
    for pf, pr in zip(
        member_sim.scheduler.processes, ref_sim.scheduler.processes
    ):
        assert pf.position == pr.position
        assert pf.counters.instructions == pr.counters.instructions
        assert pf.counters.int_rf_accesses == pr.counters.int_rf_accesses
        assert pf.counters.fp_rf_accesses == pr.counters.fp_rf_accesses
        assert pf.counters.cycles == pr.counters.cycles
        assert pf.counters.adjusted_cycles == pr.counters.adjusted_cycles


class TestTaxonomyBitIdentity:
    """The tentpole guarantee: batch-of-N == N scalar runs, exactly."""

    def test_all_policies_in_one_batch(self):
        """One batch holding the unthrottled config plus all 12 taxonomy
        policies reproduces each scalar run bit for bit."""
        specs = [None] + list(ALL_POLICY_SPECS)
        members = [(W7, spec, CFG) for spec in specs]
        engine = FleetEngine(members)
        results = engine.run()
        assert len(results) == len(members)
        for member, result, spec in zip(engine.members, results, specs):
            assert_member_matches_scalar(result, member.sim, W7, spec, CFG)

    def test_results_in_input_order_and_tagged(self):
        specs = [spec_by_key("distributed-dvfs-none"), None]
        results = FleetEngine([(W7, s, CFG) for s in specs]).run()
        assert all(r.workload == W7.name for r in results)
        assert results[0].policy == specs[0].name

    def test_unthrottled_members_take_fused_path(self):
        engine = FleetEngine([(W7, None, CFG), (W7, None, CFG)])
        engine.run()
        assert all(m.fused for m in engine.members)
        assert all(m.sim.last_run_fused for m in engine.members)

    def test_mixed_durations_retire_members_in_place(self):
        """Members with different horizons share one lockstep group; the
        shorter ones retire early and still match their scalar runs."""
        spec = spec_by_key("distributed-dvfs-none")
        configs = [
            replace(CFG, duration_s=d) for d in (0.02, 0.008, 0.014)
        ]
        members = [(W7, spec, cfg) for cfg in configs]
        engine = FleetEngine(members)
        for result, member, cfg in zip(engine.run(), engine.members, configs):
            assert_member_matches_scalar(result, member.sim, W7, spec, cfg)

    def test_telemetry_series_identical_to_scalar(self):
        """A sampler attached to a fleet member observes exactly the
        series a scalar run would produce — times and every column."""
        spec = spec_by_key("distributed-dvfs-sensor")
        periods = (0.5e-3, 0.25e-3, 1.0e-3)
        specs = [spec, None, spec_by_key("global-stop-go-counter")]
        members = [(W7, s, CFG) for s in specs]
        samplers = [TelemetrySampler(p) for p in periods]
        fleet_results = FleetEngine(members, telemetry=samplers).run()

        for s, period, sampler, fres in zip(
            specs, periods, samplers, fleet_results
        ):
            ref_sampler = TelemetrySampler(period)
            _, ref = scalar_run(W7, s, CFG, telemetry=ref_sampler)
            assert sampler.series is not None
            assert sampler.series.times == ref_sampler.series.times
            assert sampler.series.columns == ref_sampler.series.columns
            assert fres.telemetry == ref.telemetry


class TestMigrationBitIdentity:
    """Members that migrate threads keep matching their scalar runs.

    The other batches here run for a few milliseconds and never reach a
    migration: the OS timer fires every 10 ms. These horizons cross
    several ticks, mix workloads and horizons (members retire
    mid-group), and give one member per family the bench fault plan, so
    DVFS rejections and sensor faults ride along with the moves.
    """

    FAMILIES = (
        "global-stop-go-counter",
        "distributed-stop-go-counter",
        "distributed-dvfs-sensor",
    )
    WORKLOADS = (("workload2", 0.04), ("workload7", 0.03), ("workload11", 0.035))

    def test_migrating_members_match_scalar(self):
        members = []
        for key in self.FAMILIES:
            spec = spec_by_key(key)
            for name, horizon in self.WORKLOADS:
                members.append(
                    (get_workload(name), spec, SimulationConfig(duration_s=horizon))
                )
            faulted = SimulationConfig(
                duration_s=0.04, fault_plan=_bench_fault_plan(0.04)
            )
            members.append((W7, spec, faulted))
        engine = FleetEngine(members)
        results = engine.run()
        for result, member, (workload, spec, cfg) in zip(
            results, engine.members, members
        ):
            assert member.sim.scheduler.total_migrations > 0
            assert_member_matches_scalar(result, member.sim, workload, spec, cfg)


class TestBatchStructureInvariance:
    """Satellite: batch composition must never leak into results."""

    SPECS = [
        None,
        spec_by_key("distributed-dvfs-none"),
        spec_by_key("global-stop-go-none"),
        spec_by_key("distributed-dvfs-counter"),
        None,
        spec_by_key("distributed-stop-go-none"),
    ]

    def _run(self, specs):
        return FleetEngine([(W7, s, CFG) for s in specs]).run()

    def test_permutation_invariance(self):
        """Reordering the batch permutes the results and nothing else."""
        perm = [3, 0, 5, 1, 4, 2]
        base = self._run(self.SPECS)
        permuted = self._run([self.SPECS[i] for i in perm])
        for out_pos, in_pos in enumerate(perm):
            assert scalar_fields(permuted[out_pos]) == scalar_fields(
                base[in_pos]
            )

    def test_batch_slicing_invariance(self):
        """Splitting one batch into two yields identical results."""
        whole = self._run(self.SPECS)
        first = self._run(self.SPECS[:3])
        second = self._run(self.SPECS[3:])
        for a, b in zip(whole, first + second):
            assert scalar_fields(a) == scalar_fields(b)

    def test_singleton_batch_matches_scalar(self):
        spec = spec_by_key("global-dvfs-none")
        engine = FleetEngine([(W7, spec, CFG)])
        (result,) = engine.run()
        assert_member_matches_scalar(
            result, engine.members[0].sim, W7, spec, CFG
        )


class TestFleetEligibility:
    """Satellite: ineligible members are refused with a clear error."""

    def test_guards_block(self):
        cfg = replace(CFG, guard=GuardConfig())
        assert "sensor-guards" in fleet_blockers(cfg)
        with pytest.raises(FleetIncompatibleError) as excinfo:
            FleetEngine([(W7, None, CFG), (W7, None, cfg)])
        assert "member 1" in str(excinfo.value)
        assert "sensor-guards" in str(excinfo.value)

    def test_other_blockers(self):
        assert "hardware-trip" in fleet_blockers(
            replace(CFG, hardware_trip=True)
        )
        assert fleet_blockers(
            replace(CFG, guard=GuardConfig(), hardware_trip=True)
        ) == ("sensor-guards", "hardware-trip")
        assert fleet_blockers(CFG) == ()

    def test_stochastic_configs_are_eligible(self):
        """Fault plans and sensor noise batch via stream replay — they
        are no longer fleet blockers."""
        assert fleet_blockers(
            replace(CFG, fault_plan=_bench_fault_plan(CFG.duration_s))
        ) == ()
        assert fleet_blockers(replace(CFG, sensor_noise_std_c=0.5)) == ()

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            FleetEngine([])

    def test_telemetry_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            FleetEngine([(W7, None, CFG)], telemetry=[None, None])


class TestRunnerIntegration:
    """Satellite: the fleet backend plugs into ParallelRunner cleanly."""

    def _points(self, n=4):
        specs = [None, spec_by_key("distributed-dvfs-none")]
        return [
            RunPoint(
                W7,
                specs[i % len(specs)],
                replace(CFG, threshold_c=80.0 + 0.5 * i),
            )
            for i in range(n)
        ]

    def test_backend_fleet_matches_pool(self):
        points = self._points()
        pool = ParallelRunner(jobs=1, backend="pool").run_points(points)
        fleet = ParallelRunner(jobs=1, backend="fleet").run_points(points)
        for a, b in zip(pool, fleet):
            assert dataclasses.asdict(a) == dataclasses.asdict(b)

    def test_fleet_results_hit_scalar_cache_keys(self, tmp_path):
        """Fleet-simulated results land under the same cache keys the
        scalar path computes: a warm pool rerun executes nothing."""
        points = self._points()
        first = ParallelRunner(
            cache=ResultCache(tmp_path), version="v", backend="fleet"
        )
        cold = first.run_points(points)
        assert first.stats.simulated == len(points)

        second = ParallelRunner(
            cache=ResultCache(tmp_path), version="v", backend="pool"
        )
        warm = second.run_points(points)
        assert second.stats.simulated == 0
        assert second.stats.cache_hits == len(points)
        assert warm == cold

    def test_ineligible_points_fall_back_transparently(self):
        """A batch mixing eligible and guarded points still returns
        results identical to the pool path, in input order."""
        guarded = RunPoint(
            W7,
            spec_by_key("distributed-dvfs-none"),
            replace(CFG, guard=GuardConfig()),
        )
        points = self._points(3) + [guarded]
        pool = ParallelRunner(jobs=1, backend="pool").run_points(points)
        fleet = ParallelRunner(jobs=1, backend="fleet").run_points(points)
        for a, b in zip(pool, fleet):
            assert dataclasses.asdict(a) == dataclasses.asdict(b)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            ParallelRunner(backend="thread")


class TestStochasticBitIdentity:
    """Tentpole: stochastic members (fault plans, sensor noise) batch
    bit-identically via per-member RNG stream replay."""

    def test_severity_plans_match_scalar(self):
        """One batch holding every robustness severity x a policy mix
        reproduces each faulted scalar run bit for bit — metrics and
        FaultSummary counters alike (``scalar_fields`` covers both)."""
        from repro.experiments.robustness import SEVERITIES, severity_plan

        specs = [
            spec_by_key("distributed-dvfs-none"),
            spec_by_key("global-stop-go-none"),
            spec_by_key("distributed-dvfs-sensor"),
            None,
        ]
        members = []
        for sev in SEVERITIES:
            plan = severity_plan(sev, CFG.duration_s)
            for spec in specs:
                members.append(
                    (W7, spec, replace(CFG, fault_plan=plan, seed=9))
                )
        engine = FleetEngine(members)
        for result, member, (_, spec, cfg) in zip(
            engine.run(), engine.members, members
        ):
            assert_member_matches_scalar(result, member.sim, W7, spec, cfg)

    def test_sensor_noise_matches_scalar(self):
        """Noisy members replay the scalar per-chip noise stream: one
        normal draw per step, only where the scalar engine would draw."""
        spec = spec_by_key("distributed-dvfs-none")
        members = [
            (W7, spec, replace(CFG, sensor_noise_std_c=1.5, seed=2)),
            (W7, None, replace(CFG, sensor_noise_std_c=1.5, seed=2)),
            (W7, spec, replace(CFG, sensor_noise_std_c=0.25, seed=3)),
            (W7, spec, CFG),
        ]
        engine = FleetEngine(members)
        for result, member, (_, s, cfg) in zip(
            engine.run(), engine.members, members
        ):
            assert_member_matches_scalar(result, member.sim, W7, s, cfg)

    def test_faults_noise_and_telemetry_together(self):
        """A faulted, noisy member with a sampler attached produces the
        scalar run's exact telemetry series (fault counters included)."""
        from repro.experiments.robustness import severity_plan

        spec = spec_by_key("distributed-dvfs-none")
        cfg = replace(
            CFG,
            fault_plan=severity_plan("severe", CFG.duration_s),
            sensor_noise_std_c=1.0,
            seed=13,
        )
        sampler = TelemetrySampler(0.5e-3)
        (fres,) = FleetEngine([(W7, spec, cfg)], telemetry=[sampler]).run()
        ref_sampler = TelemetrySampler(0.5e-3)
        _, ref = scalar_run(W7, spec, cfg, telemetry=ref_sampler)
        assert fres.faults == ref.faults
        assert sampler.series.times == ref_sampler.series.times
        assert sampler.series.columns == ref_sampler.series.columns
        assert fres.telemetry == ref.telemetry


class TestRunnerChunkingAndDuplicates:
    """Satellites: index-keyed fleet outputs and chunked streaming."""

    def test_duplicate_points_keep_distinct_outputs(self):
        """Regression: two identical points in one uncached fleet batch
        must each get their own output entry (results were previously
        collected in a dict keyed by cache key, collapsing duplicates
        and mis-attributing spans)."""
        runner = ParallelRunner(jobs=1, cache=None, backend="fleet")
        point = RunPoint(W7, spec_by_key("distributed-dvfs-none"), CFG)
        out = runner._execute_fleet([point, point], None, NULL_TRACER)
        assert len(out) == 2
        (res_a, elapsed_a, spans_a), (res_b, elapsed_b, spans_b) = out
        assert res_a is not res_b
        assert scalar_fields(res_a) == scalar_fields(res_b)
        assert elapsed_a > 0 and elapsed_b > 0
        assert spans_a == spans_b == []

    def test_chunked_matches_unchunked(self):
        """Streaming a campaign through the engine in fixed-size chunks
        changes memory use, never results."""
        from repro.experiments.robustness import severity_plan

        specs = [None, spec_by_key("distributed-dvfs-none")]
        points = [
            RunPoint(
                W7,
                specs[i % 2],
                replace(
                    CFG,
                    threshold_c=80.0 + 0.25 * i,
                    fault_plan=severity_plan("moderate", CFG.duration_s),
                    seed=i,
                ),
            )
            for i in range(7)
        ]
        whole = ParallelRunner(
            jobs=1, cache=None, backend="fleet"
        ).run_points(points)
        chunked = ParallelRunner(
            jobs=1, cache=None, backend="fleet", fleet_chunk=3
        ).run_points(points)
        for a, b in zip(whole, chunked):
            assert scalar_fields(a) == scalar_fields(b)

    def test_fleet_chunk_validated(self):
        with pytest.raises(ValueError):
            ParallelRunner(backend="fleet", fleet_chunk=0)


class TestScenarioBitIdentity:
    """Many-core scenarios batch bit-identically: mesh16 and the
    heterogeneous biglittle4+4 chip (whose per-class DVFS floors drive
    the PIBank's vector ``output_min`` path) must match scalar runs,
    and the fleet backend must match pool on full 16-core RunPoints."""

    def _members(self, scenario_name, spec_keys, duration_s=0.004):
        from repro.scenarios import get_scenario
        from repro.sim.workloads import tile_workload

        scenario = get_scenario(scenario_name)
        workload = tile_workload(W7, scenario.n_cores)
        cfg = SimulationConfig(
            duration_s=duration_s,
            machine=scenario.machine_config(),
            scenario=scenario,
        )
        return [
            (workload, spec_by_key(k) if k else None, cfg) for k in spec_keys
        ], workload

    def test_mesh16_members_match_scalar(self):
        members, workload = self._members(
            "mesh16",
            [None, "distributed-dvfs-none", "global-stop-go-none"],
        )
        engine = FleetEngine(members)
        for result, member, (_, spec, cfg) in zip(
            engine.run(), engine.members, members
        ):
            assert_member_matches_scalar(
                result, member.sim, workload, spec, cfg
            )

    def test_biglittle_heterogeneous_floors_match_scalar(self):
        members, workload = self._members(
            "biglittle4+4",
            ["distributed-dvfs-none", "global-dvfs-none", None],
        )
        engine = FleetEngine(members)
        for result, member, (_, spec, cfg) in zip(
            engine.run(), engine.members, members
        ):
            assert_member_matches_scalar(
                result, member.sim, workload, spec, cfg
            )

    def test_mixed_scenario_batch_groups_cleanly(self):
        """One batch mixing the default 4-core chip with mesh16 members
        must place them on distinct substrates and still match scalar."""
        mesh_members, mesh_wl = self._members(
            "mesh16", ["distributed-dvfs-none"]
        )
        spec = spec_by_key("distributed-dvfs-none")
        members = [(W7, spec, CFG)] + mesh_members
        engine = FleetEngine(members)
        results = engine.run()
        assert_member_matches_scalar(
            results[0], engine.members[0].sim, W7, spec, CFG
        )
        _, mspec, mcfg = mesh_members[0]
        assert_member_matches_scalar(
            results[1], engine.members[1].sim, mesh_wl, mspec, mcfg
        )

    def test_backend_fleet_matches_pool_on_scenarios(self):
        """The ISSUE acceptance spec: 16-core scenario RunPoints through
        ``backend="fleet"`` equal ``backend="pool"`` in every field."""
        from repro.scenarios import get_scenario
        from repro.sim.workloads import tile_workload

        points = []
        for name in ("mesh16", "biglittle4+4"):
            scenario = get_scenario(name)
            workload = tile_workload(W7, scenario.n_cores)
            for threshold in (83.0, 84.2):
                points.append(
                    RunPoint(
                        workload,
                        spec_by_key("distributed-dvfs-none"),
                        SimulationConfig(
                            duration_s=0.004,
                            machine=scenario.machine_config(),
                            scenario=scenario,
                            threshold_c=threshold,
                        ),
                    )
                )
        pool = ParallelRunner(jobs=1, backend="pool").run_points(points)
        fleet = ParallelRunner(jobs=1, backend="fleet").run_points(points)
        for a, b in zip(pool, fleet):
            assert dataclasses.asdict(a) == dataclasses.asdict(b)


class TestSubstrateSharing:
    """Members of one substrate share its read-only parts by identity."""

    def _pair(self):
        from repro.sim.engine import EngineSubstrate

        plan = _bench_fault_plan(0.004)
        cfg = SimulationConfig(duration_s=0.004, fault_plan=plan)
        substrate = EngineSubstrate.for_config(cfg)
        spec = spec_by_key("distributed-dvfs-none")
        sims = [
            ThermalTimingSimulator(
                W7.benchmarks, spec, replace(cfg, threshold_c=t),
                substrate=substrate,
            )
            for t in (82.0, 84.0)
        ]
        return substrate, sims

    @staticmethod
    def _shared(sim):
        return [
            sim._core_unit_idx,
            sim._hotspot_idx,
            sim._unit_flat,
            sim._faults._masks,
        ]

    def test_members_share_parts_by_identity(self):
        substrate, (a, b) = self._pair()
        for x, y in zip(self._shared(a), self._shared(b)):
            assert x is y
        assert a._l2_idx_list is b._l2_idx_list
        assert a.leakage.reference_w is not b.leakage.reference_w
        np.testing.assert_array_equal(
            a.leakage.reference_w, b.leakage.reference_w
        )
        assert a._core_unit_idx is substrate.layout.core_unit_idx

    def test_shared_arrays_are_read_only(self):
        substrate, (a, _) = self._pair()
        arrays = [
            a._core_unit_idx,
            a._hotspot_idx,
            a._unit_flat,
            substrate.layout.leakage_weights.per_block,
            *a._faults._masks.values(),
        ]
        assert a._faults._masks
        for arr in arrays:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[(0,) * arr.ndim] = arr[(0,) * arr.ndim]

    def test_shared_parts_equal_standalone_ones(self):
        """A standalone simulator builds the same values itself."""
        _, (a, _) = self._pair()
        alone = ThermalTimingSimulator(W7.benchmarks, a.spec, a.config)
        for x, y in zip(self._shared(a)[:3], self._shared(alone)[:3]):
            assert x is not y
            np.testing.assert_array_equal(x, y)
        assert alone._l2_idx_list == a._l2_idx_list
        assert alone._xbar_i == a._xbar_i
        np.testing.assert_array_equal(
            alone.leakage.reference_w, a.leakage.reference_w
        )

    def test_fleet_finds_default_machine_by_identity(self):
        """Default configs share one machine object, and one substrate."""
        configs = [SimulationConfig(duration_s=0.002, threshold_c=t)
                   for t in (80.0, 81.0, 82.0)]
        assert all(c.machine is configs[0].machine for c in configs)
        engine = FleetEngine([(W7, None, c) for c in configs])
        substrates = {id(m.sim._substrate) for m in engine.members}
        assert len(substrates) == 1

    def test_sensor_stream_created_on_first_use(self):
        quiet = ThermalTimingSimulator(W7.benchmarks, None, CFG)
        assert "_sensor_rng" not in vars(quiet)
        noisy_cfg = replace(CFG, duration_s=0.002, sensor_noise_std_c=0.5)
        spec = spec_by_key("distributed-dvfs-none")
        noisy = ThermalTimingSimulator(W7.benchmarks, spec, noisy_cfg)
        noisy.run()
        assert "_sensor_rng" in vars(noisy)

    def test_profile_trace_views_never_go_stale(self):
        """Traces of profile objects are not cached by the substrate, so
        once a simulator is freed a new trace may reuse a freed trace's
        id; the second simulator must still see its own traces."""
        import gc

        from repro.sim.engine import EngineSubstrate
        from repro.uarch.benchmarks import get_benchmark
        from repro.uarch.tracegen import clear_trace_cache

        substrate = EngineSubstrate()
        first = [get_benchmark(b) for b in ("gcc", "gzip", "mcf", "vpr")]
        second = [get_benchmark(b) for b in ("art", "swim", "lucas", "mgrid")]
        sim = ThermalTimingSimulator(first, None, CFG, substrate=substrate)
        del sim
        clear_trace_cache()  # the module memo would keep the traces alive
        gc.collect()
        shared = ThermalTimingSimulator(second, None, CFG, substrate=substrate)
        alone = ThermalTimingSimulator(second, None, CFG)
        np.testing.assert_array_equal(
            shared._warm_power(1.0), alone._warm_power(1.0)
        )
        for p in shared.scheduler.processes:
            np.testing.assert_array_equal(
                shared._trace_aux[p.pid].unit_power_mean,
                p.trace.unit_power.mean(axis=0),
            )
        assert not substrate._aux  # nothing cached for profile objects

    def test_trace_view_ignores_a_reused_id(self):
        """A trace allocated where a freed one lived gets its own view."""
        from repro.sim.engine import EngineSubstrate
        from repro.uarch.benchmarks import get_benchmark
        from repro.uarch.tracegen import clear_trace_cache

        substrate = EngineSubstrate()
        template = substrate.trace(get_benchmark("art"), CFG)
        gone = substrate.trace(get_benchmark("gcc"), CFG)
        substrate.trace_aux(gone)
        clear_trace_cache()
        del gone
        # Allocated straight after the free, CPython usually hands this
        # object the freed trace's address, and so its id.
        reused = object.__new__(type(template))
        vars(reused).update(vars(template))
        np.testing.assert_array_equal(
            substrate.trace_aux(reused).unit_power_mean,
            template.unit_power.mean(axis=0),
        )


# -- Hypothesis property tests (skipped when hypothesis is absent) --------

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.faults import injector as injector_module  # noqa: E402

#: Policy pool for random batch composition: both throttle families,
#: both scopes, with and without migration, plus unthrottled.
PROPERTY_SPEC_KEYS = [
    None,
    "distributed-dvfs-none",
    "global-dvfs-none",
    "distributed-stop-go-none",
    "global-stop-go-counter",
    "distributed-dvfs-sensor",
]

member_strategy = st.tuples(
    st.sampled_from(PROPERTY_SPEC_KEYS),
    st.sampled_from([0.004, 0.006, 0.008]),
    st.floats(min_value=78.0, max_value=85.0, allow_nan=False),
)


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(batch=st.lists(member_strategy, min_size=1, max_size=5))
def test_property_random_batches_match_scalar(batch):
    """Any random mix of policies, durations and thresholds batches
    bit-identically to per-member scalar runs."""
    members = []
    for spec_key, duration, threshold in batch:
        spec = spec_by_key(spec_key) if spec_key else None
        cfg = SimulationConfig(duration_s=duration, threshold_c=threshold)
        members.append((W7, spec, cfg))
    engine = FleetEngine(members)
    for result, member, (spec_key, _, _) in zip(
        engine.run(), engine.members, batch
    ):
        spec = spec_by_key(spec_key) if spec_key else None
        assert_member_matches_scalar(
            result, member.sim, W7, spec, member.sim.config
        )


@settings(max_examples=4, deadline=None)
@given(
    cycles=st.sampled_from([80_000, 100_000, 125_000]),
    spec_key=st.sampled_from([None, "distributed-dvfs-none"]),
)
def test_property_dt_variants_match_scalar(cycles, spec_key):
    """Batches on machines with non-default dt (trace_sample_cycles)
    still match the scalar engine exactly."""
    machine = MachineConfig(trace_sample_cycles=cycles)
    cfg = SimulationConfig(duration_s=0.005, machine=machine)
    spec = spec_by_key(spec_key) if spec_key else None
    engine = FleetEngine([(W7, spec, cfg), (W7, spec, cfg)])
    for result, member in zip(engine.run(), engine.members):
        assert_member_matches_scalar(result, member.sim, W7, spec, cfg)


#: Stochastic fault-plan generator: dropout + spike + DVFS-reject at
#: random severities, windows and modes — the Monte-Carlo campaign
#: shape the stream-replay layer exists for.
def _stochastic_plan(duration, core, drop_mode, spike_prob, reject_prob):
    from repro.faults.models import (
        DropoutFault,
        DVFSRejectFault,
        FaultPlan,
        SpikeFault,
    )

    return FaultPlan(
        name="property",
        faults=(
            DropoutFault(
                core=core,
                start_s=0.2 * duration,
                end_s=0.8 * duration,
                mode=drop_mode,
            ),
            SpikeFault(
                start_s=0.0, end_s=duration,
                magnitude_c=9.0, prob=spike_prob,
            ),
            DVFSRejectFault(
                start_s=0.1 * duration, end_s=0.9 * duration,
                prob=reject_prob,
            ),
        ),
    )


stochastic_member = st.tuples(
    st.sampled_from(
        ["distributed-dvfs-none", "global-dvfs-none",
         "distributed-stop-go-none", "distributed-dvfs-sensor", None]
    ),
    st.integers(min_value=0, max_value=3),        # dropout core
    st.sampled_from(["last-good", "nan"]),        # dropout mode
    st.sampled_from([0.01, 0.05, 0.2]),           # spike prob
    st.sampled_from([0.25, 0.5, 0.9]),            # dvfs-reject prob
    st.integers(min_value=0, max_value=2**31 - 1),  # seed
    # Horizon: the plan's windows span 0.006 s, so shorter members
    # retire mid-window (0.0045 s inside the dropout window).
    st.sampled_from([0.006, 0.0045, 0.002]),
)

#: Members sharing one plan (one fault cohort) at mixed horizons.
_COHORT = ("distributed-dvfs-none", 1, "last-good", 0.2, 0.5)


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    batch=st.lists(stochastic_member, min_size=1, max_size=4),
    # Replay block length: the production value, and a short one that
    # puts block boundaries inside every fault window.
    block=st.sampled_from([injector_module.REPLAY_BLOCK_STEPS, 7]),
)
@example(
    batch=[_COHORT + (11, 0.006), _COHORT + (12, 0.0045),
           _COHORT + (13, 0.002)],
    block=7,
)
@example(
    batch=[(None, 2, "nan", 0.05, 0.25, 5, 0.0045),
           (None, 2, "nan", 0.05, 0.25, 6, 0.006),
           ("distributed-stop-go-none", 2, "nan", 0.05, 0.25, 7, 0.002),
           ("distributed-stop-go-none", 2, "nan", 0.05, 0.25, 8, 0.006)],
    block=injector_module.REPLAY_BLOCK_STEPS,
)
def test_property_stochastic_plans_match_scalar(batch, block):
    """Tentpole acceptance property: any batch of members with random
    stochastic fault plans (dropout/spike/dvfs-reject at random
    severities, seeds and horizons) is bit-identical — metrics,
    FaultSummary counters, telemetry and the final state of every RNG
    stream — to the same points run scalar, whatever the replay block
    length."""
    duration = 0.006
    members = []
    for spec_key, core, mode, spike_p, reject_p, seed, horizon in batch:
        spec = spec_by_key(spec_key) if spec_key else None
        cfg = SimulationConfig(
            duration_s=horizon,
            fault_plan=_stochastic_plan(duration, core, mode, spike_p, reject_p),
            seed=seed,
        )
        members.append((W7, spec, cfg))
    engine = FleetEngine(members)
    saved = injector_module.REPLAY_BLOCK_STEPS
    injector_module.REPLAY_BLOCK_STEPS = block
    try:
        results = engine.run()
    finally:
        injector_module.REPLAY_BLOCK_STEPS = saved
    for result, member, (_, spec, cfg) in zip(
        results, engine.members, members
    ):
        assert_member_matches_scalar(result, member.sim, W7, spec, cfg)
