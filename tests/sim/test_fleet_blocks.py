"""Deferred folds, the bounded trace window and mixed groups stay bit-identical.

The fleet folds its metric, trend-window, PI-window and stop-go duty
accumulators a block of steps at a time, reads trace samples from
windows refilled every few hundred steps, and steps every throttle
family of a machine in one group. Each case below moves a block or
window boundary onto an edge (a retirement, an OS tick, a telemetry
sample, a wrap of the trace) or mixes families, and checks every member
against its scalar run. The block and window lengths are shrunk so that
the short horizons here cross many boundaries.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.taxonomy import ALL_POLICY_SPECS, ThrottleKind, spec_by_key
from repro.faults.models import (
    DropoutFault,
    DVFSLatencyFault,
    DVFSRejectFault,
    FaultPlan,
    SpikeFault,
)
from repro.obs.telemetry import TelemetrySampler
from repro.obs.tracing import KIND_POINT, SpanRecorder
from repro.sim import fleet as fleet_module
from repro.sim.engine import SimulationConfig
from repro.sim.fleet import FleetEngine
from repro.sim.runner import ParallelRunner, RunPoint
from repro.sim.workloads import get_workload

from tests.sim.test_fleet import (
    assert_member_matches_scalar,
    scalar_fields,
    scalar_run,
)

W7 = get_workload("workload7")
DT = SimulationConfig().machine.sample_period_s
DVFS = spec_by_key("distributed-dvfs-none")
SENSOR = spec_by_key("distributed-dvfs-sensor")
COUNTER = spec_by_key("global-stop-go-counter")


@pytest.fixture
def short_blocks(monkeypatch):
    """Blocks of 8 steps and trace windows refilled every 16."""
    monkeypatch.setattr(fleet_module, "_BLOCK", 8)
    monkeypatch.setattr(fleet_module, "_WINDOW", 16)


def assert_windows_match(sim, ref):
    """The trend window a run ends with, NaN latches included."""
    w, r = sim._window, ref._window
    for name in ("_sum", "_first", "_last"):
        np.testing.assert_array_equal(getattr(w, name), getattr(r, name))
    assert (w._min_sum, w._steps, w.duration_s) == (
        r._min_sum, r._steps, r.duration_s
    )


def run_and_check(members):
    engine = FleetEngine(members)
    results = engine.run()
    for result, member, (workload, spec, cfg) in zip(
        results, engine.members, members
    ):
        assert_member_matches_scalar(result, member.sim, workload, spec, cfg)
        if member.sim.migration is not None:
            ref, _ = scalar_run(workload, spec, cfg)
            assert_windows_match(member.sim, ref)
    return engine


class TestDeferredFolds:
    def test_members_retire_mid_block(self, short_blocks):
        # 72, 53 and 37 steps: two retirements inside a block.
        members = [
            (W7, spec, SimulationConfig(duration_s=steps * DT))
            for spec in (DVFS, None)
            for steps in (72, 53, 37)
        ]
        run_and_check(members)

    def test_os_ticks_on_and_off_block_boundaries(self, short_blocks):
        # Ticks every 8 steps land on block boundaries, every 11 off
        # them; both families migrate.
        members = [
            (W7, spec, SimulationConfig(
                duration_s=0.004, migration_period_s=period * DT,
            ))
            for spec in (SENSOR, COUNTER)
            for period in (8, 11)
        ]
        run_and_check(members)

    def test_telemetry_sample_every_step(self, short_blocks):
        cfg = SimulationConfig(duration_s=0.002)
        specs = (DVFS, SENSOR, None)
        samplers = [TelemetrySampler(DT) for _ in specs]
        results = FleetEngine(
            [(W7, s, cfg) for s in specs], telemetry=samplers
        ).run()
        for spec, sampler, result in zip(specs, samplers, results):
            ref_sampler = TelemetrySampler(DT)
            _, ref = scalar_run(W7, spec, cfg, telemetry=ref_sampler)
            assert scalar_fields(result) == scalar_fields(
                replace(ref, workload=result.workload)
            )
            assert sampler.series.times == ref_sampler.series.times
            assert sampler.series.columns == ref_sampler.series.columns

    def test_nan_dropouts_reach_the_trend_window(self, short_blocks):
        """NaN readings exercise the first-reading latch (a channel
        NaN for a whole block) and the NaN-skipping chip minimum (every
        channel NaN: the minimum is +inf)."""
        d = 0.004
        partial = FaultPlan(faults=(
            DropoutFault(core=1, start_s=0.0, end_s=d, prob=0.5, mode="nan"),
        ))
        total = FaultPlan(faults=(
            DropoutFault(start_s=0.25 * d, end_s=0.5 * d, mode="nan"),
            DropoutFault(core=2, start_s=0.0, end_s=d, mode="nan"),
        ))
        members = [
            (W7, SENSOR, SimulationConfig(
                duration_s=d, fault_plan=plan, seed=seed,
                migration_period_s=1e-3,
            ))
            for plan in (partial, total)
            for seed in (3, 4)
        ]
        run_and_check(members)

    @pytest.mark.parametrize("steps", [5, 72])
    def test_horizons_not_a_multiple_of_the_block(self, steps):
        """Default block length: shorter than one block, and 72 steps
        (one full block and a partial one)."""
        cfg = SimulationConfig(duration_s=steps * DT)
        run_and_check([(W7, s, cfg) for s in (DVFS, SENSOR, None, None)])


def assert_throttle_windows_match(sim, ref):
    """The feedback or duty windows a migrating run ends with."""
    if sim.spec.throttle is ThrottleKind.DVFS:
        for c, r in zip(sim.throttle.controllers, ref.throttle.controllers):
            assert (c.output, c._previous_error, c._steps, c._output_sum) == (
                r.output, r._previous_error, r._steps, r._output_sum
            )
    else:
        pol, rp = sim.throttle, ref.throttle
        assert pol._window_steps == rp._window_steps
        assert pol._window_active == rp._window_active
        assert pol._frozen_until == rp._frozen_until


class TestMixedGroup:
    """Every throttle family of a machine steps in one group."""

    D = 0.004  # 144 steps

    def members(self):
        """The 12 taxonomy policies on three horizons, plus stochastic
        members: a faulted unthrottled one, a noisy one, a global-DVFS
        one with NaN dropouts, a DVFS one whose commits are gated, and
        a fusable unthrottled one, which rides the stepwise group."""
        d = self.D
        horizons = (144, 101, 67)  # two retire mid-block
        members = [
            (W7, spec, SimulationConfig(
                duration_s=horizons[k % 3] * DT, migration_period_s=1e-3,
            ))
            for k, spec in enumerate(ALL_POLICY_SPECS)
        ]
        nan_drops = FaultPlan(faults=(
            DropoutFault(core=1, start_s=0.0, end_s=d, prob=0.5, mode="nan"),
            DropoutFault(start_s=0.25 * d, end_s=0.5 * d, mode="nan"),
        ))
        gated = FaultPlan(faults=(
            DVFSRejectFault(core=0, prob=0.5),
            DVFSLatencyFault(core=2),
        ))
        spikes = FaultPlan(faults=(SpikeFault(prob=0.2, magnitude_c=5.0),))
        members += [
            (W7, None, SimulationConfig(duration_s=101 * DT, fault_plan=spikes)),
            (W7, SENSOR, SimulationConfig(
                duration_s=d, sensor_noise_std_c=0.5, seed=5,
                migration_period_s=1e-3,
            )),
            (W7, spec_by_key("global-dvfs-none"), SimulationConfig(
                duration_s=67 * DT, fault_plan=nan_drops, seed=2,
            )),
            (W7, DVFS, SimulationConfig(
                duration_s=d, fault_plan=gated, seed=9, threshold_c=80.0,
            )),
            (W7, None, SimulationConfig(duration_s=d)),
        ]
        return members

    def test_one_group_matches_scalar(self, short_blocks):
        members = self.members()
        engine = run_and_check(members)
        assert not any(m.fused for m in engine.members)
        assert {m.width for m in engine.members} == {len(members)}
        for member, (workload, spec, cfg) in zip(engine.members, members):
            if member.sim.migration is not None:
                ref, _ = scalar_run(workload, spec, cfg)
                assert_throttle_windows_match(member.sim, ref)
        assert sum(m.sim.scheduler.total_migrations for m in engine.members)

    def test_telemetry_on_migrating_and_stop_go_members(self, short_blocks):
        members = self.members()
        taps = {
            ALL_POLICY_SPECS.index(SENSOR): 2 * DT,
            ALL_POLICY_SPECS.index(spec_by_key("distributed-stop-go-none")): DT,
        }
        samplers = [
            TelemetrySampler(taps[i]) if i in taps else None
            for i in range(len(members))
        ]
        results = FleetEngine(members, telemetry=samplers).run()
        for i, period in taps.items():
            workload, spec, cfg = members[i]
            ref_sampler = TelemetrySampler(period)
            _, ref = scalar_run(workload, spec, cfg, telemetry=ref_sampler)
            assert scalar_fields(results[i]) == scalar_fields(
                replace(ref, workload=results[i].workload)
            )
            assert samplers[i].series.times == ref_sampler.series.times
            assert samplers[i].series.columns == ref_sampler.series.columns


@pytest.fixture
def stepwise_groups(monkeypatch):
    """Every stepwise group a fleet builds, in build order."""
    groups = []
    init = fleet_module._StepwiseGroup.__init__

    def recording_init(group, members):
        init(group, members)
        groups.append(group)

    monkeypatch.setattr(fleet_module._StepwiseGroup, "__init__", recording_init)
    return groups


def assert_chip_lanes_equal(group, i):
    """Row ``i``'s PI lanes hold one controller's state ``n_cores`` times."""
    bank, lane = group.row_lane[i]
    for arr in (
        bank.output, bank.previous_error, bank.window_steps,
        bank.output_sum, bank.setpoints, bank.output_min,
    ):
        row = arr[lane]
        np.testing.assert_array_equal(row, np.full_like(row, row[0]))


def pi_errors(sampler):
    """Each PI-error histogram's count, bucket counts and sum."""
    return [
        (h.count, h.bucket_counts, h.sum)
        for h in sampler.registry.collect()
        if h.kind == "histogram"
    ]


class TestThrottleStages:
    """Rows of one throttle kind step as one stage, whatever their scope:
    DVFS rows in one PI bank with ``(row, core)`` lanes, a global row's
    lanes all reading its chip-hot value; stop-go rows in one trip pass."""

    GLOBAL_DVFS = spec_by_key("global-dvfs-none")

    def test_taxonomy_batch_builds_one_stage_per_kind(self, stepwise_groups):
        cfg = SimulationConfig(duration_s=8 * DT)
        run_and_check([(W7, spec, cfg) for spec in ALL_POLICY_SPECS])
        (group,) = stepwise_groups
        (lo, hi, _, _, bank, chip), stopgo = group.stages
        assert (lo, hi, chip) == (0, 6, True)
        assert bank.output.shape == (hi - lo, group.n_cores)
        lo, hi, _, _, bank, chip = stopgo
        assert (lo, hi, bank, chip) == (6, 12, None, True)

    def test_biglittle_scopes_mix_and_global_rows_retire(self):
        """biglittle4+4 with every kind and scope: the DVFS stage holds
        distributed rows of 144 steps and global rows of 67, the
        stop-go stage distributed rows of 67 and global rows of 41, so
        each stage's global rows retire while its distributed rows step
        on. At a 60 C threshold a distributed DVFS chip drives cores
        down to each class floor and a global chip to the highest one,
        and both stop-go scopes trip."""
        from repro.scenarios import get_scenario
        from repro.sim.workloads import tile_workload

        scenario = get_scenario("biglittle4+4")
        workload = tile_workload(W7, scenario.n_cores)
        members = [
            (workload, spec_by_key(key), SimulationConfig(
                duration_s=steps * DT, threshold_c=threshold,
                machine=scenario.machine_config(), scenario=scenario,
            ))
            for key, steps in (
                ("distributed-dvfs-none", 144),
                ("global-dvfs-none", 67),
                ("distributed-stop-go-none", 67),
                ("global-stop-go-none", 41),
            )
            for threshold in (60.0, 75.0)
        ]
        engine = run_and_check(members)
        hot = [m.sim for m in engine.members if m.sim.config.threshold_c == 60.0]
        dist_dvfs, glob_dvfs, dist_sg, glob_sg = hot
        floors = [c.output_min for c in dist_dvfs.throttle.controllers]
        assert glob_dvfs.throttle.controllers[0].output_min == max(floors)
        assert [a.current_scale for a in glob_dvfs.actuators] == [max(floors)] * 8
        assert set(floors) <= {a.current_scale for a in dist_dvfs.actuators}
        assert dist_sg.throttle.trip_count > glob_sg.throttle.trip_count > 0

    def test_global_lanes_stay_equal_across_os_ticks(
        self, short_blocks, stepwise_groups, monkeypatch
    ):
        """A migrating global-DVFS row beside distributed rows of its
        stage: its lanes match at every OS tick, entering and leaving
        it, and at the end."""
        counter = spec_by_key("global-dvfs-counter")
        ticks = []
        tick = fleet_module._StepwiseGroup._member_tick

        def checked_tick(group, i, t, sens_row):
            global_row = group.family[i][1] == "global"
            if global_row:
                assert_chip_lanes_equal(group, i)
            tick(group, i, t, sens_row)
            if global_row:
                assert_chip_lanes_equal(group, i)
                ticks.append(t)

        monkeypatch.setattr(
            fleet_module._StepwiseGroup, "_member_tick", checked_tick
        )
        members = [
            (W7, spec, SimulationConfig(
                duration_s=0.006, migration_period_s=5e-4,
                threshold_c=threshold,
            ))
            for spec in (DVFS, counter)
            for threshold in (70.0, 84.2)
        ]
        engine = run_and_check(members)
        assert len(ticks) >= 20
        (group,) = stepwise_groups
        for i, sim in enumerate(group.sims):
            if sim.spec == counter:
                assert_chip_lanes_equal(group, i)
        assert sum(m.sim.scheduler.total_migrations for m in engine.members)

    @pytest.mark.parametrize("core", [0, 2])
    def test_nan_dropouts_on_a_global_row(self, core):
        """NaN readings on one core of a global-DVFS chip: on core 0 the
        scalar ``max`` fold keeps the NaN first reading (the chip-hot
        reading is NaN), on a later core it skips it."""
        plan = FaultPlan(faults=(
            DropoutFault(core=core, start_s=0.0, end_s=0.004, prob=0.5,
                         mode="nan"),
        ))
        members = [
            (W7, spec, SimulationConfig(
                duration_s=0.004, fault_plan=plan, seed=seed,
                threshold_c=80.0,
            ))
            for spec in (DVFS, self.GLOBAL_DVFS)
            for seed in (3, 4)
        ]
        run_and_check(members)

    def test_telemetry_on_a_global_dvfs_row(self, short_blocks):
        cfg = SimulationConfig(duration_s=0.003, threshold_c=80.0)
        specs = (DVFS, self.GLOBAL_DVFS, COUNTER)
        samplers = [None, TelemetrySampler(2 * DT), None]
        results = FleetEngine(
            [(W7, s, cfg) for s in specs], telemetry=samplers
        ).run()
        ref_sampler = TelemetrySampler(2 * DT)
        _, ref = scalar_run(W7, self.GLOBAL_DVFS, cfg, telemetry=ref_sampler)
        assert scalar_fields(results[1]) == scalar_fields(
            replace(ref, workload=results[1].workload)
        )
        assert samplers[1].series.times == ref_sampler.series.times
        assert samplers[1].series.columns == ref_sampler.series.columns
        # The chip-wide PI-error histogram reads the controller's error
        # at each sample instant.
        assert pi_errors(samplers[1]) == pi_errors(ref_sampler)
        ((samples, _buckets, _sum),) = pi_errors(ref_sampler)
        assert samples == len(ref_sampler.series.times)


class TestRiders:
    """A machine's unthrottled members ride its stepwise group when that
    group is at least three wide and covers their horizons; every result
    equals its scalar run on the stepwise path (``fuse_steps=False``)."""

    CFG = SimulationConfig(duration_s=0.003)

    def dvfs(self, cfg=CFG):
        return [
            (W7, DVFS, replace(cfg, threshold_c=t)) for t in (78.0, 80.0, 82.0)
        ]

    def run_riders(self, members):
        engine = FleetEngine(members)
        results = engine.run()
        for result, member, (workload, spec, cfg) in zip(
            results, engine.members, members
        ):
            stepwise = replace(cfg, fuse_steps=False)
            assert_member_matches_scalar(
                result, member.sim, workload, spec, stepwise
            )
        return engine, results

    def test_equal_horizons_step_as_one_group(
        self, short_blocks, stepwise_groups
    ):
        riders = [
            (get_workload(w), None, self.CFG)
            for w in ("workload2", "workload7", "workload11")
        ]
        engine, _ = self.run_riders(riders + self.dvfs())
        assert [m.fused for m in engine.members] == [False] * 6
        assert [m.width for m in engine.members] == [6] * 6
        (group,) = stepwise_groups
        assert len(group.members) == 6

    def test_taxonomy_batch_keeps_two_stages(self, stepwise_groups):
        """Rows of kind ``"none"`` sort between the DVFS and stop-go rows
        of a horizon, so riders add no throttle stage."""
        cfg = SimulationConfig(duration_s=8 * DT)
        specs = [None, *ALL_POLICY_SPECS, None]
        engine, _ = self.run_riders([(W7, spec, cfg) for spec in specs])
        assert not any(m.fused for m in engine.members)
        (group,) = stepwise_groups
        assert [(lo, hi) for lo, hi, *_ in group.stages] == [(0, 6), (8, 14)]

    def test_longer_unthrottled_member_stays_fused(self, stepwise_groups):
        longer = (W7, None, replace(self.CFG, duration_s=0.004))
        rider = (W7, None, self.CFG)
        engine, _ = self.run_riders([longer, rider] + self.dvfs())
        assert [m.fused for m in engine.members] == [True] + [False] * 4
        assert [m.width for m in engine.members] == [1] + [4] * 4
        (group,) = stepwise_groups
        assert len(group.members) == 4

    def test_narrow_mix_stays_split_under_the_fleet_backend(
        self, stepwise_groups
    ):
        """Beside one DVFS point, two unthrottled points fuse apart even
        when the fleet backend steps every point in the fleet."""
        points = [
            RunPoint(W7, None, self.CFG),
            RunPoint(get_workload("workload2"), None, self.CFG),
            RunPoint(W7, DVFS, self.CFG),
        ]
        tracer = SpanRecorder()
        runner = ParallelRunner(backend="fleet", tracer=tracer)
        results = runner.run_points(points)
        (group,) = stepwise_groups
        assert len(group.members) == 1
        widths = [
            s.attrs["group_width"] for s in tracer.spans() if s.kind == KIND_POINT
        ]
        assert sorted(widths) == [1, 2, 2]
        for point, result in zip(points, results):
            stepwise = replace(
                point, config=replace(point.config, fuse_steps=False)
            )
            assert result == ParallelRunner(backend="pool").run_points(
                [stepwise]
            )[0]

    def test_telemetry_on_a_rider(self, short_blocks):
        samplers = [TelemetrySampler(2 * DT), None, None, None]
        engine = FleetEngine(
            [(W7, None, self.CFG)] + self.dvfs(), telemetry=samplers
        )
        results = engine.run()
        assert not engine.members[0].fused
        ref_sampler = TelemetrySampler(2 * DT)
        _, ref = scalar_run(
            W7, None, replace(self.CFG, fuse_steps=False),
            telemetry=ref_sampler,
        )
        assert scalar_fields(results[0]) == scalar_fields(
            replace(ref, workload=results[0].workload)
        )
        assert samplers[0].series.times == ref_sampler.series.times
        assert samplers[0].series.columns == ref_sampler.series.columns


class TestTraceWindow:
    def test_positions_wrap_past_the_trace_end(self, short_blocks):
        # A 40-sample trace under a 150-step horizon wraps several times.
        members = [
            (W7, spec, SimulationConfig(
                duration_s=150 * DT, trace_duration_s=40 * DT,
                threshold_c=threshold,
            ))
            for spec in (DVFS, None)
            for threshold in (70.0, 84.2)
        ]
        run_and_check(members)

    def test_dvfs_members_sharing_traces_drift_apart(self, short_blocks):
        """Same traces, thresholds far apart: throttled members fall
        behind unthrottled-looking ones, and one window per trace must
        span both."""
        members = [
            (W7, DVFS, SimulationConfig(duration_s=0.004, threshold_c=t))
            for t in (60.0, 84.2, 120.0)
        ]
        engine = run_and_check(members)
        positions = [
            m.sim.scheduler.processes[0].position for m in engine.members
        ]
        assert len(set(positions)) == 3

    def test_migration_permutes_after_a_refill(self, short_blocks):
        members = [
            (W7, spec, SimulationConfig(
                duration_s=0.006, migration_period_s=1e-3, seed=seed,
            ))
            for spec in (SENSOR, COUNTER)
            for seed in (1, 2)
        ]
        engine = run_and_check(members)
        assert sum(m.sim.scheduler.total_migrations for m in engine.members)

    def test_window_stays_bounded_as_members_drift_traces_apart(
        self, short_blocks, monkeypatch
    ):
        """A horizon of many traces with throttled, frozen and free
        members on shared traces: their positions end whole traces
        apart, yet no window outgrows its trace plus one refill width."""
        n_samples = 40
        sizes = []
        refill = fleet_module._GroupBase._refill

        def recording_refill(group, m, width):
            refill(group, m, width)
            rows = {}
            for j, _first, size in group.win_spec.values():
                rows[j] = rows.get(j, 0) + size
            for j, size in rows.items():
                sizes.append((size, group.traces[j].n_samples, width))
            assert group.pool.shape[0] <= sum(
                t.n_samples + width for t in group.traces
            )

        monkeypatch.setattr(
            fleet_module._GroupBase, "_refill", recording_refill
        )
        cfg = SimulationConfig(
            duration_s=15 * n_samples * DT, trace_duration_s=n_samples * DT
        )
        members = [
            (W7, spec, replace(cfg, threshold_c=threshold))
            for spec in (DVFS, spec_by_key("global-stop-go-none"))
            for threshold in (55.0, 84.2, 120.0)
        ]
        engine = run_and_check(members)
        assert sizes
        for size, n, width in sizes:
            assert size <= n + width
        for spec in (DVFS, spec_by_key("global-stop-go-none")):
            positions = [
                m.sim.scheduler.processes[0].position
                for m in engine.members
                if m.sim.spec == spec
            ]
            assert max(positions) - min(positions) > n_samples

    @staticmethod
    def refill_and_check(n, offsets, windows):
        """Refill three members on ``n``-sample traces, at ``offsets``
        into them (whole traces apart, the last a rounding error short
        of a whole sample), and check each slot's rows and each trace's
        count of windows."""
        cfg = SimulationConfig(duration_s=0.001, trace_duration_s=n * DT)
        group = fleet_module._GroupBase(
            FleetEngine([(W7, DVFS, cfg)] * 3).members
        )
        W = fleet_module._WINDOW
        U = group.n_units
        pos = group.prog[:, :, fleet_module._POS]
        pos[0] = offsets[0]
        pos[1] = 7 * n + offsets[1]
        pos[2] = np.nextafter(n + offsets[2], 0.0)
        group._refill(3, W)

        by_end = {}
        per_trace = {}
        for base, (j, _first, size) in group.win_spec.items():
            by_end[base + size] = (base, j, size)
            per_trace.setdefault(j, []).append(size)
        steps = np.arange(W + 1)
        for (i, c), p in np.ndenumerate(pos):
            j = group.slot_trace[i, c]
            trace = group.traces[j]
            base, window_trace, size = by_end[group.slot_end[i, c]]
            assert window_trace == j
            whole = int(p) + steps
            rows = whole - group.slot_off[i, c]
            assert base <= rows.min() and rows.max() < base + size
            at = whole % n
            np.testing.assert_array_equal(
                group.pool[rows, :U], trace.unit_power[at]
            )
            np.testing.assert_array_equal(
                group.pool[rows, U + fleet_module._L2], trace.l2_activity[at]
            )
        for sizes in per_trace.values():
            assert len(sizes) == windows
        return per_trace, W

    @pytest.mark.parametrize("spread", [False, True])
    def test_refill_covers_every_read_of_the_next_window(self, spread):
        """After a refill, each slot's rows hold the samples of its next
        ``W`` steps and of the one past them, which a float position can
        round up onto. Slots close modulo the trace share a window
        shorter than it; runs of them far apart get a window each."""
        n = 600
        offsets = (5.0, n - 2.0 if spread else 20.5, 40.0)
        per_trace, _W = self.refill_and_check(n, offsets, 1 + spread)
        for sizes in per_trace.values():
            assert all(size < n for size in sizes)

    def test_runs_outgrowing_the_trace_share_one_window(self):
        """Runs whose windows would hold more rows than the trace plus
        ``W`` share one window over all of it."""
        n = 300
        per_trace, W = self.refill_and_check(n, (0.0, 42.5, 300.0), 1)
        for sizes in per_trace.values():
            assert sizes == [n + W]

    def test_fleet_members_never_build_trace_lists(self):
        """The scalar loop builds its Python list columns per run: after
        any scalar or fleet run, no object anywhere still holds one."""
        import gc

        cfg = SimulationConfig(duration_s=0.001)
        engine = FleetEngine([(W7, DVFS, cfg), (W7, None, cfg)])
        engine.run()
        traces = [p.trace for p in engine.members[0].sim.scheduler.processes]
        scalar_run(W7, DVFS, cfg)  # stepwise
        scalar_run(W7, None, cfg)  # fused
        del engine
        gc.collect()
        columns = [
            getattr(trace, name).tolist()
            for trace in traces
            for name in (
                "l2_activity", "instructions", "int_rf_accesses",
                "fp_rf_accesses",
            )
        ]
        n = traces[0].n_samples
        live = [
            obj for obj in gc.get_objects()
            if type(obj) is list and len(obj) == n and obj in columns
        ]
        # The probe's own column lists are the only ones alive.
        assert len(live) == len(columns)
        assert all(any(obj is col for col in columns) for obj in live)
