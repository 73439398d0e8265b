"""Micro-tests of the engine's overhead accounting.

The paper charges 10 us per accepted DVFS transition and 100 us per core
involved in a migration; these tests verify the charges actually land in
the duty-cycle arithmetic.
"""

import pytest

from repro.core.taxonomy import spec_by_key
from repro.obs.telemetry import TelemetrySampler
from repro.sim.engine import SimulationConfig, ThermalTimingSimulator, _TrendWindow
from repro.sim.workloads import get_workload
from repro.thermal.layouts import HOTSPOT_UNITS

W7 = get_workload("workload7")


class TestTransitionPenalty:
    def test_transitions_counted_and_charged(self):
        cfg = SimulationConfig(duration_s=0.03)
        sim = ThermalTimingSimulator(
            W7.benchmarks, spec_by_key("distributed-dvfs-none"), cfg
        )
        result = sim.run()
        assert result.dvfs_transitions > 0
        # Duty cannot be perfect when transitions are being charged and
        # the workload is hot enough to throttle.
        assert result.duty_cycle < 1.0

    def test_zero_penalty_machine_runs_faster(self):

        from repro.uarch.config import DVFSConfig, MachineConfig

        cheap_machine = MachineConfig(
            dvfs=DVFSConfig(transition_penalty_s=1e-9)
        )
        cfg_cheap = SimulationConfig(duration_s=0.03, machine=cheap_machine)
        cfg_normal = SimulationConfig(duration_s=0.03)
        spec = spec_by_key("distributed-dvfs-none")
        fast = ThermalTimingSimulator(W7.benchmarks, spec, cfg_cheap).run()
        normal = ThermalTimingSimulator(W7.benchmarks, spec, cfg_normal).run()
        # A near-free PLL can only help (equal within noise at worst).
        assert fast.bips >= normal.bips * 0.995


class TestMigrationPenalty:
    def test_migration_stalls_charged(self):
        cfg = SimulationConfig(duration_s=0.05)
        spec = spec_by_key("distributed-stop-go-counter")
        sim = ThermalTimingSimulator(W7.benchmarks, spec, cfg)
        result = sim.run()
        assert result.migrations > 0
        # 100 us per involved core: the stall ledger saw at least that.
        # (Stop-go freezes are not stalls; only overheads are.)
        # Reconstruct from the scheduler history.
        total_involved = sum(
            len(r.cores_involved) for r in sim.scheduler.migration_history
        )
        assert total_involved >= result.migrations

    def test_expensive_migration_discourages_benefit(self):
        from repro.uarch.config import MachineConfig

        spec = spec_by_key("distributed-stop-go-counter")
        cheap_cfg = SimulationConfig(duration_s=0.04)
        pricey_machine = MachineConfig(migration_penalty_s=5e-3)  # 50x cost
        pricey_cfg = SimulationConfig(duration_s=0.04, machine=pricey_machine)
        cheap = ThermalTimingSimulator(W7.benchmarks, spec, cheap_cfg).run()
        pricey = ThermalTimingSimulator(W7.benchmarks, spec, pricey_cfg).run()
        assert pricey.bips < cheap.bips


class TestConservation:
    def test_instructions_conserved_across_migrations(self):
        """Total retired instructions equal the sum of per-process counter
        totals even while threads hop cores (no work lost or duplicated in
        the hand-off)."""
        cfg = SimulationConfig(duration_s=0.05)
        spec = spec_by_key("distributed-dvfs-counter")
        sim = ThermalTimingSimulator(W7.benchmarks, spec, cfg)
        result = sim.run()
        counter_total = sum(
            p.counters.instructions for p in sim.scheduler.processes
        )
        assert counter_total == pytest.approx(result.instructions, rel=1e-9)

    def test_trace_positions_match_adjusted_cycles(self):
        """Each process's trace position (full-speed samples) agrees with
        its adjusted-cycle counter (the same quantity in other units)."""
        cfg = SimulationConfig(duration_s=0.03)
        spec = spec_by_key("distributed-dvfs-none")
        sim = ThermalTimingSimulator(W7.benchmarks, spec, cfg)
        sim.run()
        for proc in sim.scheduler.processes:
            samples_from_cycles = (
                proc.counters.adjusted_cycles / proc.trace.sample_cycles
            )
            assert proc.position == pytest.approx(
                samples_from_cycles, rel=1e-6
            )


class TestTrendWindowGradient:
    """The dT/dt fed to sensor-based migration must be unbiased."""

    @staticmethod
    def _readings(temp: float):
        return [{unit: temp for unit in HOTSPOT_UNITS}]

    def test_linear_ramp_recovered_exactly(self):
        """n samples of a linear ramp span (n-1)*dt, not n*dt: a 100 C/s
        ramp must read as 100 C/s, not 100*(n-1)/n."""
        window = _TrendWindow(n_cores=1, n_units=len(HOTSPOT_UNITS))
        dt = 1e-3
        slope = 100.0
        for k in range(5):
            window.accumulate(self._readings(50.0 + slope * k * dt), dt)
        assert window.gradient(0, 0) == pytest.approx(slope, rel=1e-12)

    def test_two_samples(self):
        window = _TrendWindow(n_cores=1, n_units=len(HOTSPOT_UNITS))
        dt = 2e-3
        window.accumulate(self._readings(60.0), dt)
        window.accumulate(self._readings(61.0), dt)
        assert window.gradient(0, 0) == pytest.approx(1.0 / dt)

    def test_degenerate_windows_are_zero(self):
        window = _TrendWindow(n_cores=1, n_units=len(HOTSPOT_UNITS))
        assert window.gradient(0, 0) == 0.0
        window.accumulate(self._readings(70.0), 1e-3)
        assert window.gradient(0, 0) == 0.0


class TestFrozenStallAccounting:
    """Overhead stalls overlapping a freeze still count as overhead."""

    def test_stall_ledger_conserves_charged_penalties(self):
        """Under biased sensors + the hardware trip, the PI keeps issuing
        PLL transitions while PROCHOT freezes the chip, so penalty windows
        overlap freezes. Every charged second must still land in
        ``stall_time_s`` (minus only the tail beyond the run's end)."""
        cfg = SimulationConfig(
            duration_s=0.05, sensor_offset_c=-3.0, hardware_trip=True
        )
        w3 = get_workload("workload3")
        sim = ThermalTimingSimulator(
            w3.benchmarks, spec_by_key("distributed-dvfs-none"), cfg
        )
        result = sim.run()
        assert result.prochot_events > 0, "scenario must exercise freezes"
        charged = sum(
            a.transitions for a in sim.actuators
        ) * cfg.machine.dvfs.transition_penalty_s
        n_steps = max(1, round(cfg.duration_s / sim.dt))
        end = n_steps * sim.dt
        unserved = sum(max(until - end, 0.0) for until in sim._stall_until)
        assert sim.metrics.stall_time_s == pytest.approx(
            charged - unserved, abs=1e-12
        )

    def test_stall_ledger_with_migrations(self):
        """Same conservation when migration context switches also charge
        the ledger (100 us per involved core)."""
        cfg = SimulationConfig(duration_s=0.05)
        sim = ThermalTimingSimulator(
            W7.benchmarks, spec_by_key("distributed-stop-go-counter"), cfg
        )
        result = sim.run()
        assert result.migrations > 0
        involved = sum(
            len(r.cores_involved) for r in sim.scheduler.migration_history
        )
        charged = involved * cfg.machine.migration_penalty_s
        n_steps = max(1, round(cfg.duration_s / sim.dt))
        end = n_steps * sim.dt
        unserved = sum(max(until - end, 0.0) for until in sim._stall_until)
        assert sim.metrics.stall_time_s == pytest.approx(
            charged - unserved, abs=1e-12
        )


class TestStopGoPowerModel:
    def test_frozen_core_still_leaks(self):
        """Stop-go preserves state: dynamic power stops, leakage does not,
        so a globally frozen chip stays well above ambient."""
        cfg = SimulationConfig(duration_s=0.04)
        spec = spec_by_key("global-stop-go-none")
        sampler = TelemetrySampler(cfg.machine.sample_period_s)
        sim = ThermalTimingSimulator(W7.benchmarks, spec, cfg, telemetry=sampler)
        sim.run()
        series = sampler.series
        cores = range(sim.n_cores)
        # The last sample after a fully frozen step (every scale zero).
        frozen = [
            k for k in range(series.n_samples)
            if all(
                series.column(f'core_freq_scale{{core="{c}"}}')[k] < 1e-9
                for c in cores
            )
        ]
        assert frozen, "global stop-go never froze the chip"
        k = frozen[-1]
        coolest = min(
            series.column(f'hotspot_temp_c{{core="{c}",unit="{u}"}}')[k]
            for c in cores
            for u in HOTSPOT_UNITS
        )
        assert coolest > cfg.package.ambient_c + 3.0