"""Tests for the engine's migration-trigger logic.

The paper actuates migration "when the local thermal control of at least
two individual cores signals that their critical hotspots have changed";
the engine adds a frozen-core urgency trigger and a profiling fallback.
These tests drive `_migration_triggered` directly.
"""


from repro.core.taxonomy import spec_by_key
from repro.sim.engine import SimulationConfig, ThermalTimingSimulator
from repro.sim.workloads import get_workload

W7 = get_workload("workload7")
CFG = SimulationConfig(duration_s=0.02)


def make_sim(key="distributed-dvfs-counter"):
    return ThermalTimingSimulator(W7.benchmarks, spec_by_key(key), CFG)


def readings(units):
    """Per-core readings whose critical unit is given by ``units``."""
    out = []
    for u in units:
        other = "fpreg" if u == "intreg" else "intreg"
        out.append({u: 83.0, other: 78.0})
    return out


class TestCriticalChangeTrigger:
    def test_first_call_always_triggers(self):
        sim = make_sim()
        assert sim._migration_triggered(0.0, readings(["intreg"] * 4))

    def test_no_change_no_trigger(self):
        sim = make_sim()
        r = readings(["intreg"] * 4)
        sim._migration_triggered(0.0, r)
        assert not sim._migration_triggered(0.01, r)

    def test_one_change_insufficient(self):
        sim = make_sim()
        sim._migration_triggered(0.0, readings(["intreg"] * 4))
        one = readings(["fpreg", "intreg", "intreg", "intreg"])
        assert not sim._migration_triggered(0.01, one)

    def test_two_changes_trigger(self):
        """"at least two individual cores" (Section 6.1)."""
        sim = make_sim()
        sim._migration_triggered(0.0, readings(["intreg"] * 4))
        two = readings(["fpreg", "fpreg", "intreg", "intreg"])
        assert sim._migration_triggered(0.01, two)

    def test_reference_updates_on_trigger(self):
        sim = make_sim()
        sim._migration_triggered(0.0, readings(["intreg"] * 4))
        two = readings(["fpreg", "fpreg", "intreg", "intreg"])
        sim._migration_triggered(0.01, two)
        # The same pattern again is now the reference: no re-trigger.
        assert not sim._migration_triggered(0.02, two)


class TestUrgencyTrigger:
    def test_frozen_core_triggers_under_stopgo(self):
        sim = make_sim("distributed-stop-go-counter")
        r = readings(["intreg"] * 4)
        sim._migration_triggered(0.0, r)
        # Trip core 0 so it freezes; same critical pattern otherwise.
        hot = [max(x.values()) for x in r]
        hot[0] = 84.1
        sim.throttle.scales_from_hottest(0.005, hot)
        assert sim.throttle.is_frozen(0, 0.006)
        assert sim._migration_triggered(0.01, r)


class TestProfilingFallback:
    def test_sensor_policy_triggers_while_table_insufficient(self):
        sim = make_sim("distributed-dvfs-sensor")
        r = readings(["intreg"] * 4)
        sim._migration_triggered(0.0, r)
        # No critical change, but the table is empty -> stale fallback
        # fires once three periods elapse.
        assert not sim._migration_triggered(0.01, r)
        assert sim._migration_triggered(0.05, r)

    def test_counter_policy_has_no_stale_fallback(self):
        sim = make_sim("distributed-dvfs-counter")
        r = readings(["intreg"] * 4)
        sim._migration_triggered(0.0, r)
        assert not sim._migration_triggered(0.05, r)
        assert not sim._migration_triggered(1.0, r)
