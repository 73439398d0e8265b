"""Tests for the sensitivity/ablation studies."""


from repro.experiments import ablations
from repro.experiments.common import default_config

CFG = default_config(duration_s=0.04)
WORKLOADS = ("workload3", "workload7")


class TestThresholdSweep:
    def test_higher_threshold_higher_duty(self):
        """Section 5.3: raising the limit to 100 C raises duty cycles."""
        points = ablations.threshold_sweep(
            thresholds=(84.2, 100.0), config=CFG, workloads=WORKLOADS
        )
        by_label = {p.label: p for p in points}
        for policy in ("Dist. stop-go", "Dist. DVFS"):
            low = by_label[f"{policy} @ 84.2C"].duty_cycle
            high = by_label[f"{policy} @ 100.0C"].duty_cycle
            assert high > low

    def test_ordering_preserved_across_thresholds(self):
        """"the relative performance tradeoffs remain as presented"."""
        points = ablations.threshold_sweep(
            thresholds=(84.2, 100.0), config=CFG, workloads=WORKLOADS
        )
        by_label = {p.label: p for p in points}
        for t in ("84.2", "100.0"):
            assert (
                by_label[f"Dist. DVFS @ {t}C"].bips
                > by_label[f"Dist. stop-go @ {t}C"].bips
            )


class TestSensorFidelity:
    def test_ideal_no_emergencies(self):
        points = ablations.sensor_fidelity_sweep(config=CFG, workloads=WORKLOADS)
        ideal = next(p for p in points if p.label == "ideal")
        assert ideal.emergency_s == 0.0

    def test_noise_degrades_gracefully(self):
        points = ablations.sensor_fidelity_sweep(config=CFG, workloads=WORKLOADS)
        by_label = {p.label: p for p in points}
        # Heavy noise may cost duty or safety, but the system keeps working.
        assert by_label["noise 2.0C"].bips > 0.3 * by_label["ideal"].bips


class TestSensorBias:
    def test_low_bias_breaks_envelope_and_trip_restores_it(self):
        points = {p.label: p for p in ablations.sensor_bias_sweep(
            config=CFG, workloads=WORKLOADS
        )}
        assert points["reads 3C low"].emergency_s > 0
        assert points["reads 3C low + hardware trip"].emergency_s == 0.0
        assert points["calibrated"].emergency_s == 0.0

    def test_high_bias_conservative(self):
        points = {p.label: p for p in ablations.sensor_bias_sweep(
            config=CFG, workloads=WORKLOADS
        )}
        assert points["reads 3C high"].bips <= points["calibrated"].bips


class TestPiGainSweep:
    def test_wide_gain_range_remains_safe(self):
        """Section 4.1: the constants "can deviate significantly"."""
        points = ablations.pi_gain_sweep(
            gain_factors=(0.5, 1.0, 2.0), config=CFG
        )
        for p in points:
            assert p.emergency_s < 0.002, p.label
            assert p.bips > 0

    def test_throughput_insensitive_near_nominal(self):
        points = ablations.pi_gain_sweep(gain_factors=(0.5, 1.0, 2.0), config=CFG)
        bips = [p.bips for p in points]
        assert max(bips) / min(bips) < 1.2


class TestMigrationPeriod:
    def test_sweep_produces_points(self):
        points = ablations.migration_period_sweep(
            periods_s=(5e-3, 20e-3), config=CFG, workloads=WORKLOADS
        )
        assert len(points) == 2
        for p in points:
            assert p.bips > 0


class TestRender:
    def test_render(self):
        points = ablations.migration_period_sweep(
            periods_s=(10e-3,), config=CFG, workloads=WORKLOADS
        )
        text = ablations.render({"demo": points})
        assert "Ablation: demo" in text
        assert "period 10 ms" in text
