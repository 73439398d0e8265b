"""Benchmark: the sensitivity studies (threshold, sensors, PI gains,
migration period).

Paper reference for the threshold sweep (Section 5.3): raising the limit
to 100 C raises duty cycles by ~10-15 percentage points while preserving
the relative tradeoffs.
"""

from benchmarks.conftest import save_result
from repro.experiments import ablations


def test_ablations(benchmark, config, results_dir):
    sweeps = benchmark.pedantic(
        ablations.compute, args=(config,), rounds=1, iterations=1
    )
    save_result(results_dir, "ablations", ablations.render(sweeps))

    # Threshold: duty rises with the limit, ordering preserved.
    by_label = {p.label: p for p in sweeps["threshold"]}
    gain_sg = (
        by_label["Dist. stop-go @ 100.0C"].duty_cycle
        - by_label["Dist. stop-go @ 84.2C"].duty_cycle
    )
    assert 0.03 < gain_sg < 0.45  # paper: +10-15 points
    assert (
        by_label["Dist. DVFS @ 100.0C"].bips
        > by_label["Dist. stop-go @ 100.0C"].bips
    )

    # PI gains: robust across an 8x range around the paper's values
    # (similar BIPS, no emergencies). The 0.25x point marks the lower
    # robustness boundary — a controller that sluggish can briefly
    # overshoot the envelope, which is why it is in the sweep.
    pi_points = sweeps["pi_gains"]
    bips = [p.bips for p in pi_points]
    assert max(bips) / min(bips) < 1.25
    assert all(
        p.emergency_s < 0.002 for p in pi_points if p.label != "gains x0.25"
    )

    # Sensor fidelity: ideal sensors are clean; degradation is graceful.
    sensor = {p.label: p for p in sweeps["sensors"]}
    assert sensor["ideal"].emergency_s == 0.0
    assert sensor["noise 2.0C"].bips > 0.5 * sensor["ideal"].bips

    # Sensor bias: a low-reading sensor breaks the envelope; the hardware
    # trip restores safety.
    bias = {p.label: p for p in sweeps["sensor_bias"]}
    assert bias["reads 3C low"].emergency_s > 0
    assert bias["reads 3C low + hardware trip"].emergency_s == 0.0
