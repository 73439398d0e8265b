"""Benchmark: the asymmetric-cores extension study.

Section 9 of the paper names asymmetric cores as a possible extension of
the taxonomy. The study shows (a) thread placement matters on an
asymmetric chip where it does not on the symmetric one, and (b)
sensor-based migration — whose thread-core thermal table learns per-core
biases — recovers a bad placement where core-blind counter-based
migration cannot.
"""

from benchmarks.conftest import save_result
from repro.experiments import extensions


def test_extensions_asymmetric_cores(benchmark, config, results_dir):
    studies = benchmark.pedantic(
        extensions.compute, args=(config,), rounds=1, iterations=1
    )
    save_result(results_dir, "extensions_asymmetric", extensions.render(studies))
    placement, recovery, smt = studies.values()

    by_label = {r.label: r for r in placement}
    # Symmetric chip: placement is (near) irrelevant.
    sym_gap = abs(
        by_label["symmetric, hot on cores 0/1"].bips
        - by_label["symmetric, hot on cores 2/3"].bips
    )
    # Asymmetric chip: placement matters, and good > bad.
    asym_gap = (
        by_label["asymmetric, hot on BIG cores"].bips
        - by_label["asymmetric, hot on SMALL cores"].bips
    )
    assert asym_gap > 0
    assert asym_gap > 2 * sym_gap

    rec = {r.label: r for r in recovery}
    # Sensor-based migration recovers the bad placement; counter-based,
    # being core-blind, gains far less.
    sensor_gain = rec["sensor-based migration"].bips - rec["no migration"].bips
    counter_gain = rec["counter-based migration"].bips - rec["no migration"].bips
    assert sensor_gain > 0.02 * rec["no migration"].bips
    assert sensor_gain > counter_gain
    assert rec["sensor-based migration"].migrations > 0

    # SMT study: at equal area, one thread per smaller core wins under a
    # thermal limit (the Donald & Martonosi [9] / Li et al. finding).
    by_smt = {r.label: r for r in smt}
    cmp4 = by_smt["CMP-4: one thread per core"].bips
    best_smt = max(
        r.bips for label, r in by_smt.items() if label.startswith("SMT-2")
    )
    assert cmp4 > best_smt
