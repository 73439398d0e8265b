"""The comparison rule gives the verdicts it documents."""

from bench.compare import pair_up, series, summarise, verdict


def _verdict(a, b, better="lower", bound=0.1):
    return verdict(a, b, list(zip(a, b)), better, bound)


def test_same_runs_are_unchanged():
    a = [10.0, 10.1, 9.9, 10.05, 9.95]
    assert _verdict(a, list(a)) == "unchanged"


def test_clear_gain_is_better_in_either_direction():
    a = [10.0, 10.1, 9.9, 10.05, 9.95]
    faster = [x * 0.8 for x in a]
    assert _verdict(a, faster) == "better"
    assert _verdict(a, faster, better="higher") == "worse"


def test_wide_spread_is_unresolved_unless_every_run_beats_every_run():
    a = [10.0, 14.0, 8.0, 12.0, 9.0]
    assert _verdict(a, [11.0, 13.0, 9.0, 10.0, 12.0]) == "unresolved"
    assert _verdict(a, [x / 10 for x in a]) == "better"


def test_small_loss_within_bound_is_unchanged_large_loss_worse():
    a = [10.0, 10.1, 9.9, 10.05, 9.95]
    assert _verdict(a, [x * 1.05 for x in a]) == "unchanged"
    assert _verdict(a, [x * 1.3 for x in a]) == "worse"


def test_per_layer_metrics_without_bound_use_the_claim_rule():
    counts = [100.0] * 5
    assert _verdict(counts, counts, bound=None) == "unchanged"
    assert _verdict(counts, [90.0] * 5, bound=None) == "better"
    assert _verdict(counts, [110.0] * 5, bound=None) == "worse"


def test_pairs_match_by_seed_when_possible():
    a = [(1, 10.0), (2, 20.0)]
    b = [(2, 21.0), (1, 11.0)]
    assert pair_up(a, b) == [(10.0, 11.0), (20.0, 21.0)]
    assert pair_up(a, [(3, 1.0), (4, 2.0)]) == [(10.0, 1.0), (20.0, 2.0)]


def test_summary_has_quartiles_per_workload_and_metric():
    records = [
        {"workload": "long-run", "seed": s, "metrics": {"cold_s": v}}
        for s, v in enumerate([1.0, 2.0, 3.0, 4.0, 5.0])
    ]
    summary = summarise(series(records))["long-run"]["cold_s"]
    assert summary == {"median": 3.0, "q1": 1.5, "q3": 4.5, "n": 5}
