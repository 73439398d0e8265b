"""A warm regeneration of the grid artifacts keys every point by identity.

Tables 5–8 and Figures 3 and 7 are views over one grid of workloads and
taxonomy cells. Regenerated twice in one process against a disk cache,
as the warm passes of the ``artifacts`` benchmark do, the second pass
must render the same text, simulate nothing, and take every point's key
from the runner's point-key table without encoding a workload, spec or
configuration again. That holds only while every driver passes the
taxonomy's own object of each cell, which is checked too.
"""

from repro.core.taxonomy import ALL_POLICY_SPECS, PolicySpec
from repro.experiments import figure3, figure7, table5, table6, table7, table8
from repro.experiments.common import default_config, set_default_runner
from repro.sim import runner as runner_module
from repro.sim.engine import SimulationConfig
from repro.sim.runner import ParallelRunner, ResultCache
from repro.sim.workloads import ALL_WORKLOADS, Workload

#: The drivers that read the grid through ``run_matrix``.
DRIVERS = (table5, table6, table7, table8, figure3, figure7)
CFG = default_config(duration_s=0.002)
WORKLOADS = ALL_WORKLOADS[:2]


def test_second_pass_is_all_table_hits(tmp_path, monkeypatch):
    real_encode, real_hash = runner_module._encode, runner_module.config_hash
    encoded, specs = [], []

    def spy_encode(obj):
        encoded.append(type(obj))
        return real_encode(obj)

    def spy_hash(point, version=None):
        specs.append(point.spec)
        return real_hash(point, version)

    monkeypatch.setattr(runner_module, "_encode", spy_encode)
    monkeypatch.setattr(runner_module, "config_hash", spy_hash)
    cache = ResultCache(tmp_path)

    def regenerate():
        """Every driver through a fresh runner on the shared disk cache."""
        runner = ParallelRunner(jobs=1, cache=cache)
        previous = set_default_runner(runner)
        try:
            texts = [d.render(d.compute(CFG, WORKLOADS)) for d in DRIVERS]
        finally:
            set_default_runner(previous)
        return texts, runner.stats

    cold_texts, cold_stats = regenerate()
    assert cold_stats.simulated == len(ALL_POLICY_SPECS) * len(WORKLOADS)
    cold_specs = list(specs)
    encoded.clear()
    specs.clear()

    warm_texts, warm_stats = regenerate()
    assert warm_texts == cold_texts
    assert warm_stats.simulated == 0
    assert warm_stats.cache_hits == cold_stats.points
    assert specs == cold_specs
    keyed_types = {Workload, PolicySpec, SimulationConfig} & set(encoded)
    assert not keyed_types, f"warm pass encoded {keyed_types}"
    for spec in specs:
        assert any(spec is cell for cell in ALL_POLICY_SPECS), spec
