"""Public-API surface tests.

The README and examples program against ``repro``'s top-level exports;
these tests pin that surface so refactors cannot silently break users.
"""

import importlib
import inspect

import pytest

import repro


class TestTopLevelExports:
    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_quickstart_surface(self):
        """The exact names the README quickstart uses."""
        for name in (
            "SimulationConfig",
            "run_workload",
            "get_workload",
            "spec_by_key",
            "ALL_POLICY_SPECS",
            "ALL_WORKLOADS",
        ):
            assert name in repro.__all__

    def test_readme_quickstart_executes(self):
        workload = repro.get_workload("workload7")
        spec = repro.spec_by_key("distributed-dvfs-sensor")
        result = repro.run_workload(
            workload, spec, repro.SimulationConfig(duration_s=0.005)
        )
        assert "workload7" in result.summary()


SUBPACKAGES = (
    "repro.util",
    "repro.control",
    "repro.thermal",
    "repro.uarch",
    "repro.osmodel",
    "repro.core",
    "repro.sim",
    "repro.experiments",
)


@pytest.mark.parametrize("module_name", SUBPACKAGES)
def test_subpackage_imports_and_documents(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__, f"{module_name} lacks a module docstring"
    for name in getattr(module, "__all__", []):
        assert hasattr(module, name), f"{module_name}.{name} missing"


EXPERIMENT_MODULES = (
    "repro.experiments.table1",
    "repro.experiments.table5",
    "repro.experiments.table6",
    "repro.experiments.table7",
    "repro.experiments.table8",
    "repro.experiments.figure3",
    "repro.experiments.figure5",
    "repro.experiments.figure7",
    "repro.experiments.ablations",
    "repro.experiments.extensions",
    "repro.experiments.robustness",
    "repro.experiments.manycore",
)


@pytest.mark.parametrize("module_name", EXPERIMENT_MODULES)
def test_experiment_module_contract(module_name):
    """Every experiment module exposes compute/render and no ``main``:
    ``repro experiment <name>`` is the one way to run it."""
    module = importlib.import_module(module_name)
    assert callable(getattr(module, "compute", None)), module_name
    assert callable(getattr(module, "render", None)), module_name
    assert not hasattr(module, "main"), module_name


def test_public_functions_have_docstrings():
    """Spot-check: every public callable in the core packages is documented."""
    import repro.core.dvfs
    import repro.core.migration
    import repro.core.stopgo
    import repro.sim.engine
    import repro.thermal.model

    for module in (
        repro.core.dvfs,
        repro.core.stopgo,
        repro.core.migration,
        repro.sim.engine,
        repro.thermal.model,
    ):
        for name, obj in vars(module).items():
            if name.startswith("_"):
                continue
            if inspect.isclass(obj) or inspect.isfunction(obj):
                if obj.__module__ != module.__name__:
                    continue  # re-exported
                assert obj.__doc__, f"{module.__name__}.{name} lacks a docstring"
