"""Shared fixtures.

Simulation-heavy tests use short horizons (tens of milliseconds of
silicon time) — enough for the policies to engage (thermal time constants
are single-digit milliseconds) while keeping the suite fast. Session-
scoped fixtures share expensive artifacts (traces, reference runs).
"""

from __future__ import annotations

import os

import pytest

from repro.core.taxonomy import spec_by_key
from repro.sim.engine import SimulationConfig, run_workload
from repro.sim.workloads import get_workload
from repro.thermal.layouts import build_cmp_floorplan
from repro.thermal.model import ThermalModel
from repro.thermal.package import HIGH_PERFORMANCE_PACKAGE
from repro.uarch.config import MachineConfig
from repro.uarch.tracegen import generate_trace

try:
    from hypothesis import settings as hypothesis_settings
except ImportError:  # the property tests skip without Hypothesis
    hypothesis_settings = None

if hypothesis_settings is not None:
    # ``pytest --hypothesis-profile=ci`` runs every property test with at
    # least this many examples (see pytest_collection_modifyitems); the
    # default profile leaves each test's own ``@settings`` count alone.
    hypothesis_settings.register_profile("ci", max_examples=100, deadline=None)


def pytest_collection_modifyitems(config, items):
    """Under the ``ci`` profile, lift each property test's example count.

    A test's explicit ``@settings(max_examples=...)`` outranks any
    profile, so the profile's count is applied here as a floor.
    """
    if (
        hypothesis_settings is None
        or config.getoption("hypothesis_profile", None) != "ci"
    ):
        return
    floor = hypothesis_settings.get_profile("ci").max_examples
    for item in items:
        test = getattr(item, "obj", None)
        test = getattr(test, "__func__", test)  # a method's function
        own = getattr(test, "_hypothesis_internal_use_settings", None)
        if own is not None and own.max_examples < floor:
            test._hypothesis_internal_use_settings = hypothesis_settings(
                own, max_examples=floor
            )


@pytest.fixture(scope="session", autouse=True)
def _isolated_result_cache(tmp_path_factory):
    """Point the on-disk result cache at a per-session temp directory.

    CLI invocations under test would otherwise write to the user's real
    ``~/.cache/repro-dtm``."""
    old = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(tmp_path_factory.mktemp("result-cache"))
    yield
    if old is None:
        os.environ.pop("REPRO_CACHE_DIR", None)
    else:
        os.environ["REPRO_CACHE_DIR"] = old


@pytest.fixture(scope="session")
def machine() -> MachineConfig:
    """The paper's Table 3 machine."""
    return MachineConfig()


@pytest.fixture(scope="session")
def quick_config() -> SimulationConfig:
    """A short-horizon simulation configuration for engine tests."""
    return SimulationConfig(duration_s=0.05)


@pytest.fixture(scope="session")
def cmp_floorplan():
    """The 4-core chip floorplan."""
    return build_cmp_floorplan()


@pytest.fixture(scope="session")
def thermal_model(cmp_floorplan, machine):
    """A fresh-per-test thermal model factory is overkill; most thermal
    tests only read structure. Tests that mutate state construct their
    own models."""
    return ThermalModel(
        cmp_floorplan, HIGH_PERFORMANCE_PACKAGE, machine.sample_period_s
    )


@pytest.fixture(scope="session")
def gzip_trace(machine):
    """A short gzip power trace."""
    return generate_trace("gzip", machine, duration_s=0.02)


@pytest.fixture(scope="session")
def mcf_trace(machine):
    """A short mcf power trace."""
    return generate_trace("mcf", machine, duration_s=0.02)


@pytest.fixture(scope="session")
def quick_dvfs_run(quick_config):
    """One short distributed-DVFS run of workload7, shared read-only."""
    return run_workload(
        get_workload("workload7"), spec_by_key("distributed-dvfs-none"), quick_config
    )


@pytest.fixture(scope="session")
def quick_stopgo_run(quick_config):
    """One short distributed-stop-go run of workload7, shared read-only."""
    return run_workload(
        get_workload("workload7"),
        spec_by_key("distributed-stop-go-none"),
        quick_config,
    )
