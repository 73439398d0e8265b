"""The Table 2 taxonomy: 12 policy combinations and their factory.

Three orthogonal axes — throttling mechanism x scope x migration — give
2 x 2 x 3 = 12 schemes. :data:`ALL_POLICY_SPECS` enumerates them in the
paper's table order (rows: global, distributed; columns: no migration,
counter-based, sensor-based; stop-go before DVFS within each cell pair),
and :func:`build_policy` constructs the runnable policy objects.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Sequence, Tuple

from repro.core.counter_migration import CounterBasedMigration
from repro.core.dvfs import DVFSPolicy
from repro.core.migration import MigrationPolicy
from repro.core.policy import DEFAULT_THRESHOLD_C, ThrottlePolicy
from repro.core.sensor_migration import SensorBasedMigration
from repro.core.stopgo import StopGoPolicy


class ThrottleKind(enum.Enum):
    """First axis: the low-level throttling mechanism."""

    STOP_GO = "stop-go"
    DVFS = "dvfs"


class Scope(enum.Enum):
    """Second axis: global chip-wide control vs. per-core control."""

    GLOBAL = "global"
    DISTRIBUTED = "distributed"


class MigrationKind(enum.Enum):
    """Third axis: the OS migration mechanism."""

    NONE = "none"
    COUNTER = "counter"
    SENSOR = "sensor"


@dataclass(frozen=True)
class PolicySpec:
    """One cell of Table 2."""

    throttle: ThrottleKind
    scope: Scope
    migration: MigrationKind

    @property
    def name(self) -> str:
        """Human-readable name matching the paper's terminology."""
        scope = "Global" if self.scope is Scope.GLOBAL else "Dist."
        mech = "stop-go" if self.throttle is ThrottleKind.STOP_GO else "DVFS"
        base = f"{scope} {mech}"
        if self.migration is MigrationKind.COUNTER:
            return f"{base} + counter-based migration"
        if self.migration is MigrationKind.SENSOR:
            return f"{base} + sensor-based migration"
        return base

    @property
    def is_baseline(self) -> bool:
        """Whether this is the paper's baseline (distributed stop-go)."""
        return (
            self.throttle is ThrottleKind.STOP_GO
            and self.scope is Scope.DISTRIBUTED
            and self.migration is MigrationKind.NONE
        )

    @cached_property
    def key(self) -> str:
        """Stable machine-readable identifier.

        Computed once per instance: a warm artifact pass reads it for
        every in-memory lookup. It lives in the instance ``__dict__``,
        not in a field, so equality, hashing and cache keys ignore it.
        """
        return f"{self.scope.value}-{self.throttle.value}-{self.migration.value}"


def _spec_order() -> List[PolicySpec]:
    specs = []
    for migration in (MigrationKind.NONE, MigrationKind.COUNTER, MigrationKind.SENSOR):
        for scope in (Scope.GLOBAL, Scope.DISTRIBUTED):
            for throttle in (ThrottleKind.STOP_GO, ThrottleKind.DVFS):
                specs.append(PolicySpec(throttle, scope, migration))
    return specs


#: All 12 combinations in Table 2 order (migration-major, global row first).
ALL_POLICY_SPECS: Tuple[PolicySpec, ...] = tuple(_spec_order())

#: The paper's baseline: distributed stop-go, no migration (the
#: :data:`ALL_POLICY_SPECS` object of that cell).
BASELINE_SPEC = next(spec for spec in ALL_POLICY_SPECS if spec.is_baseline)


#: Token spellings accepted by :func:`spec_by_key` beyond the canonical
#: key (axis order is also free, so ``dvfs-dist-none`` resolves to
#: ``distributed-dvfs-none``).
_KEY_ALIASES = {
    "dist": ("distributed",),
    "distributed": ("distributed",),
    "global": ("global",),
    "dvfs": ("dvfs",),
    "stopgo": ("stop", "go"),
    "stop": ("stop",),
    "go": ("go",),
    "none": ("none",),
    "counter": ("counter",),
    "sensor": ("sensor",),
}


def spec_by_key(key: str) -> PolicySpec:
    """Look up a spec by its :attr:`PolicySpec.key`.

    The result is the :data:`ALL_POLICY_SPECS` object of the cell, so
    every caller shares one object per cell. Exact keys always win; otherwise common alias spellings are accepted
    — axis tokens in any order, ``dist`` for ``distributed``, ``stopgo``
    for ``stop-go`` — so CLI users can type ``dvfs-dist-none`` for
    ``distributed-dvfs-none``.
    """
    for spec in ALL_POLICY_SPECS:
        if spec.key == key:
            return spec
    tokens: List[str] = []
    for token in key.lower().split("-"):
        expanded = _KEY_ALIASES.get(token)
        if expanded is None:
            raise KeyError(f"unknown policy key {key!r}")
        tokens.extend(expanded)
    wanted = sorted(tokens)
    for spec in ALL_POLICY_SPECS:
        if sorted(spec.key.split("-")) == wanted:
            return spec
    raise KeyError(f"unknown policy key {key!r}")


def build_policy(
    spec: PolicySpec,
    n_cores: int,
    dt: float,
    threshold_c: float = DEFAULT_THRESHOLD_C,
    core_min_scales: Optional[Sequence[float]] = None,
) -> Tuple[ThrottlePolicy, Optional[MigrationPolicy]]:
    """Instantiate the throttle and (optional) migration policy for a spec.

    Parameters
    ----------
    spec:
        The taxonomy cell.
    n_cores:
        Number of cores.
    dt:
        Control period (trace sample period) for the DVFS PI design.
    threshold_c:
        Thermal emergency threshold.
    core_min_scales:
        Optional per-core DVFS floors (a scenario's per-class operating
        points, see :mod:`repro.scenarios`). Applies only to DVFS
        throttling — stop-go is binary clock gating, not an operating
        point. ``None`` keeps the paper's uniform 0.2 floor.
    """
    if spec.throttle is ThrottleKind.STOP_GO:
        throttle: ThrottlePolicy = StopGoPolicy(
            n_cores, scope=spec.scope.value, threshold_c=threshold_c
        )
    else:
        throttle = DVFSPolicy(
            n_cores,
            dt=dt,
            scope=spec.scope.value,
            threshold_c=threshold_c,
            output_floors=core_min_scales,
        )

    migration: Optional[MigrationPolicy]
    if spec.migration is MigrationKind.NONE:
        migration = None
    elif spec.migration is MigrationKind.COUNTER:
        migration = CounterBasedMigration()
    else:
        migration = SensorBasedMigration()
    return throttle, migration
