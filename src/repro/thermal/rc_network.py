"""Build the thermal RC network from a floorplan and a package.

Node layout (for ``n`` floorplan blocks):

* nodes ``0 .. n-1`` — silicon blocks, in floorplan order;
* node ``n`` — heat spreader (lumped);
* node ``n+1`` — heatsink (lumped), tied to ambient through the
  convection resistance.

Conductances:

* lateral silicon conduction between adjacent blocks, using HotSpot's
  shared-edge formula ``R = (d_i + d_j) / (k_si * t_die * L_shared)``;
* vertical conduction from each block through half the die and the TIM to
  the spreader;
* spreader -> sink and sink -> ambient lumped resistances.

The network is exported as the matrices of the linear ODE

    C dT/dt = -G T + P + g_amb * T_amb * e_sink

where ``T`` is in degrees Celsius, ``P`` the per-node power injection, and
the ambient enters as a fixed-temperature boundary on the sink node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.thermal.floorplan import Floorplan
from repro.thermal.package import ThermalPackage
from repro.util.units import mm2_to_m2, mm_to_m


@dataclass(frozen=True)
class RCNetwork:
    """The assembled thermal network.

    Attributes:
        node_names: Names of all nodes — floorplan blocks, then
            ``"spreader"`` and ``"sink"``.
        conductance: Symmetric positive-definite matrix ``G`` (W/K)
            including the ambient tie on the sink diagonal.
        capacitance: Per-node heat capacities ``C`` (J/K).
        ambient_c: Boundary temperature (deg C).
        ambient_conductance: ``g_amb`` (W/K) — the sink-to-ambient tie,
            needed to form the constant input term.
    """

    node_names: Tuple[str, ...]
    conductance: np.ndarray
    capacitance: np.ndarray
    ambient_c: float
    ambient_conductance: float

    @property
    def n_nodes(self) -> int:
        """Total node count (blocks + spreader + sink)."""
        return len(self.node_names)

    @property
    def n_blocks(self) -> int:
        """Number of silicon (power-dissipating) nodes."""
        return self.n_nodes - 2

    def index(self, name: str) -> int:
        """Index of a node by name."""
        try:
            return self.node_names.index(name)
        except ValueError:
            raise KeyError(f"no node named {name!r}") from None

    def input_vector(self, block_power_w: np.ndarray) -> np.ndarray:
        """Full input term ``u = P + g_amb * T_amb * e_sink``.

        ``block_power_w`` has one entry per silicon block; spreader and
        sink dissipate nothing themselves.
        """
        block_power_w = np.asarray(block_power_w, dtype=float)
        if block_power_w.shape != (self.n_blocks,):
            raise ValueError(
                f"expected {self.n_blocks} block powers, got {block_power_w.shape}"
            )
        u = np.zeros(self.n_nodes)
        u[: self.n_blocks] = block_power_w
        u[-1] += self.ambient_conductance * self.ambient_c
        return u


def build_rc_network(floorplan: Floorplan, package: ThermalPackage) -> RCNetwork:
    """Assemble the :class:`RCNetwork` for ``floorplan`` under ``package``.

    Each call assembles a new network; the engine keeps one per machine
    on its shared :class:`~repro.sim.engine.EngineSubstrate`.
    """
    n = len(floorplan)
    n_total = n + 2
    spreader = n
    sink = n + 1

    g = np.zeros((n_total, n_total))
    c = np.zeros(n_total)

    def add_conductance(i: int, j: int, value: float) -> None:
        """Stamp conductance ``value`` between nodes ``i`` and ``j``."""
        g[i, i] += value
        g[j, j] += value
        g[i, j] -= value
        g[j, i] -= value

    # Lateral silicon conduction between adjacent blocks.
    k_si = package.silicon.conductivity
    t_die = package.die_thickness_m
    for i, j, shared_mm, di_mm, dj_mm in floorplan.adjacent_pairs():
        shared_m = mm_to_m(shared_mm)
        d_m = mm_to_m(di_mm + dj_mm)
        resistance = d_m / (k_si * t_die * shared_m)
        add_conductance(i, j, 1.0 / resistance)

    # Vertical path: block -> spreader, and block capacitances.
    for i, block in enumerate(floorplan.blocks):
        area_m2 = mm2_to_m2(block.area_mm2)
        add_conductance(i, spreader, 1.0 / package.vertical_resistance_k_per_w(area_m2))
        c[i] = package.block_heat_capacity_j_per_k(area_m2)

    # Spreader -> sink -> ambient.
    add_conductance(spreader, sink, 1.0 / package.sink_resistance_k_per_w)
    g_amb = 1.0 / package.convection_resistance_k_per_w
    g[sink, sink] += g_amb

    c[spreader] = package.spreader_heat_capacity_j_per_k
    c[sink] = package.sink_heat_capacity_j_per_k

    names = tuple(floorplan.names) + ("spreader", "sink")
    return RCNetwork(
        node_names=names,
        conductance=g,
        capacitance=c,
        ambient_c=package.ambient_c,
        ambient_conductance=g_amb,
    )
