"""HotSpot-equivalent compact thermal model.

Temperature is computed by the thermal-electrical duality HotSpot uses:
every floorplan block is an RC node, lateral resistances couple adjacent
silicon blocks, and a vertical path (bulk silicon -> thermal interface
material -> heat spreader -> heatsink -> convection) carries heat to the
ambient. The resulting linear ODE ``C dT/dt = -G T + u`` is advanced with
a precomputed exponential integrator, which is exact for the
piecewise-constant power inputs our trace-driven simulation produces and
unconditionally stable at any step size.

Public surface:

* :class:`repro.thermal.floorplan.Floorplan` / ``Block`` — geometry;
* :func:`repro.thermal.layouts.build_cmp_floorplan` — the 4-core chip;
* :class:`repro.thermal.package.ThermalPackage` — TIM/spreader/sink;
* :class:`repro.thermal.model.ThermalModel` — transient + steady solver;
* :class:`repro.thermal.leakage.LeakageModel` — temperature-dependent
  leakage power.

Sensor readings (offset, noise, half-up quantization, faults) are taken
by the engines from the model's hotspot temperatures; see
:mod:`repro.sim.engine`.
"""

from repro.thermal.coupling import (
    LeakageCouplingError,
    coupled_steady_state,
    initialize_coupled_steady,
)
from repro.thermal.floorplan import Block, Floorplan
from repro.thermal.grid_model import GridThermalModel
from repro.thermal.layouts import (
    build_cmp_floorplan,
    build_core_floorplan,
    build_mobile_floorplan,
    core_block_name,
)
from repro.thermal.leakage import LeakageModel
from repro.thermal.model import ThermalModel
from repro.thermal.package import ThermalPackage
from repro.thermal.rc_network import RCNetwork

__all__ = [
    "Block",
    "Floorplan",
    "GridThermalModel",
    "LeakageCouplingError",
    "LeakageModel",
    "RCNetwork",
    "ThermalModel",
    "ThermalPackage",
    "build_cmp_floorplan",
    "build_core_floorplan",
    "coupled_steady_state",
    "initialize_coupled_steady",
    "build_mobile_floorplan",
    "core_block_name",
]
