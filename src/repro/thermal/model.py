"""Transient and steady-state thermal solver.

The network ODE ``C dT/dt = -G T + u`` is linear and time-invariant, so
for a fixed step ``dt`` with power held constant across the step (exactly
our situation: power traces are piecewise constant at the sample period)
the update

    T[k+1] = T_ss(u) + A_d (T[k] - T_ss(u)),   A_d = expm(-C^-1 G dt)

is *exact*, unconditionally stable, and — rewritten in the affine form

    T[k+1] = A_d T[k] + B_d p[k] + c_amb

with ``B_d = (I - A_d) G^-1`` restricted to the power-injecting block
columns and ``c_amb`` the folded ambient boundary term — costs exactly
two dense mat-vecs and one vector add per step after a one-time ``expm``
and matrix solve. ``T_ss(u) = G^-1 u`` is the steady state under input
``u``. See ``docs/PERFORMANCE.md`` for the full derivation.

The matrix side of that machinery (network assembly, LU factorization,
propagator cache) is stateless with respect to any particular chip's
temperature trajectory, so it lives in :class:`ThermalKernel` and can be
shared by any number of :class:`ThermalModel` instances over the same
floorplan and package — the fleet engine stacks hundreds of chips on one
kernel and pays for ``expm`` exactly once.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np
from scipy.linalg import expm, lu_factor, lu_solve

from repro.thermal.floorplan import Floorplan
from repro.thermal.package import ThermalPackage
from repro.thermal.rc_network import RCNetwork, build_rc_network


class StepOperator:
    """Precomputed affine propagator for one step size.

    Applies the exact exponential-integrator update
    ``T' = a_d @ T + b_d @ p + c_amb`` where ``p`` is the block power
    vector. Instances are immutable and cached per ``dt`` by
    :meth:`ThermalKernel.operator_for`; the engine's fused and stepwise
    paths both advance temperatures exclusively through :meth:`apply`,
    which is what makes their trajectories bit-identical.

    Both :meth:`apply` and the vectorised :meth:`apply_batch` evaluate
    the mat-vecs with ``np.einsum`` rather than BLAS ``@``: einsum's
    sum-of-products loop is shape-invariant, so row ``i`` of a batched
    ``(m, n)`` application is **bitwise equal** to a scalar application
    of row ``i`` for every batch size ``m`` — the contract the fleet
    engine's batch-equals-scalar guarantee rests on. BLAS gemm/gemv
    pick different blocking per shape and break that equality at the
    last ulp (~1e-13 here), which is why ``@`` is not used even though
    a lone gemv is ~2x faster than a lone einsum.

    Attributes:
        dt: Step size (seconds) this operator integrates over.
        a_d: Homogeneous propagator ``expm(-C^-1 G dt)``, ``(n, n)``.
        b_d: Input map ``(I - a_d) G^-1`` restricted to block columns,
            ``(n, n_blocks)``.
        c_amb: Folded constant ambient-boundary contribution, ``(n,)``.
    """

    __slots__ = ("dt", "a_d", "b_d", "c_amb")

    def __init__(self, dt: float, a_d: np.ndarray, b_d: np.ndarray, c_amb: np.ndarray):
        """Wrap precomputed matrices; see :meth:`ThermalKernel.operator_for`."""
        self.dt = float(dt)
        self.a_d = a_d
        self.b_d = b_d
        self.c_amb = c_amb

    def apply(self, temperatures: np.ndarray, block_power_w: np.ndarray) -> np.ndarray:
        """One exact ``dt`` step; returns the new node-temperature vector.

        Args:
            temperatures: Current node temperatures, shape ``(n_nodes,)``.
            block_power_w: Power held constant over the step, shape
                ``(n_blocks,)``. Not validated — hot-path callers own
                their buffers; go through :meth:`ThermalModel.step` for a
                validated entry point.

        Returns:
            A freshly allocated ``(n_nodes,)`` array (inputs untouched).
        """
        return (
            np.einsum("ij,j->i", self.a_d, temperatures)
            + np.einsum("ij,j->i", self.b_d, block_power_w)
            + self.c_amb
        )

    def apply_batch(
        self, temperatures: np.ndarray, block_power_w: np.ndarray
    ) -> np.ndarray:
        """One exact ``dt`` step for a whole batch of independent chips.

        Args:
            temperatures: ``(m, n_nodes)`` C-contiguous stack, one row
                per chip.
            block_power_w: ``(m, n_blocks)`` power rows, constant over
                the step.

        Returns:
            ``(m, n_nodes)`` array whose row ``i`` is bitwise equal to
            ``apply(temperatures[i], block_power_w[i])`` — einsum's
            summation order per output element does not depend on the
            batch size (see class docstring), so batched stepping is
            exact, not merely close.
        """
        return (
            np.einsum("ij,mj->mi", self.a_d, temperatures)
            + np.einsum("ij,mj->mi", self.b_d, block_power_w)
            + self.c_amb
        )


def _dt_key(dt: float) -> str:
    """Exact cache key for a step size.

    Keyed on the float's bit pattern (``float.hex``) so near-equal but
    distinct ``dt`` values can never alias to one propagator — the old
    ``round(dt, 15)`` key collapsed any two steps within 5e-16 of each
    other onto whichever was computed first.
    """
    return float(dt).hex()


class ThermalKernel:
    """Shared, temperature-free thermal machinery for one floorplan/package.

    Owns the RC network, its LU factorization and the per-``dt``
    propagator cache. A kernel carries no transient state, so one
    instance can back any number of :class:`ThermalModel` chips — every
    model handed the same kernel reuses the same :class:`StepOperator`
    objects (one ``expm`` per distinct step size, ever) and therefore
    steps through literally the same matrices. Models on other threads
    may share it too: solves through its LU factorization take a lock
    (see :meth:`_solve`).
    """

    def __init__(self, floorplan: Floorplan, package: ThermalPackage):
        """Build and factor the network; propagators are built lazily."""
        self.floorplan = floorplan
        self.package = package
        self.network: RCNetwork = build_rc_network(floorplan, package)
        self._g_lu = lu_factor(self.network.conductance)
        self._solve_lock = threading.Lock()
        self._c_inv = 1.0 / self.network.capacitance
        self._propagators: Dict[str, StepOperator] = {}

    def _solve(self, rhs: np.ndarray) -> np.ndarray:
        """``G^-1 rhs`` through the kernel's LU factorization.

        SciPy's ``getrs`` wrapper shifts the pivot array to 1-based
        indices in place while the GIL is released, so two threads
        solving on one factorization at once read each other's shifted
        pivots and write out of bounds (glibc aborts with a corrupted
        heap). The lock serialises the solves of one kernel.
        """
        with self._solve_lock:
            return lu_solve(self._g_lu, rhs)

    def operator_for(self, dt: float) -> StepOperator:
        """The cached affine :class:`StepOperator` for a step size.

        Builds ``a_d = expm(-C^-1 G dt)``, the input map
        ``b_d = (I - a_d) G^-1`` (block columns only — spreader and sink
        inject no power), and the constant ambient term
        ``c_amb = (I - a_d) G^-1 e_sink g_amb T_amb`` on first use.
        """
        if not dt > 0:
            raise ValueError(f"dt must be positive, got {dt}")
        key = _dt_key(dt)
        cached = self._propagators.get(key)
        if cached is None:
            dt = float(dt)
            n = self.network.n_nodes
            a_d = expm(-(self._c_inv[:, None] * self.network.conductance) * dt)
            # (I - A) G^-1, one column solve per node, reusing the LU
            # factorization steady_state already carries.
            g_inv = self._solve(np.eye(n))
            input_map = (np.eye(n) - a_d) @ g_inv
            c_amb = input_map[:, -1] * (
                self.network.ambient_conductance * self.network.ambient_c
            )
            cached = StepOperator(
                dt, a_d, input_map[:, : self.network.n_blocks].copy(), c_amb
            )
            self._propagators[key] = cached
        return cached

    def steady_state(self, block_power_w: Sequence[float]) -> np.ndarray:
        """Steady-state node temperatures under constant block powers."""
        u = self.network.input_vector(np.asarray(block_power_w, dtype=float))
        return self._solve(u)


class ThermalModel:
    """Stateful thermal simulator over a floorplan + package.

    Args:
        floorplan: Geometry; the RC network is built internally.
        package: The vertical materials stack and cooling solution.
        dt: Default transient step (seconds). Steps of other sizes are
            supported but recompute the propagator (cached per exact
            size).
        kernel: Optional pre-built :class:`ThermalKernel` to share. Must
            have been built from the same floorplan and package objects;
            when omitted, a private kernel is constructed. Sharing a
            kernel shares only matrices — the temperature state is always
            per-model.
    """

    def __init__(
        self,
        floorplan: Floorplan,
        package: ThermalPackage,
        dt: float,
        kernel: Optional[ThermalKernel] = None,
    ):
        """Attach (or build) the kernel and start at the ambient state."""
        if not dt > 0:
            raise ValueError(f"dt must be positive, got {dt}")
        if kernel is None:
            kernel = ThermalKernel(floorplan, package)
        elif kernel.floorplan is not floorplan or kernel.package is not package:
            raise ValueError(
                "kernel was built for a different floorplan/package; "
                "share kernels only between models of the same chip"
            )
        self.floorplan = floorplan
        self.package = package
        self.dt = float(dt)
        self.kernel = kernel
        self.network: RCNetwork = kernel.network
        self._g_lu = kernel._g_lu
        self._c_inv = kernel._c_inv
        self.operator_for(self.dt)
        #: Current node temperatures (deg C), initialized to ambient.
        self.temperatures = np.full(
            self.network.n_nodes, self.network.ambient_c, dtype=float
        )

    # -- propagator management ---------------------------------------------

    @property
    def _propagators(self) -> Dict[str, StepOperator]:
        """The kernel's propagator cache (shared when the kernel is)."""
        return self.kernel._propagators

    def operator_for(self, dt: float) -> StepOperator:
        """The cached affine :class:`StepOperator` for a step size.

        Delegates to the (possibly shared) kernel's per-``dt`` cache.
        """
        return self.kernel.operator_for(dt)

    def _checked_power(self, block_power_w: Sequence[float]) -> np.ndarray:
        """Validate and coerce a block power vector."""
        p = np.asarray(block_power_w, dtype=float)
        if p.shape != (self.network.n_blocks,):
            raise ValueError(
                f"expected {self.network.n_blocks} block powers, got {p.shape}"
            )
        return p

    # -- solvers -------------------------------------------------------------

    def steady_state(self, block_power_w: Sequence[float]) -> np.ndarray:
        """Steady-state node temperatures under constant block powers."""
        return self.kernel.steady_state(block_power_w)

    def step(self, block_power_w: Sequence[float], dt: Optional[float] = None) -> np.ndarray:
        """Advance the transient state by one step of ``dt`` seconds.

        ``block_power_w`` is held constant over the step. Returns (a copy
        of) the new node temperatures.
        """
        op = self.operator_for(self.dt if dt is None else float(dt))
        p = self._checked_power(block_power_w)
        self.temperatures = op.apply(self.temperatures, p)
        return self.temperatures.copy()

    def step_n(
        self,
        block_power_w: Sequence[float],
        n: int,
        dt: Optional[float] = None,
    ) -> np.ndarray:
        """Advance ``n`` steps of ``dt`` with power held constant throughout.

        The fused propagation applies the identical per-step affine update
        ``n`` times, so the result is bit-identical to calling
        :meth:`step` ``n`` times with the same arguments — it just skips
        ``n - 1`` rounds of validation and state copy-out. Returns (a copy
        of) the final node temperatures.
        """
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        op = self.operator_for(self.dt if dt is None else float(dt))
        p = self._checked_power(block_power_w)
        temps = self.temperatures
        for _ in range(n):
            temps = op.apply(temps, p)
        self.temperatures = temps
        return temps.copy()

    def run(
        self,
        power_schedule: Iterable[Sequence[float]],
        dt: Optional[float] = None,
    ) -> np.ndarray:
        """Step through a sequence of power vectors; return the trajectory.

        The result has shape ``(n_steps, n_nodes)`` — the temperature
        *after* each step.
        """
        rows: List[np.ndarray] = [
            self.step(p, dt) for p in power_schedule
        ]
        return np.array(rows)

    # -- state management ------------------------------------------------------

    def set_temperatures(self, temperatures: Sequence[float]) -> None:
        """Overwrite the full node-temperature state."""
        temps = np.asarray(temperatures, dtype=float)
        if temps.shape != (self.network.n_nodes,):
            raise ValueError(
                f"expected {self.network.n_nodes} temperatures, got {temps.shape}"
            )
        self.temperatures = temps.copy()

    def initialize_steady(self, block_power_w: Sequence[float]) -> np.ndarray:
        """Set the state to the steady point of ``block_power_w``.

        Experiments start from a warmed-up chip rather than a cold one, as
        on real hardware (the paper waits for the machine to reach a stable
        idle temperature before each measurement).
        """
        self.temperatures = self.steady_state(block_power_w)
        return self.temperatures.copy()

    # -- queries ------------------------------------------------------------------

    def temperature_of(self, name: str) -> float:
        """Current temperature of a named node."""
        return float(self.temperatures[self.network.index(name)])

    def block_temperatures(self) -> np.ndarray:
        """Temperatures of the silicon blocks only, floorplan order."""
        return self.temperatures[: self.network.n_blocks].copy()

    def hottest_block(self) -> str:
        """Name of the hottest silicon block right now."""
        idx = int(np.argmax(self.temperatures[: self.network.n_blocks]))
        return self.network.node_names[idx]

    def max_block_temperature(self) -> float:
        """Temperature of the hottest silicon block."""
        return float(self.temperatures[: self.network.n_blocks].max())

    def time_constants(self) -> np.ndarray:
        """Open-network time constants (s): ``1 / eigvals(C^-1 G)``, sorted.

        Useful for sanity-checking that block-level constants sit in the
        millisecond range the paper relies on.
        """
        eigvals = np.linalg.eigvals(self._c_inv[:, None] * self.network.conductance)
        eigvals = np.real(eigvals)
        eigvals = eigvals[eigvals > 0]
        return np.sort(1.0 / eigvals)
