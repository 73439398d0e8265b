"""Tests for the thermal solver (steady state + exponential transient)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.thermal.layouts import build_cmp_floorplan, build_mobile_floorplan
from repro.thermal.model import ThermalKernel, ThermalModel
from repro.thermal.package import HIGH_PERFORMANCE_PACKAGE, MOBILE_PACKAGE

DT = 100_000 / 3.6e9


def make_model() -> ThermalModel:
    return ThermalModel(build_cmp_floorplan(), HIGH_PERFORMANCE_PACKAGE, DT)


@pytest.fixture()
def model():
    return make_model()


class TestSteadyState:
    def test_zero_power_is_ambient(self, model):
        temps = model.steady_state(np.zeros(model.network.n_blocks))
        np.testing.assert_allclose(temps, model.network.ambient_c, atol=1e-8)

    def test_positive_power_heats_above_ambient(self, model):
        p = np.full(model.network.n_blocks, 0.5)
        temps = model.steady_state(p)
        assert np.all(temps > model.network.ambient_c)

    def test_heated_block_is_hottest(self, model):
        p = np.zeros(model.network.n_blocks)
        target = model.network.index("core2.fpreg")
        p[target] = 5.0
        temps = model.steady_state(p)
        assert int(np.argmax(temps[: model.network.n_blocks])) == target

    def test_superposition(self, model):
        """The network is linear: responses to powers add."""
        n = model.network.n_blocks
        rng = np.random.default_rng(0)
        p1, p2 = rng.uniform(0, 2, n), rng.uniform(0, 2, n)
        amb = model.steady_state(np.zeros(n))
        t1 = model.steady_state(p1) - amb
        t2 = model.steady_state(p2) - amb
        t12 = model.steady_state(p1 + p2) - amb
        np.testing.assert_allclose(t12, t1 + t2, rtol=1e-9, atol=1e-9)

    def test_monotone_in_power(self, model):
        n = model.network.n_blocks
        low = model.steady_state(np.full(n, 0.5))
        high = model.steady_state(np.full(n, 1.0))
        assert np.all(high >= low - 1e-12)


class TestTransient:
    def test_converges_to_steady_state(self, model):
        n = model.network.n_blocks
        p = np.full(n, 1.0)
        target = model.steady_state(p)
        for _ in range(200):
            model.step(p, dt=1.0)  # 200 s total, >10x the sink constant
        np.testing.assert_allclose(model.temperatures, target, atol=0.05)

    def test_step_moves_toward_steady(self, model):
        n = model.network.n_blocks
        p = np.full(n, 2.0)
        before = model.temperatures.copy()
        after = model.step(p)
        target = model.steady_state(p)
        gap_before = np.abs(target - before)
        gap_after = np.abs(target - after)
        assert np.all(gap_after <= gap_before + 1e-12)

    def test_exact_against_dense_euler(self, model):
        """The exponential update matches a finely-stepped Euler solution."""
        n = model.network.n_blocks
        p = np.zeros(n)
        p[model.network.index("core0.intreg")] = 4.0
        u = model.network.input_vector(p)

        # Reference: explicit Euler with a 1000x smaller step.
        c_inv = 1.0 / model.network.capacitance
        g = model.network.conductance
        t_ref = np.full(model.network.n_nodes, model.network.ambient_c)
        fine = DT / 1000.0
        for _ in range(1000):
            t_ref = t_ref + fine * c_inv * (u - g @ t_ref)

        model.step(p)  # one exponential step of DT
        np.testing.assert_allclose(model.temperatures, t_ref, atol=1e-4)

    def test_run_returns_trajectory(self, model):
        n = model.network.n_blocks
        schedule = [np.full(n, 1.0)] * 5
        traj = model.run(schedule)
        assert traj.shape == (5, model.network.n_nodes)
        # Heating run: temperatures increase monotonically.
        assert np.all(np.diff(traj[:, 0]) > 0)

    def test_propagator_cache_reuse(self, model):
        model.step(np.zeros(model.network.n_blocks), dt=1e-3)
        model.step(np.zeros(model.network.n_blocks), dt=1e-3)
        assert len(model._propagators) == 2  # DT (constructor) + 1e-3

    def test_unconditional_stability_large_step(self, model):
        """Exponential integration cannot blow up even with huge steps."""
        n = model.network.n_blocks
        p = np.full(n, 2.0)
        model.step(p, dt=100.0)
        target = model.steady_state(p)
        # expm over a stiff 1e6:1 eigenvalue spread carries small numerical
        # residue; what matters is boundedness and closeness, not exactness.
        np.testing.assert_allclose(model.temperatures, target, atol=0.05)


class TestStepOperator:
    """The cached affine propagator and its fused k-step application."""

    def test_apply_matches_step(self, model):
        n = model.network.n_blocks
        p = np.full(n, 1.0)
        op = model.operator_for(DT)
        expected = op.apply(model.temperatures, p)
        got = model.step(p)
        np.testing.assert_array_equal(got, expected)

    def test_step_n_equals_repeated_step(self):
        """step_n(p, k) is bit-identical to k calls of step(p)."""
        a, b = make_model(), make_model()
        n = a.network.n_blocks
        rng = np.random.default_rng(7)
        p = rng.uniform(0, 3, n)
        k = 17
        for _ in range(k):
            a.step(p)
        fused = b.step_n(p, k)
        np.testing.assert_array_equal(fused, a.temperatures)
        np.testing.assert_array_equal(b.temperatures, a.temperatures)

    def test_step_n_zero_is_noop(self, model):
        before = model.temperatures.copy()
        after = model.step_n(np.ones(model.network.n_blocks), 0)
        np.testing.assert_array_equal(after, before)

    def test_step_n_negative_raises(self, model):
        with pytest.raises(ValueError):
            model.step_n(np.zeros(model.network.n_blocks), -1)

    def test_operator_for_caches_instances(self, model):
        assert model.operator_for(DT) is model.operator_for(DT)

    def test_near_equal_dts_get_distinct_operators(self, model):
        """Regression: cache keyed on round(dt, 15) aliased close dts.

        Two adjacent floats are distinct step sizes and must yield
        distinct propagators; the old key collapsed them onto whichever
        was computed first.
        """
        dt2 = float(np.nextafter(DT, np.inf))
        assert dt2 != DT
        assert round(dt2, 15) == round(DT, 15)  # the old key would alias
        op1 = model.operator_for(DT)
        op2 = model.operator_for(dt2)
        assert op1 is not op2
        assert op1.dt != op2.dt
        assert len(model._propagators) == 2


class TestStateManagement:
    def test_initialize_steady(self, model):
        n = model.network.n_blocks
        p = np.full(n, 1.5)
        temps = model.initialize_steady(p)
        np.testing.assert_allclose(temps, model.steady_state(p))

    def test_set_temperatures_validation(self, model):
        with pytest.raises(ValueError):
            model.set_temperatures(np.zeros(3))

    def test_queries(self, model):
        p = np.zeros(model.network.n_blocks)
        p[model.network.index("core1.intreg")] = 10.0
        model.initialize_steady(p)
        assert model.hottest_block() == "core1.intreg"
        assert model.max_block_temperature() == pytest.approx(
            model.temperature_of("core1.intreg")
        )

    def test_block_temperatures_shape(self, model):
        assert model.block_temperatures().shape == (model.network.n_blocks,)


class TestTimeConstants:
    def test_block_constants_in_millisecond_range(self, model):
        """The paper relies on ms-scale heating/cooling constants."""
        tc = model.time_constants()
        fastest_blocks = tc[0]
        assert 1e-3 < fastest_blocks < 20e-3

    def test_slowest_constant_is_package_scale(self, model):
        tc = model.time_constants()
        assert tc[-1] > 1.0  # heatsink: seconds to minutes

    def test_rejects_bad_dt(self):
        with pytest.raises(ValueError):
            ThermalModel(build_cmp_floorplan(), HIGH_PERFORMANCE_PACKAGE, 0.0)


class TestOperatorSharing:
    """Kernel-backed operator reuse across independent engines."""

    def test_shared_kernel_shares_operator_instances(self):
        """Models on one kernel hand out the *same* StepOperator, so a
        fleet of chips steps through literally the same matrices."""
        fp = build_cmp_floorplan()
        kernel = ThermalKernel(fp, HIGH_PERFORMANCE_PACKAGE)
        a = ThermalModel(fp, HIGH_PERFORMANCE_PACKAGE, DT, kernel=kernel)
        b = ThermalModel(fp, HIGH_PERFORMANCE_PACKAGE, DT, kernel=kernel)
        assert a.operator_for(DT) is b.operator_for(DT)
        assert len(kernel._propagators) == 1
        # A third dt through either model lands in the shared cache.
        a.operator_for(2 * DT)
        assert b.operator_for(2 * DT) is a.operator_for(2 * DT)

    def test_shared_vs_private_kernel_trajectories_identical(self):
        """Operator reuse is associative: stepping through a shared
        kernel's operator is bitwise the same as through a private one."""
        fp = build_cmp_floorplan()
        kernel = ThermalKernel(fp, HIGH_PERFORMANCE_PACKAGE)
        shared = ThermalModel(fp, HIGH_PERFORMANCE_PACKAGE, DT, kernel=kernel)
        private = ThermalModel(fp, HIGH_PERFORMANCE_PACKAGE, DT)
        rng = np.random.default_rng(11)
        for _ in range(25):
            p = rng.uniform(0, 3, shared.network.n_blocks)
            np.testing.assert_array_equal(
                shared.step(p), private.step(p)
            )

    def test_mismatched_kernel_rejected(self):
        fp_a, fp_b = build_cmp_floorplan(2), build_cmp_floorplan(4)
        kernel = ThermalKernel(fp_a, HIGH_PERFORMANCE_PACKAGE)
        with pytest.raises(ValueError):
            ThermalModel(fp_b, HIGH_PERFORMANCE_PACKAGE, DT, kernel=kernel)


class TestApplyBatch:
    """The fleet contract: batched rows == scalar applications, bitwise."""

    @pytest.mark.parametrize("m", [1, 2, 3, 7, 16, 33])
    def test_rows_bitwise_equal_scalar_apply(self, m):
        # The 4-core chip, and the mobile chip Table 1 steps in cohorts.
        mobile = ThermalModel(build_mobile_floorplan(), MOBILE_PACKAGE, 20e-3)
        for model in (make_model(), mobile):
            op = model.operator_for(model.dt)
            rng = np.random.default_rng(m)
            temps = 40.0 + 80.0 * rng.random((m, model.network.n_nodes))
            power = 20.0 * rng.random((m, model.network.n_blocks))
            batched = op.apply_batch(temps, power)
            for i in range(m):
                np.testing.assert_array_equal(
                    batched[i], op.apply(temps[i], power[i])
                )

    def test_slicing_invariance(self):
        """A sub-batch's rows equal the same rows of the full batch —
        the property that lets fleet members retire in place."""
        model = make_model()
        op = model.operator_for(DT)
        rng = np.random.default_rng(5)
        temps = 40.0 + 80.0 * rng.random((12, model.network.n_nodes))
        power = 20.0 * rng.random((12, model.network.n_blocks))
        full = op.apply_batch(temps, power)
        for m in (1, 5, 11):
            np.testing.assert_array_equal(
                op.apply_batch(temps[:m], power[:m]), full[:m]
            )


@settings(max_examples=15, deadline=None)
@given(
    k=st.integers(min_value=1, max_value=40),
    dt_scale=st.floats(min_value=0.25, max_value=4.0, allow_nan=False),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_step_n_equals_k_steps_property(k, dt_scale, seed):
    """Property form of the fusion guarantee: for random k, dt and
    power, step_n(p, k) is bit-identical to k repeated step(p) calls."""
    dt = DT * dt_scale
    fp = build_cmp_floorplan()
    kernel = ThermalKernel(fp, HIGH_PERFORMANCE_PACKAGE)
    a = ThermalModel(fp, HIGH_PERFORMANCE_PACKAGE, dt, kernel=kernel)
    b = ThermalModel(fp, HIGH_PERFORMANCE_PACKAGE, dt, kernel=kernel)
    p = np.random.default_rng(seed).uniform(0, 3, a.network.n_blocks)
    for _ in range(k):
        a.step(p)
    np.testing.assert_array_equal(b.step_n(p, k), a.temperatures)


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=1e-9, max_value=1.0, allow_nan=False))
def test_dt_cache_keys_on_exact_bit_pattern(dt):
    """Randomized dts: each distinct float is a distinct cache entry,
    and adjacent floats (indistinguishable to round(dt, 15)) never
    alias to one propagator."""
    model = make_model()
    before = len(model._propagators)
    op = model.operator_for(dt)
    assert model.operator_for(dt) is op
    neighbour = float(np.nextafter(dt, np.inf))
    op2 = model.operator_for(neighbour)
    assert op2 is not op
    assert len(model._propagators) == before + 2


@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=0.0, max_value=5.0))
def test_steady_state_bounded_property(power_per_block):
    """Uniform power yields temps between ambient and a physical bound."""
    model = make_model()
    n = model.network.n_blocks
    temps = model.steady_state(np.full(n, power_per_block))
    total = power_per_block * n
    upper = model.network.ambient_c + total * 5.0 + 1e-9  # generous R bound
    assert np.all(temps >= model.network.ambient_c - 1e-9)
    assert np.all(temps <= upper)
