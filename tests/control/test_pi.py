"""Tests for the PI design and the discrete runtime controller."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.control import pi
from repro.control.pi import (
    MAX_FREQUENCY_SCALE,
    MIN_FREQUENCY_SCALE,
    PAPER_KI,
    PAPER_KP,
    DiscretePIController,
    PIBank,
    design_paper_controller,
    design_pi,
)

PAPER_DT = 100_000 / 3.6e9


@pytest.fixture
def design():
    return design_paper_controller(PAPER_DT)


class TestDesign:
    def test_paper_constants(self):
        assert PAPER_KP == 0.0107
        assert PAPER_KI == 248.5

    def test_design_coefficients(self, design):
        assert design.b0 == pytest.approx(0.0107)
        assert design.b1 == pytest.approx(-0.003797, abs=2e-6)

    def test_transfer_function_roundtrip(self, design):
        tf = design.transfer_function()
        assert tf(1.0) == pytest.approx(PAPER_KP + PAPER_KI)

    def test_rejects_bad_dt(self):
        with pytest.raises(ValueError):
            design_pi(1.0, 1.0, 0.0)

    def test_equal_arguments_share_one_design(self, monkeypatch):
        monkeypatch.setattr(pi, "_DESIGNS", {})
        first = design_pi(PAPER_KP, PAPER_KI, PAPER_DT)
        assert design_pi(PAPER_KP, PAPER_KI, PAPER_DT) is first
        # Ints key as the floats they equal.
        assert design_pi(1, 2, 1e-3) is design_pi(1.0, 2.0, 1e-3)
        assert design_pi(PAPER_KP, PAPER_KI, PAPER_DT, "tustin") is not first
        assert len(pi._DESIGNS) == 3

    def test_design_table_keeps_its_bound(self, monkeypatch):
        monkeypatch.setattr(pi, "_DESIGNS", {})
        for i in range(pi.DESIGN_TABLE_SIZE + 5):
            design_pi(1.0 + i, 1.0, 1e-3)
        assert len(pi._DESIGNS) == pi.DESIGN_TABLE_SIZE
        assert (1.0, 1.0, 1e-3, "euler") not in pi._DESIGNS


class TestControllerBasics:
    def test_starts_at_max(self, design):
        c = DiscretePIController(design, setpoint=82.2)
        assert c.output == MAX_FREQUENCY_SCALE

    def test_cool_core_stays_at_full_speed(self, design):
        c = DiscretePIController(design, setpoint=82.2)
        for _ in range(1000):
            out = c.step(60.0)
        assert out == MAX_FREQUENCY_SCALE

    def test_hot_core_throttles(self, design):
        c = DiscretePIController(design, setpoint=82.2)
        for _ in range(200):
            out = c.step(90.0)
        assert out < MAX_FREQUENCY_SCALE

    def test_saturates_at_minimum(self, design):
        c = DiscretePIController(design, setpoint=82.2)
        for _ in range(5000):
            out = c.step(120.0)
        assert out == MIN_FREQUENCY_SCALE

    def test_bad_limits_rejected(self, design):
        with pytest.raises(ValueError):
            DiscretePIController(design, setpoint=80.0, output_min=0.9, output_max=0.2)

    @given(
        st.lists(
            st.floats(min_value=-50.0, max_value=200.0, allow_nan=False),
            min_size=1,
            max_size=300,
        )
    )
    def test_output_always_clipped(self, temps):
        c = DiscretePIController(design_paper_controller(PAPER_DT), setpoint=82.2)
        for t in temps:
            out = c.step(t)
            assert MIN_FREQUENCY_SCALE <= out <= MAX_FREQUENCY_SCALE


class TestAntiWindup:
    def test_recovery_after_long_saturation(self, design):
        """Clipping prevents hidden integral build-up (Section 4.2)."""
        c = DiscretePIController(design, setpoint=82.2)
        for _ in range(20_000):  # a long, hopeless overheat
            c.step(120.0)
        assert c.output == MIN_FREQUENCY_SCALE
        # Once the condition clears, the controller winds up promptly: the
        # per-step increment at error -37 is about 0.0107*37, so recovery
        # to full speed takes only a couple of steps, not 20,000.
        steps = 0
        while c.step(45.0) < MAX_FREQUENCY_SCALE:
            steps += 1
            assert steps < 50, "controller failed to recover promptly"


class TestConvergence:
    def test_regulates_first_order_plant_to_setpoint(self, design):
        """Closed loop with a thermal-like plant settles at the setpoint."""
        setpoint = 82.2
        c = DiscretePIController(design, setpoint=setpoint)
        temp, tau, gain, ambient = 60.0, 7e-3, 55.0, 45.0
        alpha = 1.0 - np.exp(-PAPER_DT / tau)
        for _ in range(60_000):  # ~1.7 s
            scale = c.step(temp)
            target = ambient + gain * scale ** 3
            temp += (target - temp) * alpha
        assert temp == pytest.approx(setpoint, abs=0.3)
        # And the equilibrium scale matches the plant inversion.
        expected_scale = ((setpoint - ambient) / gain) ** (1.0 / 3.0)
        assert c.output == pytest.approx(expected_scale, abs=0.02)


class TestFeedbackWindow:
    def test_average_output_window(self, design):
        c = DiscretePIController(design, setpoint=82.2)
        for _ in range(10):
            c.step(120.0)
        avg_hot = c.average_output
        assert avg_hot < MAX_FREQUENCY_SCALE
        c.reset_window()
        assert c.average_output == c.output  # empty window reports current

    def test_trace_recording(self, design):
        c = DiscretePIController(design, setpoint=82.2, record=True)
        c.step(90.0, time=1.0)
        c.step(91.0, time=2.0)
        assert c.trace.times == [1.0, 2.0]
        assert len(c.trace.outputs) == 2
        assert c.trace.errors[0] == pytest.approx(90.0 - 82.2)

    def test_reset(self, design):
        c = DiscretePIController(design, setpoint=82.2)
        for _ in range(100):
            c.step(100.0)
        c.reset()
        assert c.output == MAX_FREQUENCY_SCALE
        assert c.average_output == MAX_FREQUENCY_SCALE


class TestPIBank:
    def test_per_lane_floors_match_scalar_controllers(self, design):
        """A bank of (3 rows, 2 cores) lanes, each with its own floor and
        its row's setpoint, stepped on a live prefix of two rows and fed
        a NaN reading, equals one scalar controller per lane."""
        floors = np.array([[0.2, 0.5], [0.6, 0.6], [0.3, 0.4]])
        setpoints = np.array([[80.0, 80.0], [85.0, 85.0], [82.0, 82.0]])
        block = 4
        bank = PIBank(
            design, setpoints, output_min=floors, output_max=1.0, block=block
        )
        ctrls = [
            [
                DiscretePIController(
                    design, setpoint=setpoints[r, c], output_min=floors[r, c]
                )
                for c in range(2)
            ]
            for r in range(3)
        ]
        # Hot enough to pin every lane to its own floor, then a NaN
        # reading (clamped to the floor, as the scalar does) and cooling.
        readings = [120.0] * 60 + [float("nan")] + [70.0, 95.0, 60.0]
        m = 2
        for k, temp in enumerate(readings):
            measured = np.array([[temp, temp - 1.0], [temp + 2.0, temp]])
            out = bank.step_prefix(m, measured, k % block)
            for r in range(m):
                for c in range(2):
                    assert out[r, c] == ctrls[r][c].step(measured[r, c])
            if k == 59:  # every stepped lane sits on its own floor
                assert out.tolist() == floors[:m].tolist()
            if k % block == block - 1 or k == len(readings) - 1:
                bank.fold_window(m, k % block + 1)
        for r in range(3):
            for c in range(2):
                probe = DiscretePIController(design, setpoint=0.0)
                bank.write_lane((r, c), probe)
                ref = ctrls[r][c]
                got = (probe.output, probe._previous_error, probe._steps)
                assert got == (ref.output, ref._previous_error, ref._steps)
                assert probe._output_sum == ref._output_sum
        # The row past the live prefix never stepped.
        assert bank.output[2].tolist() == [1.0, 1.0]

    def test_floor_must_stay_below_the_ceiling(self, design):
        with pytest.raises(ValueError):
            PIBank(
                design, np.zeros((2, 2)), output_min=[[0.2, 1.0], [0.2, 0.2]],
                block=1,
            )
