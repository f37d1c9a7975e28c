"""Tests for the FeFET compact model."""

import numpy as np
import pytest

from repro.devices.fefet import (
    DEFAULT_NFEFET_PARAMS,
    DEFAULT_PFEFET_PARAMS,
    FeFET,
    FeFETParameters,
    calibrate_vth_for_on_current,
    fefet_bias_factor,
    make_mlc_nfefet,
    make_slc_nfefet,
    make_slc_pfefet,
    mlc_states_from_write_voltages,
)


class TestFeFETParameters:
    def test_defaults(self):
        params = FeFETParameters()
        assert params.polarity == "n"
        assert params.transconductance > 0

    def test_invalid_polarity(self):
        with pytest.raises(ValueError):
            FeFETParameters(polarity="x")

    def test_invalid_transconductance(self):
        with pytest.raises(ValueError):
            FeFETParameters(transconductance=-1.0)

    def test_invalid_ideality(self):
        with pytest.raises(ValueError):
            FeFETParameters(subthreshold_ideality=0.5)

    def test_subthreshold_swing_reasonable(self):
        swing = FeFETParameters().subthreshold_swing_mv_per_decade
        assert 60.0 < swing < 150.0


class TestFeFETBasics:
    def test_requires_at_least_one_state(self):
        with pytest.raises(ValueError):
            FeFET([])

    def test_program_and_vth(self):
        device = FeFET([0.2, 1.0, 1.5])
        device.program(1)
        assert device.vth == pytest.approx(1.0)
        assert device.state == 1
        assert device.num_states == 3

    def test_program_out_of_range(self):
        device = FeFET([0.2, 1.0])
        with pytest.raises(ValueError):
            device.program(5)

    def test_vth_offset_applied(self):
        device = FeFET([0.5], vth_offset=0.04)
        assert device.vth == pytest.approx(0.54)

    def test_with_variation_copy(self):
        device = FeFET([0.5, 1.5], state=1)
        copy = device.with_variation(0.02)
        assert copy.state == 1
        assert copy.vth == pytest.approx(1.52)
        assert device.vth == pytest.approx(1.5)

    def test_copy_independent(self):
        device = FeFET([0.5, 1.5])
        clone = device.copy()
        clone.program(1)
        assert device.state == 0


class TestFeFETCurrent:
    def test_current_increases_with_gate_voltage(self):
        device = FeFET([0.3])
        currents = [device.drain_current(vg, 0.5) for vg in (0.0, 0.5, 1.0, 1.5)]
        assert all(b > a for a, b in zip(currents, currents[1:]))

    def test_current_decreases_with_vth(self):
        low = FeFET([0.2]).drain_current(1.0, 0.5)
        high = FeFET([1.0]).drain_current(1.0, 0.5)
        assert low > high

    def test_off_current_near_leakage_floor(self):
        device = FeFET([1.7])
        off = device.drain_current(0.0, 0.5)
        assert off == pytest.approx(DEFAULT_NFEFET_PARAMS.leakage_current, rel=0.5)

    def test_on_off_ratio_large(self):
        device = make_slc_nfefet()
        device.program(0)  # low Vth, conducting
        assert device.on_off_ratio(1.2, 0.5) > 1e3

    def test_saturation_current_weakly_depends_on_vd(self):
        device = FeFET([0.2])
        i1 = device.drain_current(1.0, 0.8)
        i2 = device.drain_current(1.0, 1.2)
        assert i2 == pytest.approx(i1, rel=0.1)

    def test_compliance_clamp(self):
        params = FeFETParameters(max_on_current=1e-6)
        device = FeFET([-1.0], params=params)
        assert device.drain_current(2.0, 2.0) <= 1e-6

    def test_id_vg_curve_shape(self):
        device = FeFET([0.5])
        vg = np.linspace(0.0, 1.5, 20)
        curve = device.id_vg_curve(vg, vd=0.1)
        assert curve.shape == (20,)
        assert np.all(np.diff(curve) >= 0)

    def test_pfefet_conducts_for_low_gate(self):
        device = make_slc_pfefet(state=1)
        conducting = device.drain_current(vg=-1.0, vd=0.0, vs=1.0)
        blocked = device.drain_current(vg=2.0, vd=0.0, vs=1.0)
        assert conducting > 100 * blocked

    def test_symmetric_source_drain_swap(self):
        device = FeFET([0.3])
        forward = device.drain_current(1.0, 0.5, 0.0)
        reverse = device.drain_current(1.0, -0.5, 0.0)
        assert reverse == pytest.approx(forward, rel=0.2)


@pytest.mark.parametrize("params", [DEFAULT_NFEFET_PARAMS, DEFAULT_PFEFET_PARAMS], ids=["n", "p"])
def test_bias_factor_equals_the_plain_expression(params, rng):
    """The in-place evaluation gives the reference expression's floats."""
    vt, n = 0.02585, params.subthreshold_ideality
    vth = rng.normal(0.0, 1.5, size=(6, 7))  # both softplus branches
    for vg, vs in ((1.5, 0.0), (rng.normal(size=7), 0.3)):
        vgs = np.asarray(vg) - vs
        x = ((vgs - vth) if params.polarity == "n" else (vth - vgs)) / (n * vt)
        softplus = np.where(x > 40.0, x, np.log1p(np.exp(np.minimum(x, 40.0))))
        expected = params.transconductance * (n * vt) ** 2 * softplus * softplus
        assert (x > 40.0).any() and (x < 40.0).any()
        before = vth.copy()
        got = fefet_bias_factor(vg, vs, vth, params)
        assert got.tobytes() == expected.tobytes()
        assert np.array_equal(vth, before)  # inputs are not overwritten


class TestCalibration:
    def test_calibrated_vth_reproduces_target(self):
        target = 2e-6
        vth = calibrate_vth_for_on_current(target, vg_read=1.0, vd_read=1.5)
        device = FeFET([vth])
        assert device.drain_current(1.0, 1.5) == pytest.approx(target, rel=1e-3)

    def test_binary_weighted_targets(self):
        unit = 0.25e-6
        vths = [
            calibrate_vth_for_on_current(unit * 2**i, vg_read=1.0, vd_read=1.5)
            for i in range(4)
        ]
        # Higher current requires lower threshold.
        assert all(b < a for a, b in zip(vths, vths[1:]))

    def test_unreachable_target_raises(self):
        with pytest.raises(ValueError):
            calibrate_vth_for_on_current(1.0, vg_read=1.0, vd_read=1.5)

    def test_negative_target_rejected(self):
        with pytest.raises(ValueError):
            calibrate_vth_for_on_current(-1e-6, vg_read=1.0, vd_read=1.5)

    def test_pfefet_calibration(self):
        params = DEFAULT_PFEFET_PARAMS
        target = 1e-6
        vth = calibrate_vth_for_on_current(
            target, vg_read=0.9, vd_read=1.5, vs=1.8, params=params
        )
        device = FeFET([vth], params=params)
        assert device.drain_current(0.9, 1.5, 1.8) == pytest.approx(target, rel=1e-3)


class TestFactories:
    def test_slc_nfefet_default_state_blocking(self):
        device = make_slc_nfefet()
        assert device.state == 1
        assert device.vth == pytest.approx(1.7)

    def test_slc_nfefet_invalid_order(self):
        with pytest.raises(ValueError):
            make_slc_nfefet(low_vth=2.0, high_vth=1.0)

    def test_mlc_requires_ascending_states(self):
        with pytest.raises(ValueError):
            make_mlc_nfefet([1.0, 0.5])

    def test_mlc_nfefet_states(self):
        device = make_mlc_nfefet([0.2, 0.5, 0.9, 1.3])
        assert device.num_states == 4

    def test_slc_pfefet_invalid_order(self):
        with pytest.raises(ValueError):
            make_slc_pfefet(on_vth=-2.0, off_vth=0.0)

    def test_wrong_polarity_params_rejected(self):
        with pytest.raises(ValueError):
            make_slc_nfefet(params=DEFAULT_PFEFET_PARAMS)
        with pytest.raises(ValueError):
            make_slc_pfefet(params=DEFAULT_NFEFET_PARAMS)


class TestWriteVoltageMapping:
    def test_mlc_states_monotonically_decrease_with_write_voltage(self):
        """Fig. 1(c): larger write pulses give lower threshold voltages."""
        states = mlc_states_from_write_voltages([2.0, 2.67, 3.33, 4.0])
        assert len(states) == 4
        assert all(b < a for a, b in zip(states, states[1:]))

    def test_empty_write_voltages_rejected(self):
        with pytest.raises(ValueError):
            mlc_states_from_write_voltages([])

    def test_negative_write_voltage_rejected(self):
        with pytest.raises(ValueError):
            mlc_states_from_write_voltages([-2.0])

    def test_states_span_a_memory_window(self):
        states = mlc_states_from_write_voltages([2.0, 4.0])
        assert states[0] - states[1] > 0.2
