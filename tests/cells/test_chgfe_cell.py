"""Tests for the ChgFe MLC 1nFeFET and SLC 1pFeFET bit-cells."""

import numpy as np
import pytest

from repro.cells.chgfe_cell import (
    ChgFeCellParameters,
    ChgFeNCell,
    ChgFePCell,
    calibrated_nfefet_vth_states,
    calibrated_pfefet_on_vth,
    characterise_chgfe_group,
)
from repro.devices.variation import DEFAULT_VARIATION


class TestChgFeCellParameters:
    def test_nominal_delta_vs_match_paper(self):
        """-2.5, -5, -10, -20 mV for significances 0..3; +20 mV for the sign cell."""
        params = ChgFeCellParameters()
        for significance, expected in enumerate((-2.5e-3, -5e-3, -10e-3, -20e-3)):
            assert params.nominal_delta_v(significance) == pytest.approx(expected)
        assert params.nominal_sign_delta_v() == pytest.approx(20e-3)

    def test_invalid_significance(self):
        with pytest.raises(ValueError):
            ChgFeCellParameters().nominal_delta_v(4)

    def test_sign_supply_must_exceed_precharge(self):
        with pytest.raises(ValueError):
            ChgFeCellParameters(sign_supply_voltage=1.4)

    def test_off_state_above_read_voltage(self):
        with pytest.raises(ValueError):
            ChgFeCellParameters(off_vth_n=0.5)


class TestCalibration:
    def test_nfefet_states_binary_weighted(self):
        params = ChgFeCellParameters()
        states = calibrated_nfefet_vth_states(params)
        assert len(states) == 4
        # Higher significance -> more current -> lower threshold.
        assert all(b < a for a, b in zip(states, states[1:]))

    def test_pfefet_on_vth_produces_msb_current(self):
        params = ChgFeCellParameters()
        vth = calibrated_pfefet_on_vth(params)
        assert isinstance(vth, float)


class TestChgFeNCell:
    def test_binary_weighted_currents(self):
        """Fig. 5(b): I, 2I, 4I, 8I with I = 250 nA."""
        for significance in range(4):
            cell = ChgFeNCell(significance, stored_bit=1)
            expected = 250e-9 * 2**significance
            assert cell.cell_current(1) == pytest.approx(expected, rel=0.02)

    def test_delta_v_matches_paper(self):
        cell = ChgFeNCell(3, stored_bit=1)
        assert cell.bitline_delta_v(1) == pytest.approx(-20e-3, rel=0.02)

    def test_stored_zero_no_discharge(self):
        cell = ChgFeNCell(3, stored_bit=0)
        assert abs(cell.bitline_delta_v(1)) < 0.1e-3

    def test_unselected_no_discharge(self):
        cell = ChgFeNCell(3, stored_bit=1)
        assert abs(cell.bitline_delta_v(0)) < 0.1e-3

    def test_program_validation(self):
        with pytest.raises(ValueError):
            ChgFeNCell(0).program(-1)
        with pytest.raises(ValueError):
            ChgFeNCell(0).cell_current(2)

    def test_invalid_significance(self):
        with pytest.raises(ValueError):
            ChgFeNCell(4)

    def test_variation_wider_than_curfe(self, rng):
        """ChgFe current spread is visibly wider than CurFe's (Fig. 7(b))."""
        currents = [
            ChgFeNCell.sample(
                3, stored_bit=1, variation=DEFAULT_VARIATION, rng=rng
            ).on_current()
            for _ in range(60)
        ]
        spread = np.std(currents) / np.mean(currents)
        assert 0.01 < spread < 0.30

    def test_nominal_current(self):
        assert ChgFeNCell(2).nominal_current() == pytest.approx(1e-6)


class TestChgFePCell:
    def test_on_current_matches_msb(self):
        cell = ChgFePCell(stored_bit=1)
        assert cell.cell_current(1) == pytest.approx(2e-6, rel=0.02)

    def test_delta_v_positive(self):
        """The sign cell charges its bitline: +20 mV (Fig. 6)."""
        cell = ChgFePCell(stored_bit=1)
        assert cell.bitline_delta_v(1) == pytest.approx(+20e-3, rel=0.02)

    def test_stored_zero_blocks(self):
        cell = ChgFePCell(stored_bit=0)
        assert abs(cell.bitline_delta_v(1)) < 0.5e-3

    def test_idle_input_blocks(self):
        cell = ChgFePCell(stored_bit=1)
        assert abs(cell.bitline_delta_v(0)) < 0.5e-3

    def test_program_restores_on_current_query(self):
        cell = ChgFePCell(stored_bit=0)
        _ = cell.on_current()
        assert cell.stored_bit == 0

    def test_nominal_current(self):
        assert ChgFePCell().nominal_current() == pytest.approx(2e-6)

    def test_sample_with_variation(self, rng):
        cell = ChgFePCell.sample(stored_bit=1, variation=DEFAULT_VARIATION, rng=rng)
        assert cell.fefet.vth_offset != 0.0


class TestCharacteriseGroup:
    """The batched tables equal each device's own ``bitline_delta_v``."""

    @pytest.mark.parametrize("signed", [True, False], ids=["signed", "unsigned"])
    def test_tables_match_per_cell_devices(self, signed, rng):
        params = ChgFeCellParameters()
        offsets = rng.normal(0.0, 0.04, size=(2, 3, 4))
        on, off_selected, unselected = characterise_chgfe_group(
            offsets, signed=signed, params=params
        )
        for index in np.ndindex(offsets.shape):
            column, offset = index[-1], float(offsets[index])
            if signed and column == 3:
                cell = ChgFePCell(params=params, stored_bit=1, vth_offset=offset)
            else:
                cell = ChgFeNCell(column, params=params, stored_bit=1, vth_offset=offset)
            assert on[index] == cell.bitline_delta_v(1)
            assert unselected[index] == cell.bitline_delta_v(0)
            cell.program(0)
            assert off_selected[index] == cell.bitline_delta_v(1)
        assert (on[..., 3] > 0).all() == signed
