"""Tests for the CurFe 1nFeFET1R bit-cell."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cells import curfe_cell
from repro.cells.curfe_cell import (
    SOLVE_CHUNK,
    CurFeCell,
    CurFeCellParameters,
    characterise_curfe_group,
    curfe_series_currents,
)
from repro.devices.fefet import (
    DEFAULT_NFEFET_PARAMS,
    DEFAULT_PFEFET_PARAMS,
    FeFETParameters,
    fefet_bias_factor,
    fefet_current_from_factor,
    fefet_drain_current,
)
from repro.devices.variation import DEFAULT_VARIATION, NO_VARIATION

LEAK_FREE = FeFETParameters(leakage_current=0.0)


def reference_drain_current(vg, vd, vs, vth, p):
    """The FeFET compact model as one whole-array expression (test oracle)."""
    vt = 0.02585
    n = p.subthreshold_ideality
    vg, vd, vs, vth = (np.asarray(a, dtype=float) for a in (vg, vd, vs, vth))
    vgs = vg - vs
    vds = vd - vs
    if p.polarity == "n":
        overdrive = vgs - vth
    else:
        overdrive = vth - vgs
        vds = -vds
    vds = np.where(vds < 0, -vds, vds)
    x = overdrive / (n * vt)
    softplus = np.where(x > 40.0, x, np.log1p(np.exp(np.minimum(x, 40.0))))
    channel = p.transconductance * (n * vt) ** 2 * softplus * softplus
    channel = channel * (
        (1.0 - np.exp(-vds / vt)) * (1.0 + p.channel_length_modulation * vds)
    )
    return np.minimum(channel + p.leakage_current, p.max_on_current)


def reference_series_currents(drop, gate, source, resistance, vth, params):
    """Whole-array 60-step bisection, re-evaluating the full model (oracle)."""
    drop, gate, source, resistance, vth = np.broadcast_arrays(
        *(np.asarray(a, dtype=float) for a in (drop, gate, source, resistance, vth))
    )

    def mismatch(v):
        i_fefet = reference_drain_current(gate, source + v, source, vth, params)
        return (drop - v) / resistance - i_fefet

    lo = np.zeros_like(drop)
    hi = drop.copy()
    f_lo = mismatch(lo)
    f_hi = mismatch(hi)
    if np.any((f_lo > 0) & (f_hi < 0)):
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            positive = mismatch(mid) > 0
            lo = np.where(positive, mid, lo)
            hi = np.where(positive, hi, mid)
    bisected = (drop - 0.5 * (lo + hi)) / resistance
    off = reference_drain_current(gate, source + drop, source, vth, params)
    result = np.where(f_lo <= 0, off, np.where(f_hi >= 0, drop / resistance, bisected))
    return np.where(drop <= 0, 0.0, result)


def random_cell_biases(
    size, seed=0, *, sign=0.25, selected=0.7, stored=0.5, variation=DEFAULT_VARIATION
):
    """Mixed data/sign, stored 0/1, selected/unselected CurFe cell biases.

    ``sign``, ``selected`` and ``stored`` are the expected shares of sign
    cells, selected wordlines and stored '1's.
    """
    rng = np.random.default_rng(seed)
    params = CurFeCellParameters()
    is_sign = rng.random(size) < sign
    drop = np.where(is_sign, params.sign_supply_voltage - params.common_mode_voltage,
                    params.common_mode_voltage)
    gate = np.where(rng.random(size) < selected, params.read_voltage, params.idle_voltage)
    source = np.where(is_sign, params.common_mode_voltage, 0.0)
    significance = rng.integers(0, 4, size)
    resistance = params.base_resistance / 2.0**significance * (
        1.0 + variation.draw_resistor_tolerance(rng, size=size)
    )
    vth = np.where(rng.random(size) < stored, params.low_vth, params.high_vth)
    vth = vth + variation.draw_vth_offset(rng, size=size)
    return drop, gate, source, resistance, vth


@st.composite
def series_cases(draw):
    """Solver inputs around the chunk size that reach every branch.

    Draws 0-d scalars, one cell and ``SOLVE_CHUNK ± 1`` cells with a drawn
    data/sign, selected and stored mix, with or without variation; then
    sets drawn shares of the cells to a non-positive drop, to
    ``vth = 100`` (resistor-limited without leakage) and to ``R = 1e13``
    (off).
    """
    size = draw(st.sampled_from([None, 1, SOLVE_CHUNK - 1, SOLVE_CHUNK + 1]))
    shares = st.sampled_from([0.0, 0.02, 0.3, 1.0])
    seed = draw(st.integers(0, 2**16))
    drop, gate, source, resistance, vth = random_cell_biases(
        size or 1,
        seed,
        sign=draw(shares),
        selected=draw(shares),
        stored=draw(shares),
        variation=draw(st.sampled_from([DEFAULT_VARIATION, NO_VARIATION])),
    )
    rng = np.random.default_rng(seed + 1)
    drop[rng.random(drop.size) < draw(shares)] = draw(st.sampled_from([0.0, -0.0, -0.25]))
    vth[rng.random(vth.size) < draw(shares)] = 100.0
    resistance[rng.random(resistance.size) < draw(shares)] = 1e13
    biases = (drop, gate, source, resistance, vth)
    if size is None:
        biases = tuple(float(array[0]) for array in biases)
    return biases + (draw(st.sampled_from([DEFAULT_NFEFET_PARAMS, LEAK_FREE])),)


def solver_bound(drop, resistance):
    """How far the solve may sit from the bisection: 4 spacings of the drop."""
    return 4 * np.spacing(np.abs(np.asarray(drop, dtype=float))) / resistance


def closed_form_cells(drop, gate, source, resistance, vth, params):
    """Cells the solver answers in closed form: off, resistor-limited or no drop."""
    drop, gate, source, resistance, vth = np.broadcast_arrays(
        *(np.asarray(a, dtype=float) for a in (drop, gate, source, resistance, vth))
    )
    off = drop / resistance - reference_drain_current(gate, source, source, vth, params) <= 0
    limited = -reference_drain_current(gate, source + drop, source, vth, params) >= 0
    return off | limited | (drop <= 0)


def assert_within_bound(current, expected, drop, gate, source, resistance, vth, params):
    """Exact on closed-form cells, within :func:`solver_bound` elsewhere."""
    exact = closed_form_cells(drop, gate, source, resistance, vth, params)
    assert np.array_equal(current[exact], expected[exact])
    error = np.abs(current - expected)
    assert np.all(error <= np.broadcast_to(solver_bound(drop, resistance), error.shape))


class TestCurFeCellParameters:
    def test_resistance_ladder(self):
        params = CurFeCellParameters()
        assert params.resistance_for_significance(0) == pytest.approx(5e6)
        assert params.resistance_for_significance(3) == pytest.approx(0.625e6)

    def test_invalid_significance(self):
        with pytest.raises(ValueError):
            CurFeCellParameters().resistance_for_significance(4)

    def test_nominal_unit_current(self):
        assert CurFeCellParameters().nominal_unit_current() == pytest.approx(100e-9)

    def test_read_voltage_must_separate_states(self):
        with pytest.raises(ValueError):
            CurFeCellParameters(read_voltage=0.2)
        with pytest.raises(ValueError):
            CurFeCellParameters(read_voltage=2.5)


class TestCurFeCell:
    def test_binary_weighted_on_currents(self):
        """Fig. 2(f): 100 nA, 200 nA, 400 nA, 800 nA within a few percent."""
        for significance in range(4):
            cell = CurFeCell(significance, stored_bit=1)
            expected = 100e-9 * 2**significance
            assert cell.bitline_current(1) == pytest.approx(expected, rel=0.05)

    def test_sign_cell_current_is_negative(self):
        cell = CurFeCell(3, is_sign_cell=True, stored_bit=1)
        current = cell.bitline_current(1)
        assert current < 0
        assert abs(current) == pytest.approx(800e-9, rel=0.05)

    def test_stored_zero_blocks_current(self):
        cell = CurFeCell(3, stored_bit=0)
        assert abs(cell.bitline_current(1)) < 1e-9

    def test_unselected_cell_leaks_only(self):
        cell = CurFeCell(3, stored_bit=1)
        assert abs(cell.bitline_current(0)) < 1e-9

    def test_program_validation(self):
        cell = CurFeCell(0)
        with pytest.raises(ValueError):
            cell.program(2)
        with pytest.raises(ValueError):
            cell.bitline_current(3)

    def test_invalid_significance(self):
        with pytest.raises(ValueError):
            CurFeCell(5)

    def test_on_current_restores_state(self):
        cell = CurFeCell(1, stored_bit=0)
        _ = cell.on_current()
        assert cell.stored_bit == 0

    def test_nominal_current(self):
        assert CurFeCell(2).nominal_current() == pytest.approx(400e-9)

    def test_resistor_limits_variation(self, rng):
        """The drain resistor suppresses the FeFET Vth spread (Fig. 7(a))."""
        currents = [
            CurFeCell.sample(
                0, stored_bit=1, variation=DEFAULT_VARIATION, rng=rng
            ).on_current()
            for _ in range(60)
        ]
        spread = np.std(currents) / np.mean(currents)
        assert spread < 0.05

    def test_sample_without_rng_is_nominal(self):
        cell = CurFeCell.sample(0, stored_bit=1)
        assert cell.fefet.vth_offset == 0.0

    def test_on_off_current_separation(self):
        cell = CurFeCell(0, stored_bit=1)
        on = cell.bitline_current(1)
        cell.program(0)
        off = cell.bitline_current(1)
        assert on > 1000 * abs(off)


class TestSeriesSolverAccuracy:
    """The Newton solve agrees with the bisection oracle within float noise.

    Closed-form cells are exact.  Every other cell is within
    :func:`solver_bound` of the 60-step bisection: both answers sit inside
    the rounding noise of the mismatch, so neither is nearer the true root.
    """

    @settings(max_examples=40, deadline=None)
    @given(series_cases())
    def test_property_within_the_bound_of_the_bisection(self, case):
        current = curfe_series_currents(*case)
        expected = reference_series_currents(*case)
        assert current.shape == expected.shape == np.shape(case[0])
        assert_within_bound(current, expected, *case)

    @pytest.mark.parametrize(
        "size", [1, SOLVE_CHUNK - 1, SOLVE_CHUNK, SOLVE_CHUNK + 1, 3 * SOLVE_CHUNK + 5]
    )
    def test_sizes_around_the_chunk(self, size):
        args = random_cell_biases(size, seed=size) + (DEFAULT_NFEFET_PARAMS,)
        assert_within_bound(
            curfe_series_currents(*args), reference_series_currents(*args), *args
        )

    def test_non_positive_drop_gives_zero(self):
        drop, gate, source, resistance, vth = random_cell_biases(64, seed=9)
        drop = drop.copy()
        drop[:8] = 0.0
        drop[8:16] = -0.25
        args = (drop, gate, source, resistance, vth, DEFAULT_NFEFET_PARAMS)
        current = curfe_series_currents(*args)
        assert np.all(current[:16] == 0.0)
        assert_within_bound(current, reference_series_currents(*args), *args)

    def test_closed_form_branches(self):
        # Without leakage a cell whose channel factor underflows to 0 is
        # resistor-limited (f_hi >= 0); a huge resistor makes the cell
        # current fall below the leakage floor, so it is off (f_lo <= 0).
        assert curfe_series_currents(0.5, 1.2, 0.0, 5e6, 100.0, LEAK_FREE) == 0.5 / 5e6
        off = curfe_series_currents(0.5, 1.2, 0.0, 1e13, 0.3, DEFAULT_NFEFET_PARAMS)
        assert off == fefet_drain_current(1.2, 0.5, 0.0, 0.3, DEFAULT_NFEFET_PARAMS)
        # Chunks of closed-form cells only (off or resistor-limited, and no
        # drop) skip the Newton loop and equal the oracle exactly.
        for args in (
            ([0.5, 0.0, -0.0], 1.2, 0.0, 1e13, 0.3, DEFAULT_NFEFET_PARAMS),
            ([0.5, 0.0, -0.25], 1.2, 0.0, 5e6, 100.0, LEAK_FREE),
        ):
            assert closed_form_cells(*args).all()
            assert np.array_equal(
                curfe_series_currents(*args), reference_series_currents(*args)
            )

    @pytest.mark.parametrize("signed", [True, False])
    def test_group_tables_under_variation(self, signed, monkeypatch):
        rng = np.random.default_rng(21)
        shape = (3, 24, 32, 4)  # spans two solver chunks
        vth = DEFAULT_VARIATION.draw_vth_offset(rng, size=shape)
        tol = DEFAULT_VARIATION.draw_resistor_tolerance(rng, size=shape)
        params = CurFeCellParameters()
        tables = characterise_curfe_group(vth, tol, signed=signed, params=params)
        monkeypatch.setattr(curfe_cell, "curfe_series_currents", reference_series_currents)
        expected = characterise_curfe_group(vth, tol, signed=signed, params=params)
        # Every cell sees a 0.5 V drop (1 V - 0.5 V for the sign cell).
        resistance = params.base_resistance / 2.0 ** np.arange(4) * (1.0 + tol)
        for table, oracle in zip(tables, expected):
            assert np.all(np.abs(table - oracle) <= 4 * np.spacing(0.5) / resistance)

    @pytest.mark.parametrize(
        "params",
        [DEFAULT_NFEFET_PARAMS, LEAK_FREE, DEFAULT_PFEFET_PARAMS, FeFETParameters(max_on_current=1e-6)],
        ids=["n", "leak-free", "p", "low-clamp"],
    )
    def test_arbitrary_biases_converge_within_the_noise(self, params, monkeypatch):
        # Far from the CurFe bias points the source voltage can dwarf the
        # drop, and the drain bias ``(source + v) - source`` then resolves
        # v only to the source's spacing, which widens the noise.  Twice
        # the CurFe bound's spacings: these cells read up to ~0.9 of four
        # (200k-cell stress sets), too close for another libm's roundings.
        rng = np.random.default_rng(4)
        size = 3 * SOLVE_CHUNK + 5
        drop, gate, source = rng.uniform([1e-3, -1.0, 0.0], [2.0, 2.5, 1.0], (size, 3)).T
        resistance = 10.0 ** rng.uniform(3.0, 9.0, size)
        vth = rng.uniform(-0.5, 2.5, size)
        args = (drop, gate, source, resistance, vth, params)
        current = curfe_series_currents(*args)
        expected = reference_series_currents(*args)
        noise = 8 * np.spacing(np.abs(drop) + np.abs(source)) / resistance
        assert np.all(np.abs(current - expected) <= noise)
        # Every cell converges in a dozen steps: a lower cap changes nothing.
        monkeypatch.setattr(curfe_cell, "SOLVE_STEPS", 12)
        assert np.array_equal(curfe_series_currents(*args), current)


class TestSeriesSolverDeterminism:
    """A cell's current depends on its own inputs only, bit for bit."""

    @pytest.mark.parametrize("chunk", [1, 37, 4096])
    def test_chunk_size_does_not_matter(self, chunk, monkeypatch):
        args = random_cell_biases(2000, seed=13) + (DEFAULT_NFEFET_PARAMS,)
        expected = curfe_series_currents(*args)
        monkeypatch.setattr(curfe_cell, "SOLVE_CHUNK", chunk)
        assert np.array_equal(curfe_series_currents(*args), expected)

    @pytest.mark.parametrize("params", [DEFAULT_NFEFET_PARAMS, LEAK_FREE])
    def test_permuted_cells_give_permuted_currents(self, params):
        biases = random_cell_biases(3 * SOLVE_CHUNK + 5, seed=17)
        order = np.random.default_rng(18).permutation(biases[0].size)
        current = curfe_series_currents(*biases, params)
        permuted = curfe_series_currents(*(array[order] for array in biases), params)
        assert np.array_equal(permuted, current[order])

    def test_scalars_match_and_stay_zero_dimensional(self):
        biases = random_cell_biases(16, seed=3)
        currents = curfe_series_currents(*biases, DEFAULT_NFEFET_PARAMS)
        for index, args in enumerate(zip(*biases)):
            current = curfe_series_currents(*map(float, args), DEFAULT_NFEFET_PARAMS)
            assert current.shape == ()
            assert current == currents[index]

    @pytest.mark.parametrize("signed", [True, False])
    def test_cell_objects_match_the_group_tables(self, signed):
        rng = np.random.default_rng(23)
        vth = DEFAULT_VARIATION.draw_vth_offset(rng, size=(6, 4))
        tol = DEFAULT_VARIATION.draw_resistor_tolerance(rng, size=(6, 4))
        params = CurFeCellParameters()
        tables = characterise_curfe_group(vth, tol, signed=signed, params=params)
        for (row, col), offset in np.ndenumerate(vth):
            cell = CurFeCell(
                col,
                is_sign_cell=signed and col == 3,
                params=params,
                vth_offset=float(offset),
                resistor_tolerance=float(tol[row, col]),
            )
            for table, (stored, selected) in zip(tables, ((1, 1), (0, 1), (1, 0))):
                cell.program(stored)
                assert cell.bitline_current(selected) == table[row, col]

    def test_column_vectors_broadcast_against_cell_tensor(self):
        params = CurFeCellParameters()
        rows = SOLVE_CHUNK // 4 + 3
        rng = np.random.default_rng(5)
        drop = np.array([0.5, 0.5, 0.5, 0.5])
        source = np.array([0.0, 0.0, 0.0, 0.5])
        resistance = params.base_resistance / 2.0 ** np.arange(4) * (
            1.0 + 0.01 * rng.standard_normal((rows, 4))
        )
        vth = params.low_vth + 0.04 * rng.standard_normal((rows, 4))
        args = (drop, params.read_voltage, source, resistance, vth, DEFAULT_NFEFET_PARAMS)
        current = curfe_series_currents(*args)
        assert current.shape == (rows, 4)
        expanded = (np.broadcast_to(array, (rows, 4)).copy() for array in args[:5])
        assert np.array_equal(current, curfe_series_currents(*expanded, DEFAULT_NFEFET_PARAMS))
        assert_within_bound(current, reference_series_currents(*args), *args)


class TestCompactModelHalves:
    @pytest.mark.parametrize("params", [DEFAULT_NFEFET_PARAMS, DEFAULT_PFEFET_PARAMS])
    def test_drain_current_is_the_composition_of_its_halves(self, params):
        rng = np.random.default_rng(2)
        vg, vd, vs = rng.uniform(-1.5, 1.5, (3, 2048))
        vth = rng.uniform(-1.0, 2.0, 2048)
        factor = fefet_bias_factor(vg, vs, vth, params)
        composed = fefet_current_from_factor(factor, vd, vs, params)
        buffered = fefet_current_from_factor(
            factor, vd, vs, params, out=np.empty(2048), work=np.empty(2048)
        )
        current = fefet_drain_current(vg, vd, vs, vth, params)
        assert np.array_equal(current, composed)
        assert np.array_equal(current, buffered)
        assert np.array_equal(current, reference_drain_current(vg, vd, vs, vth, params))

    @pytest.mark.parametrize(
        "params", [DEFAULT_NFEFET_PARAMS, DEFAULT_PFEFET_PARAMS], ids=["n", "p"]
    )
    def test_slope_matches_central_differences(self, params):
        rng = np.random.default_rng(6)
        size = 4096
        vg, vs = rng.uniform(-1.5, 1.5, (2, size))
        vth = rng.uniform(-1.0, 2.0, size)
        vds = rng.choice([-1.0, 1.0], size) * rng.uniform(0.01, 1.5, size)
        vd = vs + vds
        factor = fefet_bias_factor(vg, vs, vth, params)
        slope, buffered = np.empty(size), np.empty(size)
        current = fefet_current_from_factor(factor, vd, vs, params, slope=slope)
        fefet_current_from_factor(
            factor, vd, vs, params, out=np.empty(size), work=np.empty(size), slope=buffered
        )
        # Asking for the slope leaves the current alone.
        assert np.array_equal(current, fefet_drain_current(vg, vd, vs, vth, params))
        assert np.array_equal(slope, buffered)
        # The slope is dI/d|Vds|, so mirror the difference where vd < vs.
        h = 1e-6
        up = fefet_drain_current(vg, vd + h, vs, vth, params)
        down = fefet_drain_current(vg, vd - h, vs, vth, params)
        difference = np.sign(vds) * (up - down) / (2 * h)
        clamped = np.minimum(up, down) >= params.max_on_current
        free = np.maximum(up, down) < params.max_on_current
        assert clamped.sum() > 100 and free.sum() > 1000
        assert np.all(slope[clamped] == 0.0)
        np.testing.assert_allclose(slope[free], difference[free], rtol=1e-6, atol=1e-15)
        # At vd == vs it is the right-hand derivative.
        at_zero = np.empty(size)
        fefet_current_from_factor(factor, vs, vs, params, slope=at_zero)
        ahead = fefet_drain_current(vg, vs + h, vs, vth, params)
        onward = (ahead - fefet_drain_current(vg, vs, vs, vth, params)) / h
        np.testing.assert_allclose(at_zero, onward, rtol=1e-4, atol=1e-15)

    @pytest.mark.parametrize("params", [DEFAULT_NFEFET_PARAMS, DEFAULT_PFEFET_PARAMS])
    def test_signed_zero_drain_bias_folds_to_the_same_current(self, params):
        # vd - vs is exactly +0.0 (vd == vs) or -0.0 (-0.0 - 0.0).  abs
        # folds both to +0.0; the oracle's sign test passes the zero
        # through with its sign (flipped for p).  exp(±0) = 1 either way.
        vd = np.array([0.0, -0.0, 0.5, -0.0])
        vs = np.array([0.0, 0.0, 0.5, 0.0])
        assert np.signbit(vd - vs).tolist() == [False, True, False, True]
        vg = np.array([1.2, 1.2, 0.0, -1.2])
        vth = np.array([0.3, -0.4, 2.0, 0.3])
        factor = fefet_bias_factor(vg, vs, vth, params)
        expected = reference_drain_current(vg, vd, vs, vth, params)
        for current in (
            fefet_current_from_factor(factor, vd, vs, params),
            fefet_current_from_factor(factor, vd, vs, params, out=np.empty(4), work=np.empty(4)),
            fefet_drain_current(vg, vd, vs, vth, params),
        ):
            assert current.tobytes() == expected.tobytes()
        for scalar in (0.0, -0.0):
            assert fefet_drain_current(1.2, scalar, 0.0, 0.3, params) == float(
                reference_drain_current(1.2, scalar, 0.0, 0.3, params)
            )
