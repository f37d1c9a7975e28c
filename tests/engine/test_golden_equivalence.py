"""Golden-equivalence suite: the vectorised engine vs the legacy loop.

The contract of :class:`repro.engine.MacroEngine` is that with
``method="exact"`` it reproduces the legacy per-device path —
:meth:`repro.core.macro.IMCMacro.matvec_reference`, which walks banks ×
block rows × bit planes through per-cell object evaluation — **bit for
bit**, for both designs, both weight precisions, with and without device
variation.  Every assertion here is exact float equality, not allclose.
"""

import numpy as np
import pytest

from repro.core.inputs import InputVector
from repro.core.macro import ChgFeMacro, CurFeMacro, IMCMacroConfig
from repro.devices.variation import DEFAULT_VARIATION, NO_VARIATION, VariationModel
from repro.engine import ArrayState, MacroEngine, macro_engine

MACRO_CLASSES = {"curfe": CurFeMacro, "chgfe": ChgFeMacro}


def make_config(weight_bits, variation, *, rows=64, banks=3, adc_bits=5, seed=7):
    return IMCMacroConfig(
        rows=rows,
        banks=banks,
        block_rows=32,
        adc_bits=adc_bits,
        weight_bits=weight_bits,
        variation=variation,
        seed=seed,
    )


def random_weights(rng, config):
    lo = -8 if config.weight_bits == 4 else -128
    hi = 7 if config.weight_bits == 4 else 127
    return rng.integers(lo, hi + 1, size=(config.rows, config.banks))


@pytest.fixture(params=["curfe", "chgfe"])
def design(request):
    return request.param


@pytest.fixture(params=[4, 8], ids=["w4", "w8"])
def weight_bits(request):
    return request.param


@pytest.fixture(params=[False, True], ids=["novar", "var"])
def variation(request):
    return DEFAULT_VARIATION if request.param else NO_VARIATION


class TestGoldenEquivalence:
    def test_matvec_bit_identical_to_legacy_loop(self, design, weight_bits, variation):
        config = make_config(weight_bits, variation)
        macro = MACRO_CLASSES[design](config)
        rng = np.random.default_rng(3)
        macro.program_weights(random_weights(rng, config))
        for bits in (1, 4, 8):
            inputs = InputVector.random(config.rows, bits, rng)
            reference = macro.matvec_reference(inputs)
            engine_result = macro.matvec(inputs)
            assert np.array_equal(engine_result, reference), (design, weight_bits, bits)

    def test_standalone_engine_matches_legacy_loop(self, design, weight_bits, variation):
        """An engine built without any cell objects equals the object path."""
        config = make_config(weight_bits, variation)
        macro = MACRO_CLASSES[design](config)
        rng = np.random.default_rng(5)
        weights = random_weights(rng, config)
        macro.program_weights(weights)
        engine = MacroEngine(
            ArrayState.build(design, config),
            adc_bits=config.adc_bits,
            weight_bits=config.weight_bits,
        )
        engine.program_weights(weights)
        inputs = InputVector.random(config.rows, 4, rng)
        assert np.array_equal(engine.matvec(inputs), macro.matvec_reference(inputs))

    def test_matmat_equals_column_stacked_matvec(self, design, weight_bits, variation):
        config = make_config(weight_bits, variation)
        macro = MACRO_CLASSES[design](config)
        rng = np.random.default_rng(11)
        macro.program_weights(random_weights(rng, config))
        batch = np.stack(
            [InputVector.random(config.rows, 4, rng).values for _ in range(6)], axis=1
        )
        result = macro.matmat(batch, bits=4)
        assert result.shape == (config.banks, 6)
        for column in range(batch.shape[1]):
            vector = InputVector(values=batch[:, column], bits=4)
            assert np.array_equal(result[:, column], macro.matvec(vector)), column

    def test_matmat_chunking_is_exact(self, design, monkeypatch):
        config = make_config(8, NO_VARIATION)
        macro = MACRO_CLASSES[design](config)
        rng = np.random.default_rng(13)
        macro.program_weights(random_weights(rng, config))
        batch = rng.integers(0, 16, size=(config.rows, 9))
        whole = macro.engine.matmat(batch, bits=4)
        monkeypatch.setattr(macro_engine, "DEFAULT_BATCH_CHUNK", 2)
        chunked = macro.engine.matmat(batch, bits=4)
        assert np.array_equal(whole, chunked)

    def test_fast_method_is_close(self, design, weight_bits, variation):
        config = make_config(weight_bits, variation)
        macro = MACRO_CLASSES[design](config)
        rng = np.random.default_rng(17)
        macro.program_weights(random_weights(rng, config))
        batch = rng.integers(0, 16, size=(config.rows, 8))
        exact = macro.matmat(batch, bits=4)
        fast = macro.matmat(batch, bits=4, method="fast")
        # The fast reduction differs only at ULP level in analog voltage;
        # a disagreement can only move a conversion by at most one ADC code.
        assert np.allclose(fast, exact, atol=1e-9)


class TestArrayStateConstruction:
    def test_build_matches_from_macro_exactly(self, design, variation):
        """Standalone vectorised sampling replays the macro's rng stream."""
        config = make_config(8, variation, banks=2)
        built = ArrayState.build(design, config)
        harvested = ArrayState.from_macro(MACRO_CLASSES[design](config))
        for group_key in ("high", "low"):
            built_group = built.group(group_key)
            harvested_group = harvested.group(group_key)
            for field in ("on", "off_selected", "unselected"):
                assert np.array_equal(
                    np.asarray(getattr(built_group, field)),
                    getattr(harvested_group, field),
                ), (group_key, field)
            if design == "chgfe":
                assert np.array_equal(
                    built_group.capacitance, harvested_group.capacitance
                )
            else:
                assert (
                    built_group.feedback_resistance
                    == harvested_group.feedback_resistance
                )

    @pytest.mark.parametrize(
        "model",
        [
            VariationModel(resistor_sigma=0.0, capacitor_sigma=0.0),
            VariationModel(vth_sigma=0.0),
            VariationModel(vth_sigma=0.0, resistor_sigma=0.0, capacitor_sigma=0.0),
        ],
        ids=["vth-only", "passives-only", "all-zero"],
    )
    def test_build_matches_from_macro_for_every_sigma_mix(self, design, model):
        """A zero sigma consumes no draw, so the other streams keep their order."""
        config = make_config(8, model, banks=2, seed=5)
        built = ArrayState.build(design, config)
        harvested = ArrayState.from_macro(MACRO_CLASSES[design](config))
        for group_key in ("high", "low"):
            built_group = built.group(group_key)
            harvested_group = harvested.group(group_key)
            for field in ("on", "off_selected", "unselected"):
                assert np.array_equal(
                    np.asarray(getattr(built_group, field)),
                    getattr(harvested_group, field),
                ), (group_key, field)
            if design == "chgfe":
                assert np.array_equal(
                    built_group.capacitance, harvested_group.capacitance
                )

    def test_build_with_explicit_rng_matches_seeded_macro(self, design):
        config = make_config(8, DEFAULT_VARIATION, banks=2, seed=99)
        built = ArrayState.build(design, config, rng=np.random.default_rng(123))
        macro = MACRO_CLASSES[design](config, rng=np.random.default_rng(123))
        harvested = ArrayState.from_macro(macro)
        assert np.array_equal(np.asarray(built.high.on), harvested.high.on)

    def test_different_seeds_sample_different_devices(self, design):
        base = make_config(8, DEFAULT_VARIATION, banks=1, seed=0)
        other = make_config(8, DEFAULT_VARIATION, banks=1, seed=1)
        state_a = ArrayState.build(design, base)
        state_b = ArrayState.build(design, other)
        assert not np.array_equal(np.asarray(state_a.high.on), np.asarray(state_b.high.on))


class TestQuantizerEquivalence:
    def test_vectorised_quantizer_matches_scalar(self):
        config = make_config(8, NO_VARIATION, banks=1)
        macro = CurFeMacro(config)
        bank = macro.bank(0, 0)
        quantizer = bank._quantizer_high
        params = quantizer.adc.params
        voltages = np.linspace(params.v_min - 0.1, params.v_max + 0.1, 257)
        vectorised = quantizer.quantize_voltages(voltages)
        scalar = np.array([quantizer.quantize_voltage(float(v)) for v in voltages])
        assert np.array_equal(vectorised, scalar)
