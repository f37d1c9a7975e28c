"""Workload-calibrated ADC references on the device-detailed paths.

The contract under test: the device engine and the functional backend
derive identical reference levels from identical samples (one shared
implementation), calibration keeps the tile grid bit-identical to one padded
macro (one layer-wide level set applied to every tile), calibration shrinks the
5-bit conversion error, and re-programming a macro invalidates stale
calibration.
"""

import numpy as np
import pytest

from repro.chipsim.tiling import TiledLayerEngine
from repro.core.functional import FunctionalIMCModel, FunctionalModelConfig
from repro.core.macro import CurFeMacro, IMCMacroConfig
from repro.devices.variation import DEFAULT_VARIATION, NO_VARIATION
from repro.engine.array_state import ArrayState
from repro.engine.macro_engine import MacroEngine
from repro.system.inference import InferenceConfig, QuantizedInferenceEngine
from repro.system.nn import SmallCNN


def build_engine(weights, *, design="curfe", variation=NO_VARIATION, seed=0):
    rows, cols = weights.shape
    config = IMCMacroConfig(
        rows=rows, banks=cols, block_rows=32, adc_bits=5, weight_bits=8,
        variation=variation, seed=seed,
    )
    engine = MacroEngine(ArrayState.build(design, config), adc_bits=5, weight_bits=8)
    engine.program_weights(weights)
    return engine


class TestFunctionalDeviceEquivalence:
    @pytest.mark.parametrize("design", ["curfe", "chgfe"])
    def test_same_samples_give_identical_levels(self, design):
        rng = np.random.default_rng(0)
        weights = rng.integers(-128, 128, size=(64, 8))
        acts = rng.integers(0, 16, size=(30, 64))
        functional = FunctionalIMCModel(
            FunctionalModelConfig(
                design=design, input_bits=4, adc_bits=5, variation=NO_VARIATION
            ),
            rng=np.random.default_rng(0),
        )
        functional.program(weights)
        functional_levels = functional.calibrate_adc_ranges(acts)
        engine = build_engine(weights, design=design)
        engine_levels = engine.calibrate_references(acts.T, bits=4)
        assert set(engine_levels) == set(functional_levels) == {"high", "low"}
        for key in engine_levels:
            assert np.array_equal(engine_levels[key], functional_levels[key])

    def test_calibration_reduces_device_5bit_error(self):
        rng = np.random.default_rng(1)
        weights = rng.integers(-128, 128, size=(64, 8))
        acts = rng.integers(0, 16, size=(40, 64))
        nominal = build_engine(weights)
        ideal = nominal.ideal_matmat(acts.T)
        err_nominal = np.abs(nominal.matmat(acts.T, bits=4) - ideal).mean()
        calibrated = build_engine(weights)
        calibrated.calibrate_references(acts.T, bits=4)
        err_calibrated = np.abs(calibrated.matmat(acts.T, bits=4) - ideal).mean()
        assert err_calibrated < err_nominal

    def test_requires_programming(self):
        config = IMCMacroConfig(
            rows=32, banks=2, block_rows=32, adc_bits=5, weight_bits=8,
            variation=NO_VARIATION,
        )
        engine = MacroEngine(ArrayState.build("curfe", config))
        with pytest.raises(RuntimeError):
            engine.calibrate_references(np.zeros((32, 1), dtype=int), bits=4)

    def test_level_key_validation(self):
        rng = np.random.default_rng(2)
        engine = build_engine(rng.integers(-128, 128, size=(32, 2)))
        with pytest.raises(ValueError):
            engine.apply_reference_levels({"high": np.array([0.0])})
        with pytest.raises(ValueError):
            engine.apply_reference_levels(
                {"high": np.array([0.0]), "low": np.array([0.0]), "mid": np.array([0.0])}
            )


class TestTiledBitIdentityUnderCalibration:
    @pytest.mark.parametrize("design", ["curfe", "chgfe"])
    @pytest.mark.parametrize("method", ["exact", "fast"])
    def test_tiled_matches_monolithic(self, design, method):
        rng = np.random.default_rng(3)
        weights = rng.integers(-128, 128, size=(200, 20))
        padded_rows = -(-200 // 32) * 32
        padded = np.zeros((padded_rows, 20), dtype=np.int64)
        padded[:200] = weights
        mono = MacroEngine(
            ArrayState.build(
                design,
                IMCMacroConfig(
                    rows=padded_rows, banks=20, block_rows=32, adc_bits=5,
                    weight_bits=8, variation=DEFAULT_VARIATION, seed=9,
                ),
            ),
            adc_bits=5, weight_bits=8,
        )
        mono.program_weights(padded)
        tiled = TiledLayerEngine(
            weights, design=design, variation=DEFAULT_VARIATION, seed=9
        )
        cal = rng.integers(0, 16, size=(200, 8))
        padded_cal = np.zeros((padded_rows, 8), dtype=np.int64)
        padded_cal[:200] = cal
        mono_levels = mono.calibrate_references(padded_cal, bits=4)
        tiled_levels = tiled.calibrate_references(cal, bits=4)
        for key in mono_levels:
            assert np.array_equal(mono_levels[key], tiled_levels[key])
        inputs = rng.integers(0, 16, size=(200, 5))
        padded_in = np.zeros((padded_rows, 5), dtype=np.int64)
        padded_in[:200] = inputs
        assert np.array_equal(
            tiled.matmat(inputs, bits=4, method=method),
            mono.matmat(padded_in, bits=4, method=method),
        )

    def test_tiled_sample_validation_matches_monolithic(self):
        """Float or out-of-range samples fail loudly on both paths alike."""
        rng = np.random.default_rng(10)
        tiled = TiledLayerEngine(
            rng.integers(-128, 128, size=(64, 4)),
            design="curfe", variation=NO_VARIATION,
        )
        with pytest.raises(ValueError):
            tiled.calibrate_references(rng.random((64, 3)) * 15, bits=4)
        with pytest.raises(ValueError):
            tiled.calibrate_references(
                np.full((64, 3), 300, dtype=np.int64), bits=4
            )
        with pytest.raises(ValueError):
            tiled.calibrate_references(
                np.zeros((63, 3), dtype=np.int64), bits=4
            )

    def test_returned_levels_are_programmed_and_cleared(self):
        rng = np.random.default_rng(4)
        weights = rng.integers(-128, 128, size=(300, 40))
        tiled = TiledLayerEngine(weights, design="curfe", variation=NO_VARIATION)
        assert tiled.num_tiles > 1
        assert tiled.reference_levels is None
        levels = tiled.calibrate_references(
            rng.integers(0, 16, size=(300, 6)), bits=4
        )
        programmed = tiled.reference_levels
        assert programmed is not None and programmed.keys() == levels.keys()
        for key in levels:
            assert np.array_equal(programmed[key], levels[key])
        tiled.clear_calibration()
        assert tiled.reference_levels is None


class TestInvalidation:
    def test_engine_reprogram_clears_calibration(self):
        rng = np.random.default_rng(5)
        weights = rng.integers(-128, 128, size=(32, 4))
        engine = build_engine(weights)
        engine.calibrate_references(rng.integers(0, 16, size=(32, 6)), bits=4)
        assert engine.reference_levels is not None
        engine.program_weights(rng.integers(-128, 128, size=(32, 4)))
        assert engine.reference_levels is None

    def test_macro_reprogram_invalidates_stale_calibration(self):
        """Bank-level reprogramming through the macro resets the references."""
        rng = np.random.default_rng(6)
        macro = CurFeMacro(
            IMCMacroConfig(
                rows=32, banks=2, block_rows=32, adc_bits=5, weight_bits=8,
                variation=NO_VARIATION,
            )
        )
        macro.program_weights(rng.integers(-128, 128, size=(32, 2)))
        macro.engine.calibrate_references(rng.integers(0, 16, size=(32, 4)), bits=4)
        assert macro.engine.reference_levels is not None
        macro.program_weights(rng.integers(-128, 128, size=(32, 2)))
        assert macro.engine.reference_levels is None

    def test_reverted_calibration_equals_never_calibrated(self):
        rng = np.random.default_rng(7)
        weights = rng.integers(-128, 128, size=(32, 4))
        acts = rng.integers(0, 16, size=(32, 10))
        fresh = build_engine(weights)
        expected = fresh.matmat(acts, bits=4)
        engine = build_engine(weights)
        engine.calibrate_references(acts, bits=4)
        engine.program_weights(weights)
        assert np.array_equal(engine.matmat(acts, bits=4), expected)


class TestConfigKnob:
    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            InferenceConfig(calibration="bogus")
        with pytest.raises(ValueError):
            InferenceConfig(calibration_samples=0)

    def test_nominal_mode_leaves_references_unprogrammed(self):
        model = SmallCNN(seed=0)
        images = np.random.default_rng(8).random((2, 3, 16, 16))
        engine = QuantizedInferenceEngine(
            model,
            InferenceConfig(
                design="curfe", backend="device", adc_bits=5,
                calibration="nominal", variation=NO_VARIATION,
            ),
        )
        engine.forward(images)
        for layer in engine.quantized_layers.values():
            assert layer.engine.reference_levels is None

    def test_workload_mode_programs_every_layer(self):
        model = SmallCNN(seed=0)
        images = np.random.default_rng(9).random((2, 3, 16, 16))
        engine = QuantizedInferenceEngine(
            model,
            InferenceConfig(
                design="curfe", backend="device", adc_bits=5,
                calibration="workload", variation=NO_VARIATION,
            ),
        )
        engine.forward(images)
        for layer in engine.quantized_layers.values():
            assert layer.engine.reference_levels is not None
