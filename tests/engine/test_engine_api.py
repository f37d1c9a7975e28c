"""API/behaviour tests of the engine subsystem and its system-layer hookup."""

import numpy as np
import pytest

from repro.core.inputs import InputVector
from repro.core.macro import ChgFeMacro, CurFeMacro, IMCMacroConfig
from repro.devices.variation import DEFAULT_VARIATION, NO_VARIATION
from repro.engine import ArrayState, MacroEngine, macro_engine
from repro.engine.readout_core import (
    adc_raw_codes,
    combine_nibbles,
    shift_add_planes,
)
from repro.system.inference import InferenceConfig, QuantizedInferenceEngine
from repro.system.nn import SmallCNN


def small_config(**overrides):
    defaults = dict(
        rows=32, banks=2, block_rows=32, adc_bits=5, weight_bits=8,
        variation=NO_VARIATION,
    )
    defaults.update(overrides)
    return IMCMacroConfig(**defaults)


def programmed_engine(config=None, seed=0):
    config = config or small_config()
    engine = MacroEngine(
        ArrayState.build("curfe", config),
        adc_bits=config.adc_bits,
        weight_bits=config.weight_bits,
    )
    rng = np.random.default_rng(seed)
    weights = rng.integers(-128, 128, size=(config.rows, config.banks))
    engine.program_weights(weights)
    return engine, weights, rng


class TestReadoutCore:
    def test_adc_raw_codes_rounds_and_clips(self):
        codes = adc_raw_codes(
            np.array([-1.0, 0.05, 0.5, 0.95, 2.0]),
            v_min=0.05, v_max=0.95, num_levels=32,
        )
        assert codes[0] == 0 and codes[-1] == 31
        assert codes[1] == 0 and codes[3] == 31

    def test_combine_nibbles_validation(self):
        assert combine_nibbles(3.0, 5.0, 8) == 53.0
        assert combine_nibbles(-2.0, None, 4) == -2.0
        with pytest.raises(ValueError):
            combine_nibbles(1.0, None, 8)
        with pytest.raises(ValueError):
            combine_nibbles(1.0, 1.0, 6)

    def test_shift_add_planes(self):
        assert shift_add_planes([1.0, 1.0, 1.0]) == 7.0
        result = shift_add_planes([np.array([1.0, 2.0]), np.array([3.0, 0.0])])
        assert np.array_equal(result, np.array([7.0, 2.0]))


class TestMacroEngineAPI:
    def test_requires_programming(self):
        engine = MacroEngine(ArrayState.build("curfe", small_config()))
        with pytest.raises(RuntimeError):
            engine.matvec(InputVector(values=np.zeros(32, dtype=int), bits=1))

    def test_weight_shape_validation(self):
        engine, _, _ = programmed_engine()
        with pytest.raises(ValueError):
            engine.program_weights(np.zeros((16, 2), dtype=int))

    def test_input_validation(self):
        engine, _, rng = programmed_engine()
        with pytest.raises(ValueError):
            engine.matmat(rng.integers(0, 2, size=(16, 3)), bits=1)
        with pytest.raises(ValueError):
            engine.matmat(np.full((32, 2), 9), bits=3)
        with pytest.raises(ValueError):
            engine.matmat(np.zeros((32, 2), dtype=int), bits=4, method="sloppy")
        with pytest.raises(ValueError):
            engine.matmat(np.zeros((32, 2), dtype=int), bits=9)

    def test_ideal_references(self):
        engine, weights, rng = programmed_engine()
        vector = InputVector.random(32, 4, rng)
        assert np.array_equal(engine.ideal_matvec(vector), weights.T @ vector.values)
        batch = rng.integers(0, 16, size=(32, 5))
        assert np.array_equal(engine.ideal_matmat(batch), weights.T @ batch)

    def test_one_dimensional_matmat_input(self):
        engine, _, rng = programmed_engine()
        vector = rng.integers(0, 16, size=32)
        result = engine.matmat(vector, bits=4)
        assert result.shape == (2, 1)

    def test_engine_tracks_bank_level_reprogramming(self):
        """Programming a bank behind the macro's back must not go stale."""
        from repro.core.weights import encode_weight_matrix

        config = small_config()
        macro = CurFeMacro(config)
        rng = np.random.default_rng(8)
        macro.program_weights(rng.integers(-128, 128, size=(32, 2)))
        inputs = InputVector.random(32, 4, rng)
        _ = macro.matvec(inputs)  # caches the engine
        plan = encode_weight_matrix(rng.integers(-128, 128, size=(32, 1)), 8)
        macro.bank(0, 0).program(plan.high_bits[:, 0, :], plan.low_bits[:, 0, :])
        assert np.array_equal(macro.matvec(inputs), macro.matvec_reference(inputs))

    def test_engine_tracks_macro_reprogramming(self):
        config = small_config()
        macro = CurFeMacro(config)
        rng = np.random.default_rng(2)
        first = rng.integers(-128, 128, size=(32, 2))
        macro.program_weights(first)
        inputs = InputVector.random(32, 4, rng)
        _ = macro.matvec(inputs)  # builds the engine
        second = rng.integers(-128, 128, size=(32, 2))
        macro.program_weights(second)
        assert np.array_equal(macro.matvec(inputs), macro.matvec_reference(inputs))

    def test_macro_matvec_accuracy_against_ideal(self):
        """The delegated matvec keeps the legacy accuracy contract."""
        config = IMCMacroConfig(
            rows=32, banks=2, block_rows=16, adc_bits=8, weight_bits=8
        )
        macro = ChgFeMacro(config)
        rng = np.random.default_rng(0)
        weights = rng.integers(-30, 30, size=(32, 2))
        macro.program_weights(weights)
        inputs = InputVector(values=rng.integers(0, 4, size=32), bits=2)
        assert np.all(np.abs(macro.matvec(inputs) - macro.ideal_matvec(inputs)) <= 60)

    def test_unsupported_design_rejected(self):
        with pytest.raises(ValueError):
            ArrayState.build("ideal", small_config())


class TestBatchChunk:
    """The engine's column chunk (``DEFAULT_BATCH_CHUNK``) bounds memory
    without changing results."""

    @pytest.mark.parametrize("chunk", [1, 2, 3, 5, 64])
    def test_chunks_do_not_change_results(self, chunk, monkeypatch):
        engine, _, rng = programmed_engine()
        inputs = rng.integers(0, 16, size=(32, 5))
        whole = engine.matmat(inputs, bits=4, method="fast")
        blocks = engine.matmat_blocks(inputs, bits=4, method="fast")
        monkeypatch.setattr(macro_engine, "DEFAULT_BATCH_CHUNK", chunk)
        dispatches = macro_engine._KERNEL_DISPATCHES.value(kernel="fast", level="plane")
        assert np.array_equal(engine.matmat(inputs, bits=4, method="fast"), whole)
        assert np.array_equal(
            engine.matmat_blocks(inputs, bits=4, method="fast"), blocks
        )
        # One kernel dispatch per chunk, in each of the two calls.
        assert macro_engine._KERNEL_DISPATCHES.value(
            kernel="fast", level="plane"
        ) == dispatches + 2 * -(-5 // chunk)

    @pytest.mark.parametrize("method", ["exact", "fast", "fused"])
    def test_tiled_engine_reads_the_constant_at_call_time(self, method, monkeypatch):
        """One patch of the constant reaches the layer engine too: the fused
        kernel's chunk loop and the plane kernels' column slices."""
        from repro.chipsim.tiling import TiledLayerEngine

        rng = np.random.default_rng(4)
        tiled = TiledLayerEngine(
            rng.integers(-128, 128, size=(40, 6)), design="curfe",
            variation=DEFAULT_VARIATION, seed=4,
        )
        inputs = rng.integers(0, 16, size=(40, 5))
        whole = tiled.matmat(inputs, bits=4, method=method)
        level = "layer" if method == "fused" else "plane"
        widths = []
        engine_matmat = tiled.engine.matmat

        def recorded(columns, **kwargs):
            widths.append(columns.shape[1])
            return engine_matmat(columns, **kwargs)

        monkeypatch.setattr(tiled.engine, "matmat", recorded)
        monkeypatch.setattr(macro_engine, "DEFAULT_BATCH_CHUNK", 2)
        dispatches = macro_engine._KERNEL_DISPATCHES.value(kernel=method, level=level)
        assert np.array_equal(tiled.matmat(inputs, bits=4, method=method), whole)
        # The fused kernel takes the whole batch and chunks it itself; the
        # plane kernels get one slice per chunk.
        assert sorted(widths) == ([5] if method == "fused" else [1, 2, 2])
        # Columns 0-1, 2-3 and 4: one kernel dispatch each.
        assert macro_engine._KERNEL_DISPATCHES.value(
            kernel=method, level=level
        ) == dispatches + 3


class TestSeedSemantics:
    def test_equal_configs_sample_identical_macros(self):
        config = small_config(variation=DEFAULT_VARIATION, seed=5)
        rng = np.random.default_rng(1)
        weights = rng.integers(-128, 128, size=(32, 2))
        inputs = InputVector.random(32, 4, rng)
        results = []
        for _ in range(2):
            macro = CurFeMacro(config)
            macro.program_weights(weights)
            results.append(macro.matvec(inputs))
        assert np.array_equal(results[0], results[1])

    def test_seed_changes_sampled_devices(self):
        block_a = CurFeMacro(small_config(variation=DEFAULT_VARIATION, seed=0))
        block_b = CurFeMacro(small_config(variation=DEFAULT_VARIATION, seed=1))
        table_a = block_a.bank(0, 0).high_block.characterisation_tables()[0]
        table_b = block_b.bank(0, 0).high_block.characterisation_tables()[0]
        assert not np.array_equal(table_a, table_b)

    def test_explicit_rng_overrides_seed(self):
        config = small_config(variation=DEFAULT_VARIATION, seed=0)
        macro_seeded = CurFeMacro(config)
        macro_explicit = CurFeMacro(config, rng=np.random.default_rng(1234))
        table_a = macro_seeded.bank(0, 0).high_block.characterisation_tables()[0]
        table_b = macro_explicit.bank(0, 0).high_block.characterisation_tables()[0]
        assert not np.array_equal(table_a, table_b)


class TestDeviceInferenceBackend:
    def test_device_backend_forward_smoke(self):
        model = SmallCNN(seed=0)
        rng = np.random.default_rng(1)
        images = rng.random((2, *model.input_shape))
        config = InferenceConfig(
            design="curfe", backend="device", input_bits=4, weight_bits=8,
            adc_bits=5, variation=NO_VARIATION,
        )
        engine = QuantizedInferenceEngine(model, config)
        logits = engine.forward(images)
        assert logits.shape == (2, model.num_classes)
        assert np.all(np.isfinite(logits))

    def test_device_backend_is_deterministic(self):
        model = SmallCNN(seed=0)
        rng = np.random.default_rng(1)
        images = rng.random((2, *model.input_shape))
        config = InferenceConfig(
            design="chgfe", backend="device", input_bits=4, weight_bits=8,
            adc_bits=5, variation=DEFAULT_VARIATION, seed=3,
        )
        logits_a = QuantizedInferenceEngine(model, config).forward(images)
        logits_b = QuantizedInferenceEngine(model, config).forward(images)
        assert np.array_equal(logits_a, logits_b)

    def test_device_backend_config_validation(self):
        with pytest.raises(ValueError):
            InferenceConfig(design="ideal", backend="device")
        with pytest.raises(ValueError):
            InferenceConfig(design="curfe", backend="device", adc_bits=None)
        with pytest.raises(ValueError):
            InferenceConfig(backend="quantum")
