"""Bit-identity gate of the fused layer-level kernel.

The golden contract of the kernel-dispatch layer: ``device_exec="fused"``
must be ``array_equal`` to the ``"fast"`` plane kernel everywhere it can
run — both designs, calibrated and uncalibrated, tile grids and single
engines, raw engine matmats and full scenario inference — and a serving
deployment built on a fused program must reproduce its own offline
:meth:`ChipSimulator.run` bit-for-bit.  Activity counters are a property of
the simulated chip, not of the host kernel, so fused and fast must report
identical counts.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chipsim import ChipSimulator
from repro.chipsim.scenarios import get_scenario
from repro.chipsim.tiling import TiledLayerEngine
from repro.core.macro import IMCMacroConfig
from repro.devices.variation import DEFAULT_VARIATION, NO_VARIATION
from repro.engine.array_state import ArrayState
from repro.engine.macro_engine import MacroEngine
from repro.obs.tracer import Tracer, set_tracer
from repro.quant.quantize import signed_range
from repro.serve import ChipProgram, ServeConfig, ServeRuntime
from repro.system.inference import InferenceConfig, QuantizedInferenceEngine
from repro.system.nn import SmallCNN


def monolithic_engine(weights, *, design, seed=3):
    rows, cols = weights.shape
    padded_rows = -(-rows // 32) * 32
    padded = np.zeros((padded_rows, cols), dtype=np.int64)
    padded[:rows] = weights
    config = IMCMacroConfig(
        rows=padded_rows, banks=cols, block_rows=32,
        adc_bits=5, weight_bits=8, variation=DEFAULT_VARIATION, seed=seed,
    )
    engine = MacroEngine(ArrayState.build(design, config), adc_bits=5, weight_bits=8)
    engine.program_weights(padded)
    return engine, padded_rows


@settings(max_examples=240, deadline=None)
@given(
    rows=st.integers(min_value=1, max_value=260),  # 1-3 row tiles
    cols=st.integers(min_value=1, max_value=34),  # 1-3 column tiles
    design=st.sampled_from(["curfe", "chgfe"]),
    weight_bits=st.sampled_from([4, 8]),
    adc_bits=st.integers(min_value=3, max_value=8),
    bits=st.integers(min_value=1, max_value=8),
    variation=st.sampled_from([DEFAULT_VARIATION, NO_VARIATION]),
    calibrated=st.booleans(),
    batch=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_exact_fast_and_fused_are_array_equal(
    rows, cols, design, weight_bits, adc_bits, bits, variation, calibrated,
    batch, seed,
):
    rng = np.random.default_rng(seed)
    lo, hi = signed_range(weight_bits)
    tiled = TiledLayerEngine(
        rng.integers(lo, hi + 1, size=(rows, cols)), design=design,
        adc_bits=adc_bits, weight_bits=weight_bits, variation=variation,
        seed=seed,
    )
    if calibrated:
        samples = rng.integers(0, 2**bits, size=(rows, 6))
        tiled.calibrate_references(samples, bits=bits)
    inputs = rng.integers(0, 2**bits, size=(rows, batch))
    fused = tiled.matmat(inputs, bits=bits, method="fused")
    for method in ("exact", "fast"):
        assert np.array_equal(
            tiled.matmat(inputs, bits=bits, method=method), fused
        ), method


class TestEngineBitIdentity:
    @pytest.mark.parametrize("design", ["curfe", "chgfe"])
    @pytest.mark.parametrize("calibrated", [False, True])
    def test_tiled_fused_equals_fast(self, design, calibrated):
        rng = np.random.default_rng(11)
        weights = rng.integers(-128, 128, size=(200, 20))
        tiled = TiledLayerEngine(
            weights, design=design, variation=DEFAULT_VARIATION, seed=5
        )
        inputs = rng.integers(0, 16, size=(200, 9))
        if calibrated:
            tiled.calibrate_references(inputs, bits=4)
        fast = tiled.matmat(inputs, bits=4, method="fast")
        fused = tiled.matmat(inputs, bits=4, method="fused")
        assert np.array_equal(fused, fast)

    @pytest.mark.parametrize("design", ["curfe", "chgfe"])
    @pytest.mark.parametrize("calibrated", [False, True])
    def test_monolithic_fused_equals_fast(self, design, calibrated):
        rng = np.random.default_rng(12)
        weights = rng.integers(-128, 128, size=(96, 12))
        mono, padded_rows = monolithic_engine(weights, design=design)
        inputs = rng.integers(0, 16, size=(96, 7))
        padded = np.zeros((padded_rows, 7), dtype=np.int64)
        padded[:96] = inputs
        if calibrated:
            mono.calibrate_references(padded, bits=4)
        fast = mono.matmat(padded, bits=4, method="fast")
        fused = mono.matmat(padded, bits=4, method="fused")
        assert np.array_equal(fused, fast)

    @pytest.mark.parametrize("design", ["curfe", "chgfe"])
    def test_clustered_levels_take_the_exact_path(self, design):
        """Reference levels clustered against one far outlier stretch the
        direct-level table's grid until the layer's voltages fall in its
        NaN cells, so most fused conversions go through
        ``quantize_voltages`` — and fused still equals fast and exact."""
        rng = np.random.default_rng(15)
        weights = rng.integers(-128, 128, size=(96, 12))
        mono, padded_rows = monolithic_engine(weights, design=design)
        inputs = np.zeros((padded_rows, 7), dtype=np.int64)
        inputs[:96] = rng.integers(0, 16, size=(96, 7))
        levels = mono.calibrate_references(inputs, bits=4)
        mono.apply_reference_levels(
            {key: np.append(value, value.max() + 2e5) for key, value in levels.items()}
        )
        converted = []
        for quantizer in mono._calibrated.values():
            def spy(voltages, convert=quantizer.quantize_voltages):
                converted.append(np.size(voltages))
                return convert(voltages)
            quantizer.quantize_voltages = spy
        fused = mono.matmat(inputs, bits=4, method="fused")
        # bits x images x banks x block rows x column groups
        conversions = 4 * 7 * 12 * mono.state.num_block_rows * 2
        assert sum(converted) > conversions / 2, (sum(converted), conversions)
        for method in ("fast", "exact"):
            assert np.array_equal(mono.matmat(inputs, bits=4, method=method), fused)

    def test_narrow_weights_and_odd_bits(self):
        rng = np.random.default_rng(13)
        weights = rng.integers(-8, 8, size=(160, 10))
        tiled = TiledLayerEngine(
            weights, design="curfe", variation=DEFAULT_VARIATION,
            seed=1, weight_bits=4,
        )
        inputs = rng.integers(0, 8, size=(160, 6))
        fast = tiled.matmat(inputs, bits=3, method="fast")
        fused = tiled.matmat(inputs, bits=3, method="fused")
        assert np.array_equal(fused, fast)

    def test_fused_tracks_recalibration(self):
        """The hoisted layer engine must follow calibrate/clear, not cache
        stale reference levels from a previous programming."""
        rng = np.random.default_rng(14)
        weights = rng.integers(-128, 128, size=(64, 8))
        tiled = TiledLayerEngine(
            weights, design="curfe", variation=DEFAULT_VARIATION, seed=2
        )
        inputs = rng.integers(0, 16, size=(64, 5))
        nominal = tiled.matmat(inputs, bits=4, method="fused")
        tiled.calibrate_references(inputs, bits=4)
        calibrated = tiled.matmat(inputs, bits=4, method="fused")
        assert np.array_equal(
            calibrated, tiled.matmat(inputs, bits=4, method="fast")
        )
        tiled.clear_calibration()
        assert np.array_equal(nominal, tiled.matmat(inputs, bits=4, method="fused"))

class TestScenarioBitIdentity:
    @pytest.fixture(scope="class")
    def small_images(self):
        rng = np.random.default_rng(7)
        return rng.random((4, 3, 16, 16))

    @pytest.mark.parametrize("calibration", ["workload", "nominal"])
    def test_smallcnn_fused_equals_fast(self, small_images, calibration):
        model = SmallCNN(seed=0)
        logits = {}
        for device_exec in ("fast", "fused"):
            engine = QuantizedInferenceEngine(
                model,
                InferenceConfig(
                    design="curfe", backend="device",
                    device_exec=device_exec, calibration=calibration,
                    variation=DEFAULT_VARIATION, seed=2,
                ),
            )
            logits[device_exec] = engine.forward(small_images)
        assert np.array_equal(logits["fused"], logits["fast"])


class TestReadoutFoldsAtTheDesignPoint:
    def test_every_chgfe_scenario_group_folds_its_readout(self):
        """At the paper's design point (σ_Vth 40 mV) no 0/1 input takes a
        ChgFe bitline to a rail in any scenario, so every group's readout
        folds into its fused table: one bitline gemm per block, as each
        ``plan_build`` span records.  A silent fall back to the
        per-bitline form would show here.  (CurFe groups always fold.)"""
        tracer = Tracer()
        previous = set_tracer(tracer)
        try:
            for scenario in ("tiny_mlp", "small_cnn", "deep_cnn", "wide_mlp"):
                simulator = ChipSimulator(
                    get_scenario(scenario).build(seed=0), design="chgfe",
                    device_exec="fused", variation=DEFAULT_VARIATION,
                )
                simulator.inference.precompile()
        finally:
            set_tracer(previous)
        builds = [span for span in tracer.spans() if span["name"] == "plan_build"]
        assert len(builds) == 2 * 14  # high and low groups of 14 weight layers
        assert {span["attrs"]["gemms"] for span in builds} == {1}


class TestFusedServing:
    def test_fused_serving_equals_offline_run(self):
        """A fused-kernel deployment is deterministic: runtime predictions
        equal one offline ChipSimulator.run of the same warm chip."""
        config = ServeConfig(
            scenario="tiny_mlp", backend="device", design="curfe",
            device_exec="fused", calibration_images=8,
            replicas=1, max_batch=4,
        )
        program = ChipProgram.build(config)
        rng = np.random.default_rng(77)
        images = rng.random((9, *program.input_shape))
        offline = program.instantiate().run(images).predictions
        with ServeRuntime(config, program=program) as runtime:
            predictions = runtime.serve(images)
        np.testing.assert_array_equal(predictions, offline)

    def test_fused_program_matches_fast_program(self):
        """Same deployment, fast vs fused kernel: identical predictions."""
        base = ServeConfig(
            scenario="tiny_mlp", backend="device", design="curfe",
            device_exec="fast", calibration_images=8,
            replicas=1, max_batch=4,
        )
        fused = dataclasses.replace(base, device_exec="fused")
        rng = np.random.default_rng(78)
        images = rng.random((6, *ChipProgram.build(base).input_shape))
        fast_pred = ChipProgram.build(base).instantiate().run(images).predictions
        fused_pred = ChipProgram.build(fused).instantiate().run(images).predictions
        np.testing.assert_array_equal(fused_pred, fast_pred)
