"""Tests for the tiled chip simulator: bit-identity, activity, co-report."""

import numpy as np
import pytest

from repro.chipsim import ChipSimulator, SCENARIOS, deep_cnn, network_spec_from_model, wide_mlp
from repro.chipsim.scenarios import model_arrays
from repro.chipsim.tiling import TiledLayerEngine
from repro.core.macro import IMCMacroConfig
from repro.devices.variation import DEFAULT_VARIATION, NO_VARIATION
from repro.engine.array_state import ArrayState
from repro.engine.macro_engine import MacroEngine
from repro.system.mapping import map_layer
from repro.system.nn import SmallCNN


@pytest.fixture(scope="module")
def small_model():
    return SmallCNN(seed=0)


@pytest.fixture(scope="module")
def small_images():
    rng = np.random.default_rng(7)
    return rng.random((4, 3, 16, 16))


def monolithic_engine(weights, *, design, seed, variation):
    """One macro holding the whole zero-padded weight matrix."""
    rows, cols = weights.shape
    padded_rows = -(-rows // 32) * 32
    padded = np.zeros((padded_rows, cols), dtype=np.int64)
    padded[:rows] = weights
    config = IMCMacroConfig(
        rows=padded_rows, banks=cols, block_rows=32,
        adc_bits=5, weight_bits=8, variation=variation, seed=seed,
    )
    engine = MacroEngine(ArrayState.build(design, config), adc_bits=5, weight_bits=8)
    engine.program_weights(padded)
    return engine, padded_rows


class TestTiledBitIdentity:
    @pytest.mark.parametrize("design", ["curfe", "chgfe"])
    @pytest.mark.parametrize("method", ["exact", "fast"])
    def test_multi_tile_matmat_equals_monolithic(self, design, method):
        rng = np.random.default_rng(3)
        weights = rng.integers(-128, 128, size=(200, 20))
        mono, padded_rows = monolithic_engine(
            weights, design=design, seed=9, variation=DEFAULT_VARIATION
        )
        tiled = TiledLayerEngine(
            weights, design=design, variation=DEFAULT_VARIATION, seed=9
        )
        inputs = rng.integers(0, 16, size=(200, 5))
        padded = np.zeros((padded_rows, 5), dtype=np.int64)
        padded[:200] = inputs
        expected = mono.matmat(padded, bits=4, method=method)
        result = tiled.matmat(inputs, bits=4, method=method)
        assert np.array_equal(result, expected)


class TestActivityCounts:
    def test_simulated_activity_matches_analytic_mapping(
        self, small_model, small_images
    ):
        sim = ChipSimulator(small_model, design="curfe", variation=NO_VARIATION)
        report = sim.run(small_images)
        analytic = sim.performance_model.network_activities(sim.network)
        assert report.activities == analytic

    def test_geometry_propagates_to_circuit_pricing(self):
        """A non-default MacroGeometry must change the priced macro too."""
        from repro.geometry import MacroGeometry
        from repro.system.performance import SystemPerformanceModel

        small = MacroGeometry(rows=64, weight_columns=8, block_rows=16)
        default_model = SystemPerformanceModel("curfe")
        small_model_ = SystemPerformanceModel("curfe", geometry=small)
        assert small_model_.circuit.rows == 64
        assert small_model_.circuit.banks == 8
        assert small_model_.circuit.params.rows_per_block == 16
        # Half the accumulation depth halves the per-block MAC op count.
        assert (
            small_model_.circuit.operations_per_mac()
            == default_model.circuit.operations_per_mac() // 2
        )

    def test_measured_performance_equals_analytic(self, small_model, small_images):
        sim = ChipSimulator(small_model, design="chgfe", variation=NO_VARIATION)
        report = sim.run(small_images)
        analytic = sim.performance_model.evaluate(sim.network)
        assert report.performance.tops_per_watt == pytest.approx(
            analytic.tops_per_watt
        )
        assert report.performance.total_latency == pytest.approx(
            analytic.total_latency
        )
        assert report.performance.total_macros == analytic.total_macros


class TestChipReport:
    def test_co_report_fields(self, small_model, small_images):
        labels = np.arange(len(small_images)) % 10
        sim = ChipSimulator(small_model, design="curfe", variation=NO_VARIATION)
        report = sim.run(small_images, labels)
        assert report.images == len(small_images)
        assert 0.0 <= report.accuracy <= 1.0
        assert report.predictions.shape == (len(small_images),)
        assert len(report.activities) == len(sim.network.layers)
        assert report.performance.tops_per_watt > 0
        assert report.tiles_executed > 0
        assert report.simulated_images_per_second > 0
        assert "TOPS/W" in report.summary()

    def test_accuracy_none_without_labels(self, small_model, small_images):
        sim = ChipSimulator(small_model, design="curfe", variation=NO_VARIATION)
        report = sim.run(small_images)
        assert report.accuracy is None

    @pytest.mark.parametrize("batch_size, batches", [(4, 1), (3, 2), (1, 4)])
    def test_every_batch_runs_every_macro_once(
        self, small_model, small_images, batch_size, batches
    ):
        sim = ChipSimulator(small_model, design="chgfe", variation=NO_VARIATION)
        report = sim.run(small_images, batch_size=batch_size)
        assert report.tiles_executed == batches * report.performance.total_macros

    def test_empty_workload_rejected(self, small_model):
        sim = ChipSimulator(small_model, design="curfe", variation=NO_VARIATION)
        with pytest.raises(ValueError, match="images must be positive"):
            sim.run(np.empty((0, 3, 16, 16)))


class TestScenarios:
    def test_registry_contents(self):
        assert {"small_cnn", "deep_cnn", "wide_mlp"} <= set(SCENARIOS)

    def test_deep_cnn_multi_tile_mapping(self):
        model = deep_cnn(seed=0)
        spec = network_spec_from_model(model, name="DeepCNN")
        by_name = {layer.name: layer for layer in spec.weight_layers}
        conv3 = map_layer(by_name["conv3"])
        fc1 = map_layer(by_name["fc1"])
        assert conv3.row_tiles > 1 and conv3.col_tiles > 1
        assert fc1.row_tiles > 1 and fc1.col_tiles > 1

    def test_wide_mlp_mapping_and_forward(self):
        model = wide_mlp(seed=0)
        spec = network_spec_from_model(model, name="WideMLP")
        fc1 = map_layer(spec.weight_layers[0])
        assert fc1.num_macros >= 96
        rng = np.random.default_rng(0)
        logits = model.forward(rng.random((2, 3, 16, 16)))
        assert logits.shape == (2, 10)

    def test_load_model_round_trips_model_arrays(self):
        scenario = SCENARIOS["tiny_mlp"]
        trained = scenario.build(seed=3)
        for layer in trained.weight_layers().values():
            layer.weight += 0.25
        arrays = model_arrays(trained)
        loaded = scenario.load_model(arrays, seed=3)
        for name, layer in loaded.weight_layers().items():
            assert np.array_equal(layer.weight, trained.weight_layers()[name].weight)
            assert np.array_equal(layer.bias, trained.weight_layers()[name].bias)
        del arrays[sorted(arrays)[0]]
        with pytest.raises(ValueError, match="do not cover weight layers"):
            scenario.load_model(arrays, seed=3)

    def test_deep_cnn_forward_shape(self):
        model = deep_cnn(seed=1)
        rng = np.random.default_rng(0)
        assert model.forward(rng.random((2, 3, 16, 16))).shape == (2, 10)

    def test_network_spec_matches_model_weights(self):
        model = deep_cnn(seed=0)
        spec = network_spec_from_model(model)
        weights = model.weight_layers()
        assert len(spec.weight_layers) == len(weights)
        for layer in spec.weight_layers:
            assert layer.num_weights == weights[layer.name].weight.size
