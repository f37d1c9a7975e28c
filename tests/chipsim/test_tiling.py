"""Tests for the tile partition, map_layer edge cases, and the geometry dedup."""

import numpy as np
import pytest

from repro.chipsim.tiling import TiledLayerEngine
from repro.core.macro import IMCMacroConfig
from repro.devices.variation import NO_VARIATION
from repro.geometry import DEFAULT_GEOMETRY, MacroGeometry
from repro.system.inference import InferenceConfig
from repro.system.layers import ConvLayer, LinearLayer, PoolLayer
from repro.system.mapping import map_layer


class TestMapLayerEdgeCases:
    def test_dims_not_divisible_by_tile_size(self):
        layer = LinearLayer("fc", 260, 33)  # 260 = 2*128 + 4, 33 = 2*16 + 1
        mapping = map_layer(layer)
        assert mapping.row_tiles == 3
        assert mapping.col_tiles == 3
        assert mapping.row_tile_bounds(2) == (256, 260)
        assert mapping.col_tile_bounds(2) == (32, 33)
        # Padded remainder tile still covers ceil(260/32)=9 global blocks.
        assert mapping.total_block_macs_per_pixel == 9 * 33

    def test_one_by_one_conv(self):
        layer = ConvLayer("proj", 64, 128, 1, 8, stride=1, padding=0)
        mapping = map_layer(layer)
        assert mapping.weight_rows == 64  # 1x1 kernel: rows = in_channels
        assert mapping.row_tiles == 1
        assert mapping.col_tiles == 8
        assert mapping.block_activations_per_pixel == 2  # ceil(64/32)
        assert mapping.partial_sum_adds_per_pixel == 0

    def test_pool_layer_rejected(self):
        with pytest.raises(TypeError):
            map_layer(PoolLayer("pool", 64, 16))

    def test_tile_bounds_out_of_range(self):
        mapping = map_layer(LinearLayer("fc", 100, 5))
        with pytest.raises(IndexError):
            mapping.row_tile_bounds(1)
        with pytest.raises(IndexError):
            mapping.col_tile_bounds(1)


class TestGeometrySingleSource:
    def test_macro_config_defaults_follow_geometry(self):
        config = IMCMacroConfig()
        assert config.rows == DEFAULT_GEOMETRY.rows
        assert config.banks == DEFAULT_GEOMETRY.weight_columns
        assert config.block_rows == DEFAULT_GEOMETRY.block_rows
        assert config.geometry == DEFAULT_GEOMETRY

    def test_from_geometry_roundtrip(self):
        geometry = MacroGeometry(rows=64, weight_columns=4, block_rows=16)
        config = IMCMacroConfig.from_geometry(geometry, adc_bits=4)
        assert config.geometry == geometry
        assert config.adc_bits == 4
        with pytest.raises(ValueError):
            IMCMacroConfig.from_geometry(geometry, rows=128)

    def test_functional_config_follows_geometry(self):
        assert (
            InferenceConfig().functional_config().rows_per_block
            == DEFAULT_GEOMETRY.block_rows
        )
        geometry = MacroGeometry(rows=64, weight_columns=8, block_rows=16)
        config = InferenceConfig(geometry=geometry)
        assert config.functional_config().rows_per_block == 16


class TestTiledLayerEngine:
    def test_structure(self):
        rng = np.random.default_rng(0)
        weights = rng.integers(-128, 128, size=(200, 20))
        engine = TiledLayerEngine(weights, design="curfe", variation=NO_VARIATION)
        assert engine.num_tiles == 4  # 2 row tiles x 2 column tiles
        assert engine.total_blocks == 7  # ceil(200/32)
        inputs = rng.integers(0, 16, size=(200, 3))
        assert engine.matmat(inputs, bits=4).shape == (20, 3)

    def test_ideal_matmat_reference(self):
        rng = np.random.default_rng(1)
        weights = rng.integers(-128, 128, size=(150, 18))
        engine = TiledLayerEngine(weights, design="curfe", variation=NO_VARIATION)
        inputs = rng.integers(0, 16, size=(150, 2))
        assert np.array_equal(engine.ideal_matmat(inputs), weights.T @ inputs)

    def test_input_shape_validation(self):
        engine = TiledLayerEngine(
            np.zeros((40, 3), dtype=np.int64), design="curfe"
        )
        with pytest.raises(ValueError):
            engine.matmat(np.zeros((39, 2), dtype=np.int64), bits=4)

    def test_non_integer_inputs_rejected(self):
        engine = TiledLayerEngine(
            np.zeros((40, 3), dtype=np.int64), design="curfe"
        )
        with pytest.raises(ValueError, match="integers"):
            engine.matmat(np.full((40, 2), 3.7), bits=4)
        # Integer-valued floats are accepted (same contract as MacroEngine).
        engine.matmat(np.full((40, 2), 3.0), bits=4)


class TestGeometryTilePartition:
    def test_counts_and_bounds(self):
        geometry = DEFAULT_GEOMETRY
        assert geometry.row_tile_count(260) == 3
        assert geometry.col_tile_count(33) == 3
        assert geometry.row_tile_bounds(260, 2) == (256, 260)
        assert geometry.col_tile_bounds(33, 0) == (0, 16)
        with pytest.raises(IndexError):
            geometry.row_tile_bounds(260, 3)
        with pytest.raises(ValueError):
            geometry.row_tile_count(0)

    def test_partition_is_exact_and_disjoint(self):
        for rows, cols in ((100, 10), (260, 33), (128, 16), (129, 17), (1, 1)):
            mapping = map_layer(LinearLayer("fc", rows, cols))
            covered = np.zeros((rows, cols), dtype=int)
            for i in range(mapping.row_tiles):
                row_start, row_stop = mapping.row_tile_bounds(i)
                for j in range(mapping.col_tiles):
                    col_start, col_stop = mapping.col_tile_bounds(j)
                    covered[row_start:row_stop, col_start:col_stop] += 1
            assert np.all(covered == 1), (rows, cols)
