"""Tests for tile planning, map_layer edge cases, and the geometry dedup."""

import numpy as np
import pytest

from repro.chipsim.tiling import TiledLayerEngine, TileSpec, plan_tiles
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


class TestPlanTiles:
    def test_partition_is_exact_and_disjoint(self):
        geometry = DEFAULT_GEOMETRY
        for rows, cols in ((100, 10), (260, 33), (128, 16), (129, 17), (1, 1)):
            tiles = plan_tiles(rows, cols, geometry)
            covered = np.zeros((rows, cols), dtype=int)
            for tile in tiles:
                covered[tile.row_start : tile.row_stop, tile.col_start : tile.col_stop] += 1
            assert np.all(covered == 1), (rows, cols)

    def test_block_ranges_are_contiguous_and_cover_padded_rows(self):
        tiles = plan_tiles(260, 4)
        col0 = sorted(
            (t for t in tiles if t.col_tile == 0), key=lambda t: t.row_tile
        )
        blocks = [b for t in col0 for b in range(t.block_start, t.block_stop)]
        assert blocks == list(range(9))  # ceil(260/32)
        assert col0[-1].num_blocks == 1  # 4-row remainder -> one padded block

    def test_matches_map_layer_tile_counts(self):
        layer = ConvLayer("c", 64, 64, 3, 32)  # 576 x 64
        mapping = map_layer(layer)
        tiles = plan_tiles(layer.weight_rows, layer.weight_cols)
        assert len(tiles) == mapping.num_macros
        assert max(t.row_tile for t in tiles) + 1 == mapping.row_tiles
        assert max(t.col_tile for t in tiles) + 1 == mapping.col_tiles

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            plan_tiles(0, 4)


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

    def test_inference_config_rows_per_block_derived(self):
        config = InferenceConfig()
        assert config.rows_per_block == DEFAULT_GEOMETRY.block_rows

    def test_inference_config_rejects_disagreeing_rows_per_block(self):
        with pytest.raises(ValueError, match="single source of truth"):
            InferenceConfig(rows_per_block=16)

    def test_inference_config_accepts_matching_override(self):
        geometry = MacroGeometry(rows=64, weight_columns=8, block_rows=16)
        config = InferenceConfig(geometry=geometry, rows_per_block=16)
        assert config.rows_per_block == 16
        assert config.functional_config().rows_per_block == 16


class TestTiledLayerEngine:
    def test_counts_and_structure(self):
        rng = np.random.default_rng(0)
        weights = rng.integers(-128, 128, size=(200, 20))
        engine = TiledLayerEngine(weights, design="curfe", variation=NO_VARIATION)
        assert engine.row_tiles == 2
        assert engine.col_tiles == 2
        assert engine.num_tiles == 4
        assert engine.total_blocks == 7  # ceil(200/32)
        inputs = rng.integers(0, 16, size=(200, 3))
        engine.matmat(inputs, bits=4)
        assert engine.columns_processed == 3
        # 7 blocks per column tile: 16-bank tile + 4-bank tile
        assert engine.block_macs == 3 * 7 * 20
        assert engine.psum_adds == 3 * (2 - 1) * 20
        assert engine.tile_matmats == 4
        engine.reset_counters()
        assert engine.columns_processed == 0

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

    def test_mapping_and_plan_tiles_agree(self):
        layer = LinearLayer("fc", 260, 33)
        mapping = map_layer(layer)
        tiles = plan_tiles(layer.weight_rows, layer.weight_cols)
        for tile in tiles:
            assert mapping.row_tile_bounds(tile.row_tile) == (
                tile.row_start,
                tile.row_stop,
            )
            assert mapping.col_tile_bounds(tile.col_tile) == (
                tile.col_start,
                tile.col_stop,
            )
