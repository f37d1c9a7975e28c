"""The macro-tile grid computes exactly what one padded macro computes.

:class:`TiledLayerEngine` characterises one full-layer
:class:`~repro.engine.array_state.ArrayState` and runs each 128x16 tile on a
view of it.  The contract pinned here: for any layer shape (partial row and
column tiles included), both designs, both weight precisions, every input
precision, the ``exact`` and ``fast`` kernels, and nominal or calibrated
references, the grid is ``array_equal`` to a single
:class:`~repro.engine.MacroEngine` on the same state holding the zero-padded
weights and inputs.  Device variation is on, so a tile that viewed the wrong
region of the state would change the result.

At model level, the device backend consumes its programming generator
exactly like one ``ArrayState.build`` per padded weight layer, in layer
order, so the variation draws a layer sees do not depend on how the layers
before it are tiled.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chipsim.scenarios import get_scenario
from repro.chipsim.tiling import TiledLayerEngine
from repro.core.macro import IMCMacroConfig
from repro.devices.variation import DEFAULT_VARIATION
from repro.engine.array_state import ArrayState
from repro.engine.macro_engine import MacroEngine
from repro.quant.quantize import signed_range
from repro.sweep import arrays_from_state
from repro.system.inference import InferenceConfig, QuantizedInferenceEngine

ADC_BITS = 5


def pad_rows(matrix, rows):
    """``matrix`` zero-padded to ``rows`` rows."""
    padded = np.zeros((rows, matrix.shape[1]), dtype=np.int64)
    padded[: matrix.shape[0]] = matrix
    return padded


@settings(max_examples=60, deadline=None)
@given(
    rows=st.integers(min_value=1, max_value=260),  # 1-3 row tiles
    cols=st.integers(min_value=1, max_value=34),  # 1-3 column tiles
    design=st.sampled_from(["curfe", "chgfe"]),
    weight_bits=st.sampled_from([4, 8]),
    bits=st.integers(min_value=1, max_value=8),
    method=st.sampled_from(["exact", "fast"]),
    calibrated=st.booleans(),
    batch=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_tile_grid_equals_one_padded_macro(
    rows, cols, design, weight_bits, bits, method, calibrated, batch, seed
):
    rng = np.random.default_rng(seed)
    lo, hi = signed_range(weight_bits)
    weights = rng.integers(lo, hi + 1, size=(rows, cols))
    tiled = TiledLayerEngine(
        weights, design=design, adc_bits=ADC_BITS, weight_bits=weight_bits,
        variation=DEFAULT_VARIATION, seed=seed,
    )
    padded_rows = tiled.padded_rows
    single = MacroEngine(
        tiled.array_state, adc_bits=ADC_BITS, weight_bits=weight_bits
    )
    single.program_weights(pad_rows(weights, padded_rows))

    if calibrated:
        samples = rng.integers(0, 2**bits, size=(rows, 6))
        tiled_levels = tiled.calibrate_references(samples, bits=bits)
        single_levels = single.calibrate_references(
            pad_rows(samples, padded_rows), bits=bits
        )
        assert tiled_levels.keys() == single_levels.keys()
        for key in tiled_levels:
            assert np.array_equal(tiled_levels[key], single_levels[key])

    inputs = rng.integers(0, 2**bits, size=(rows, batch))
    assert np.array_equal(
        tiled.matmat(inputs, bits=bits, method=method),
        single.matmat(pad_rows(inputs, padded_rows), bits=bits, method=method),
    )


@pytest.mark.parametrize(
    "design, scenario", [("curfe", "tiny_mlp"), ("chgfe", "small_cnn")]
)
def test_layer_states_follow_one_build_per_padded_layer(design, scenario):
    model = get_scenario(scenario).build(seed=0)
    seed = 5
    engine = QuantizedInferenceEngine(
        model,
        InferenceConfig(
            design=design, backend="device", adc_bits=ADC_BITS,
            variation=DEFAULT_VARIATION, seed=seed,
        ),
    )
    states = engine.layer_array_states()

    rng = np.random.default_rng(seed)
    weight_layers = model.weight_layers()
    assert list(states) == list(weight_layers)
    for name, layer in weight_layers.items():
        rows, cols = layer.weight.shape
        expected = ArrayState.build(
            design,
            IMCMacroConfig(
                rows=-(-rows // 32) * 32, banks=cols, block_rows=32,
                adc_bits=ADC_BITS, weight_bits=8,
                variation=DEFAULT_VARIATION, seed=seed,
            ),
            rng=rng,
        )
        got = arrays_from_state(states[name])
        want = arrays_from_state(expected)
        assert got.keys() == want.keys(), name
        for key in want:
            assert np.array_equal(got[key], want[key]), (name, key)
