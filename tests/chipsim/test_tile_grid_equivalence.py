"""The macro-tile grid computes exactly what one padded macro computes.

:class:`TiledLayerEngine` characterises one full-layer
:class:`~repro.engine.array_state.ArrayState`, programs one engine on it and
fans plane kernels out over column slices of the batch on a thread pool.
The contract pinned here: for any layer shape (partial row and column tiles
included), both designs, both weight precisions, every input precision, the
``exact`` and ``fast`` kernels, nominal or calibrated references, and any
engine chunk (``macro_engine.DEFAULT_BATCH_CHUNK``, so any slice width), the
layer is ``array_equal`` to a
single :class:`~repro.engine.MacroEngine` built independently on the same
state, holding the zero-padded weights and inputs.  Device variation is on,
so a slice that read the wrong columns would change the result.

At model level, the device backend consumes its programming generator
exactly like one ``ArrayState.build`` per padded weight layer, in layer
order, so the variation draws a layer sees do not depend on how the layers
before it are tiled.
"""

import os
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings, target
from hypothesis import strategies as st

from repro.chipsim.scenarios import get_scenario
from repro.chipsim.tiling import TiledLayerEngine
from repro.core.macro import IMCMacroConfig
from repro.devices.variation import DEFAULT_VARIATION
from repro.engine import macro_engine
from repro.engine.array_state import ArrayState
from repro.engine.macro_engine import _KERNEL_DISPATCHES, MacroEngine
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


def slice_width(cols, total_blocks, chunk):
    """Columns per slice: the cells per plane tensor of one 128x16 tile chunk."""
    return max(1, min(chunk, 16 * 4 * chunk // (cols * total_blocks)))


def record_slices(tiled):
    """The column count of every call the layer makes into its engine."""
    widths = []
    engine_matmat = tiled.engine.matmat

    def recorded(inputs, **kwargs):
        widths.append(inputs.shape[1])
        return engine_matmat(inputs, **kwargs)

    tiled.engine.matmat = recorded
    return widths


@settings(max_examples=60, deadline=None)
@given(
    rows=st.integers(min_value=1, max_value=260),  # 1-3 row tiles
    cols=st.integers(min_value=1, max_value=34),  # 1-3 column tiles
    design=st.sampled_from(["curfe", "chgfe"]),
    weight_bits=st.sampled_from([4, 8]),
    bits=st.integers(min_value=1, max_value=8),
    method=st.sampled_from(["exact", "fast"]),
    calibrated=st.booleans(),
    chunk=st.sampled_from([1, 2, 3, 256]),  # 256 is the default
    batch=st.sampled_from(range(8, 0, -1)),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_pooled_column_slices_equal_one_padded_macro(
    rows, cols, design, weight_bits, bits, method, calibrated, chunk,
    batch, seed,
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
        tiled.calibrate_references(samples, bits=bits)
        single.calibrate_references(pad_rows(samples, padded_rows), bits=bits)

    widths = record_slices(tiled)
    inputs = rng.integers(0, 2**bits, size=(rows, batch))
    with mock.patch.object(os, "cpu_count", return_value=2), mock.patch.object(
        macro_engine, "DEFAULT_BATCH_CHUNK", chunk
    ):
        got = tiled.matmat(inputs, bits=bits, method=method)
    width = slice_width(cols, tiled.total_blocks, chunk)
    assert widths == [min(width, batch - start) for start in range(0, batch, width)]
    event(f"slices >= 2: {len(widths) >= 2}")
    target(float(len(widths)), label="slices")
    assert np.array_equal(
        got, single.matmat(pad_rows(inputs, padded_rows), bits=bits, method=method)
    )


@pytest.mark.parametrize(
    "rows, cols, width", [(768, 256, 2), (768, 96, 7), (36, 16, 256)]
)
def test_slice_width_keeps_one_tile_chunk_of_cells(rows, cols, width):
    """wide_mlp's fc1, deep_cnn's fc1 and a one-tile layer, default chunk."""
    tiled = TiledLayerEngine(np.zeros((rows, cols), dtype=np.int64), design="chgfe")
    assert slice_width(cols, tiled.total_blocks, 256) == width
    widths = record_slices(tiled)
    tiled.matmat(np.ones((rows, width + 1), dtype=np.int64), bits=1, method="fast")
    assert widths == [width, 1]


def test_out_of_range_code_in_last_pooled_slice_raises():
    """The engine validates each slice's codes, so a bad code in the last
    slice of a pooled call still raises the layer's ValueError."""
    tiled = TiledLayerEngine(np.ones((40, 3), dtype=np.int64), design="chgfe")
    inputs = np.zeros((40, 7), dtype=np.int64)
    inputs[5, -1] = 16
    widths = record_slices(tiled)
    with mock.patch.object(os, "cpu_count", return_value=2), mock.patch.object(
        macro_engine, "DEFAULT_BATCH_CHUNK", 2
    ), pytest.raises(ValueError, match=r"inputs outside unsigned 4-bit range"):
        tiled.matmat(inputs, bits=4, method="fast")
    assert sorted(widths) == [1, 2, 2, 2]  # every slice ran, the bad one last


def test_more_slice_threads_than_cores_lose_no_slice():
    """Eight pool threads on one-column slices with rapid thread switching:
    every slice lands in its own columns and every dispatch is counted."""
    rng = np.random.default_rng(11)
    weights = rng.integers(-128, 128, size=(100, 20))
    tiled = TiledLayerEngine(
        weights, design="chgfe", adc_bits=ADC_BITS, variation=DEFAULT_VARIATION
    )
    single = MacroEngine(tiled.array_state, adc_bits=ADC_BITS)
    single.program_weights(pad_rows(weights, tiled.padded_rows))
    inputs = rng.integers(0, 16, size=(100, 64))
    dispatches = _KERNEL_DISPATCHES.value(kernel="fast", level="plane")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    out = {}
    caller = threading.Thread(
        target=lambda: out.update(got=tiled.matmat(inputs, bits=4, method="fast")),
        daemon=True,
    )
    try:
        with mock.patch.object(os, "cpu_count", return_value=8), mock.patch.object(
            macro_engine, "DEFAULT_BATCH_CHUNK", 1
        ):
            caller.start()
            caller.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not caller.is_alive(), "sliced matmat did not finish in 120 s"
    got = out["got"]
    assert _KERNEL_DISPATCHES.value(kernel="fast", level="plane") == dispatches + 64
    assert np.array_equal(
        got,
        single.matmat(pad_rows(inputs, tiled.padded_rows), bits=4, method="fast"),
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
