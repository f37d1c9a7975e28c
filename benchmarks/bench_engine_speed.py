"""Engine speed: legacy per-device loop vs the vectorised array engine.

Times a full 128×16 matvec through the legacy banks × block rows × bit
planes loop (:meth:`IMCMacro.matvec_reference`) against the structure-of-
arrays :class:`repro.engine.MacroEngine` — single-vector ``matvec`` (bit-
identical results) and batched ``matmat`` in both its exact and fast
reduction modes — and writes the measurements to ``BENCH_engine.json`` at
the repository root to seed the performance trajectory.  It also times
CurFe cell characterisation (:meth:`ArrayState.build` with device variation)
at deep_cnn's fc-layer shape, the cold-start cost of a device-detailed
layer, in both modes, and the first-batch ADC reference calibration
(:func:`reference_levels_for_plan`) of one group at that shape.

Set ``REPRO_BENCH_TINY=1`` for a seconds-scale smoke run (CI): a smaller
array, fewer repeats, and no speedup assertions (Python call overhead
dominates tiny shapes).
"""

import json
import time
from pathlib import Path

import numpy as np

from repro.core.inputs import InputVector
from repro.core.macro import CurFeMacro, IMCMacroConfig
from repro.core.weights import encode_weight_matrix
from repro.devices.variation import DEFAULT_VARIATION
from repro.engine import ArrayState
from repro.quant.calibration import collect_block_partial_sums, reference_levels_for_plan
from conftest import BENCH_TINY as TINY, emit, tiny

INPUT_BITS = 8
BATCH = tiny(64, 8)
MATVEC_REPEATS = tiny(20, 3)
LEGACY_REPEATS = tiny(3, 1)

RECORD_PATH = Path(__file__).resolve().parent.parent / "BENCH_engine.json"

#: deep_cnn's fc layer as one padded macro (768 rows x 96 weight columns).
CHARACTERISE_CONFIG = IMCMacroConfig(
    rows=768, banks=96, variation=DEFAULT_VARIATION, seed=0
)

#: Characterisation builds timed.  The record keeps the fastest: a busy
#: host only ever slows a sample down.  On a 2-vCPU host the safeguarded
#: Newton solve read 1.33-2.04M cells/s (full and tiny records, CI-like
#: runs of all four tiny benches included), the 60-step in-place
#: bisection it replaced 0.28-0.46M; both floors (1.2M full, 1.19M tiny)
#: sit at least 10% below the lowest Newton reading and far above any
#: bisection reading.
CHARACTERISE_REPEATS = 3

#: The calibration group timed: deep_cnn's fc layer (768 x 96 8-bit
#: weights) under 64 4-bit activation vectors, 5-bit ADC, 32-row blocks.
#: Identical in full and tiny mode; the record keeps the fastest of 3.
CALIBRATE_SHAPE = (768, 96)
CALIBRATE_BATCH = 64
CALIBRATE_INPUT_BITS = 4
CALIBRATE_ADC_BITS = 5
CALIBRATE_BLOCK_ROWS = 32
CALIBRATE_REPEATS = 3


def build_macro():
    if TINY:
        config = IMCMacroConfig(rows=32, banks=2, block_rows=32, weight_bits=8)
    else:
        config = IMCMacroConfig()  # the paper's full 128×16 array
    macro = CurFeMacro(config)
    rng = np.random.default_rng(0)
    macro.program_weights(rng.integers(-128, 128, size=(config.rows, config.banks)))
    return macro, rng


def median_seconds(callable_, repeats):
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        callable_()
        samples.append(time.perf_counter() - start)
    return float(np.median(samples))


def time_characterisation():
    """(cells, fastest seconds) of variation-sampled CurFe ``ArrayState.build``s."""
    samples = []
    for _ in range(CHARACTERISE_REPEATS):
        start = time.perf_counter()
        state = ArrayState.build("curfe", CHARACTERISE_CONFIG)
        samples.append(time.perf_counter() - start)
    return state.high.on.size + state.low.on.size, min(samples)


def time_calibration():
    """(partial-sum samples, fastest seconds) of one group's level placement."""
    rng = np.random.default_rng(0)
    plan = encode_weight_matrix(rng.integers(-128, 128, size=CALIBRATE_SHAPE), 8)
    activations = rng.integers(
        0, 2**CALIBRATE_INPUT_BITS, size=(CALIBRATE_BATCH, CALIBRATE_SHAPE[0])
    )
    samples = sum(
        collect_block_partial_sums(
            nibbles,
            activations,
            input_bits=CALIBRATE_INPUT_BITS,
            rows_per_block=CALIBRATE_BLOCK_ROWS,
        ).size
        for nibbles in (plan.high_nibbles, plan.low_nibbles)
    )
    seconds = []
    for _ in range(CALIBRATE_REPEATS):
        start = time.perf_counter()
        reference_levels_for_plan(
            plan.high_nibbles,
            plan.low_nibbles,
            activations,
            adc_bits=CALIBRATE_ADC_BITS,
            input_bits=CALIBRATE_INPUT_BITS,
            rows_per_block=CALIBRATE_BLOCK_ROWS,
        )
        seconds.append(time.perf_counter() - start)
    return samples, min(seconds)


def run_measurements():
    cells, characterise_s = time_characterisation()
    calibrate_samples, calibrate_s = time_calibration()
    macro, rng = build_macro()
    config = macro.config
    inputs = InputVector.random(config.rows, INPUT_BITS, rng)
    batch = rng.integers(0, 2**INPUT_BITS, size=(config.rows, BATCH))

    engine_result = macro.matvec(inputs)  # builds + warms the engine
    legacy_result = macro.matvec_reference(inputs)
    assert np.array_equal(engine_result, legacy_result), "engine must stay bit-identical"

    legacy_matvec = median_seconds(
        lambda: macro.matvec_reference(inputs), LEGACY_REPEATS
    )
    engine_matvec = median_seconds(lambda: macro.matvec(inputs), MATVEC_REPEATS)
    engine_matmat = (
        median_seconds(lambda: macro.matmat(batch, bits=INPUT_BITS), MATVEC_REPEATS)
        / BATCH
    )
    engine_matmat_fast = (
        median_seconds(
            lambda: macro.matmat(batch, bits=INPUT_BITS, method="fast"),
            MATVEC_REPEATS,
        )
        / BATCH
    )
    return {
        "benchmark": "engine_speed",
        "design": macro.design_name,
        "rows": config.rows,
        "banks": config.banks,
        "weight_bits": config.weight_bits,
        "input_bits": INPUT_BITS,
        "batch": BATCH,
        "tiny": TINY,
        "legacy_matvec_ms": legacy_matvec * 1e3,
        "engine_matvec_ms": engine_matvec * 1e3,
        "engine_matmat_ms_per_column": engine_matmat * 1e3,
        "engine_matmat_fast_ms_per_column": engine_matmat_fast * 1e3,
        "speedup_matvec": legacy_matvec / engine_matvec,
        "speedup_matmat": legacy_matvec / engine_matmat,
        "speedup_matmat_fast": legacy_matvec / engine_matmat_fast,
        "characterise_cells": cells,
        "characterise_cells_per_s": cells / characterise_s,
        "calibrate_samples": calibrate_samples,
        "calibrate_samples_per_s": calibrate_samples / calibrate_s,
    }


def test_engine_speedup(benchmark):
    record = benchmark.pedantic(run_measurements, rounds=1, iterations=1)
    RECORD_PATH.write_text(json.dumps(record, indent=2) + "\n")
    emit(
        "Engine speed — legacy per-device loop vs vectorised MacroEngine",
        "\n".join(
            [
                f"array: {record['rows']}x{record['banks']} banks, "
                f"{record['weight_bits']}b weights, {record['input_bits']}b inputs",
                f"legacy matvec:            {record['legacy_matvec_ms']:8.2f} ms",
                f"engine matvec:            {record['engine_matvec_ms']:8.3f} ms "
                f"({record['speedup_matvec']:.1f}x)",
                f"engine matmat (exact)/col:{record['engine_matmat_ms_per_column']:8.3f} ms "
                f"({record['speedup_matmat']:.1f}x, batch {record['batch']})",
                f"engine matmat (fast)/col: {record['engine_matmat_fast_ms_per_column']:8.3f} ms "
                f"({record['speedup_matmat_fast']:.1f}x)",
                f"characterise (curfe):     {record['characterise_cells']} cells at "
                f"{record['characterise_cells_per_s'] / 1e3:.0f}k cells/s",
                f"calibrate (5b ADC):       {record['calibrate_samples']} samples at "
                f"{record['calibrate_samples_per_s'] / 1e6:.1f}M samples/s",
                f"record: {RECORD_PATH}",
            ]
        ),
    )
    if not TINY:
        # Acceptance: >=10x for a full 128x16 matvec, >=25x for batched matmat.
        assert record["speedup_matvec"] >= 10.0, record
        assert record["speedup_matmat_fast"] >= 25.0, record
