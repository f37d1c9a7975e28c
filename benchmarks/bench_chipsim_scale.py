"""Chip-simulator scale: the macro-tile grid on each host kernel.

Runs the :mod:`repro.chipsim` scenarios through two device-detailed
execution paths — the tiled macro grid with the ``fast`` plane kernel and
with the default layer-level ``fused`` kernel (bit-identical to fast) — and
records images/s, tile matmuls/s, and the fused-over-fast speedup to
``BENCH_chipsim.json`` at the repository root.  The modeled chip metrics
(TOPS/W, FPS) come from the co-report of the fused run, i.e. from the
counted activity of the timed pass itself.

Set ``REPRO_BENCH_TINY=1`` for a seconds-scale smoke run (CI): fewer
images (timed as the median of five runs), variation disabled (broadcast
characterisation), and no speedup assertions.
"""

import json
import time
from pathlib import Path

import numpy as np

from conftest import BENCH_TINY as TINY, emit, tiny
from repro.chipsim import SCENARIOS, ChipSimulator
from repro.devices.variation import DEFAULT_VARIATION, NO_VARIATION

DESIGN = "curfe"
INPUT_BITS = 4
WEIGHT_BITS = 8
ADC_BITS = 5
CALIBRATION = "workload"
IMAGES = tiny(16, 2)
#: Timed runs per path; the record keeps their median.  A tiny run times
#: only 2 images, so it takes more samples for a steady median.
REPEATS = tiny(3, 5)
VARIATION = tiny(DEFAULT_VARIATION, NO_VARIATION)
SCENARIO_NAMES = tiny(("small_cnn", "deep_cnn", "wide_mlp"), ("deep_cnn", "wide_mlp"))

RECORD_PATH = Path(__file__).resolve().parent.parent / "BENCH_chipsim.json"

#: The paths benchmarked per scenario: (key, engine method).
PATHS = (
    ("tiled_fast", "fast"),
    ("tiled_fused", "fused"),
)


def median_run_seconds(sim, images, repeats):
    samples = []
    report = None
    for _ in range(repeats):
        start = time.perf_counter()
        report = sim.run(images)
        samples.append(time.perf_counter() - start)
    return float(np.median(samples)), report


def bench_scenario(name, rng):
    scenario = SCENARIOS[name]
    model = scenario.build(seed=0)
    images = rng.random((IMAGES, *model.input_shape))

    sims = {}
    for key, method in PATHS:
        sims[key] = ChipSimulator(
            model,
            design=DESIGN,
            input_bits=INPUT_BITS,
            weight_bits=WEIGHT_BITS,
            adc_bits=ADC_BITS,
            variation=VARIATION,
            seed=0,
            device_exec=method,
            calibration=CALIBRATION,
            name=name,
        )

    # Warm every sim, so each timed run starts from the same state
    # (first-batch reference calibration done) — and check fused against
    # fast while we are at it: the fused layer-level kernel must reproduce
    # the fast logits exactly.
    fast_logits = sims["tiled_fast"].inference.forward(images)
    fused_logits = sims["tiled_fused"].inference.forward(images)
    bit_identical_fused = bool(np.array_equal(fused_logits, fast_logits))

    record = {
        "description": scenario.description,
        "images": IMAGES,
        "bit_identical_fused": bit_identical_fused,
    }
    for key, _method in PATHS:
        seconds, report = median_run_seconds(sims[key], images, REPEATS)
        record[f"{key}_s"] = seconds
        record[f"{key}_images_per_s"] = IMAGES / seconds
        if key == "tiled_fused":
            record["tiles_per_s"] = report.tiles_per_second
            record["total_macros"] = report.performance.total_macros
            record["modeled_tops_per_watt"] = report.performance.tops_per_watt
            record["modeled_fps"] = report.performance.frames_per_second
            record["calibrated_layers"] = sims[key].calibrated_layers()
    record["speedup_fused_vs_fast"] = record["tiled_fast_s"] / record["tiled_fused_s"]
    return record


def run_measurements():
    rng = np.random.default_rng(2024)
    return {
        "benchmark": "chipsim_scale",
        "design": DESIGN,
        "input_bits": INPUT_BITS,
        "weight_bits": WEIGHT_BITS,
        "adc_bits": ADC_BITS,
        "calibration": CALIBRATION,
        "images": IMAGES,
        "tiny": TINY,
        "scenarios": {name: bench_scenario(name, rng) for name in SCENARIO_NAMES},
    }


def test_chipsim_scale(benchmark):
    record = benchmark.pedantic(run_measurements, rounds=1, iterations=1)
    RECORD_PATH.write_text(json.dumps(record, indent=2) + "\n")
    lines = []
    for name, result in record["scenarios"].items():
        lines.extend(
            [
                f"{name} ({result['description']}): "
                f"{result['total_macros']} macros",
                f"  tiled fast : {result['tiled_fast_s']:7.3f} s "
                f"({result['tiled_fast_images_per_s']:7.2f} images/s)",
                f"  tiled fused: {result['tiled_fused_s']:7.3f} s "
                f"({result['speedup_fused_vs_fast']:.2f}x vs fast, "
                f"{result['tiles_per_s']:.0f} tiles/s, "
                f"bit-identical to fast: {result['bit_identical_fused']})",
                f"  modeled    : {result['modeled_tops_per_watt']:.2f} TOPS/W, "
                f"{result['modeled_fps']:.0f} FPS "
                f"({result['calibrated_layers']} calibrated layers @ "
                f"{record['adc_bits']}-bit ADC)",
            ]
        )
    lines.append(f"record: {RECORD_PATH}")
    emit("Chip-simulator scale — macro-tile grid per host kernel", "\n".join(lines))

    for name, result in record["scenarios"].items():
        assert result["bit_identical_fused"], name
    if not TINY:
        # Acceptance: the default fused layer-level kernel is >=4x the fast
        # plane kernel on the deeper-CNN scenario.
        assert record["scenarios"]["deep_cnn"]["speedup_fused_vs_fast"] >= 4.0, record
