"""The golden manifest's cases, and the script that re-pins them.

Sixteen ``fused`` chip runs, {tiny_mlp, small_cnn, deep_cnn, wide_mlp} x
{curfe, chgfe} x {workload, nominal} calibration at the paper's design
point: each feeds one chip a 16-, an 8- and a 64-image batch (a workload
chip calibrates on the first) and records the sha256 of the three batches'
float64 logits and their predictions.  The two calibrations of one
(scenario, design) share its characterised layer states.

``manifest.json`` beside this file pins the outputs, and
``test_golden_manifest.py`` recomputes them.  Only digital outputs are
pinned: the analog tables' last bits may move between libm builds without
moving a prediction.  Re-pin after a change that is meant to move an
output, and say why in CHANGES.md:

    PYTHONPATH=src python tests/golden/golden_cases.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from repro.chipsim import ChipSimulator
from repro.chipsim.scenarios import get_scenario

MANIFEST = Path(__file__).resolve().parent / "manifest.json"

SCENARIOS = ("tiny_mlp", "small_cnn", "deep_cnn", "wide_mlp")
DESIGNS = ("curfe", "chgfe")
CALIBRATIONS = ("workload", "nominal")
BATCHES = (16, 8, 64)
DATA_SEED = 7


def case_name(scenario: str, design: str, calibration: str) -> str:
    return f"{scenario}/{design}/{calibration}"


def scenario_cases(scenario: str, design: str) -> dict:
    """The two calibrations' outputs of one (scenario, design), by case name."""
    spec = get_scenario(scenario)
    model = spec.build(seed=0)
    images = spec.workload(images=sum(BATCHES), seed=DATA_SEED).images
    bounds = np.cumsum((0,) + BATCHES)
    cases, states = {}, None
    for calibration in CALIBRATIONS:
        simulator = ChipSimulator(
            model, design=design, device_exec="fused",
            calibration=calibration, layer_states=states,
        )
        states = simulator.inference.layer_array_states()
        digest, predictions = hashlib.sha256(), []
        for start, stop in zip(bounds[:-1], bounds[1:]):
            logits = np.ascontiguousarray(
                simulator.inference.forward(images[start:stop]), dtype=np.float64
            )
            digest.update(logits.tobytes())
            predictions.append(np.argmax(logits, axis=-1).tolist())
        cases[case_name(scenario, design, calibration)] = {
            "logits_sha256": digest.hexdigest(),
            "predictions": predictions,
        }
    return cases


def compute_cases() -> dict:
    """Every case of the manifest, in manifest order."""
    cases = {}
    for scenario in SCENARIOS:
        for design in DESIGNS:
            cases.update(scenario_cases(scenario, design))
    return cases


def main() -> None:
    cases = compute_cases()
    lines = ",\n".join(
        f" {json.dumps(name)}: {json.dumps(case)}" for name, case in cases.items()
    )
    MANIFEST.write_text("{\n" + lines + "\n}\n")
    print(f"pinned {len(cases)} cases in {MANIFEST}")


if __name__ == "__main__":
    main()
