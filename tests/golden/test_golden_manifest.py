"""Change against history: the ``fused`` chip outputs pinned in ``manifest.json``.

The equivalence tests compare kernels and paths with each other, so a
change that moves every path alike (the cell solver, Lloyd-Max placement,
activation quantisation, a kernel's table algebra) passes them all.  This
test recomputes the pinned cases of ``golden_cases.py`` and names each
case that moved, with the count of predictions that differ.
"""

import json

import numpy as np
import pytest

from golden_cases import BATCHES, DESIGNS, MANIFEST, SCENARIOS, scenario_cases

PINNED = json.loads(MANIFEST.read_text())


@pytest.mark.parametrize("design", DESIGNS)
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_fused_outputs_equal_the_manifest(scenario, design):
    misses = []
    for name, case in scenario_cases(scenario, design).items():
        pinned = PINNED.get(name)
        if pinned is None:
            misses.append(f"{name}: not pinned")
            continue
        if case == pinned:
            continue
        differing = sum(
            int(np.count_nonzero(np.asarray(got) != np.asarray(want)))
            for got, want in zip(case["predictions"], pinned["predictions"])
        )
        misses.append(
            f"{name}: logits sha256 {case['logits_sha256'][:12]} "
            f"(pinned {pinned['logits_sha256'][:12]}), "
            f"{differing} of {sum(BATCHES)} predictions differ"
        )
    assert not misses, "; ".join(misses)
