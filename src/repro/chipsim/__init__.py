"""Mapping-driven chip simulator: one tiled-macro execution path for
accuracy, performance, and energy.

The subsystem maps every layer of a trained network onto a grid of real
128×16 macro tiles, executes batched device-detailed inference through one
:class:`~repro.engine.MacroEngine` per layer (:mod:`repro.chipsim.tiling`),
and co-reports accuracy with energy / latency priced from that same layer
mapping (:mod:`repro.chipsim.simulator`).  :mod:`repro.chipsim.scenarios`
provides networks large enough to exercise multi-tile mapping.
"""

from ..system.activity import LayerActivity
from .scenarios import (
    SCENARIOS,
    Scenario,
    ScenarioWorkload,
    deep_cnn,
    get_scenario,
    register_scenario,
    small_cnn,
    tiny_mlp,
    wide_mlp,
)
from .simulator import ChipReport, ChipSimulator, network_spec_from_model
from .tiling import TiledLayerEngine

__all__ = [
    "LayerActivity",
    "SCENARIOS",
    "Scenario",
    "ScenarioWorkload",
    "deep_cnn",
    "get_scenario",
    "register_scenario",
    "small_cnn",
    "tiny_mlp",
    "wide_mlp",
    "ChipReport",
    "ChipSimulator",
    "network_spec_from_model",
    "TiledLayerEngine",
]
