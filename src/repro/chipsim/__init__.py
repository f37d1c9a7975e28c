"""Mapping-driven chip simulator: one tiled-macro execution path for
accuracy, performance, and energy.

The subsystem maps every layer of a trained network onto a grid of real
128×16 macro tiles, executes batched device-detailed inference through one
:class:`~repro.engine.MacroEngine` per layer (:mod:`repro.chipsim.tiling`),
and co-reports accuracy with energy / latency priced from that same layer
mapping (:mod:`repro.chipsim.simulator`).  :mod:`repro.chipsim.scenarios`
provides networks large enough to exercise multi-tile mapping.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "..system.activity": ("LayerActivity",),
    ".scenarios": (
        "SCENARIOS",
        "Scenario",
        "ScenarioWorkload",
        "deep_cnn",
        "get_scenario",
        "register_scenario",
        "small_cnn",
        "tiny_mlp",
        "wide_mlp",
    ),
    ".simulator": ("ChipReport", "ChipSimulator", "network_spec_from_model"),
    ".tiling": ("TiledLayerEngine",),
})
