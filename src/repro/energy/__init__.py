"""Energy, latency, area, and technology-scaling models."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".circuit_energy": (
        "PRECISION_SWEEP",
        "CircuitEnergyModel",
        "EfficiencyPoint",
        "EnergyBreakdown",
        "efficiency_sweep",
    ),
    ".components": (
        "CHGFE_AREA",
        "CHGFE_ENERGY",
        "CHGFE_TIMING",
        "CURFE_AREA",
        "CURFE_ENERGY",
        "CURFE_TIMING",
        "MacroAreaParameters",
        "MacroEnergyParameters",
        "MacroTimingParameters",
    ),
    ".technology": (
        "REFERENCE_NODE_NM",
        "TechnologyNode",
        "scale_efficiency_to_node",
        "scale_energy_to_node",
    ),
})
