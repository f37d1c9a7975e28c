"""Behavioural analog simulation substrate: waveforms, transients, Monte-Carlo."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".montecarlo": ("MonteCarloResult", "MonteCarloRunner"),
    ".transient": (
        "CurrentIntegration",
        "ExponentialSettle",
        "Hold",
        "LinearRamp",
        "NodeUpdate",
        "Phase",
        "TransientEngine",
    ),
    ".waveform": ("Waveform", "WaveformBundle"),
})
