"""Comparison baselines: published SOTA macros and conventional shift-add schemes."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".analog_shift_add": ("AnalogShiftAddParameters", "AnalogShiftAddUnit"),
    ".designs": (
        "PAPER_CHGFE",
        "PAPER_CURFE",
        "PUBLISHED_DESIGNS",
        "DesignRecord",
        "best_reram_baseline",
        "best_sram_baseline",
        "efficiency_ratios",
    ),
    ".digital_shift_add": ("DigitalShiftAddParameters", "DigitalShiftAddUnit"),
})
