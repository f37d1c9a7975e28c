"""Device-level substrate: FeFET compact models, CMOS switches, passives.

This package is the lowest layer of the reproduction stack.  Everything
above it (cells, circuits, macros, system model) consumes the device models
defined here.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".fefet": (
        "DEFAULT_NFEFET_PARAMS",
        "DEFAULT_PFEFET_PARAMS",
        "FeFET",
        "FeFETParameters",
        "calibrate_vth_for_on_current",
        "make_mlc_nfefet",
        "make_slc_nfefet",
        "make_slc_pfefet",
        "mlc_states_from_write_voltages",
    ),
    ".mosfet": ("MOSFETParameters", "MOSSwitch", "TECH_40NM_NMOS", "TECH_40NM_PMOS"),
    ".passives": (
        "CHGFE_BITLINE_CAPACITANCE",
        "CURFE_BASE_RESISTANCE",
        "Capacitor",
        "Resistor",
        "binary_weighted_resistors",
    ),
    ".preisach": ("PreisachFerroelectric", "PreisachParameters"),
    ".variation": ("DEFAULT_VARIATION", "NO_VARIATION", "VariationModel"),
})
