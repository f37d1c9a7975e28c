"""Bit-cell models for the CurFe (1nFeFET1R) and ChgFe (1nFeFET / 1pFeFET) arrays."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".chgfe_cell": (
        "CHGFE_NFEFET_PARAMS",
        "CHGFE_PFEFET_PARAMS",
        "ChgFeCellParameters",
        "ChgFeNCell",
        "ChgFePCell",
        "calibrated_nfefet_vth_states",
        "calibrated_pfefet_on_vth",
    ),
    ".curfe_cell": ("CurFeCell", "CurFeCellParameters"),
})
