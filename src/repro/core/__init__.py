"""Core of the reproduction: the CurFe / ChgFe IMC designs themselves.

Layering inside the package:

* :mod:`weights`, :mod:`inputs`, :mod:`readout` — encodings and nominal
  transfer functions,
* :mod:`curfe`, :mod:`chgfe` — detailed per-device 4-bit blocks,
* :mod:`bank`, :mod:`macro` — the bank and 128×128 macro hierarchy,
* :mod:`dataflow` — exact integer references for every decomposition,
* :mod:`functional` — the fast vectorised model used by DNN-scale studies,
* :mod:`transients` — builders for the paper's transient MAC examples.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".bank": ("BankConversion", "IMCBank", "build_mac_quantizer"),
    ".chgfe": ("ChgFeBlock", "ChgFeBlockConfig"),
    ".curfe": ("CurFeBlock", "CurFeBlockConfig"),
    ".dataflow": (
        "bit_serial_matvec",
        "blocked_matvec",
        "ideal_matvec",
        "nibble_decomposed_matvec",
    ),
    ".functional": (
        "CHGFE_DESIGN",
        "CURFE_DESIGN",
        "IDEAL_DESIGN",
        "FunctionalIMCModel",
        "FunctionalModelConfig",
        "SignificanceSigmas",
        "estimate_relative_current_sigmas",
    ),
    ".inputs": ("InputVector",),
    ".macro": ("ChgFeMacro", "CurFeMacro", "IMCMacro", "IMCMacroConfig"),
    ".readout": ("ChgFeReadout", "CurFeReadout", "MACRange", "mac_range_for_group"),
    ".transients": ("TransientSummary", "chgfe_mac_transient", "curfe_mac_transient"),
    ".weights": (
        "WeightPlan",
        "bits_to_nibble",
        "decode_weight_plan",
        "encode_weight_matrix",
        "nibble_to_bits",
    ),
})
