"""Fixed-point quantisation utilities (2's-complement codecs, bit-serial
slicing) and workload calibration of the programmable ADC reference bank."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".calibration": (
        "CALIBRATION_MODES",
        "collect_block_partial_sums",
        "lloyd_max_levels",
        "quantize_to_levels",
        "reference_levels_for_plan",
    ),
    ".quantize": (
        "QuantizationSpec",
        "bit_planes_to_input",
        "bits_to_weight",
        "coerce_unsigned_codes",
        "combine_weight_nibbles",
        "dequantize_tensor",
        "from_twos_complement",
        "input_to_bit_planes",
        "quantize_tensor",
        "signed_range",
        "split_signed_weight",
        "to_twos_complement",
        "unsigned_range",
        "weight_to_bits",
    ),
})
