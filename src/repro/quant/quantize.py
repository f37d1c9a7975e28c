"""Fixed-point quantisation utilities and 2's-complement codecs.

Everything the macros consume is integer: unsigned multi-bit inputs streamed
bit-serially, and signed weights in 2's-complement split into a high 4-bit
nibble (interpreted in 2's-complement mode, 2CM) and a low 4-bit nibble
(interpreted in non-2's-complement mode, N2CM), exactly as Eq. (1)/(2) of the
paper.  This module centralises those encodings plus the tensor-level
quantisation used by the DNN inference path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

import numpy as np

__all__ = [
    "signed_range",
    "unsigned_range",
    "coerce_unsigned_codes",
    "to_twos_complement",
    "from_twos_complement",
    "split_signed_weight",
    "combine_weight_nibbles",
    "weight_to_bits",
    "bits_to_weight",
    "input_to_bit_planes",
    "bit_planes_to_input",
    "QuantizationSpec",
    "quantize_tensor",
    "dequantize_tensor",
]


def signed_range(bits: int) -> Tuple[int, int]:
    """Inclusive (min, max) of a signed 2's-complement integer of ``bits`` bits."""
    if bits < 2:
        raise ValueError("signed values need at least 2 bits")
    return -(2 ** (bits - 1)), 2 ** (bits - 1) - 1


def unsigned_range(bits: int) -> Tuple[int, int]:
    """Inclusive (min, max) of an unsigned integer of ``bits`` bits."""
    if bits < 1:
        raise ValueError("unsigned values need at least 1 bit")
    return 0, 2**bits - 1


def coerce_unsigned_codes(
    values: np.ndarray, bits: int, *, name: str = "inputs"
) -> np.ndarray:
    """Validate and cast an array of unsigned bit-serial codes to int64.

    The single input contract of everything that consumes activation codes
    (engine matmats, reference calibration): values must be integral (no
    silent float truncation) and inside the unsigned ``bits`` range.

    Args:
        values: Array of candidate codes (any shape).
        bits: Input precision (1..8 for the macros).
        name: Noun used in error messages.

    Returns:
        The values as an int64 array — *values* itself, not a copy, when
        it already is one, so callers must only read the result.
    """
    values = np.asarray(values)
    if not np.issubdtype(values.dtype, np.integer):
        if not np.all(values == np.round(values)):
            raise ValueError(f"{name} must be integers")
    values = values.astype(np.int64, copy=False)
    lo, hi = unsigned_range(bits)
    if np.any(values < lo) or np.any(values > hi):
        raise ValueError(f"{name} outside unsigned {bits}-bit range [{lo}, {hi}]")
    return values


def to_twos_complement(value: int, bits: int) -> int:
    """Encode a signed integer into its unsigned 2's-complement bit pattern."""
    lo, hi = signed_range(bits)
    if not lo <= value <= hi:
        raise ValueError(f"value {value} outside signed {bits}-bit range [{lo}, {hi}]")
    return value & ((1 << bits) - 1)

def from_twos_complement(pattern: int, bits: int) -> int:
    """Decode an unsigned 2's-complement bit pattern into a signed integer."""
    lo, hi = unsigned_range(bits)
    if not lo <= pattern <= hi:
        raise ValueError(
            f"pattern {pattern} outside unsigned {bits}-bit range [{lo}, {hi}]"
        )
    if pattern >= 1 << (bits - 1):
        return pattern - (1 << bits)
    return pattern


def split_signed_weight(weight: int, bits: int = 8) -> Tuple[int, int]:
    """Split a signed weight into its (high, low) nibbles per Eq. (1).

    For an 8-bit signed weight ``w`` the paper stores the high 4 bits in an
    H4B column group (interpreted as a signed 4-bit value, 2CM) and the low 4
    bits in an L4B column group (interpreted as an unsigned 4-bit value,
    N2CM), so that ``w = 16 * w_hi + w_lo``.

    For a 4-bit signed weight the entire value goes to the H4B (2CM) part and
    the low part is zero.

    Args:
        weight: The signed weight value.
        bits: Total weight precision, 4 or 8.

    Returns:
        Tuple ``(w_hi, w_lo)`` with ``w_hi`` signed in [-8, 7] and ``w_lo``
        unsigned in [0, 15].
    """
    if bits not in (4, 8):
        raise ValueError("weight precision must be 4 or 8 bits")
    lo_bound, hi_bound = signed_range(bits)
    if not lo_bound <= weight <= hi_bound:
        raise ValueError(
            f"weight {weight} outside signed {bits}-bit range [{lo_bound}, {hi_bound}]"
        )
    if bits == 4:
        return int(weight), 0
    pattern = to_twos_complement(int(weight), 8)
    low = pattern & 0xF
    high_pattern = (pattern >> 4) & 0xF
    high = from_twos_complement(high_pattern, 4)
    return high, low


def combine_weight_nibbles(high: int, low: int, bits: int = 8) -> int:
    """Inverse of :func:`split_signed_weight`: ``w = 16*high + low`` (8-bit)."""
    if bits not in (4, 8):
        raise ValueError("weight precision must be 4 or 8 bits")
    if not -8 <= high <= 7:
        raise ValueError("high nibble must be a signed 4-bit value")
    if bits == 4:
        if low != 0:
            raise ValueError("4-bit weights have no low nibble")
        return int(high)
    if not 0 <= low <= 15:
        raise ValueError("low nibble must be an unsigned 4-bit value")
    return 16 * int(high) + int(low)


def weight_to_bits(weight: int, bits: int) -> List[int]:
    """Return the 2's-complement bit pattern of ``weight``, LSB first."""
    pattern = to_twos_complement(int(weight), bits) if bits > 1 else int(weight)
    return [(pattern >> i) & 1 for i in range(bits)]


def bits_to_weight(bit_list: Sequence[int], signed: bool = True) -> int:
    """Assemble bits (LSB first) into a signed or unsigned integer."""
    pattern = 0
    for i, bit in enumerate(bit_list):
        if bit not in (0, 1):
            raise ValueError("bits must be 0 or 1")
        pattern |= bit << i
    if signed:
        return from_twos_complement(pattern, len(bit_list))
    return pattern


def input_to_bit_planes(values: np.ndarray, bits: int) -> np.ndarray:
    """Decompose unsigned input integers into bit planes, LSB plane first.

    Args:
        values: Array of unsigned integers in ``[0, 2**bits - 1]``.
        bits: Input precision in bits (1..8 supported by the macros).

    Returns:
        Array of shape ``(bits,) + values.shape`` containing 0/1 planes.
    """
    values = np.asarray(values)
    lo, hi = unsigned_range(bits)
    if np.any(values < lo) or np.any(values > hi):
        raise ValueError(f"input values outside unsigned {bits}-bit range")
    planes = np.empty((bits,) + values.shape, dtype=np.int64)
    for bit in range(bits):
        planes[bit] = (values.astype(np.int64) >> bit) & 1
    return planes


def bit_planes_to_input(planes: np.ndarray) -> np.ndarray:
    """Inverse of :func:`input_to_bit_planes` (LSB plane first)."""
    planes = np.asarray(planes)
    if planes.ndim < 1:
        raise ValueError("planes must have a leading bit dimension")
    result = np.zeros(planes.shape[1:], dtype=np.int64)
    for bit in range(planes.shape[0]):
        result += (planes[bit].astype(np.int64) & 1) << bit
    return result


@dataclass(frozen=True)
class QuantizationSpec:
    """Specification of a uniform fixed-point quantiser.

    Attributes:
        bits: Number of bits.
        signed: Whether the integer representation is signed (2's complement).
        scale: Real value represented by one LSB.
    """

    bits: int
    signed: bool
    scale: float

    def __post_init__(self) -> None:
        if self.bits < 1:
            raise ValueError("bits must be at least 1")
        if self.signed and self.bits < 2:
            raise ValueError("signed quantisation needs at least 2 bits")
        if self.scale <= 0:
            raise ValueError("scale must be positive")

    @property
    def int_range(self) -> Tuple[int, int]:
        """Inclusive integer range of the representation."""
        if self.signed:
            return signed_range(self.bits)
        return unsigned_range(self.bits)

    @classmethod
    def from_tensor(
        cls, tensor: np.ndarray, bits: int, signed: bool
    ) -> "QuantizationSpec":
        """Choose the scale so the tensor's max magnitude maps to full scale."""
        tensor = np.asarray(tensor, dtype=float)
        max_abs = float(np.max(np.abs(tensor))) if tensor.size else 1.0
        if max_abs == 0.0:
            max_abs = 1.0
        lo, hi = signed_range(bits) if signed else unsigned_range(bits)
        full_scale = max(abs(lo), abs(hi))
        return cls(bits=bits, signed=signed, scale=max_abs / full_scale)


def quantize_tensor(tensor: np.ndarray, spec: QuantizationSpec) -> np.ndarray:
    """Quantise a real tensor to integers according to ``spec`` (round-to-nearest)."""
    tensor = np.asarray(tensor, dtype=float)
    lo, hi = spec.int_range
    quantised = np.round(tensor / spec.scale)
    return np.clip(quantised, lo, hi).astype(np.int64)


def dequantize_tensor(tensor: np.ndarray, spec: QuantizationSpec) -> np.ndarray:
    """Map integer codes back to real values (``code * scale``)."""
    return np.asarray(tensor, dtype=np.int64).astype(float) * spec.scale
