"""Hardware activity counts of one layer — the currency between mapping
and cost models.

A :class:`LayerActivity` records *what the chip does* for one layer of one
inference: how many bank-level block MACs the macros execute, how many
bits move through the activation/partial-sum buffers, how many cross-tile
partial-sum additions the digital periphery performs, and the sequential
depth that sets latency.
:class:`repro.system.performance.SystemPerformanceModel` derives them from
a layer's shape and its macro mapping (the NeuroSim-style roll-up); on a
weight-stationary chip none of them depends on the data, so the
:class:`repro.chipsim.ChipSimulator` prices the very same counts for the
workload it executes, and networks that exist only as shape descriptors
(ResNet18/ImageNet) are priced the same way.
:meth:`repro.system.performance.SystemPerformanceModel.layer_performance`
converts them to energy and latency.

All counts are **per image** (per inference).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["LayerActivity"]


@dataclass(frozen=True)
class LayerActivity:
    """Per-image hardware activity of one layer.

    Attributes:
        layer_name: Layer name.
        macs: Multiply-accumulate operations.
        num_macros: Macros allocated to the layer (0 for pooling).
        row_tiles: Macro tiles along the input (row) dimension.
        col_tiles: Macro tiles along the output (column) dimension.
        block_macs: Bank-level block MAC operations — one 32-row analog
            accumulation + conversion per weight column, full bit-serial
            input sweep included in the energy model's unit.
        block_steps: Sequential block activations (row tiles run in
            parallel); sets the macro latency.
        input_bits_moved: Activation bits read from the input buffer.
        output_bits_moved: Output activation bits written back.
        psum_bits_moved: Cross-tile partial-sum bits moved through the
            buffer (read-modify-write counted by the converter).
        psum_adds: Cross-tile partial-sum additions in the digital adders.
        activation_ops: Activation-function evaluations.
        pool_elements: Elements consumed by pooling windows.
        digital_steps: Sequential digital-adder steps (pooling latency).
    """

    layer_name: str
    macs: float
    num_macros: int
    row_tiles: int = 0
    col_tiles: int = 0
    block_macs: float = 0.0
    block_steps: float = 0.0
    input_bits_moved: float = 0.0
    output_bits_moved: float = 0.0
    psum_bits_moved: float = 0.0
    psum_adds: float = 0.0
    activation_ops: float = 0.0
    pool_elements: float = 0.0
    digital_steps: float = 0.0

    def __post_init__(self) -> None:
        for field_name in (
            "macs",
            "block_macs",
            "block_steps",
            "input_bits_moved",
            "output_bits_moved",
            "psum_bits_moved",
            "psum_adds",
            "activation_ops",
            "pool_elements",
            "digital_steps",
        ):
            if getattr(self, field_name) < 0:
                raise ValueError(f"{field_name} must be non-negative")
