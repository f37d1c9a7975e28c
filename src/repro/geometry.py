"""The single source of truth for the paper's macro geometry.

Every subsystem that reasons about macro dimensions — the layer mapper
(:mod:`repro.system.mapping`), the device-detailed macro models
(:mod:`repro.core.macro`), the functional model
(:mod:`repro.core.functional`), the quantised inference path
(:mod:`repro.system.inference`), the system performance model
(:mod:`repro.system.performance`), and the tiled chip simulator
(:mod:`repro.chipsim`) — derives its dimensions from the
:class:`MacroGeometry` defined here.  The paper's weight-stationary chip is
built from 128×128b macros storing 16 8-bit weight columns (8 physical
bit-columns per weight) and activating 32 rows per block step; that
configuration is :data:`DEFAULT_GEOMETRY`.

Keeping the numbers in one place is not cosmetic: accuracy, energy, and
latency are only comparable when they describe the *same* simulated
hardware, and a drifting copy of ``rows_per_block`` in one model silently
breaks that.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["MacroGeometry", "DEFAULT_GEOMETRY"]


@dataclass(frozen=True)
class MacroGeometry:
    """Geometry of one IMC macro.

    Attributes:
        rows: Physical array rows (128).
        weight_columns: Weight columns per macro (16 = 128 bit-columns /
            8 bit-columns per 8-bit weight).
        block_rows: Rows activated per block step (32).
    """

    rows: int = 128
    weight_columns: int = 16
    block_rows: int = 32

    def __post_init__(self) -> None:
        if self.rows < 1 or self.weight_columns < 1 or self.block_rows < 1:
            raise ValueError("all geometry fields must be positive")
        if self.rows % self.block_rows != 0:
            raise ValueError("rows must be a multiple of block_rows")

    @property
    def blocks_per_macro(self) -> int:
        """Sequential block activations needed to cover all rows of a macro."""
        return self.rows // self.block_rows

    @property
    def weights_per_macro(self) -> int:
        """Weight parameters stored per macro."""
        return self.rows * self.weight_columns

    # The tile partition of a weight matrix is defined HERE, once: the
    # mapper's LayerMapping (which prices the chip) and the layer engine's
    # tile count both delegate to these, so they cannot drift apart.

    def row_tile_count(self, weight_rows: int) -> int:
        """Macro tiles needed along the row (input) dimension."""
        if weight_rows < 1:
            raise ValueError("weight_rows must be positive")
        return -(-weight_rows // self.rows)

    def col_tile_count(self, weight_cols: int) -> int:
        """Macro tiles needed along the column (output) dimension."""
        if weight_cols < 1:
            raise ValueError("weight_cols must be positive")
        return -(-weight_cols // self.weight_columns)

    def row_tile_bounds(self, weight_rows: int, index: int) -> tuple:
        """Weight-row range ``[start, stop)`` held by row tile ``index``."""
        if not 0 <= index < self.row_tile_count(weight_rows):
            raise IndexError(
                f"row tile {index} out of range "
                f"[0, {self.row_tile_count(weight_rows)})"
            )
        start = index * self.rows
        return start, min(start + self.rows, weight_rows)

    def col_tile_bounds(self, weight_cols: int, index: int) -> tuple:
        """Weight-column range ``[start, stop)`` held by column tile ``index``."""
        if not 0 <= index < self.col_tile_count(weight_cols):
            raise IndexError(
                f"col tile {index} out of range "
                f"[0, {self.col_tile_count(weight_cols)})"
            )
        start = index * self.weight_columns
        return start, min(start + self.weight_columns, weight_cols)


#: The paper's 128×128b / 16-weight-column / 32-row-block configuration.
DEFAULT_GEOMETRY = MacroGeometry()
