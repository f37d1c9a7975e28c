"""Tiled execution of one layer's weight matrix across a grid of real macros.

The paper's chip stores weights stationary on 128×128b macros (16 8-bit
weight columns each).  A layer whose unrolled weight matrix exceeds one
macro is sharded across a tile grid: **row tiles** each hold up to 128
consecutive weight rows and their digital partial sums are accumulated
across tiles, **column tiles** own disjoint output channels.

Equivalence to one padded macro
-------------------------------

:class:`TiledLayerEngine` characterises the *full* layer array once — with
``ArrayState.build`` on the configuration of a single macro holding the
zero-padded layer (rows rounded up to whole 32-row blocks, one bank per
output column) — and gives every tile engine a *view* of that state
(:meth:`~repro.engine.array_state.ArrayState.tile_view`).  Per-block ADC
results are therefore float-for-float those of that single macro, and the
cross-tile digital accumulation walks the blocks of all row tiles in
**global block order**, reproducing its accumulation nesting exactly.
``matmat`` results equal a :class:`~repro.engine.MacroEngine` on the same
state with zero-padded weights and inputs, bit for bit, for
``method="exact"`` and ``method="fast"`` alike (the test suite enforces
this); ``"turbo"`` (cached BLAS operands) carries the engine's documented
ULP-class caveat.

Parallelism
-----------

Tiles are independent until the final accumulation, so their conversions
run in a thread pool of ``min(num_tiles, os.cpu_count())`` threads (numpy
releases the GIL inside the heavy kernels); single-tile layers and
single-core hosts stay serial.

Activity counters
-----------------

Every ``matmat`` updates per-tile activity counters (input columns
processed, bank-level block MACs, cross-tile partial-sum additions, tile
invocations).  :class:`~repro.chipsim.ChipSimulator` harvests them to price
energy and latency from the *same* pass that produced the accuracy.

Workload-calibrated references
------------------------------

:meth:`TiledLayerEngine.calibrate_references` programs the reference banks
of **all** tiles with one layer-wide Lloyd-Max level set computed from a
calibration batch (shared maths: :mod:`repro.quant.calibration`).  Because
the levels are computed from the full padded weight plan — the identical
computation a single padded macro performs — and applied uniformly to
every tile, calibrated tiled execution stays bit-identical to that macro
calibrated on the same batch.  This is what lets the device-detailed chip
simulator run at the paper's 5-bit ADC instead of the 8 bits the nominal
worst-case references needed.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..core.macro import IMCMacroConfig
from ..devices.variation import NO_VARIATION, VariationModel
from ..engine.array_state import ArrayState
from ..engine.kernels import get_kernel
from ..engine.macro_engine import MacroEngine
from ..geometry import DEFAULT_GEOMETRY, MacroGeometry
from ..obs.tracer import get_tracer
from ..quant.calibration import DEFAULT_MAX_SAMPLES, reference_levels_for_plan
from ..quant.quantize import coerce_unsigned_codes

__all__ = ["TileSpec", "plan_tiles", "TiledLayerEngine"]


@dataclass(frozen=True)
class TileSpec:
    """One macro tile of a sharded weight matrix.

    Attributes:
        row_tile: Index along the input (weight-row) dimension.
        col_tile: Index along the output (weight-column) dimension.
        row_start: First weight row held by the tile.
        row_stop: One past the last weight row (unpadded).
        col_start: First weight column held by the tile.
        col_stop: One past the last weight column.
        block_start: First global 32-row block index covered.
        block_stop: One past the last global block index.
    """

    row_tile: int
    col_tile: int
    row_start: int
    row_stop: int
    col_start: int
    col_stop: int
    block_start: int
    block_stop: int

    @property
    def rows(self) -> int:
        """Weight rows stored on the tile (before block padding)."""
        return self.row_stop - self.row_start

    @property
    def banks(self) -> int:
        """Weight columns (banks) owned by the tile."""
        return self.col_stop - self.col_start

    @property
    def num_blocks(self) -> int:
        """32-row blocks the tile activates per conversion sweep."""
        return self.block_stop - self.block_start


def plan_tiles(
    weight_rows: int,
    weight_cols: int,
    geometry: MacroGeometry = DEFAULT_GEOMETRY,
) -> List[TileSpec]:
    """Shard a weight matrix onto the macro grid.

    Row tiles hold up to ``geometry.rows`` consecutive rows; the last row
    tile's remainder is padded up to whole ``geometry.block_rows`` blocks.
    Column tiles hold up to ``geometry.weight_columns`` columns.  Tiles are
    returned column-tile major, row-tile minor (the accumulation order).
    """
    if weight_rows < 1 or weight_cols < 1:
        raise ValueError("weight matrix dimensions must be positive")
    block = geometry.block_rows
    total_blocks = -(-weight_rows // block)
    tiles: List[TileSpec] = []
    for j in range(geometry.col_tile_count(weight_cols)):
        col_start, col_stop = geometry.col_tile_bounds(weight_cols, j)
        for i in range(geometry.row_tile_count(weight_rows)):
            row_start, row_stop = geometry.row_tile_bounds(weight_rows, i)
            block_start = i * geometry.blocks_per_macro
            tiles.append(
                TileSpec(
                    row_tile=i,
                    col_tile=j,
                    row_start=row_start,
                    row_stop=row_stop,
                    col_start=col_start,
                    col_stop=col_stop,
                    block_start=block_start,
                    block_stop=min(
                        block_start + geometry.blocks_per_macro, total_blocks
                    ),
                )
            )
    return tiles


class TiledLayerEngine:
    """Executes one layer's integer weight matrix on a grid of macro tiles.

    Args:
        weights: Signed integer weight matrix of shape (rows, cols).
        design: ``"curfe"`` or ``"chgfe"``.
        geometry: Macro geometry of the tiles.
        adc_bits: SAR ADC resolution.
        weight_bits: Weight precision (4 or 8).
        variation: Device-variation statistics of every cell.
        seed: Variation-draw seed used when no ``rng`` is passed.
        rng: Optional generator; consumed exactly as one
            ``ArrayState.build`` of the padded layer would.
        state: Optional prebuilt full-layer :class:`ArrayState` (e.g.
            restored from the sweep cache).  When given, characterisation is
            skipped entirely — including its generator consumption — and the
            state's dimensions must match the padded layer.
    """

    def __init__(
        self,
        weights: np.ndarray,
        *,
        design: str,
        geometry: MacroGeometry = DEFAULT_GEOMETRY,
        adc_bits: int = 5,
        weight_bits: int = 8,
        variation: VariationModel = NO_VARIATION,
        seed: int = 0,
        rng: Optional[np.random.Generator] = None,
        state: Optional[ArrayState] = None,
    ) -> None:
        weights = np.asarray(weights, dtype=np.int64)
        if weights.ndim != 2:
            raise ValueError("weights must be a 2-D (rows, cols) matrix")
        self.design = design
        self.geometry = geometry
        self.adc_bits = int(adc_bits)
        self.weight_bits = int(weight_bits)
        self.weight_rows, self.weight_cols = weights.shape
        block = geometry.block_rows
        self.padded_rows = -(-self.weight_rows // block) * block
        padded = np.zeros((self.padded_rows, self.weight_cols), dtype=np.int64)
        padded[: self.weight_rows] = weights
        self._padded_weights = padded
        self._reference_levels: Optional[Dict[str, np.ndarray]] = None
        # Lazily built full-layer engine backing the layer-level kernels
        # (``method="fused"``); shares ``array_state`` with the tile views.
        self._layer_engine: Optional[MacroEngine] = None

        # One characterisation pass for the whole padded layer; each tile
        # engine then works on a view of this state.
        if state is None:
            macro_config = IMCMacroConfig(
                rows=self.padded_rows,
                banks=self.weight_cols,
                block_rows=block,
                adc_bits=adc_bits,
                weight_bits=weight_bits,
                variation=variation,
                seed=seed,
            )
            state = ArrayState.build(design, macro_config, rng=rng)
        elif (
            state.design != design
            or state.rows != self.padded_rows
            or state.banks != self.weight_cols
            or state.block_rows != block
        ):
            raise ValueError(
                f"prebuilt state ({state.design}, {state.rows}x{state.banks}, "
                f"block {state.block_rows}) does not match the layer "
                f"({design}, {self.padded_rows}x{self.weight_cols}, "
                f"block {block})"
            )
        self.array_state = state
        self.tiles = plan_tiles(self.weight_rows, self.weight_cols, geometry)
        self._engines: List[MacroEngine] = []
        for tile in self.tiles:
            view = state.tile_view(
                tile.col_start, tile.col_stop, tile.block_start, tile.block_stop
            )
            engine = MacroEngine(view, adc_bits=adc_bits, weight_bits=weight_bits)
            engine.program_weights(
                padded[
                    tile.block_start * block : tile.block_stop * block,
                    tile.col_start : tile.col_stop,
                ]
            )
            self._engines.append(engine)
        self._pool: Optional[ThreadPoolExecutor] = None
        self.reset_counters()

    # ------------------------------------------------------------- structure

    @property
    def num_tiles(self) -> int:
        """Macros allocated to the layer."""
        return len(self.tiles)

    @property
    def row_tiles(self) -> int:
        """Tiles along the input (row) dimension."""
        return max(tile.row_tile for tile in self.tiles) + 1

    @property
    def col_tiles(self) -> int:
        """Tiles along the output (column) dimension."""
        return max(tile.col_tile for tile in self.tiles) + 1

    @property
    def total_blocks(self) -> int:
        """Global 32-row blocks covering the (padded) weight rows."""
        return self.padded_rows // self.geometry.block_rows

    # -------------------------------------------------------------- counters

    def reset_counters(self) -> None:
        """Zero the activity counters."""
        self.columns_processed = 0
        self.block_macs = 0
        self.psum_adds = 0
        self.tile_matmats = 0

    def _worker_pool(self) -> Optional[ThreadPoolExecutor]:
        """The layer's persistent tile thread pool (None when serial).

        Created once and reused across ``matmat`` calls; the idle pool
        costs nothing between batches and its threads are joined at
        interpreter exit.
        """
        if self._pool is None:
            workers = min(self.num_tiles, os.cpu_count() or 1)
            if workers > 1:
                self._pool = ThreadPoolExecutor(max_workers=workers)
        return self._pool

    # ------------------------------------------------------------ calibration

    def _layer_nibbles(self):
        """The full layer's exact nibble matrices, assembled from tile plans.

        Every tile engine already holds the encoded plan of its sub-matrix;
        stitching them back together in (block range × column range) order
        reproduces ``encode_weight_matrix`` of the whole padded layer
        (nibble encoding is elementwise), without keeping a layer-sized
        weight copy alive or re-encoding on every calibration.
        """
        block = self.geometry.block_rows
        high = np.empty((self.padded_rows, self.weight_cols), dtype=np.int64)
        low = np.empty_like(high) if self.weight_bits == 8 else None
        for tile, engine in zip(self.tiles, self._engines):
            plan = engine.weight_plan
            rows = slice(tile.block_start * block, tile.block_stop * block)
            cols = slice(tile.col_start, tile.col_stop)
            high[rows, cols] = plan.high_nibbles
            if low is not None:
                low[rows, cols] = plan.low_nibbles
        return high, low

    @property
    def reference_levels(self) -> Optional[Dict[str, np.ndarray]]:
        """The layer-wide calibrated reference levels, or None (nominal)."""
        if self._reference_levels is None:
            return None
        return {key: value.copy() for key, value in self._reference_levels.items()}

    def apply_reference_levels(
        self, levels: Dict[str, np.ndarray]
    ) -> Dict[str, np.ndarray]:
        """Program one explicit level set into *every* tile engine.

        All row and column tiles of a layer share the layer's reference
        bank programming; applying identical levels everywhere is what
        keeps tiled execution bit-identical to a single padded macro
        calibrated with the same levels.
        """
        shared = None
        for engine in self._engines:
            if shared is None:
                engine.apply_reference_levels(levels)
                shared = engine._calibrated
            else:
                # Tiles are views of one state with identical readout
                # transfers, so the first tile's quantisers (and their
                # cached search LUTs) are shared rather than rebuilt.
                engine._adopt_calibration(shared)
        if self._layer_engine is not None:
            if shared is not None:
                self._layer_engine._adopt_calibration(shared)
            else:
                self._layer_engine.apply_reference_levels(levels)
        # Cache the engines' normalised (sorted, deduplicated) form so the
        # layer-level view always equals what every tile reports.
        self._reference_levels = {
            key: np.unique(np.asarray(value, dtype=float))
            for key, value in levels.items()
        }
        return self.reference_levels

    def clear_calibration(self) -> None:
        """Drop workload calibration on every tile (back to nominal)."""
        for engine in self._engines:
            engine.clear_calibration()
        if self._layer_engine is not None:
            self._layer_engine.clear_calibration()
        self._reference_levels = None

    def calibrate_references(
        self,
        samples: np.ndarray,
        *,
        bits: int,
        max_samples: int = DEFAULT_MAX_SAMPLES,
    ) -> Dict[str, np.ndarray]:
        """Program layer-wide ADC references from a calibration batch.

        The levels are computed **once** for the whole layer — from the
        full (padded) weight plan and the padded calibration batch, exactly
        the computation a single :class:`~repro.engine.MacroEngine`
        holding the same padded weights performs in its
        ``calibrate_references`` — and then applied identically to every
        tile, so the grid stays bit-identical to that macro.

        Args:
            samples: Integer array of shape (weight_rows, batch) — one
                unsigned calibration vector per column (unpadded), same
                orientation as :meth:`matmat`.
            bits: Input precision of the calibration vectors (1..8).
            max_samples: Per-group cap on collected partial-sum samples.

        Returns:
            The programmed level arrays keyed by ``"high"`` / ``"low"``.
        """
        samples = np.asarray(samples)
        if samples.ndim == 1:
            samples = samples[:, None]
        if samples.ndim != 2 or samples.shape[0] != self.weight_rows:
            raise ValueError(
                f"samples must have shape ({self.weight_rows}, batch), "
                f"got {samples.shape}"
            )
        samples = coerce_unsigned_codes(samples, bits, name="samples")
        padded = np.zeros((self.padded_rows, samples.shape[1]), dtype=np.int64)
        padded[: self.weight_rows] = samples
        high_nibbles, low_nibbles = self._layer_nibbles()
        levels = reference_levels_for_plan(
            high_nibbles,
            low_nibbles,
            padded.T,
            adc_bits=self.adc_bits,
            input_bits=bits,
            rows_per_block=self.geometry.block_rows,
            max_samples=max_samples,
        )
        return self.apply_reference_levels(levels)

    # --------------------------------------------------- compiled kernel plans

    def precompile(self, device_exec: str = "fast") -> None:
        """Eagerly build every table the *device_exec* kernel will touch.

        Layer-level kernels precompile the full-layer engine (building it
        if needed); plane-level kernels precompile every tile engine.  A
        replica precompiled at program time serves request #1 on the hot
        path only.
        """
        kernel = get_kernel(device_exec)
        if kernel.level == "layer":
            self._full_layer_engine().precompile(device_exec)
        else:
            for engine in self._engines:
                engine.precompile(device_exec)

    def export_kernel_plan(self, device_exec: str = "fast") -> Dict[str, np.ndarray]:
        """Precompile and export the layer's kernel tables as flat arrays.

        Keys are prefixed ``layer__`` (layer-level kernels, full-layer
        engine) or ``tile{i}__`` (plane-level kernels, one set per tile);
        :meth:`apply_kernel_plan` re-installs them without recompute.
        """
        kernel = get_kernel(device_exec)
        plan: Dict[str, np.ndarray] = {}
        if kernel.level == "layer":
            exported = self._full_layer_engine().export_kernel_plan(device_exec)
            plan.update({f"layer__{key}": value for key, value in exported.items()})
        else:
            for index, engine in enumerate(self._engines):
                exported = engine.export_kernel_plan(device_exec)
                plan.update(
                    {f"tile{index}__{key}": value for key, value in exported.items()}
                )
        return plan

    def apply_kernel_plan(
        self, device_exec: str, arrays: Dict[str, np.ndarray]
    ) -> None:
        """Install exported kernel tables (possibly shared-memory views)."""
        kernel = get_kernel(device_exec)
        if kernel.level == "layer":
            prefix = "layer__"
            tables = {
                key[len(prefix):]: value
                for key, value in arrays.items()
                if key.startswith(prefix)
            }
            self._full_layer_engine().apply_kernel_plan(device_exec, tables)
            return
        # One pass over the plan: partition ``tile{i}__{name}`` keys by tile
        # index instead of rescanning every key once per tile.
        per_tile: Dict[int, Dict[str, np.ndarray]] = {}
        for key, value in arrays.items():
            tile_prefix, sep, name = key.partition("__")
            if sep and tile_prefix.startswith("tile") and tile_prefix[4:].isdigit():
                per_tile.setdefault(int(tile_prefix[4:]), {})[name] = value
        for index, engine in enumerate(self._engines):
            engine.apply_kernel_plan(device_exec, per_tile.get(index, {}))

    # -------------------------------------------------------------- operation

    def _full_layer_engine(self) -> MacroEngine:
        """The lazily-built engine spanning the whole padded layer.

        It is programmed on the *same* :class:`ArrayState` the tile views
        share — characterisation is not repeated and no variation draws are
        consumed — and carries the layer's calibration, so a layer-level
        kernel run on it sees float-for-float the voltages the tile grid
        would produce.
        """
        engine = self._layer_engine
        if engine is None:
            engine = MacroEngine(
                self.array_state,
                adc_bits=self.adc_bits,
                weight_bits=self.weight_bits,
            )
            engine.program_weights(self._padded_weights)
            if self._reference_levels is not None:
                if self._engines and self._engines[0]._calibrated:
                    engine._adopt_calibration(self._engines[0]._calibrated)
                else:
                    engine.apply_reference_levels(self._reference_levels)
            self._layer_engine = engine
        return engine

    def matmat(
        self,
        inputs: np.ndarray,
        *,
        bits: int,
        method: str = "fast",
        batch_chunk: Optional[int] = None,
    ) -> np.ndarray:
        """Batched bit-serial MAC of many input vectors across the tile grid.

        Args:
            inputs: Integer array of shape (weight_rows, batch) — one
                unsigned activation vector per column (unpadded; block
                padding is applied internally).
            bits: Input precision (1..8).
            method: ``"exact"`` / ``"fast"`` (both bit-identical to a
                single padded macro), ``"turbo"`` (per-tile BLAS kernel,
                ULP-class differences), or ``"fused"`` (layer-level batched
                kernel, bit-identical to turbo and fastest); any layer-level
                kernel registered in :mod:`repro.engine.kernels` hoists the
                per-tile loop the same way.
            batch_chunk: Input columns per internal engine chunk.

        Returns:
            Float array of shape (weight_cols, batch).
        """
        tracer = get_tracer()
        if not tracer.enabled:
            return self._matmat_impl(
                inputs, bits=bits, method=method, batch_chunk=batch_chunk
            )
        kernel = get_kernel(method)
        macs_before = self.block_macs
        with tracer.span(
            "tiled_layer",
            kernel=kernel.name,
            level=kernel.level,
            tiles=self.num_tiles,
            bits=bits,
        ) as span:
            result = self._matmat_impl(
                inputs, bits=bits, method=method, batch_chunk=batch_chunk
            )
            span.set(
                batch=int(result.shape[1]),
                block_macs=int(self.block_macs - macs_before),
            )
        return result

    def _matmat_impl(
        self,
        inputs: np.ndarray,
        *,
        bits: int,
        method: str,
        batch_chunk: Optional[int],
    ) -> np.ndarray:
        kernel = get_kernel(method)
        inputs = np.asarray(inputs)
        if inputs.ndim == 1:
            inputs = inputs[:, None]
        if inputs.ndim != 2 or inputs.shape[0] != self.weight_rows:
            raise ValueError(
                f"inputs must have shape ({self.weight_rows}, batch), "
                f"got {inputs.shape}"
            )
        inputs = coerce_unsigned_codes(inputs, bits)
        batch = inputs.shape[1]
        block = self.geometry.block_rows
        padded = np.zeros((self.padded_rows, batch), dtype=np.int64)
        padded[: self.weight_rows] = inputs

        if kernel.level == "layer":
            # Hoisted path: one whole-layer call instead of the per-tile
            # loop.  The cross-tile accumulation below walks blocks in
            # global order; summing the full-layer block totals in that
            # same order performs the identical sequence of elementwise
            # additions, so the psum contract (and the counters, which
            # price the same chip activity) are unchanged.
            engine = self._full_layer_engine()
            blocks = engine.matmat_blocks(
                padded, bits=bits, method=method, batch_chunk=batch_chunk
            )
            totals = np.zeros((self.weight_cols, batch))
            for block_row in range(blocks.shape[1]):
                totals = totals + blocks[:, block_row, :]
            self._count_matmat(batch)
            return totals

        def run_tile(index: int) -> np.ndarray:
            tile = self.tiles[index]
            return self._engines[index].matmat_blocks(
                padded[tile.block_start * block : tile.block_stop * block],
                bits=bits,
                method=method,
                batch_chunk=batch_chunk,
            )

        pool = self._worker_pool()
        if pool is not None:
            block_outputs = list(pool.map(run_tile, range(self.num_tiles)))
        else:
            block_outputs = [run_tile(index) for index in range(self.num_tiles)]

        # Digital partial-sum accumulation: per column tile, walk the blocks
        # of its row tiles in global block order — a single macro's nesting.
        results = np.empty((self.weight_cols, batch))
        for col_tile in range(self.col_tiles):
            members = [
                (tile, block_outputs[index])
                for index, tile in enumerate(self.tiles)
                if tile.col_tile == col_tile
            ]
            members.sort(key=lambda item: item[0].row_tile)
            first = members[0][0]
            totals = np.zeros((first.banks, batch))
            for tile, blocks in members:
                for block_row in range(blocks.shape[1]):
                    totals = totals + blocks[:, block_row, :]
            results[first.col_start : first.col_stop] = totals

        self._count_matmat(batch)
        return results

    def _count_matmat(self, batch: int) -> None:
        """Record one batch of chip activity (identical for every kernel:
        the simulated chip performs the same block MACs and psum additions
        regardless of how the host computes them)."""
        self.columns_processed += batch
        self.block_macs += batch * sum(
            tile.num_blocks * tile.banks for tile in self.tiles
        )
        self.psum_adds += batch * (self.row_tiles - 1) * self.weight_cols
        self.tile_matmats += self.num_tiles

    def ideal_matmat(self, inputs: np.ndarray) -> np.ndarray:
        """Exact integer reference for the stored weights."""
        inputs = np.asarray(inputs, dtype=np.int64)
        if inputs.ndim == 1:
            inputs = inputs[:, None]
        block = self.geometry.block_rows
        totals = np.zeros((self.weight_cols, inputs.shape[1]), dtype=np.int64)
        padded = np.zeros((self.padded_rows, inputs.shape[1]), dtype=np.int64)
        padded[: self.weight_rows] = inputs
        for tile, engine in zip(self.tiles, self._engines):
            totals[tile.col_start : tile.col_stop] += engine.ideal_matmat(
                padded[tile.block_start * block : tile.block_stop * block]
            )
        return totals

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"TiledLayerEngine(design={self.design!r}, "
            f"{self.weight_rows}x{self.weight_cols} weights, "
            f"{self.row_tiles}x{self.col_tiles} tiles)"
        )
