"""One layer's weight matrix on the chip's macro grid.

The paper's chip stores weights stationary on 128×128b macros (16 8-bit
weight columns each).  A layer whose unrolled weight matrix exceeds one
macro is sharded across a tile grid: **row tiles** each hold up to 128
consecutive weight rows and their digital partial sums are accumulated
across tiles, **column tiles** own disjoint output channels.
:func:`~repro.system.mapping.map_layer` lays that grid out, and the
:class:`~repro.chipsim.ChipSimulator` prices the chip from that mapping.

Equivalence to one padded macro
-------------------------------

:class:`TiledLayerEngine` characterises the *full* layer array once — with
``ArrayState.build`` on the configuration of a single macro holding the
zero-padded layer (rows rounded up to whole 32-row blocks, one bank per
output column) — and programs one :class:`~repro.engine.MacroEngine` on
it.  Every kernel runs on that engine, so ``matmat`` *is* that macro's
output, bit for bit.  It is also what the chip's grid computes: each tile
converts the blocks of its own region of the state, and the row tiles'
block totals are added in global block order — the one macro's own
accumulation nesting.  The test suite pins ``exact`` and ``fast`` against
an engine built independently on the same state, and ``fused`` against
both.

Parallelism
-----------

The layer kernel (``fused``, the default) runs the whole batch in one
serial call.  Plane kernels (``exact``, ``fast``) convert batch columns
independently, so :meth:`TiledLayerEngine.matmat` builds their tables once
and splits the padded batch into column slices, run on a persistent pool
of ``os.cpu_count()`` threads (numpy releases the GIL inside the heavy
kernels) and joined in submission order; a single-core host runs them in a
plain loop.  A slice holds as many cells per plane tensor as one 128×16
tile holds per engine chunk of
:data:`~repro.engine.macro_engine.DEFAULT_BATCH_CHUNK` columns, so the
working set of each thread stays that of one tile.

Workload-calibrated references
------------------------------

:meth:`TiledLayerEngine.calibrate_references` programs the layer's
reference banks with one layer-wide Lloyd-Max level set computed from a
calibration batch (shared maths: :mod:`repro.quant.calibration`) — the
levels the chip writes into the reference bank of every tile.  This is
what lets the device-detailed chip simulator run at the paper's 5-bit ADC
instead of the 8 bits the nominal worst-case references needed.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, Optional

import numpy as np

from ..core.macro import IMCMacroConfig
from ..devices.variation import NO_VARIATION, VariationModel
from ..engine import macro_engine
from ..engine.array_state import ArrayState
from ..engine.kernels import DEFAULT_DEVICE_EXEC, validate_device_exec
from ..engine.macro_engine import MacroEngine
from ..geometry import DEFAULT_GEOMETRY, MacroGeometry
from ..obs.tracer import get_tracer
from ..quant.calibration import DEFAULT_MAX_SAMPLES

__all__ = ["TiledLayerEngine"]


class TiledLayerEngine:
    """Executes one layer's integer weight matrix as the chip's macro grid.

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

        # One characterisation pass for the whole padded layer.
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
        #: The engine every kernel runs on: one macro holding the padded layer.
        self.engine = MacroEngine(state, adc_bits=adc_bits, weight_bits=weight_bits)
        self.engine.program_weights(self._padded(weights))
        self._pool: Optional[ThreadPoolExecutor] = None

    def _padded(self, columns: np.ndarray) -> np.ndarray:
        """*columns* (weight_rows, n) zero-padded to whole 32-row blocks.

        The pad keeps the input's dtype: the engine validates the codes, and
        a non-integral float must reach that check untruncated.
        """
        padded = np.zeros((self.padded_rows, columns.shape[1]), dtype=columns.dtype)
        padded[: self.weight_rows] = columns
        return padded

    # ------------------------------------------------------------- structure

    @property
    def num_tiles(self) -> int:
        """Macros allocated to the layer."""
        geometry = self.geometry
        return geometry.row_tile_count(self.weight_rows) * geometry.col_tile_count(
            self.weight_cols
        )

    @property
    def total_blocks(self) -> int:
        """Global 32-row blocks covering the (padded) weight rows."""
        return self.padded_rows // self.geometry.block_rows

    def _worker_pool(self) -> Optional[ThreadPoolExecutor]:
        """The layer's persistent slice thread pool (None when serial).

        Created once and reused across ``matmat`` calls; the idle pool
        costs nothing between batches and its threads are joined at
        interpreter exit.
        """
        if self._pool is None:
            workers = os.cpu_count() or 1
            if workers > 1:
                self._pool = ThreadPoolExecutor(max_workers=workers)
        return self._pool

    # ------------------------------------------------------------ calibration

    @property
    def reference_levels(self) -> Optional[Dict[str, np.ndarray]]:
        """The layer-wide calibrated reference levels, or None (nominal)."""
        return self.engine.reference_levels

    def apply_reference_levels(
        self, levels: Dict[str, np.ndarray]
    ) -> Dict[str, np.ndarray]:
        """Program one explicit level set into the layer's reference banks."""
        return self.engine.apply_reference_levels(levels)

    def clear_calibration(self) -> None:
        """Drop workload calibration (back to nominal references)."""
        self.engine.clear_calibration()

    def calibrate_references(
        self,
        samples: np.ndarray,
        *,
        bits: int,
        max_samples: int = DEFAULT_MAX_SAMPLES,
    ) -> Dict[str, np.ndarray]:
        """Program layer-wide ADC references from a calibration batch.

        The levels are computed **once** for the whole layer, from the
        padded weight plan and the padded calibration batch (the layer
        engine's ``calibrate_references``).

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
        return self.engine.calibrate_references(
            self._padded(samples), bits=bits, max_samples=max_samples
        )

    # --------------------------------------------------- compiled kernel plans

    def precompile(self, device_exec: str) -> None:
        """Eagerly build every table the *device_exec* kernel will touch.

        A replica precompiled at program time serves request #1 on the hot
        path only.
        """
        self.engine.precompile(device_exec)

    def export_kernel_plan(self, device_exec: str) -> Dict[str, np.ndarray]:
        """Precompile and export the layer's kernel tables as flat arrays.

        :meth:`apply_kernel_plan` re-installs them without recompute.
        """
        return self.engine.export_kernel_plan(device_exec)

    def apply_kernel_plan(
        self, device_exec: str, arrays: Dict[str, np.ndarray]
    ) -> None:
        """Install exported kernel tables (possibly shared-memory views)."""
        self.engine.apply_kernel_plan(device_exec, arrays)

    # -------------------------------------------------------------- operation

    def matmat(
        self,
        inputs: np.ndarray,
        *,
        bits: int,
        method: str = DEFAULT_DEVICE_EXEC,
    ) -> np.ndarray:
        """Batched bit-serial MAC of many input vectors through the layer.

        Args:
            inputs: Integer array of shape (weight_rows, batch) — one
                unsigned activation vector per column (unpadded; block
                padding is applied internally).
            bits: Input precision (1..8).
            method: ``"fused"`` (default; layer-level batched kernel,
                fastest), ``"exact"`` or ``"fast"`` (plane kernels, run on
                batch slices) — all three bit-identical to a single padded
                macro.

        Returns:
            Float array of shape (weight_cols, batch).
        """
        validate_device_exec(method)
        with get_tracer().span(
            "tiled_layer",
            kernel=method,
            level="layer" if method == "fused" else "plane",
            tiles=self.num_tiles,
            bits=bits,
        ) as span:
            result = self._matmat_impl(inputs, bits=bits, method=method)
            span.set(batch=int(result.shape[1]))
        return result

    def _matmat_impl(
        self, inputs: np.ndarray, *, bits: int, method: str
    ) -> np.ndarray:
        inputs = np.asarray(inputs)
        if inputs.ndim == 1:
            inputs = inputs[:, None]
        if inputs.ndim != 2 or inputs.shape[0] != self.weight_rows:
            raise ValueError(
                f"inputs must have shape ({self.weight_rows}, batch), "
                f"got {inputs.shape}"
            )
        # The engine validates the codes: once for the whole padded batch
        # (fused), or per column slice (plane kernels).
        padded = self._padded(inputs)
        batch = padded.shape[1]
        engine = self.engine
        if method == "fused":
            return engine.matmat(padded, bits=bits, method=method)

        # Plane kernels: tables first (once, on this thread), then column
        # slices holding as many cells per plane tensor as one tile chunk.
        engine.precompile(method)
        geometry = self.geometry
        chunk = macro_engine.DEFAULT_BATCH_CHUNK
        tile_chunk = geometry.weight_columns * geometry.blocks_per_macro * chunk
        width = max(1, min(chunk, tile_chunk // (self.weight_cols * self.total_blocks)))
        tracer = get_tracer()
        parent = tracer.current_context()

        def run_slice(start: int) -> np.ndarray:
            stop = min(start + width, batch)
            with tracer.span(
                "slice", parent=parent, first_column=start, columns=stop - start
            ):
                return engine.matmat(padded[:, start:stop], bits=bits, method=method)

        starts = range(0, batch, width)
        pool = self._worker_pool() if len(starts) > 1 else None
        slices = pool.map(run_slice, starts) if pool else map(run_slice, starts)
        results = np.empty((self.weight_cols, batch))
        for start, columns in zip(starts, slices):
            results[:, start : start + width] = columns
        return results

    def ideal_matmat(self, inputs: np.ndarray) -> np.ndarray:
        """Exact integer reference for the stored weights."""
        inputs = np.asarray(inputs, dtype=np.int64)
        if inputs.ndim == 1:
            inputs = inputs[:, None]
        return self.engine.ideal_matmat(self._padded(inputs))

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"TiledLayerEngine(design={self.design!r}, "
            f"{self.weight_rows}x{self.weight_cols} weights, "
            f"{self.num_tiles} tiles)"
        )
