"""Vectorised execution engine for the device-detailed macro path.

:class:`MacroEngine` runs the complete bit-serial MAC pipeline of the paper
— per-cell analog contributions, TIA / charge-sharing readout, 2CM/N2CM SAR
conversion, nibble combining, and input shift-add — as batched numpy tensor
operations over an :class:`~repro.engine.array_state.ArrayState`, instead of
the legacy quadruple Python loop over banks × block rows × bit planes ×
cells.

Exactness contract
------------------

With ``method="exact"`` (the default) every floating-point operation is
performed with the same expression structure, reduction order, and
sequential accumulation nesting as the legacy
:meth:`repro.core.macro.IMCMacro.matvec_reference` loop, so the results are
**bit-identical** — matvec, and matmat column-by-column, reproduce the
per-device path float for float (the golden-equivalence suite asserts
this).  ``method="fast"`` reduces each bit plane with an ``einsum``
against one cached, block-row-major difference table per group (weights
are stationary) — typically a further large speedup at DNN scale,
identical to ``exact`` within a few ULPs of analog voltage (which only
matters for voltages landing exactly on an ADC decision boundary).  Its
rows are added one at a time in ascending order, so ``fast`` itself is
reproducible bit for bit: across a tile grid and one padded macro, and
against the per-cell row reduction it replaced.  ``method="fused"``, the
default of every entry point above this engine, hoists the whole pipeline
to layer level — all bit planes packed into stacked BLAS gemm operands,
the readout folded into volt tables where it is affine, ADC/combine/
shift-add as in-place array ops per 32-row block — and is bit-identical to
``fast`` and ``exact`` (the quantiser absorbs the few-spacing voltage
reordering of the gemm and the folded readout; the golden suite asserts
it).
``exact`` stays this class's own default as the bit-identity reference.
The three kernels live in :mod:`repro.engine.kernels`, which also builds
each kernel's operand tables into the engine's one table cache.

Tiling support
--------------

One engine holds a whole zero-padded layer: :mod:`repro.chipsim` programs
it on the layer's full :class:`ArrayState` and prices the chip's macro
grid from counters.  Each 32-row block converts and shift-adds on its own,
and :meth:`MacroEngine.matmat` adds the block totals in ascending block
order — the order in which the chip adds its row tiles' partial sums — so
the one engine computes the grid's result.  Batch columns are independent,
so the chip simulator fans plane kernels out over column slices of one
engine.  :meth:`MacroEngine.matmat_blocks` exposes the per-block-row totals
*before* that accumulation.

Workload-calibrated references
------------------------------

By default every 32-row block converts against the nominal
``mac_range_for_group`` references — uniform levels over the worst-case
arithmetic range, most of which a real workload never produces.
:meth:`MacroEngine.calibrate_references` programs the reference bank to the
Lloyd-Max levels of the partial sums a calibration batch actually causes
(the same shared maths the functional backend uses,
:mod:`repro.quant.calibration`), after which conversions report the nearest
calibrated level.  Re-programming the weights invalidates the calibration
(the stored pattern the levels were derived from is gone).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

import numpy as np

from ..circuits.adc import ADCMode, CalibratedMACQuantizer, MACQuantizer
from ..core.bank import build_mac_quantizer
from ..core.inputs import InputVector
from ..core.readout import mac_range_for_group
from ..core.weights import WeightPlan, encode_weight_matrix, nibble_to_bits
from ..obs.metrics import REGISTRY
from ..obs.tracer import get_tracer
from ..quant.calibration import DEFAULT_MAX_SAMPLES, reference_levels_for_plan
from ..quant.quantize import coerce_unsigned_codes
from .array_state import CURFE_DESIGN, NUM_COLUMNS, ArrayState
from . import kernels
from .kernels import KERNEL_TABLES, validate_device_exec
from .readout_core import charge_share, combine_nibbles

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import cycle)
    from ..core.macro import IMCMacro

__all__ = ["MacroEngine"]

#: Input columns processed per internal chunk of :meth:`MacroEngine.matmat`
#: (read at call time); bounds the transient tensor memory without
#: affecting results (columns are independent).
DEFAULT_BATCH_CHUNK = 256

#: Kernel dispatches per (kernel, level), counted per batch chunk.
#: Registered at import so the family appears on every /metrics scrape.
_KERNEL_DISPATCHES = REGISTRY.counter(
    "repro_engine_kernel_dispatch_total",
    "MacroEngine kernel dispatches by kernel name and level",
)

#: Memoised nominal MAC quantisers, keyed by (signed, block_rows, readout,
#: adc_bits).  Readouts are frozen (value-hashable) dataclasses, and the
#: nominal quantiser is a pure function of these values — every layer
#: engine of a network, and every replica of a serving program, would
#: otherwise rebuild identical converters.
_NOMINAL_QUANTIZER_CACHE: dict = {}


def _nominal_quantizer(signed: bool, block_rows: int, readout, adc_bits: int):
    key = (signed, block_rows, readout, adc_bits)
    quantizer = _NOMINAL_QUANTIZER_CACHE.get(key)
    if quantizer is None:
        quantizer = _NOMINAL_QUANTIZER_CACHE[key] = build_mac_quantizer(
            mac_range=mac_range_for_group(signed, block_rows),
            nominal_voltage_for_mac=readout.voltage,
            adc_bits=adc_bits,
            mode=ADCMode.TWOS_COMPLEMENT if signed else ADCMode.NON_TWOS_COMPLEMENT,
        )
    return quantizer


class MacroEngine:
    """Batched matvec/matmat over a structure-of-arrays macro state.

    Args:
        state: The characterised array state (see :class:`ArrayState`).
        adc_bits: SAR ADC resolution (5 in the paper).
        weight_bits: Weight precision, 4 or 8.
    """

    def __init__(
        self,
        state: ArrayState,
        *,
        adc_bits: int = 5,
        weight_bits: int = 8,
    ) -> None:
        if weight_bits not in (4, 8):
            raise ValueError("weight_bits must be 4 or 8")
        if adc_bits < 1:
            raise ValueError("adc_bits must be at least 1")
        self.state = state
        self.adc_bits = int(adc_bits)
        self.weight_bits = int(weight_bits)
        self._quantizers: Dict[str, MACQuantizer] = {
            "high": _nominal_quantizer(
                True, state.block_rows, state.readout_high, self.adc_bits
            )
        }
        if self.weight_bits == 8:
            self._quantizers["low"] = _nominal_quantizer(
                False, state.block_rows, state.readout_low, self.adc_bits
            )
        self._plan: Optional[WeightPlan] = None
        self._stored: Dict[str, np.ndarray] = {}
        #: Kernel operand tables by (kernel, group); see
        #: :func:`~repro.engine.kernels.kernel_tables`.
        self._tables: Dict[tuple, tuple] = {}
        self._calibrated: Dict[str, CalibratedMACQuantizer] = {}

    # ----------------------------------------------------------- construction

    @classmethod
    def from_macro(cls, macro: "IMCMacro") -> "MacroEngine":
        """Build an engine sharing an existing macro's exact cell arrays.

        If the macro already holds a programmed weight plan the engine is
        programmed with it too.
        """
        engine = cls(
            ArrayState.from_macro(macro),
            adc_bits=macro.config.adc_bits,
            weight_bits=macro.config.weight_bits,
        )
        if macro.weight_plan is not None:
            engine.program_plan(macro.weight_plan)
        return engine

    # ---------------------------------------------------------------- weights

    @property
    def weight_plan(self) -> Optional[WeightPlan]:
        """The currently programmed weight plan, or None before programming."""
        return self._plan

    @property
    def banks(self) -> int:
        """Number of banks / weight columns."""
        return self.state.banks

    @property
    def rows(self) -> int:
        """Total array rows."""
        return self.state.rows

    def _group_bits(self, bits: np.ndarray) -> np.ndarray:
        """Reshape (rows, banks, 4) plan bits into (banks, R, block_rows, 4)."""
        state = self.state
        return np.ascontiguousarray(
            bits.transpose(1, 0, 2).reshape(
                state.banks, state.num_block_rows, state.block_rows, NUM_COLUMNS
            )
        )

    def program_plan(self, plan: WeightPlan) -> WeightPlan:
        """Program an already-encoded :class:`WeightPlan`."""
        if plan.weight_bits != self.weight_bits:
            raise ValueError(
                f"plan holds {plan.weight_bits}-bit weights, engine expects "
                f"{self.weight_bits}-bit"
            )
        expected = (self.rows, self.banks)
        if plan.weights.shape != expected:
            raise ValueError(f"weights must have shape {expected}, got {plan.weights.shape}")
        self._plan = plan
        # Derived per-pattern state is materialised lazily (stored_bits and
        # the kernel tables) so programming is cheap and a replica stamped
        # from a precompiled kernel plan never pays for it.
        self._stored = {}
        self._tables = {}
        # New stored pattern -> any workload calibration derived from the
        # previous pattern is stale; fall back to the nominal references.
        self._calibrated = {}
        return plan

    def _group_keys(self) -> tuple:
        return ("high", "low") if self.weight_bits == 8 else ("high",)

    def _plan_bits(self, key: str) -> np.ndarray:
        """One group's stored bits in plan layout, (rows, banks, 4).

        Expanded from the plan's nibbles on every call instead of read
        through the plan's cached ``high_bits`` / ``low_bits``, so a table
        build leaves no per-cell bit tensor behind on the plan either.
        """
        self._check_programmed()
        if key == "high":
            return nibble_to_bits(self._plan.high_nibbles, signed=True)
        return nibble_to_bits(self._plan.low_nibbles, signed=False)

    def stored_bits(self, key: str) -> np.ndarray:
        """Stored per-cell bits of one group, (banks, R, block_rows, 4).

        Cached for the ``"exact"`` kernel; the other kernels build from the
        plan bits directly and keep only their tables.
        """
        bits = self._stored.get(key)
        if bits is None:
            bits = self._group_bits(self._plan_bits(key))
            self._stored[key] = bits
        return bits

    def program_weights(self, weights: np.ndarray) -> WeightPlan:
        """Encode and program a signed weight matrix of shape (rows, banks)."""
        weights = np.asarray(weights)
        expected = (self.rows, self.banks)
        if weights.shape != expected:
            raise ValueError(f"weights must have shape {expected}, got {weights.shape}")
        return self.program_plan(encode_weight_matrix(weights, self.weight_bits))

    def matches_stored_bits(
        self, high_bits: np.ndarray, low_bits: Optional[np.ndarray]
    ) -> bool:
        """Whether the engine's programmed bit tensors equal the given ones.

        ``high_bits`` / ``low_bits`` have shape (banks, block_rows, rows, 4);
        ``low_bits`` is ignored for 4-bit weights.  Used by
        :class:`~repro.core.macro.IMCMacro` to detect bank-level
        reprogramming that bypassed :meth:`program_weights`.
        """
        if self._plan is None:
            return False
        if not np.array_equal(self.stored_bits("high"), high_bits):
            return False
        if self.weight_bits == 8:
            return low_bits is not None and np.array_equal(
                self.stored_bits("low"), low_bits
            )
        return True

    # --------------------------------------------------- compiled kernel plans

    def precompile(self, device_exec: str) -> None:
        """Eagerly materialise every table the *device_exec* kernel needs.

        After this call the first request served by the engine runs the hot
        path only — no lazy table population: every group gets the kernel's
        tables (named in :data:`~repro.engine.kernels.KERNEL_TABLES`), and
        for ``"fused"``, the one kernel that reads them, every calibrated
        quantiser its direct-level table
        (:meth:`~repro.circuits.adc.CalibratedMACQuantizer.level_table`).
        """
        self._check_programmed()
        validate_device_exec(device_exec)
        for key in self._group_keys():
            kernels.kernel_tables(self, device_exec, key)
        if device_exec == "fused":
            for quantizer in self._calibrated.values():
                quantizer.level_table()

    def export_kernel_plan(self, device_exec: str) -> Dict[str, np.ndarray]:
        """Precompile for *device_exec* and export the tables as flat arrays.

        The returned dict maps ``{group}_{name}`` keys, over the names in
        :data:`~repro.engine.kernels.KERNEL_TABLES`, to the exact operand
        arrays the kernel computes on — suitable for packing into a
        :class:`~repro.engine.shm.SharedArena` and re-installing with
        :meth:`apply_kernel_plan` (zero-copy, no recompute).  The
        calibrated quantisers' direct-level tables are *not* exported: each
        belongs to its quantiser instance and is cheap to rebuild at apply
        time.
        """
        self.precompile(device_exec)
        return {
            f"{key}_{name}": table
            for key in self._group_keys()
            for name, table in zip(
                KERNEL_TABLES[device_exec], self._tables[(device_exec, key)]
            )
        }

    def apply_kernel_plan(
        self, device_exec: str, arrays: Dict[str, np.ndarray]
    ) -> None:
        """Install exported kernel tables without recomputing them.

        *arrays* may be read-only shared-memory views; they are adopted
        as-is (zero-copy).  A ``"fused"`` plan's calibrated direct-level
        tables are rebuilt locally via :meth:`precompile`.
        """
        self._check_programmed()
        names = KERNEL_TABLES[validate_device_exec(device_exec)]
        for key in self._group_keys():
            self._tables[(device_exec, key)] = tuple(
                arrays[f"{key}_{name}"] for name in names
            )
        self.precompile(device_exec)

    # ------------------------------------------------------------ calibration

    @property
    def reference_levels(self) -> Optional[Dict[str, np.ndarray]]:
        """Workload-programmed MAC-domain reference levels, or None (nominal).

        Keyed by ``"high"`` / ``"low"``; reset by (re-)programming weights.
        """
        if not self._calibrated:
            return None
        return {
            key: quantizer.levels.copy()
            for key, quantizer in self._calibrated.items()
        }

    def clear_calibration(self) -> None:
        """Drop workload calibration; convert against nominal references."""
        self._calibrated = {}

    def apply_reference_levels(
        self, levels: Dict[str, np.ndarray]
    ) -> Dict[str, np.ndarray]:
        """Program explicit MAC-domain reference levels per column group.

        :meth:`calibrate_references` ends here, and a level set computed
        earlier (a sweep-cache entry, a serving program's calibration) is
        replayed through it without re-collecting partial sums.

        Args:
            levels: Level arrays keyed by ``"high"`` and, for 8-bit
                weights, ``"low"`` (exactly the groups the engine owns).

        Returns:
            The applied levels (defensive copies).
        """
        expected = {"high", "low"} if self.weight_bits == 8 else {"high"}
        if set(levels) != expected:
            raise ValueError(
                f"levels must be keyed by {sorted(expected)}, got {sorted(levels)}"
            )
        transfers = {
            "high": self.state.readout_high.voltage,
            "low": self.state.readout_low.voltage,
        }
        self._calibrated = {
            key: CalibratedMACQuantizer(
                np.asarray(values, dtype=float),
                nominal_voltage_for_mac=transfers[key],
            )
            for key, values in levels.items()
        }
        return self.reference_levels

    def calibrate_references(
        self,
        samples: np.ndarray,
        *,
        bits: int,
        max_samples: int = DEFAULT_MAX_SAMPLES,
    ) -> Dict[str, np.ndarray]:
        """Program the reference bank to a calibration batch's partial sums.

        Collects the ideal per-block partial sums the stored weight plan
        produces for ``samples`` and places the ``2^adc_bits`` Lloyd-Max
        levels per group — the shared placement maths of
        :mod:`repro.quant.calibration`, so the levels equal the functional
        backend's :meth:`~repro.core.functional.FunctionalIMCModel.calibrate_adc_ranges`
        result for the same samples.  Subsequent conversions report the
        nearest calibrated level instead of the nominal uniform grid.

        Args:
            samples: Integer array of shape (rows, batch) — one unsigned
                calibration vector per column, same orientation as
                :meth:`matmat`.  A 1-D vector is treated as batch 1.
            bits: Input precision of the calibration vectors (1..8).
            max_samples: Per-group cap on collected partial-sum samples.

        Returns:
            The programmed level arrays keyed by ``"high"`` / ``"low"``.
        """
        samples = self._validated_inputs(samples, bits, "exact", name="samples")
        assert self._plan is not None
        levels = reference_levels_for_plan(
            self._plan.high_nibbles,
            self._plan.low_nibbles if self.weight_bits == 8 else None,
            samples.T,
            adc_bits=self.adc_bits,
            input_bits=bits,
            rows_per_block=self.state.block_rows,
            max_samples=max_samples,
        )
        return self.apply_reference_levels(levels)

    # -------------------------------------------------------------- operation

    def _check_programmed(self) -> None:
        if self._plan is None:
            raise RuntimeError("program_weights must be called before computing MACs")

    def _plane_voltages(self, plane, key: str, method: str) -> np.ndarray:
        """Readout voltages of one group type for one bit plane.

        Args:
            plane: Bit plane reshaped to (batch, num_block_rows, block_rows)
                (int for the ``"exact"`` kernel, float otherwise).
            key: ``"high"`` or ``"low"``.
            method: A plane kernel, ``"exact"`` or ``"fast"``; its row
                reduction produces the per-column analog contributions and
                the shared readout (TIA, or clip and charge sharing) below
                turns them into column voltages.

        Returns:
            Array of shape (batch, banks, num_block_rows).
        """
        state = self.state
        group = state.group(key)
        if method == "exact":
            columns = kernels._exact_reduce(self, plane, key)
        else:
            columns = kernels._fast_reduce(self, plane, key)
        if state.design == CURFE_DESIGN:
            summed = columns.sum(axis=-1)
            return np.clip(
                state.tia_virtual_ground + summed * group.feedback_resistance,
                state.tia_clamp_low,
                state.tia_clamp_high,
            )
        bitlines = np.clip(
            state.precharge_voltage + columns, 0.0, state.sign_supply_voltage
        )
        return charge_share(
            bitlines,
            group.capacitance[None],
            group.capacitance_total[None],
        )

    def _convert_group(self, plane, key: str, method: str) -> np.ndarray:
        """ADC-reported partial MACs of one group type for one bit plane.

        The :meth:`_plane_voltages` of the plane, converted by the group's
        quantiser; shape (batch, banks, num_block_rows).
        """
        voltages = self._plane_voltages(plane, key, method)
        quantizer = self._calibrated.get(key) or self._quantizers[key]
        with get_tracer().span(
            "adc_quantize", group=key, calibrated=key in self._calibrated
        ):
            return quantizer.quantize_voltages(voltages)

    def matvec(self, inputs: InputVector) -> np.ndarray:
        """Bit-serial MAC of one input vector; bit-identical to the legacy loop.

        Args:
            inputs: Unsigned activation vector of length ``rows``.

        Returns:
            Array of shape (banks,) with the digital MAC results.
        """
        if inputs.rows != self.rows:
            raise ValueError(
                f"input vector has {inputs.rows} rows, expected {self.rows}"
            )
        return self.matmat(inputs.values[:, None], bits=inputs.bits)[:, 0]

    def matmat(
        self,
        inputs: np.ndarray,
        *,
        bits: int,
        method: str = "exact",
    ) -> np.ndarray:
        """Batched bit-serial MAC of many input vectors at once.

        The batch runs :data:`DEFAULT_BATCH_CHUNK` columns at a time.

        Args:
            inputs: Integer array of shape (rows, batch) — one unsigned
                activation vector per column — with values in the unsigned
                ``bits`` range.  A 1-D vector is treated as batch 1.
            bits: Input precision (1..8).
            method: A kernel from :mod:`repro.engine.kernels` —
                ``"exact"`` (bit-identical to column-stacked
                :meth:`matvec`), ``"fast"`` (einsum row reduction against
                the cached plane table, ULP-level differences in analog
                voltage), or ``"fused"`` (layer-level batched pipeline,
                bit-identical to ``"fast"``, fastest).

        Returns:
            Float array of shape (banks, batch): column ``j`` is the matvec
            of input column ``j``.
        """
        inputs = self._validated_inputs(inputs, bits, method)
        batch = inputs.shape[1]
        chunk = DEFAULT_BATCH_CHUNK
        results = np.empty((self.banks, batch))
        for start in range(0, batch, chunk):
            stop = min(start + chunk, batch)
            results[:, start:stop] = self._matmat_chunk(
                inputs[:, start:stop], bits, method
            )
        return results

    def matmat_blocks(
        self,
        inputs: np.ndarray,
        *,
        bits: int,
        method: str = "exact",
    ) -> np.ndarray:
        """Per-block-row digital totals, before the cross-block accumulation.

        Each block row's total is its bit planes combined LSB-first — the
        exact partial value the digital accumulator adds per 32-row block
        step.  :meth:`matmat` equals these totals accumulated sequentially
        over the block-row axis.

        Args:
            inputs: Integer array of shape (rows, batch); see :meth:`matmat`.
            bits: Input precision (1..8).
            method: ``"exact"``, ``"fast"`` or ``"fused"`` (see :meth:`matmat`).

        Returns:
            Float array of shape (banks, num_block_rows, batch).
        """
        inputs = self._validated_inputs(inputs, bits, method)
        batch = inputs.shape[1]
        chunk = DEFAULT_BATCH_CHUNK
        results = np.empty((self.banks, self.state.num_block_rows, batch))
        for start in range(0, batch, chunk):
            stop = min(start + chunk, batch)
            block_totals = self._block_totals_chunk(
                inputs[:, start:stop], bits, method
            )
            results[:, :, start:stop] = block_totals.transpose(1, 2, 0)
        return results

    def _validated_inputs(
        self, inputs: np.ndarray, bits: int, method: str, *, name: str = "inputs"
    ) -> np.ndarray:
        self._check_programmed()
        validate_device_exec(method)
        if not 1 <= bits <= 8:
            raise ValueError("bits must be between 1 and 8")
        inputs = np.asarray(inputs)
        if inputs.ndim == 1:
            inputs = inputs[:, None]
        if inputs.ndim != 2 or inputs.shape[0] != self.rows:
            raise ValueError(
                f"{name} must have shape ({self.rows}, batch), got {inputs.shape}"
            )
        return coerce_unsigned_codes(inputs, bits, name=name)

    def _matmat_chunk(self, values: np.ndarray, bits: int, method: str) -> np.ndarray:
        # Cross-block accumulation with the legacy nesting: per bank, block
        # rows accumulate sequentially.
        block_totals = self._block_totals_chunk(values, bits, method)
        totals = np.zeros(block_totals.shape[:2])
        for block_row in range(self.state.num_block_rows):
            totals = totals + block_totals[:, :, block_row]
        return totals.T

    def _block_totals_chunk(
        self, values: np.ndarray, bits: int, method: str
    ) -> np.ndarray:
        """Per-block-row totals of one batch chunk, shape (batch, banks, R)."""
        level = "layer" if method == "fused" else "plane"
        _KERNEL_DISPATCHES.inc(kernel=method, level=level)
        with get_tracer().span(
            "kernel", kernel=method, level=level,
            bits=bits, batch=int(values.shape[1]),
        ):
            if method == "fused":
                # The layer kernel owns the whole pipeline for the chunk
                # (bit-plane packing, row reduction, readout, combine,
                # shift-add).
                return kernels.fused_block_totals(self, values, bits)
            return self._plane_block_totals(values, bits, method)

    def _plane_block_totals(
        self, values: np.ndarray, bits: int, method: str
    ) -> np.ndarray:
        state = self.state
        batch = values.shape[1]
        num_block_rows, block_rows = state.num_block_rows, state.block_rows
        combined = np.empty((bits, batch, self.banks, num_block_rows))
        for bit in range(bits):
            plane = ((values >> bit) & 1).T.reshape(batch, num_block_rows, block_rows)
            if method != "exact":
                plane = plane.astype(float)
            mac_high = self._convert_group(plane, "high", method)
            mac_low = (
                self._convert_group(plane, "low", method)
                if self.weight_bits == 8
                else None
            )
            combined[bit] = combine_nibbles(mac_high, mac_low, self.weight_bits)
        # Each block row sums its bit planes LSB-first (legacy order).
        block_totals = np.zeros((batch, self.banks, num_block_rows))
        for bit in range(bits):
            block_totals = block_totals + combined[bit] * float(2**bit)
        return block_totals

    # -------------------------------------------------------------- reference

    def ideal_matvec(self, inputs: InputVector) -> np.ndarray:
        """Exact integer MAC results for the stored weights (golden reference)."""
        self._check_programmed()
        assert self._plan is not None
        return self._plan.weights.T.astype(np.int64) @ inputs.values

    def ideal_matmat(self, inputs: np.ndarray) -> np.ndarray:
        """Exact integer reference of :meth:`matmat` for the stored weights."""
        self._check_programmed()
        assert self._plan is not None
        inputs = np.asarray(inputs, dtype=np.int64)
        if inputs.ndim == 1:
            inputs = inputs[:, None]
        return self._plan.weights.T.astype(np.int64) @ inputs

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"MacroEngine(design={self.state.design!r}, banks={self.banks}, "
            f"rows={self.rows}, weight_bits={self.weight_bits}, "
            f"adc_bits={self.adc_bits})"
        )
