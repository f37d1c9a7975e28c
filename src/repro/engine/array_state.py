"""Structure-of-arrays cell storage for the vectorised macro engine.

The device-detailed macro of :mod:`repro.core.macro` stores its state in
per-cell Python objects (16 banks × 4 block rows × 2 groups × 32 rows × 4
columns of them for the full 128×128b array).  :class:`ArrayState` holds the
exact same information as a handful of numpy tensors:

* the three characterised per-cell contributions — ``on`` (stores '1',
  selected), ``off_selected`` (stores '0', selected) and ``unselected`` —
  as ``(banks, block_rows, rows, 4)`` arrays per H4B/L4B group.  For CurFe
  these are signed bitline currents (A), for ChgFe bitline ΔVs (V);
* the effective bitline capacitances of every ChgFe group (for the
  charge-sharing average with capacitor mismatch);
* the nominal readout transfer objects and TIA/pre-charge constants needed
  to turn column sums into ADC input voltages.

Two constructors are provided:

* :meth:`ArrayState.from_macro` harvests the cached tables of an existing
  :class:`~repro.core.macro.IMCMacro` — the arrays are the very floats the
  per-cell path computes, so an engine built this way is bit-identical to
  the legacy loop by construction.
* :meth:`ArrayState.build` samples the state directly, without
  instantiating a single cell object, drawing device variation from the
  generator in *the same order* as macro construction would — so
  ``ArrayState.build(design, config, rng=default_rng(s))`` equals
  ``ArrayState.from_macro(Macro(config, rng=default_rng(s)))`` exactly.
  This is the constructor that makes device-detailed DNN-scale layers
  tractable (millions of cells characterised in one vectorised call).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

from ..cells.chgfe_cell import ChgFeCellParameters, characterise_chgfe_group
from ..cells.curfe_cell import CurFeCellParameters, characterise_curfe_group
from ..circuits.tia import TIAParameters, TransimpedanceAmplifier
from ..core.chgfe import ChgFeBlockConfig
from ..core.curfe import CurFeBlockConfig
from ..core.readout import ChgFeReadout, CurFeReadout
from ..obs.tracer import get_tracer

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import cycle)
    from ..core.macro import IMCMacro, IMCMacroConfig

__all__ = ["GroupArrays", "ArrayState", "CURFE_DESIGN", "CHGFE_DESIGN"]

#: Design identifiers (shared spelling with :mod:`repro.core.functional`).
CURFE_DESIGN = "curfe"
CHGFE_DESIGN = "chgfe"

_SUPPORTED_DESIGNS = (CURFE_DESIGN, CHGFE_DESIGN)

#: Columns per 4-bit group (H4B / L4B).
NUM_COLUMNS = 4


@dataclass
class GroupArrays:
    """Characterised cell contributions of one group type across the array.

    Attributes:
        signed: True for the H4B (2CM) groups, False for the L4B (N2CM).
        on: Contribution of a '1'-storing cell on a selected row, shape
            (banks, block_rows, rows, 4) — currents (A) for CurFe, ΔV (V)
            for ChgFe.
        off_selected: Contribution of a '0'-storing cell on a selected row.
        unselected: Contribution of a cell on an unselected row.
        feedback_resistance: TIA feedback resistance of this group (Ω);
            CurFe only.
        capacitance: Effective bitline capacitances, shape
            (banks, block_rows, 4); ChgFe only.
        capacitance_total: Per-group capacitance sums, shape
            (banks, block_rows); ChgFe only.
    """

    signed: bool
    on: np.ndarray
    off_selected: np.ndarray
    unselected: np.ndarray
    feedback_resistance: Optional[float] = None
    capacitance: Optional[np.ndarray] = None
    capacitance_total: Optional[np.ndarray] = None


def _characterise_group(design: str, vth_offsets, resistor_tolerances, signed, params):
    """Characterise (on, off_selected, unselected) for one group's cell tensor."""
    if design == CURFE_DESIGN:
        return characterise_curfe_group(
            vth_offsets, resistor_tolerances, signed=signed, params=params
        )
    return characterise_chgfe_group(vth_offsets, signed=signed, params=params)


#: Memoised variation-free characterisations, keyed by
#: (design, signed, cell_params).  The nominal tables are a pure function of
#: those three values, yet computing them runs the iterative cell solver —
#: the dominant cost of restoring a cached/shared state, where every tensor
#: is immediately replaced anyway.  Cell-parameter dataclasses are frozen,
#: so they hash.
_NOMINAL_GROUP_CACHE: dict = {}


def _nominal_group_tables(design: str, signed: bool, params):
    """One characterised nominal row (on, off_selected, unselected), memoised."""
    key = (design, signed, params)
    cached = _NOMINAL_GROUP_CACHE.get(key)
    if cached is None:
        zeros = np.zeros((1, NUM_COLUMNS))
        tables = []
        for table in _characterise_group(design, zeros, zeros, signed, params):
            table = np.asarray(table)
            table.flags.writeable = False
            tables.append(table)
        cached = _NOMINAL_GROUP_CACHE[key] = tuple(tables)
    return cached


def _draw_variation(
    design: str,
    variation,
    rng: np.random.Generator,
    banks: int,
    num_block_rows: int,
    rows: int,
):
    """Every block's variation, drawn from ``rng`` in macro-construction order.

    Macro construction draws block by block: bank, block row, then the high
    group before the low group.  A CurFe block draws a (Vth offset,
    resistor tolerance) pair per cell in row-major order, so the two
    streams interleave; a ChgFe block draws its four capacitor tolerances,
    then one Vth offset per cell.  A zero sigma consumes nothing.  Each
    bank's blocks come from one ``standard_normal`` call laid out as that
    sequence, each stream scaled by its sigma: the floats of the per-stream
    ``normal(0, sigma, n)`` draws, since ``0 + sigma * z`` is
    ``sigma * z``.  A bank at a time, into one array per group, and not the
    whole build in one call: freeing one build-sized block raises glibc's
    dynamic mmap threshold, after which later temporaries stay on the heap
    (+4.7% peak RSS over a wide_mlp ChgFe run).

    Returns ``{signed: (vth_offsets, tolerances)}``: resistor tolerances
    shaped like the offsets for CurFe, capacitor tolerances of shape
    ``(banks, num_block_rows, 4)`` for ChgFe.
    """
    cells = (rows, NUM_COLUMNS)
    if design == CURFE_DESIGN:
        record = cells  # one (Vth offset, tolerance) record per cell
        fields = [(variation.vth_sigma, ()), (variation.resistor_sigma, ())]
    else:
        record = ()  # one record per block
        fields = [(variation.capacitor_sigma, (NUM_COLUMNS,)), (variation.vth_sigma, cells)]
    sizes = [int(np.prod(shape)) if sigma > 0 else 0 for sigma, shape in fields]
    groups = [
        [np.zeros((banks, num_block_rows) + record + shape) for _, shape in fields]
        for _ in (True, False)
    ]
    for bank in range(banks):
        draws = rng.standard_normal((num_block_rows, 2) + record + (sum(sizes),))
        start = 0
        for field, ((sigma, _), size) in enumerate(zip(fields, sizes)):
            for group, arrays in enumerate(groups):
                if size:
                    out = arrays[field][bank]
                    stream = draws[:, group, ..., start : start + size]
                    np.multiply(stream.reshape(out.shape), sigma, out=out)
            start += size
    # A ChgFe record draws its tolerances before its offsets.
    return {
        signed: tuple(arrays if design == CURFE_DESIGN else arrays[::-1])
        for signed, arrays in zip((True, False), groups)
    }


class ArrayState:
    """Structure-of-arrays snapshot of a device-detailed macro array.

    Use :meth:`from_macro` or :meth:`build`; the constructor itself just
    records the assembled pieces.
    """

    def __init__(
        self,
        *,
        design: str,
        banks: int,
        block_rows: int,
        num_block_rows: int,
        cell_params,
        high: GroupArrays,
        low: GroupArrays,
        readout_high,
        readout_low,
        tia_virtual_ground: Optional[float] = None,
        tia_clamp_low: Optional[float] = None,
        tia_clamp_high: Optional[float] = None,
        precharge_voltage: Optional[float] = None,
        sign_supply_voltage: Optional[float] = None,
    ) -> None:
        if design not in _SUPPORTED_DESIGNS:
            raise ValueError(f"design must be one of {_SUPPORTED_DESIGNS}")
        self.design = design
        self.banks = int(banks)
        self.block_rows = int(block_rows)
        self.num_block_rows = int(num_block_rows)
        self.cell_params = cell_params
        self.high = high
        self.low = low
        self.readout_high = readout_high
        self.readout_low = readout_low
        self.tia_virtual_ground = tia_virtual_ground
        self.tia_clamp_low = tia_clamp_low
        self.tia_clamp_high = tia_clamp_high
        self.precharge_voltage = precharge_voltage
        self.sign_supply_voltage = sign_supply_voltage

    # ------------------------------------------------------------- properties

    @property
    def rows(self) -> int:
        """Total array rows served by the state."""
        return self.block_rows * self.num_block_rows

    def group(self, key: str) -> GroupArrays:
        """Access a group-type by name, ``"high"`` or ``"low"``."""
        if key == "high":
            return self.high
        if key == "low":
            return self.low
        raise KeyError(f"unknown group {key!r}")

    # ----------------------------------------------------------- constructors

    @classmethod
    def from_macro(cls, macro: "IMCMacro") -> "ArrayState":
        """Harvest the characterised tables of an existing macro.

        The resulting arrays are the exact floats cached inside the macro's
        blocks, so an engine built on this state reproduces the legacy
        per-device loop bit for bit — including every sampled variation
        draw.
        """
        design = macro.design_name.lower()
        if design not in _SUPPORTED_DESIGNS:
            raise ValueError(
                f"cannot build an ArrayState from design {macro.design_name!r}"
            )
        config = macro.config
        banks, num_block_rows = config.banks, config.num_block_rows
        rows = config.block_rows

        def harvest(signed: bool) -> GroupArrays:
            on = np.empty((banks, num_block_rows, rows, NUM_COLUMNS))
            off_sel = np.empty_like(on)
            unsel = np.empty_like(on)
            caps = (
                np.empty((banks, num_block_rows, NUM_COLUMNS))
                if design == CHGFE_DESIGN
                else None
            )
            for bank_index in range(banks):
                for block_row in range(num_block_rows):
                    bank = macro.bank(bank_index, block_row)
                    block = bank.high_block if signed else bank.low_block
                    tables = block.characterisation_tables()
                    on[bank_index, block_row] = tables[0]
                    off_sel[bank_index, block_row] = tables[1]
                    unsel[bank_index, block_row] = tables[2]
                    if caps is not None:
                        caps[bank_index, block_row] = block.bitline_capacitances()
            feedback = None
            if design == CURFE_DESIGN:
                feedback = macro.bank(0, 0)
                block = feedback.high_block if signed else feedback.low_block
                feedback = block.tia.params.feedback_resistance
            return GroupArrays(
                signed=signed,
                on=on,
                off_selected=off_sel,
                unselected=unsel,
                feedback_resistance=feedback,
                capacitance=caps,
                capacitance_total=None if caps is None else caps.sum(axis=-1),
            )

        high = harvest(signed=True)
        low = harvest(signed=False)
        first_high = macro.bank(0, 0).high_block
        first_low = macro.bank(0, 0).low_block
        kwargs = {}
        if design == CURFE_DESIGN:
            tia = first_high.tia
            kwargs = dict(
                tia_virtual_ground=tia.virtual_ground_voltage,
                tia_clamp_low=tia.params.output_swing_margin,
                tia_clamp_high=tia.params.supply_voltage
                - tia.params.output_swing_margin,
            )
        else:
            cp = macro.cell_params
            kwargs = dict(
                precharge_voltage=cp.precharge_voltage,
                sign_supply_voltage=cp.sign_supply_voltage,
            )
        return cls(
            design=design,
            banks=banks,
            block_rows=rows,
            num_block_rows=num_block_rows,
            cell_params=macro.cell_params,
            high=high,
            low=low,
            readout_high=first_high.readout,
            readout_low=first_low.readout,
            **kwargs,
        )

    @classmethod
    def build(
        cls,
        design: str,
        config: "IMCMacroConfig",
        *,
        cell_params=None,
        rng: Optional[np.random.Generator] = None,
    ) -> "ArrayState":
        """Sample an array state directly, without per-cell objects.

        Variation draws replicate macro construction order exactly (bank
        major, block row, high group then low group, row-major cells), so a
        state built with the same seeded generator as a macro holds
        identical arrays.  When ``config.variation`` is enabled and no
        generator is passed, ``default_rng(config.seed)`` is used — the same
        reproducibility semantics as :class:`~repro.core.macro.IMCMacro`.
        """
        if design not in _SUPPORTED_DESIGNS:
            raise ValueError(f"design must be one of {_SUPPORTED_DESIGNS}")
        if cell_params is None:
            cell_params = (
                CurFeCellParameters() if design == CURFE_DESIGN else ChgFeCellParameters()
            )
        variation = config.variation
        if variation.enabled and rng is None:
            rng = np.random.default_rng(config.seed)
        banks, num_block_rows = config.banks, config.num_block_rows
        rows = config.block_rows
        shape = (banks, num_block_rows, rows, NUM_COLUMNS)

        draw_needed = variation.enabled and rng is not None
        if draw_needed:
            draws = _draw_variation(design, variation, rng, banks, num_block_rows, rows)
        else:
            zero_caps = np.zeros((banks, num_block_rows, NUM_COLUMNS))
            draws = {signed: (None, zero_caps) for signed in (True, False)}

        def characterise(signed: bool) -> GroupArrays:
            offsets, tolerances = draws[signed]
            if draw_needed:
                on, off_sel, unsel = _characterise_group(
                    design, offsets, tolerances, signed, cell_params
                )
            else:
                # Variation-free arrays are identical per cell position:
                # characterise one row (memoised) and broadcast (read-only
                # views) — restoring a cached state costs no solver time.
                on, off_sel, unsel = (
                    np.broadcast_to(table, shape)
                    for table in _nominal_group_tables(design, signed, cell_params)
                )
            feedback = None
            caps = None
            caps_total = None
            if design == CURFE_DESIGN:
                feedback = CurFeBlockConfig(
                    rows=rows, signed=signed, cell_params=cell_params
                ).resolved_feedback_resistance
            else:
                caps = cell_params.bitline_capacitance * (1.0 + tolerances)
                caps_total = caps.sum(axis=-1)
            return GroupArrays(
                signed=signed,
                on=on,
                off_selected=off_sel,
                unselected=unsel,
                feedback_resistance=feedback,
                capacitance=caps,
                capacitance_total=caps_total,
            )

        cells = 2 * int(np.prod(shape))
        with get_tracer().span("characterise", design=design, cells=cells):
            high, low = characterise(signed=True), characterise(signed=False)
        kwargs = {}
        if design == CURFE_DESIGN:
            tia = TransimpedanceAmplifier(
                TIAParameters(
                    feedback_resistance=high.feedback_resistance,
                    common_mode_voltage=cell_params.common_mode_voltage,
                )
            )
            kwargs = dict(
                tia_virtual_ground=tia.virtual_ground_voltage,
                tia_clamp_low=tia.params.output_swing_margin,
                tia_clamp_high=tia.params.supply_voltage
                - tia.params.output_swing_margin,
            )
            readout_high = CurFeReadout(
                common_mode_voltage=cell_params.common_mode_voltage,
                unit_current=cell_params.nominal_unit_current(),
                feedback_resistance=high.feedback_resistance,
            )
            readout_low = CurFeReadout(
                common_mode_voltage=cell_params.common_mode_voltage,
                unit_current=cell_params.nominal_unit_current(),
                feedback_resistance=low.feedback_resistance,
            )
        else:
            kwargs = dict(
                precharge_voltage=cell_params.precharge_voltage,
                sign_supply_voltage=cell_params.sign_supply_voltage,
            )
            readout_high = readout_low = ChgFeReadout(
                precharge_voltage=cell_params.precharge_voltage,
                unit_delta_v=abs(cell_params.nominal_delta_v(0)),
                sharing_columns=NUM_COLUMNS,
            )
        return cls(
            design=design,
            banks=banks,
            block_rows=rows,
            num_block_rows=num_block_rows,
            cell_params=cell_params,
            high=high,
            low=low,
            readout_high=readout_high,
            readout_low=readout_low,
            **kwargs,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"ArrayState(design={self.design!r}, banks={self.banks}, "
            f"rows={self.rows}, block_rows={self.block_rows})"
        )
