"""The three fixed kernels: one validation point, one table cache.

Covers ``device_exec`` validation (the ValueError that lists the kernels
on a typo, at every config surface), the one default, the two ADC
conversions of the fused kernel (the calibrated direct-level table equals
``quantize_voltages`` exactly, the property the fused kernel's calibrated
bit-identity rests on; the nominal converter equals its quantiser), and the
kernel-table cache: precompile, invalidation and the exported-plan round
trip.
"""

import inspect

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.chipsim import ChipSimulator, TiledLayerEngine
from repro.chipsim.scenarios import get_scenario
from repro.circuits.adc import (
    ADCParameters,
    CalibratedMACQuantizer,
    MACQuantizer,
    SARADC,
)
from repro.circuits.tia import TIAParameters
from repro.core.macro import IMCMacroConfig
from repro.devices.variation import DEFAULT_VARIATION, NO_VARIATION
from repro.engine import kernels
from repro.engine.array_state import ArrayState
from repro.engine.kernels import (
    DEFAULT_DEVICE_EXEC,
    KERNEL_TABLES,
    validate_device_exec,
)
from repro.engine.macro_engine import _KERNEL_DISPATCHES, MacroEngine
from repro.obs.tracer import Tracer, set_tracer
from repro.serve import SERVE_SCHEMA, ServeConfig
from repro.sweep.spec import SWEEP_SCHEMA, SweepSpec
from repro.system.inference import INFERENCE_SCHEMA, InferenceConfig


def build_engine(weights, *, design="curfe", seed=0):
    rows, cols = weights.shape
    config = IMCMacroConfig(
        rows=rows, banks=cols, block_rows=32, adc_bits=5, weight_bits=8,
        variation=DEFAULT_VARIATION, seed=seed,
    )
    engine = MacroEngine(ArrayState.build(design, config), adc_bits=5, weight_bits=8)
    engine.program_weights(weights)
    return engine


class TestValidation:
    def test_three_kernels(self):
        # The table names are the keys of exported kernel plans, which
        # serving programs and shared-memory arenas carry.
        assert KERNEL_TABLES == {
            "exact": ("selected",),
            "fast": ("difference", "unselected_sum"),
            "fused": ("table", "offsets"),
        }
        with pytest.raises(ValueError, match="unknown device_exec"):
            validate_device_exec("turbo")

    @pytest.mark.parametrize(
        "config_cls, fields",
        [
            (InferenceConfig, {"backend": "device", "device_exec": "turbo"}),
            (ServeConfig, {"device_exec": "turbo"}),
            (SweepSpec, {"scenarios": ("tiny_mlp",), "device_execs": ("turbo",)}),
        ],
        ids=["inference", "serve", "sweep"],
    )
    def test_configs_naming_the_deleted_kernel_are_refused(
        self, config_cls, fields
    ):
        """A config written for the deleted ``turbo`` kernel fails where it
        enters, built directly or loaded from a document, and the error
        names the kernels that remain."""
        with pytest.raises(ValueError, match="unknown device_exec"):
            config_cls(**fields)
        with pytest.raises(ValueError, match="unknown device_exec"):
            config_cls.from_dict(fields)

    @pytest.mark.parametrize(
        "surface",
        [
            "matmat", "matmat_blocks", "precompile", "export_kernel_plan",
            "apply_kernel_plan", "tiled_matmat", "chip_simulator",
        ],
    )
    def test_engine_surfaces_refuse_unknown_kernels(self, surface):
        """Every engine entry point that takes a kernel name refuses one
        outside the three with the same error, before it builds a table."""
        rng = np.random.default_rng(6)
        weights = rng.integers(-128, 128, size=(64, 4))
        engine = build_engine(weights)
        tiled = TiledLayerEngine(weights, design="curfe", variation=NO_VARIATION)
        inputs = rng.integers(0, 16, size=(64, 3))
        calls = {
            "matmat": lambda: engine.matmat(inputs, bits=4, method="turbo"),
            "matmat_blocks": lambda: engine.matmat_blocks(
                inputs, bits=4, method="turbo"
            ),
            "precompile": lambda: engine.precompile("turbo"),
            "export_kernel_plan": lambda: engine.export_kernel_plan("turbo"),
            "apply_kernel_plan": lambda: engine.apply_kernel_plan("turbo", {}),
            "tiled_matmat": lambda: tiled.matmat(inputs, bits=4, method="turbo"),
            "chip_simulator": lambda: ChipSimulator(
                get_scenario("tiny_mlp").build(seed=0), device_exec="turbo"
            ),
        }
        with pytest.raises(ValueError, match="unknown device_exec") as excinfo:
            calls[surface]()
        for name in ("exact", "fast", "fused"):
            assert name in str(excinfo.value)
        assert not engine._tables
        assert not tiled.engine._tables

    def test_unknown_kernel_lists_the_kernels(self):
        with pytest.raises(ValueError) as excinfo:
            validate_device_exec("tubro")
        message = str(excinfo.value)
        assert "tubro" in message
        for name in ("exact", "fast", "fused"):
            assert name in message

    @pytest.mark.parametrize("value", [["fast"], {"fast": 1}, 3])
    def test_non_string_names_are_refused(self, value):
        """A config document's list or mapping is refused with the same
        error as a misspelt name, not a TypeError."""
        with pytest.raises(ValueError, match="unknown device_exec"):
            InferenceConfig.from_dict({"backend": "device", "device_exec": value})

    def test_validate_device_exec_round_trips(self):
        assert validate_device_exec("fused") == "fused"
        with pytest.raises(ValueError, match="unknown device_exec"):
            validate_device_exec("nope")

    def test_inference_config_validates_the_kernel(self):
        with pytest.raises(ValueError, match="unknown device_exec"):
            InferenceConfig(backend="device", device_exec="trubo")


class TestDefaultKernel:
    def test_every_entry_point_defaults_to_fused(self):
        assert DEFAULT_DEVICE_EXEC == "fused"
        assert InferenceConfig().device_exec == DEFAULT_DEVICE_EXEC
        assert ServeConfig().device_exec == DEFAULT_DEVICE_EXEC
        spec = SweepSpec(scenarios=("tiny_mlp",), backends=("device", "functional"))
        assert spec.device_execs == (DEFAULT_DEVICE_EXEC,)
        # Functional jobs collapse the kernel axis onto the default too.
        assert {job.config["device_exec"] for job in spec.expand()} == {
            DEFAULT_DEVICE_EXEC
        }
        for schema, field, default in (
            (INFERENCE_SCHEMA, "device_exec", DEFAULT_DEVICE_EXEC),
            (SERVE_SCHEMA, "device_exec", DEFAULT_DEVICE_EXEC),
            (SWEEP_SCHEMA, "device_execs", (DEFAULT_DEVICE_EXEC,)),
        ):
            assert schema.describe()[field]["default"] == default, schema.name
        model = get_scenario("tiny_mlp").build(seed=0)
        simulator = ChipSimulator(model, variation=NO_VARIATION)
        assert simulator.config.device_exec == DEFAULT_DEVICE_EXEC
        matmat = inspect.signature(TiledLayerEngine.matmat)
        assert matmat.parameters["method"].default == DEFAULT_DEVICE_EXEC


class TestDispatchLabels:
    @pytest.mark.parametrize(
        "device_exec, level",
        [("exact", "plane"), ("fast", "plane"), ("fused", "layer")],
    )
    def test_spans_and_counter_name_kernel_and_level(self, device_exec, level):
        rng = np.random.default_rng(5)
        tiled = TiledLayerEngine(
            rng.integers(-128, 128, size=(40, 6)), design="curfe",
            variation=NO_VARIATION,
        )
        before = _KERNEL_DISPATCHES.value(kernel=device_exec, level=level)
        tracer = Tracer()
        previous = set_tracer(tracer)
        try:
            tiled.matmat(rng.integers(0, 16, size=(40, 3)), bits=4, method=device_exec)
        finally:
            set_tracer(previous)
        assert _KERNEL_DISPATCHES.value(kernel=device_exec, level=level) == before + 1
        spans = [s for s in tracer.spans() if s["name"] in ("tiled_layer", "kernel")]
        assert sorted(s["name"] for s in spans) == ["kernel", "tiled_layer"]
        for span in spans:
            assert (span["attrs"]["kernel"], span["attrs"]["level"]) == (
                device_exec, level
            )


@st.composite
def level_sets(draw):
    """MAC-domain level sets with the shapes that stress a voltage grid.

    2-64 levels with duplicates, optionally a cluster a few float spacings
    apart in voltage and one far outlier, on a linear transfer of either
    slope sign.
    """
    slope = draw(st.sampled_from([1e-3, -1e-3, 3.7e-5, -2.5e-3]))
    offset = draw(st.floats(0.05, 0.95))
    levels = draw(st.lists(st.floats(-300.0, 300.0), min_size=2, max_size=43))
    levels += draw(st.lists(st.sampled_from(levels), max_size=8))
    if draw(st.booleans()):
        # A cluster: levels whose voltages sit a few float spacings apart.
        center = draw(st.sampled_from(levels))
        step = np.spacing(offset + slope * center) / abs(slope)
        levels += [
            center + ulps * step
            for ulps in draw(st.lists(st.integers(-6, 6), min_size=1, max_size=12))
        ]
    if draw(st.booleans()):
        levels.append(draw(st.sampled_from([-1.0, 1.0])) * 2e5)
    return CalibratedMACQuantizer(
        np.array(levels), nominal_voltage_for_mac=lambda mac: offset + slope * mac
    )


def table_probes(quantizer, seed):
    """Voltages where a table conversion could go wrong."""
    table = quantizer.level_table()
    thresholds = quantizer._thresholds
    rng = np.random.default_rng(seed)
    cells = np.arange(table.levels.size + 1)
    edges = table.base + cells / table.scale if table.scale else np.array([])
    spread = np.concatenate([thresholds, [table.base]])
    clamp = TIAParameters()
    exact = np.concatenate([
        thresholds,
        edges,
        [clamp.output_swing_margin, clamp.supply_voltage - clamp.output_swing_margin],
        # Far outside the span, but inside the table's 2**14 V domain.
        spread.min() - np.array([1.0, 1e3, 1e4]),
        spread.max() + np.array([1.0, 1e3, 1e4]),
        rng.uniform(spread.min() - 0.1, spread.max() + 0.1, size=1024),
    ])
    return np.concatenate([
        exact, np.nextafter(exact, -np.inf), np.nextafter(exact, np.inf)
    ])


class TestFusedConversions:
    @settings(max_examples=60, deadline=None)
    @given(quantizer=level_sets(), seed=st.integers(0, 2**16))
    @example(  # one level
        quantizer=CalibratedMACQuantizer(
            np.array([4.0, 4.0]), nominal_voltage_for_mac=lambda mac: 0.5
        ),
        seed=0,
    )
    @example(  # two levels on one voltage: a single threshold, zero span
        quantizer=CalibratedMACQuantizer(
            np.array([1.0, 2.0]), nominal_voltage_for_mac=lambda mac: 0.5
        ),
        seed=0,
    )
    def test_table_conversion_equals_quantize_voltages(self, quantizer, seed):
        """The fused kernel's calibrated conversion — one gather through
        the direct-level table, NaN cells converted exactly — equals the
        quantiser's own ``searchsorted`` conversion on every probe: the
        thresholds, grid-cell edges, TIA clamp bounds, voltages far outside
        the span, and the float neighbours of each."""
        probes = table_probes(quantizer, seed)
        out, cell = np.empty_like(probes), np.empty(probes.shape, dtype=np.int64)
        quantizer.quantize_voltages_into(probes, out, cell)
        np.testing.assert_array_equal(out, quantizer.quantize_voltages(probes))
        table = quantizer.level_table()
        assert table.levels.size in (1, 8192)
        if table.scale:
            # Rule 3: a cell spans at least 16 float spacings of the grid.
            top = table.base + table.levels.size / table.scale
            widest = max(abs(table.base), abs(top), 1.0)
            assert 1.0 / table.scale >= 16 * np.spacing(widest)

    def test_table_is_built_once_in_its_own_span(self):
        quantizer = CalibratedMACQuantizer(
            np.arange(-15.0, 17.0),
            nominal_voltage_for_mac=lambda mac: 0.5 + 1e-3 * mac,
        )
        tracer = Tracer()
        previous = set_tracer(tracer)
        try:
            table = quantizer.level_table()
            assert quantizer.level_table() is table
        finally:
            set_tracer(previous)
        (span,) = tracer.spans()
        assert span["name"] == "level_table"
        assert span["attrs"] == {"levels": 32, "cells": 8192}

    def test_nominal_conversion_matches_quantizer(self):
        """The nominal converter runs ``MACQuantizer.quantize_voltages``'s
        float operations in place, so it equals the quantiser exactly —
        including voltages outside the ADC range and on code midpoints."""
        adc = SARADC(ADCParameters(), offset_voltage=0.003)
        quantizer = MACQuantizer(adc, mac_at_v_min=-120.0, mac_at_v_max=105.0)
        rng = np.random.default_rng(7)
        lsb = adc.params.lsb_voltage
        midpoints = adc.params.v_min + (np.arange(32) + 0.5) * lsb - 0.003
        buf = np.concatenate([rng.uniform(-0.2, 1.2, size=257), midpoints])
        expected = quantizer.quantize_voltages(buf)
        kernels._quantize_macs_inplace(quantizer, buf)
        np.testing.assert_array_equal(buf, expected)


class TestPrecompiledPlanInvalidation:
    """Cache-invalidation audit of the ahead-of-time compiled kernel plans.

    Every mutator that changes what a kernel computes must drop or rebuild
    the precompiled operand tables and the calibrated direct-level tables:
    ``program_weights`` invalidates everything, ``apply_reference_levels``
    swaps in fresh quantisers (hence fresh tables), ``clear_calibration``
    reverts conversion to the nominal grid.  The pattern-derived fused and
    plane tables legitimately survive calibration changes — they depend
    only on the programmed cell state.
    """

    def _calibrated_engine(self, seed=3):
        rng = np.random.default_rng(seed)
        weights = rng.integers(-128, 128, size=(64, 8))
        engine = build_engine(weights)
        engine.calibrate_references(rng.integers(0, 16, size=(64, 12)), bits=4)
        return engine, weights, rng

    def test_precompile_materialises_all_tables(self):
        engine, _, _ = self._calibrated_engine()
        assert not engine._tables
        engine.precompile("fast")
        assert set(engine._tables) == {("fast", key) for key in ("high", "low")}
        # Plane kernels convert through quantize_voltages: no level table.
        for quantizer in engine._calibrated.values():
            assert quantizer._level_table is None
        engine.precompile("fused")
        assert set(engine._tables) == {
            (kernel, key) for kernel in ("fast", "fused") for key in ("high", "low")
        }
        for quantizer in engine._calibrated.values():
            assert quantizer._level_table is not None

    def test_program_weights_invalidates_precompiled_state(self):
        engine, _, rng = self._calibrated_engine()
        engine.precompile("fast")
        engine.precompile("fused")
        new_weights = rng.integers(-128, 128, size=(64, 8))
        engine.program_weights(new_weights)
        assert not engine._tables
        assert not engine._calibrated
        # And the invalidated engine computes exactly what a never-
        # precompiled engine programmed with the new weights computes.
        fresh = build_engine(new_weights)
        inputs = rng.integers(0, 16, size=(64, 5))
        for method in ("fast", "fused"):
            assert np.array_equal(
                engine.matmat(inputs, bits=4, method=method),
                fresh.matmat(inputs, bits=4, method=method),
            )

    def test_apply_reference_levels_swaps_in_fresh_luts(self):
        engine, _, rng = self._calibrated_engine()
        engine.precompile("fused")
        old = dict(engine._calibrated)
        assert all(q._level_table is not None for q in old.values())
        shifted = {k: v + 1.0 for k, v in engine.reference_levels.items()}
        engine.apply_reference_levels(shifted)
        for key, quantizer in engine._calibrated.items():
            assert quantizer is not old[key]
            assert quantizer._level_table is None
        engine.precompile("fused")
        # The rebuilt table must reproduce searchsorted semantics: fused
        # (table path) equals fast (direct quantiser path) bit for bit.
        inputs = rng.integers(0, 16, size=(64, 5))
        assert np.array_equal(
            engine.matmat(inputs, bits=4, method="fused"),
            engine.matmat(inputs, bits=4, method="fast"),
        )

    def test_clear_calibration_reverts_to_nominal(self):
        engine, weights, rng = self._calibrated_engine()
        engine.precompile("fast")
        inputs = rng.integers(0, 16, size=(64, 5))
        engine.clear_calibration()
        assert not engine._calibrated
        nominal = build_engine(weights)
        for method in ("fast", "fused"):
            assert np.array_equal(
                engine.matmat(inputs, bits=4, method=method),
                nominal.matmat(inputs, bits=4, method=method),
            )

    @pytest.mark.parametrize("device_exec", ["exact", "fast", "fused"])
    def test_kernel_plan_round_trip_is_bit_identical(self, device_exec):
        engine, weights, rng = self._calibrated_engine()
        plan = engine.export_kernel_plan(device_exec)
        assert list(plan) == [
            f"{group}_{name}"
            for group in ("high", "low")
            for name in KERNEL_TABLES[device_exec]
        ]
        # Emulate shared-memory transport: the applied arrays are
        # read-only foreign buffers, adopted without copies.
        frozen = {}
        for key, value in plan.items():
            array = np.asarray(value).copy()
            array.flags.writeable = False
            frozen[key] = array
        target = build_engine(weights)
        target.apply_reference_levels(engine.reference_levels)
        target.apply_kernel_plan(device_exec, frozen)
        # Adopted as-is: the target computes on the very arrays it was given.
        reexported = target.export_kernel_plan(device_exec)
        assert all(reexported[key] is frozen[key] for key in frozen)
        inputs = rng.integers(0, 16, size=(64, 5))
        assert np.array_equal(
            target.matmat(inputs, bits=4, method=device_exec),
            engine.matmat(inputs, bits=4, method=device_exec),
        )

