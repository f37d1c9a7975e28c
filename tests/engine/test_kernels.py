"""The three fixed kernels: one validation point, one table cache.

Covers ``device_exec`` validation (the ValueError that lists the kernels
on a typo, at every config surface), the one default, the bucketed-LUT
calibrated search (exact ``searchsorted`` equality, the property the fused
kernel's calibrated bit-identity rests on), and the kernel-table cache:
precompile, invalidation and the exported-plan round trip.
"""

import inspect

import numpy as np
import pytest

from repro.chipsim import ChipSimulator, TiledLayerEngine
from repro.chipsim.scenarios import get_scenario
from repro.circuits.adc import CalibratedMACQuantizer
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


class TestCalibratedLut:
    def _quantizer(self, seed, num_levels=31):
        rng = np.random.default_rng(seed)
        levels = np.unique(rng.normal(0.0, 40.0, size=num_levels).round(3))
        slope = 0.001 if seed % 2 == 0 else -0.001
        return CalibratedMACQuantizer(
            levels, nominal_voltage_for_mac=lambda mac: 0.45 + slope * mac
        )

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_lut_equals_searchsorted(self, seed):
        quantizer = self._quantizer(seed)
        lut = kernels._calibrated_lut(quantizer)
        assert lut is not None
        start, steps, tmin, scale, ext = lut
        rng = np.random.default_rng(100 + seed)
        thresholds = quantizer._thresholds
        # Dense probes, exact threshold hits, and out-of-range values.
        probes = np.concatenate([
            rng.uniform(thresholds[0] - 1.0, thresholds[-1] + 1.0, size=4096),
            thresholds,
            np.nextafter(thresholds, -np.inf),
            np.nextafter(thresholds, np.inf),
        ])
        expected = np.searchsorted(thresholds, probes)
        cells = np.clip(((probes - tmin) * scale).astype(np.int64), 0,
                        start.size - 1)
        indices = start[cells]
        for _ in range(steps):
            indices += ext[indices] < probes
        np.testing.assert_array_equal(indices, expected)

    def test_degenerate_levels_fall_back(self):
        quantizer = CalibratedMACQuantizer(
            np.array([3.0]), nominal_voltage_for_mac=lambda mac: 0.5
        )
        assert kernels._calibrated_lut(quantizer) is None

    def test_quantize_macs_inplace_matches_quantizer(self):
        quantizer = self._quantizer(7)
        rng = np.random.default_rng(7)
        buf = rng.uniform(0.0, 1.0, size=257)
        expected = quantizer.quantize_voltages(buf)
        kernels._quantize_macs_inplace(quantizer, buf)
        np.testing.assert_array_equal(buf, expected)


class TestPrecompiledPlanInvalidation:
    """Cache-invalidation audit of the ahead-of-time compiled kernel plans.

    Every mutator that changes what a kernel computes must drop or rebuild
    the precompiled operand tables and the calibrated-search LUT:
    ``program_weights`` invalidates everything, ``apply_reference_levels``
    swaps in fresh quantisers (hence fresh LUTs), ``clear_calibration``
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
        engine.precompile("fused")
        assert set(engine._tables) == {
            (kernel, key) for kernel in ("fast", "fused") for key in ("high", "low")
        }
        for quantizer in engine._calibrated.values():
            assert kernels._LUT_ATTR in quantizer.__dict__

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
        assert all(kernels._LUT_ATTR in q.__dict__ for q in old.values())
        shifted = {k: v + 1.0 for k, v in engine.reference_levels.items()}
        engine.apply_reference_levels(shifted)
        for key, quantizer in engine._calibrated.items():
            assert quantizer is not old[key]
            assert kernels._LUT_ATTR not in quantizer.__dict__
        engine.precompile("fused")
        # The rebuilt LUT must reproduce searchsorted semantics: fused
        # (LUT path) equals fast (direct quantiser path) bit for bit.
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

