"""The kernel-dispatch registry: one validation point, pluggable backends.

Covers the registry API (lookup, registration, replacement, the ValueError
that lists registered kernels on a typo), dispatch of a custom plane
kernel through ``MacroEngine.matmat``, the bucketed-LUT calibrated search
(exact ``searchsorted`` equality, the property the fused kernel's
calibrated bit-identity rests on).
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
    Kernel,
    get_kernel,
    register_kernel,
    registered_kernels,
    unregister_kernel,
    validate_device_exec,
)
from repro.engine.macro_engine import MacroEngine
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


class TestRegistry:
    def test_builtin_kernels_registered(self):
        assert registered_kernels() == ("exact", "fast", "fused")
        with pytest.raises(ValueError, match="registered kernels"):
            get_kernel("turbo")

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
        with pytest.raises(ValueError, match="registered kernels"):
            config_cls(**fields)
        with pytest.raises(ValueError, match="registered kernels"):
            config_cls.from_dict(fields)

    def test_get_kernel_levels(self):
        assert get_kernel("exact").level == "plane"
        assert get_kernel("fast").level == "plane"
        assert get_kernel("fused").level == "layer"

    def test_unknown_kernel_lists_registered_names(self):
        with pytest.raises(ValueError) as excinfo:
            get_kernel("tubro")
        message = str(excinfo.value)
        assert "tubro" in message
        for name in registered_kernels():
            assert name in message

    def test_validate_device_exec_round_trips(self):
        assert validate_device_exec("fused") == "fused"
        with pytest.raises(ValueError, match="registered kernels"):
            validate_device_exec("nope")

    def test_inference_config_validates_through_registry(self):
        with pytest.raises(ValueError, match="registered kernels"):
            InferenceConfig(backend="device", device_exec="trubo")

    def test_duplicate_registration_requires_replace(self):
        kernel = get_kernel("fast")
        with pytest.raises(ValueError, match="already registered"):
            register_kernel(kernel)
        assert register_kernel(kernel, replace=True) is kernel

    def test_unregister_unknown_raises(self):
        with pytest.raises(ValueError, match="not registered"):
            unregister_kernel("missing")

    def test_kernel_shape_validation(self):
        with pytest.raises(ValueError, match="plane kernel"):
            Kernel(name="bad", level="plane", description="no fn")
        with pytest.raises(ValueError, match="layer kernel"):
            Kernel(name="bad", level="layer", description="no fn")
        with pytest.raises(ValueError, match="level"):
            Kernel(name="bad", level="block", description="x",
                   reduce_plane=lambda *a: None)


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


class TestCustomKernelDispatch:
    def test_registered_plane_kernel_is_dispatched(self):
        """A plugged-in kernel reusing the fast reduction must produce
        fast-identical output through the standard matmat entry point."""
        fast = get_kernel("fast")
        custom = Kernel(
            name="fast_alias", level="plane",
            description="test alias of fast",
            reduce_plane=fast.reduce_plane,
        )
        register_kernel(custom)
        try:
            rng = np.random.default_rng(21)
            weights = rng.integers(-128, 128, size=(64, 8))
            engine = build_engine(weights)
            inputs = rng.integers(0, 16, size=(64, 5))
            assert np.array_equal(
                engine.matmat(inputs, bits=4, method="fast_alias"),
                engine.matmat(inputs, bits=4, method="fast"),
            )
        finally:
            unregister_kernel("fast_alias")
        with pytest.raises(ValueError, match="registered kernels"):
            engine.matmat(inputs, bits=4, method="fast_alias")


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
        assert not engine._plane_tables and not engine._fused_tables
        engine.precompile("fast")
        assert set(engine._plane_tables) == set(engine._group_keys())
        engine.precompile("fused")
        assert set(engine._fused_tables) == set(engine._group_keys())
        for quantizer in engine._calibrated.values():
            assert kernels._LUT_ATTR in quantizer.__dict__

    def test_program_weights_invalidates_precompiled_state(self):
        engine, _, rng = self._calibrated_engine()
        engine.precompile("fast")
        engine.precompile("fused")
        new_weights = rng.integers(-128, 128, size=(64, 8))
        engine.program_weights(new_weights)
        assert not engine._plane_tables
        assert not engine._fused_tables
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
        inputs = rng.integers(0, 16, size=(64, 5))
        assert np.array_equal(
            target.matmat(inputs, bits=4, method=device_exec),
            engine.matmat(inputs, bits=4, method=device_exec),
        )

