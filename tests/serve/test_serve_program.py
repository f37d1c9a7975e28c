"""ChipProgram / WarmChip: build-once, replicate-bit-identically."""

import dataclasses
import pickle

import numpy as np
import pytest

from repro.obs.tracer import Tracer, set_tracer
from repro.serve import ChipProgram, ServeConfig, worker
from repro.system.inference import InferenceConfig, QuantizedInferenceEngine
from repro.system.nn import SmallCNN


class TestServeConfig:
    def test_defaults_validate(self):
        config = ServeConfig()
        assert config.inference_config().backend == "device"

    @pytest.mark.parametrize(
        "field, value",
        [
            ("backend", "analytic"),
            ("pool", "fork"),
            ("backpressure", "drop"),
            ("replicas", 0),
            ("max_batch", 0),
            ("max_wait_s", -0.1),
            ("queue_depth", 0),
            ("calibration_images", 0),
            ("service_delay_s", -1.0),
            ("adc_bits", None),
        ],
    )
    def test_invalid_values_raise(self, field, value):
        with pytest.raises(ValueError):
            ServeConfig(**{field: value})

    def test_inference_config_carries_design_point(self):
        config = ServeConfig(
            design="chgfe", input_bits=3, weight_bits=4, adc_bits=6, seed=9
        )
        inference = config.inference_config()
        assert inference.design == "chgfe"
        assert inference.input_bits == 3
        assert inference.weight_bits == 4
        assert inference.adc_bits == 6
        assert inference.seed == 9


class TestChipProgramBuild:
    def test_device_program_captures_all_layers(self, device_program):
        layers = set(device_program.model_arrays)
        assert layers == {"fc1", "fc2"}
        assert set(device_program.layer_arrays) == layers
        assert set(device_program.activation_scales) == layers
        # workload calibration programmed every layer's reference bank
        assert set(device_program.calibration_levels) == layers
        assert device_program.chip_latency_s > 0
        assert device_program.chip_energy_j > 0
        assert device_program.build_seconds > 0

    def test_functional_program_has_no_cell_state(self, functional_program):
        assert functional_program.layer_arrays is None
        assert functional_program.calibration_levels == {}
        assert set(functional_program.activation_scales) == {"fc1", "fc2"}
        assert functional_program.chip_latency_s > 0

    def test_program_is_picklable(self, device_program):
        import pickle

        clone = pickle.loads(pickle.dumps(device_program))
        assert set(clone.layer_arrays) == set(device_program.layer_arrays)
        np.testing.assert_array_equal(
            clone.calibration_images, device_program.calibration_images
        )


class TestInstantiate:
    def test_replicas_are_bit_identical(self, device_program, request_images):
        first = device_program.instantiate()
        second = device_program.instantiate()
        np.testing.assert_array_equal(
            first.predict(request_images), second.predict(request_images)
        )

    def test_replica_matches_builder_calibration(self, device_program):
        chip = device_program.instantiate()
        levels = chip.engine.calibration_levels()
        assert set(levels) == set(device_program.calibration_levels)
        for layer, groups in device_program.calibration_levels.items():
            for group, values in groups.items():
                np.testing.assert_array_equal(levels[layer][group], values)
        assert chip.engine.activation_scales() == device_program.activation_scales

    def test_predict_independent_of_batch_size(self, device_program, request_images):
        chip = device_program.instantiate()
        whole = chip.predict(request_images)
        np.testing.assert_array_equal(
            whole, chip.predict(request_images, batch_size=1)
        )
        np.testing.assert_array_equal(
            whole, chip.predict(request_images, batch_size=5)
        )

    def test_warm_up_request_can_be_skipped(self, device_program, request_images):
        """The warm-up is the only kernel work a replica's stamping does."""
        chips = {}
        for warm_up in (True, False):
            tracer = Tracer()
            previous = set_tracer(tracer)
            try:
                chips[warm_up] = device_program.instantiate(warm_up=warm_up)
            finally:
                set_tracer(previous)
            names = {span["name"] for span in tracer.spans()}
            assert "program.instantiate" in names
            assert ("kernel" in names) == warm_up
        np.testing.assert_array_equal(
            chips[False].predict(request_images), chips[True].predict(request_images)
        )

    def test_process_worker_skips_the_warm_up(self, device_program, monkeypatch):
        calls = []
        instantiate = ChipProgram.instantiate

        def recording(program, **kwargs):
            calls.append(kwargs)
            return instantiate(program, **kwargs)

        monkeypatch.setattr(ChipProgram, "instantiate", recording)
        # The initializer sets process globals and a quiet tracer: keep both
        # to this test.
        for name in ("_PROCESS_WORKER", "_PROCESS_ARENA", "_PROCESS_INFO"):
            monkeypatch.setattr(worker, name, None)
        monkeypatch.setattr(worker, "set_tracer", lambda tracer: None)
        worker._init_process_worker(pickle.dumps(device_program), "pickle", 0.0)
        assert calls == [{"warm_up": False}]
        assert worker._PROCESS_INFO["transport"] == "pickle"

    def test_functional_replica_matches_builder(
        self, functional_program, request_images
    ):
        first = functional_program.instantiate()
        second = functional_program.instantiate()
        np.testing.assert_array_equal(
            first.predict(request_images), second.predict(request_images)
        )
        assert first.simulator is None
        with pytest.raises(ValueError, match="device backend"):
            first.run(request_images)

    def test_validate_request_rejects_wrong_shape(self, device_program):
        with pytest.raises(ValueError, match="input shape"):
            device_program.validate_request(np.zeros((2, 2)))

    def test_explicit_model_skips_scenario_build(self):
        model = SmallCNN(seed=3)
        config = ServeConfig(scenario="small_cnn", calibration_images=4)
        program = ChipProgram.build(config, model=model)
        chip = program.instantiate()
        rng = np.random.default_rng(0)
        images = rng.random((3, *model.input_shape))
        np.testing.assert_array_equal(
            chip.predict(images), chip.predict(images, batch_size=1)
        )


class TestFrozenActivationScales:
    def test_freeze_before_forward_raises(self):
        engine = QuantizedInferenceEngine(
            SmallCNN(seed=0), InferenceConfig(backend="functional")
        )
        with pytest.raises(RuntimeError, match="calibration batch"):
            engine.freeze_activation_scales()

    def test_apply_validates_layer_names_and_values(self):
        engine = QuantizedInferenceEngine(
            SmallCNN(seed=0), InferenceConfig(backend="functional")
        )
        with pytest.raises(KeyError):
            engine.apply_activation_scales({"nope": 1.0})
        with pytest.raises(ValueError):
            engine.apply_activation_scales({"fc1": 0.0})

    def test_frozen_scales_decouple_batches(self, rng):
        model = SmallCNN(seed=0)
        images = rng.random((6, *model.input_shape))
        frozen = QuantizedInferenceEngine(
            model, InferenceConfig(backend="functional")
        )
        frozen.freeze_activation_scales(images)
        whole = frozen.predict(images, batch_size=6)
        split = frozen.predict(images, batch_size=2)
        np.testing.assert_array_equal(whole, split)
        assert set(frozen.activation_scales()) == set(model.weight_layers())
