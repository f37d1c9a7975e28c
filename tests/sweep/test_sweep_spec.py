"""Grid expansion and serialisation round trips of the sweep spec."""

import numpy as np
import pytest

from repro.devices.variation import VariationModel
from repro.geometry import MacroGeometry
from repro.sweep import SweepJob, SweepSpec
from repro.system.inference import InferenceConfig


class TestInferenceConfigRoundTrip:
    def test_default_config_round_trips(self):
        config = InferenceConfig()
        assert InferenceConfig.from_dict(config.to_dict()) == config

    def test_custom_geometry_variation_round_trip(self):
        config = InferenceConfig(
            design="chgfe",
            backend="device",
            device_exec="fast",
            input_bits=6,
            weight_bits=4,
            adc_bits=6,
            geometry=MacroGeometry(rows=64, weight_columns=8, block_rows=16),
            variation=VariationModel(vth_sigma=0.02, enabled=True),
            seed=7,
            calibration="nominal",
            calibration_samples=128,
        )
        rebuilt = InferenceConfig.from_dict(config.to_dict())
        assert rebuilt == config
        assert rebuilt.geometry.block_rows == 16

    def test_payload_is_json_compatible(self):
        import json

        payload = InferenceConfig().to_dict()
        assert json.loads(json.dumps(payload)) == payload

    def test_unknown_keys_raise(self):
        payload = InferenceConfig().to_dict()
        payload["surprise"] = 1
        with pytest.raises(ValueError, match="surprise"):
            InferenceConfig.from_dict(payload)


class TestSweepSpecExpansion:
    def test_full_device_grid_size(self):
        spec = SweepSpec(
            scenarios=("tiny_mlp", "small_cnn"),
            designs=("curfe", "chgfe"),
            adc_bits=(4, 5),
            calibrations=("workload", "nominal"),
        )
        jobs = spec.expand()
        assert len(jobs) == 16
        assert len({job.job_id for job in jobs}) == 16

    def test_job_id_segments(self):
        spec = SweepSpec(scenarios=("tiny_mlp",), device_execs=("fused",))
        assert [job.job_id for job in spec.expand()] == [
            "tiny_mlp:device:curfe:x4w8:adc5:workload:fused"
        ]

    def test_expansion_is_deterministic(self):
        spec = SweepSpec(scenarios=("tiny_mlp",), adc_bits=(4, 5))
        assert [j.job_id for j in spec.expand()] == [
            j.job_id for j in spec.expand()
        ]

    def test_functional_backend_collapses_device_axes(self):
        spec = SweepSpec(
            scenarios=("tiny_mlp",),
            backends=("functional",),
            device_execs=("exact", "fast", "fused"),
        )
        jobs = spec.expand()
        assert len(jobs) == 1  # device_exec does not multiply

    def test_analytic_backend_collapses_calibration(self):
        spec = SweepSpec(
            scenarios=("resnet18_cifar10",),
            backends=("analytic",),
            calibrations=("workload", "nominal"),
        )
        assert len(spec.expand()) == 1

    def test_spec_only_scenario_skips_inference_backends(self):
        spec = SweepSpec(
            scenarios=("resnet18_cifar10", "tiny_mlp"),
            backends=("device", "analytic"),
        )
        jobs = spec.expand()
        by_scenario = {}
        for job in jobs:
            by_scenario.setdefault(job.scenario, []).append(job.backend)
        assert by_scenario["resnet18_cifar10"] == ["analytic"]
        assert sorted(by_scenario["tiny_mlp"]) == ["analytic", "device"]

    def test_spec_only_scenario_without_analytic_raises(self):
        spec = SweepSpec(scenarios=("resnet18_cifar10",), backends=("device",))
        with pytest.raises(ValueError, match="zero jobs"):
            spec.expand()

    def test_unknown_scenario_raises_with_names(self):
        spec = SweepSpec(scenarios=("no_such_scenario",))
        with pytest.raises(KeyError, match="no_such_scenario"):
            spec.expand()

    def test_empty_axis_raises(self):
        with pytest.raises(ValueError, match="designs"):
            SweepSpec(scenarios=("tiny_mlp",), designs=())

    def test_bad_backend_raises(self):
        with pytest.raises(ValueError, match="backend"):
            SweepSpec(scenarios=("tiny_mlp",), backends=("quantum",))

    def test_data_seed_shared_across_jobs_of_a_scenario(self):
        spec = SweepSpec(scenarios=("tiny_mlp",), adc_bits=(4, 5))
        seeds = {job.data_seed for job in spec.expand()}
        assert len(seeds) == 1

    def test_data_seed_differs_between_scenarios(self):
        spec = SweepSpec(scenarios=("tiny_mlp", "small_cnn"))
        seeds = {job.scenario: job.data_seed for job in spec.expand()}
        assert seeds["tiny_mlp"] != seeds["small_cnn"]


class TestSerialisation:
    def test_spec_round_trip(self):
        spec = SweepSpec(
            scenarios=("tiny_mlp",),
            designs=("curfe", "chgfe"),
            precisions=((4, 4), (4, 8)),
            images=5,
            seed=3,
        )
        assert SweepSpec.from_dict(spec.to_dict()) == spec

    def test_spec_record_is_json_compatible(self):
        import json

        payload = SweepSpec(scenarios=("tiny_mlp",)).to_dict()
        assert json.loads(json.dumps(payload)) == payload

    def test_job_round_trip(self):
        job = SweepSpec(scenarios=("tiny_mlp",)).expand()[0]
        rebuilt = SweepJob.from_dict(job.to_dict())
        assert rebuilt == job
        assert rebuilt.inference_config() == job.inference_config()

    def test_job_config_round_trips_through_worker_dispatch(self):
        job = SweepSpec(scenarios=("tiny_mlp",), seed=11).expand()[0]
        config = InferenceConfig.from_dict(dict(job.to_dict()["config"]))
        assert config.seed == 11
        assert config.backend == "device"

    def test_spec_digest_tracks_content(self):
        a = SweepSpec(scenarios=("tiny_mlp",))
        b = SweepSpec(scenarios=("tiny_mlp",), seed=1)
        assert a.digest() == SweepSpec(scenarios=("tiny_mlp",)).digest()
        assert a.digest() != b.digest()
