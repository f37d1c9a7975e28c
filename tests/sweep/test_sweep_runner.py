"""End-to-end sweep runner contracts: determinism, parallelism, caching."""

from pathlib import Path

import numpy as np
import pytest

from repro.chipsim import ChipSimulator
from repro.chipsim.scenarios import SCENARIOS, Scenario, get_scenario, tiny_mlp
from repro.engine.shm import shm_available
from repro.sweep import SweepRunner, SweepSpec, deterministic_view, pareto_front, run_job
from repro.sweep.cache import arrays_from_state
from repro.sweep.runner import _restore_layer_states

#: Where Linux exposes POSIX shared-memory segments.
SHM_DIR = Path("/dev/shm")

#: A small device grid that exercises programming + calibration caching
#: (variation enabled) while staying fast: 4 jobs on the tiny scenario.
DEVICE_SPEC = SweepSpec(
    scenarios=("tiny_mlp",),
    backends=("device",),
    designs=("curfe",),
    adc_bits=(4, 5),
    calibrations=("workload", "nominal"),
    images=3,
    batch_size=3,
    seed=0,
)


class TestDeterminism:
    def test_same_spec_gives_identical_records(self):
        first = SweepRunner(DEVICE_SPEC).run()
        second = SweepRunner(DEVICE_SPEC).run()
        assert first.deterministic_records() == second.deterministic_records()

    def test_timing_is_stripped_from_deterministic_view(self):
        record = SweepRunner(
            DEVICE_SPEC.subset(adc_bits=(5,), calibrations=("workload",))
        ).run().records[0]
        view = deterministic_view(record)
        assert "timing" not in view and "cache" not in view
        assert view["predictions_sha256"]

    def test_records_preserve_job_order(self):
        result = SweepRunner(DEVICE_SPEC).run()
        assert [r["job_id"] for r in result.records] == [
            j.job_id for j in DEVICE_SPEC.expand()
        ]


class TestParallelism:
    def test_parallel_equals_serial_uncached(self):
        serial = SweepRunner(DEVICE_SPEC, workers=1).run()
        parallel = SweepRunner(DEVICE_SPEC, workers=2).run()
        assert serial.deterministic_records() == parallel.deterministic_records()

    def test_parallel_equals_serial_with_shared_cache(self, tmp_path):
        serial = SweepRunner(DEVICE_SPEC, workers=1, cache_dir=tmp_path).run()
        parallel = SweepRunner(DEVICE_SPEC, workers=2, cache_dir=tmp_path).run()
        assert serial.deterministic_records() == parallel.deterministic_records()

    def test_worker_count_validation(self):
        with pytest.raises(ValueError, match="workers"):
            SweepRunner(DEVICE_SPEC, workers=0)

    @pytest.mark.skipif(
        not shm_available() or not SHM_DIR.is_dir(),
        reason="needs POSIX shared memory under /dev/shm",
    )
    def test_parallel_run_leaves_no_shared_memory_segments(self, tmp_path):
        """Arenas a pool worker publishes from cache hits die with it."""
        before = set(SHM_DIR.glob("rpr-*"))
        SweepRunner(DEVICE_SPEC, workers=2, cache_dir=tmp_path).run()  # cold
        SweepRunner(DEVICE_SPEC, workers=2, cache_dir=tmp_path).run()  # warm
        assert set(SHM_DIR.glob("rpr-*")) - before == set()


class TestCacheBehaviour:
    def test_cold_run_misses_then_hits_within_the_grid(self, tmp_path):
        result = SweepRunner(DEVICE_SPEC, cache_dir=tmp_path).run()
        programming = [r["cache"]["programming"] for r in result.records]
        # First job characterises; the other jobs of the same scenario /
        # design / seed family restore the programmed state.
        assert programming[0] == "miss"
        assert set(programming[1:]) == {"hit"}
        by_calibration = {
            r["job_id"]: r["cache"]["calibration"] for r in result.records
        }
        for job_id, status in by_calibration.items():
            assert status == ("skipped" if ":nominal:" in job_id else "miss")

    def test_warm_run_hits_everything_cacheable(self, tmp_path):
        SweepRunner(DEVICE_SPEC, cache_dir=tmp_path).run()
        warm = SweepRunner(DEVICE_SPEC, cache_dir=tmp_path).run()
        for record in warm.records:
            assert record["cache"]["programming"] == "hit"
            if record["calibration"] == "workload":
                assert record["cache"]["calibration"] == "hit"
                assert record["calibrated_layers"] > 0

    def test_cache_does_not_change_results(self, tmp_path):
        uncached = SweepRunner(DEVICE_SPEC).run()
        cold = SweepRunner(DEVICE_SPEC, cache_dir=tmp_path).run()
        warm = SweepRunner(DEVICE_SPEC, cache_dir=tmp_path).run()
        assert uncached.deterministic_records() == cold.deterministic_records()
        assert uncached.deterministic_records() == warm.deterministic_records()

    def test_variation_disabled_skips_programming_cache(self, tmp_path):
        from repro.devices.variation import NO_VARIATION

        spec = DEVICE_SPEC.subset(variation=NO_VARIATION, calibrations=("workload",))
        result = SweepRunner(spec, cache_dir=tmp_path).run()
        assert all(
            r["cache"]["programming"] == "skipped" for r in result.records
        )

    def test_torn_entries_are_recomputed_identically(self, tmp_path, monkeypatch):
        # Read every entry from disk: a host arena published by the first
        # run would otherwise answer the second run's lookups.
        monkeypatch.setattr("repro.sweep.cache.shm_available", lambda: False)
        first = SweepRunner(DEVICE_SPEC, cache_dir=tmp_path).run()
        torn = []
        for kind in ("programming", "calibration"):
            for entry in sorted((tmp_path / kind).glob("*.npz")):
                data = entry.read_bytes()
                entry.write_bytes(data[: len(data) // 2])
                torn.append(entry)
        assert {entry.parent.name for entry in torn} == {"programming", "calibration"}
        second = SweepRunner(DEVICE_SPEC, cache_dir=tmp_path).run()
        assert second.deterministic_records() == first.deterministic_records()
        for entry in torn:
            assert entry.with_name(entry.name + ".corrupt").exists()
            with np.load(entry) as bundle:  # rewritten by the second run
                assert bundle.files

    def test_programming_entry_must_cover_every_weight_layer(self):
        """An entry restores each layer's state at the dimensions its arrays
        carry; one missing a weight layer restores nothing (a cold build)."""
        model = get_scenario("tiny_mlp").build(seed=0)
        simulator = ChipSimulator(model, design="curfe")
        states = simulator.inference.layer_array_states()
        layered = {name: arrays_from_state(state) for name, state in states.items()}
        restored = _restore_layer_states(layered, model, simulator.config)
        shapes = {
            name: (state.rows, state.banks, state.block_rows)
            for name, state in states.items()
        }
        assert {
            name: (state.rows, state.banks, state.block_rows)
            for name, state in restored.items()
        } == shapes
        del layered[sorted(layered)[0]]
        assert _restore_layer_states(layered, model, simulator.config) is None

    def test_trained_model_is_built_once_then_restored(self, tmp_path, monkeypatch):
        """A trained scenario's weights go through the model cache: the first
        sweep builds (trains) the model, the second loads the cached weights
        into the skeleton without building, and both score the same."""
        builds = []

        def trained_tiny_mlp(*, seed=0, **params):
            builds.append(seed)
            model = tiny_mlp(seed=seed, **params)
            for layer in model.weight_layers().values():
                layer.weight += 0.1  # stands in for training
            return model

        monkeypatch.setitem(
            SCENARIOS,
            "trained_tiny",
            Scenario(
                name="trained_tiny",
                description="tiny_mlp with deterministic 'trained' weights",
                builder=trained_tiny_mlp,
                trained=True,
                skeleton=tiny_mlp,
            ),
        )
        spec = DEVICE_SPEC.subset(
            scenarios=("trained_tiny",), adc_bits=(5,), calibrations=("nominal",)
        )
        cold = SweepRunner(spec, cache_dir=tmp_path).run()
        assert [r["cache"]["model"] for r in cold.records] == ["miss"]
        assert builds == [0]
        warm = SweepRunner(spec, cache_dir=tmp_path).run()
        assert [r["cache"]["model"] for r in warm.records] == ["hit"]
        assert builds == [0]
        assert warm.deterministic_records() == cold.deterministic_records()

    def test_cache_totals_aggregate(self, tmp_path):
        result = SweepRunner(DEVICE_SPEC, cache_dir=tmp_path).run()
        totals = result.cache_totals()
        assert totals["misses"] > 0 and totals["hits"] > 0


class TestBackends:
    def test_functional_job_record(self):
        spec = SweepSpec(
            scenarios=("tiny_mlp",), backends=("functional",), images=3, batch_size=3
        )
        record = SweepRunner(spec).run().records[0]
        assert record["backend"] == "functional"
        assert record["accuracy"] is None  # unlabelled scenario
        assert 0.0 <= record["float_agreement"] <= 1.0
        assert record["modeled"]["tops_per_watt"] > 0

    def test_analytic_job_record(self):
        spec = SweepSpec(
            scenarios=("resnet18_cifar10",), backends=("analytic",), images=1
        )
        record = SweepRunner(spec).run().records[0]
        assert record["backend"] == "analytic"
        assert record["float_agreement"] is None
        assert record["modeled"]["total_macros"] > 0
        assert record["modeled"]["layers"]

    def test_run_job_accepts_serialised_payload(self):
        job = DEVICE_SPEC.expand()[0]
        import json

        payload = json.loads(json.dumps(job.to_dict()))
        record = run_job(payload)
        assert record["job_id"] == job.job_id


class TestResultSummaries:
    def test_pareto_front_maximises_both_axes(self):
        points = [("a", 1.0, 1.0), ("b", 0.5, 2.0), ("c", 0.4, 0.4), ("d", 1.0, 0.9)]
        assert pareto_front(points) == ["a", "b"]

    def test_result_record_is_json_compatible(self, tmp_path):
        import json

        result = SweepRunner(DEVICE_SPEC, cache_dir=tmp_path).run()
        payload = result.to_record()
        assert json.loads(json.dumps(payload))["jobs"] == 4

    def test_record_lookup_raises_on_unknown_id(self):
        result = SweepRunner(
            DEVICE_SPEC.subset(adc_bits=(5,), calibrations=("workload",))
        ).run()
        with pytest.raises(KeyError, match="no record"):
            result.record("missing:job")
