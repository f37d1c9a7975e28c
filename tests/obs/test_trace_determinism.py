"""Tracing must never change predictions, and the disabled gate is cheap.

The acceptance bar of the observability layer: with tracing enabled the
serving / offline paths produce bit-identical predictions on both
backends and both worker pools, one served request under the process pool
yields a single connected span tree, and the instrumented-but-disabled
hot path costs no more than a few percent over calling the kernel
implementation directly.
"""

import dataclasses
import os
import time
from unittest import mock

import numpy as np
import pytest

from repro.chipsim.scenarios import get_scenario
from repro.chipsim.simulator import ChipSimulator
from repro.chipsim.tiling import TiledLayerEngine
from repro.devices.variation import NO_VARIATION
from repro.obs.tracer import NULL_TRACER, Tracer, set_tracer
from repro.serve import ServeRuntime
from repro.system.inference import InferenceConfig, QuantizedInferenceEngine


class TestOfflineBitIdentity:
    @pytest.mark.parametrize("backend", ["device", "functional"])
    def test_predictions_identical_with_tracing_on_and_off(self, backend):
        scenario = get_scenario("tiny_mlp")
        config = InferenceConfig(
            backend=backend, design="curfe", device_exec="fused", seed=0
        )
        model = scenario.build(seed=config.seed)
        workload = scenario.workload(images=8, seed=7)

        def predict():
            if backend == "device":
                simulator = ChipSimulator(
                    model, config=config, name=scenario.name
                )
                return simulator.run(workload.images, workload.labels).predictions
            engine = QuantizedInferenceEngine(model, config)
            return engine.predict(workload.images)

        set_tracer(NULL_TRACER)
        baseline = predict()
        tracer = Tracer()
        set_tracer(tracer)
        traced = predict()
        spans = tracer.drain()
        assert np.array_equal(baseline, traced)
        assert spans, "enabled tracer collected nothing"


class TestCharacteriseSpans:
    def test_one_span_per_weight_layer_with_its_cell_count(self):
        scenario = get_scenario("tiny_mlp")
        config = InferenceConfig(backend="device", design="curfe", seed=0)
        model = scenario.build(seed=config.seed)
        workload = scenario.workload(images=8, seed=7)

        def build_and_run():
            simulator = ChipSimulator(model, config=config, name=scenario.name)
            return simulator, simulator.run(workload.images).predictions

        set_tracer(NULL_TRACER)
        _, baseline = build_and_run()
        tracer = Tracer()
        set_tracer(tracer)
        simulator, traced = build_and_run()
        collected = tracer.drain()
        spans = [s for s in collected if s["name"] == "characterise"]
        assert np.array_equal(baseline, traced)
        states = simulator.inference.layer_array_states()
        assert len(spans) == len(states) == len(model.weight_layers())
        assert [s["attrs"]["cells"] for s in spans] == [
            2 * state.banks * state.rows * 4 for state in states.values()
        ]
        assert all(s["attrs"]["design"] == "curfe" for s in spans)
        assert all(s["duration_s"] > 0 for s in spans)
        # Construction is one root span, and every characterisation sits
        # under it rather than outside every trace root.
        (build,) = [s for s in collected if s["name"] == "chipsim.build"]
        assert build["parent_id"] is None
        assert build["attrs"] == {
            "network": scenario.name,
            "design": "curfe",
            "layers": len(model.weight_layers()),
        }
        by_id = {s["span_id"]: s for s in collected}
        for span in spans:
            while span["parent_id"] is not None:
                span = by_id[span["parent_id"]]
            assert span is build


class TestSliceSpans:
    """Plane kernels fan out over column slices on the layer's thread pool;
    the work done on pool threads stays inside the caller's trace."""

    @staticmethod
    def traced_fast_matmat():
        rng = np.random.default_rng(3)
        # 3x3 tiles; the default chunk gives 40-column slices: 3 slices.
        tiled = TiledLayerEngine(
            rng.integers(-128, 128, size=(300, 40)), design="curfe",
            variation=NO_VARIATION,
        )
        inputs = rng.integers(0, 16, size=(300, 100))
        tracer = Tracer()
        with mock.patch.object(os, "cpu_count", return_value=2):
            untraced = tiled.matmat(inputs, bits=4, method="fast")
            set_tracer(tracer)
            traced = tiled.matmat(inputs, bits=4, method="fast")
        assert np.array_equal(untraced, traced)
        return tracer.drain()

    def test_kernel_spans_on_pool_threads_descend_from_tiled_layer(self):
        spans = self.traced_fast_matmat()
        by_id = {s["span_id"]: s for s in spans}
        (layer,) = [s for s in spans if s["name"] == "tiled_layer"]
        kernels = [s for s in spans if s["name"] == "kernel"]
        for span in kernels:
            chain = [span["name"]]
            while span["name"] != "tiled_layer" and span["parent_id"] is not None:
                span = by_id[span["parent_id"]]
                chain.append(span["name"])
            assert span is layer, chain
        assert len(kernels) == 3
        slices = sorted(
            (s for s in spans if s["name"] == "slice"),
            key=lambda s: s["attrs"]["first_column"],
        )
        assert [s["parent_id"] for s in slices] == [layer["span_id"]] * 3
        assert [
            (s["attrs"]["first_column"], s["attrs"]["columns"]) for s in slices
        ] == [(0, 40), (40, 40), (80, 20)]

    def test_one_plan_build_span_per_group(self):
        # The untraced call already built the tables: trace a fresh layer.
        rng = np.random.default_rng(3)
        tiled = TiledLayerEngine(
            rng.integers(-128, 128, size=(300, 40)), design="curfe",
            variation=NO_VARIATION,
        )
        assert tiled.num_tiles == 9
        tracer = Tracer()
        set_tracer(tracer)
        with mock.patch.object(os, "cpu_count", return_value=2):
            tiled.matmat(rng.integers(0, 16, size=(300, 100)), bits=4, method="fast")
        builds = [s for s in tracer.drain() if s["name"] == "plan_build"]
        assert sorted(s["attrs"]["group"] for s in builds) == ["high", "low"]


class TestCalibrateSpans:
    @pytest.mark.parametrize("backend", ["device", "functional"])
    def test_one_span_per_weight_layer_and_identical_levels(self, backend):
        scenario = get_scenario("tiny_mlp")
        config = InferenceConfig(backend=backend, design="curfe", seed=0)
        model = scenario.build(seed=config.seed)
        workload = scenario.workload(images=8, seed=7)

        def run():
            engine = QuantizedInferenceEngine(model, config)
            predictions = engine.predict(workload.images)
            levels = {
                name: layer.calibration_levels() if backend == "device"
                else layer.engine.adc_levels
                for name, layer in engine.quantized_layers.items()
            }
            return predictions, levels

        set_tracer(NULL_TRACER)
        baseline, baseline_levels = run()
        tracer = Tracer()
        set_tracer(tracer)
        traced, traced_levels = run()
        spans = tracer.drain()
        assert np.array_equal(baseline, traced)
        assert baseline_levels.keys() == traced_levels.keys()
        for name, levels in baseline_levels.items():
            assert levels.keys() == traced_levels[name].keys() == {"high", "low"}
            for key in levels:
                assert np.array_equal(levels[key], traced_levels[name][key])
        calibrate = [s for s in spans if s["name"] == "calibrate"]
        assert [s["attrs"]["layer"] for s in calibrate] == list(
            model.weight_layers()
        )
        by_id = {s["span_id"]: s for s in spans}
        for span in calibrate:
            assert span["attrs"]["backend"] == backend
            assert span["attrs"]["calibration_rows"] == 8
            assert span["attrs"]["groups"] == 2
            assert by_id[span["parent_id"]]["name"] == "layer"


class TestServePoolBitIdentity:
    @pytest.mark.parametrize("pool", ["thread", "process"])
    def test_serving_identical_with_tracing_on_and_off(
        self, pool, obs_serve_config, obs_program, obs_request_images
    ):
        config = dataclasses.replace(obs_serve_config, pool=pool)

        def serve_all():
            with ServeRuntime(config, program=obs_program) as runtime:
                futures = [
                    runtime.submit(image) for image in obs_request_images
                ]
                responses = [f.result(timeout=60) for f in futures]
            return [(r.request_id, int(r.prediction)) for r in responses]

        set_tracer(NULL_TRACER)
        baseline = serve_all()
        tracer = Tracer()
        set_tracer(tracer)
        traced = serve_all()
        spans = tracer.drain()
        assert baseline == traced
        assert {"request", "queue", "batch", "replica"} <= {
            s["name"] for s in spans
        }


class TestProcessPoolSpanTree:
    def test_one_request_yields_a_single_connected_tree(
        self, obs_serve_config, obs_program, obs_request_images
    ):
        config = dataclasses.replace(obs_serve_config, pool="process")
        tracer = Tracer()
        set_tracer(tracer)
        with ServeRuntime(config, program=obs_program) as runtime:
            futures = [runtime.submit(image) for image in obs_request_images]
            for future in futures:
                future.result(timeout=60)
        spans = tracer.drain()
        by_id = {s["span_id"]: s for s in spans}
        names = {s["name"] for s in spans}
        assert {"request", "queue", "batch", "replica", "layer"} <= names
        # Every parent pointer resolves inside the collected set.
        for span in spans:
            parent = span["parent_id"]
            assert parent is None or parent in by_id, span["name"]
        # Every batch hangs under a request, every replica under a batch,
        # and layer/kernel spans reach a request by walking up — the full
        # request -> batch -> replica -> layer chain crosses the process
        # boundary connected.
        for span in spans:
            if span["name"] == "batch":
                assert by_id[span["parent_id"]]["name"] == "request"
            if span["name"] == "replica":
                assert by_id[span["parent_id"]]["name"] == "batch"
        deepest = [s for s in spans if s["name"] == "kernel"]
        assert deepest, "kernel-level spans did not cross the process boundary"
        chain = []
        cursor = deepest[0]
        while cursor["parent_id"] is not None:
            cursor = by_id[cursor["parent_id"]]
            chain.append(cursor["name"])
        assert chain[-1] == "request"
        assert "replica" in chain and "batch" in chain


class TestDisabledOverhead:
    def test_disabled_path_overhead_is_a_few_percent(self):
        """The disabled span on a deep-CNN-shaped tiled fused layer.

        Interleaved min-of-N of the public ``matmat`` (which opens the
        shared null span) against the raw implementation; the absolute
        slack absorbs scheduler noise on millisecond-scale kernels while
        still bounding the null span's cost.
        """
        set_tracer(NULL_TRACER)
        rng = np.random.default_rng(3)
        weights = rng.integers(-128, 128, size=(1152, 96))
        engine = TiledLayerEngine(
            weights, design="curfe", variation=NO_VARIATION, seed=9
        )
        inputs = rng.integers(0, 16, size=(1152, 64))
        kwargs = dict(bits=4, method="fused")
        engine.matmat(inputs, **kwargs)  # warm operand caches / BLAS
        gated, direct = [], []
        for _ in range(7):
            start = time.perf_counter()
            engine.matmat(inputs, **kwargs)
            gated.append(time.perf_counter() - start)
            start = time.perf_counter()
            engine._matmat_impl(inputs, **kwargs)
            direct.append(time.perf_counter() - start)
        assert min(gated) <= min(direct) * 1.05 + 0.002
