"""ServeRuntime: lifecycle, backpressure, batch boundaries, metrics accounting."""

import dataclasses
import sys
import threading

import numpy as np
import pytest

from repro.serve import QueueFullError, ServeMetrics, ServeRuntime


class TestLifecycle:
    def test_submit_before_start_raises(self, device_serve_config, device_program):
        runtime = ServeRuntime(device_serve_config, program=device_program)
        with pytest.raises(RuntimeError, match="not accepting"):
            runtime.submit(np.zeros(device_program.input_shape))

    def test_double_start_raises(self, device_serve_config, device_program):
        runtime = ServeRuntime(device_serve_config, program=device_program)
        runtime.start()
        try:
            with pytest.raises(RuntimeError, match="already started"):
                runtime.start()
        finally:
            runtime.stop()

    def test_stop_is_idempotent_and_drains(
        self, device_serve_config, device_program, request_images
    ):
        runtime = ServeRuntime(device_serve_config, program=device_program)
        runtime.start()
        futures = [runtime.submit(image) for image in request_images]
        runtime.stop()
        runtime.stop()  # second stop is a no-op
        # everything submitted before stop() was still served
        assert all(future.done() for future in futures)
        assert runtime.snapshot().in_flight == 0
        with pytest.raises(RuntimeError, match="not accepting"):
            runtime.submit(request_images[0])

    def test_submit_rejects_wrong_shape(
        self, device_serve_config, device_program
    ):
        with ServeRuntime(device_serve_config, program=device_program) as runtime:
            with pytest.raises(ValueError, match="input shape"):
                runtime.submit(np.zeros((1, 2, 3)))


class TestBatchBoundaries:
    def test_responses_carry_batch_occupancy(
        self, device_serve_config, device_program, request_images
    ):
        config = dataclasses.replace(
            device_serve_config, max_batch=4, service_delay_s=0.01
        )
        with ServeRuntime(config, program=device_program) as runtime:
            futures = [runtime.submit(image) for image in request_images]
            responses = [future.result(timeout=30) for future in futures]
        sizes = [response.batch_size for response in responses]
        assert all(1 <= size <= 4 for size in sizes)
        # the slow replica forces a backlog, so some batches must coalesce
        assert max(sizes) > 1
        # request ids are assigned in submission order
        assert [r.request_id for r in responses] == sorted(
            r.request_id for r in responses
        )
        for response in responses:
            assert response.latency_s >= response.service_s >= 0.01
            assert response.queue_wait_s >= 0
            assert response.chip_latency_s == device_program.chip_latency_s
            assert response.chip_energy_j == device_program.chip_energy_j

    def test_batch_size_one_serves_singletons(
        self, device_serve_config, device_program, request_images
    ):
        config = dataclasses.replace(device_serve_config, max_batch=1)
        with ServeRuntime(config, program=device_program) as runtime:
            futures = [runtime.submit(image) for image in request_images[:5]]
            responses = [future.result(timeout=30) for future in futures]
        assert {response.batch_size for response in responses} == {1}


class TestBackpressure:
    def test_reject_policy_raises_and_counts(
        self, device_serve_config, device_program, request_images
    ):
        config = dataclasses.replace(
            device_serve_config,
            replicas=1,
            max_batch=1,
            queue_depth=2,
            backpressure="reject",
            service_delay_s=0.05,
        )
        offered = 8
        with ServeRuntime(config, program=device_program) as runtime:
            accepted, rejected = {}, 0
            for index in range(offered):
                try:
                    accepted[index] = runtime.submit(request_images[index])
                except QueueFullError:
                    rejected += 1
            assert runtime.drain(timeout=30)
            snapshot = runtime.snapshot()
        # the slow single replica cannot absorb a burst 4x its queue depth
        assert rejected > 0
        assert snapshot.rejected == rejected
        assert snapshot.submitted == offered - rejected
        assert snapshot.completed == len(accepted)
        # accepted requests still resolve to the offline predictions
        offline = device_program.instantiate().predict(request_images[:offered])
        for index, future in accepted.items():
            assert future.result().prediction == offline[index]

    def test_block_policy_completes_everything(
        self, device_serve_config, device_program, request_images
    ):
        config = dataclasses.replace(
            device_serve_config,
            replicas=1,
            max_batch=2,
            queue_depth=1,
            backpressure="block",
            service_delay_s=0.01,
        )
        with ServeRuntime(config, program=device_program) as runtime:
            predictions = runtime.serve(request_images)
            snapshot = runtime.snapshot()
        assert snapshot.rejected == 0
        assert snapshot.completed == len(request_images)
        np.testing.assert_array_equal(
            predictions, device_program.instantiate().predict(request_images)
        )


class TestMetricsAccounting:
    def test_snapshot_identities(
        self, device_serve_config, device_program, request_images
    ):
        config = dataclasses.replace(device_serve_config, max_batch=4)
        with ServeRuntime(config, program=device_program) as runtime:
            runtime.serve(request_images)
            snapshot = runtime.snapshot()
        n = len(request_images)
        assert snapshot.submitted == n
        assert snapshot.completed == n
        assert snapshot.rejected == 0
        assert snapshot.in_flight == 0
        assert snapshot.batches >= 1
        # batches partition the requests exactly
        assert snapshot.batch_size_mean * snapshot.batches == pytest.approx(n)
        assert 0 < snapshot.batch_occupancy_mean <= 1
        assert snapshot.throughput_rps > 0
        assert (
            0
            <= snapshot.latency_p50_s
            <= snapshot.latency_p95_s
            <= snapshot.latency_p99_s
        )
        assert snapshot.latency_mean_s > 0
        assert snapshot.queue_wait_mean_s >= 0
        assert snapshot.service_mean_s > 0
        assert snapshot.queue_depth_max >= 0
        payload = snapshot.to_dict()
        assert payload["submitted"] == n

    def test_means_cover_the_whole_lifetime(self):
        metrics = ServeMetrics(max_batch=4, queue_depth=8)
        for step in range(5):
            metrics.record_submitted(queue_depth=step, arrival_s=0.0)
            metrics.record_response(
                latency_s=float(step), queue_wait_s=0.0, completion_s=float(step)
            )
        snapshot = metrics.snapshot()
        # counters and means are exact over every recorded sample
        assert snapshot.completed == 5
        assert snapshot.latency_mean_s == 2.0
        assert snapshot.queue_depth_mean == 2.0
        assert snapshot.queue_depth_max == 4
        assert snapshot.throughput_rps == 5 / 4.0

    def test_identity_holds_under_concurrent_records(self):
        metrics = ServeMetrics(max_batch=4, queue_depth=8)
        per_thread, pairs = 1000, 2
        broken = []
        done = threading.Event()

        def submitter():
            for _ in range(per_thread):
                metrics.record_submitted(queue_depth=1, arrival_s=0.0)

        def completer():
            for _ in range(per_thread):
                metrics.record_response(0.001, 0.0, completion_s=1.0)

        def reader():
            while not done.is_set():
                snap = metrics.snapshot()
                if snap.submitted != snap.completed + snap.in_flight:
                    broken.append(snap)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            writers = [
                threading.Thread(target=target)
                for target in (submitter, completer)
                for _ in range(pairs)
            ]
            watcher = threading.Thread(target=reader)
            watcher.start()
            for thread in writers:
                thread.start()
            for thread in writers:
                thread.join(timeout=30)
            done.set()
            watcher.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in [*writers, watcher])
        assert broken == []
        final = metrics.snapshot()
        assert final.submitted == final.completed == per_thread * pairs
        assert final.in_flight == 0

    def test_snapshot_mid_load_is_consistent(
        self, device_serve_config, device_program, request_images
    ):
        config = dataclasses.replace(device_serve_config, service_delay_s=0.05)
        with ServeRuntime(config, program=device_program) as runtime:
            futures = [runtime.submit(image) for image in request_images[:6]]
            snapshot = runtime.snapshot()  # mid-flight
            assert snapshot.submitted == 6
            assert 0 <= snapshot.completed <= 6
            assert snapshot.in_flight == snapshot.submitted - snapshot.completed
            for future in futures:
                future.result(timeout=30)
