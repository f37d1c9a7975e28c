"""LoadGenerator: seeded schedules, closed-/open-loop shapes, rejection handling."""

import dataclasses
from concurrent.futures import Future

import numpy as np
import pytest

from repro.serve import LoadGenerator, ServeRuntime, loadgen


class TestArrivalSchedules:
    def test_poisson_schedule_is_seeded(self, request_images):
        first = LoadGenerator(request_images, seed=5)
        second = LoadGenerator(request_images, seed=5)
        other = LoadGenerator(request_images, seed=6)
        a = first.arrival_intervals(32, rate_rps=100.0)
        b = second.arrival_intervals(32, rate_rps=100.0)
        c = other.arrival_intervals(32, rate_rps=100.0)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)
        assert np.mean(a) == pytest.approx(0.01, rel=0.6)

    def test_uniform_schedule_is_exact(self, request_images):
        intervals = LoadGenerator(request_images).arrival_intervals(
            5, rate_rps=50.0, pattern="uniform"
        )
        np.testing.assert_allclose(intervals, 0.02)

    def test_invalid_parameters_raise(self, request_images):
        generator = LoadGenerator(request_images)
        with pytest.raises(ValueError):
            generator.arrival_intervals(0, rate_rps=1.0)
        with pytest.raises(ValueError):
            generator.arrival_intervals(1, rate_rps=0.0)
        with pytest.raises(ValueError):
            generator.arrival_intervals(1, rate_rps=1.0, pattern="bursty")
        with pytest.raises(ValueError):
            LoadGenerator(np.zeros((0, 1, 2, 2)))
        with pytest.raises(ValueError):
            LoadGenerator(np.zeros((3, 4)))

    def test_request_images_cycle(self, request_images):
        generator = LoadGenerator(request_images)
        np.testing.assert_array_equal(
            generator.request_image(len(request_images)), request_images[0]
        )


class TestClosedLoop:
    def test_serves_exact_request_count_with_correct_results(
        self, device_serve_config, device_program, request_images
    ):
        generator = LoadGenerator(request_images, seed=3)
        requests = 2 * len(request_images)
        with ServeRuntime(
            dataclasses.replace(device_serve_config, replicas=2),
            program=device_program,
        ) as runtime:
            result = generator.closed_loop(runtime, requests=requests, concurrency=5)
        assert result.offered == requests
        assert result.completed == requests
        assert result.rejected == 0
        assert result.throughput_rps > 0
        offline = device_program.instantiate().predict(request_images)
        expected = offline[np.arange(requests) % len(request_images)]
        np.testing.assert_array_equal(result.predictions, expected)
        assert result.metrics.completed == requests

    def test_invalid_parameters_raise(
        self, device_serve_config, device_program, request_images
    ):
        generator = LoadGenerator(request_images)
        with ServeRuntime(device_serve_config, program=device_program) as runtime:
            with pytest.raises(ValueError):
                generator.closed_loop(runtime, requests=0, concurrency=1)
            with pytest.raises(ValueError):
                generator.closed_loop(runtime, requests=1, concurrency=0)


class TestOpenLoop:
    def test_open_loop_counts_rejections(
        self, device_serve_config, device_program, request_images
    ):
        config = dataclasses.replace(
            device_serve_config,
            replicas=1,
            max_batch=1,
            queue_depth=1,
            backpressure="reject",
            service_delay_s=0.05,
        )
        generator = LoadGenerator(request_images, seed=11)
        with ServeRuntime(config, program=device_program) as runtime:
            result = generator.open_loop(
                runtime, requests=10, rate_rps=2000.0, pattern="uniform"
            )
        # a 2000 rps burst into a 1-deep queue with a 50 ms replica must shed
        assert result.rejected > 0
        assert result.completed + result.rejected == result.offered
        assert result.metrics.rejected == result.rejected
        predictions = result.predictions
        rejected_mask = predictions == -1
        assert rejected_mask.sum() == result.rejected
        offline = device_program.instantiate().predict(request_images)
        expected = offline[np.arange(10) % len(request_images)]
        np.testing.assert_array_equal(
            predictions[~rejected_mask], expected[~rejected_mask]
        )

    def test_open_loop_block_policy_serves_everything(
        self, device_serve_config, device_program, request_images
    ):
        generator = LoadGenerator(request_images, seed=1)
        with ServeRuntime(device_serve_config, program=device_program) as runtime:
            result = generator.open_loop(
                runtime, requests=8, rate_rps=500.0, pattern="poisson"
            )
        assert result.rejected == 0
        assert result.completed == 8
        offline = device_program.instantiate().predict(request_images)
        np.testing.assert_array_equal(
            result.predictions, offline[np.arange(8) % len(request_images)]
        )


class FakeClock:
    """Stands in for the ``time`` module: sleeping just advances the clock."""

    def __init__(self, now=1000.0):
        self.now = now

    def perf_counter(self):
        return self.now

    def sleep(self, seconds):
        assert seconds > 0
        self.now += seconds


class StallingRuntime:
    """Records submit times; the first submit stalls the caller 50 ms."""

    def __init__(self, clock):
        self.clock = clock
        self.submit_times = []

    def submit(self, image):
        self.submit_times.append(self.clock.now)
        if len(self.submit_times) == 1:
            self.clock.now += 0.05
        future = Future()
        future.set_result(None)
        return future

    def drain(self):
        pass

    def snapshot(self):
        return None


class TestOpenLoopSchedule:
    def test_a_slow_submit_does_not_shift_later_arrivals(self, monkeypatch):
        clock = FakeClock()
        monkeypatch.setattr(loadgen, "time", clock)
        runtime = StallingRuntime(clock)
        start = clock.now
        result = LoadGenerator(np.zeros((2, 1, 2, 2))).open_loop(
            runtime, requests=6, rate_rps=50.0, pattern="uniform"
        )
        assert result.completed == 6
        # Due at 20, 40, ... 120 ms; the first submit returns at 70 ms, so
        # the arrivals due at 40 and 60 ms go out at once and the rest on time.
        expected = [0.02, 0.07, 0.07, 0.08, 0.10, 0.12]
        offsets = [t - start for t in runtime.submit_times]
        assert offsets == pytest.approx(expected, abs=1e-9)
