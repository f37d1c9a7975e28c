"""Runtime-level observability: events, /metrics endpoint, program swap."""

import dataclasses

import numpy as np
import pytest

from repro.obs.tracer import Tracer, set_tracer
from repro.serve import ServeRuntime, parse_exposition, read_events


class TestRuntimeEvents:
    def test_serving_emits_the_lifecycle_vocabulary(
        self, device_serve_config, device_program, request_images, tmp_path
    ):
        config = dataclasses.replace(
            device_serve_config, event_log=str(tmp_path / "events.jsonl")
        )
        with ServeRuntime(config, program=device_program) as runtime:
            futures = [runtime.submit(image) for image in request_images]
            for future in futures:
                future.result(timeout=30)
        events = read_events(config.event_log)
        kinds = {event["event"] for event in events}
        assert {
            "runtime_start", "worker_start", "request_admitted",
            "batch_dispatched", "request_served", "worker_stop",
            "runtime_stop",
        } <= kinds
        served = [e for e in events if e["event"] == "request_served"]
        assert len(served) == len(request_images)
        assert {e["request_id"] for e in served} == set(range(len(request_images)))
        # seq is strictly increasing across the whole stream
        seqs = [event["seq"] for event in events]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)

    def test_rejected_requests_are_logged(
        self, device_serve_config, device_program, request_images, tmp_path
    ):
        config = dataclasses.replace(
            device_serve_config,
            event_log=str(tmp_path / "events.jsonl"),
            queue_depth=1,
            backpressure="reject",
            service_delay_s=0.05,
        )
        rejected = 0
        with ServeRuntime(config, program=device_program) as runtime:
            from repro.serve import QueueFullError

            for image in request_images:
                try:
                    runtime.submit(image)
                except QueueFullError:
                    rejected += 1
        events = read_events(config.event_log)
        logged = [e for e in events if e["event"] == "request_rejected"]
        assert rejected > 0
        assert len(logged) == rejected

    def test_no_event_log_config_writes_nothing(
        self, device_serve_config, device_program, request_images, tmp_path
    ):
        with ServeRuntime(
            device_serve_config, program=device_program
        ) as runtime:
            runtime.submit(request_images[0]).result(timeout=30)
        assert list(tmp_path.iterdir()) == []


class TestMetricsEndpoint:
    def test_live_scrape_reflects_served_requests(
        self, device_serve_config, device_program, request_images
    ):
        import urllib.request

        config = dataclasses.replace(device_serve_config, metrics_port=0)
        with ServeRuntime(config, program=device_program) as runtime:
            futures = [runtime.submit(image) for image in request_images]
            for future in futures:
                future.result(timeout=30)
            assert runtime.metrics_url is not None
            with urllib.request.urlopen(runtime.metrics_url, timeout=10) as r:
                body = r.read().decode("utf-8")
        families = parse_exposition(body)
        completed = families["repro_serve_requests_completed_total"]["samples"]
        assert completed["repro_serve_requests_completed_total"] == float(
            len(request_images)
        )
        info = families["repro_serve_info"]["samples"]
        (info_key,) = info
        assert 'scenario="tiny_mlp"' in info_key

    def test_endpoint_disabled_by_default(
        self, device_serve_config, device_program
    ):
        with ServeRuntime(
            device_serve_config, program=device_program
        ) as runtime:
            assert runtime.metrics_url is None
            assert runtime.metrics_address is None


class TestOneClock:
    def test_spans_equal_response_timings(
        self, device_serve_config, device_program, request_images
    ):
        tracer = Tracer()
        previous = set_tracer(tracer)
        try:
            with ServeRuntime(device_serve_config, program=device_program) as runtime:
                futures = [runtime.submit(image) for image in request_images]
                responses = [future.result(timeout=30) for future in futures]
        finally:
            set_tracer(previous)
        spans = tracer.drain()

        def by_request(name):
            return {
                span["attrs"]["request_id"]: span
                for span in spans
                if span["name"] == name
            }

        requests, queues = by_request("request"), by_request("queue")
        assert len(requests) == len(queues) == len(responses)
        for response in responses:
            request = requests[response.request_id]
            queue = queues[response.request_id]
            assert request["duration_s"] == response.latency_s
            assert queue["duration_s"] == response.queue_wait_s
            assert queue["start_s"] == request["start_s"]
        batches = [span for span in spans if span["name"] == "batch"]
        assert {span["duration_s"] for span in batches} == {
            response.service_s for response in responses
        }


class TestProgramSwap:
    def test_swap_preserves_predictions_and_logs(
        self, device_serve_config, device_program, request_images, tmp_path
    ):
        config = dataclasses.replace(
            device_serve_config, event_log=str(tmp_path / "events.jsonl")
        )
        with ServeRuntime(config, program=device_program) as runtime:
            before = [
                runtime.submit(image).result(timeout=30).prediction
                for image in request_images[:4]
            ]
            runtime.swap_program(device_program)
            after = [
                runtime.submit(image).result(timeout=30).prediction
                for image in request_images[:4]
            ]
        assert np.array_equal(before, after)
        events = read_events(config.event_log)
        swaps = [e for e in events if e["event"] == "program_swap"]
        assert len(swaps) == 1

    def test_swap_waits_for_in_flight_batches(
        self, device_serve_config, device_program, request_images
    ):
        config = dataclasses.replace(device_serve_config, service_delay_s=0.05)
        with ServeRuntime(config, program=device_program) as runtime:
            futures = [runtime.submit(image) for image in request_images]
            runtime.swap_program(device_program)  # must not deadlock
            responses = [future.result(timeout=30) for future in futures]
        assert len(responses) == len(request_images)
        assert runtime.snapshot().completed == len(request_images)
