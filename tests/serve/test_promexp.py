"""Prometheus exposition: rendering, parsing, and the HTTP endpoint."""

import urllib.error
import urllib.request

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import MetricsRegistry
from repro.serve.metrics import ServeMetrics
from repro.serve.promexp import (
    CONTENT_TYPE,
    MetricsServer,
    parse_exposition,
    render_prometheus,
)


def make_metrics():
    metrics = ServeMetrics(max_batch=8, queue_depth=16)
    for request_id in range(8):
        metrics.record_submitted(queue_depth=request_id % 3, arrival_s=0.0)
    metrics.record_rejected()
    metrics.record_batch(size=4, service_s=0.004)
    for index in range(4):
        metrics.record_response(
            latency_s=0.01, queue_wait_s=0.002, completion_s=0.5 + index
        )
    return metrics


def render_metrics():
    return render_prometheus(make_metrics().registry)


class TestRender:
    def test_output_parses_as_valid_exposition(self):
        families = parse_exposition(render_metrics())
        assert "repro_serve_requests_submitted_total" in families
        assert "repro_serve_latency_seconds" in families

    def test_family_types(self):
        families = parse_exposition(render_metrics())
        assert families["repro_serve_requests_completed_total"]["type"] == "counter"
        assert families["repro_serve_batches_total"]["type"] == "counter"
        assert families["repro_serve_requests_in_flight"]["type"] == "gauge"
        assert families["repro_serve_queue_depth"]["type"] == "histogram"
        assert families["repro_serve_batch_size"]["type"] == "histogram"

    def test_values_match_snapshot(self):
        metrics = make_metrics()
        snapshot = metrics.snapshot()
        families = parse_exposition(render_prometheus(metrics.registry))
        for field, name, expected in (
            ("submitted", "repro_serve_requests_submitted_total", 8),
            ("rejected", "repro_serve_requests_rejected_total", 1),
            ("in_flight", "repro_serve_requests_in_flight", 4),
        ):
            sample = families[name]["samples"][name]
            assert sample == getattr(snapshot, field) == expected

    def test_bucket_bounds_follow_the_deployment(self):
        families = parse_exposition(render_metrics())
        batch = families["repro_serve_batch_size"]["samples"]
        assert [key for key in batch if "_bucket" in key] == [
            f'repro_serve_batch_size_bucket{{le="{le}"}}'
            for le in ("0.0", "1.0", "2.0", "4.0", "8.0", "+Inf")
        ]
        depth = families["repro_serve_queue_depth"]["samples"]
        assert 'repro_serve_queue_depth_bucket{le="16.0"}' in depth

    def test_labelled_gauge_renders_and_escapes(self):
        registry = MetricsRegistry()
        registry.gauge("repro_serve_info", "Deployment identity labels.").set(
            1, scenario="tiny_mlp", design="curfe", pool="thread", k='a"b\\c'
        )
        text = render_prometheus(registry)
        assert (
            'repro_serve_info{design="curfe",k="a\\"b\\\\c",pool="thread",'
            'scenario="tiny_mlp"} 1' in text
        )
        families = parse_exposition(text)
        assert families["repro_serve_info"]["type"] == "gauge"

    def test_registries_render_in_order(self):
        first, second = MetricsRegistry(), MetricsRegistry()
        first.counter("a_total", "First.").inc()
        second.counter("b_total", "Second.").inc(2)
        text = render_prometheus(first, second)
        assert text.index("a_total") < text.index("b_total")
        assert parse_exposition(text)["b_total"]["samples"] == {"b_total": 2.0}
        assert render_prometheus() == "\n"

    def test_every_family_has_help_and_type(self):
        for family in parse_exposition(render_metrics()).values():
            assert family["type"] in ("counter", "gauge", "histogram")
            assert family["help"]


#: One recorded serving event: (kind, *arguments).
_EVENTS = st.one_of(
    st.tuples(
        st.just("submitted"),
        st.integers(0, 16),
        st.floats(0.0, 100.0),
    ),
    st.tuples(st.just("rejected")),
    st.tuples(st.just("batch"), st.integers(1, 8), st.floats(0.0, 5.0)),
    st.tuples(
        st.just("response"),
        st.floats(0.0, 20.0),
        st.floats(0.0, 20.0),
        st.floats(0.0, 100.0),
    ),
)


class TestSnapshotEqualsScrape:
    @settings(max_examples=100, deadline=None)
    @given(events=st.lists(_EVENTS, max_size=60))
    def test_counters_and_means_agree(self, events):
        metrics = ServeMetrics(max_batch=8, queue_depth=16)
        record = {
            "submitted": metrics.record_submitted,
            "rejected": metrics.record_rejected,
            "batch": metrics.record_batch,
            "response": metrics.record_response,
        }
        for kind, *arguments in events:
            record[kind](*arguments)
        snapshot = metrics.snapshot()
        families = parse_exposition(render_prometheus(metrics.registry))

        def sample(name):
            family = name
            for suffix in ("_sum", "_count"):
                family = family.removesuffix(suffix)
            return families[family]["samples"][name]

        counts = {kind: sum(e[0] == kind for e in events) for kind in record}
        for field, name, kind in (
            ("submitted", "repro_serve_requests_submitted_total", "submitted"),
            ("rejected", "repro_serve_requests_rejected_total", "rejected"),
            ("completed", "repro_serve_requests_completed_total", "response"),
            ("batches", "repro_serve_batches_total", "batch"),
        ):
            assert getattr(snapshot, field) == sample(name) == counts[kind]
        assert snapshot.in_flight == sample("repro_serve_requests_in_flight")
        assert snapshot.submitted == snapshot.completed + snapshot.in_flight

        for field, name in (
            ("latency_mean_s", "repro_serve_latency_seconds"),
            ("queue_wait_mean_s", "repro_serve_queue_wait_seconds"),
            ("service_mean_s", "repro_serve_service_seconds"),
            ("batch_size_mean", "repro_serve_batch_size"),
            ("queue_depth_mean", "repro_serve_queue_depth"),
        ):
            count = sample(f"{name}_count")
            expected = sample(f"{name}_sum") / count if count else 0.0
            assert getattr(snapshot, field) == expected
        depths = [e[1] for e in events if e[0] == "submitted"]
        assert snapshot.queue_depth_max == max(depths, default=0)


class TestParser:
    def test_sample_without_type_raises(self):
        with pytest.raises(ValueError, match="no # TYPE"):
            parse_exposition("untyped_metric 1\n")

    def test_bad_value_raises(self):
        with pytest.raises(ValueError, match="bad sample value"):
            parse_exposition("# TYPE m gauge\nm not-a-number\n")

    def test_invalid_type_raises(self):
        with pytest.raises(ValueError, match="invalid metric type"):
            parse_exposition("# TYPE m widget\nm 1\n")

    def test_malformed_labels_raise(self):
        with pytest.raises(ValueError, match="malformed"):
            parse_exposition('# TYPE m gauge\nm{k="v"\n')


class TestMetricsServer:
    def test_http_scrape_round_trips(self):
        server = MetricsServer(render_metrics)
        try:
            host, port = server.start()
            assert port != 0  # ephemeral port was resolved
            with urllib.request.urlopen(server.url, timeout=10) as response:
                assert response.headers["Content-Type"] == CONTENT_TYPE
                body = response.read().decode("utf-8")
            families = parse_exposition(body)
            assert "repro_serve_requests_completed_total" in families
        finally:
            server.stop()

    def test_healthz_and_404(self):
        server = MetricsServer(render_metrics)
        try:
            host, port = server.start()
            base = f"http://{host}:{port}"
            with urllib.request.urlopen(f"{base}/healthz", timeout=10) as response:
                assert response.read() == b"ok\n"
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(f"{base}/nothing", timeout=10)
            assert excinfo.value.code == 404
        finally:
            server.stop()

    def test_stop_is_idempotent_and_start_twice_raises(self):
        server = MetricsServer(lambda: "")
        server.start()
        with pytest.raises(RuntimeError, match="already started"):
            server.start()
        server.stop()
        server.stop()
        assert server.url is None
