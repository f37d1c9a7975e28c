"""The span tracer: nesting, contexts, the disabled path, rings."""

import threading

import pytest

from repro.obs.tracer import (
    NULL_TRACER,
    NullTracer,
    Tracer,
    disable,
    enable,
    get_tracer,
    new_id,
    set_tracer,
    timed,
)


class TestNesting:
    def test_with_blocks_form_a_tree(self):
        tracer = Tracer()
        with tracer.span("root", kind="outer"):
            with tracer.span("child"):
                with tracer.span("grandchild"):
                    pass
            with tracer.span("sibling"):
                pass
        spans = {s["name"]: s for s in tracer.drain()}
        assert set(spans) == {"root", "child", "grandchild", "sibling"}
        root = spans["root"]
        assert root["parent_id"] is None
        assert root["attrs"] == {"kind": "outer"}
        assert spans["child"]["parent_id"] == root["span_id"]
        assert spans["sibling"]["parent_id"] == root["span_id"]
        assert spans["grandchild"]["parent_id"] == spans["child"]["span_id"]
        assert len({s["trace_id"] for s in spans.values()}) == 1

    def test_spans_carry_monotonic_timing(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        spans = {s["name"]: s for s in tracer.drain()}
        outer, inner = spans["outer"], spans["inner"]
        assert inner["start_s"] >= outer["start_s"]
        assert inner["duration_s"] >= 0.0
        assert outer["duration_s"] >= inner["duration_s"]

    def test_set_attaches_attributes_to_the_live_span(self):
        tracer = Tracer()
        with tracer.span("work", phase="start") as span:
            span.set(items=3, phase="done")
        (span_dict,) = tracer.drain()
        assert span_dict["attrs"] == {"phase": "done", "items": 3}

    def test_sibling_roots_get_distinct_traces(self):
        tracer = Tracer()
        with tracer.span("first"):
            pass
        with tracer.span("second"):
            pass
        first, second = tracer.drain()
        assert first["trace_id"] != second["trace_id"]


class TestContexts:
    def test_explicit_parent_overrides_ambient_nesting(self):
        tracer = Tracer()
        ctx = tracer.new_context()
        with tracer.span("ambient"):
            with tracer.span("shipped", parent=ctx):
                pass
        spans = {s["name"]: s for s in tracer.drain()}
        assert spans["shipped"]["parent_id"] == ctx[1]
        assert spans["shipped"]["trace_id"] == ctx[0]
        assert spans["shipped"]["trace_id"] != spans["ambient"]["trace_id"]

    def test_record_span_with_preminted_context_resolves_children(self):
        tracer = Tracer()
        batch_ctx = tracer.new_context()
        with tracer.span("replica", parent=batch_ctx):
            pass
        tracer.record_span(
            "batch", start_s=1.0, duration_s=2.0, context=batch_ctx, size=4
        )
        spans = {s["name"]: s for s in tracer.drain()}
        assert spans["batch"]["span_id"] == batch_ctx[1]
        assert spans["replica"]["parent_id"] == spans["batch"]["span_id"]
        assert spans["batch"]["attrs"] == {"size": 4}
        assert spans["batch"]["duration_s"] == 2.0

    def test_new_context_inherits_ambient_trace(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            ctx = tracer.new_context()
            assert ctx[0] == outer.trace_id
            assert tracer.current_context() == outer.context()
        assert tracer.current_context() is None

    def test_ingest_adopts_foreign_spans(self):
        tracer = Tracer()
        foreign = [
            {
                "name": "worker",
                "trace_id": "t",
                "span_id": "s",
                "parent_id": None,
                "start_s": 0.5,
                "duration_s": 0.1,
                "pid": 999,
                "thread": "w",
                "attrs": {},
            }
        ]
        tracer.ingest(foreign)
        assert tracer.spans() == foreign


class TestDisabledPath:
    def test_null_tracer_is_inert(self):
        tracer = NullTracer()
        assert tracer.enabled is False
        with tracer.span("anything", extra=1) as span:
            span.set(more=2)
        assert tracer.new_context() is None
        assert tracer.current_context() is None
        assert tracer.drain() == []
        assert tracer.spans() == []

    def test_null_span_is_shared(self):
        assert NULL_TRACER.span("a") is NULL_TRACER.span("b")

    def test_enable_disable_round_trip(self):
        previous = get_tracer()
        tracer = enable()
        try:
            assert get_tracer() is tracer
            assert tracer.enabled is True
        finally:
            disable()
            assert get_tracer() is NULL_TRACER
            set_tracer(previous)


class TestTimed:
    def test_measures_even_when_disabled(self):
        set_tracer(NULL_TRACER)
        with timed("work", items=2) as t:
            t.set(done=True)
        assert t.duration_s >= 0.0
        assert t.start_s > 0.0

    def test_opens_a_real_span_when_enabled(self):
        tracer = Tracer()
        set_tracer(tracer)
        with timed("work", items=2) as t:
            t.set(done=True)
        (span,) = tracer.drain()
        assert span["name"] == "work"
        assert span["attrs"] == {"items": 2, "done": True}
        assert span["start_s"] == t.start_s
        assert span["duration_s"] == t.duration_s

    def test_forwards_explicit_parent(self):
        tracer = Tracer()
        set_tracer(tracer)
        ctx = tracer.new_context()
        with timed("child", parent=ctx):
            pass
        (span,) = tracer.drain()
        assert span["parent_id"] == ctx[1]


class TestRings:
    def test_ring_is_bounded_per_thread(self):
        tracer = Tracer(capacity=4)
        for index in range(10):
            with tracer.span(f"s{index}"):
                pass
        names = [s["name"] for s in tracer.spans()]
        assert names == ["s6", "s7", "s8", "s9"]

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)

    def test_drain_clears(self):
        tracer = Tracer()
        with tracer.span("once"):
            pass
        assert len(tracer.drain()) == 1
        assert tracer.drain() == []

    def test_threads_collect_into_separate_rings(self):
        tracer = Tracer()

        def work():
            with tracer.span("threaded"):
                pass

        threads = [threading.Thread(target=work) for _ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        with tracer.span("main"):
            pass
        spans = tracer.drain()
        assert len(spans) == 4
        assert len({s["thread"] for s in spans}) == 4


def test_new_ids_are_unique():
    ids = {new_id() for _ in range(1000)}
    assert len(ids) == 1000
