"""Tracer tests: span trees, histogram recording, error capture, and
deterministic timing through an injected SimClock."""

import threading

from repro.obs import tracing
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import (
    SPAN_HISTOGRAM,
    Tracer,
    current_trace_context,
    format_trace,
)
from repro.util.clock import SimClock


def _tracer() -> tuple[Tracer, MetricsRegistry, SimClock]:
    clock = SimClock()
    registry = MetricsRegistry()
    # SimClock is itself the callable clock (calling it reads the time).
    return Tracer(registry, clock=clock), registry, clock


def test_span_durations_from_sim_clock():
    tracer, registry, clock = _tracer()
    with tracer.span("upload"):
        clock.advance(1.0)
        with tracer.span("upload.key_derive", chunks=128):
            clock.advance(0.25)
        with tracer.span("upload.store"):
            clock.advance(0.5)
    root = tracer.last_trace()
    assert root.name == "upload"
    assert root.duration == 1.75
    assert [child.name for child in root.children] == [
        "upload.key_derive",
        "upload.store",
    ]
    assert root.children[0].duration == 0.25
    assert root.children[0].attributes == {"chunks": 128}
    # Every span landed in span_seconds{span=...} with its exact duration.
    hist = registry.get(SPAN_HISTOGRAM)
    assert hist.labels(span="upload.key_derive").sum == 0.25
    assert hist.labels(span="upload").count == 1


def test_error_spans_are_flagged():
    tracer, _, clock = _tracer()
    try:
        with tracer.span("download"):
            clock.advance(0.1)
            raise ValueError("boom")
    except ValueError:
        pass
    root = tracer.last_trace()
    assert root.error == "ValueError"
    assert root.duration == 0.1


def test_record_adds_a_finished_child_without_activating_it():
    tracer, registry, clock = _tracer()
    with tracer.span("upload") as root:
        clock.advance(1.0)
        tracer.record("upload.chunk", 0.25, 1.0)
        with tracer.span("upload.store"):
            clock.advance(0.5)
    assert [child.name for child in root.children] == ["upload.chunk", "upload.store"]
    chunk = root.children[0]
    assert (chunk.start_time, chunk.duration) == (0.25, 0.75)
    assert chunk.tree()["start_time"] == 0.25  # the sim clock is the wall clock too
    assert registry.get(SPAN_HISTOGRAM).labels(span="upload.chunk").sum == 0.75
    assert root.children[1].parent is root


def test_record_outside_a_span_is_a_root():
    tracer, registry, _ = _tracer()
    tracer.record("upload.chunk", 0.0, 0.75)
    assert registry.get(SPAN_HISTOGRAM).labels(span="upload.chunk").sum == 0.75
    assert [root.name for root in tracer.recent_traces()] == ["upload.chunk"]


def test_trace_ring_is_bounded(monkeypatch):
    monkeypatch.setattr(tracing, "TRACE_RING", 3)
    tracer, _, clock = _tracer()
    for index in range(5):
        with tracer.span(f"op-{index}"):
            clock.advance(0.01)
    names = [span.name for span in tracer.recent_traces()]
    assert names == ["op-2", "op-3", "op-4"]


def test_current_span_nesting():
    tracer, _, _ = _tracer()
    assert tracer.current_span() is None
    with tracer.span("outer") as outer:
        assert tracer.current_span() is outer
        with tracer.span("inner") as inner:
            assert tracer.current_span() is inner
        assert tracer.current_span() is outer
    assert tracer.current_span() is None


def test_span_tree_and_format():
    tracer, _, clock = _tracer()
    with tracer.span("root", file_id="f1"):
        clock.advance(0.5)
        with tracer.span("child"):
            clock.advance(0.5)
    tree = tracer.last_trace().tree()
    assert tree["name"] == "root"
    assert tree["attributes"] == {"file_id": "f1"}
    assert tree["children"][0]["name"] == "child"
    text = format_trace(tracer.last_trace())
    assert "root" in text and "  child" in text
    assert "file_id=f1" in text


def test_threads_get_independent_span_stacks():
    tracer, _, _ = _tracer()
    seen = {}

    def worker() -> None:
        # This thread starts with no inherited parent span.
        seen["parent"] = tracer.current_span()
        with tracer.span("thread-op") as span:
            seen["root_is_parentless"] = span.parent is None

    with tracer.span("main-op"):
        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
    assert seen["parent"] is None
    assert seen["root_is_parentless"] is True


def test_spans_carry_trace_and_span_ids():
    tracer, _, clock = _tracer()
    with tracer.span("root") as root:
        clock.advance(0.1)
        with tracer.span("child") as child:
            clock.advance(0.1)
    assert root.trace_id and root.span_id
    assert root.parent_span_id == ""
    assert child.trace_id == root.trace_id
    assert child.parent_span_id == root.span_id
    assert child.span_id != root.span_id
    with tracer.span("other"):
        pass
    assert tracer.last_trace().trace_id != root.trace_id


def test_current_trace_context_reflects_active_span():
    tracer, _, _ = _tracer()
    assert current_trace_context() == ("", "")
    with tracer.span("op") as span:
        assert current_trace_context() == (span.trace_id, span.span_id)
    assert current_trace_context() == ("", "")


def test_tree_includes_absolute_timestamps():
    tracer, _, clock = _tracer()
    clock.advance(100.0)
    with tracer.span("root"):
        clock.advance(2.0)
    tree = tracer.last_trace().tree()
    # The injected SimClock doubles as the wall clock, so the absolute
    # stamps are deterministic.
    assert tree["start_time"] == 100.0
    assert tree["end_time"] == 102.0
    assert tree["duration"] == 2.0
    assert tree["trace_id"] == tracer.last_trace().trace_id
    assert tree["span_id"] and tree["parent_span_id"] == ""


def test_remote_span_continues_propagated_context():
    tracer = Tracer(MetricsRegistry(), node="storage-7")
    with tracer.remote_span("rpc.get", "cafe" * 4, "beef" * 4) as span:
        with tracer.span("rpc.get.inner") as inner:
            pass
    assert span.trace_id == "cafe" * 4
    assert span.parent_span_id == "beef" * 4
    assert span.node == "storage-7"
    # Locally the remote span is a root: it lands in the ring, and
    # nested spans parent under it within the same trace.
    assert tracer.last_trace() is span
    assert inner.trace_id == span.trace_id
    assert inner.parent_span_id == span.span_id


def test_slow_ring_samples_by_threshold(monkeypatch):
    monkeypatch.setattr(tracing, "SLOW_THRESHOLD", 1.0)
    monkeypatch.setattr(tracing, "SLOW_RING", 2)
    clock = SimClock()
    tracer = Tracer(MetricsRegistry(), clock=clock, node="n1")
    with tracer.span("fast"):
        clock.advance(0.5)
    with tracer.span("slow-1", key="v"):
        clock.advance(1.0)
    with tracer.span("outer"):
        with tracer.span("slow-child"):
            clock.advance(3.0)
    entries = tracer.slow_spans()
    # "fast" is under threshold; spans land as they *finish* (child
    # before its enclosing span), and the size-2 ring evicts "slow-1".
    names = [entry["name"] for entry in entries]
    assert names == ["slow-child", "outer"]
    child_entry = entries[0]
    assert child_entry["duration"] == 3.0
    assert child_entry["node"] == "n1"
    assert child_entry["trace_id"] and child_entry["span_id"]
    # Non-root slow spans carry their parent linkage for trace lookup.
    assert child_entry["parent_span_id"]
    assert entries[1]["parent_span_id"] == ""


def test_copy_context_worker_keeps_trace_parent():
    import contextvars

    tracer, _, _ = _tracer()
    seen = {}

    def worker() -> None:
        with tracer.span("shipped") as span:
            seen["parent"] = span.parent

    with tracer.span("root") as root:
        context = contextvars.copy_context()
        thread = threading.Thread(target=context.run, args=(worker,))
        thread.start()
        thread.join()
    assert seen["parent"] is root


def test_two_tracers_do_not_adopt_each_others_spans():
    a, _, _ = _tracer()
    b, _, _ = _tracer()
    with a.span("a-op") as a_span:
        assert b.current_span() is None
        with b.span("b-op") as b_span:
            # b's span is a root of its own trace, not a child of a's...
            assert b_span.parent is None
            # ...but the *context* still propagates: b's span is the
            # active one for RPC injection.
            assert current_trace_context() == (b_span.trace_id, b_span.span_id)
        assert a.current_span() is a_span
