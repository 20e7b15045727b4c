"""Tests for repro.obs.stream: publisher, collector, streaming tracer.

Everything here runs in-process against a plain queue.Queue sink —
the cross-process path is exercised by tests/runner/test_live_batch.py.
"""

import queue

from repro.obs.stream import (
    EVENT_SCHEMA_VERSION,
    EventPublisher,
    NULL_PUBLISHER,
    StreamingTracer,
    TelemetryCollector,
    TraceContext,
    get_publisher,
    use_publisher,
)
from repro.obs.trace import Tracer


def _drain(sink):
    events = []
    while True:
        try:
            events.append(sink.get_nowait())
        except queue.Empty:
            return events


class TestEventPublisher:
    def test_envelope_and_monotonic_seq(self):
        sink = queue.Queue()
        pub = EventPublisher(sink, job="j", index=2)
        pub.hello(attempt=1)
        pub.progress("route.iteration", iteration=3)
        pub.bye(status="ok")
        events = _drain(sink)
        assert [e["ev"] for e in events] == ["hello", "progress", "bye"]
        assert [e["seq"] for e in events] == [1, 2, 3]
        assert all(e["job"] == "j" and "t" in e for e in events)
        assert events[0]["v"] == EVENT_SCHEMA_VERSION
        assert events[0]["index"] == 2

    def test_broken_sink_drops_never_raises(self):
        class Broken:
            def put_nowait(self, event):
                raise RuntimeError("queue torn down")

        pub = EventPublisher(Broken(), job="j")
        pub.hello()
        pub.heartbeat()
        assert pub.dropped == 2

    def test_bye_reports_dropped_count(self):
        sink = queue.Queue(maxsize=1)
        pub = EventPublisher(sink, job="j")
        pub.hello()
        pub.heartbeat()  # full queue -> dropped
        sink.get_nowait()
        pub.bye()
        (bye,) = _drain(sink)
        assert bye["ev"] == "bye" and bye["dropped"] == 1

    def test_silence_stops_all_emission(self):
        sink = queue.Queue()
        pub = EventPublisher(sink, job="j")
        pub.silence()
        pub.hello()
        pub.heartbeat()
        assert _drain(sink) == [] and pub.dropped == 0

    def test_contextvar_default_is_null(self):
        assert get_publisher() is NULL_PUBLISHER
        assert not NULL_PUBLISHER.enabled
        sink = queue.Queue()
        pub = EventPublisher(sink, job="j")
        with use_publisher(pub):
            assert get_publisher() is pub
        assert get_publisher() is NULL_PUBLISHER


class TestTraceContext:
    def test_roundtrip(self):
        ctx = TraceContext(trace_id="t", parent_span_id="s9", span_prefix="j3.")
        assert TraceContext.from_dict(ctx.to_dict()) == ctx

    def test_make_tracer_streams_only_when_publishing(self):
        ctx = TraceContext(trace_id="t", parent_span_id="s9", span_prefix="j0.")
        assert isinstance(ctx.make_tracer(None), Tracer)
        assert not isinstance(ctx.make_tracer(None), StreamingTracer)
        pub = EventPublisher(queue.Queue(), job="j")
        assert isinstance(ctx.make_tracer(pub), StreamingTracer)

    def test_span_ids_identical_with_and_without_streaming(self):
        ctx = TraceContext(trace_id="t", parent_span_id="s9", span_prefix="j0.")

        def spans_of(tracer):
            with tracer.span("batch.job"):
                with tracer.span("flow.route"):
                    pass
            return [(s.span_id, s.parent_id) for s in tracer.iter_spans()]

        plain = spans_of(ctx.make_tracer(None))
        streamed = spans_of(ctx.make_tracer(EventPublisher(queue.Queue(), "j")))
        assert plain == streamed
        assert plain[0] == ("j0.s1", "s9")


class TestTelemetryCollector:
    def _publish_job(self, collector, key="job-a", status="ok"):
        sink = queue.Queue()
        pub = EventPublisher(sink, job=key, index=0)
        pub.hello()
        pub.bye(status=status)
        collector.pump(sink)
        return pub

    def test_seq_gap_counts_dropped(self):
        collector = TelemetryCollector()
        collector.handle({"ev": "hello", "job": "j", "seq": 1,
                          "v": EVENT_SCHEMA_VERSION})
        collector.handle({"ev": "heartbeat", "job": "j", "seq": 5})
        assert collector.jobs["j"].dropped == 3
        assert collector.dropped_events() == 3

    def test_malformed_events_counted_not_raised(self):
        collector = TelemetryCollector()
        collector.handle("not a dict")
        collector.handle({"ev": "hello"})  # no job key
        collector.handle({"ev": "???", "job": "j", "seq": 1})
        assert collector.malformed == 3

    def test_hello_resets_retried_attempt(self):
        collector = TelemetryCollector()
        collector.handle({"ev": "hello", "job": "j", "seq": 1, "attempt": 1,
                          "v": EVENT_SCHEMA_VERSION})
        collector.handle({"ev": "span_open", "job": "j", "seq": 2,
                          "span_id": "j0.s1", "name": "batch.job"})
        collector.handle({"ev": "hello", "job": "j", "seq": 1, "attempt": 2,
                          "v": EVENT_SCHEMA_VERSION})
        state = collector.jobs["j"]
        assert state.attempt == 2 and state.stack == [] and state.last_seq == 1

    def test_schema_version_mismatch_warns(self):
        collector = TelemetryCollector()
        collector.handle({"ev": "hello", "job": "j", "seq": 1, "v": 99})
        assert any("schema" in w for w in collector.warnings)

    def test_mark_done_does_not_override_bye(self):
        collector = TelemetryCollector()
        self._publish_job(collector, status="ok")
        collector.mark_done("job-a", "error")
        assert collector.jobs["job-a"].status == "ok"
        collector.mark_done("job-b", "crashed")
        assert collector.jobs["job-b"].status == "crashed"

    def test_stalled_measures_receive_silence(self):
        collector = TelemetryCollector()
        state = collector.expect("j", index=0)
        assert collector.stalled(10.0, now=state.last_seen + 5.0) == []
        assert [s.key for s in
                collector.stalled(10.0, now=state.last_seen + 11.0)] == ["j"]
        collector.handle({"ev": "bye", "job": "j", "seq": 1, "status": "ok"})
        assert collector.stalled(10.0, now=state.last_seen + 999.0) == []
