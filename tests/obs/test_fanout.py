"""Tests for the collector's subscriber fan-out and store-hit marking
(`mark_cached`) — the paths `repro serve` and warm-store batches lean
on.
"""

import queue

from repro.obs.stream import EventPublisher, TelemetryCollector


def _events_for(collector, key="j", index=0):
    sink = queue.Queue()
    pub = EventPublisher(sink, job=key, index=index)
    collector.expect(key, index)
    pub.hello(attempt=1)
    pub.progress("route.iteration", iteration=1)
    pub.bye(status="ok")
    while True:
        try:
            collector.handle(sink.get_nowait())
        except queue.Empty:
            return


class TestFanOut:
    def test_subscribers_see_every_wellformed_event(self):
        collector = TelemetryCollector()
        seen = []
        collector.add_subscriber(seen.append)
        _events_for(collector)
        assert [e["ev"] for e in seen] == ["hello", "progress", "bye"]

    def test_malformed_events_are_not_fanned_out(self):
        collector = TelemetryCollector()
        seen = []
        collector.add_subscriber(seen.append)
        collector.handle({"no": "envelope"})
        assert collector.malformed == 1
        assert seen == []

    def test_raising_subscriber_is_dropped_not_fatal(self):
        collector = TelemetryCollector()
        healthy = []

        def broken(_event):
            raise RuntimeError("slow consumer fell over")

        collector.add_subscriber(broken)
        collector.add_subscriber(healthy.append)
        _events_for(collector)
        assert len(healthy) == 3  # the healthy one kept receiving

    def test_remove_subscriber(self):
        collector = TelemetryCollector()
        seen = []
        collector.add_subscriber(seen.append)
        collector.remove_subscriber(seen.append)
        _events_for(collector)
        assert seen == []


class TestMarkCached:
    def test_cached_job_reads_as_done(self):
        collector = TelemetryCollector()
        collector.mark_cached("j", "ok", index=3)
        state = collector.jobs["j"]
        assert state.done and state.status == "ok" and state.index == 3
        assert collector.stalled(0.0, now=state.last_seen + 999.0) == []

    def test_mark_cached_fans_out_a_cached_event(self):
        collector = TelemetryCollector()
        seen = []
        collector.add_subscriber(seen.append)
        collector.mark_cached("j", "ok")
        assert len(seen) == 1
        assert seen[0]["ev"] == "cached" and seen[0]["job"] == "j"
