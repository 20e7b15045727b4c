"""Integration tests for the live telemetry plane (`run_batch(live=True)`).

The contract under test: streaming is an *observation*, never a
perturbation — a live batch still writes a clean merged run file, span
ids are identical with streaming on or off, workers stream progress
but never span or metrics records, and a heartbeat-silent worker is
caught before the hard timeout.
"""

import io
import queue

from repro.obs import LiveDisplay, Tracer, read_jsonl, use_tracer
from repro.obs.analyze import load_run
from repro.runner import BatchSpec, JobSpec, run_batch
from repro.runner.executor import _mp_context, run_single_job

TINY = dict(circuit="tseng", scale=0.01, width=40)


def _spec(*jobs, **policy):
    return BatchSpec(jobs=tuple(jobs), **policy)


def _quiet_display():
    return LiveDisplay(stream=io.StringIO(), interval_s=0.25)


def _assert_clean_run(path, jobs):
    run = load_run(path)
    assert run.warnings == [] and run.manifest is not None
    assert [root.name for root in run.spans] == ["batch.job"] * jobs


class TestLiveRunFile:
    def test_two_worker_live_run_file_is_clean(self, tmp_path):
        spec = _spec(JobSpec(seed=1, **TINY), JobSpec(seed=2, **TINY),
                     workers=2, timeout_s=120)
        out = str(tmp_path / "run.jsonl")
        batch = run_batch(spec, shard_dir=str(tmp_path / "shards"),
                          metrics_out=out, live=True,
                          display=_quiet_display())
        assert batch.ok
        _assert_clean_run(out, jobs=2)
        assert batch.collector.dropped_events() == 0

    def test_serial_live_run_file_is_clean(self, tmp_path):
        spec = _spec(JobSpec(seed=1, **TINY), workers=1)
        out = str(tmp_path / "run.jsonl")
        batch = run_batch(spec, shard_dir=str(tmp_path / "shards"),
                          metrics_out=out, live=True,
                          display=_quiet_display())
        assert batch.ok
        _assert_clean_run(out, jobs=1)
        assert batch.collector.dropped_events() == 0


class TestStreamPayloads:
    def test_worker_streams_no_records_or_metrics(self):
        events = _mp_context().Queue()
        result = run_single_job(JobSpec(seed=1, **TINY), timeout_s=120,
                                event_queue=events)
        assert result.ok
        # A tiny job streams ~8 KB, far below a pipe buffer, so reading
        # the queue only after the worker exited cannot deadlock.
        streamed = []
        while not streamed or streamed[-1]["ev"] != "bye":
            try:
                streamed.append(events.get(timeout=10))
            except queue.Empty:
                break
        kinds = {event["ev"] for event in streamed}
        assert {"hello", "span_open", "span_close", "bye"} <= kinds
        assert all("record" not in event and "metrics" not in event
                   for event in streamed)
        bye = streamed[-1]
        assert bye["ev"] == "bye"
        assert bye["status"] == "ok" and bye["dropped"] == 0


class TestTraceTreeConsistency:
    def test_four_worker_span_ids_form_one_tree(self, tmp_path):
        spec = _spec(*(JobSpec(seed=s, **TINY) for s in (1, 2, 3, 4)),
                     workers=4, timeout_s=240)
        out = str(tmp_path / "run.jsonl")
        tracer = Tracer()
        with use_tracer(tracer):
            batch = run_batch(spec, shard_dir=str(tmp_path / "shards"),
                              metrics_out=out, live=True,
                              display=_quiet_display())
        assert batch.ok
        (batch_span,) = tracer.find("batch.run")
        records = read_jsonl(out)
        roots = [r for r in records if r.get("type") == "span"]
        assert len(roots) == 4
        # Every job's root hangs under the supervisor's batch.run span
        # and carries its own "j<i>." id namespace.
        assert {r["parent_id"] for r in roots} == {batch_span.span_id}
        assert sorted(r["span_id"] for r in roots) == [
            f"j{i}.s1" for i in range(4)]

        seen = set()

        def walk(node, prefix):
            assert node["span_id"].startswith(prefix)
            assert node["span_id"] not in seen
            seen.add(node["span_id"])
            for child in node.get("children", []):
                assert child["parent_id"] == node["span_id"]
                walk(child, prefix)

        for root in sorted(roots, key=lambda r: r["span_id"]):
            prefix = root["span_id"].split("s")[0]
            walk(root, prefix)

    def test_span_ids_unchanged_by_streaming(self, tmp_path):
        spec = _spec(JobSpec(seed=1, **TINY), JobSpec(seed=2, **TINY),
                     workers=2, timeout_s=120)

        def span_ids(live, sub):
            out = str(tmp_path / sub / "run.jsonl")
            run_batch(spec, shard_dir=str(tmp_path / sub),
                      metrics_out=out, live=live,
                      display=_quiet_display() if live else None)
            return [(r["span_id"], r["parent_id"])
                    for r in read_jsonl(out) if r.get("type") == "span"]

        assert span_ids(True, "live") == span_ids(False, "dark")


class TestStallDetection:
    def test_stalled_worker_soft_killed_before_hard_timeout(self, tmp_path):
        hard_timeout = 120.0
        spec = _spec(JobSpec(seed=1, **TINY),
                     JobSpec(seed=2, fault="stall", **TINY),
                     workers=2, timeout_s=hard_timeout, retries=0)
        batch = run_batch(spec, shard_dir=str(tmp_path),
                          live=True, display=_quiet_display(),
                          stall_after_s=1.5, stall_kill=True)
        healthy, stalled = batch.results
        assert healthy.status == "ok"
        assert stalled.status == "stalled"
        assert "heartbeat" in stalled.error
        assert batch.wall_s < hard_timeout / 2

    def test_stall_flagged_but_not_killed_without_opt_in(self, tmp_path):
        spec = _spec(JobSpec(seed=1, fault="stall", **TINY),
                     JobSpec(seed=2, **TINY),
                     workers=2, timeout_s=8.0, retries=0)
        batch = run_batch(spec, shard_dir=str(tmp_path),
                          live=True, display=_quiet_display(),
                          stall_after_s=1.0, stall_kill=False)
        # Without stall_kill the hard timeout still owns the verdict.
        assert batch.results[0].status == "timeout"


class TestLiveProfile:
    def test_profile_lands_collapsed_stacks_on_job_roots(self, tmp_path):
        spec = _spec(JobSpec(seed=1, **TINY), workers=1)
        out = str(tmp_path / "run.jsonl")
        batch = run_batch(spec, shard_dir=str(tmp_path / "shards"),
                          metrics_out=out, live=True,
                          display=_quiet_display(), profile=True)
        assert batch.ok
        (root,) = [r for r in read_jsonl(out) if r.get("type") == "span"]
        profile = root["attrs"]["profile"]
        assert profile["samples"] > 0
        assert profile["stacks"] and all(
            isinstance(c, int) and c > 0 for c in profile["stacks"].values())


class TestCollectorState:
    def test_collector_reports_final_statuses(self, tmp_path):
        spec = _spec(JobSpec(seed=1, **TINY),
                     JobSpec(seed=2, fault="fail", **TINY),
                     workers=2, timeout_s=120, retries=0)
        batch = run_batch(spec, shard_dir=str(tmp_path),
                          live=True, display=_quiet_display())
        statuses = {s.key: s.status for s in batch.collector.jobs.values()}
        assert statuses == {r.key: r.status for r in batch.results}
        assert all(s.done for s in batch.collector.jobs.values())
