"""Batch execution: fan a `BatchSpec` over a worker-process pool.

Design choices, in the order they matter:

*Determinism first.*  Jobs are independent (each worker recomputes or
inherits its inputs; nothing flows between jobs), launched in spec
order, and reported in spec order — completion order never leaks into
results or merged telemetry.  The executor's promise, enforced by
``tests/runner/test_determinism.py``: `run_batch` with N workers is
bit-identical to `run_batch` with 1 worker.

*Process-per-job.*  Each job attempt is one short-lived
`multiprocessing.Process` writing its result and telemetry shard as
files.  Compared to a persistent pool this costs one fork per job —
noise next to a P&R run — and buys clean failure semantics: a crash
is a dead process with no result file (relaunch, bounded by
``retries``), a timeout is a deadline passed (terminate + kill), and
neither can poison a shared worker or deadlock a result queue.

*Fork pre-warm.*  On fork platforms the parent pre-builds netlists,
packings and fixed-width FabricIRs before launching anything; workers
inherit them copy-on-write and start at placement.  Under spawn the
same code runs with cold caches — slower, never different.

``workers=1`` degrades gracefully: jobs run in-process through the
same `run_job` path and write the same shard files, so the serial arm
of any comparison exercises the identical code and produces the
identical merged-telemetry structure.
"""

from __future__ import annotations

import dataclasses
import hashlib
import multiprocessing
import os
import shutil
import tempfile
import time
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..obs import (
    SCHEMA_VERSION,
    EventPublisher,
    LiveDisplay,
    MetricsRegistry,
    TelemetryCollector,
    TraceContext,
    get_logger,
    get_tracer,
    kv,
    merge_shards,
    run_manifest,
    telemetry_records,
    write_jsonl,
)
from .spec import BatchSpec, JobResult, JobSpec
from .worker import job_process_main, prewarm_job, run_job

_log = get_logger("runner.executor")

#: Poll interval for the supervision loop (s).  Jobs are seconds-long;
#: 20 ms keeps latency negligible without busy-waiting.
_POLL_S = 0.02

#: Base delay before relaunching a crashed attempt (s).  Small enough
#: that a single flaky crash costs nothing noticeable, large enough
#: that a correlated crash burst (OOM killer, full disk) does not
#: relaunch every victim in the same scheduler tick.
DEFAULT_RETRY_BACKOFF_S = 0.05


def retry_delay_s(key: str, retry: int,
                  base_s: float = DEFAULT_RETRY_BACKOFF_S) -> float:
    """Deterministic seeded-jitter backoff before crash-retry ``retry``.

    Exponential in the retry number with a jitter factor in [0.5, 1.5)
    drawn from sha256(job key, retry) — a pure function of the job and
    the attempt, so two runs of the same batch back off identically
    (retried results stay bit-identical and schedules reproducible)
    while distinct jobs crashing together spread out instead of
    relaunching in lockstep.
    """
    if retry < 1:
        return 0.0
    digest = hashlib.sha256(f"{key}\x00{retry}".encode("utf-8")).digest()
    jitter = 0.5 + int.from_bytes(digest[:8], "big") / 2.0 ** 64
    return base_s * (2.0 ** (retry - 1)) * jitter


@dataclasses.dataclass
class BatchResult:
    """Everything one batch execution produced.

    Attributes:
        results: One `JobResult` per job, in spec order.
        wall_s: Whole-batch wall time.
        workers: Worker processes actually used.
        metrics_path: Merged schema-v1 run file, when telemetry was
            requested.
        shard_dir: Where per-job shards/results were written; None
            when `run_batch` made a temporary directory itself (it is
            removed before returning).
        collector: The live `TelemetryCollector`, when ``live`` was on.
        ingest: The warehouse `IngestResult` when ``ingest_db`` was
            given (None otherwise).
        cached: Keys served straight from the result store (their jobs
            never executed), in spec order.
        store_stats: Supervisor-side store counters for this batch
            (``hits``/``misses``/``published``) when a store was in
            play, else None.
    """

    results: List[JobResult]
    wall_s: float
    workers: int
    metrics_path: Optional[str] = None
    shard_dir: Optional[str] = None
    collector: Optional[TelemetryCollector] = None
    ingest: Optional[object] = None
    cached: List[str] = dataclasses.field(default_factory=list)
    store_stats: Optional[Dict[str, int]] = None

    @property
    def ok(self) -> bool:
        return all(result.ok for result in self.results)

    def by_key(self) -> Dict[str, JobResult]:
        return {result.key: result for result in self.results}

    def summary(self) -> Dict[str, object]:
        statuses: Dict[str, int] = {}
        for result in self.results:
            statuses[result.status] = statuses.get(result.status, 0) + 1
        summary: Dict[str, object] = {
            "jobs": len(self.results),
            "ok": statuses.get("ok", 0),
            "statuses": statuses,
            "wall_s": self.wall_s,
            "workers": self.workers,
            "success": self.ok,
        }
        if self.store_stats is not None:
            summary["cached"] = len(self.cached)
            summary["store"] = dict(self.store_stats)
        return summary


def _mp_context():
    """Fork where available (pre-warm inheritance), spawn otherwise."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


@dataclasses.dataclass
class _Attempt:
    """One live worker process and its bookkeeping."""

    index: int
    spec: JobSpec
    attempt: int
    process: object
    started: float
    deadline: Optional[float]


def _shard_path(shard_dir: str, index: int) -> str:
    return os.path.join(shard_dir, f"job-{index:04d}.jsonl")


def _result_path(shard_dir: str, index: int) -> str:
    return os.path.join(shard_dir, f"job-{index:04d}.result.jsonl")


def _read_result(path: str) -> Optional[JobResult]:
    from ..obs import read_jsonl

    try:
        records = read_jsonl(path, strict=False)
    except OSError:
        return None
    return JobResult.from_dict(records[0]) if records else None


def _job_trace(trace_id: str, parent_span_id: Optional[str],
               index: int) -> TraceContext:
    """Span-identity context for job ``index`` — always applied, live
    or not, so span ids never depend on whether anyone is watching."""
    return TraceContext(trace_id=trace_id, parent_span_id=parent_span_id,
                        span_prefix=f"j{index}.")


def _cached_shard_records(spec: JobSpec, result: JobResult,
                          trace: TraceContext) -> List[Dict[str, object]]:
    """Shard-equivalent records for a store cache hit.

    A hit skips execution, but reports and the warehouse still expect
    one ``batch.job`` span per job — so the supervisor emits a
    *synthetic* one, built through the real tracer/registry machinery
    (same record shape and span ids as an executed job: ``j<i>.s1``),
    flagged ``cached=True`` with ``attempt=0``.  The metrics snapshot
    carries a ``store.hits`` counter, so merged run counters sum to
    the batch's hit count.
    """
    tracer = trace.make_tracer(None)
    registry = MetricsRegistry()
    registry.counter("store.hits").inc()
    with tracer.span("batch.job", job=spec.key, circuit=spec.circuit,
                     variant=spec.variant, seed=spec.seed, attempt=0,
                     cached=True) as span:
        span.set_many(status=result.status,
                      wirelength=result.qor.get("wirelength"))
    return telemetry_records(manifest=None, tracer=tracer, registry=registry)


def _run_serial(
    spec: BatchSpec,
    shard_dir: str,
    progress: Optional[Callable[[JobResult, int, int], None]],
    trace_id: str,
    parent_span_id: Optional[str],
    collector: Optional[TelemetryCollector] = None,
    display: Optional[LiveDisplay] = None,
    profile: bool = False,
    heartbeat_s: float = 0.2,
    store=None,
    skip: Optional[Set[int]] = None,
    done_base: int = 0,
    backoff_base_s: float = DEFAULT_RETRY_BACKOFF_S,
) -> Dict[int, JobResult]:
    # In-process streaming goes through a thread-safe local queue (the
    # heartbeat daemon is the second producer) pumped between jobs —
    # workers=1 gets the same event plane, just with coarser refresh.
    import queue as queue_mod

    sink = queue_mod.Queue() if collector is not None else None
    results: Dict[int, JobResult] = {}
    done = done_base
    for index, job in enumerate(spec.jobs):
        if skip and index in skip:
            continue
        trace = _job_trace(trace_id, parent_span_id, index)
        attempt, result, publisher = 1, None, None
        while True:
            if collector is not None:
                collector.expect(job.key, index)
                publisher = EventPublisher(sink, job=job.key, index=index)
            try:
                result, records = run_job(job, attempt=attempt, trace=trace,
                                          publisher=publisher,
                                          profile=profile,
                                          heartbeat_s=heartbeat_s,
                                          store=store)
            except SystemExit:
                # In-process stand-in for a worker crash (fault
                # injection); honour the retry budget like the pool.
                result, records = None, None
            if result is not None or attempt > spec.retries:
                break
            attempt += 1
            time.sleep(retry_delay_s(job.key, attempt - 1, backoff_base_s))
        if result is None:
            result = JobResult(key=job.key, status="crashed",
                               error="worker exited without a result",
                               attempts=attempt)
            records = []
        write_jsonl(_shard_path(shard_dir, index), records or [])
        if records and publisher is not None:
            publisher.bye(status=result.status)
        if collector is not None:
            collector.pump(sink)
            collector.mark_done(job.key, result.status)
            if display is not None:
                display.tick(collector)
        results[index] = result
        done += 1
        if progress is not None:
            progress(result, done, len(spec.jobs))
    return results


def _run_pool(
    spec: BatchSpec,
    shard_dir: str,
    workers: int,
    progress: Optional[Callable[[JobResult, int, int], None]],
    trace_id: str,
    parent_span_id: Optional[str],
    collector: Optional[TelemetryCollector] = None,
    display: Optional[LiveDisplay] = None,
    profile: bool = False,
    heartbeat_s: float = 0.2,
    stall_after_s: Optional[float] = None,
    stall_kill: bool = False,
    store_doc: Optional[Dict[str, object]] = None,
    skip: Optional[Set[int]] = None,
    done_base: int = 0,
    backoff_base_s: float = DEFAULT_RETRY_BACKOFF_S,
) -> Dict[int, JobResult]:
    ctx = _mp_context()
    event_queue = ctx.Queue() if collector is not None else None
    # Pending entries carry a not-before instant: 0.0 for fresh jobs,
    # the seeded-jitter backoff deadline for crash retries.
    pending: List[Tuple[int, JobSpec, int, float]] = [
        (index, job, 1, 0.0) for index, job in enumerate(spec.jobs)
        if not (skip and index in skip)
    ]
    pending.reverse()  # popping from the tail serves jobs in spec order
    running: List[_Attempt] = []
    results: Dict[int, JobResult] = {}
    done = done_base

    def pop_ready() -> Optional[Tuple[int, JobSpec, int]]:
        now = time.perf_counter()
        for slot in range(len(pending) - 1, -1, -1):
            index, job, attempt, not_before = pending[slot]
            if not_before <= now:
                del pending[slot]
                return index, job, attempt
        return None

    def launch(index: int, job: JobSpec, attempt: int) -> None:
        trace = _job_trace(trace_id, parent_span_id, index)
        process = ctx.Process(
            target=job_process_main,
            args=(job.to_dict(), attempt,
                  _result_path(shard_dir, index), _shard_path(shard_dir, index)),
            kwargs={"trace_doc": trace.to_dict(), "event_queue": event_queue,
                    "profile": profile, "heartbeat_s": heartbeat_s,
                    "index": index, "store_doc": store_doc},
            daemon=True,
        )
        process.start()
        now = time.perf_counter()
        deadline = now + spec.timeout_s if spec.timeout_s is not None else None
        if collector is not None:
            collector.expect(job.key, index)
        running.append(_Attempt(index=index, spec=job, attempt=attempt,
                                process=process, started=now, deadline=deadline))

    def settle(attempt: _Attempt, result: Optional[JobResult],
               failure: str, error: str) -> None:
        nonlocal done
        if result is None and failure == "crashed" and attempt.attempt <= spec.retries:
            delay = retry_delay_s(attempt.spec.key, attempt.attempt,
                                  backoff_base_s)
            _log.info("retrying job %s", kv(job=attempt.spec.key,
                                            attempt=attempt.attempt + 1,
                                            backoff_s=round(delay, 4)))
            pending.append((attempt.index, attempt.spec, attempt.attempt + 1,
                            time.perf_counter() + delay))
            return
        if result is None:
            result = JobResult(key=attempt.spec.key, status=failure,
                               error=error, attempts=attempt.attempt,
                               wall_s=time.perf_counter() - attempt.started)
        if collector is not None:
            collector.mark_done(attempt.spec.key, result.status)
        results[attempt.index] = result
        done += 1
        if progress is not None:
            progress(result, done, len(spec.jobs))

    def soft_kill(attempt: _Attempt, failure: str, error: str) -> None:
        process = attempt.process
        process.terminate()
        process.join(1.0)
        if process.is_alive():  # pragma: no cover - stubborn child
            process.kill()
            process.join()
        settle(attempt, None, failure, error)

    while pending or running:
        while pending and len(running) < workers:
            ready = pop_ready()
            if ready is None:  # everything launchable is backing off
                break
            launch(*ready)
        time.sleep(_POLL_S)
        stalled_keys: set = set()
        if collector is not None:
            collector.pump(event_queue)
            if stall_after_s is not None:
                stalled_keys = {state.key
                                for state in collector.stalled(stall_after_s)}
            if display is not None:
                display.tick(collector)
        still_running: List[_Attempt] = []
        for attempt in running:
            process = attempt.process
            if not process.is_alive():
                process.join()
                # The atomically-replaced result file is the commit
                # point: if it parses, the job finished — a nonzero
                # exit after that is interpreter-teardown noise.
                result = _read_result(_result_path(shard_dir, attempt.index))
                if result is not None:
                    settle(attempt, result, "", "")
                else:
                    settle(attempt, None, "crashed",
                           f"worker exited with code {process.exitcode} "
                           "before writing a result")
            elif attempt.deadline is not None and time.perf_counter() > attempt.deadline:
                soft_kill(attempt, "timeout",
                          f"job exceeded timeout of {spec.timeout_s:g}s")
            elif stall_kill and attempt.spec.key in stalled_keys:
                _log.info("stall-killing job %s",
                          kv(job=attempt.spec.key,
                             silent_s=round(stall_after_s, 3)))
                soft_kill(attempt, "stalled",
                          f"no telemetry heartbeat for {stall_after_s:g}s "
                          "(soft-killed before the hard timeout)")
            else:
                still_running.append(attempt)
        running = still_running
    if collector is not None:
        # Late events (a bye racing the process exit) are still queued.
        collector.pump(event_queue)
        if display is not None:
            display.tick(collector, force=True)
    return results


def run_batch(
    spec: BatchSpec,
    workers: Optional[int] = None,
    shard_dir: Optional[str] = None,
    metrics_out: Optional[str] = None,
    manifest_extra: Optional[Dict[str, object]] = None,
    progress: Optional[Callable[[JobResult, int, int], None]] = None,
    prewarm: bool = True,
    live: bool = False,
    profile: bool = False,
    display: Optional[LiveDisplay] = None,
    heartbeat_s: float = 0.2,
    stall_after_s: Optional[float] = None,
    stall_kill: bool = False,
    ingest_db: Optional[str] = None,
    store=None,
    retry_backoff_s: float = DEFAULT_RETRY_BACKOFF_S,
) -> BatchResult:
    """Execute a batch; results come back in spec order.

    Args:
        spec: The job matrix + execution policy.
        workers: Override ``spec.workers``.
        shard_dir: Directory for per-job shard/result files (when
            omitted, a temporary directory is created and removed
            again before returning).
        metrics_out: Write the merged schema-v1 telemetry run here.
        manifest_extra: Extra manifest fields for the merged run.
        progress: Callback ``(result, done, total)`` per finished job.
        prewarm: Build netlists/packings/fixed-width fabrics in the
            parent before launching workers (fork platforms inherit
            them; harmless elsewhere).
        live: Stream worker telemetry to a supervisor-side
            `TelemetryCollector` (returned on the result) and refresh
            a `LiveDisplay` while jobs run.
        profile: Attach the sampling profiler to every job's root span.
        display: Live view override (defaults to stderr when ``live``).
        heartbeat_s: Worker heartbeat interval.
        stall_after_s: Flag a worker whose stream has been silent this
            long; with ``stall_kill`` it is terminated with status
            ``"stalled"`` instead of waiting for the hard timeout.
        stall_kill: Soft-kill flagged stalled workers (pool mode only).
        ingest_db: Ingest the merged run into this telemetry warehouse
            (sqlite, see `repro.obs.store`) after the shard merge;
            needs ``metrics_out``.  Idempotent per run content.
        store: A `repro.store.ResultStore` (or a path, opened with the
            current code digest).  Jobs whose result is already stored
            are *not executed*: the supervisor settles them up front
            with a synthetic ``batch.job`` span (``cached=True``) so
            reports, telemetry and the live stream stay coherent, and
            the cached `JobResult` is returned bit-identical to a
            recomputed one.  Fresh cacheable results are published
            back after the run; when the store carries size bounds,
            GC runs once after publication.
        retry_backoff_s: Base for the deterministic seeded-jitter
            backoff before crash retries (`retry_delay_s`).
    """
    workers = spec.workers if workers is None else workers
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if ingest_db and not metrics_out:
        raise ValueError("ingest_db needs metrics_out (nothing to ingest)")
    workers = min(workers, len(spec.jobs))
    own_shard_dir = shard_dir is None
    if own_shard_dir:
        shard_dir = tempfile.mkdtemp(prefix="repro-batch-")
    os.makedirs(shard_dir, exist_ok=True)
    try:
        collector = TelemetryCollector() if live else None
        if live and display is None:
            display = LiveDisplay(stall_after_s=stall_after_s)
        if isinstance(store, str):
            from ..store import ResultStore

            store = ResultStore(store)

        start = time.perf_counter()
        # Store precheck, before any prewarm: a warm store turns the whole
        # batch into lookups, so the parent-side warm-up need only
        # cover jobs that will actually execute.
        cached: Dict[int, JobResult] = {}
        if store is not None:
            for index, job in enumerate(spec.jobs):
                hit = store.get(job)
                if hit is not None:
                    cached[index] = hit
        if prewarm:
            seen = set()
            for index, job in enumerate(spec.jobs):
                warm_key = (job.circuit, job.scale, job.width, job.arch)
                if warm_key in seen or job.fault or index in cached:
                    continue
                seen.add(warm_key)
                prewarm_job(job)
        _log.info("batch start %s", kv(jobs=len(spec.jobs), workers=workers,
                                       shard_dir=shard_dir, live=live,
                                       cached=len(cached)))
        trace_id = f"batch-{spec.digest[:12]}"
        with get_tracer().span("batch.run", trace=trace_id, jobs=len(spec.jobs),
                               workers=workers, cached=len(cached)) as batch_span:
            parent_span_id = batch_span.span_id
            # Settle cache hits first, in spec order: a synthetic shard
            # on disk for the merge, a ``cached`` mark for live watchers.
            done = 0
            for index in sorted(cached):
                job, result = spec.jobs[index], cached[index]
                write_jsonl(_shard_path(shard_dir, index),
                            _cached_shard_records(job, result, _job_trace(
                                trace_id, parent_span_id, index)))
                if collector is not None:
                    collector.mark_cached(job.key, result.status, index)
                    if display is not None:
                        display.tick(collector)
                done += 1
                if progress is not None:
                    progress(result, done, len(spec.jobs))
            skip = set(cached)
            workers = max(1, min(workers, len(spec.jobs) - len(cached))) \
                if len(cached) < len(spec.jobs) else 1
            if workers == 1:
                executed = _run_serial(spec, shard_dir, progress,
                                       trace_id, parent_span_id,
                                       collector=collector, display=display,
                                       profile=profile, heartbeat_s=heartbeat_s,
                                       store=store, skip=skip, done_base=done,
                                       backoff_base_s=retry_backoff_s)
            else:
                executed = _run_pool(spec, shard_dir, workers, progress,
                                     trace_id, parent_span_id,
                                     collector=collector, display=display,
                                     profile=profile, heartbeat_s=heartbeat_s,
                                     stall_after_s=stall_after_s,
                                     stall_kill=stall_kill,
                                     store_doc=store.to_doc() if store else None,
                                     skip=skip, done_base=done,
                                     backoff_base_s=retry_backoff_s)
        by_index = dict(cached)
        by_index.update(executed)
        results = [by_index[index] for index in range(len(spec.jobs))]
        published = 0
        if store is not None:
            for index, result in executed.items():
                try:
                    if store.put(spec.jobs[index], result):
                        published += 1
                except (OSError, ValueError):  # pragma: no cover - a full
                    # disk must degrade to an unwarmed store, not a failure
                    pass
            if store.max_bytes is not None or store.max_entries is not None:
                store.gc()
        wall_s = time.perf_counter() - start
        if display is not None and collector is not None:
            display.close(collector)

        store_stats = None
        if store is not None:
            store_stats = {"hits": len(cached),
                           "misses": len(executed),
                           "published": published}
        metrics_path = None
        ingest = None
        if metrics_out:
            batch_doc: Dict[str, object] = {
                "jobs": len(spec.jobs),
                "workers": workers,
                "spec_digest": spec.digest,
                "job_keys": [job.key for job in spec.jobs],
            }
            if store_stats is not None:
                batch_doc["store"] = {**store_stats, "code": store.code[:12]}
            manifest = run_manifest(extra={
                "batch": batch_doc,
                **(manifest_extra or {}),
            })
            shard_paths = [_shard_path(shard_dir, i) for i in range(len(spec.jobs))]
            merge_shards(shard_paths, manifest, metrics_out)
            metrics_path = metrics_out
            if ingest_db:
                # Imported here, not at module top: the warehouse pulls in
                # the whole analyze layer, which workers never need.
                from ..obs import store

                con = store.connect(ingest_db)
                try:
                    ingest = store.ingest_file(con, metrics_out, label="batch")
                finally:
                    con.close()
                _log.info("batch telemetry ingested %s",
                          kv(db=ingest_db, run_id=ingest.run_id,
                             inserted=ingest.inserted,
                             digest=ingest.digest[:12]))
        _log.info("batch done %s", kv(jobs=len(spec.jobs), wall_s=round(wall_s, 3),
                                      ok=sum(r.ok for r in results),
                                      cached=len(cached)))
        return BatchResult(results=results, wall_s=wall_s, workers=workers,
                           metrics_path=metrics_path,
                           shard_dir=None if own_shard_dir else shard_dir,
                           collector=collector, ingest=ingest,
                           cached=[spec.jobs[i].key for i in sorted(cached)],
                           store_stats=store_stats)
    finally:
        if own_shard_dir:
            shutil.rmtree(shard_dir, ignore_errors=True)


def run_single_job(
    spec: JobSpec,
    timeout_s: Optional[float] = None,
    retries: int = 0,
    shard_dir: Optional[str] = None,
    index: int = 0,
    trace: Optional[TraceContext] = None,
    event_queue=None,
    store=None,
    profile: bool = False,
    heartbeat_s: float = 0.2,
    retry_backoff_s: float = DEFAULT_RETRY_BACKOFF_S,
) -> JobResult:
    """Execute one job in a worker process; the serve dispatch path.

    The same process-per-attempt contract as `_run_pool`, minus the
    batching: crash means relaunch (bounded by ``retries``, after the
    seeded backoff), timeout means terminate + ``"timeout"``.  The
    worker gets the store handle (``store``) so a result published
    between enqueue and execution — another client's identical job
    finishing first — is still honoured, and it publishes its own
    fresh result back.  ``event_queue`` receives the worker's live
    telemetry events for the caller to pump into a collector.  When
    ``shard_dir`` is omitted the job's files go to a temporary
    directory that is removed before returning.
    """
    if isinstance(store, str):
        from ..store import ResultStore

        store = ResultStore(store)
    if store is not None:
        hit = store.get(spec)
        if hit is not None:
            return hit
    own_shard_dir = shard_dir is None
    if own_shard_dir:
        shard_dir = tempfile.mkdtemp(prefix="repro-job-")
    os.makedirs(shard_dir, exist_ok=True)
    try:
        ctx = _mp_context()
        trace = trace or TraceContext(trace_id=f"job-{spec.key}",
                                      span_prefix=f"j{index}.")
        attempt = 1
        while True:
            result_path = _result_path(shard_dir, index)
            try:
                os.remove(result_path)
            except OSError:
                pass
            process = ctx.Process(
                target=job_process_main,
                args=(spec.to_dict(), attempt, result_path,
                      _shard_path(shard_dir, index)),
                kwargs={"trace_doc": trace.to_dict(), "event_queue": event_queue,
                        "profile": profile, "heartbeat_s": heartbeat_s,
                        "index": index,
                        "store_doc": store.to_doc() if store else None},
                daemon=True,
            )
            process.start()
            deadline = (time.perf_counter() + timeout_s
                        if timeout_s is not None else None)
            started = time.perf_counter()
            while process.is_alive():
                if deadline is not None and time.perf_counter() > deadline:
                    process.terminate()
                    process.join(1.0)
                    if process.is_alive():  # pragma: no cover - stubborn child
                        process.kill()
                        process.join()
                    return JobResult(
                        key=spec.key, status="timeout",
                        error=f"job exceeded timeout of {timeout_s:g}s",
                        attempts=attempt,
                        wall_s=time.perf_counter() - started)
                time.sleep(_POLL_S)
            process.join()
            # Result-file existence is the commit point (see _run_pool).
            result = _read_result(result_path)
            if result is not None:
                return result
            if attempt > retries:
                return JobResult(
                    key=spec.key, status="crashed",
                    error=f"worker exited with code {process.exitcode} "
                          "before writing a result",
                    attempts=attempt,
                    wall_s=time.perf_counter() - started)
            time.sleep(retry_delay_s(spec.key, attempt, retry_backoff_s))
            attempt += 1
    finally:
        if own_shard_dir:
            shutil.rmtree(shard_dir, ignore_errors=True)


# Re-exported for manifest consumers (`repro batch --json` embeds it).
__all__ = ["BatchResult", "run_batch", "run_single_job", "retry_delay_s",
           "SCHEMA_VERSION"]
