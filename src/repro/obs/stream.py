"""Live telemetry streaming: the worker -> supervisor event plane.

Batch workers publish progress as it happens — span opens and closes,
per-stage progress deltas (PathFinder iterations, Wmin probes,
repair-ladder rungs), periodic heartbeats — over a multiprocessing
queue to a supervisor-side `TelemetryCollector`.  The stream feeds the
live table (`repro.obs.live`), stall detection and `repro serve`'s
``/events`` fan-out; it is *not* a second source of the run model.
The schema-v1 run file is assembled in one place only, the post-hoc
shard merge (`repro.obs.shards.merge_shards`), because the stream is
lossy by design and non-live batches need the shard files anyway.

Wire format (one plain-JSON dict per event, picklable, versioned):

* common envelope: ``ev`` (type), ``job`` (job key), ``seq``
  (per-publisher, 1-based, gap = dropped events), ``t`` (wall clock);
* ``hello``      — first event per attempt: ``v`` (schema), ``pid``,
  ``index`` (spec order), ``attempt``;
* ``span_open``  — ``span_id``, ``name``, ``parent_id``;
* ``span_close`` — ``span_id``, ``name``, ``status``, ``duration_s``;
* ``progress``   — ``kind`` plus free-form fields;
* ``metric``     — ``name``/``value`` delta;
* ``heartbeat``  — ``stage`` (innermost open span), ``rss_kb``;
* ``bye``        — last event: ``status`` and the publisher-side
  ``dropped`` count.

Publishing is strictly best-effort: a full queue drops the event and
bumps a counter rather than ever blocking a P&R run, and the default
publisher is an inert `NullPublisher` behind the same contextvar
pattern as the null tracer, so uninstrumented callers pay one
attribute check per call site.

Trace context crosses the process boundary as a `TraceContext`: the
supervisor assigns each job a span-id prefix (``"j3."``) and the batch
span's id as root parent, so the span ids of an N-worker batch form
one consistent tree — and, because the context is applied whether or
not streaming is on, identical ids either way.
"""

from __future__ import annotations

import contextlib
import contextvars
import dataclasses
import os
import threading
import time
from typing import Dict, Iterator, List, Optional

from .trace import Span, Tracer, peak_rss_kb

#: Bump when the event envelope or a payload shape changes
#: incompatibly.  Independent of the run-model SCHEMA_VERSION: the
#: stream is a transport, the run model is the artefact.
EVENT_SCHEMA_VERSION = 2


@dataclasses.dataclass(frozen=True)
class TraceContext:
    """Cross-process span-identity context, supervisor -> worker.

    Attributes:
        trace_id: Batch-unique id shared by every job in the run.
        parent_span_id: Supervisor-side span the worker's roots hang
            under (the ``batch.run`` span).
        span_prefix: Per-job prefix making worker span ids globally
            unique (``"j3."`` -> ``"j3.s1"``...).
    """

    trace_id: str
    parent_span_id: Optional[str] = None
    span_prefix: str = ""

    def to_dict(self) -> Dict[str, object]:
        return {
            "trace_id": self.trace_id,
            "parent_span_id": self.parent_span_id,
            "span_prefix": self.span_prefix,
        }

    @classmethod
    def from_dict(cls, doc: Dict[str, object]) -> "TraceContext":
        return cls(
            trace_id=str(doc.get("trace_id", "")),
            parent_span_id=doc.get("parent_span_id"),
            span_prefix=str(doc.get("span_prefix", "")),
        )

    def make_tracer(self, publisher: Optional["EventPublisher"] = None) -> Tracer:
        """A (streaming, when publishing) tracer bound to this context."""
        if publisher is not None and publisher.enabled:
            return StreamingTracer(publisher, trace_id=self.trace_id,
                                   span_prefix=self.span_prefix,
                                   root_parent_id=self.parent_span_id)
        return Tracer(trace_id=self.trace_id, span_prefix=self.span_prefix,
                      root_parent_id=self.parent_span_id)


class EventPublisher:
    """Worker-side event source writing to a queue-like sink.

    Thread-safe (the heartbeat thread and the flow thread interleave);
    never blocks and never raises into instrumented code — a full or
    broken sink increments ``dropped`` and moves on.  `silence` stops
    all emission permanently (fault injection uses it to simulate a
    live-but-heartbeat-silent worker).
    """

    enabled = True

    def __init__(self, sink, job: str, index: int = -1) -> None:
        self._sink = sink
        self.job = job
        self.index = index
        self.dropped = 0
        self._seq = 0
        self._lock = threading.Lock()
        self._silenced = False

    def emit(self, ev: str, **fields: object) -> None:
        if self._silenced:
            return
        with self._lock:
            self._seq += 1
            seq = self._seq
        event = {"ev": ev, "job": self.job, "seq": seq, "t": time.time()}
        event.update(fields)
        try:
            self._sink.put_nowait(event)
        except Exception:  # noqa: BLE001 - telemetry must never kill a job
            with self._lock:
                self.dropped += 1

    def silence(self) -> None:
        """Stop emitting anything, permanently (stall simulation)."""
        self._silenced = True

    def hello(self, attempt: int = 1) -> None:
        self.emit("hello", v=EVENT_SCHEMA_VERSION, pid=os.getpid(),
                  index=self.index, attempt=attempt)

    def span_open(self, span: Span) -> None:
        self.emit("span_open", span_id=span.span_id, name=span.name,
                  parent_id=span.parent_id)

    def span_close(self, span: Span) -> None:
        self.emit("span_close", span_id=span.span_id, name=span.name,
                  status=span.status, duration_s=span.duration_s)

    def progress(self, kind: str, **fields: object) -> None:
        self.emit("progress", kind=kind, **fields)

    def metric(self, name: str, value: float, kind: str = "counter") -> None:
        self.emit("metric", name=name, value=value, kind=kind)

    def heartbeat(self, stage: Optional[str] = None,
                  rss_kb: Optional[int] = None) -> None:
        self.emit("heartbeat", stage=stage, rss_kb=rss_kb)

    def bye(self, status: str = "ok") -> None:
        self.emit("bye", status=status, dropped=self.dropped)


class NullPublisher:
    """Default publisher: emits nothing, costs one attribute check."""

    enabled = False
    dropped = 0
    job = ""
    index = -1

    def emit(self, ev: str, **fields: object) -> None:
        pass

    def silence(self) -> None:
        pass

    def hello(self, attempt: int = 1) -> None:
        pass

    def span_open(self, span) -> None:
        pass

    def span_close(self, span) -> None:
        pass

    def progress(self, kind: str, **fields: object) -> None:
        pass

    def metric(self, name: str, value: float, kind: str = "counter") -> None:
        pass

    def heartbeat(self, stage=None, rss_kb=None) -> None:
        pass

    def bye(self, status: str = "ok") -> None:
        pass


NULL_PUBLISHER = NullPublisher()

_current_publisher: contextvars.ContextVar = contextvars.ContextVar(
    "repro_publisher", default=NULL_PUBLISHER
)


def get_publisher():
    """The publisher progress call sites should emit to.

    Call sites hoist this out of hot loops and gate on ``.enabled`` —
    the disabled path is then one contextvar read per call plus one
    attribute check per loop iteration.
    """
    return _current_publisher.get()


@contextlib.contextmanager
def use_publisher(publisher) -> Iterator[object]:
    """Scope ``publisher`` as current for a ``with`` block."""
    token = _current_publisher.set(publisher)
    try:
        yield publisher
    finally:
        _current_publisher.reset(token)


class StreamingTracer(Tracer):
    """A `Tracer` that additionally streams span opens/closes.

    The recorded span forest is exactly what a plain `Tracer` with the
    same trace context records — streaming is a side channel, not a
    different data model.
    """

    def __init__(self, publisher: EventPublisher,
                 trace_id: Optional[str] = None, span_prefix: str = "",
                 root_parent_id: Optional[str] = None) -> None:
        super().__init__(trace_id=trace_id, span_prefix=span_prefix,
                         root_parent_id=root_parent_id)
        self.publisher = publisher

    def _open(self, name: str, attrs: Dict[str, object]) -> Span:
        span = super()._open(name, attrs)
        self.publisher.span_open(span)
        return span

    def _close(self, span: Span) -> None:
        super()._close(span)
        self.publisher.span_close(span)


class HeartbeatThread(threading.Thread):
    """Daemon ticking ``heartbeat`` events while a job runs.

    Reads the tracer's innermost span name cross-thread — an unlocked,
    read-only peek that can only ever be momentarily stale, which is
    fine for a display field.  Heartbeats keep flowing while the flow
    thread is busy inside a long stage, so heartbeat *silence* (not
    mere progress silence) is the collector's stall signal.
    """

    def __init__(self, publisher: EventPublisher, tracer=None,
                 interval_s: float = 0.2) -> None:
        super().__init__(name="repro-heartbeat", daemon=True)
        self._publisher = publisher
        self._tracer = tracer
        self._interval_s = max(0.01, float(interval_s))
        self._halt = threading.Event()

    def run(self) -> None:  # pragma: no cover - timing-dependent loop
        while not self._halt.wait(self._interval_s):
            stage = None
            if self._tracer is not None:
                current = self._tracer.current()
                if current is not None:
                    stage = current.name
            self._publisher.heartbeat(stage=stage, rss_kb=peak_rss_kb())

    def stop(self, join_timeout_s: float = 1.0) -> None:
        self._halt.set()
        self.join(join_timeout_s)


@dataclasses.dataclass
class JobLiveState:
    """Everything the collector knows about one job, live.

    ``last_seen`` / ``first_seen`` are supervisor-side monotonic
    receive times — stall age is measured on the clock that also
    decides timeouts, so a worker with a skewed wall clock cannot
    fake liveness.
    """

    key: str
    index: int = -1
    pid: Optional[int] = None
    attempt: int = 1
    status: str = "pending"
    stage: Optional[str] = None
    rss_kb: Optional[int] = None
    last_seq: int = 0
    dropped: int = 0
    worker_dropped: int = 0
    bye_seen: bool = False
    first_seen: float = 0.0
    last_seen: float = 0.0
    done: bool = False
    stack: List[str] = dataclasses.field(default_factory=list)
    progress: Dict[str, Dict[str, object]] = dataclasses.field(
        default_factory=dict)
    live_metrics: Dict[str, object] = dataclasses.field(default_factory=dict)

    def heartbeat_age_s(self, now: Optional[float] = None) -> float:
        now = time.monotonic() if now is None else now
        return now - self.last_seen


class TelemetryCollector:
    """Supervisor-side fold of the worker event stream.

    Feed it events (`pump` a queue, or `handle` one at a time) and it
    maintains per-job live state for display (`jobs`), detects stalls
    (`stalled`), counts lost events (`dropped_events`) and fans every
    event out to subscribers.  Retries reset a job's state on the
    fresh attempt's ``hello``.
    """

    def __init__(self) -> None:
        self.jobs: Dict[str, JobLiveState] = {}
        self.malformed = 0
        self.warnings: List[str] = []
        self._subscribers: List = []

    def add_subscriber(self, callback) -> None:
        """Fan every handled event out to ``callback(event)`` too.

        The subscriber path is how `repro serve` re-broadcasts one
        batch's worker stream to any number of connected clients: the
        collector stays the single consumer of the multiprocessing
        queue (events must be folded exactly once), and subscribers
        get a read-only copy after the fold.  Callbacks must be cheap
        and must not raise; a raising subscriber is dropped so it can
        never stall or corrupt the event plane.
        """
        self._subscribers.append(callback)

    def remove_subscriber(self, callback) -> None:
        try:
            self._subscribers.remove(callback)
        except ValueError:
            pass

    def _fan_out(self, event: Dict[str, object]) -> None:
        for callback in list(self._subscribers):
            try:
                callback(event)
            except Exception:  # noqa: BLE001 - a bad subscriber must not
                # take down the batch; unsubscribe it and move on.
                self.remove_subscriber(callback)

    def expect(self, key: str, index: int = -1) -> JobLiveState:
        """Register a job at launch so pre-``hello`` silence counts as
        stall time too (a worker that dies before its first event is
        otherwise invisible to the stream)."""
        state = self.jobs.get(key)
        if state is None:
            state = JobLiveState(key=key, index=index)
            now = time.monotonic()
            state.first_seen = state.last_seen = now
            self.jobs[key] = state
        elif index >= 0:
            state.index = index
        return state

    def pump(self, queue) -> int:
        """Drain every currently-queued event; returns events handled."""
        import queue as _queue_mod

        handled = 0
        while True:
            try:
                event = queue.get_nowait()
            except _queue_mod.Empty:
                return handled
            except Exception:  # pragma: no cover - queue torn down or a
                # partial pickle from a killed worker; count and retry
                # on the next pump rather than looping here.
                self.malformed += 1
                return handled
            self.handle(event)
            handled += 1

    def handle(self, event: object) -> None:
        if not isinstance(event, dict) or not isinstance(event.get("job"), str):
            self.malformed += 1
            return
        key = event["job"]
        ev = event.get("ev")
        state = self.jobs.get(key)
        if ev == "hello" or state is None:
            fresh = JobLiveState(key=key)
            if state is not None:
                fresh.index = state.index
                fresh.first_seen = state.first_seen
            self.jobs[key] = state = fresh
        now = time.monotonic()
        if not state.first_seen:
            state.first_seen = now
        state.last_seen = now

        seq = event.get("seq")
        if isinstance(seq, int):
            if state.last_seq and seq > state.last_seq + 1:
                state.dropped += seq - state.last_seq - 1
            state.last_seq = max(state.last_seq, seq)

        if ev == "hello":
            state.status = "running"
            state.pid = event.get("pid")
            state.attempt = int(event.get("attempt", 1) or 1)
            if isinstance(event.get("index"), int) and event["index"] >= 0:
                state.index = event["index"]
            version = event.get("v")
            if version != EVENT_SCHEMA_VERSION:
                self.warnings.append(
                    f"job {key}: event schema {version!r}, "
                    f"expected {EVENT_SCHEMA_VERSION}")
        elif ev == "span_open":
            name = event.get("name")
            if isinstance(name, str):
                state.stack.append(name)
                state.stage = name
        elif ev == "span_close":
            name = event.get("name")
            if state.stack and state.stack[-1] == name:
                state.stack.pop()
            state.stage = state.stack[-1] if state.stack else None
        elif ev == "progress":
            kind = event.get("kind")
            if isinstance(kind, str):
                fields = {k: v for k, v in event.items()
                          if k not in ("ev", "job", "seq", "t", "kind")}
                state.progress[kind] = fields
        elif ev == "metric":
            name = event.get("name")
            if isinstance(name, str):
                state.live_metrics[name] = event.get("value")
        elif ev == "heartbeat":
            if event.get("rss_kb") is not None:
                state.rss_kb = event.get("rss_kb")
            if event.get("stage") is not None:
                state.stage = event.get("stage")
        elif ev == "bye":
            state.done = True
            state.bye_seen = True
            state.status = str(event.get("status", "ok"))
            state.worker_dropped = int(event.get("dropped", 0) or 0)
        else:
            self.malformed += 1
            return
        self._fan_out(event)

    def mark_done(self, key: str, status: str) -> None:
        """Supervisor-side verdict for a job, applied once the
        executor settles it.  A ``bye`` the worker already sent wins —
        this only finalises jobs the stream could not finish itself
        (crash, timeout, stall-kill, or a dropped ``bye``)."""
        state = self.expect(key)
        if not state.bye_seen:
            state.done = True
            state.status = status

    def mark_cached(self, key: str, status: str, index: int = -1) -> None:
        """Settle a result-store hit, which no worker ever streams for.

        Marks the job done with ``status`` and fans a synthetic
        ``cached`` event out to subscribers so live watchers see the
        hit too.
        """
        state = self.expect(key, index)
        state.status = status
        state.stage = None
        state.done = True
        state.bye_seen = True
        state.last_seen = time.monotonic()
        self._fan_out({"ev": "cached", "job": key, "seq": 0,
                       "t": time.time(), "status": status, "index": index})

    def stalled(self, threshold_s: float,
                now: Optional[float] = None) -> List[JobLiveState]:
        """Jobs whose heartbeat has been silent for over ``threshold_s``."""
        now = time.monotonic() if now is None else now
        return [state for state in self.jobs.values()
                if not state.done and state.last_seen
                and now - state.last_seen > threshold_s]

    def dropped_events(self) -> int:
        """Total events lost anywhere in the plane (gaps + queue-full
        drops reported by workers + malformed)."""
        per_job = sum(s.dropped + s.worker_dropped for s in self.jobs.values())
        return per_job + self.malformed
