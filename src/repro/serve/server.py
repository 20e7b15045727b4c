"""The `repro serve` asyncio front-end (see package docstring).

One process, three planes:

* **HTTP plane** — a hand-rolled HTTP/1.1 JSON API on an asyncio
  stream server (stdlib only; a local service does not need a web
  framework).  Request bodies and responses are plain JSON; the
  ``/events`` response is an NDJSON stream that stays open.
* **Scheduling plane** — submissions dedup single-flight on the
  result-store key (identical in-flight requests await one
  execution), then enter a priority queue drained round-robin across
  clients within each priority class, so one chatty client cannot
  starve the rest.  A semaphore caps concurrent worker processes.
* **Execution plane** — each dispatched job runs through
  `repro.runner.executor.run_single_job` in a thread
  (`asyncio.to_thread`), which forks the same process-per-job worker
  the batch runner uses, in a temporary directory removed once the
  result is read; worker telemetry events flow back over one
  multiprocessing queue, get folded into a `TelemetryCollector`, and
  fan out to every connected ``/events`` subscriber.
"""

from __future__ import annotations

import asyncio
import collections
import dataclasses
import json
import time
from typing import Deque, Dict, List, Optional, Tuple

from ..obs import TelemetryCollector, TraceContext, get_logger, kv
from ..runner.executor import _mp_context, run_single_job
from ..runner.spec import BatchSpec, JobResult, JobSpec
from ..store import ResultStore

_log = get_logger("serve.server")

#: Bump when a request/response shape changes incompatibly.
SERVE_SCHEMA_VERSION = 1

#: How often the event-queue pump folds worker events (s).
_PUMP_S = 0.05

_MAX_BODY = 8 * 1024 * 1024


@dataclasses.dataclass
class _Submission:
    """One job admitted to the scheduler."""

    spec: JobSpec
    client: str
    priority: int
    future: "asyncio.Future"
    index: int


class Server:
    """The serve scheduler + HTTP front-end.

    Args:
        store: Result store backing the service (every request is
            checked against it, and fresh results are published).
        workers: Max concurrent worker processes.
        timeout_s / retries: Per-job execution policy.
        host / port: TCP bind (port 0 picks an ephemeral port).
    """

    def __init__(self, store: ResultStore, workers: int = 2,
                 timeout_s: Optional[float] = None, retries: int = 1,
                 host: str = "127.0.0.1", port: int = 0) -> None:
        self.store = store
        self.workers = max(1, int(workers))
        self.timeout_s = timeout_s
        self.retries = retries
        self.host = host
        self.port = port
        self.collector = TelemetryCollector()
        self.started = time.time()
        # priority -> client -> FIFO of submissions; clients rotate.
        self._queues: Dict[int, Dict[str, Deque[_Submission]]] = {}
        self._rotation: Dict[int, Deque[str]] = {}
        self._queued = 0
        self._wakeup: Optional[asyncio.Event] = None
        self._slots: Optional[asyncio.Semaphore] = None
        self._inflight: Dict[str, "asyncio.Future"] = {}
        self._event_queue = _mp_context().Queue()
        self._index = 0
        self._server: Optional[asyncio.AbstractServer] = None
        self._tasks: List["asyncio.Task"] = []
        self._stopping: Optional[asyncio.Event] = None
        self.stats: Dict[str, int] = collections.defaultdict(int)

    # -- scheduling ----------------------------------------------------

    def _flight_key(self, spec: JobSpec) -> str:
        """Single-flight identity: the store key when the job is
        cacheable, the bare job key otherwise (fault-injected jobs
        still coalesce — two clients asking for the same crash test
        get the same crash)."""
        if spec.fault:
            return f"fault:{spec.key}"
        return self.store.entry_id(spec)

    async def submit(self, spec: JobSpec, client: str = "anon",
                     priority: int = 0) -> Tuple[JobResult, str]:
        """Admit one job; returns ``(result, how)`` where ``how`` is
        ``"hit"`` (served from the store), ``"coalesced"`` (attached
        to an identical in-flight request) or ``"executed"``."""
        self.stats["requests"] += 1
        hit = await asyncio.to_thread(self.store.get, spec)
        if hit is not None:
            self.stats["hits"] += 1
            return hit, "hit"
        key = self._flight_key(spec)
        flight = self._inflight.get(key)
        if flight is not None:
            self.stats["coalesced"] += 1
            return await asyncio.shield(flight), "coalesced"
        future = asyncio.get_running_loop().create_future()
        self._inflight[key] = future
        self._index += 1
        submission = _Submission(spec=spec, client=str(client or "anon"),
                                 priority=int(priority), future=future,
                                 index=self._index)
        self._enqueue(submission)
        try:
            result = await asyncio.shield(future)
        finally:
            self._inflight.pop(key, None)
        self.stats["executed"] += 1
        return result, "executed"

    def _enqueue(self, submission: _Submission) -> None:
        per_client = self._queues.setdefault(submission.priority, {})
        if submission.client not in per_client:
            per_client[submission.client] = collections.deque()
            self._rotation.setdefault(
                submission.priority, collections.deque()).append(
                    submission.client)
        per_client[submission.client].append(submission)
        self._queued += 1
        if self._wakeup is not None:
            self._wakeup.set()

    def _next_submission(self) -> Optional[_Submission]:
        """Lowest priority class first; round-robin across clients
        within the class (take one job, rotate the client to the
        back), so interleaved clients make equal progress."""
        for priority in sorted(self._queues):
            rotation = self._rotation[priority]
            per_client = self._queues[priority]
            for _ in range(len(rotation)):
                client = rotation[0]
                rotation.rotate(-1)
                queue = per_client.get(client)
                if queue:
                    self._queued -= 1
                    return queue.popleft()
        return None

    def queue_depth(self) -> int:
        return self._queued

    async def _dispatcher(self) -> None:
        assert self._slots is not None and self._wakeup is not None
        while True:
            submission = self._next_submission()
            if submission is None:
                self._wakeup.clear()
                await self._wakeup.wait()
                continue
            await self._slots.acquire()
            task = asyncio.ensure_future(self._run(submission))
            self._tasks.append(task)
            task.add_done_callback(self._tasks.remove)

    async def _run(self, submission: _Submission) -> None:
        assert self._slots is not None
        spec = submission.spec
        trace = TraceContext(trace_id=f"serve-{submission.index}",
                             span_prefix=f"j{submission.index}.")
        self.collector.expect(spec.key, submission.index)
        self.stats["running"] += 1
        try:
            result = await asyncio.to_thread(
                run_single_job, spec,
                timeout_s=self.timeout_s, retries=self.retries,
                index=submission.index,
                trace=trace, event_queue=self._event_queue,
                store=None if spec.fault else self.store)
            if not submission.future.done():
                submission.future.set_result(result)
        except Exception as exc:  # noqa: BLE001 - surface to the caller
            if not submission.future.done():
                submission.future.set_exception(exc)
        finally:
            self.stats["running"] -= 1
            self._slots.release()

    async def _pump(self) -> None:
        while True:
            self.collector.pump(self._event_queue)
            await asyncio.sleep(_PUMP_S)

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> None:
        loop = asyncio.get_running_loop()
        self._wakeup = asyncio.Event()
        self._stopping = asyncio.Event()
        self._slots = asyncio.Semaphore(self.workers)
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.host, port=self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        for coro in (self._dispatcher(), self._pump()):
            task = loop.create_task(coro)
            self._tasks.append(task)
        _log.info("serve listening %s", kv(host=self.host, port=self.port,
                                           store=self.store.root,
                                           workers=self.workers))

    async def wait_stopped(self) -> None:
        assert self._stopping is not None
        await self._stopping.wait()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for task in list(self._tasks):
            task.cancel()
        if self._stopping is not None:
            self._stopping.set()

    # -- HTTP plane ----------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            request = await _read_request(reader)
            if request is None:
                return
            method, path, body = request
            await self._route(method, path, body, writer)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except Exception as exc:  # noqa: BLE001 - one bad request must
            # not take the service down
            _log.info("request failed %s", kv(error=repr(exc)))
            try:
                await _respond(writer, 500, {"error": repr(exc)})
            except Exception:  # noqa: BLE001 # pragma: no cover
                pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:  # noqa: BLE001 # pragma: no cover
                pass

    async def _route(self, method: str, path: str, body: Optional[dict],
                     writer: asyncio.StreamWriter) -> None:
        if method == "GET" and path == "/healthz":
            await _respond(writer, 200, {
                "ok": True, "schema": SERVE_SCHEMA_VERSION,
                "uptime_s": time.time() - self.started})
        elif method == "GET" and path == "/stats":
            await _respond(writer, 200, self.snapshot())
        elif method == "GET" and path == "/events":
            await self._stream_events(writer)
        elif method == "POST" and path == "/flow":
            await self._handle_flow(body or {}, writer)
        elif method == "POST" and path in ("/batch", "/sweep"):
            await self._handle_batch(body or {}, writer)
        elif method == "POST" and path == "/gc":
            gc = await asyncio.to_thread(self.store.gc)
            await _respond(writer, 200, dataclasses.asdict(gc))
        elif method == "POST" and path == "/shutdown":
            await _respond(writer, 200, {"stopping": True})
            assert self._stopping is not None
            self._stopping.set()
        else:
            await _respond(writer, 404, {"error": f"no route {method} {path}"})

    def snapshot(self) -> Dict[str, object]:
        store_size = self.store.size()
        return {
            "schema": SERVE_SCHEMA_VERSION,
            "uptime_s": time.time() - self.started,
            "workers": self.workers,
            "queue_depth": self.queue_depth(),
            "requests": self.stats["requests"],
            "hits": self.stats["hits"],
            "coalesced": self.stats["coalesced"],
            "executed": self.stats["executed"],
            "running": self.stats["running"],
            "store": {"root": self.store.root, "code": self.store.code[:12],
                      **store_size},
        }

    async def _handle_flow(self, body: dict,
                           writer: asyncio.StreamWriter) -> None:
        spec = JobSpec.from_dict(body.get("job") or {})
        started = time.perf_counter()
        result, how = await self.submit(
            spec, client=body.get("client", "anon"),
            priority=body.get("priority", 0))
        await _respond(writer, 200, {
            "result": result.to_dict(), "how": how,
            "wall_s": time.perf_counter() - started})

    async def _handle_batch(self, body: dict,
                            writer: asyncio.StreamWriter) -> None:
        jobs = _batch_jobs(body)
        client = body.get("client", "anon")
        priority = body.get("priority", 0)
        started = time.perf_counter()
        outcomes = await asyncio.gather(*[
            self.submit(spec, client=client, priority=priority)
            for spec in jobs
        ])
        how_counts: Dict[str, int] = collections.defaultdict(int)
        for _result, how in outcomes:
            how_counts[how] += 1
        await _respond(writer, 200, {
            "results": [result.to_dict() for result, _how in outcomes],
            "how": dict(how_counts),
            "wall_s": time.perf_counter() - started})

    async def _stream_events(self, writer: asyncio.StreamWriter) -> None:
        """NDJSON event stream: one JSON object per line until the
        client hangs up.  Backed by the collector's fan-out subscriber
        path; a slow consumer only ever delays itself."""
        queue: "asyncio.Queue" = asyncio.Queue()
        self.collector.add_subscriber(queue.put_nowait)
        writer.write(b"HTTP/1.1 200 OK\r\n"
                     b"Content-Type: application/x-ndjson\r\n"
                     b"Connection: close\r\n\r\n")
        writer.write((json.dumps(
            {"ev": "serve.hello", "schema": SERVE_SCHEMA_VERSION},
            sort_keys=True) + "\n").encode("utf-8"))
        try:
            await writer.drain()
            while True:
                event = await queue.get()
                writer.write((json.dumps(event, sort_keys=True,
                                         default=repr) + "\n")
                             .encode("utf-8"))
                await writer.drain()
        finally:
            self.collector.remove_subscriber(queue.put_nowait)


def _batch_jobs(body: dict) -> List[JobSpec]:
    """Job list from a ``/batch`` or ``/sweep`` request body.

    Accepts ``{"jobs": [<spec doc>...]}`` or a matrix document with
    the `BatchSpec.from_matrix` axes (``circuits``/``variants``/
    ``seeds``/``widths``/``scale``/``defect_rates``...), which is how
    a fault sweep is phrased.
    """
    if "jobs" in body:
        return [JobSpec.from_dict(doc) for doc in body["jobs"]]
    matrix = {k: v for k, v in body.items()
              if k not in ("client", "priority")}
    return list(BatchSpec.from_matrix(**matrix).jobs)


async def _read_request(
        reader: asyncio.StreamReader
) -> Optional[Tuple[str, str, Optional[dict]]]:
    """Parse one HTTP/1.1 request; returns (method, path, json body)."""
    try:
        request_line = await reader.readline()
    except (ConnectionError, asyncio.LimitOverrunError):
        return None
    if not request_line:
        return None
    parts = request_line.decode("latin-1").split()
    if len(parts) < 2:
        return None
    method, path = parts[0].upper(), parts[1]
    content_length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            try:
                content_length = int(value.strip())
            except ValueError:
                content_length = 0
    body = None
    if content_length:
        if content_length > _MAX_BODY:
            raise ValueError(f"body too large ({content_length} bytes)")
        raw = await reader.readexactly(content_length)
        body = json.loads(raw.decode("utf-8"))
        if not isinstance(body, dict):
            raise ValueError("request body must be a JSON object")
    return method, path, body


async def _respond(writer: asyncio.StreamWriter, status: int,
                   doc: Dict[str, object]) -> None:
    payload = json.dumps(doc, sort_keys=True, default=repr).encode("utf-8")
    reason = {200: "OK", 404: "Not Found", 500: "Internal Server Error"}.get(
        status, "OK")
    head = (f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"Connection: close\r\n\r\n").encode("latin-1")
    writer.write(head + payload)
    await writer.drain()


async def serve_async(store: ResultStore, workers: int = 2,
                      timeout_s: Optional[float] = None, retries: int = 1,
                      host: str = "127.0.0.1", port: int = 0,
                      ready=None) -> Server:
    """Start a `Server`, run until ``/shutdown`` (or cancellation),
    then stop it.  ``ready`` is called with the server once the port
    is bound (the CLI prints the address from it)."""
    server = Server(store, workers=workers, timeout_s=timeout_s,
                    retries=retries, host=host, port=port)
    await server.start()
    if ready is not None:
        ready(server)
    try:
        await server.wait_stopped()
    finally:
        await server.stop()
    return server
