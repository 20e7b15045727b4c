"""Observability layer: span tracing, metrics, structured logs, export.

The CAD flow (`repro.vpr`, `repro.core`) is instrumented against this
package's *current tracer*, which defaults to an inert `NullTracer` —
library users pay essentially nothing unless they opt in:

    from repro.obs import Tracer, use_tracer

    tracer = Tracer()
    with use_tracer(tracer):
        flow = run_flow(netlist, arch)          # spans recorded
    export_run("run.jsonl", run_manifest(seed=1, arch=arch), tracer)

The CLI exposes the same machinery as ``--metrics-out`` / ``-v``; the
benchmark harness auto-attaches a tracer (see benchmarks/conftest.py).

Modules:

* `trace`    — `Span` / `Tracer` / `NullTracer`, current-tracer scoping
* `metrics`  — `Counter`, `Gauge`, `Histogram`
* `registry` — named get-or-create `MetricsRegistry`
* `export`   — run manifest + JSON/JSONL writers (`export_run`)
* `shards`   — batch-worker telemetry shard merge (`merge_shards`)
* `stream`   — live worker -> supervisor progress plane: publishers,
  heartbeats, `TelemetryCollector` (live table, stall detection,
  serve fan-out), cross-process `TraceContext`; the run model itself
  comes only from the shard merge
* `profile`  — dependency-free sampling profiler (`--profile`)
* `live`     — in-terminal live batch table (`repro watch`)
* `logging`  — structured stderr logging (`setup_logging`, `kv`)
* `analyze`  — the consumer side: run reports (`repro report`),
  run-to-run diffing with regression gates (`repro diff`), and
  cross-run attribution (`repro db attribute`)
* `store`    — sqlite telemetry warehouse for cross-run queries
  (`repro db ingest/top/trend/attribute`)
"""

from .trace import (
    NULL_SPAN,
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    get_tracer,
    peak_rss_kb,
    reset_tracer,
    set_tracer,
    use_tracer,
)
from .metrics import Counter, Gauge, Histogram
from .registry import (
    MetricsRegistry,
    get_registry,
    reset_registry,
    set_registry,
    use_registry,
)
from .shards import merge_metric_snapshots, merge_shards
from .stream import (
    EVENT_SCHEMA_VERSION,
    NULL_PUBLISHER,
    EventPublisher,
    HeartbeatThread,
    JobLiveState,
    NullPublisher,
    StreamingTracer,
    TelemetryCollector,
    TraceContext,
    get_publisher,
    use_publisher,
)
from .profile import Profiler, merge_profiles, profiled
from .live import LiveDisplay, render_rows
from .export import (
    SCHEMA_VERSION,
    export_run,
    git_sha,
    read_jsonl,
    run_manifest,
    span_to_dict,
    telemetry_records,
    write_json,
    write_jsonl,
)
from .logging import StructuredFormatter, get_logger, kv, setup_logging
from . import analyze
# store imports from analyze (records/diff), so it must come after.
from . import store

__all__ = [
    "analyze",
    "store",
    "Counter",
    "EVENT_SCHEMA_VERSION",
    "EventPublisher",
    "Gauge",
    "HeartbeatThread",
    "Histogram",
    "JobLiveState",
    "LiveDisplay",
    "MetricsRegistry",
    "NULL_PUBLISHER",
    "NULL_SPAN",
    "NULL_TRACER",
    "NullPublisher",
    "NullTracer",
    "Profiler",
    "SCHEMA_VERSION",
    "Span",
    "StreamingTracer",
    "StructuredFormatter",
    "TelemetryCollector",
    "TraceContext",
    "Tracer",
    "export_run",
    "get_logger",
    "get_publisher",
    "get_registry",
    "get_tracer",
    "git_sha",
    "kv",
    "merge_metric_snapshots",
    "merge_profiles",
    "merge_shards",
    "peak_rss_kb",
    "profiled",
    "read_jsonl",
    "render_rows",
    "reset_registry",
    "reset_tracer",
    "run_manifest",
    "set_registry",
    "set_tracer",
    "setup_logging",
    "use_publisher",
    "use_registry",
    "span_to_dict",
    "telemetry_records",
    "use_tracer",
    "write_json",
    "write_jsonl",
]
