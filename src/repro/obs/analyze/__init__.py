"""Telemetry analysis: the consumer side of `repro.obs`.

PR 1 made the flow *emit* telemetry; this package *consumes* it:

* `records` — typed, forward-compatible parsing of exported JSONL
  (`load_run` -> `ParsedRun` of `SpanNode` trees + metrics);
* `report`  — human-readable run reports (`repro report`);
* `diff`    — run-to-run alignment, delta tables and regression gates
  (`repro diff --fail-on 'route.wall_s>+10%'`);
* `attribution` — cross-run regression attribution: exact raw-self-time
  delta decomposition, per-stage roll-up, batch critical paths, and
  profiler-stack deltas (`repro db attribute`).
"""

from .records import ParsedRun, SpanNode, load_run, parse_run
from .report import render_attribution_html, render_html, render_report
from .attribution import (
    Attribution,
    CriticalPathEntry,
    SpanDelta,
    StageDelta,
    attribute_runs,
    critical_path,
    format_attribution,
)
from .diff import (
    DiffEntry,
    RunDiff,
    Threshold,
    Verdict,
    diff_runs,
    diff_to_dict,
    evaluate_thresholds,
    format_diff,
    parse_threshold,
    run_measurements,
)

__all__ = [
    "Attribution",
    "CriticalPathEntry",
    "DiffEntry",
    "ParsedRun",
    "RunDiff",
    "SpanDelta",
    "SpanNode",
    "StageDelta",
    "Threshold",
    "Verdict",
    "attribute_runs",
    "critical_path",
    "diff_runs",
    "diff_to_dict",
    "evaluate_thresholds",
    "format_attribution",
    "format_diff",
    "load_run",
    "parse_run",
    "parse_threshold",
    "render_attribution_html",
    "render_html",
    "render_report",
    "run_measurements",
]
