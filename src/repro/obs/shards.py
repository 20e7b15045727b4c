"""Telemetry shard merging for batch runs.

Batch workers (`repro.runner`) each export their job's telemetry as a
JSONL *shard* — span records plus one metrics record, no manifest.
`merge_shards` combines the shards into a single schema-v1 run file
that `repro report` / `repro diff` consume unchanged:

* exactly one ``manifest`` record (supplied by the batch driver),
* every shard's ``span`` records, in shard order (the driver passes
  shards in job order, so the merged timeline is deterministic
  regardless of worker completion order),
* one ``metrics`` record merging all shard snapshots.

Metric snapshots merge by kind: counters sum, gauges keep the last
non-null value (shard order), histograms combine count/sum/min/max,
recompute the mean, and — when every input carries the fixed-bound
bucket vector `repro.obs.metrics.Histogram` emits — recover
approximate percentiles by rank-walking the summed buckets (clamped
to the exact merged min/max).  Snapshots without buckets (older
shards, hand-written fixtures) degrade to null percentiles as before.

`merge_shards` is the only producer of a batch's run model; the live
event stream (`repro.obs.stream`) reports progress and never carries
span or metrics records.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional

from .export import read_jsonl, write_jsonl


def merge_metric_snapshots(
    snapshots: Iterable[Dict[str, Dict[str, object]]],
) -> Dict[str, Dict[str, object]]:
    """Merge per-shard registry snapshots into one snapshot dict."""
    merged: Dict[str, Dict[str, object]] = {}
    for snapshot in snapshots:
        for name, snap in snapshot.items():
            if not isinstance(snap, dict):
                continue
            have = merged.get(name)
            if have is None:
                merged[name] = dict(snap)
                continue
            kind = snap.get("kind")
            if kind != have.get("kind"):
                # Conflicting kinds across shards: keep the first, the
                # merged record stays renderable either way.
                continue
            if kind == "counter":
                have["value"] = _num(have.get("value")) + _num(snap.get("value"))
            elif kind == "gauge":
                if snap.get("value") is not None:
                    have["value"] = snap["value"]
            elif kind == "histogram":
                _merge_histogram(have, snap)
    return merged


def _hist_sum(snap: Dict[str, object]) -> float:
    """A snapshot's observation sum; falls back to ``mean * count`` so
    the merged mean stays count-weighted even for inputs (older shards,
    hand-written fixtures) that carry a mean but no sum."""
    value = snap.get("sum")
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    mean, count = snap.get("mean"), snap.get("count")
    if isinstance(mean, (int, float)) and isinstance(count, (int, float)):
        return float(mean) * float(count)
    return 0.0


def _merge_histogram(have: Dict[str, object], snap: Dict[str, object]) -> None:
    count = _num(have.get("count")) + _num(snap.get("count"))
    total = _hist_sum(have) + _hist_sum(snap)
    lo = _extreme(have.get("min"), snap.get("min"), min)
    hi = _extreme(have.get("max"), snap.get("max"), max)
    buckets: Optional[List[List[object]]] = None
    if isinstance(have.get("buckets"), list) and isinstance(snap.get("buckets"), list):
        buckets = _merge_buckets(have["buckets"], snap["buckets"])
    have.update(
        count=count,
        sum=total,
        min=lo,
        max=hi,
        mean=(total / count) if count else None,
        p50=_bucket_percentile(buckets, 50.0, lo, hi),
        p90=_bucket_percentile(buckets, 90.0, lo, hi),
        p95=_bucket_percentile(buckets, 95.0, lo, hi),
        p99=_bucket_percentile(buckets, 99.0, lo, hi),
    )
    if buckets is not None:
        have["buckets"] = buckets
    else:
        # Mixed with-buckets/without-buckets inputs: without the full
        # vector the merged distribution is unknown, drop it.
        have.pop("buckets", None)


def _merge_buckets(
    a: List[object], b: List[object],
) -> List[List[object]]:
    """Sum two ``[upper_bound, count]`` vectors (None bound = overflow)."""
    combined: Dict[Optional[float], int] = {}
    for pairs in (a, b):
        for pair in pairs:
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                continue
            bound, count = pair
            key = None if bound is None else float(bound)
            combined[key] = combined.get(key, 0) + int(_num(count))
    ordered: List[List[object]] = [
        [bound, combined[bound]]
        for bound in sorted(k for k in combined if k is not None)
    ]
    if None in combined:
        ordered.append([None, combined[None]])
    return ordered


def _bucket_percentile(
    buckets: Optional[List[List[object]]],
    p: float,
    lo: Optional[float],
    hi: Optional[float],
) -> Optional[float]:
    """Nearest-rank percentile over summed buckets, clamped to [lo, hi].

    The answer is the upper bound of the bucket holding the rank — an
    over-estimate by at most one bucket width, pulled back into the
    exact observed range (min/max merge losslessly, so the clamp is
    tight at the tails).
    """
    if not buckets:
        return None
    total = sum(int(_num(count)) for _, count in buckets)
    if total <= 0:
        return None
    rank = max(1, math.ceil(p / 100.0 * total))
    value: Optional[float] = None
    cumulative = 0
    for bound, count in buckets:
        cumulative += int(_num(count))
        if cumulative >= rank:
            value = None if bound is None else float(bound)
            break
    if value is None:  # overflow bucket: best answer is the exact max
        value = hi if isinstance(hi, (int, float)) else None
        return value
    if isinstance(lo, (int, float)):
        value = max(value, float(lo))
    if isinstance(hi, (int, float)):
        value = min(value, float(hi))
    return value


def _num(value: object) -> float:
    return float(value) if isinstance(value, (int, float)) else 0.0


def _extreme(a: object, b: object, pick) -> Optional[float]:
    values = [v for v in (a, b) if isinstance(v, (int, float))]
    return pick(values) if values else None


def merge_shards(
    paths: Iterable[str],
    manifest: Dict[str, object],
    out_path: str,
) -> int:
    """Merge shard files into one schema-v1 run file; records written.

    Shard-level manifests are dropped (``manifest`` is the one
    authoritative manifest); unknown record types are dropped too so a
    merged file never triggers reader warnings.

    Tolerates the debris a crashed or killed worker leaves behind:
    missing shard files are skipped (the job may never have started
    writing one), and partial/truncated lines — including a half-flushed
    final line with broken UTF-8 — are dropped per line and counted
    into a ``telemetry.dropped_events`` counter rather than poisoning
    the merged run.  The counter is omitted when zero so clean runs
    are unaffected.
    """
    spans: List[Dict[str, object]] = []
    snapshots: List[Dict[str, Dict[str, object]]] = []
    dropped = 0
    for path in paths:
        try:
            records, bad_lines = read_jsonl(path, strict=False,
                                            return_errors=True)
        except OSError:
            continue
        dropped += len(bad_lines)
        for record in records:
            if not isinstance(record, dict):
                continue
            rtype = record.get("type")
            if rtype == "span":
                spans.append(record)
            elif rtype == "metrics" and isinstance(record.get("metrics"), dict):
                snapshots.append(record["metrics"])
    metrics = merge_metric_snapshots(snapshots)
    if dropped:
        metrics["telemetry.dropped_events"] = {
            "kind": "counter",
            "value": float(dropped),
        }
    out: List[Dict[str, object]] = [manifest, *spans]
    if metrics:
        out.append({"type": "metrics", "metrics": metrics})
    return write_jsonl(out_path, out)
