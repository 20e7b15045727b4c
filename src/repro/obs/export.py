"""Telemetry export: JSON / JSONL writers and the run manifest.

The JSONL layout (one JSON object per line, ``type`` discriminated):

* ``{"type": "manifest", ...}``  — first line: schema version, wall
  clock, python/platform, git SHA, seed, architecture parameters.
* ``{"type": "span", ...}``      — one line per *root* span, children
  nested under ``"children"`` (a whole flow stays one record).
* ``{"type": "metrics", ...}``   — final line: the metrics-registry
  snapshot, when a registry with content is supplied.

Everything in a record is plain JSON; non-serialisable attribute
values degrade to ``repr`` rather than failing the run.
"""

from __future__ import annotations

import dataclasses
import json
import os
import platform
import subprocess
import sys
import time
from typing import Dict, Iterable, List, Optional

from .trace import Span

#: Bump when a record's shape changes incompatibly.
SCHEMA_VERSION = 1


#: Per-process memo for `git_sha`: the SHA cannot change under a
#: running process, and exporters call this once per record batch —
#: one subprocess per distinct cwd is plenty.
_git_sha_cache: Dict[str, Optional[str]] = {}


def git_sha(cwd: Optional[str] = None) -> Optional[str]:
    """Current git commit SHA, or None outside a repo / without git.

    Defaults to the installed package's checkout (not the caller's
    cwd), so the manifest records the *code* provenance even when the
    CLI runs from an unrelated directory.  Memoized per process and
    per cwd; a missing ``git`` binary or any subprocess failure
    degrades to None (and caches the None) instead of raising."""
    if cwd is None:
        cwd = os.path.dirname(os.path.abspath(__file__))
    if cwd in _git_sha_cache:
        return _git_sha_cache[cwd]
    sha: Optional[str]
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError, ValueError):
        sha = None
    else:
        sha = (out.stdout.strip() or None) if out.returncode == 0 else None
    _git_sha_cache[cwd] = sha
    return sha


def _jsonable(value: object) -> object:
    """Best-effort conversion of an attribute value to plain JSON."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return dataclasses.asdict(value)
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [_jsonable(v) for v in value]
    return repr(value)


def run_manifest(
    seed: Optional[int] = None,
    arch: Optional[object] = None,
    argv: Optional[List[str]] = None,
    extra: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """The provenance record written first in every export.

    Args:
        seed: Flow RNG seed (placement determinism anchor).
        arch: `ArchParams` (or any dataclass) describing the target.
        argv: Command-line arguments of the producing invocation.
        extra: Caller-specific additions (circuit name, scale, ...).
    """
    now = time.time()
    manifest: Dict[str, object] = {
        "type": "manifest",
        "schema": SCHEMA_VERSION,
        "created_unix": now,
        "created": time.strftime("%Y-%m-%dT%H:%M:%S%z", time.localtime(now)),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "git_sha": git_sha(),
        "seed": seed,
        "arch": _jsonable(arch) if arch is not None else None,
    }
    if argv is not None:
        manifest["argv"] = list(argv)
    if extra:
        manifest.update({k: _jsonable(v) for k, v in extra.items()})
    return manifest


def span_to_dict(span: Span) -> Dict[str, object]:
    """One span (and its subtree) as a JSON-serialisable dict."""
    return {
        "name": span.name,
        "span_id": span.span_id,
        "parent_id": span.parent_id,
        "status": span.status,
        "start_time": span.start_time,
        "duration_s": span.duration_s,
        "peak_rss_kb": span.peak_rss_kb,
        "attrs": {k: _jsonable(v) for k, v in span.attrs.items()},
        "children": [span_to_dict(child) for child in span.children],
    }


def telemetry_records(
    manifest: Optional[Dict[str, object]] = None,
    tracer=None,
    registry=None,
) -> List[Dict[str, object]]:
    """The full record sequence for one run, manifest first."""
    records: List[Dict[str, object]] = []
    if manifest is not None:
        records.append(manifest)
    if tracer is not None:
        for root in tracer.roots:
            records.append({"type": "span", **span_to_dict(root)})
    if registry is not None and len(registry):
        records.append({"type": "metrics", "metrics": registry.snapshot()})
    return records


def write_jsonl(path: str, records: Iterable[Dict[str, object]]) -> int:
    """Write records one-per-line; returns the number written.

    Atomic: content lands in ``<path>.<pid>.tmp`` and is published with
    `os.replace`, so a reader (or a ``repro db ingest`` racing a run)
    sees either the previous complete file or the new complete file —
    never a torn half-write from a killed process.
    """
    _ensure_parent(path)
    tmp_path = f"{path}.{os.getpid()}.tmp"
    count = 0
    try:
        with open(tmp_path, "w", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record, sort_keys=True))
                handle.write("\n")
                count += 1
        os.replace(tmp_path, path)
    finally:
        if os.path.exists(tmp_path):  # publish failed: leave no litter
            try:
                os.remove(tmp_path)
            except OSError:  # pragma: no cover - best-effort cleanup
                pass
    return count


def export_run(
    path: str,
    manifest: Optional[Dict[str, object]] = None,
    tracer=None,
    registry=None,
) -> int:
    """Convenience: manifest + spans + metrics to a JSONL file."""
    return write_jsonl(path, telemetry_records(manifest, tracer, registry))


def read_jsonl(path: str, strict: bool = True, return_errors: bool = False):
    """Load an exported JSONL file back into dicts (tests, analysis).

    With ``strict=False`` malformed lines are skipped instead of
    raising — including lines with broken UTF-8, which a worker killed
    mid-flush can leave behind (undecodable bytes are replaced before
    parsing, so the damage stays contained to the affected line) —
    and ``return_errors=True`` additionally returns the 1-based line
    numbers that were skipped as ``(records, bad_lines)`` — the
    analysis tools surface those as warnings.
    """
    records: List[Dict[str, object]] = []
    bad_lines: List[int] = []
    errors = "strict" if strict else "replace"
    with open(path, "r", encoding="utf-8", errors=errors) as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except ValueError:
                if strict:
                    raise
                bad_lines.append(lineno)
    if return_errors:
        return records, bad_lines
    return records


def _ensure_parent(path: str) -> None:
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)


def write_json(path: str, obj: object) -> None:
    """Pretty-printed single-document JSON (``--out``/``--results`` files).

    Atomic via tmp + `os.replace`, like `write_jsonl`.
    """
    _ensure_parent(path)
    tmp_path = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp_path, "w", encoding="utf-8") as handle:
            json.dump(obj, handle, indent=2, sort_keys=True)
            handle.write("\n")
        os.replace(tmp_path, path)
    finally:
        if os.path.exists(tmp_path):
            try:
                os.remove(tmp_path)
            except OSError:  # pragma: no cover - best-effort cleanup
                pass
