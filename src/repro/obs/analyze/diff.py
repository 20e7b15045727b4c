"""Run-to-run telemetry diffing with regression gates (`repro diff`).

Two exported runs are reduced to flat *measurement* maps (name ->
number), aligned by key, and compared:

* spans align by their stable path (``span.<path>.wall_s`` and every
  numeric span attribute),
* stages align by alias (``route.wall_s``, ``pack.clusters``,
  ``timing.critical_path_s`` ... — robust to a stage being missing or
  repeated in one run),
* flow results align by circuit (``circuit.<name>.<stage>...``) and
  by evaluated variant (``variant.<kind>.leakage_w`` ...),
* registry metrics align by metric name (``metric.<name>...``).

`Threshold` encodes one ``--fail-on`` gate, e.g.
``route.wall_s>+10%`` ("fail when B's route wall time exceeds A's by
more than 10%") or ``route.wirelength>+0`` (any increase fails).  A
gated key missing from either run is itself a violation — a silent
disappearance must not pass a regression gate.
"""

from __future__ import annotations

import dataclasses
import math
import re
from typing import Dict, List, Optional, Sequence, Tuple

from .records import ParsedRun, SpanNode

#: Stage alias -> span names that implement the stage.  Aliases keep
#: gates readable and stable even if span nesting changes.
STAGE_ALIASES: Dict[str, Tuple[str, ...]] = {
    "flow": ("flow.run", "flow.timing_driven"),
    "pack": ("flow.pack", "pack.vpack"),
    "place": ("flow.place",),
    "anneal": ("place.anneal",),
    "route": ("flow.route", "route.pathfinder"),
    "wmin": ("flow.wmin_search",),
    "timing": ("timing.sta",),
    "evaluate": ("evaluate",),
    "crossbar": ("crossbar.program_fabric",),
    "variation": ("nemrelay.variation_mc",),
}


def _numeric_attrs(span: SpanNode) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for key, value in span.attrs.items():
        if isinstance(value, bool):
            out[key] = 1.0 if value else 0.0
        elif isinstance(value, (int, float)):
            out[key] = float(value)
    return out


def _stage_measurements(spans: Sequence[SpanNode], prefix: str = "") -> Dict[str, float]:
    """Alias-keyed measurements over a span forest."""
    out: Dict[str, float] = {}
    flat: List[SpanNode] = []
    for root in spans:
        flat.extend(node for node, _depth in root.walk())
    for alias, names in STAGE_ALIASES.items():
        matches = [s for s in flat if s.name in names]
        # Prefer the outermost implementing span so wall time is not
        # double-counted when both flow.route and route.pathfinder
        # match the alias.
        primary = [s for s in matches if s.name == names[0]] or matches
        if not primary:
            continue
        out[f"{prefix}{alias}.wall_s"] = sum(s.total_s for s in primary)
        out[f"{prefix}{alias}.count"] = float(len(primary))
        # Attrs come from every matching span, later spans winning, so
        # route.wirelength reflects the final route even with retries.
        for span in matches:
            for key, value in _numeric_attrs(span).items():
                out[f"{prefix}{alias}.{key}"] = value
    return out


def run_measurements(run: ParsedRun) -> Dict[str, float]:
    """Flatten one parsed run into a name -> number measurement map."""
    out: Dict[str, float] = {}
    out["total.wall_s"] = run.total_wall_s

    out.update(_stage_measurements(run.spans))

    # Per-circuit views when flows over several circuits share one run
    # (repro headline): the roots with a circuit attr form a
    # circuit.<name>. namespace over their subtrees, under the same
    # rules as the unprefixed keys (wall summed, attrs last-wins).
    by_circuit: Dict[str, List[SpanNode]] = {}
    for root in run.spans:
        circuit = root.attrs.get("circuit")
        if isinstance(circuit, str) and circuit:
            by_circuit.setdefault(circuit, []).append(root)
    for circuit, roots in by_circuit.items():
        out.update(_stage_measurements(roots, prefix=f"circuit.{circuit}."))

    # Per-variant evaluation results (critical path, power, area).
    for node, _depth in run.walk():
        if node.name != "evaluate":
            continue
        variant = node.attrs.get("variant")
        if not isinstance(variant, str) or not variant:
            continue
        for key, value in _numeric_attrs(node).items():
            if key != "variant":
                out[f"variant.{variant}.{key}"] = value

    # Every span, addressable by path (the fine-grained alignment).
    for node, _depth in run.walk():
        if node.duration_s is not None:
            out[f"span.{node.path}.wall_s"] = node.duration_s
            out[f"span.{node.path}.self_s"] = node.self_s
        if node.peak_rss_kb is not None:
            out[f"span.{node.path}.rss_kb"] = float(node.peak_rss_kb)
        for key, value in _numeric_attrs(node).items():
            out[f"span.{node.path}.{key}"] = value

    # Metrics-registry snapshot.
    for name in sorted(run.metrics):
        snap = run.metrics[name]
        if snap.get("kind") == "histogram":
            for stat in ("count", "sum", "mean", "min", "max",
                         "p50", "p90", "p95", "p99"):
                value = snap.get(stat)
                if isinstance(value, (int, float)) and not isinstance(value, bool):
                    out[f"metric.{name}.{stat}"] = float(value)
        else:
            value = snap.get("value")
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                out[f"metric.{name}"] = float(value)
    return out


@dataclasses.dataclass
class DiffEntry:
    """One aligned measurement across two runs (None = absent)."""

    key: str
    a: Optional[float]
    b: Optional[float]

    @property
    def delta(self) -> Optional[float]:
        if self.a is None or self.b is None:
            return None
        return self.b - self.a

    @property
    def pct(self) -> Optional[float]:
        """Relative change in percent; None when undefined, +-inf for
        growth from exactly zero."""
        delta = self.delta
        if delta is None:
            return None
        if self.a == 0:
            return 0.0 if delta == 0 else math.copysign(math.inf, delta)
        return 100.0 * delta / abs(self.a)


@dataclasses.dataclass
class RunDiff:
    """All aligned measurements of two runs, A (base) vs B (candidate)."""

    source_a: str
    source_b: str
    entries: Dict[str, DiffEntry]

    def get(self, key: str) -> DiffEntry:
        return self.entries.get(key, DiffEntry(key=key, a=None, b=None))

    def changed(self) -> List[DiffEntry]:
        return [e for e in self.entries.values() if e.delta not in (None, 0.0)]


def diff_runs(run_a: ParsedRun, run_b: ParsedRun) -> RunDiff:
    """Align two parsed runs into a `RunDiff` (union of keys)."""
    ma, mb = run_measurements(run_a), run_measurements(run_b)
    entries = {
        key: DiffEntry(key=key, a=ma.get(key), b=mb.get(key))
        for key in sorted(set(ma) | set(mb))
    }
    return RunDiff(source_a=run_a.source, source_b=run_b.source, entries=entries)


_THRESHOLD_RE = re.compile(
    r"^\s*(?P<key>[A-Za-z0-9_.#/\[\]-]+)\s*"
    r"(?P<op>>=|<=|>|<)\s*"
    r"(?P<bound>[+-]?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)\s*"
    r"(?P<pct>%?)\s*$"
)


@dataclasses.dataclass(frozen=True)
class Threshold:
    """One regression gate: fail when B-A crosses the bound.

    ``route.wall_s>+10%`` — fail when route wall time grew > 10%.
    ``route.wirelength>+0`` — fail on any wirelength increase.
    ``variant.CMOS_NEM_OPT.leakage_w>+5%`` — leakage regression gate.
    ``timing.critical_path_s<-50%`` — fail on a suspicious *improvement*
    (changes that large usually mean the comparison broke).
    """

    key: str
    op: str
    bound: float
    relative: bool
    raw: str

    def violation(self, entry: DiffEntry) -> Optional[str]:
        """A failure message, or None when the gate passes."""
        if entry.a is None or entry.b is None:
            missing = [label for label, value in
                       (("A", entry.a), ("B", entry.b)) if value is None]
            return (f"{self.raw}: metric {self.key!r} missing from run "
                    f"{' and '.join(missing)}")
        measured = entry.pct if self.relative else entry.delta
        assert measured is not None
        exceeded = {
            ">": measured > self.bound,
            ">=": measured >= self.bound,
            "<": measured < self.bound,
            "<=": measured <= self.bound,
        }[self.op]
        if not exceeded:
            return None
        unit = "%" if self.relative else ""
        return (f"{self.raw}: {self.key} = {entry.a:g} -> {entry.b:g} "
                f"(delta {measured:+.4g}{unit}, bound {self.op}{self.bound:+g}{unit})")


def parse_threshold(spec: str) -> Threshold:
    """Parse one ``--fail-on`` expression; ValueError on bad syntax."""
    match = _THRESHOLD_RE.match(spec)
    if match is None:
        raise ValueError(
            f"bad threshold {spec!r}: expected <metric><op><signed-number>[%], "
            "e.g. 'route.wall_s>+10%' or 'route.wirelength>+0'"
        )
    return Threshold(
        key=match.group("key"),
        op=match.group("op"),
        bound=float(match.group("bound")),
        relative=match.group("pct") == "%",
        raw=spec.strip(),
    )


@dataclasses.dataclass
class Verdict:
    """Machine-readable outcome of a gated diff."""

    thresholds: List[Threshold]
    violations: List[str]

    @property
    def ok(self) -> bool:
        return not self.violations


def evaluate_thresholds(diff: RunDiff, thresholds: Sequence[Threshold]) -> Verdict:
    violations = []
    for threshold in thresholds:
        message = threshold.violation(diff.get(threshold.key))
        if message is not None:
            violations.append(message)
    return Verdict(thresholds=list(thresholds), violations=violations)


def _fmt_value(value: Optional[float]) -> str:
    if value is None:
        return "-"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.6g}"


def _fmt_pct(value: Optional[float]) -> str:
    if value is None:
        return "-"
    if math.isinf(value):
        return "+inf%" if value > 0 else "-inf%"
    return f"{value:+.1f}%"


def format_diff(diff: RunDiff, keys: Optional[Sequence[str]] = None,
                only_changed: bool = False) -> str:
    """Signed delta table over ``keys`` (default: the summary namespaces
    — everything except the verbose per-span ``span.`` entries)."""
    if keys is None:
        keys = [k for k in diff.entries if not k.startswith("span.")]
    rows = []
    for key in keys:
        entry = diff.get(key)
        if only_changed and entry.delta in (None, 0.0):
            continue
        rows.append((key, _fmt_value(entry.a), _fmt_value(entry.b),
                     _fmt_value(entry.delta), _fmt_pct(entry.pct)))
    header = ("metric", f"A", f"B", "delta", "delta%")
    widths = [max(len(r[i]) for r in rows + [header]) for i in range(5)]
    lines = [
        f"A: {diff.source_a}",
        f"B: {diff.source_b}",
        "  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip(),
    ]
    for row in rows:
        lines.append("  ".join(
            cell.ljust(w) if i == 0 else cell.rjust(w)
            for i, (cell, w) in enumerate(zip(row, widths))
        ).rstrip())
    if not rows:
        lines.append("(no aligned measurements)")
    return "\n".join(lines) + "\n"


def diff_to_dict(diff: RunDiff, verdict: Optional[Verdict] = None) -> Dict[str, object]:
    """JSON-ready structure for ``repro diff --json``."""
    payload: Dict[str, object] = {
        "a": diff.source_a,
        "b": diff.source_b,
        "metrics": {
            key: {"a": e.a, "b": e.b, "delta": e.delta,
                  "pct": None if e.pct is None or math.isinf(e.pct) else e.pct}
            for key, e in diff.entries.items()
        },
    }
    if verdict is not None:
        payload["ok"] = verdict.ok
        payload["violations"] = list(verdict.violations)
        payload["thresholds"] = [t.raw for t in verdict.thresholds]
    return payload
