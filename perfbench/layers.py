"""The layer calls a workload makes, and the traced run's span recorder.

Workloads reach every layer through a `Layers` table, so a traced run
can open a span around each call without any change to the program.
Calls that one layer makes into another -- the Wmin search probing
`route_design`, the mission simulator calling wear accrual, BIST,
repair and the router -- are timed by rebinding the callee's name in
the calling module's namespace for the length of the run (`patched`).

Spans are kept in memory (`SpanRecorder`), written out when the run
ends, and reduced to per-span-name self time: a span's duration minus
the part of it its child spans cover.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import time
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import repro.config.bitstream
import repro.core.tradeoff
import repro.faults.mission
import repro.faults.repair
import repro.vpr.flow
import repro.vpr.route
from repro.config import extract_bitstream, program_fabric
from repro.core import sweep_circuit
from repro.faults import simulate_mission
from repro.vpr import find_min_channel_width, pack, place, route_design


@dataclasses.dataclass
class Layers:
    """The layer entry points the workloads call."""

    pack: Callable = pack
    place: Callable = place
    route_design: Callable = route_design
    find_min_channel_width: Callable = find_min_channel_width
    sweep_circuit: Callable = sweep_circuit
    extract_bitstream: Callable = extract_bitstream
    program_fabric: Callable = program_fabric
    simulate_mission: Callable = simulate_mission


@dataclasses.dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    op: int
    attrs: Dict[str, object]


class SpanRecorder:
    """In-memory spans of one run; `op` groups the spans of one operation."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self.op = -1

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Dict[str, object]]:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, time.perf_counter(), 0.0, parent, self.op, {})
        self.spans.append(span)
        self._stack.append(index)
        try:
            yield span.attrs
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> Dict[str, float]:
        """Span name -> summed self time (s)."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                covered[span.parent] += span.end - span.start
        totals: Dict[str, float] = {}
        for span, child in zip(self.spans, covered):
            totals[span.name] = totals.get(span.name, 0.0) + (
                span.end - span.start - child)
        return totals

    def attr_sum(self, name: str, attr: str) -> float:
        return sum(s.attrs.get(attr, 0) for s in self.spans if s.name == name)

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as fh:
            for index, span in enumerate(self.spans):
                fh.write(json.dumps({"id": index, **dataclasses.asdict(span)}))
                fh.write("\n")


@contextlib.contextmanager
def patched(targets: Sequence[Tuple[object, str, object]]) -> Iterator[None]:
    """Rebind ``module.name = value`` for each target; restore on exit."""
    saved = [(owner, name, getattr(owner, name)) for owner, name, _ in targets]
    try:
        for owner, name, value in targets:
            setattr(owner, name, value)
        yield
    finally:
        for owner, name, value in reversed(saved):
            setattr(owner, name, value)


def _traced(rec: SpanRecorder, name: str, fn: Callable,
            note: Optional[Callable] = None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with rec.span(name) as attrs:
            result = fn(*args, **kwargs)
            if note is not None:
                note(attrs, result)
            return result
    return wrapper


def _traced_router(rec: SpanRecorder):
    base = repro.vpr.route.PathFinderRouter

    class TracedRouter(base):
        def __init__(self, *args, **kwargs):
            with rec.span("route.init"):
                super().__init__(*args, **kwargs)

        def route(self, *args, **kwargs):
            with rec.span("route.route") as attrs:
                result = super().route(*args, **kwargs)
                attrs["iterations"] = result.iterations
                return result

    return TracedRouter


def _traced_campaign(rec: SpanRecorder):
    base = repro.faults.mission.FaultCampaign

    class TracedCampaign(base):
        def for_fabric(self, *args, **kwargs):
            with rec.span("faults.campaign"):
                return super().for_fabric(*args, **kwargs)

    return TracedCampaign


def _note_probe(attrs, result) -> None:
    attrs["failed"] = int(not result[0].success)


@contextlib.contextmanager
def traced_layers(rec: SpanRecorder, layers: Layers) -> Iterator[Layers]:
    """A copy of ``layers`` whose every call opens a span, with the
    layers' calls into each other wrapped in their callers' modules."""
    flow, route = repro.vpr.flow, repro.vpr.route
    mission, repair = repro.faults.mission, repro.faults.repair
    router = _traced_router(rec)
    fabric = _traced(rec, "fabric.get", route.get_fabric)
    nested = [
        (flow, "route_design", _traced(rec, "route.probe", flow.route_design,
                                       _note_probe)),
        (route, "get_fabric", fabric),
        (route, "PathFinderRouter", router),
        (repro.core.tradeoff, "evaluate_design",
         _traced(rec, "evaluate.point", repro.core.tradeoff.evaluate_design)),
        # `faults.mission` imports `extract_bitstream` inside the function
        # that uses it, so the name is looked up in its home module.
        (repro.config.bitstream, "extract_bitstream",
         _traced(rec, "config.bitstream",
                 repro.config.bitstream.extract_bitstream)),
        (mission, "site_actuations",
         _traced(rec, "faults.wear", mission.site_actuations)),
        (mission, "run_fabric_bist",
         _traced(rec, "faults.bist", mission.run_fabric_bist)),
        (mission, "repair_routing",
         _traced(rec, "faults.repair", mission.repair_routing)),
        (mission, "FaultCampaign", _traced_campaign(rec)),
        (mission, "PathFinderRouter", router),
        (mission, "get_fabric", fabric),
        (repair, "PathFinderRouter", router),
        (repair, "get_fabric", fabric),
    ]
    names = {
        "pack": "pack", "place": "place", "route_design": "route.design",
        "find_min_channel_width": "route.wmin_search",
        "sweep_circuit": "evaluate.sweep",
        "extract_bitstream": "config.bitstream",
        "program_fabric": "crossbar.program",
        "simulate_mission": "faults.mission",
    }
    traced = Layers(**{
        field: _traced(rec, names[field], getattr(layers, field))
        for field in names
    })
    with patched(nested):
        yield traced
