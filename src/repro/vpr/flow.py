"""End-to-end VPR-like flow driver (paper Fig. 10, left column).

pack -> place -> (binary-search Wmin) -> route at the working channel
width.  The three drivers — `run_flow` (fixed W), `run_flow_min_width`
(derived W) and `run_timing_driven_flow` — share one pack -> place
prologue and differ only in how they route.  The paper derives its
architecture's channel width as Wmin over all benchmark circuits plus
20% "low-stress routing" margin [Betz 99b]; `find_min_channel_width`
and `low_stress_width` reproduce that derivation.

The rest of Fig. 10 — configuring the relay crossbars and comparing
each NEM variant against the CMOS baseline — is
`repro.runner.worker.configure_and_evaluate`, shared by `repro flow`
and the batch worker.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, Optional, Sequence, Tuple

from ..arch.params import ArchParams
from ..fabric import FabricIR, get_fabric
from ..netlist.core import Netlist
from ..obs import get_logger, get_publisher, get_tracer, kv
from .pack import ClusteredNetlist, pack
from .place import Placement, place
from .route import PathFinderRouter, RoutingResult, build_route_nets, route_design

_log = get_logger("vpr.flow")

#: The paper's low-stress margin over Wmin.
LOW_STRESS_MARGIN = 0.2


@dataclasses.dataclass
class FlowResult:
    """Everything the evaluation stages need from one P&R run."""

    netlist: Netlist
    clustered: ClusteredNetlist
    placement: Placement
    routing: RoutingResult
    graph: FabricIR
    channel_width: int

    @property
    def success(self) -> bool:
        return self.routing.success

    def with_routing(
        self,
        routing: RoutingResult,
        graph: Optional[FabricIR] = None,
        channel_width: Optional[int] = None,
    ) -> "FlowResult":
        """This flow with its routed state replaced.

        The carry-over primitive for repaired designs: a self-repair
        (or one epoch of a lifetime mission) produces a new routing —
        possibly on a widened fabric — while the netlist, clustering
        and placement stand.  Returns a new `FlowResult`; the original
        is untouched.
        """
        return dataclasses.replace(
            self,
            routing=routing,
            graph=self.graph if graph is None else graph,
            channel_width=(self.channel_width if channel_width is None
                           else channel_width),
        )


def low_stress_width(wmin: int) -> int:
    """W = Wmin * 1.2 rounded up (paper Sec. 3.3)."""
    if wmin < 1:
        raise ValueError(f"wmin must be >= 1, got {wmin}")
    return int(math.ceil(wmin * (1.0 + LOW_STRESS_MARGIN)))


def find_min_channel_width(
    placement: Placement,
    params: Optional[ArchParams] = None,
    start: int = 12,
    max_width: int = 256,
    defects=None,
    **router_kwargs,
) -> Tuple[int, RoutingResult, FabricIR]:
    """Binary-search the minimum routable channel width.

    Doubles from ``start`` until routable, then bisects.  Returns
    (wmin, routing at wmin, graph at wmin).

    ``defects`` must be a *provider* (`faults.FaultCampaign` or a
    callable) — the search probes many channel widths and RR node ids
    are not portable between them, so raw ``blocked_nodes`` /
    ``blocked_edges`` sets are rejected here: they would silently
    block the wrong resources at every width but the one they were
    sampled on.
    """
    if params is None:
        params = placement.clustered.params
    for raw in ("blocked_nodes", "blocked_edges"):
        if router_kwargs.get(raw):
            raise ValueError(
                f"{raw} cannot be used in a channel-width search: node ids "
                "are fabric-specific and change with W; pass defects=<"
                "FaultCampaign or callable> so faults are re-sampled per "
                "probed width")
    from ..faults import FabricDefectMap

    if isinstance(defects, FabricDefectMap):
        raise ValueError(
            "a concrete FabricDefectMap is tied to one channel width; the "
            "Wmin search needs a provider (FaultCampaign or callable) that "
            "re-samples defects per probed width")
    tracer = get_tracer()
    pub = get_publisher()
    with tracer.span("flow.wmin_search", start=start, max_width=max_width) as span:
        probes = 0
        # Phase 1: find a routable upper bound.
        width = max(2, start)
        success: Optional[Tuple[int, RoutingResult, FabricIR]] = None
        # W=1 is no architecture (ArchParams needs two tracks), so it
        # is the floor: the narrowest width the bisection probes is 2.
        fail_width = 1
        while width <= max_width:
            probes += 1
            with tracer.span("flow.route_probe", width=width, phase="double") as probe:
                result, graph = route_design(
                    placement, params, channel_width=width, defects=defects,
                    **router_kwargs
                )
                probe.set("success", result.success)
            _log.debug("wmin probe %s", kv(width=width, success=result.success))
            if pub.enabled:
                pub.progress("flow.wmin_probe", width=width, phase="double",
                             success=result.success, probes=probes)
            if result.success:
                success = (width, result, graph)
                break
            fail_width = width
            width *= 2
        if success is None:
            span.set_many(probes=probes, wmin=None)
            raise RuntimeError(f"unroutable even at channel width {max_width}")
        # Phase 2: bisect (fail_width, success_width].
        lo, (hi, best_result, best_graph) = fail_width, success
        while hi - lo > 1:
            mid = (lo + hi) // 2
            probes += 1
            with tracer.span("flow.route_probe", width=mid, phase="bisect") as probe:
                result, graph = route_design(
                    placement, params, channel_width=mid, defects=defects,
                    **router_kwargs
                )
                probe.set("success", result.success)
            _log.debug("wmin probe %s", kv(width=mid, success=result.success))
            if pub.enabled:
                pub.progress("flow.wmin_probe", width=mid, phase="bisect",
                             success=result.success, probes=probes)
            if result.success:
                hi, best_result, best_graph = mid, result, graph
            else:
                lo = mid
        span.set_many(probes=probes, wmin=hi)
        _log.info("wmin found %s", kv(wmin=hi, probes=probes))
        return hi, best_result, best_graph


def _pack_and_place(
    netlist: Netlist, params: ArchParams, seed: int,
) -> Tuple[ClusteredNetlist, Placement]:
    """The flow prologue: pack, then place, each under its span."""
    tracer = get_tracer()
    with tracer.span("flow.pack") as span:
        clustered = pack(netlist, params)
        span.set_many(luts=netlist.num_luts, clusters=clustered.num_clusters)
    with tracer.span("flow.place") as span:
        placement = place(clustered, seed=seed)
        span.set_many(
            cost=placement.cost,
            grid=f"{placement.grid_width}x{placement.grid_height}",
        )
    return clustered, placement


def run_flow(
    netlist: Netlist,
    params: ArchParams,
    seed: int = 1,
    channel_width: Optional[int] = None,
    defects=None,
    **router_kwargs,
) -> FlowResult:
    """pack -> place -> route at a fixed channel width.

    ``channel_width`` defaults to the architecture's W; pass the
    low-stress width from `find_min_channel_width` to mirror the
    paper's methodology exactly.

    Fault-aware routing: raw ``blocked_nodes`` / ``blocked_edges``
    avoidance sets for *this* width's fabric reach the router through
    ``router_kwargs``; ``defects`` accepts a `faults.FabricDefectMap`
    or a provider (`faults.FaultCampaign` / callable) resolved against
    the concrete fabric — the sets union.
    """
    tracer = get_tracer()
    with tracer.span("flow.run", circuit=netlist.name, seed=seed) as root:
        clustered, placement = _pack_and_place(netlist, params, seed)
        width = channel_width if channel_width is not None else params.channel_width
        with tracer.span("flow.route", channel_width=width) as span:
            routing, graph = route_design(
                placement, params, channel_width=width, defects=defects,
                **router_kwargs
            )
            span.set_many(
                success=routing.success,
                iterations=routing.iterations,
                wirelength=routing.wirelength,
                overused_nodes=routing.overused_nodes,
            )
        root.set_many(channel_width=width, success=routing.success)
        _log.info("flow done %s", kv(
            circuit=netlist.name, width=width, success=routing.success,
            wirelength=routing.wirelength, iterations=routing.iterations))
        return FlowResult(
            netlist=netlist,
            clustered=clustered,
            placement=placement,
            routing=routing,
            graph=graph,
            channel_width=width,
        )


def run_flow_min_width(
    netlist: Netlist,
    params: ArchParams,
    seed: int = 1,
    defects=None,
    **router_kwargs,
) -> FlowResult:
    """pack -> place -> Wmin search -> route at the derived width.

    The job-level entry point for width-deriving runs (the batch
    runner's ``width=None`` jobs and the paper's W methodology): packs
    and places once, binary-searches Wmin on that placement, then
    returns the routing at ``low_stress_width(wmin)``.
    """
    tracer = get_tracer()
    with tracer.span("flow.run_min_width", circuit=netlist.name, seed=seed) as root:
        clustered, placement = _pack_and_place(netlist, params, seed)
        wmin, _routing, _graph = find_min_channel_width(
            placement, params, defects=defects, **router_kwargs
        )
        width = low_stress_width(wmin)
        with tracer.span("flow.route", channel_width=width) as span:
            routing, graph = route_design(
                placement, params, channel_width=width, defects=defects,
                **router_kwargs
            )
            span.set_many(
                success=routing.success,
                iterations=routing.iterations,
                wirelength=routing.wirelength,
            )
        root.set_many(wmin=wmin, channel_width=width, success=routing.success)
        _log.info("min-width flow done %s", kv(
            circuit=netlist.name, wmin=wmin, width=width, success=routing.success))
        return FlowResult(
            netlist=netlist,
            clustered=clustered,
            placement=placement,
            routing=routing,
            graph=graph,
            channel_width=width,
        )


def run_timing_driven_flow(
    netlist: Netlist,
    params: ArchParams,
    fabric,
    seed: int = 1,
    channel_width: Optional[int] = None,
    sta_passes: int = 2,
    defects=None,
    **router_kwargs,
):
    """Timing-driven pack/place/route (VPR-style criticality loop).

    After a routability-driven first route, STA produces per-net
    criticalities; critical nets are re-routed with delay-weighted
    costs.  Keeps the best legal result by critical path.

    Args:
        fabric: `FabricElectrical` supplying the delay model (the
            variant the design will be timed against).
        sta_passes: Criticality refinement iterations.
        defects: Fault-aware routing, same semantics as `run_flow`
            (as are raw ``blocked_nodes`` / ``blocked_edges`` in
            ``router_kwargs``) — every STA re-route pass avoids the
            same defective resources.

    Returns:
        (FlowResult, TimingReport) for the best routing found.
    """
    from .route import merge_defect_kwargs
    from .timing import analyze_timing, node_delay_costs

    if sta_passes < 0:
        raise ValueError(f"sta_passes must be >= 0, got {sta_passes}")
    tracer = get_tracer()
    with tracer.span(
        "flow.timing_driven", circuit=netlist.name, seed=seed, sta_passes=sta_passes
    ) as root:
        clustered, placement = _pack_and_place(netlist, params, seed)
        width = channel_width if channel_width is not None else params.channel_width
        arch = params.with_channel_width(width)
        graph = get_fabric(arch, placement.grid_width, placement.grid_height)
        if defects is not None:
            from ..faults import resolve_defects

            router_kwargs = merge_defect_kwargs(
                router_kwargs, resolve_defects(defects, graph))
        delay_costs = node_delay_costs(graph, fabric)
        nets = build_route_nets(placement)

        with tracer.span("flow.route", channel_width=width, sta_pass=0) as span:
            router = PathFinderRouter(graph, delay_costs=delay_costs, **router_kwargs)
            best_routing = router.route(nets)
            span.set("success", best_routing.success)
        if not best_routing.success:
            root.set("success", False)
            flow = FlowResult(
                netlist=netlist, clustered=clustered, placement=placement,
                routing=best_routing, graph=graph, channel_width=width,
            )
            return flow, None
        best_report = analyze_timing(placement, best_routing, graph, fabric)

        for sta_pass in range(1, sta_passes + 1):
            crit = best_report.net_criticality()
            with tracer.span("flow.route", channel_width=width, sta_pass=sta_pass) as span:
                router = PathFinderRouter(graph, delay_costs=delay_costs, **router_kwargs)
                candidate = router.route(nets, criticality=crit)
                span.set("success", candidate.success)
            if not candidate.success:
                continue
            report = analyze_timing(placement, candidate, graph, fabric)
            span.set("critical_path_s", report.critical_path)
            if report.critical_path < best_report.critical_path:
                best_routing, best_report = candidate, report
        root.set_many(success=True, critical_path_s=best_report.critical_path)
        flow = FlowResult(
            netlist=netlist, clustered=clustered, placement=placement,
            routing=best_routing, graph=graph, channel_width=width,
        )
        return flow, best_report


def derive_architecture_width(
    netlists: Sequence[Netlist],
    params: ArchParams,
    seed: int = 1,
    **router_kwargs,
) -> Dict[str, object]:
    """The paper's W derivation over a benchmark suite.

    Runs pack/place per circuit, binary-searches each circuit's Wmin,
    and returns max Wmin plus the +20% low-stress W (the paper lands
    on W = 118 for its suite at full scale).
    """
    tracer = get_tracer()
    per_circuit: Dict[str, int] = {}
    with tracer.span("flow.derive_width", circuits=len(netlists)) as span:
        for netlist in netlists:
            with tracer.span("flow.circuit_wmin", circuit=netlist.name) as circuit_span:
                clustered = pack(netlist, params)
                placement = place(clustered, seed=seed)
                wmin, _result, _graph = find_min_channel_width(
                    placement, params, **router_kwargs
                )
                circuit_span.set("wmin", wmin)
            per_circuit[netlist.name] = wmin
        overall = max(per_circuit.values())
        span.set_many(wmin=overall, low_stress_width=low_stress_width(overall))
        return {
            "wmin_per_circuit": per_circuit,
            "wmin": overall,
            "low_stress_width": low_stress_width(overall),
        }
