"""PathFinder negotiated-congestion routing (VPR-style).

Routes every inter-cluster net over the routing-resource graph.  The
classic algorithm [McMurchie-Ebeling / Betz 99]:

* every RR node has a congestion cost
  ``(base + history) * presence`` where presence grows with current
  overuse and history accumulates overuse across iterations;
* each iteration rips up and re-routes (only) the nets that touch
  overused nodes, as a Steiner tree grown sink-by-sink with A*
  (Manhattan-distance/L lookahead);
* iteration ends when no node is shared by two nets (legal routing)
  or the iteration limit is hit (unroutable at this channel width).

The inner expansion/cost loop lives in a kernel picked by graph size
(`repro.vpr.route_kernels`): the pure-Python reference walk on small
graphs, a vectorised numpy kernel on large ones — bit-identical by
contract, so the pick changes speed and nothing else.
"""

from __future__ import annotations

import dataclasses
import random
import threading
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..arch.params import ArchParams
from ..fabric import (
    KIND_IPIN,
    KIND_OPIN,
    FabricIR,
    as_fabric,
    get_fabric,
)
from ..netlist.core import BlockType
from ..obs import get_logger, get_publisher, get_registry, get_tracer, kv
from .place import Placement
from .route_kernels import make_kernel, resolve_kernel

_log = get_logger("vpr.route")

#: Deterministic tie-break jitter, cached per node count: it depends
#: only on ``n``, so routers sharing a FabricIR (or probing equal-size
#: graphs) skip regenerating it.  Lock-guarded: serve's thread-pool
#: workers construct routers concurrently.
_JITTER_CACHE: Dict[int, List[float]] = {}
_JITTER_LOCK = threading.Lock()


def _jitter_for(n: int) -> List[float]:
    with _JITTER_LOCK:
        cached = _JITTER_CACHE.get(n)
        if cached is None:
            rng = random.Random(0xF9A4)
            cached = _JITTER_CACHE[n] = [1.0 + 0.03 * rng.random() for _ in range(n)]
        return cached


@dataclasses.dataclass
class RouteNet:
    """A net to route: one source tile, one or more sink tiles."""

    name: str
    source_tile: Tuple[int, int]
    sink_tiles: List[Tuple[int, int]]


@dataclasses.dataclass
class RouteTree:
    """Routed result for one net.

    Attributes:
        nodes: All RR node ids used (tree order not guaranteed).
        parent: node id -> upstream node id (source's parent is -1).
        sink_nodes: SINK node ids reached.
    """

    nodes: List[int]
    parent: Dict[int, int]
    sink_nodes: List[int]


@dataclasses.dataclass
class RouterIteration:
    """Convergence telemetry for one PathFinder rip-up/re-route pass.

    Attributes:
        iteration: 1-based pass number.
        overused_nodes: Nodes still shared at the end of the pass.
        pres_fac: Presence factor the pass routed with.
        wirelength: Total wirelength of the current route trees.
        rerouted_nets: Nets ripped up and re-routed this pass.
    """

    iteration: int
    overused_nodes: int
    pres_fac: float
    wirelength: int
    rerouted_nets: int


@dataclasses.dataclass
class RoutingResult:
    """Outcome of a routing attempt.

    Attributes:
        success: True when fully legal (no overuse).
        iterations: PathFinder iterations used.
        trees: Net name -> route tree (present even on failure).
        overused_nodes: Count of still-overused nodes (0 on success).
        wirelength: Total wire-segment tiles used by all routes.
        convergence: Per-iteration telemetry series (always recorded;
            `overused_nodes` per entry is the router's convergence
            signal, ending at 0 on success).
    """

    success: bool
    iterations: int
    trees: Dict[str, RouteTree]
    overused_nodes: int
    wirelength: int
    convergence: List[RouterIteration] = dataclasses.field(default_factory=list)


def build_route_nets(placement: Placement) -> List[RouteNet]:
    """Derive the routable nets from a placement.

    Sinks collapse per tile (one SINK per LB / IO tile); sinks landing
    on the source tile are intra-tile (crossbar feedback) and drop out.
    """
    clustered = placement.clustered
    netlist = clustered.netlist
    nets: List[RouteNet] = []
    for driver, sinks in clustered.external_nets().items():
        driver_block = netlist.blocks[driver]
        if driver_block.type is BlockType.INPUT:
            source_tile = placement.location_of[driver]
        else:
            source_tile = placement.location_of[f"c{clustered.cluster_of[driver]}"]
        sink_tiles: List[Tuple[int, int]] = []
        seen: Set[Tuple[int, int]] = set()
        for sink in sinks:
            sink_block = netlist.blocks[sink]
            if sink_block.type is BlockType.OUTPUT:
                tile = placement.location_of[sink]
            else:
                tile = placement.location_of[f"c{clustered.cluster_of[sink]}"]
            if tile != source_tile and tile not in seen:
                seen.add(tile)
                sink_tiles.append(tile)
        if sink_tiles:
            nets.append(RouteNet(name=driver, source_tile=source_tile, sink_tiles=sink_tiles))
    return nets


class PathFinderRouter:
    """Negotiated-congestion router over one RR graph.

    Args:
        graph: The routing-resource graph, a `FabricIR` (anything
            else raises `TypeError`); kept as ``self.fabric``.
        pres_fac_init / pres_fac_mult: Presence penalty schedule.
        hist_fac: History cost accumulation factor.
        max_iterations: Give up after this many rip-up passes.
        astar_fac: A* lookahead aggressiveness (1.0 = admissible).
        kernel: Expansion kernel — None picks by graph size (see
            `repro.vpr.route_kernels.resolve_kernel`); ``"python"`` /
            ``"numpy"`` force one, which the differential harness and
            the kernel bench do.  Kernels are bit-identical by
            contract, so this only affects speed — never results,
            digests or cache keys.  The resolved name is exposed as
            ``self.kernel``.
    """

    def __init__(
        self,
        graph,
        pres_fac_init: float = 0.5,
        pres_fac_mult: float = 1.3,
        hist_fac: float = 0.4,
        max_iterations: int = 120,
        astar_fac: float = 1.2,
        delay_costs: Optional[Sequence[float]] = None,
        blocked_nodes: Optional[Set[int]] = None,
        blocked_edges: Optional[Set[Tuple[int, int]]] = None,
        kernel: Optional[str] = None,
    ) -> None:
        """``delay_costs`` (one weight per RR node, normalised so a
        typical wire hop ~ its base cost) enables timing-driven mode:
        a net with criticality k pays k * delay + (1 - k) * congestion
        per node, VPR-style.  None = pure routability mode.

        ``blocked_nodes`` marks defective resources (e.g. relays that
        failed programming verification): the router never uses them —
        defect-avoidance reconfiguration for relay fabrics.

        ``blocked_edges`` marks individual defective switches as
        directed ``(u, v)`` pairs: the wires stay usable, only that
        hop is forbidden (a stuck-open relay kills one crosspoint, not
        the whole track).
        """
        ir = self.fabric = as_fabric(graph)
        self.pres_fac_init = pres_fac_init
        self.pres_fac_mult = pres_fac_mult
        self.hist_fac = hist_fac
        self.max_iterations = max_iterations
        self.astar_fac = astar_fac
        if delay_costs is not None and len(delay_costs) != ir.num_nodes:
            raise ValueError("delay_costs must have one entry per RR node")
        self._delay_costs = list(delay_costs) if delay_costs is not None else None
        self._blocked = frozenset(blocked_nodes or ())
        n = ir.num_nodes
        # Directed blocked edges, encoded u*n+v so the hot loop does a
        # single int set-probe instead of building a tuple per edge.
        self._blocked_edges = frozenset(
            u * n + v for (u, v) in (blocked_edges or ()))
        # Deterministic tie-break jitter: symmetric conflicts otherwise
        # oscillate forever because both nets see identical costs.
        self._jitter = _jitter_for(max(n, 1))
        self._route_calls = 0
        self._wire_spans = ir.wire_spans
        self._pin_groups: Optional[Dict[Tuple[int, int, int], List[int]]] = None
        # The expansion kernel owns the mutable per-node state
        # (occupancy / history / static costs) and the search loop.
        self.kernel = resolve_kernel(kernel, n)
        self._kernel = make_kernel(self.kernel, self)

    # -- kernel delegation --------------------------------------------------

    def _refresh_static_costs(self) -> None:
        """base + history, recomputed once per PathFinder iteration."""
        self._kernel.refresh_static()

    def _route_net(
        self,
        net: RouteNet,
        pres_fac: float,
        bb_margin: float = 3.0,
        sink_shuffle: int = 0,
        criticality: float = 0.0,
    ) -> Optional[RouteTree]:
        return self._kernel.route_net(
            net, pres_fac, bb_margin=bb_margin,
            sink_shuffle=sink_shuffle, criticality=criticality)

    # -- occupancy bookkeeping -----------------------------------------------

    def _sibling_pins(self, pin_id: int) -> List[int]:
        """All pins of the same kind on the same tile (lazy cache)."""
        ir = self.fabric
        if self._pin_groups is None:
            groups: Dict[Tuple[int, int, int], List[int]] = {}
            kinds = ir.kind
            pin_ids = ((kinds == KIND_OPIN) | (kinds == KIND_IPIN)).nonzero()[0]
            xs, ys = ir.xs, ir.ys
            for i in pin_ids.tolist():
                groups.setdefault((int(xs[i]), int(ys[i]), int(kinds[i])), []).append(i)
            self._pin_groups = groups
        key = (int(ir.xs[pin_id]), int(ir.ys[pin_id]), int(ir.kind[pin_id]))
        return self._pin_groups.get(key, [])

    def _occupy(self, tree: RouteTree, delta: int) -> None:
        self._kernel.occupy(tree.nodes, delta)

    def _overused(self) -> List[int]:
        return self._kernel.overused()

    # -- main loop --------------------------------------------------------------

    def route(
        self,
        nets: Sequence[RouteNet],
        criticality: Optional[Dict[str, float]] = None,
        fixed_trees: Optional[Dict[str, RouteTree]] = None,
    ) -> RoutingResult:
        """Route all nets; returns success iff fully legal.

        ``criticality`` (net name -> [0, 1], used with delay_costs)
        turns on timing-driven costing per net.  Aborts early (failure)
        when congestion stops improving — the VPR "routing predictor"
        heuristic that makes Wmin binary searches affordable.

        ``fixed_trees`` (net name -> existing `RouteTree`) pre-occupies
        resources that must not move: incremental self-repair routes
        only the victim ``nets`` while every healthy net's tree stays
        pinned in place.  Fixed nets are never ripped up — negotiation
        pushes the rerouted nets around them — and the returned result
        contains only the newly routed trees.

        The per-iteration convergence series (overuse, pres_fac,
        wirelength, rip-up counts) is always recorded on the result;
        when a tracer is active it is also attached to the
        ``route.pathfinder`` span.
        """
        tracer = get_tracer()
        with tracer.span(
            "route.pathfinder",
            nets=len(nets),
            channel_width=self.fabric.params.channel_width,
            timing_driven=self._delay_costs is not None,
            fixed_nets=len(fixed_trees or ()),
            kernel=self.kernel,
        ) as span:
            registry = get_registry()
            registry.gauge("route.blocked_nodes").set(len(self._blocked))
            registry.gauge("route.blocked_edges").set(len(self._blocked_edges))
            pops_before = self._kernel.heap_pops
            pushes_before = self._kernel.heap_pushes
            result = self._route_impl(nets, criticality, fixed_trees)
            heap_pops = self._kernel.heap_pops - pops_before
            heap_pushes = self._kernel.heap_pushes - pushes_before
            registry.counter("route.heap_pops").inc(heap_pops)
            registry.counter("route.heap_pushes").inc(heap_pushes)
            span.set_many(
                success=result.success,
                iterations=result.iterations,
                overused_nodes=result.overused_nodes,
                wirelength=result.wirelength,
                heap_pops=heap_pops,
                heap_pushes=heap_pushes,
            )
            if tracer.enabled:
                span.set(
                    "convergence",
                    [dataclasses.asdict(it) for it in result.convergence],
                )
            return result

    def _route_impl(
        self,
        nets: Sequence[RouteNet],
        criticality: Optional[Dict[str, float]] = None,
        fixed_trees: Optional[Dict[str, RouteTree]] = None,
    ) -> RoutingResult:
        if fixed_trees:
            overlap = {net.name for net in nets} & set(fixed_trees)
            if overlap:
                raise ValueError(
                    f"nets both routed and fixed: {sorted(overlap)}")
            # Pin the healthy nets' resources before the first pass;
            # their occupancy never drops, so victims negotiate around
            # them exactly as against any other net they cannot evict.
            for tree in fixed_trees.values():
                self._occupy(tree, +1)
        crit_of = criticality or {}
        # Hoisted out of the iteration loop: the disabled (null) path
        # costs one attribute check per iteration, nothing more.
        pub = get_publisher()
        order = sorted(nets, key=lambda n: (-len(n.sink_tiles), n.name))
        if criticality:
            # Critical nets route first so they get the short paths.
            order = sorted(order, key=lambda n: -crit_of.get(n.name, 0.0))
        trees: Dict[str, RouteTree] = {}
        pres_fac = self.pres_fac_init
        iteration = 0
        overuse_history: List[int] = []
        convergence: List[RouterIteration] = []
        stall = 0
        last_pops = self._kernel.heap_pops
        for iteration in range(1, self.max_iterations + 1):
            escalate = False
            if iteration == 1:
                to_route = list(order)
            else:
                overused = set(self._overused())
                if not overused:
                    break
                # Stall detection: the same small conflict persisting
                # means the default nearest-sink order and reroute set
                # are wedged; escalate by also ripping up neighbouring
                # "blocker" nets and shuffling sink order.
                if overuse_history and len(overused) == overuse_history[-1] and len(overused) < 40:
                    stall += 1
                else:
                    stall = 0
                escalate = stall >= 4 and stall % 2 == 0
                hot = set(overused)
                if escalate:
                    offsets = self.fabric.edge_offsets
                    targets = self.fabric.edge_targets
                    kinds = self.fabric.kind
                    for node in overused:
                        hot.update(targets[offsets[node]:offsets[node + 1]].tolist())
                        # Pin conflicts are matching problems: a tile's
                        # nets must pair off with its pins.  Rip the
                        # sibling pins' users too, or the one free pin
                        # stays walled off by their taps forever.
                        k = kinds[node]
                        if k == KIND_OPIN or k == KIND_IPIN:
                            hot.update(self._sibling_pins(node))
                    for net in order:
                        tree = trees.get(net.name)
                        if tree is None:
                            continue
                        for n in tree.nodes:
                            if any(v in overused for v in
                                   targets[offsets[n]:offsets[n + 1]].tolist()):
                                hot.add(n)
                                break
                to_route = [
                    net
                    for net in order
                    if net.name not in trees
                    or any(n in hot for n in trees[net.name].nodes)
                ]
            if not to_route and iteration > 1:
                break
            self._refresh_static_costs()
            shuffle_seed = iteration if escalate else 0
            for net in to_route:
                old = trees.pop(net.name, None)
                if old is not None:
                    self._occupy(old, -1)
                net_crit = crit_of.get(net.name, 0.0)
                tree = self._route_net(
                    net, pres_fac, sink_shuffle=shuffle_seed, criticality=net_crit
                )
                if tree is None:
                    # Bounding-box restriction may have cut off the only
                    # path; retry unbounded before declaring failure.
                    tree = self._route_net(
                        net, pres_fac, bb_margin=1e9, criticality=net_crit
                    )
                if tree is None:
                    # Even congestion-tolerant search failed (graph
                    # disconnection at this width): hard failure.
                    overused_now = len(self._overused())
                    wirelength = tree_wirelength(self._wire_spans, trees)
                    convergence.append(RouterIteration(
                        iteration=iteration,
                        overused_nodes=overused_now,
                        pres_fac=pres_fac,
                        wirelength=wirelength,
                        rerouted_nets=len(to_route),
                    ))
                    _log.info("route hard-fail %s", kv(
                        net=net.name, iteration=iteration, overused=overused_now))
                    return RoutingResult(
                        success=False,
                        iterations=iteration,
                        trees=trees,
                        overused_nodes=overused_now,
                        wirelength=wirelength,
                        convergence=convergence,
                    )
                trees[net.name] = tree
                self._occupy(tree, +1)
            overused = self._overused()
            wirelength = tree_wirelength(self._wire_spans, trees)
            convergence.append(RouterIteration(
                iteration=iteration,
                overused_nodes=len(overused),
                pres_fac=pres_fac,
                wirelength=wirelength,
                rerouted_nets=len(to_route),
            ))
            expansions = self._kernel.heap_pops - last_pops
            last_pops = self._kernel.heap_pops
            _log.debug("route iter %s", kv(
                iteration=iteration, overused=len(overused), pres_fac=pres_fac,
                wirelength=wirelength, rerouted=len(to_route),
                expansions=expansions))
            if pub.enabled:
                pub.progress("route.iteration", iteration=iteration,
                             overused=len(overused), wirelength=wirelength,
                             rerouted=len(to_route), expansions=expansions)
            if not overused:
                return RoutingResult(
                    success=True,
                    iterations=iteration,
                    trees=trees,
                    overused_nodes=0,
                    wirelength=wirelength,
                    convergence=convergence,
                )
            self._kernel.add_history(overused, self.hist_fac)
            pres_fac *= self.pres_fac_mult
            overuse_history.append(len(overused))
            # Routing predictor: hopeless widths abort early, marginal
            # ones get time to grind the congestion tail down.
            if len(overuse_history) >= 14 and overuse_history[-1] > len(nets) // 2:
                break
            if len(overuse_history) >= 24:
                recent = overuse_history[-14:]
                if recent[-1] > 0.85 * recent[0] and recent[-1] > max(10, len(nets) // 10):
                    break
        return RoutingResult(
            success=not self._overused(),
            iterations=iteration,
            trees=trees,
            overused_nodes=len(self._overused()),
            wirelength=tree_wirelength(self._wire_spans, trees),
            convergence=convergence,
        )


def tree_wirelength(wire_spans: Sequence[int],
                    trees: Dict[str, RouteTree]) -> int:
    """Wire-segment tiles used by ``trees``, given the fabric's
    `FabricIR.wire_spans`."""
    return sum(wire_spans[n] for tree in trees.values() for n in tree.nodes)


def merge_defect_kwargs(router_kwargs: Dict, defect_map) -> Dict:
    """Fold a resolved `FabricDefectMap` into router keyword args.

    Unions the map's avoidance sets with any explicitly supplied
    ``blocked_nodes`` / ``blocked_edges`` so callers can combine a
    campaign with manual blocks.
    """
    if defect_map is None or defect_map.clean:
        return router_kwargs
    kwargs = dict(router_kwargs)
    nodes = set(kwargs.pop("blocked_nodes", None) or ())
    edges = set(kwargs.pop("blocked_edges", None) or ())
    kwargs["blocked_nodes"] = nodes | defect_map.blocked_nodes()
    kwargs["blocked_edges"] = edges | defect_map.blocked_edges()
    return kwargs


def route_design(
    placement: Placement,
    params: Optional[ArchParams] = None,
    channel_width: Optional[int] = None,
    defects=None,
    **router_kwargs,
) -> Tuple[RoutingResult, FabricIR]:
    """Fetch (or build) the FabricIR for a placement and route it.

    The IR comes from the keyed process-wide cache, so repeated calls
    at a previously probed ``(params, nx, ny)`` — the channel-width
    binary search, variant evaluation, STA re-routes — skip the build
    entirely.

    Args:
        placement: Placed design.
        params: Architecture; defaults to the packing's parameters.
        channel_width: Override W (used by the Wmin binary search).
        defects: Optional fault state to route around — a
            `faults.FabricDefectMap` for *this* width, or a provider
            (`faults.FaultCampaign` / callable) re-sampled per
            concrete fabric; see `faults.resolve_defects`.  Providers
            are the only defect form that survives a width change.

    Returns:
        (result, graph) — the `FabricIR` is needed for timing/power.
    """
    if params is None:
        params = placement.clustered.params
    if channel_width is not None:
        params = params.with_channel_width(channel_width)
    graph = get_fabric(params, placement.grid_width, placement.grid_height)
    if defects is not None:
        from ..faults import resolve_defects  # local: faults imports us

        router_kwargs = merge_defect_kwargs(
            router_kwargs, resolve_defects(defects, graph))
    router = PathFinderRouter(graph, **router_kwargs)
    nets = build_route_nets(placement)
    return router.route(nets), graph
