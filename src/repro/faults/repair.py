"""Incremental self-repair of routed designs on degraded fabrics.

Given a legally routed design and a `FabricDefectMap` that appeared
*after* routing (aging, BIST after a field failure), `repair_routing`
restores legality with the least possible disturbance, descending a
graceful-degradation ladder:

* **clean** — no routed net touches a faulty resource: nothing to do,
  the original routing (and bitstream) stands.
* **incremental** — rip up only the victim nets and negotiate them
  back against the blocked resources while every healthy net's tree
  stays *pinned* (`PathFinderRouter.route(fixed_trees=...)`).  Healthy
  trees are returned by identity — byte-identical, so the fabric tiles
  they program are not even reprogrammed.
* **full** — victims could not fit around the pinned nets: reroute the
  whole design from scratch on the same fabric, avoiding the faults.
* **widened** — the design no longer fits this channel width at all:
  retry at W + step, W + 2*step, ... (each width gets its defect map
  re-sampled from the campaign, because node ids — and the physical
  relay population — change with the fabric).

Every stage runs under a ``repair.*`` span and feeds the metrics
registry (``repair.runs`` / ``repair.nets_ripped`` / ``repair.stage``
/ ``repair.failures``) so `repro report` and `repro diff` surface
degradation events.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Tuple

import numpy as np

from ..fabric import FabricIR, get_fabric
from ..obs import get_logger, get_publisher, get_registry, get_tracer, kv
from ..vpr.place import Placement
from ..vpr.route import (
    PathFinderRouter,
    RoutingResult,
    build_route_nets,
    tree_wirelength,
)
from .campaign import FaultCampaign, switch_sites
from .defects import FabricDefectMap, resolve_defects

_log = get_logger("faults.repair")

#: Ladder stages in degradation order (index == severity).
REPAIR_STAGES = ("clean", "incremental", "full", "widened", "failed")


def find_victims(
    routing: RoutingResult, defects: FabricDefectMap
) -> List[str]:
    """Names of nets whose route uses a faulty resource (sorted).

    A net is a victim when its tree contains a blocked node (dead wire
    or a wire bridged by a stuck-closed relay) or crosses a blocked
    directed edge (a stuck-open relay it needs conducting).
    """
    trees = routing.trees
    listed, lengths = trees.listed_nodes()
    on_node = np.isin(listed, np.fromiter(defects.blocked_nodes(), dtype=np.int64))
    hit = set(np.repeat(np.arange(len(trees)), lengths)[on_node].tolist())
    edges = defects.blocked_edges()
    if edges:
        # (parent, node) hops as one int64 each; the root's (-1,
        # source) pair can never match a blocked edge.
        hops = (trees.column("parents").astype(np.int64) << 32
                | trees.column("nodes"))
        blocked = np.array([u << 32 | v for u, v in edges], dtype=np.int64)
        hit.update(trees.net_index()[np.isin(hops, blocked)].tolist())
    return sorted(trees.names[i] for i in hit)


@dataclasses.dataclass(frozen=True)
class RepairAttempt:
    """One rung of the ladder, as tried."""

    stage: str
    channel_width: int
    success: bool
    nets_rerouted: int
    iterations: int


@dataclasses.dataclass
class RepairResult:
    """Outcome of `repair_routing`.

    Attributes:
        stage: The rung that succeeded (or ``failed``).
        stage_index: Numeric severity (position in `REPAIR_STAGES`).
        success: Whether a legal routing exists at the end.
        routing: The repaired routing (original on ``clean``; merged
            healthy + rerouted trees on ``incremental``; a fresh full
            route otherwise).  On failure: the last attempt's partial.
        graph: The fabric the final routing lives on (changes only at
            the ``widened`` stage).
        channel_width: Final channel width.
        defects: The defect map the final routing avoids (re-sampled
            when the stage widened the fabric).
        victim_nets: Nets the defect map displaced from the original.
        nets_ripped: Total nets ripped up across all attempted stages.
        attempts: Ladder rungs in the order tried.
        sites: ``switch_sites(graph)`` when the widened rung enumerated
            it to sample a `FaultCampaign`; None otherwise.
    """

    stage: str
    success: bool
    routing: RoutingResult
    graph: FabricIR
    channel_width: int
    defects: FabricDefectMap
    victim_nets: List[str]
    nets_ripped: int
    attempts: List[RepairAttempt]
    sites: Optional[np.ndarray] = None

    @property
    def stage_index(self) -> int:
        return REPAIR_STAGES.index(self.stage)


def repair_routing(
    placement: Placement,
    routing: RoutingResult,
    defects: FabricDefectMap,
    graph: Optional[FabricIR] = None,
    campaign: Optional[object] = None,
    max_widen: int = 3,
    widen_step: int = 2,
    **router_kwargs,
) -> RepairResult:
    """Restore routing legality against ``defects`` (see module doc).

    Args:
        placement: The placed design (needed to rebuild nets and, on
            the widened rung, fresh fabrics).
        routing: The previously legal routing to preserve.
        defects: Fault state of the *current* fabric.
        graph: That fabric; defaults to the cache lookup for the
            placement's parameters (must match ``defects``).
        campaign: Optional defect provider (`FaultCampaign`, callable,
            or anything `resolve_defects` accepts) used to re-sample
            faults when the ladder widens the fabric.  Without it the
            widened rung is skipped when ``defects`` is non-empty —
            pretending a wider fabric is fault-free would be lying.
        max_widen: How many widened widths to try.
        widen_step: Channel-width increment per widened attempt.
        **router_kwargs: Forwarded to every `PathFinderRouter`.
    """
    params = placement.clustered.params
    if graph is None:
        graph = get_fabric(params, placement.grid_width, placement.grid_height)
    defects.validate_against(graph)
    width = graph.params.channel_width

    registry = get_registry()
    pub = get_publisher()
    registry.counter("repair.runs").inc()
    attempts: List[RepairAttempt] = []
    nets_ripped = 0

    def _rung(attempt: RepairAttempt) -> None:
        """Record a ladder rung and stream it to any live watcher."""
        attempts.append(attempt)
        if pub.enabled:
            pub.progress("repair.stage", stage=attempt.stage,
                         channel_width=attempt.channel_width,
                         success=attempt.success,
                         nets_ripped=nets_ripped)

    def _finish(
        stage: str, success: bool, result: RoutingResult,
        ir: FabricIR, w: int, final_defects: FabricDefectMap,
        victims: List[str], sites: Optional[np.ndarray] = None,
    ) -> RepairResult:
        registry.gauge("repair.stage").set(REPAIR_STAGES.index(stage))
        if not success:
            registry.counter("repair.failures").inc()
        return RepairResult(
            stage=stage, success=success, routing=result, graph=ir,
            channel_width=w, defects=final_defects,
            victim_nets=victims, nets_ripped=nets_ripped, attempts=attempts,
            sites=sites,
        )

    with get_tracer().span(
        "repair.run", defects=defects.total, channel_width=width
    ) as span:
        victims = find_victims(routing, defects)
        span.set("victims", len(victims))

        if not victims:
            span.set("stage", "clean")
            _rung(RepairAttempt(
                stage="clean", channel_width=width, success=True,
                nets_rerouted=0, iterations=0))
            return _finish("clean", True, routing, graph, width, defects, victims)

        nets = build_route_nets(placement)
        nets_by_name = {net.name: net for net in nets}
        victim_nets = [nets_by_name[name] for name in victims if name in nets_by_name]
        fixed = {
            name: tree for name, tree in routing.trees.items()
            if name not in set(victims)
        }

        # -- rung 1: incremental ---------------------------------------
        with get_tracer().span("repair.incremental", victims=len(victims)):
            router = PathFinderRouter(
                graph,
                blocked_nodes=sorted(defects.blocked_nodes()),
                blocked_edges=sorted(defects.blocked_edges()),
                **router_kwargs,
            )
            partial = router.route(victim_nets, fixed_trees=fixed)
        nets_ripped += len(victims)
        registry.counter("repair.nets_ripped").inc(len(victims))
        _rung(RepairAttempt(
            stage="incremental", channel_width=width, success=partial.success,
            nets_rerouted=len(victim_nets), iterations=partial.iterations))
        if partial.success:
            merged_trees = dict(fixed)
            merged_trees.update(partial.trees)
            merged = RoutingResult(
                success=True,
                iterations=partial.iterations,
                trees=merged_trees,
                overused_nodes=0,
                wirelength=tree_wirelength(graph.wire_spans, merged_trees),
                convergence=partial.convergence,
            )
            span.set("stage", "incremental")
            _log.info("repair ok %s", kv(stage="incremental", victims=len(victims)))
            return _finish("incremental", True, merged, graph, width, defects, victims)

        # -- rung 2: full reroute, same width --------------------------
        with get_tracer().span("repair.full", nets=len(nets)):
            router = PathFinderRouter(
                graph,
                blocked_nodes=sorted(defects.blocked_nodes()),
                blocked_edges=sorted(defects.blocked_edges()),
                **router_kwargs,
            )
            full = router.route(nets)
        nets_ripped += len(nets)
        registry.counter("repair.nets_ripped").inc(len(nets))
        _rung(RepairAttempt(
            stage="full", channel_width=width, success=full.success,
            nets_rerouted=len(nets), iterations=full.iterations))
        if full.success:
            span.set("stage", "full")
            _log.info("repair ok %s", kv(stage="full", nets=len(nets)))
            return _finish("full", True, full, graph, width, defects, victims)

        # -- rung 3: widen the fabric ----------------------------------
        last: Tuple[RoutingResult, FabricIR, int, FabricDefectMap] = (
            full, graph, width, defects)
        can_widen = campaign is not None or defects.clean
        if not can_widen:
            _log.info("repair cannot widen %s", kv(
                reason="no campaign to re-sample defects", defects=defects.total))
        for step in range(1, max_widen + 1) if can_widen else ():
            new_width = width + step * widen_step
            wide_ir = get_fabric(
                params.with_channel_width(new_width),
                placement.grid_width, placement.grid_height)
            if isinstance(campaign, FaultCampaign):
                # Enumerated once; the caller reuses it for this fabric.
                wide_sites = switch_sites(wide_ir)
                wide_defects = campaign.for_fabric(wide_ir, _sites=wide_sites)
            else:
                wide_sites = None
                wide_defects = resolve_defects(campaign, wide_ir)
            if wide_defects is None:
                from .defects import empty_defect_map
                wide_defects = empty_defect_map(wide_ir)
            with get_tracer().span("repair.widen", channel_width=new_width):
                router = PathFinderRouter(
                    wide_ir,
                    blocked_nodes=sorted(wide_defects.blocked_nodes()),
                    blocked_edges=sorted(wide_defects.blocked_edges()),
                    **router_kwargs,
                )
                wide = router.route(nets)
            nets_ripped += len(nets)
            registry.counter("repair.nets_ripped").inc(len(nets))
            _rung(RepairAttempt(
                stage="widened", channel_width=new_width, success=wide.success,
                nets_rerouted=len(nets), iterations=wide.iterations))
            last = (wide, wide_ir, new_width, wide_defects)
            if wide.success:
                span.set("stage", "widened")
                span.set("channel_width_final", new_width)
                _log.info("repair ok %s", kv(stage="widened", width=new_width))
                return _finish(
                    "widened", True, wide, wide_ir, new_width, wide_defects,
                    victims, wide_sites)

        span.set("stage", "failed")
        _log.info("repair failed %s", kv(victims=len(victims)))
        result, ir, w, final_defects = last
        return _finish("failed", False, result, ir, w, final_defects, victims)
