"""VPR-like place-and-route substrate (paper Fig. 10).

Pure-Python reimplementation of the flow the paper drives with VPR
5.0: VPack clustering, simulated-annealing placement, PathFinder
negotiated-congestion routing, Elmore-based static timing analysis,
and the Wmin / low-stress channel-width derivation.
"""

from .pack import BLE, Cluster, ClusteredNetlist, form_bles, pack, packing_stats
from .place import (
    IO_CAPACITY,
    AnnealStage,
    Placement,
    PlacementBlock,
    crossing_factor,
    place,
)
from .route import (
    PathFinderRouter,
    RouteNet,
    RouterIteration,
    RouteTree,
    RoutingResult,
    build_route_nets,
    route_design,
)
from .timing import (
    FabricElectrical,
    NetDelays,
    TimingReport,
    analyze_net,
    analyze_timing,
    estimate_hop_delay,
    node_delay_costs,
)
from .flow import (
    FlowResult,
    LOW_STRESS_MARGIN,
    derive_architecture_width,
    find_min_channel_width,
    low_stress_width,
    run_flow,
    run_flow_min_width,
    run_timing_driven_flow,
)
from .visualize import (
    channel_occupancy,
    render_congestion,
    render_net,
    render_placement,
    utilization_summary,
)

__all__ = [
    "AnnealStage",
    "BLE",
    "Cluster",
    "ClusteredNetlist",
    "FabricElectrical",
    "FlowResult",
    "IO_CAPACITY",
    "LOW_STRESS_MARGIN",
    "NetDelays",
    "PathFinderRouter",
    "Placement",
    "PlacementBlock",
    "RouteNet",
    "RouteTree",
    "RouterIteration",
    "RoutingResult",
    "TimingReport",
    "analyze_net",
    "analyze_timing",
    "build_route_nets",
    "estimate_hop_delay",
    "node_delay_costs",
    "run_timing_driven_flow",
    "channel_occupancy",
    "crossing_factor",
    "render_congestion",
    "render_net",
    "render_placement",
    "utilization_summary",
    "derive_architecture_width",
    "find_min_channel_width",
    "form_bles",
    "low_stress_width",
    "pack",
    "packing_stats",
    "place",
    "route_design",
    "run_flow",
    "run_flow_min_width",
]
