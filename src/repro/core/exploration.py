"""Architecture exploration for CMOS-NEM FPGAs (paper future work).

The paper's closing future-work item is the "exploration of new FPGA
architectures that utilize unique properties of NEM relays".  Two
levers stand out once switches live in the BEOL stack and cost no
CMOS area:

* **segment length** — with no Vt drop and tiny off-state loading,
  longer (or shorter) segments re-balance differently than in CMOS;
  `sweep_segment_length` maps the L trade-off for both fabrics.
* **connection flexibility** — extra relay taps are nearly free in
  CMOS area (they do grow the relay array), so Fcin/Fcout can rise to
  cut the required channel width; `sweep_connection_flexibility`
  quantifies Wmin and the relay-array cost against Fc.

Both sweeps run the real pack/place/route flow per architecture point.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence

from ..arch.params import ArchParams
from ..arch.tile import build_inventory
from ..circuits.ptm import PTM_22NM, Technology
from ..netlist.core import Netlist
from ..vpr.flow import FlowResult, find_min_channel_width, low_stress_width
from ..vpr.pack import pack
from ..vpr.place import place
from ..vpr.route import route_design
from .evaluate import evaluate_design, shared_evaluation
from .variants import baseline_variant, optimized_nem_variant


@dataclasses.dataclass
class ArchPoint:
    """One explored architecture point.

    Attributes:
        params: The architecture evaluated (channel width = the
            derived low-stress W for this point).
        wmin: Minimum routable channel width for the circuit.
        wirelength: Routed wirelength in tile-spans at the final W.
        baseline_critical_path / nem_critical_path: STA results (s).
        nem_leakage_reduction / nem_dynamic_reduction: Power ratios at
            the baseline's clock.
        relay_count_per_tile: NEM relays a tile's switches require.
    """

    params: ArchParams
    wmin: int
    wirelength: int
    baseline_critical_path: float
    nem_critical_path: float
    nem_leakage_reduction: float
    nem_dynamic_reduction: float
    relay_count_per_tile: int


def _evaluate_point(
    netlist: Netlist,
    params: ArchParams,
    seed: int,
    downsize: float,
    tech: Technology,
) -> ArchPoint:
    clustered = pack(netlist, params)
    placement = place(clustered, seed=seed)
    wmin, _result, _graph = find_min_channel_width(placement, params, start=8)
    final = params.with_channel_width(low_stress_width(wmin))
    routing, graph = route_design(placement, final)
    if not routing.success:
        # Rare near-threshold miss: pad the channel a little further.
        final = params.with_channel_width(low_stress_width(wmin) + 4)
        routing, graph = route_design(placement, final)
    flow = FlowResult(
        netlist=netlist, clustered=clustered, placement=placement,
        routing=routing, graph=graph, channel_width=final.channel_width,
    )
    shared = shared_evaluation(flow)
    base = evaluate_design(flow, baseline_variant(final, tech), **shared)
    nem = evaluate_design(
        flow, optimized_nem_variant(final, downsize, tech), frequency=base.frequency,
        **shared)
    inventory = build_inventory(final)
    return ArchPoint(
        params=final,
        wmin=wmin,
        wirelength=routing.wirelength,
        baseline_critical_path=base.critical_path,
        nem_critical_path=nem.critical_path,
        nem_leakage_reduction=base.total_leakage / nem.total_leakage,
        nem_dynamic_reduction=base.total_dynamic / nem.total_dynamic,
        relay_count_per_tile=inventory.routing_switches + inventory.crossbar_switches,
    )


def sweep_segment_length(
    netlist: Netlist,
    base_params: ArchParams,
    lengths: Sequence[int] = (1, 2, 4, 8),
    seed: int = 1,
    downsize: float = 8.0,
    tech: Technology = PTM_22NM,
) -> List[ArchPoint]:
    """Architecture sweep over routing segment length L.

    Returns one `ArchPoint` per L (each with its own derived W).
    """
    if not lengths:
        raise ValueError("need at least one segment length")
    points = []
    for length in lengths:
        params = dataclasses.replace(base_params, segment_length=length)
        points.append(_evaluate_point(netlist, params, seed, downsize, tech))
    return points


def sweep_connection_flexibility(
    netlist: Netlist,
    base_params: ArchParams,
    fc_in_values: Sequence[float] = (0.1, 0.2, 0.4, 0.6),
    seed: int = 1,
    downsize: float = 8.0,
    tech: Technology = PTM_22NM,
) -> List[ArchPoint]:
    """Architecture sweep over input-pin flexibility Fcin.

    Richer CB connectivity is nearly free in CMOS area for a relay
    fabric (taps are BEOL relays), and cuts the channel width the
    router needs; the relay-array count per tile records the cost side.
    """
    if not fc_in_values:
        raise ValueError("need at least one Fc value")
    points = []
    for fc_in in fc_in_values:
        params = dataclasses.replace(base_params, fc_in=fc_in)
        points.append(_evaluate_point(netlist, params, seed, downsize, tech))
    return points


def format_sweep(points: Sequence[ArchPoint], knob: str) -> str:
    """Text table of an exploration sweep."""
    getters: Dict[str, object] = {
        "segment_length": lambda p: p.params.segment_length,
        "fc_in": lambda p: p.params.fc_in,
    }
    if knob not in getters:
        raise KeyError(f"unknown knob {knob!r}; choose from {sorted(getters)}")
    get = getters[knob]
    lines = [
        f"{knob:>10s} {'Wmin':>6s} {'W':>5s} {'WL':>7s} {'relays/tile':>12s} "
        f"{'base ns':>8s} {'nem ns':>7s} {'leak.red':>9s} {'dyn.red':>8s}"
    ]
    for p in points:
        lines.append(
            f"{get(p)!s:>10s} {p.wmin:6d} {p.params.channel_width:5d} "
            f"{p.wirelength:7d} {p.relay_count_per_tile:12d} "
            f"{p.baseline_critical_path * 1e9:8.2f} {p.nem_critical_path * 1e9:7.2f} "
            f"{p.nem_leakage_reduction:9.2f} {p.nem_dynamic_reduction:8.2f}"
        )
    return "\n".join(lines)
