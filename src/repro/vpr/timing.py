"""Post-route static timing analysis (the paper's "VPR timing
analysis" box, Fig. 10).

Net delays come from a stage-walk Elmore model over each routed tree:
every buffered wire segment is one RC stage (driver resistance, wire
RC, switch and tap parasitics, downstream buffer input load); switch
resistances and capacitances, buffer presence/sizing and off-switch
wire loading all come from a `FabricElectrical` spec, which is where
the CMOS-only / CMOS-NEM variants differ.  Arrival times then
propagate through the LUT netlist and the application critical path is
the maximum over FF data inputs and primary outputs.
"""

from __future__ import annotations

import dataclasses
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..circuits.buffers import RoutingBuffer, restorer_delay_factor
from ..circuits.ptm import Technology
from ..fabric import (
    KIND_HWIRE,
    KIND_IPIN,
    KIND_OPIN,
    KIND_SINK,
    KIND_SOURCE,
    KIND_VWIRE,
    FabricIR,
    SwitchKind,
    as_fabric,
)
from ..netlist.core import BlockType
from ..obs import get_registry, get_tracer
from .place import Placement
from .route import RouteTree, RoutingResult


@dataclasses.dataclass(frozen=True)
class FabricElectrical:
    """Electrical view of one FPGA variant's routing fabric.

    Attributes:
        tech: Technology constants.
        switch_r / switch_c: Series resistance (ohm) and total
            parasitic capacitance (F) of one routing switch (pass
            transistor or NEM relay); half the capacitance loads each
            side.
        switch_c_off: Capacitance an *unused* (off) switch hangs on a
            wire (F) — diffusion cap for NMOS, C_off for a relay.
        off_taps_per_wire: Count of off switches loading one segment
            wire (CB taps along the span + SB taps at the ends).
        wire_r / wire_c: Total resistance/capacitance of one segment
            wire (F), from physical length at the variant's tile pitch.
        wire_buffer: Driver of each wire segment (never None in the
            paper's variants, but optional for ablations).
        lb_input_buffer / lb_output_buffer: None when removed (the
            paper's technique).
        t_lut: LUT input-to-output delay (s).
        t_local_in: IPIN -> LUT input delay (s): input buffer (if any)
            + internal crossbar traversal.
        t_local_out: LUT output -> OPIN delay (s): output mux +
            output buffer (if any).
        t_local_feedback: Intra-cluster LUT -> LUT delay (s).
        t_clk_q / t_su: FF clock-to-Q and setup (s).
        degraded_inputs: True when routing switches drop Vt (pass
            transistors), applying the level-restorer input penalty to
            buffer delays.
        crossbar_row_cap: Capacitance of one LB-internal crossbar row
            (F); what a route drives directly when the LB input buffer
            is removed.
    """

    tech: Technology
    switch_r: float
    switch_c: float
    switch_c_off: float
    off_taps_per_wire: float
    wire_r: float
    wire_c: float
    wire_buffer: Optional[RoutingBuffer]
    lb_input_buffer: Optional[RoutingBuffer]
    lb_output_buffer: Optional[RoutingBuffer]
    t_lut: float
    t_local_in: float
    t_local_out: float
    t_local_feedback: float
    t_clk_q: float
    t_su: float
    degraded_inputs: bool
    crossbar_row_cap: float = 0.0

    @property
    def wire_off_load(self) -> float:
        """Static parasitic load of unused switches on one wire (F)."""
        return self.off_taps_per_wire * self.switch_c_off

    def stage_input_cap(self) -> float:
        """Cap presented where a route enters a buffered segment (F)."""
        if self.wire_buffer is not None:
            return self.wire_buffer.input_capacitance
        return 0.0

    def sink_input_cap(self) -> float:
        """Cap presented at the IPIN side (F)."""
        if self.lb_input_buffer is not None:
            return self.lb_input_buffer.input_capacitance
        if self.crossbar_row_cap > 0.0:
            # Direct relay-crossbar entry: the route drives the row.
            return self.crossbar_row_cap
        return 2.0 * self.tech.transistor.inverter_input_cap

    def buffer_internal_delay(self, buffer: RoutingBuffer) -> float:
        """Chain delay up to (and including) the last stage switching
        its own output node, excluding the external RC tree (s).  The
        Vt-restoration penalty applies to the first stage only."""
        d = buffer.chain.delay(0.0)
        if self.degraded_inputs:
            d += (restorer_delay_factor(self.tech.transistor) - 1.0) * buffer.chain.first_stage_delay(0.0)
        return d


_ELMORE = 0.69


def estimate_hop_delay(fabric: FabricElectrical, span_fraction: float = 1.0) -> float:
    """First-order delay (s) of one buffered wire hop at a given span
    fraction — the per-node estimate timing-driven routing costs with.
    """
    if span_fraction <= 0:
        raise ValueError(f"span fraction must be positive, got {span_fraction}")
    r_up = (
        fabric.wire_buffer.output_resistance
        if fabric.wire_buffer is not None
        else fabric.tech.transistor.inverter_drive_resistance
    )
    c_here = (fabric.wire_c + fabric.wire_off_load) * span_fraction
    c_tail = 0.5 * fabric.switch_c + fabric.stage_input_cap()
    t = _ELMORE * (r_up + fabric.switch_r) * (0.5 * fabric.switch_c)
    if fabric.wire_buffer is not None:
        t += _ELMORE * (r_up + fabric.switch_r) * fabric.wire_buffer.input_capacitance
        t += fabric.buffer_internal_delay(fabric.wire_buffer)
        r_drv = fabric.wire_buffer.output_resistance
    else:
        r_drv = r_up + fabric.switch_r
    r_wire = fabric.wire_r * span_fraction
    t += _ELMORE * (r_drv * (c_here + c_tail) + r_wire * (0.5 * c_here + c_tail))
    return t


def node_delay_costs(graph, fabric: FabricElectrical) -> List[float]:
    """Per-RR-node delay weights for timing-driven PathFinder.

    Normalised so a full-span wire hop costs its congestion base cost
    (the segment length): a fully critical net then optimises hop
    count and span exactly as the physical delay model would rank them.
    """
    ir = as_fabric(graph)
    seg_len = ir.params.segment_length
    full = estimate_hop_delay(fabric, 1.0)
    kind = ir.kind
    costs = np.zeros(len(kind), dtype=np.float64)
    wire_mask = (kind == KIND_HWIRE) | (kind == KIND_VWIRE)
    # One scalar model evaluation per distinct span, broadcast over the
    # wire population sharing it.
    for span in np.unique(ir.spans[wire_mask]):
        cost = seg_len * estimate_hop_delay(fabric, float(span) / seg_len) / full
        costs[wire_mask & (ir.spans == span)] = cost
    costs[(kind == KIND_OPIN) | (kind == KIND_IPIN)] = 0.3
    return costs.tolist()


@dataclasses.dataclass
class NetDelays:
    """Per-net delays and switched capacitance.

    Attributes:
        delay_to_tile: Sink tile -> delay (s) from the driver block's
            output pin to that tile's LB input (crossbar side).
        cap_wire: Switched metal-wire capacitance incl. off-switch
            loading (F) — the paper's "wire interconnects" category.
        cap_buffer: Switched routing-buffer capacitance (F): buffer
            inputs + internal nodes.
        cap_switch: Switched on-path switch parasitics (F).
        num_stages: Wire segments used (buffered stages).
    """

    delay_to_tile: Dict[Tuple[int, int], float]
    cap_wire: float
    cap_buffer: float
    cap_switch: float
    num_stages: int

    @property
    def total_capacitance(self) -> float:
        return self.cap_wire + self.cap_buffer + self.cap_switch


def _tree_children(tree: RouteTree) -> Dict[int, List[int]]:
    children: Dict[int, List[int]] = defaultdict(list)
    for node, parent in tree.parent.items():
        if parent >= 0:
            children[parent].append(node)
    return children


def analyze_net(
    tree: RouteTree,
    graph: FabricIR,
    fabric: FabricElectrical,
) -> NetDelays:
    """Stage-walk delay/capacitance extraction for one routed tree.

    Wire segments are stages.  With wire buffers, each stage is driven
    by its buffer (previous stage sees only the buffer's input cap);
    without, resistance accumulates down the path (true unbuffered
    Elmore chain).  Off-switch loading applies to every wire.

    Tree-edge classification (what sits between a stage and the next)
    comes from the IR's shared switch-kind table rather than a local
    re-derivation from endpoint kinds.
    """
    ir = as_fabric(graph)
    children = _tree_children(tree)
    kind = ir.kind
    xs, ys = ir.xs, ir.ys
    seg_len = ir.params.segment_length

    # Per-wire-node stage load (excluding downstream-through-buffer).
    def wire_span_fraction(node_id: int) -> float:
        return float(ir.spans[node_id]) / seg_len

    def stage_load(node_id: int) -> Tuple[float, float]:
        """(c_here, c_tail): cap on this wire and cap at its far end."""
        frac = wire_span_fraction(node_id)
        c_here = fabric.wire_c * frac + fabric.wire_off_load * frac
        c_tail = 0.0
        for child in children.get(node_id, ()):
            sw = ir.switch_kind_between(node_id, child)
            if sw is SwitchKind.WIRE_WIRE:
                c_tail += 0.5 * fabric.switch_c + fabric.stage_input_cap()
            elif sw is SwitchKind.WIRE_IPIN:
                c_tail += 0.5 * fabric.switch_c + fabric.sink_input_cap()
        return c_here, c_tail

    # Switched capacitance of the net, split per Fig. 9 category.
    cap_wire = 0.0
    cap_buffer = 0.0
    cap_switch = 0.0
    for node_id in tree.nodes:
        k = kind[node_id]
        if k == KIND_HWIRE or k == KIND_VWIRE:
            frac = wire_span_fraction(node_id)
            cap_wire += fabric.wire_c * frac + fabric.wire_off_load * frac
            cap_switch += fabric.switch_c
            if fabric.wire_buffer is not None:
                cap_buffer += fabric.wire_buffer.input_capacitance
                cap_buffer += fabric.wire_buffer.chain.internal_switching_capacitance()
        elif k == KIND_IPIN:
            cap_switch += 0.5 * fabric.switch_c
            cap_buffer += fabric.sink_input_cap()

    # Driver stage resistance at the OPIN: the LB output buffer if
    # present, else the BLE's 2:1 output mux driver (a 2x inverter).
    if fabric.lb_output_buffer is not None:
        r_driver = fabric.lb_output_buffer.output_resistance
    else:
        r_driver = fabric.tech.transistor.inverter_drive_resistance / 2.0

    # Walk each root-to-sink path, accumulating stage delays.
    delay_to_tile: Dict[Tuple[int, int], float] = {}
    path_cache: Dict[int, float] = {}  # wire/ipin node -> arrival at node entry

    def arrival(node_id: int) -> float:
        """Delay from the net driver's output pin to the *output* of
        this RR node's stage (cached, computed recursively)."""
        if node_id in path_cache:
            return path_cache[node_id]
        parent = tree.parent[node_id]
        k = kind[node_id]
        if k == KIND_SOURCE or k == KIND_OPIN:
            path_cache[node_id] = 0.0
            return 0.0
        t_parent = arrival(parent)
        parent_kind = kind[parent]

        if k == KIND_HWIRE or k == KIND_VWIRE:
            c_here, c_tail = stage_load(node_id)
            frac = wire_span_fraction(node_id)
            r_wire = fabric.wire_r * frac
            if ir.switch_kind_between(parent, node_id) is not SwitchKind.WIRE_WIRE:
                # Entry from the driver side (OPIN -> wire switch).
                r_up = r_driver
            elif fabric.wire_buffer is not None:
                r_up = fabric.wire_buffer.output_resistance
            else:
                r_up = path_rres.get(parent, r_driver)
            # Through the entry switch:
            t = _ELMORE * (r_up + fabric.switch_r) * (0.5 * fabric.switch_c)
            if fabric.wire_buffer is not None:
                # Entry switch also charges the buffer input; then the
                # buffer drives the wire.
                t += _ELMORE * (r_up + fabric.switch_r) * fabric.wire_buffer.input_capacitance
                t += fabric.buffer_internal_delay(fabric.wire_buffer)
                r_drv = fabric.wire_buffer.output_resistance
                t += _ELMORE * (r_drv * (c_here + c_tail) + r_wire * (0.5 * c_here + c_tail))
                path_rres[node_id] = r_drv + r_wire
            else:
                r_total = r_up + fabric.switch_r
                t += _ELMORE * (r_total * (c_here + c_tail) + r_wire * (0.5 * c_here + c_tail))
                path_rres[node_id] = r_total + r_wire
            path_cache[node_id] = t_parent + t
            return path_cache[node_id]

        if k == KIND_IPIN:
            if parent_kind == KIND_HWIRE or parent_kind == KIND_VWIRE:
                if fabric.wire_buffer is not None:
                    r_up = path_rres.get(parent, fabric.wire_buffer.output_resistance)
                else:
                    r_up = path_rres.get(parent, r_driver)
            else:
                r_up = r_driver
            t = _ELMORE * (r_up + fabric.switch_r) * (
                0.5 * fabric.switch_c + fabric.sink_input_cap()
            )
            path_cache[node_id] = t_parent + t
            return path_cache[node_id]

        if k == KIND_SINK:
            path_cache[node_id] = arrival(parent)
            return path_cache[node_id]
        raise AssertionError(f"unexpected node kind {k}")

    path_rres: Dict[int, float] = {}
    stages = 0
    for sink in tree.sink_nodes:
        delay_to_tile[(int(xs[sink]), int(ys[sink]))] = arrival(sink)
    for node_id in tree.nodes:
        k = kind[node_id]
        if k == KIND_HWIRE or k == KIND_VWIRE:
            stages += 1
    return NetDelays(
        delay_to_tile=delay_to_tile,
        cap_wire=cap_wire,
        cap_buffer=cap_buffer,
        cap_switch=cap_switch,
        num_stages=stages,
    )


@dataclasses.dataclass
class TimingReport:
    """STA outcome.

    Attributes:
        critical_path: Application critical path delay (s).
        arrival: Block name -> arrival time (s).
        net_delays: Net name -> `NetDelays`.
        critical_block: Endpoint block realising the critical path.
        worst_predecessor: Combinational predecessor per block (the
            input that set its arrival); None at PIs and FF outputs
            (register boundaries).
        endpoint_predecessor: Endpoint (FF or PO) -> its data source,
            the first hop of a critical-path trace.
    """

    critical_path: float
    arrival: Dict[str, float]
    net_delays: Dict[str, NetDelays]
    critical_block: Optional[str]
    worst_predecessor: Dict[str, Optional[str]] = dataclasses.field(default_factory=dict)
    endpoint_predecessor: Dict[str, Optional[str]] = dataclasses.field(default_factory=dict)

    def critical_path_blocks(self) -> List[str]:
        """The critical path as a block chain: startpoint (PI or FF
        output) first, endpoint (FF D input or PO) last."""
        if self.critical_block is None:
            return []
        path = [self.critical_block]
        node = self.endpoint_predecessor.get(self.critical_block)
        seen = {self.critical_block}
        while node is not None and node not in seen:
            seen.add(node)
            path.append(node)
            node = self.worst_predecessor.get(node)
        path.reverse()
        return path

    def slacks(self, period: Optional[float] = None) -> Dict[str, float]:
        """Per-block slack against ``period`` (default: the critical
        path, so the critical chain has zero slack).

        Slack here is the simple endpoint form period - arrival; blocks
        on the critical chain bottom out at (near) zero.
        """
        target = period if period is not None else self.critical_path
        if target <= 0:
            raise ValueError(f"period must be positive, got {target}")
        return {name: target - t for name, t in self.arrival.items()}

    def net_criticality(self) -> Dict[str, float]:
        """Net name -> arrival(driver)/critical_path in [0, 1]; a cheap
        criticality proxy for timing-driven optimisation."""
        if self.critical_path <= 0:
            return {name: 0.0 for name in self.net_delays}
        return {
            name: min(1.0, max(0.0, self.arrival.get(name, 0.0) / self.critical_path))
            for name in self.net_delays
        }


def analyze_timing(
    placement: Placement,
    routing: RoutingResult,
    graph: FabricIR,
    fabric: FabricElectrical,
) -> TimingReport:
    """Full-design STA.

    Edge delay from driver block u to sink block v:

    * inter-cluster: t_local_out + routed net delay to v's tile +
      t_local_in (+ t_lut folded at the consuming LUT);
    * intra-cluster: t_local_feedback.

    Critical path = max arrival over FF D inputs and POs (+ setup).
    """
    with get_tracer().span(
        "timing.sta", circuit=placement.clustered.netlist.name
    ) as tspan:
        report = _analyze_timing_impl(placement, routing, graph, fabric)
        tspan.set_many(
            critical_path_s=report.critical_path,
            critical_block=report.critical_block,
            nets=len(report.net_delays),
            endpoints=len(report.endpoint_predecessor),
        )
        registry = get_registry()
        registry.counter("timing.sta_runs").inc()
        registry.gauge("timing.critical_path_s").set(report.critical_path)
        if report.critical_path > 0:
            slack_hist = registry.histogram("timing.slack_s")
            slacks = report.slacks()
            for slack in slacks.values():
                slack_hist.observe(slack)
            tspan.set(
                "near_critical_endpoints",
                sum(1 for s in slacks.values()
                    if s <= 0.05 * report.critical_path),
            )
        return report


def _analyze_timing_impl(
    placement: Placement,
    routing: RoutingResult,
    graph: FabricIR,
    fabric: FabricElectrical,
) -> TimingReport:
    graph = as_fabric(graph)
    clustered = placement.clustered
    netlist = clustered.netlist

    net_delays: Dict[str, NetDelays] = {}
    for name, tree in routing.trees.items():
        net_delays[name] = analyze_net(tree, graph, fabric)

    def tile_of_block(block_name: str) -> Tuple[int, int]:
        block = netlist.blocks[block_name]
        if block.type in (BlockType.INPUT, BlockType.OUTPUT):
            return placement.location_of[block_name]
        return placement.location_of[f"c{clustered.cluster_of[block_name]}"]

    def edge_delay(driver: str, sink_block: str) -> float:
        driver_block = netlist.blocks[driver]
        sink_tile = tile_of_block(sink_block)
        driver_tile = tile_of_block(driver)
        if driver_tile == sink_tile and driver_block.type not in (BlockType.INPUT,):
            return fabric.t_local_feedback
        nd = net_delays.get(driver)
        if nd is None or sink_tile not in nd.delay_to_tile:
            # Same-tile PI, or an unroutable leftover: local hop.
            return fabric.t_local_feedback
        base = nd.delay_to_tile[sink_tile] + fabric.t_local_in
        if driver_block.type is not BlockType.INPUT:
            base += fabric.t_local_out
        return base

    # Longest-path DAG propagation over combinational edges.
    order = netlist.topological_luts()
    assert order is not None, "validated netlists are acyclic"
    arrival: Dict[str, float] = {}
    predecessor: Dict[str, Optional[str]] = {}
    for pi in netlist.inputs:
        arrival[pi.name] = 0.0
        predecessor[pi.name] = None
    for ff in netlist.ffs:
        arrival[ff.name] = fabric.t_clk_q
        predecessor[ff.name] = None

    for lut_name in order:
        block = netlist.blocks[lut_name]
        t = 0.0
        worst: Optional[str] = None
        for src in block.inputs:
            candidate = arrival.get(src, 0.0) + edge_delay(src, lut_name)
            if candidate > t or worst is None:
                t, worst = candidate, src
        arrival[lut_name] = t + fabric.t_lut
        predecessor[lut_name] = worst

    critical = 0.0
    critical_block: Optional[str] = None
    endpoint_pred: Dict[str, Optional[str]] = {}
    for ff in netlist.ffs:
        src = ff.inputs[0]
        t = arrival.get(src, 0.0) + edge_delay(src, ff.name) + fabric.t_su
        arrival.setdefault(f"{ff.name}__d", t)
        endpoint_pred[ff.name] = src
        if t > critical:
            critical, critical_block = t, ff.name
    for po in netlist.outputs:
        src = po.inputs[0]
        t = arrival.get(src, 0.0) + edge_delay(src, po.name)
        arrival.setdefault(po.name, t)
        endpoint_pred[po.name] = src
        if t > critical:
            critical, critical_block = t, po.name
    return TimingReport(
        critical_path=critical,
        arrival=arrival,
        net_delays=net_delays,
        critical_block=critical_block,
        worst_predecessor=predecessor,
        endpoint_predecessor=endpoint_pred,
    )
