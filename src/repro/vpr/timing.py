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
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..circuits.buffers import RoutingBuffer, restorer_delay_factor
from ..circuits.ptm import Technology
from ..fabric import (
    KIND_HWIRE,
    KIND_IPIN,
    KIND_OPIN,
    KIND_VWIRE,
    FabricIR,
    as_fabric,
)
from ..netlist.core import BlockType
from ..obs import get_registry, get_tracer
from .place import Placement
from .route import PackedTrees, RouteTree, RoutingResult


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


#: Node stage codes of the extracted trees: no RC stage (SOURCE, OPIN,
#: SINK), a wire segment, an LB input pin.  A wire's child code is
#: what its far end drives: another wire's switch or an input tap.
_NO_STAGE, _WIRE, _IPIN = 0, 1, 2


def _stage_codes(kind: np.ndarray) -> np.ndarray:
    codes = np.where((kind == KIND_HWIRE) | (kind == KIND_VWIRE), _WIRE, _NO_STAGE)
    return np.where(kind == KIND_IPIN, _IPIN, codes).astype(np.int8)


def _last_of_running_sum(terms: np.ndarray) -> np.ndarray:
    """Row sums of ``terms`` added strictly left to right: the scalar
    ``acc += term`` loop's IEEE result (``np.sum`` pairs terms up).
    Zero padding on the right leaves a sum unchanged."""
    return np.add.accumulate(terms, axis=1)[:, -1]


class _RoutedNets:
    """The variant-independent part of stage-walk Elmore extraction
    for a set of routed trees.

    Wire segments are stages.  With wire buffers, each stage is driven
    by its buffer (previous stage sees only the buffer's input cap);
    without, resistance accumulates down the path (true unbuffered
    Elmore chain).  Off-switch loading applies to every wire.

    Nodes of all nets are flattened, each net's in ``tree.parent``
    insertion order: that order fixes the children each wire's far-end
    load sums over, and so its floating-point result.  Switched
    capacitance sums run in ``tree.nodes`` order, one padded row per
    net.  `evaluate` then computes every node's stage delay for one
    `FabricElectrical` as array passes, repeating the scalar walk's
    IEEE operations per element, in its order.
    """

    def __init__(self, trees: Mapping[str, RouteTree], ir: FabricIR) -> None:
        if not isinstance(trees, PackedTrees):
            trees = PackedTrees(trees)
        self.names = list(trees.names)
        nodes, parents, sinks = trees.nodes.tolist(), trees.parents.tolist(), trees.sinks
        no, so = trees.node_offsets, trees.sink_offsets
        ups: List[int] = []
        flat_sinks: List[int] = []
        self.tiles: List[List[Tuple[int, int]]] = []
        #: Net name -> sink tile -> flat node index of the sink that
        #: sets the tile's delay (the last one reaching it).
        self.sink_of: Dict[str, Dict[Tuple[int, int], int]] = {}
        for i, name in enumerate(self.names):
            pos = {node: no[i] + k for k, node in enumerate(nodes[no[i]:no[i + 1]])}
            ups.extend(pos.get(up, -1) for up in parents[no[i]:no[i + 1]])
            net_sinks = [pos[sink] for sink in sinks[so[i]:so[i + 1]]]
            tiles = [(int(ir.xs[s]), int(ir.ys[s])) for s in sinks[so[i]:so[i + 1]]]
            flat_sinks.extend(net_sinks)
            self.tiles.append(tiles)
            self.sink_of[name] = dict(zip(tiles, net_sinks))
        self.sink_bounds = so.tolist()
        self.sinks = np.array(flat_sinks, dtype=np.int64)
        self.ups = np.array(ups, dtype=np.int64)
        node_ids = trees.column("nodes").astype(np.int64)
        code = _stage_codes(ir.kind[node_ids])
        self.wire = code == _WIRE
        self.ipin = code == _IPIN
        self.frac = np.where(
            self.wire, ir.spans[node_ids].astype(np.float64) / ir.params.segment_length, 0.0)
        has_up = self.ups >= 0
        self.from_wire = np.zeros(len(node_ids), dtype=bool)
        self.from_wire[has_up] = self.wire[self.ups[has_up]]

        # Each node's children codes, in insertion order, one row per node.
        child = np.flatnonzero(has_up)
        child = child[np.argsort(self.ups[child], kind="stable")]
        up = self.ups[child]
        first = np.flatnonzero(np.r_[True, up[1:] != up[:-1]])
        rank = np.arange(len(up)) - np.repeat(first, np.diff(np.r_[first, len(up)]))
        self.tail = np.zeros((len(node_ids), max(1, int(rank.max(initial=0)) + 1)), dtype=np.int8)
        self.tail[up, rank] = code[child]

        # Topological levels, whatever the insertion order: a root
        # (no parent in its tree) has arrival 0.
        depth = np.where(has_up, -1, 0)
        while (todo := np.flatnonzero(depth < 0)).size:
            ready = todo[depth[self.ups[todo]] >= 0]
            if not ready.size:
                raise ValueError("route tree has a parent cycle")
            depth[ready] = depth[self.ups[ready]] + 1
        by_depth = np.argsort(depth, kind="stable")
        cuts = np.searchsorted(depth[by_depth], np.arange(1, int(depth.max(initial=0)) + 2))
        self.levels = np.split(by_depth, cuts)[1:-1]

        # Switched-capacitance rows in `tree.nodes` order.
        flat, lengths = trees.listed_nodes()
        rows = np.repeat(np.arange(len(lengths)), lengths)
        cols = np.arange(len(flat)) - np.repeat(np.cumsum(lengths) - lengths, lengths)
        width = max(1, int(lengths.max(initial=0)))
        self.cap_code = np.zeros((len(lengths), width), dtype=np.int8)
        self.cap_code[rows, cols] = _stage_codes(ir.kind[flat])
        self.cap_frac = np.zeros((len(lengths), width))
        self.cap_frac[rows, cols] = np.where(
            self.cap_code[rows, cols] == _WIRE,
            ir.spans[flat].astype(np.float64) / ir.params.segment_length, 0.0)
        self.num_stages = (self.cap_code == _WIRE).sum(axis=1).tolist()

    def evaluate(self, fabric: FabricElectrical) -> Tuple[np.ndarray, Dict[str, NetDelays]]:
        """Arrival (s) at the output of every node's stage, and each
        net's `NetDelays`, under ``fabric``."""
        wb = fabric.wire_buffer
        sc, sr = fabric.switch_c, fabric.switch_r
        sink_in = fabric.sink_input_cap()
        # Driver stage resistance at the OPIN: the LB output buffer if
        # present, else the BLE's 2:1 output mux driver (a 2x inverter).
        if fabric.lb_output_buffer is not None:
            r_driver = fabric.lb_output_buffer.output_resistance
        else:
            r_driver = fabric.tech.transistor.inverter_drive_resistance / 2.0

        frac = self.frac
        c_here = fabric.wire_c * frac + fabric.wire_off_load * frac
        tail_cap = np.array([0.0, 0.5 * sc + fabric.stage_input_cap(), 0.5 * sc + sink_in])
        c_tail = _last_of_running_sum(tail_cap[self.tail])
        r_wire = fabric.wire_r * frac
        # Resistance from the stage driver to each wire's far end.
        if wb is not None:
            rres = wb.output_resistance + r_wire
        else:
            rres = np.zeros(len(frac))
            for idx in self.levels:
                up = np.where(self.from_wire[idx], rres[self.ups[idx]], r_driver)
                rres[idx] = (up + sr) + r_wire[idx]
        r_prev = rres[self.ups]
        r_up = np.where(self.from_wire, r_prev, r_driver)
        if wb is not None:
            r_up = np.where(self.wire & self.from_wire, wb.output_resistance, r_up)
        entry = _ELMORE * (r_up + sr)
        t = entry * (0.5 * sc)
        if wb is not None:
            # The entry switch also charges the buffer input; then the
            # buffer drives the wire.
            t = t + entry * wb.input_capacitance
            t = t + fabric.buffer_internal_delay(wb)
            r_drv = wb.output_resistance
        else:
            r_drv = r_up + sr
        t = t + _ELMORE * (r_drv * (c_here + c_tail) + r_wire * (0.5 * c_here + c_tail))
        t = np.where(self.wire, t, np.where(self.ipin, entry * (0.5 * sc + sink_in), 0.0))
        arrival = np.zeros(len(frac))
        for idx in self.levels:
            arrival[idx] = arrival[self.ups[idx]] + t[idx]

        # Switched capacitance of each net, split per Fig. 9 category.
        cf = self.cap_frac
        cap_wire = _last_of_running_sum(fabric.wire_c * cf + fabric.wire_off_load * cf)
        cap_switch = _last_of_running_sum(np.array([0.0, sc, 0.5 * sc])[self.cap_code])
        buf_in = np.array([0.0, 0.0, sink_in])
        buf_internal = np.zeros(3)
        if wb is not None:
            buf_in[_WIRE] = wb.input_capacitance
            buf_internal[_WIRE] = wb.chain.internal_switching_capacitance()
        nets, width = self.cap_code.shape
        cap_buffer = _last_of_running_sum(np.stack(
            (buf_in[self.cap_code], buf_internal[self.cap_code]), axis=2,
        ).reshape(nets, 2 * width))

        delays = arrival[self.sinks].tolist()
        bounds = self.sink_bounds
        return arrival, {
            name: NetDelays(
                delay_to_tile=dict(zip(self.tiles[i], delays[bounds[i]:bounds[i + 1]])),
                cap_wire=wire_c, cap_buffer=buffer_c, cap_switch=switch_c,
                num_stages=self.num_stages[i],
            )
            for i, (name, wire_c, buffer_c, switch_c) in enumerate(zip(
                self.names, cap_wire.tolist(), cap_buffer.tolist(), cap_switch.tolist()))
        }


def analyze_net(
    tree: RouteTree,
    graph: FabricIR,
    fabric: FabricElectrical,
) -> NetDelays:
    """Stage-walk delay/capacitance extraction for one routed tree
    (the model is described at `_RoutedNets`)."""
    return _RoutedNets({"": tree}, as_fabric(graph)).evaluate(fabric)[1][""]


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


class TimingExtraction:
    """The variant-independent structure of one routed design's STA.

    Switches are replaced 1:1 at the same channel width, so one
    placement and routing serves every `FabricElectrical` variant.
    Extraction holds each routed net's tree as arrays (`_RoutedNets`)
    and the block-level DAG: LUTs by topological level, and every
    (driver, sink block) edge resolved to a routed (net, sink tile) or
    to a local hop.  `evaluate` times it under one variant.

    Edge delay from driver block u to sink block v:

    * inter-cluster: t_local_out + routed net delay to v's tile +
      t_local_in (+ t_lut folded at the consuming LUT);
    * intra-cluster: t_local_feedback.

    Critical path = max arrival over FF D inputs and POs (+ setup).
    """

    def __init__(self, placement: Placement, routing: RoutingResult, graph: FabricIR) -> None:
        self.nets = _RoutedNets(routing.trees, as_fabric(graph))
        clustered = placement.clustered
        netlist = clustered.netlist
        self.circuit = netlist.name

        def tile_of_block(block_name: str) -> Tuple[int, int]:
            block = netlist.blocks[block_name]
            if block.type in (BlockType.INPUT, BlockType.OUTPUT):
                return placement.location_of[block_name]
            return placement.location_of[f"c{clustered.cluster_of[block_name]}"]

        edge_sink: List[int] = []
        edge_out: List[bool] = []

        def edge(driver: str, sink_block: str) -> int:
            """Index of the edge's delay; its routed sink node, or -1
            for a local hop (same tile, or no routed path to it)."""
            from_input = netlist.blocks[driver].type is BlockType.INPUT
            sink_tile = tile_of_block(sink_block)
            sink = self.nets.sink_of.get(driver, {}).get(sink_tile, -1)
            if tile_of_block(driver) == sink_tile and not from_input:
                sink = -1
            edge_sink.append(sink)
            edge_out.append(not from_input)
            return len(edge_sink) - 1

        order = netlist.topological_luts()
        assert order is not None, "validated netlists are acyclic"
        self.ffs = slice(len(netlist.inputs), len(netlist.inputs) + len(netlist.ffs))
        self.names = [b.name for b in netlist.inputs + netlist.ffs] + order
        index = {name: i for i, name in enumerate(self.names)}
        level = [0] * len(self.names)
        by_level: Dict[int, List[int]] = {}
        fanin: Dict[int, Tuple[List[int], List[int]]] = {}
        for i, name in enumerate(order, len(self.names) - len(order)):
            inputs = netlist.blocks[name].inputs
            fanin[i] = ([index[src] for src in inputs], [edge(src, name) for src in inputs])
            level[i] = 1 + max(level[index[src]] for src in inputs)
            by_level.setdefault(level[i], []).append(i)
        # One padded (LUTs x fan-in) matrix per level; the padding edge
        # (index -1) has delay -inf and never wins.
        self.levels = []
        for _, luts in sorted(by_level.items()):
            k = max(len(fanin[i][0]) for i in luts)
            src = np.zeros((len(luts), k), dtype=np.int64)
            edges = np.full((len(luts), k), -1, dtype=np.int64)
            for row, i in enumerate(luts):
                src[row, :len(fanin[i][0])], edges[row, :len(fanin[i][1])] = fanin[i]
            self.levels.append((np.array(luts, dtype=np.int64), src, edges))

        ends = [(ff.name, f"{ff.name}__d", ff.inputs[0], True) for ff in netlist.ffs]
        ends += [(po.name, po.name, po.inputs[0], False) for po in netlist.outputs]
        self.endpoints = [(name, key, src) for name, key, src, _ in ends]
        self.end_src = np.array([index[src] for _, _, src, _ in ends], dtype=np.int64)
        self.end_edge = np.array([edge(src, name) for name, _, src, _ in ends], dtype=np.int64)
        self.end_setup = np.array([setup for *_, setup in ends], dtype=bool)
        self.edge_sink = np.array(edge_sink, dtype=np.int64)
        self.edge_out = np.array(edge_out, dtype=bool)

    def evaluate(self, fabric: FabricElectrical) -> TimingReport:
        """Full-design STA of the extracted design under ``fabric``."""
        with get_tracer().span("timing.sta", circuit=self.circuit) as tspan:
            report = self._evaluate(fabric)
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

    def _evaluate(self, fabric: FabricElectrical) -> TimingReport:
        node_arrival, net_delays = self.nets.evaluate(fabric)
        routed = np.append(node_arrival, 0.0)[self.edge_sink] + fabric.t_local_in
        routed = np.where(self.edge_out, routed + fabric.t_local_out, routed)
        delay = np.append(np.where(self.edge_sink >= 0, routed, fabric.t_local_feedback), -np.inf)

        # Longest-path propagation, one topological level at a time;
        # argmax keeps the first input reaching the maximum.
        arrival = np.zeros(len(self.names))
        arrival[self.ffs] = fabric.t_clk_q
        worst = np.full(len(self.names), -1)
        for luts, src, edges in self.levels:
            candidate = arrival[src] + delay[edges]
            pick = candidate.argmax(axis=1)
            rows = np.arange(len(luts))
            arrival[luts] = candidate[rows, pick] + fabric.t_lut
            worst[luts] = src[rows, pick]

        names = self.names
        ends = arrival[self.end_src] + delay[self.end_edge]
        ends = np.where(self.end_setup, ends + fabric.t_su, ends)
        arrival_of = dict(zip(names, arrival.tolist()))
        critical = 0.0
        critical_block: Optional[str] = None
        for (name, key, _), t in zip(self.endpoints, ends.tolist()):
            arrival_of.setdefault(key, t)
            if t > critical:
                critical, critical_block = t, name
        return TimingReport(
            critical_path=critical,
            arrival=arrival_of,
            net_delays=net_delays,
            critical_block=critical_block,
            worst_predecessor={
                name: names[w] if w >= 0 else None
                for name, w in zip(names, worst.tolist())
            },
            endpoint_predecessor={name: src for name, _, src in self.endpoints},
        )


def analyze_timing(
    placement: Placement,
    routing: RoutingResult,
    graph: FabricIR,
    fabric: FabricElectrical,
) -> TimingReport:
    """Full-design STA: `TimingExtraction` of the routed design, timed
    under ``fabric``."""
    return TimingExtraction(placement, routing, graph).evaluate(fabric)
