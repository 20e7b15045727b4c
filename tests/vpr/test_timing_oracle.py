"""Bit-exactness oracle for the array STA in `repro.vpr.timing`.

`reference_analyze_net` and `reference_analyze_timing` below are the
scalar per-node walk the array evaluation replaced, kept verbatim: the
recursive stage walk, the per-node constant recomputation and the
per-LUT Python propagation.  Every float the production STA (and the
Fig. 12 sweep built on it) produces must equal the oracle's bit for
bit, on every branch of the delay model.
"""

import dataclasses
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

import pytest

import repro.core.tradeoff as tradeoff
from repro.core.variants import (
    FpgaVariant,
    VariantConfig,
    VariantKind,
    baseline_variant,
    naive_nem_variant,
    optimized_nem_variant,
)
from repro.fabric import (
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
from repro.netlist.core import BlockType
from repro.netlist.generate import GeneratorParams, generate
from repro.power.activity import estimate_activities
from repro.power.dynamic import dynamic_power
from repro.power.leakage import fpga_leakage
from repro.vpr.flow import FlowResult, run_flow, run_timing_driven_flow
from repro.vpr.place import Placement
from repro.vpr.route import RouteTree, RoutingResult
from repro.vpr.timing import (
    _ELMORE,
    FabricElectrical,
    NetDelays,
    TimingReport,
    analyze_net,
    analyze_timing,
)

from .conftest import ARCH

# ---------------------------------------------------------------------------
# The oracle: the scalar stage walk, verbatim.
# ---------------------------------------------------------------------------


def _tree_children(tree: RouteTree) -> Dict[int, List[int]]:
    children: Dict[int, List[int]] = defaultdict(list)
    for node, parent in tree.parent.items():
        if parent >= 0:
            children[parent].append(node)
    return children


def reference_analyze_net(
    tree: RouteTree,
    graph: FabricIR,
    fabric: FabricElectrical,
) -> NetDelays:
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


def reference_analyze_timing(
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
        net_delays[name] = reference_analyze_net(tree, graph, fabric)

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


# ---------------------------------------------------------------------------
# Fixtures: every branch of the delay model, on a few routings.
# ---------------------------------------------------------------------------

#: Variant name -> electrical view.  Each exercises a different branch:
#: level-restorer penalty (CMOS-only), relays with LB buffers (naive),
#: removed LB buffers driving the crossbar row directly (optimised),
#: kept LB buffers with downsized wire buffers, and unbuffered wires
#: (the accumulated-resistance chain).
FABRICS = {
    "cmos-only": lambda: baseline_variant(ARCH).fabric(),
    "nem-naive": lambda: naive_nem_variant(ARCH).fabric(),
    "nem-opt": lambda: optimized_nem_variant(ARCH, 4.0).fabric(),
    "nem-opt-keep-lb": lambda: FpgaVariant(ARCH, VariantConfig(
        VariantKind.CMOS_NEM_OPT, wire_buffer_downsize=8.0,
        keep_lb_buffers=True)).fabric(),
    "unbuffered": lambda: dataclasses.replace(
        baseline_variant(ARCH).fabric(), wire_buffer=None),
}


@pytest.fixture(scope="module", params=sorted(FABRICS))
def fabric(request):
    return FABRICS[request.param]()


@pytest.fixture(scope="module")
def timing_driven(netlist):
    flow, _ = run_timing_driven_flow(
        netlist, ARCH, baseline_variant(ARCH).fabric(), seed=7, sta_passes=1)
    assert flow.success
    return flow


def _reordered_tree(tree: RouteTree) -> RouteTree:
    """The same tree with the ``parent`` insertion order reversed
    (children come before their parents) and ``nodes`` sorted by id, so
    the switched-capacitance sums run in an order of their own."""
    return RouteTree(
        nodes=sorted(tree.nodes),
        parent=dict(reversed(list(tree.parent.items()))),
        sink_nodes=list(reversed(tree.sink_nodes)),
    )


def _routing_variants(routed, timing_driven):
    result, graph = routed
    trees = result.trees
    missing = dict(trees)
    del missing[max(missing, key=lambda name: len(missing[name].sink_nodes))]
    return {
        "routed": (result, graph),
        "timing-driven": (timing_driven.routing, timing_driven.graph),
        "missing-net": (dataclasses.replace(result, trees=missing), graph),
        "empty": (dataclasses.replace(result, trees={}), graph),
        "reordered-trees": (dataclasses.replace(
            result, trees={n: _reordered_tree(t) for n, t in trees.items()}), graph),
    }


ROUTINGS = ("routed", "timing-driven", "missing-net", "empty", "reordered-trees")


@pytest.fixture(scope="module", params=ROUTINGS)
def routing_case(request, placement, routed, timing_driven):
    result, graph = _routing_variants(routed, timing_driven)[request.param]
    used = timing_driven.placement if request.param == "timing-driven" else placement
    return used, result, graph


@pytest.fixture(scope="module", params=[r for r in ROUTINGS if r != "empty"])
def trees_case(request, routed, timing_driven):
    routing, graph = _routing_variants(routed, timing_driven)[request.param]
    return routing.trees, graph


def _assert_reports_identical(got: TimingReport, want: TimingReport) -> None:
    assert dataclasses.asdict(got) == dataclasses.asdict(want)
    # Insertion orders are part of the report too (they are what a
    # serialised report or a critical-path trace walks).
    assert list(got.arrival) == list(want.arrival)
    assert list(got.worst_predecessor) == list(want.worst_predecessor)
    assert list(got.net_delays) == list(want.net_delays)
    for name, nd in got.net_delays.items():
        assert list(nd.delay_to_tile) == list(want.net_delays[name].delay_to_tile)


class TestAnalyzeTimingOracle:
    def test_report_bit_identical(self, routing_case, fabric):
        placement, routing, graph = routing_case
        _assert_reports_identical(
            analyze_timing(placement, routing, graph, fabric),
            reference_analyze_timing(placement, routing, graph, fabric))

    def test_net_delays_bit_identical(self, trees_case, fabric):
        trees, graph = trees_case
        for tree in trees.values():
            got = analyze_net(tree, graph, fabric)
            want = reference_analyze_net(tree, graph, fabric)
            assert dataclasses.asdict(got) == dataclasses.asdict(want)
            assert list(got.delay_to_tile) == list(want.delay_to_tile)

    def test_cases_reach_their_branches(self, placement, routed, timing_driven):
        """Guard the fixtures: the missing net falls back to local hops,
        the empty routing still times, and the reordered trees really
        are out of topological order, with ``nodes`` in another order."""
        cases = _routing_variants(routed, timing_driven)
        fabric = baseline_variant(ARCH).fabric()
        full = analyze_timing(placement, *cases["routed"], fabric)
        missing = analyze_timing(placement, *cases["missing-net"], fabric)
        empty = analyze_timing(placement, *cases["empty"], fabric)
        assert len(missing.net_delays) == len(full.net_delays) - 1
        assert missing.arrival != full.arrival
        assert empty.net_delays == {} and empty.critical_path > 0
        for tree in cases["reordered-trees"][0].trees.values():
            _, first_parent = next(iter(tree.parent.items()))
            assert first_parent in tree.parent  # a child comes first
        assert any(tree.nodes != list(tree.parent)
                   for tree in cases["reordered-trees"][0].trees.values())


# ---------------------------------------------------------------------------
# The Fig. 12 sweep: every design point against the oracle STA.
# ---------------------------------------------------------------------------


def _reference_point(flow: FlowResult, variant, frequency):
    timing = reference_analyze_timing(
        flow.placement, flow.routing, flow.graph, variant.fabric())
    crit = timing.critical_path
    f_ref = frequency if frequency is not None else (1.0 / crit if crit > 0 else 1e9)
    num_tiles = flow.placement.grid_width * flow.placement.grid_height
    dyn = dynamic_power(
        netlist=flow.netlist, net_delays=timing.net_delays,
        activities=estimate_activities(flow.netlist),
        spec=variant.dynamic_spec(), frequency=f_ref, num_tiles=num_tiles)
    leak = fpga_leakage(variant.inventory, variant.leakage_spec(), num_tiles)
    return timing, crit, f_ref, dyn, leak


@pytest.fixture(scope="module")
def sweep_flow():
    netlist = generate(GeneratorParams("oracle", num_luts=90, ff_fraction=0.25, seed=13))
    flow = run_flow(netlist, ARCH)
    assert flow.success
    return flow


def test_sweep_points_match_oracle(sweep_flow, monkeypatch):
    """Each of the sweep's evaluations (baseline, downsize points,
    naive) equals the oracle STA + power path on the same variant."""
    evaluated = []
    real = tradeoff.evaluate_design

    def recording(flow, variant, **kwargs):
        point = real(flow, variant, **kwargs)
        evaluated.append((variant, kwargs.get("frequency"), point))
        return point

    monkeypatch.setattr(tradeoff, "evaluate_design", recording)
    downsizes = (1.0, 4.0, 16.0)
    tradeoff.sweep_circuit(sweep_flow, ARCH, downsizes=downsizes)
    assert len(evaluated) == len(downsizes) + 2
    for variant, frequency, point in evaluated:
        timing, crit, f_ref, dyn, leak = _reference_point(sweep_flow, variant, frequency)
        _assert_reports_identical(point.timing, timing)
        assert point.critical_path == crit
        assert point.frequency == f_ref
        assert point.dynamic == dyn
        assert point.leakage == leak
