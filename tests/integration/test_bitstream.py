"""Integration tests: routed design -> relay bitstream -> programming.

The executable bridge between the paper's Sec. 2 (half-select
programming) and Sec. 3 (routed CMOS-NEM FPGAs).
"""

import dataclasses

import pytest

from repro.arch.params import ArchParams
from repro.config import (
    Bitstream,
    extract_bitstream,
    plan_tile_arrays,
    program_fabric,
    verify_bitstream_connectivity,
)
from repro.fabric import (
    KIND_HWIRE,
    KIND_IPIN,
    KIND_OPIN,
    KIND_SINK,
    KIND_SOURCE,
    KIND_VWIRE,
    SwitchKind,
)
from repro.netlist.generate import GeneratorParams, generate
from repro.vpr.flow import run_flow
from repro.vpr.route import RouteTree

ARCH = ArchParams(channel_width=48)


@pytest.fixture(scope="module")
def flow():
    netlist = generate(GeneratorParams("bits", num_luts=80, ff_fraction=0.25, seed=44))
    result = run_flow(netlist, ARCH)
    assert result.success
    return result


@pytest.fixture(scope="module")
def bitstream(flow):
    return extract_bitstream(flow.routing, flow.graph)


class TestExtraction:
    def test_nonempty(self, bitstream):
        assert bitstream.total_switches > 0
        assert bitstream.tiles

    def test_every_edge_is_programmable_kind(self, flow, bitstream):
        graph = flow.graph
        wire_kinds = {KIND_HWIRE, KIND_VWIRE}
        for edges in bitstream.switches_by_tile.values():
            for u, v in edges:
                ku, kv = int(graph.kind[u]), int(graph.kind[v])
                assert (
                    ku == KIND_OPIN and kv in wire_kinds
                    or ku in wire_kinds and kv == KIND_IPIN
                    or (ku in wire_kinds and kv in wire_kinds)
                )

    def test_edges_unique_across_tiles(self, bitstream):
        seen = set()
        for edges in bitstream.switches_by_tile.values():
            for edge in edges:
                assert edge not in seen
                seen.add(edge)

    def test_edge_count_matches_tree_switch_hops(self, flow, bitstream):
        graph = flow.graph
        wire_kinds = {KIND_HWIRE, KIND_VWIRE}
        expected = set()
        for tree in flow.routing.trees.values():
            for node, parent in tree.parent.items():
                if parent < 0:
                    continue
                ku, kv = int(graph.kind[parent]), int(graph.kind[node])
                if ku == KIND_SOURCE or kv == KIND_SINK:
                    continue
                if ku in wire_kinds or kv in wire_kinds:
                    expected.add((parent, node))
        assert bitstream.total_switches == len(expected)

    def test_net_attribution(self, flow, bitstream):
        assert set(bitstream.net_of_edge.values()) <= set(flow.routing.trees)

    def test_utilization_fraction(self, bitstream):
        from repro.arch.tile import build_inventory

        inventory = build_inventory(ARCH)
        u = bitstream.utilization(inventory.routing_switches)
        assert 0 < u < 1.0


def reference_owning_tile(ir, u, v):
    """The per-edge tile rule `extract_bitstream` once applied."""
    kind, xs, ys = ir.kind, ir.xs, ir.ys
    if kind[v] < KIND_HWIRE:
        return (int(xs[v]), int(ys[v]))
    if kind[u] < KIND_HWIRE:
        return (int(xs[u]), int(ys[u]))
    return (min(int(xs[v]), ir.nx - 1), min(int(ys[v]), ir.ny - 1))


def reference_extract_bitstream(routing, ir):
    """The per-edge walk `extract_bitstream` replaced (the oracle)."""
    switches = {}
    net_of_edge = {}
    for name, tree in routing.trees.items():
        for node, parent in tree.parent.items():
            if parent < 0:
                continue
            if ir.switch_kind_between(parent, node) is SwitchKind.NONE:
                continue
            edge = (parent, node)
            tile = reference_owning_tile(ir, parent, node)
            switches.setdefault(tile, set()).add(edge)
            net_of_edge[edge] = name
    return Bitstream(
        switches_by_tile={t: sorted(e) for t, e in switches.items()},
        net_of_edge=net_of_edge,
    )


def assert_same_bitstream(got, want):
    """Equal content *and* dict order: wear accrual walks
    ``net_of_edge`` and array planning walks ``switches_by_tile``."""
    assert list(got.net_of_edge.items()) == list(want.net_of_edge.items())
    assert list(got.switches_by_tile.items()) == \
        list(want.switches_by_tile.items())
    for u, v in got.net_of_edge:
        assert type(u) is int and type(v) is int


class TestVectorExtraction:
    def test_matches_per_edge_walk(self, flow, bitstream):
        assert_same_bitstream(
            bitstream, reference_extract_bitstream(flow.routing, flow.graph))

    def test_matches_on_unidir(self):
        arch = ArchParams(channel_width=32, directionality="unidir")
        netlist = generate(GeneratorParams(
            "bits-uni", num_luts=60, ff_fraction=0.25, seed=5))
        result = run_flow(netlist, arch)
        assert result.success
        assert_same_bitstream(
            extract_bitstream(result.routing, result.graph),
            reference_extract_bitstream(result.routing, result.graph))

    def test_shared_and_reordered_trees(self, flow):
        """Trees in reverse order with one edge claimed by two nets:
        the first claim fixes the edge's position, the last its net,
        and the tile lists it once."""
        trees = list(flow.routing.trees.items())[::-1]
        (first, t1), (second, t2) = trees[0], trees[1]
        node, parent = next(
            (n, p) for n, p in t1.parent.items()
            if p >= 0 and flow.graph.kind[n] >= KIND_HWIRE)
        t2 = RouteTree(nodes=t2.nodes + [node],
                       parent={**t2.parent, node: parent},
                       sink_nodes=t2.sink_nodes)
        trees[1] = (second, t2)
        routing = dataclasses.replace(flow.routing, trees=dict(trees))
        got = extract_bitstream(routing, flow.graph)
        assert_same_bitstream(
            got, reference_extract_bitstream(routing, flow.graph))
        assert got.net_of_edge[(parent, node)] == second

    def test_empty_routing(self, flow):
        routing = dataclasses.replace(flow.routing, trees={})
        got = extract_bitstream(routing, flow.graph)
        assert got.switches_by_tile == {} and got.net_of_edge == {}


class TestArrayPlanning:
    def test_every_switch_gets_a_crosspoint(self, bitstream):
        plans = plan_tile_arrays(bitstream)
        planned = sum(len(p.targets) for p in plans)
        assert planned == bitstream.total_switches

    def test_targets_fit_arrays(self, bitstream):
        for plan in plan_tile_arrays(bitstream):
            for r, c in plan.targets:
                assert 0 <= r < plan.rows
                assert 0 <= c < plan.cols

    def test_row_bound_respected(self, bitstream):
        for plan in plan_tile_arrays(bitstream, max_rows=8):
            assert plan.rows <= 8

    def test_rejects_bad_max_rows(self, bitstream):
        with pytest.raises(ValueError):
            plan_tile_arrays(bitstream, max_rows=0)


class TestProgramming:
    def test_fabric_programs_without_failures(self, bitstream):
        report = program_fabric(bitstream)
        assert report.success
        assert report.failures == []
        assert report.relays_closed == bitstream.total_switches
        assert report.arrays_programmed == len(bitstream.tiles)
        assert report.row_steps >= report.arrays_programmed

    def test_connectivity_verified(self, flow, bitstream):
        assert verify_bitstream_connectivity(bitstream, flow.routing, flow.graph)

    def test_missing_switch_breaks_connectivity(self, flow, bitstream):
        import copy

        broken = copy.deepcopy(bitstream)
        tile = broken.tiles[0]
        removed = broken.switches_by_tile[tile].pop()
        # Removing a conducting switch must be detected unless that
        # edge was... it is always on some net's sink path or a branch.
        ok = verify_bitstream_connectivity(broken, flow.routing, flow.graph)
        # The removed edge belongs to a routed tree; if it lies on a
        # path to any sink the check fails.  Branch-only nodes are on
        # the path to at least one sink by construction, so:
        assert not ok
