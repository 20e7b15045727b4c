"""Integration tests: routed design -> relay bitstream -> programming.

The executable bridge between the paper's Sec. 2 (half-select
programming) and Sec. 3 (routed CMOS-NEM FPGAs).
"""

import pytest

from repro.arch.params import ArchParams
from repro.config import (
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
)
from repro.netlist.generate import GeneratorParams, generate
from repro.vpr.flow import run_flow

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
