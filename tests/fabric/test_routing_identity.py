"""Routing determinism across graph builds.

PathFinder's heap tie-breaks follow adjacency push order, so routing
over the reference object graph (`reference_rrgraph.RRGraph`, put in
columns by `to_fabric`) and over `FabricIR.build` must yield the
*same* routing — trees, wirelength, iteration count — not merely a
legal one.
"""

import pytest

from repro.arch.params import ArchParams
from repro.fabric import FabricIR, get_fabric
from repro.netlist.suites import load_circuit
from repro.vpr.pack import pack
from repro.vpr.place import place
from repro.vpr.route import PathFinderRouter, build_route_nets, route_design

from .reference_rrgraph import RRGraph, to_fabric

ARCH = ArchParams(channel_width=24, segment_length=2)


@pytest.fixture(scope="module")
def placement():
    netlist = load_circuit("tseng", scale=0.015)
    clustered = pack(netlist, ARCH)
    return place(clustered, seed=1)


@pytest.fixture(scope="module")
def route_nets(placement):
    return build_route_nets(placement)


def _tree_shapes(routing):
    return {
        name: (sorted(tree.parent.items()), sorted(tree.sink_nodes))
        for name, tree in routing.trees.items()
    }


class TestRepresentationIdentity:
    def test_legacy_and_ir_route_identically(self, placement, route_nets):
        legacy = RRGraph(ARCH, placement.grid_width, placement.grid_height)
        ir = FabricIR.build(ARCH, placement.grid_width, placement.grid_height)
        r_legacy = PathFinderRouter(to_fabric(legacy)).route(route_nets)
        r_ir = PathFinderRouter(ir).route(route_nets)
        assert r_legacy.success and r_ir.success
        assert r_legacy.wirelength == r_ir.wirelength
        assert r_legacy.iterations == r_ir.iterations
        assert _tree_shapes(r_legacy) == _tree_shapes(r_ir)

    def test_route_design_returns_cached_ir(self, placement):
        routing, graph = route_design(placement, ARCH)
        assert isinstance(graph, FabricIR)
        assert routing.success
        assert graph is get_fabric(
            ARCH, placement.grid_width, placement.grid_height
        )

    def test_shared_ir_reroutes_identically(self, placement, route_nets):
        """One cached IR serves many routers without state bleed."""
        ir = get_fabric(ARCH, placement.grid_width, placement.grid_height)
        first = PathFinderRouter(ir).route(route_nets)
        second = PathFinderRouter(ir).route(route_nets)
        assert _tree_shapes(first) == _tree_shapes(second)
        assert first.wirelength == second.wirelength
