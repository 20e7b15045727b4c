"""Edge cases and failure injection across the VPR substrate."""

import pytest

from repro.arch.params import ArchParams
from repro.fabric import FabricIR
from repro.netlist.core import Netlist
from repro.netlist.generate import GeneratorParams, generate
from repro.vpr.flow import run_flow
from repro.vpr.pack import pack
from repro.vpr.place import place
from repro.vpr.route import PathFinderRouter, RouteNet, build_route_nets, route_design


def single_lut_netlist():
    n = Netlist("single")
    n.add_input("a")
    n.add_input("b")
    n.add_lut("l", ["a", "b"])
    n.add_output("o", "l")
    return n


class TestDegenerateCircuits:
    def test_single_lut_flows_end_to_end(self):
        flow = run_flow(single_lut_netlist(), ArchParams(channel_width=12))
        assert flow.success
        assert flow.clustered.num_clusters == 1

    def test_pure_combinational_pipeline(self):
        n = Netlist("pipe")
        n.add_input("a")
        prev = "a"
        for i in range(10):
            n.add_lut(f"l{i}", [prev])
            prev = f"l{i}"
        n.add_output("o", prev)
        flow = run_flow(n, ArchParams(channel_width=16))
        assert flow.success

    def test_all_registered_circuit(self):
        netlist = generate(GeneratorParams("allreg", num_luts=30, ff_fraction=1.0, seed=3))
        flow = run_flow(netlist, ArchParams(channel_width=32))
        assert flow.success

    def test_wide_fanout_net(self):
        # One PI driving 40 LUTs: a single high-fanout routed tree.
        n = Netlist("fan")
        n.add_input("a")
        n.add_input("b")
        for i in range(40):
            n.add_lut(f"l{i}", ["a", "b"])
            n.add_output(f"o{i}", f"l{i}")
        flow = run_flow(n, ArchParams(channel_width=32))
        assert flow.success
        tree = flow.routing.trees["a"]
        assert len(tree.sink_nodes) >= 2


class TestRouterRobustness:
    def test_no_nets_routes_trivially(self):
        graph = FabricIR.build(ArchParams(channel_width=8), 3, 3)
        router = PathFinderRouter(graph)
        result = router.route([])
        assert result.success
        assert result.wirelength == 0

    def test_single_net_one_hop(self):
        graph = FabricIR.build(ArchParams(channel_width=8), 3, 3)
        router = PathFinderRouter(graph)
        net = RouteNet(name="n", source_tile=(0, 0), sink_tiles=[(1, 0)])
        result = router.route([net])
        assert result.success
        assert result.trees["n"].sink_nodes == [graph.sink_of[(1, 0)]]

    def test_net_spanning_full_diagonal(self):
        graph = FabricIR.build(ArchParams(channel_width=12), 6, 6)
        router = PathFinderRouter(graph)
        net = RouteNet(name="n", source_tile=(0, 0), sink_tiles=[(5, 5)])
        result = router.route([net])
        assert result.success

    def test_impossible_demand_reports_failure(self):
        """More nets from one tile than OPINs: structurally unroutable;
        the router must terminate with a failure, not hang."""
        params = ArchParams(channel_width=8)
        graph = FabricIR.build(params, 3, 3)
        router = PathFinderRouter(graph, max_iterations=15)
        nets = [
            RouteNet(name=f"n{i}", source_tile=(1, 1), sink_tiles=[(0, 0)])
            for i in range(params.outputs_per_lb + 3)
        ]
        result = router.route(nets)
        assert not result.success
        assert result.overused_nodes > 0

    def test_escalation_survives_on_small_conflicts(self):
        """A tight-but-routable instance exercises the stall/escalation
        path and must still converge."""
        netlist = generate(GeneratorParams("tight", num_luts=80, seed=17))
        clustered = pack(netlist, ArchParams(channel_width=48))
        placement = place(clustered, seed=5)
        wmin_found = False
        for width in (20, 24, 28, 32, 40, 48):
            result, _ = route_design(placement, channel_width=width)
            if result.success:
                wmin_found = True
                break
        assert wmin_found


class TestPlacementEdgeCases:
    def test_tiny_grid_explicit(self):
        netlist = single_lut_netlist()
        clustered = pack(netlist, ArchParams(channel_width=8))
        placement = place(clustered, seed=1, grid_side=2)
        assert placement.grid_width == 4

    def test_grid_too_small_rejected(self):
        netlist = generate(GeneratorParams("big", num_luts=200, seed=1))
        clustered = pack(netlist, ArchParams(channel_width=16))
        with pytest.raises(ValueError):
            place(clustered, seed=1, grid_side=2)

    def test_io_heavy_circuit_gets_larger_perimeter(self):
        netlist = generate(
            GeneratorParams("io", num_luts=20, num_inputs=120, num_outputs=100, seed=2)
        )
        clustered = pack(netlist, ArchParams(channel_width=16))
        placement = place(clustered, seed=1)
        from repro.vpr.place import IO_CAPACITY

        n_io = len(netlist.inputs) + len(netlist.outputs)
        perimeter_tiles = 2 * placement.grid_width + 2 * (placement.grid_height - 2)
        # The grid must grow past the logic demand (20 LUTs = 2 LBs
        # would fit a 2x2 interior) purely to host the I/O ring.
        assert perimeter_tiles * IO_CAPACITY >= n_io
        assert placement.grid_width > 4
