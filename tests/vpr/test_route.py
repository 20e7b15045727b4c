"""Tests for repro.vpr.route (PathFinder)."""

from collections import Counter

import pytest

from repro.fabric import KIND_OPIN
from repro.vpr.route import PathFinderRouter, build_route_nets, route_design

from .conftest import ARCH


class TestBuildRouteNets:
    def test_nets_have_sinks(self, route_nets):
        assert route_nets
        assert all(net.sink_tiles for net in route_nets)

    def test_no_self_sinks(self, route_nets):
        for net in route_nets:
            assert net.source_tile not in net.sink_tiles

    def test_sink_tiles_unique(self, route_nets):
        for net in route_nets:
            assert len(net.sink_tiles) == len(set(net.sink_tiles))

    def test_net_names_unique(self, route_nets):
        names = [n.name for n in route_nets]
        assert len(names) == len(set(names))


class TestRoutingLegality:
    def test_success(self, routed):
        result, _graph = routed
        assert result.success
        assert result.overused_nodes == 0

    def test_no_node_overused(self, routed):
        result, graph = routed
        occupancy = Counter()
        for tree in result.trees.values():
            for node in tree.nodes:
                occupancy[node] += 1
        for node_id, occ in occupancy.items():
            assert occ <= graph.capacities[node_id]

    def test_every_net_routed(self, routed, route_nets):
        result, _graph = routed
        assert set(result.trees) == {n.name for n in route_nets}

    def test_trees_reach_all_sinks(self, routed, route_nets):
        result, graph = routed
        by_name = {n.name: n for n in route_nets}
        for name, tree in result.trees.items():
            expected = {graph.sink_of[t] for t in by_name[name].sink_tiles}
            assert set(tree.sink_nodes) == expected

    def test_trees_are_connected(self, routed, route_nets):
        """Walking parents from any sink must reach the net's SOURCE."""
        result, graph = routed
        by_name = {n.name: n for n in route_nets}
        for name, tree in result.trees.items():
            source = graph.source_of[by_name[name].source_tile]
            for sink in tree.sink_nodes:
                node = sink
                hops = 0
                while node != source:
                    node = tree.parent[node]
                    hops += 1
                    assert hops < 10_000, "parent chain loop"

    def test_single_opin_per_net(self, routed):
        """Regression: multi-sink nets must not branch at the SOURCE
        (each net owns exactly one OPIN)."""
        result, graph = routed
        for tree in result.trees.values():
            opins = [n for n in tree.nodes if graph.kind[n] == KIND_OPIN]
            assert len(opins) == 1

    def test_path_alternates_legally(self, routed):
        """Edges used must exist in the RR graph adjacency."""
        result, graph = routed
        for tree in result.trees.values():
            for node, parent in tree.parent.items():
                if parent >= 0:
                    assert node in graph.neighbors(parent)

    def test_wirelength_positive(self, routed):
        result, _graph = routed
        assert result.wirelength > 0


class TestWidthSensitivity:
    def test_too_narrow_fails(self, placement):
        result, _graph = route_design(placement, ARCH, channel_width=4, max_iterations=12)
        assert not result.success

    def test_wider_channel_routes_faster_or_equal(self, placement):
        narrow, _ = route_design(placement, ARCH, channel_width=48)
        wide, _ = route_design(placement, ARCH, channel_width=96)
        assert wide.success
        assert wide.iterations <= narrow.iterations + 20


class TestDeterminism:
    def test_same_input_same_routing(self, placement):
        a, _ = route_design(placement, ARCH)
        b, _ = route_design(placement, ARCH)
        assert {k: sorted(t.nodes) for k, t in a.trees.items()} == {
            k: sorted(t.nodes) for k, t in b.trees.items()
        }


class TestFabricHoldsNoListViews:
    """A FabricIR outlives its routers (the fabric cache, every
    `FlowResult.graph`), so routing must leave no list form on it:
    each kernel builds the forms it uses for itself."""

    @pytest.mark.parametrize("kernel", ["python", "numpy"])
    def test_route_design_leaves_no_list(self, placement, monkeypatch, kernel):
        import repro.vpr.route as route_mod
        from repro.fabric import FabricIR

        # A fresh IR, untouched by the tests that share the cache.
        monkeypatch.setattr(route_mod, "get_fabric", FabricIR.build)
        result, graph = route_design(placement, ARCH, kernel=kernel)
        assert result.success
        lists = sorted(k for k, v in vars(graph).items() if isinstance(v, list))
        assert lists == []
