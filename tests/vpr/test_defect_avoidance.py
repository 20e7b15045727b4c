"""Tests for defect-avoidance routing (blocked RR nodes)."""

import random

import pytest

from repro.fabric import KIND_HWIRE, KIND_VWIRE, FabricIR
from repro.vpr.route import PathFinderRouter

from .conftest import ARCH


@pytest.fixture(scope="module")
def graph(placement):
    return FabricIR.build(ARCH, placement.grid_width, placement.grid_height)


class TestBlockedNodes:
    def test_blocked_nodes_never_used(self, placement, graph, route_nets):
        rng = random.Random(5)
        wires = graph.nodes_of_kind(KIND_HWIRE, KIND_VWIRE).tolist()
        blocked = set(rng.sample(wires, len(wires) // 20))  # 5% dead wires
        router = PathFinderRouter(graph, blocked_nodes=blocked)
        result = router.route(route_nets)
        assert result.success
        for tree in result.trees.values():
            assert not (set(tree.nodes) & blocked)

    def test_moderate_defects_still_route(self, placement, route_nets):
        """Relay fabrics with a few percent dead switches remain
        routable — reconfiguration as repair (paper Sec. 1's limited
        endurance, mitigated)."""
        graph = FabricIR.build(ARCH, placement.grid_width, placement.grid_height)
        rng = random.Random(11)
        wires = graph.nodes_of_kind(KIND_HWIRE, KIND_VWIRE).tolist()
        blocked = set(rng.sample(wires, len(wires) // 10))  # 10%
        router = PathFinderRouter(graph, blocked_nodes=blocked)
        result = router.route(route_nets)
        assert result.success

    def test_blocking_everything_fails(self, placement, route_nets):
        graph = FabricIR.build(ARCH, placement.grid_width, placement.grid_height)
        blocked = set(graph.nodes_of_kind(KIND_HWIRE, KIND_VWIRE).tolist())
        router = PathFinderRouter(graph, blocked_nodes=blocked, max_iterations=3)
        result = router.route(route_nets)
        assert not result.success

    def test_unblocked_equals_default(self, graph, route_nets):
        default = PathFinderRouter(graph)
        explicit = PathFinderRouter(
            FabricIR.build(ARCH, graph.nx, graph.ny), blocked_nodes=set()
        )
        a = default.route(route_nets)
        b = explicit.route(route_nets)
        assert a.success and b.success
        assert {k: sorted(t.nodes) for k, t in a.trees.items()} == {
            k: sorted(t.nodes) for k, t in b.trees.items()
        }
