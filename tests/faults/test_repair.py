"""Tests for repro.faults.repair (incremental self-repair ladder)."""

import numpy as np
import pytest

from repro.faults import (
    FabricDefectMap,
    FaultCampaign,
    REPAIR_STAGES,
    empty_defect_map,
    fabric_key_of,
    find_victims,
    repair_routing,
    switch_sites,
)
from repro.obs import MetricsRegistry, use_registry


def routed_switch_sites(routing, fabric):
    """(net name, (lo, hi)) for every switch site a routed tree crosses."""
    sites = set(map(tuple, switch_sites(fabric).tolist()))
    hits = []
    for name, tree in routing.trees.items():
        for node, parent in tree.parent.items():
            if parent < 0:
                continue
            site = (min(parent, node), max(parent, node))
            if site in sites:
                hits.append((name, site))
    return hits


@pytest.fixture()
def one_victim(routed):
    """A defect map breaking exactly one routed net's switch."""
    routing, fabric = routed
    name, site = routed_switch_sites(routing, fabric)[0]
    defects = FabricDefectMap(
        fabric_key=fabric_key_of(fabric), num_nodes=fabric.num_nodes,
        stuck_open_switches=(site,))
    return name, site, defects


class TestFindVictims:
    def test_clean_map_no_victims(self, routed):
        routing, fabric = routed
        assert find_victims(routing, empty_defect_map(fabric)) == []

    def test_stuck_open_switch_on_route(self, routed, one_victim):
        routing, _fabric = routed
        name, _site, defects = one_victim
        assert name in find_victims(routing, defects)

    def test_unused_switch_no_victims(self, routed):
        routing, fabric = routed
        used = {site for _n, site in routed_switch_sites(routing, fabric)}
        unused = next(s for s in map(tuple, switch_sites(fabric).tolist())
                      if s not in used)
        defects = FabricDefectMap(
            fabric_key=fabric_key_of(fabric), num_nodes=fabric.num_nodes,
            stuck_open_switches=(unused,))
        assert find_victims(routing, defects) == []

    def test_blocked_node_on_route(self, routed):
        routing, fabric = routed
        name, (lo, _hi) = routed_switch_sites(routing, fabric)[0]
        defects = FabricDefectMap(
            fabric_key=fabric_key_of(fabric), num_nodes=fabric.num_nodes,
            stuck_open_nodes=(lo,))
        assert name in find_victims(routing, defects)


class TestCleanStage:
    def test_no_victims_returns_original(self, placement, routed):
        routing, fabric = routed
        result = repair_routing(placement, routing, empty_defect_map(fabric),
                                graph=fabric)
        assert result.stage == "clean" and result.success
        assert result.routing is routing
        assert result.nets_ripped == 0
        assert [a.stage for a in result.attempts] == ["clean"]


class TestIncrementalStage:
    def test_rips_only_victims(self, placement, routed, one_victim):
        routing, fabric = routed
        name, site, defects = one_victim
        registry = MetricsRegistry()
        with use_registry(registry):
            result = repair_routing(placement, routing, defects, graph=fabric)
        assert result.stage == "incremental" and result.success
        assert result.victim_nets == [name]
        assert result.nets_ripped == 1
        # Metrics satellite: the repair run is observable.
        assert registry.counter("repair.nets_ripped").value == 1
        assert registry.counter("repair.runs").value == 1
        assert (registry.gauge("repair.stage").value
                == REPAIR_STAGES.index("incremental"))

    def test_untouched_trees_byte_identical(self, placement, routed, one_victim):
        """The acceptance criterion: healthy nets' routing trees are
        returned unchanged — same nodes, same parent pointers in the
        same order — so their fabric tiles are never reprogrammed.
        (Results keep trees packed, so each access builds a fresh
        `RouteTree`: equality, not identity.)"""
        routing, fabric = routed
        name, _site, defects = one_victim
        result = repair_routing(placement, routing, defects, graph=fabric)
        assert result.success
        for other, tree in routing.trees.items():
            if other == name:
                continue
            assert result.routing.trees[other] == tree
            assert (list(result.routing.trees[other].parent.items())
                    == list(tree.parent.items()))

    def test_victim_avoids_fault(self, placement, routed, one_victim):
        routing, fabric = routed
        name, (lo, hi), defects = one_victim
        result = repair_routing(placement, routing, defects, graph=fabric)
        tree = result.routing.trees[name]
        for node, parent in tree.parent.items():
            if parent >= 0:
                assert (min(parent, node), max(parent, node)) != (lo, hi)

    def test_repair_is_deterministic(self, placement, routed):
        routing, fabric = routed
        campaign = FaultCampaign(seed=17, stuck_open_rate=0.01)
        defects = campaign.for_fabric(fabric)
        a = repair_routing(placement, routing, defects, graph=fabric)
        b = repair_routing(placement, routing, defects, graph=fabric)
        assert a.stage == b.stage
        assert {n: sorted(t.parent.items()) for n, t in a.routing.trees.items()} \
            == {n: sorted(t.parent.items()) for n, t in b.routing.trees.items()}

    def test_wirelength_recomputed(self, placement, routed, one_victim):
        routing, fabric = routed
        _name, _site, defects = one_victim
        result = repair_routing(placement, routing, defects, graph=fabric)
        spans = fabric.wire_spans
        expected = sum(spans[n] for tree in result.routing.trees.values()
                       for n in tree.nodes)
        assert result.routing.wirelength == expected


class TestFixedTrees:
    def test_net_both_routed_and_fixed_rejected(self, placement, routed):
        from repro.vpr.route import PathFinderRouter, build_route_nets

        routing, fabric = routed
        nets = build_route_nets(placement)
        router = PathFinderRouter(fabric)
        fixed = {nets[0].name: routing.trees[nets[0].name]}
        with pytest.raises(ValueError, match="both routed and fixed"):
            router.route(nets, fixed_trees=fixed)


class TestLadderDescent:
    def _kill_all(self, fabric):
        """Every switch site stuck-open: unroutable at any width."""
        return FabricDefectMap(
            fabric_key=fabric_key_of(fabric), num_nodes=fabric.num_nodes,
            stuck_open_switches=tuple(map(tuple, switch_sites(fabric).tolist())))

    def test_no_campaign_skips_widening(self, placement, routed):
        """Widening re-samples defects from the campaign; without one,
        pretending a wider fabric is fault-free would be lying."""
        routing, fabric = routed
        result = repair_routing(placement, routing, self._kill_all(fabric),
                                graph=fabric, max_iterations=3)
        assert result.stage == "failed" and not result.success
        tried = [a.stage for a in result.attempts]
        assert tried == ["incremental", "full"]
        assert result.channel_width == fabric.params.channel_width

    def test_widened_attempts_resample_from_campaign(self, placement, routed):
        routing, fabric = routed
        width = fabric.params.channel_width

        def provider(ir):
            # Unroutable at the original width, clean once widened.
            if ir.params.channel_width == width:
                return self._kill_all(ir)
            return empty_defect_map(ir)

        result = repair_routing(
            placement, routing, self._kill_all(fabric), graph=fabric,
            campaign=provider, max_widen=1)
        assert result.stage == "widened" and result.success
        assert result.channel_width == width + 2
        assert result.defects.clean
        assert result.sites is None
        assert [a.stage for a in result.attempts] \
            == ["incremental", "full", "widened"]

    def test_widened_rung_hands_back_its_sites(self, placement, routed):
        """A `FaultCampaign` is sampled on the wider fabric over one site
        enumeration, which the result carries for the caller to reuse."""
        routing, fabric = routed
        campaign = FaultCampaign(seed=3, stuck_open_rate=0.001)
        result = repair_routing(
            placement, routing, self._kill_all(fabric), graph=fabric,
            campaign=campaign, max_widen=1)
        assert result.stage == "widened" and result.success
        np.testing.assert_array_equal(result.sites, switch_sites(result.graph))
        assert result.defects == campaign.for_fabric(result.graph)

    def test_failure_counts_metric(self, placement, routed):
        routing, fabric = routed
        registry = MetricsRegistry()
        with use_registry(registry):
            result = repair_routing(placement, routing, self._kill_all(fabric),
                                    graph=fabric, max_iterations=3)
        assert not result.success
        assert registry.counter("repair.failures").value == 1
        assert (registry.gauge("repair.stage").value
                == REPAIR_STAGES.index("failed"))

    def test_foreign_defects_rejected(self, placement, routed):
        routing, fabric = routed
        foreign = FabricDefectMap(fabric_key="elsewhere",
                                  num_nodes=fabric.num_nodes)
        with pytest.raises(ValueError, match="different fabric"):
            repair_routing(placement, routing, foreign, graph=fabric)
