"""Tests for timing-driven routing (criticality-blended PathFinder)."""

import pytest

from repro.arch.params import ArchParams
from repro.core.variants import baseline_variant
from repro.fabric import KIND_HWIRE, KIND_VWIRE, FabricIR
from repro.netlist.generate import GeneratorParams, generate
from repro.vpr.flow import run_flow, run_timing_driven_flow
from repro.vpr.route import PathFinderRouter
from repro.vpr.timing import analyze_timing, estimate_hop_delay, node_delay_costs

PARAMS = ArchParams(channel_width=32)


@pytest.fixture(scope="module")
def fabric():
    return baseline_variant(PARAMS).fabric()


@pytest.fixture(scope="module")
def circuit():
    return generate(GeneratorParams("td", num_luts=200, ff_fraction=0.25, seed=9))


@pytest.fixture(scope="module")
def flows(circuit, fabric):
    base = run_flow(circuit, PARAMS)
    assert base.success
    base_report = analyze_timing(base.placement, base.routing, base.graph, fabric)
    td_flow, td_report = run_timing_driven_flow(circuit, PARAMS, fabric, sta_passes=2)
    assert td_flow.success
    return base, base_report, td_flow, td_report


class TestDelayCosts:
    def test_hop_delay_positive_and_monotone_in_span(self, fabric):
        d_half = estimate_hop_delay(fabric, 0.5)
        d_full = estimate_hop_delay(fabric, 1.0)
        assert 0 < d_half < d_full

    def test_rejects_nonpositive_span(self, fabric):
        with pytest.raises(ValueError):
            estimate_hop_delay(fabric, 0.0)

    def test_per_node_costs_shape(self, fabric):
        graph = FabricIR.build(PARAMS, 4, 4)
        costs = node_delay_costs(graph, fabric)
        assert len(costs) == graph.num_nodes
        assert all(c >= 0 for c in costs)

    def test_full_span_wire_normalised_to_base_cost(self, fabric):
        graph = FabricIR.build(PARAMS, 8, 8)
        costs = node_delay_costs(graph, fabric)
        full_span = [
            costs[n]
            for n in graph.nodes_of_kind(KIND_HWIRE, KIND_VWIRE).tolist()
            if graph.spans[n] == PARAMS.segment_length
        ]
        assert full_span
        assert full_span[0] == pytest.approx(PARAMS.segment_length)

    def test_router_rejects_mismatched_costs(self, fabric):
        graph = FabricIR.build(PARAMS, 3, 3)
        with pytest.raises(ValueError):
            PathFinderRouter(graph, delay_costs=[1.0, 2.0])


class TestTimingDrivenFlow:
    def test_never_worse_than_routability(self, flows):
        _base, base_report, _td_flow, td_report = flows
        assert td_report.critical_path <= base_report.critical_path + 1e-15

    def test_improves_under_congestion(self, flows):
        """At this W (just above Wmin) the routability router detours
        critical nets; the timing-driven pass recovers measurable
        delay (deterministic instance, ~10% on this circuit)."""
        _base, base_report, _td_flow, td_report = flows
        assert td_report.critical_path < 0.97 * base_report.critical_path

    def test_result_still_legal(self, flows):
        _base, _base_report, td_flow, _td_report = flows
        from collections import Counter

        occupancy = Counter()
        for tree in td_flow.routing.trees.values():
            for node in tree.nodes:
                occupancy[node] += 1
        graph = td_flow.graph
        for node_id, occ in occupancy.items():
            assert occ <= graph.capacities[node_id]

    def test_zero_sta_passes_is_routability(self, circuit, fabric):
        flow, report = run_timing_driven_flow(circuit, PARAMS, fabric, sta_passes=0)
        assert flow.success
        assert report is not None

    def test_rejects_negative_passes(self, circuit, fabric):
        with pytest.raises(ValueError):
            run_timing_driven_flow(circuit, PARAMS, fabric, sta_passes=-1)
