"""Tests for the routing-resource graph (`repro.fabric.FabricIR`)."""

from collections import Counter

import numpy as np
import pytest

from repro.arch.params import ArchParams
from repro.fabric import (
    KIND_HWIRE,
    KIND_IPIN,
    KIND_OPIN,
    KIND_SINK,
    KIND_SOURCE,
    KIND_VWIRE,
    FabricIR,
)

WIRES = (KIND_HWIRE, KIND_VWIRE)


@pytest.fixture(scope="module")
def graph():
    return FabricIR.build(ArchParams(channel_width=16), nx=4, ny=4)


class TestStructure:
    def test_every_tile_has_source_sink(self, graph):
        assert len(graph.source_of) == 16
        assert len(graph.sink_of) == 16

    def test_pin_counts(self, graph):
        counts = Counter(graph.kind.tolist())
        p = graph.params
        assert counts[KIND_OPIN] == 16 * p.outputs_per_lb
        assert counts[KIND_IPIN] == 16 * p.inputs_per_lb

    def test_wire_counts_cover_channels(self, graph):
        counts = graph.describe()
        # 5 horizontal channels x 16 tracks (segmented) and same vertical.
        assert counts["hwire"] >= 5 * 16
        assert counts["vwire"] >= 5 * 16

    def test_segment_spans_bounded_by_l(self, graph):
        for node in graph.nodes_of_kind(*WIRES).tolist():
            assert 1 <= graph.spans[node] <= graph.params.segment_length

    def test_segments_tile_channel_exactly(self, graph):
        """Per (channel, track) the segments partition the extent."""
        spans = Counter()
        for node in graph.nodes_of_kind(KIND_HWIRE).tolist():
            spans[(int(graph.ys[node]), int(graph.tracks[node]))] += int(graph.spans[node])
        for total in spans.values():
            assert total == graph.nx

    def test_stagger_varies_with_track(self, graph):
        starts = {}
        for node in graph.nodes_of_kind(KIND_HWIRE).tolist():
            if graph.ys[node] == 2:
                starts.setdefault(int(graph.tracks[node]), []).append(int(graph.xs[node]))
        # Tracks with different (track % L) start their joints at
        # different offsets.
        assert starts[0] != starts[1]


class TestConnectivity:
    def test_source_reaches_opins_only(self, graph):
        for tile, source in graph.source_of.items():
            for dst in graph.neighbors(source):
                assert graph.kind[dst] == KIND_OPIN
                assert (graph.xs[dst], graph.ys[dst]) == tile

    def test_ipins_reach_sink(self, graph):
        for node in graph.nodes_of_kind(KIND_IPIN).tolist():
            sink = graph.sink_of[(int(graph.xs[node]), int(graph.ys[node]))]
            assert sink in graph.neighbors(node)

    def test_opins_drive_wires(self, graph):
        for node in graph.nodes_of_kind(KIND_OPIN).tolist():
            assert graph.neighbors(node), "OPIN with no wire taps"
            for dst in graph.neighbors(node):
                assert graph.kind[dst] in WIRES

    def test_wire_wire_edges_bidirectional(self, graph):
        for node in graph.nodes_of_kind(*WIRES).tolist():
            for dst in graph.neighbors(node):
                if graph.kind[dst] in WIRES:
                    assert node in graph.neighbors(dst)

    def test_all_sinks_reachable_from_any_source(self, graph):
        """BFS over the whole graph: routability precondition."""
        from collections import deque

        source = graph.source_of[(0, 0)]
        seen = {source}
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for v in graph.neighbors(u):
                if v not in seen:
                    seen.add(v)
                    queue.append(v)
        for tile, sink in graph.sink_of.items():
            if tile != (0, 0):
                assert sink in seen, f"sink of {tile} unreachable"

    def test_every_track_reachable_from_some_pin(self, graph):
        """Regression for the stride-aligned Fc pattern bug: every
        track of an interior channel must be tappable by some IPIN."""
        tapped = set()
        for node in graph.nodes_of_kind(*WIRES).tolist():
            for dst in graph.neighbors(node):
                if graph.kind[dst] == KIND_IPIN:
                    tapped.add((int(graph.kind[node]), int(graph.tracks[node])))
        for track in range(graph.params.channel_width):
            assert (KIND_HWIRE, track) in tapped


class TestCostsAndCaps:
    def test_wire_base_cost_scales_with_span(self, graph):
        wires = graph.nodes_of_kind(*WIRES)
        for node in wires.tolist():
            assert graph.base_costs[node] == pytest.approx(float(graph.spans[node]))

    def test_source_sink_unbounded(self, graph):
        collector = np.isin(graph.kind, (KIND_SOURCE, KIND_SINK))
        for node in range(graph.num_nodes):
            if collector[node]:
                assert graph.capacities[node] > 1e6
            else:
                assert graph.capacities[node] == 1

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            FabricIR.build(ArchParams(channel_width=8), 0, 3)
