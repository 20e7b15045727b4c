"""Tests for repro.fabric.ir (FabricIR structure and type check)."""

import pytest

from repro.arch.params import ArchParams
from repro.config import extract_bitstream
from repro.core.variants import baseline_variant
from repro.fabric import (
    KIND_HWIRE,
    KIND_IPIN,
    KIND_OPIN,
    KIND_SINK,
    KIND_SOURCE,
    KIND_VWIRE,
    FabricIR,
    SwitchKind,
    TileLookup,
    switch_kind_code,
)
from repro.netlist.generate import GeneratorParams, generate
from repro.vpr.pack import pack
from repro.vpr.place import place
from repro.vpr.route import PathFinderRouter, route_design
from repro.vpr.timing import analyze_timing

from .reference_rrgraph import RRGraph

ARCH = ArchParams(channel_width=8, segment_length=2)


@pytest.fixture(scope="module")
def ir():
    return FabricIR.build(ARCH, 4, 4)


class TestSwitchKindCode:
    def test_programmable_patterns(self):
        assert switch_kind_code(KIND_OPIN, KIND_HWIRE) == SwitchKind.OPIN_WIRE
        assert switch_kind_code(KIND_OPIN, KIND_VWIRE) == SwitchKind.OPIN_WIRE
        assert switch_kind_code(KIND_HWIRE, KIND_VWIRE) == SwitchKind.WIRE_WIRE
        assert switch_kind_code(KIND_VWIRE, KIND_VWIRE) == SwitchKind.WIRE_WIRE
        assert switch_kind_code(KIND_HWIRE, KIND_IPIN) == SwitchKind.WIRE_IPIN

    def test_hardwired_patterns(self):
        assert switch_kind_code(KIND_SOURCE, KIND_OPIN) == SwitchKind.NONE
        assert switch_kind_code(KIND_IPIN, KIND_SINK) == SwitchKind.NONE


class TestEdgeSwitchTable:
    def test_table_matches_scalar_classifier(self, ir):
        offsets = ir.csr_offsets()
        targets = ir.csr_targets()
        for u in range(ir.num_nodes):
            for e in range(offsets[u], offsets[u + 1]):
                v = targets[e]
                assert ir.edge_switch[e] == switch_kind_code(
                    int(ir.kind[u]), int(ir.kind[v])
                )

    @pytest.mark.parametrize("directionality", ["bidir", "unidir"])
    def test_switch_kind_between_every_edge(self, directionality):
        graph = FabricIR.build(
            ArchParams(channel_width=8, segment_length=2,
                       directionality=directionality), 4, 4)
        offsets = graph.csr_offsets()
        targets = graph.csr_targets()
        kinds = set()
        for u in range(graph.num_nodes):
            for e in range(offsets[u], offsets[u + 1]):
                kind = graph.switch_kind_between(u, targets[e])
                assert kind is SwitchKind(int(graph.edge_switch[e]))
                kinds.add(kind)
        assert kinds == set(SwitchKind)

    def test_switch_kind_between_non_edge(self, ir):
        # SOURCE never points at another SOURCE: classifier fallback.
        sources = [i for i in range(ir.num_nodes)
                   if ir.kind[i] == KIND_SOURCE]
        assert ir.switch_kind_between(sources[0], sources[1]) is SwitchKind.NONE


class TestStats:
    def test_stats_shape(self, ir):
        stats = ir.stats()
        assert stats["grid"] == [4, 4]
        assert stats["channel_width"] == 8
        assert stats["num_nodes"] == sum(stats["nodes_by_kind"].values())
        assert stats["num_edges"] == sum(stats["edges_by_switch"].values())
        assert stats["memory_bytes"] > 0
        assert stats["build"]["constructor"] == "build"
        assert stats["build"]["build_wall_s"] >= 0

    def test_memory_counts_core_arrays(self, ir):
        assert ir.memory_bytes() >= (
            ir.kind.nbytes + ir.edge_targets.nbytes + ir.edge_offsets.nbytes
        )

    def test_describe_matches_legacy_format(self, ir):
        counts = ir.describe()
        assert set(counts) == {
            "source", "sink", "opin", "ipin", "hwire", "vwire", "edges",
        }


class TestTileLookup:
    def test_mapping_protocol(self, ir):
        lookup = ir.source_of
        assert isinstance(lookup, TileLookup)
        assert len(lookup) == 16
        assert set(lookup) == {(x, y) for x in range(4) for y in range(4)}
        assert ir.kind[lookup[(1, 2)]] == KIND_SOURCE

    def test_missing_tile_raises(self, ir):
        with pytest.raises(KeyError):
            ir.source_of[(9, 9)]
        with pytest.raises(KeyError):
            ir.sink_of[(-1, 0)]


class TestPositions:
    def test_positions_per_node(self, ir):
        positions = ir.positions
        assert len(positions) == ir.num_nodes
        wire = int(ir.nodes_of_kind(KIND_HWIRE, KIND_VWIRE)[0])
        px, py = positions[wire]
        assert px >= ir.xs[wire] and py >= ir.ys[wire]


class TestOnlyFabricIRAccepted:
    """The router, STA and bitstream extractor take a `FabricIR` and
    nothing else: any other graph is a `TypeError` naming it."""

    @pytest.fixture(scope="class")
    def routed(self):
        clustered = pack(generate(GeneratorParams("tc", num_luts=30, seed=3)), ARCH)
        placement = place(clustered, seed=1)
        routing, graph = route_design(placement, ARCH, channel_width=16)
        assert routing.success
        return placement, routing, graph

    @pytest.fixture(params=["object", "reference"])
    def not_ir(self, request):
        if request.param == "object":
            return object()
        return RRGraph(ARCH, 3, 3)

    def test_router_rejects(self, not_ir):
        with pytest.raises(TypeError, match="FabricIR"):
            PathFinderRouter(not_ir)

    def test_analyze_timing_rejects(self, routed, not_ir):
        placement, routing, _ = routed
        fabric = baseline_variant(ARCH).fabric()
        with pytest.raises(TypeError, match="FabricIR"):
            analyze_timing(placement, routing, not_ir, fabric)

    def test_extract_bitstream_rejects(self, routed, not_ir):
        _, routing, _ = routed
        with pytest.raises(TypeError, match="FabricIR"):
            extract_bitstream(routing, not_ir)
