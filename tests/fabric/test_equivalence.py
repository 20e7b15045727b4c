"""FabricIR <-> reference RRGraph equivalence property tests.

The IR is only allowed to exist because it is *exactly* the reference
object graph (`reference_rrgraph.RRGraph`) in flat clothing: same
nodes (attributes and ids), same adjacency in the same per-source
order (router heap tie-breaks depend on it), same tile lookup maps,
same base costs and capacities.  These tests pin that contract over a
grid of architectures so the build cannot drift silently.
"""

import pytest

from repro.arch.params import ArchParams
from repro.fabric import KIND_HWIRE, KIND_NAMES, KIND_VWIRE, FabricIR, as_fabric

from .reference_rrgraph import RRGraph, to_fabric

GRIDS = [(3, 3), (4, 4), (4, 5)]
ARCHES = [
    ArchParams(channel_width=6, segment_length=1),
    ArchParams(channel_width=8, segment_length=2),
    ArchParams(channel_width=12, segment_length=4),
    ArchParams(channel_width=8, segment_length=2, fc_in=0.5, fc_out=0.25),
    ArchParams(channel_width=8, segment_length=2, directionality="unidir"),
    ArchParams(channel_width=12, segment_length=4, directionality="unidir"),
]


def _case_id(case):
    params, (nx, ny) = case
    return (f"W{params.channel_width}_L{params.segment_length}"
            f"_fc{params.fc_in}_{params.directionality}_{nx}x{ny}")


CASES = [(params, grid) for params in ARCHES for grid in GRIDS]


@pytest.fixture(params=CASES, ids=_case_id, scope="module")
def pair(request):
    params, (nx, ny) = request.param
    return RRGraph(params, nx, ny), FabricIR.build(params, nx, ny)


class TestNodeEquivalence:
    def test_node_count(self, pair):
        legacy, ir = pair
        assert ir.num_nodes == len(legacy.nodes)

    def test_node_attributes(self, pair):
        legacy, ir = pair
        for node in legacy.nodes:
            assert KIND_NAMES[ir.kind[node.id]] == node.kind.value
            assert ir.xs[node.id] == node.x
            assert ir.ys[node.id] == node.y
            assert ir.spans[node.id] == node.span
            assert ir.tracks[node.id] == node.track
            assert ir.directions[node.id] == node.direction

    def test_base_costs_and_capacities(self, pair):
        legacy, ir = pair
        for node in legacy.nodes:
            assert ir.base_costs[node.id] == legacy.base_cost(node)
            assert ir.capacities[node.id] == legacy.node_capacity(node)

    def test_wire_nodes_match_kind_query(self, pair):
        """`nodes_of_kind(KIND_HWIRE, KIND_VWIRE)` lists the wires the
        reference's `wire_nodes()` does, in the same order."""
        legacy, ir = pair
        wires = ir.nodes_of_kind(KIND_HWIRE, KIND_VWIRE)
        assert wires.tolist() == [node.id for node in legacy.wire_nodes()]


class TestAdjacencyEquivalence:
    def test_csr_matches_adjacency_in_order(self, pair):
        """Per-source CSR slices equal legacy lists *element for
        element* — order included (routing determinism rides on it)."""
        legacy, ir = pair
        offsets = ir.csr_offsets()
        targets = ir.csr_targets()
        for u, neighbours in enumerate(legacy.adjacency):
            assert targets[offsets[u]:offsets[u + 1]] == neighbours

    def test_edge_count(self, pair):
        legacy, ir = pair
        assert ir.num_edges == sum(len(a) for a in legacy.adjacency)


class TestLookupEquivalence:
    def test_source_and_sink_maps(self, pair):
        legacy, ir = pair
        assert dict(ir.source_of) == legacy.source_of
        assert dict(ir.sink_of) == legacy.sink_of

    def test_describe(self, pair):
        legacy, ir = pair
        assert ir.describe() == legacy.describe()


class TestConversionEquivalence:
    def test_from_rrgraph_matches_build(self, pair):
        """The reference converted to columns is the identical IR."""
        legacy, ir = pair
        converted = to_fabric(legacy)
        assert (converted.kind == ir.kind).all()
        assert (converted.xs == ir.xs).all()
        assert (converted.ys == ir.ys).all()
        assert (converted.spans == ir.spans).all()
        assert (converted.tracks == ir.tracks).all()
        assert (converted.directions == ir.directions).all()
        assert (converted.edge_offsets == ir.edge_offsets).all()
        assert (converted.edge_targets == ir.edge_targets).all()
        assert (converted.edge_switch == ir.edge_switch).all()
        assert (converted.source_table == ir.source_table).all()
        assert (converted.sink_table == ir.sink_table).all()

    def test_as_fabric_rejects_reference(self, pair):
        """`as_fabric` converts nothing: the reference graph is a
        `TypeError` naming `FabricIR`."""
        legacy, _ = pair
        with pytest.raises(TypeError, match="FabricIR"):
            as_fabric(legacy)

    def test_as_fabric_passthrough(self, pair):
        _, ir = pair
        assert as_fabric(ir) is ir
