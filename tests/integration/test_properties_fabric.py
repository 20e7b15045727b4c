"""Hypothesis property tests: routing-fabric invariants.

The RR-graph construction has subtle degeneracies (stride-aligned Fc
patterns, direction-parity decompositions) that only show up at
particular (W, L, grid) combinations; these properties sweep that
space.
"""

from collections import deque

from hypothesis import given, settings, strategies as st

from repro.arch.params import ArchParams
from repro.fabric import (
    KIND_HWIRE,
    KIND_IPIN,
    KIND_OPIN,
    KIND_SINK,
    KIND_VWIRE,
    FabricIR,
)

WIRES = (KIND_HWIRE, KIND_VWIRE)


def _all_pairs_reachable(graph: FabricIR) -> bool:
    for tile, src in graph.source_of.items():
        seen = {src}
        queue = deque([src])
        while queue:
            u = queue.popleft()
            for v in graph.neighbors(u):
                if v not in seen:
                    seen.add(v)
                    queue.append(v)
        for sink_tile, sink in graph.sink_of.items():
            if sink_tile != tile and sink not in seen:
                return False
    return True


class TestFabricReachability:
    @given(
        width=st.integers(8, 40),
        seg_len=st.integers(1, 6),
        side=st.integers(2, 5),
    )
    @settings(max_examples=20, deadline=None)
    def test_bidir_full_reachability(self, width, seg_len, side):
        params = ArchParams(channel_width=width, segment_length=seg_len)
        graph = FabricIR.build(params, side, side)
        assert _all_pairs_reachable(graph)

    @given(
        width=st.integers(8, 40),
        seg_len=st.integers(1, 6),
        side=st.integers(2, 5),
    )
    @settings(max_examples=20, deadline=None)
    def test_unidir_full_reachability(self, width, seg_len, side):
        """Regression space for the diagonal-flow decompositions: the
        single-driver fabric must stay strongly connected at every
        (W, L, grid) combination."""
        params = ArchParams(
            channel_width=width, segment_length=seg_len, directionality="unidir"
        )
        graph = FabricIR.build(params, side, side)
        assert _all_pairs_reachable(graph)

    @given(width=st.integers(8, 32), seg_len=st.integers(1, 6))
    @settings(max_examples=15, deadline=None)
    def test_unidir_wires_single_entry(self, width, seg_len):
        """No unidirectional wire is ever entered mid-span: every edge
        into a wire lands on its driven end."""
        params = ArchParams(
            channel_width=width, segment_length=seg_len, directionality="unidir"
        )
        graph = FabricIR.build(params, 3, 3)
        kind, xs, ys = graph.kind, graph.xs, graph.ys
        spans, directions = graph.spans, graph.directions
        entry_of = {}
        for node in graph.nodes_of_kind(*WIRES).tolist():
            vertical = kind[node] == KIND_VWIRE
            start = ys[node] if vertical else xs[node]
            entry_of[node] = start if directions[node] > 0 else start + spans[node]
        for node in range(graph.num_nodes):
            if kind[node] == KIND_SINK:
                continue
            for dst in graph.neighbors(node):
                if kind[dst] not in WIRES:
                    continue
                if kind[node] in WIRES:
                    src_vertical = kind[node] == KIND_VWIRE
                    src_start = ys[node] if src_vertical else xs[node]
                    src_exit = (
                        src_start + spans[node] if directions[node] > 0 else src_start
                    )
                    if kind[node] == kind[dst]:
                        # Collinear continuation: exit feeds entry.
                        assert entry_of[dst] == src_exit

    @given(width=st.integers(8, 32), side=st.integers(2, 5))
    @settings(max_examples=15, deadline=None)
    def test_every_pin_connected(self, width, side):
        for mode in ("bidir", "unidir"):
            params = ArchParams(channel_width=width, directionality=mode)
            graph = FabricIR.build(params, side, side)
            for node in graph.nodes_of_kind(KIND_OPIN).tolist():
                assert graph.neighbors(node), (mode, "OPIN", node)
            # Every IPIN must be fed by at least one wire.
            fed = set()
            for node in graph.nodes_of_kind(*WIRES).tolist():
                for dst in graph.neighbors(node):
                    if graph.kind[dst] == KIND_IPIN:
                        fed.add(dst)
            for node in graph.nodes_of_kind(KIND_IPIN).tolist():
                assert node in fed, (mode, "IPIN", node)
