"""Array-native RR-graph construction: the FabricIR backing store.

A port of the object-graph builder kept as the test suite's reference
(`tests/fabric/reference_rrgraph.py`) that emits flat parallel arrays
instead of node objects and per-node adjacency lists.  Node ids, node
attributes, and per-source edge order are identical to the reference
(`tests/fabric/test_equivalence.py` checks this exhaustively on small
grids), so a router run over either takes exactly the same decisions.

The builder keeps transient dict indexes (`_wire_at`, `_entry_at`,
`_entries_by_corner`) — they exist only during the build; the
finished IR is pure arrays.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from ..arch.params import ArchParams

#: Node-kind codes (SOURCE, SINK, OPIN, IPIN, HWIRE, VWIRE).
KIND_SOURCE, KIND_SINK, KIND_OPIN, KIND_IPIN, KIND_HWIRE, KIND_VWIRE = range(6)

#: Kind code -> kind name (for describe()/stats()).
KIND_NAMES = ("source", "sink", "opin", "ipin", "hwire", "vwire")


class RawFabric:
    """Flat build output before CSR finalisation (see `_finalize`)."""

    __slots__ = (
        "params", "nx", "ny",
        "kind", "xs", "ys", "spans", "tracks", "directions",
        "edge_src", "edge_dst", "source_lut", "sink_lut",
    )

    def __init__(self, params: ArchParams, nx: int, ny: int) -> None:
        self.params = params
        self.nx = nx
        self.ny = ny
        self.kind: List[int] = []
        self.xs: List[int] = []
        self.ys: List[int] = []
        self.spans: List[int] = []
        self.tracks: List[int] = []
        self.directions: List[int] = []
        self.edge_src: List[int] = []
        self.edge_dst: List[int] = []
        # Tile (x, y) -> SOURCE / SINK node id, flattened x * ny + y.
        self.source_lut: List[int] = [-1] * (nx * ny)
        self.sink_lut: List[int] = [-1] * (nx * ny)


class _ArrayBuilder:
    """The fabric build over flat lists."""

    def __init__(self, params: ArchParams, nx: int, ny: int) -> None:
        if nx < 1 or ny < 1:
            raise ValueError(f"grid must be at least 1x1, got {nx}x{ny}")
        self.params = params
        self.nx = nx
        self.ny = ny
        self.raw = RawFabric(params, nx, ny)
        self.unidir = params.directionality == "unidir"
        # (is_vertical, channel index, track, position) -> wire node id
        self._wire_at: Dict[Tuple[bool, int, int, int], int] = {}
        # Unidirectional mode: (is_vertical, channel, corner, track) ->
        # the wire ENTERING (driven) at that corner, plus a per-corner
        # list of all entries (with L-tile staggering only ~W/L tracks
        # enter at any one corner, so fixed-track lookups mostly miss).
        self._entry_at: Dict[Tuple[bool, int, int, int], int] = {}
        self._entries_by_corner: Dict[Tuple[bool, int, int], List[Tuple[int, int]]] = {}

    # -- primitives --------------------------------------------------------

    def _new_node(
        self, kind: int, x: int, y: int,
        span: int = 1, track: int = 0, direction: int = 0,
    ) -> int:
        raw = self.raw
        node_id = len(raw.kind)
        raw.kind.append(kind)
        raw.xs.append(x)
        raw.ys.append(y)
        raw.spans.append(span)
        raw.tracks.append(track)
        raw.directions.append(direction)
        return node_id

    def _add_edge(self, src: int, dst: int) -> None:
        self.raw.edge_src.append(src)
        self.raw.edge_dst.append(dst)

    # -- construction ------------------------------------------------------

    def build(self) -> RawFabric:
        self._build_wires()
        self._build_pins()
        self._build_switch_boxes()
        return self.raw

    def _segment_starts(self, track: int, extent: int) -> List[Tuple[int, int]]:
        seg_len = self.params.segment_length
        offset = (track // 2) % seg_len if self.unidir else track % seg_len
        segments: List[Tuple[int, int]] = []
        pos = 0
        if offset > 0:
            head = min(offset, extent)
            segments.append((0, head))
            pos = head
        while pos < extent:
            span = min(seg_len, extent - pos)
            segments.append((pos, span))
            pos += span
        return segments

    def _wire_direction(self, track: int) -> int:
        if not self.unidir:
            return 0
        return 1 if track % 2 == 0 else -1

    def _build_wires(self) -> None:
        w = self.params.channel_width
        for c in range(self.ny + 1):
            for t in range(w):
                direction = self._wire_direction(t)
                for start, span in self._segment_starts(t, self.nx):
                    node = self._new_node(
                        KIND_HWIRE, x=start, y=c, span=span, track=t, direction=direction
                    )
                    for pos in range(start, start + span):
                        self._wire_at[(False, c, t, pos)] = node
                    if direction:
                        entry = start if direction > 0 else start + span
                        self._entry_at[(False, c, entry, t)] = node
                        self._entries_by_corner.setdefault((False, c, entry), []).append((t, node))
        for c in range(self.nx + 1):
            for t in range(w):
                direction = self._wire_direction(t)
                for start, span in self._segment_starts(t, self.ny):
                    node = self._new_node(
                        KIND_VWIRE, x=c, y=start, span=span, track=t, direction=direction
                    )
                    for pos in range(start, start + span):
                        self._wire_at[(True, c, t, pos)] = node
                    if direction:
                        entry = start if direction > 0 else start + span
                        self._entry_at[(True, c, entry, t)] = node
                        self._entries_by_corner.setdefault((True, c, entry), []).append((t, node))

    def _adjacent_channels(self, x: int, y: int) -> List[Tuple[bool, int, int]]:
        return [
            (False, y, x),      # horizontal channel below
            (False, y + 1, x),  # horizontal channel above
            (True, x, y),       # vertical channel left
            (True, x + 1, y),   # vertical channel right
        ]

    def _build_pins(self) -> None:
        p = self.params
        w = p.channel_width
        raw = self.raw
        for x in range(self.nx):
            for y in range(self.ny):
                source = self._new_node(KIND_SOURCE, x, y)
                sink = self._new_node(KIND_SINK, x, y)
                raw.source_lut[x * self.ny + y] = source
                raw.sink_lut[x * self.ny + y] = sink
                channels = self._adjacent_channels(x, y)
                out_stride = max(1, w // p.fc_out_abs)
                in_stride = max(1, w // p.fc_in_abs)
                for pin in range(p.outputs_per_lb):
                    opin = self._new_node(KIND_OPIN, x, y, track=pin)
                    self._add_edge(source, opin)
                    offset = (pin * w) // p.outputs_per_lb + (x + y) % out_stride
                    for j in range(p.fc_out_abs):
                        vertical, chan, pos = channels[(pin + 2 * (j % 2)) % 4]
                        track = (offset + j * out_stride) % w
                        if self.unidir:
                            corner = pos + (j % 2)
                            entries = self._entries_by_corner.get((vertical, chan, corner), [])
                            if not entries:
                                corner = pos + 1 - (j % 2)
                                entries = self._entries_by_corner.get(
                                    (vertical, chan, corner), []
                                )
                            if not entries:
                                continue
                            entry_stride = max(1, len(entries) // max(1, p.fc_out_abs // 2))
                            _t, wire = entries[(pin + j * entry_stride) % len(entries)]
                        else:
                            wire = self._wire_at.get((vertical, chan, track, pos))
                        if wire is not None:
                            self._add_edge(opin, wire)
                for pin in range(p.inputs_per_lb):
                    ipin = self._new_node(KIND_IPIN, x, y, track=pin)
                    self._add_edge(ipin, sink)
                    offset = (pin * w) // p.inputs_per_lb + (x * 2 + y) % in_stride
                    for j in range(p.fc_in_abs):
                        vertical, chan, pos = channels[(pin + 2 * (j % 2)) % 4]
                        track = (offset + j * in_stride) % w
                        wire = self._wire_at.get((vertical, chan, track, pos))
                        if wire is not None:
                            self._add_edge(wire, ipin)

    def _wires_crossing(self, vertical: bool, chan: int, pos: int) -> Dict[int, int]:
        w = self.params.channel_width
        found: Dict[int, int] = {}
        for t in range(w):
            node = self._wire_at.get((vertical, chan, t, pos))
            if node is not None:
                found[t] = node
        return found

    def _build_switch_boxes(self) -> None:
        if self.unidir:
            self._build_switch_boxes_unidir()
        else:
            self._build_switch_boxes_bidir()

    def _build_switch_boxes_unidir(self) -> None:
        p = self.params
        raw = self.raw
        for node_id in range(len(raw.kind)):
            k = raw.kind[node_id]
            if k != KIND_HWIRE and k != KIND_VWIRE:
                continue
            vertical = k == KIND_VWIRE
            chan = raw.xs[node_id] if vertical else raw.ys[node_id]
            start = raw.ys[node_id] if vertical else raw.xs[node_id]
            span = raw.spans[node_id]
            track = raw.tracks[node_id]
            exit_corner = start + span if raw.directions[node_id] > 0 else start
            nxt = self._entry_at.get((vertical, chan, exit_corner, track))
            if nxt is not None and nxt != node_id:
                self._add_edge(node_id, nxt)
            cross_vertical = not vertical
            cross_index = exit_corner
            cross_corner = chan
            if cross_vertical and not (0 <= cross_index <= self.nx):
                continue
            if not cross_vertical and not (0 <= cross_index <= self.ny):
                continue
            entries = self._entries_by_corner.get(
                (cross_vertical, cross_index, cross_corner), []
            )
            if not entries:
                continue
            for i in range(p.fs):
                index = (track + 1 + i * max(1, len(entries) // p.fs)) % len(entries)
                _t, target = entries[index]
                if target != node_id:
                    self._add_edge(node_id, target)

    def _build_switch_boxes_bidir(self) -> None:
        p = self.params
        w = p.channel_width
        raw = self.raw
        seen_pairs = set()

        def connect(a: int, b: int) -> None:
            if a == b:
                return
            key = (a, b) if a < b else (b, a)
            if key in seen_pairs:
                return
            seen_pairs.add(key)
            self._add_edge(a, b)
            self._add_edge(b, a)

        for node_id in range(len(raw.kind)):
            k = raw.kind[node_id]
            if k != KIND_HWIRE and k != KIND_VWIRE:
                continue
            vertical = k == KIND_VWIRE
            chan = raw.xs[node_id] if vertical else raw.ys[node_id]
            start = raw.ys[node_id] if vertical else raw.xs[node_id]
            end = start + raw.spans[node_id] - 1
            track = raw.tracks[node_id]
            nxt = self._wire_at.get((vertical, chan, track, end + 1))
            if nxt is not None:
                connect(node_id, nxt)
            for endpoint, cross_chan in ((start, start), (end, end + 1)):
                if vertical:
                    cross_vertical = False
                    cross_index = cross_chan
                    cross_pos = min(chan, self.nx - 1)
                    if chan == self.nx:
                        cross_pos = self.nx - 1
                else:
                    cross_vertical = True
                    cross_index = cross_chan
                    cross_pos = min(chan, self.ny - 1)
                    if chan == self.ny:
                        cross_pos = self.ny - 1
                candidates = self._wires_crossing(cross_vertical, cross_index, cross_pos)
                if not candidates:
                    continue
                for i in range(p.fs):
                    target_track = (track + i * max(1, w // p.fs)) % w
                    if target_track not in candidates:
                        existing = sorted(candidates)
                        target_track = existing[target_track % len(existing)]
                    connect(node_id, candidates[target_track])


def build_raw(params: ArchParams, nx: int, ny: int) -> RawFabric:
    """Run the array-native build and return the flat lists."""
    return _ArrayBuilder(params, nx, ny).build()


def csr_from_edges(
    num_nodes: int, edge_src: np.ndarray, edge_dst: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """(edge_offsets, edge_targets) from an edge list in emit order.

    The stable sort preserves per-source emit order, so CSR slice
    ``targets[offsets[u]:offsets[u + 1]]`` lists the out-edges of ``u``
    in the order they were emitted — which the router's
    determinism (heap tie-breaks follow push order) depends on.
    """
    if len(edge_src) == 0:
        return (np.zeros(num_nodes + 1, dtype=np.int64),
                np.zeros(0, dtype=np.int32))
    order = np.argsort(edge_src, kind="stable")
    targets = np.ascontiguousarray(edge_dst[order], dtype=np.int32)
    counts = np.bincount(edge_src, minlength=num_nodes)
    offsets = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return offsets, targets
