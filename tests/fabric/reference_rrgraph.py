"""Reference routing-resource (RR) graph: the oracle `FabricIR` is pinned to.

The object-graph builder the array-native `repro.fabric.build` was
ported from, kept here as the reference implementation of the
equivalence suite (`test_equivalence.py`, `test_routing_identity.py`)
and the legacy arm of `benchmarks/bench_fabric_ir.py`.  Nothing in
`src/` imports it.  Node kinds:

* ``SOURCE``/``SINK`` — logical net endpoints per LB (pins of one LB
  are logically equivalent through the internal crossbar, so one
  SOURCE fans out to all OPINs and all IPINs converge on one SINK);
* ``OPIN``/``IPIN`` — physical LB pins, distributed round-robin over
  the four adjacent channels;
* ``HWIRE``/``VWIRE`` — channel wire segments of length L tiles with
  per-track staggered starting points.

Edge kinds follow paper Fig. 7: OPIN -> wire (Fcout, via SB), wire <->
wire (Fs at segment endpoints, plus collinear continuation), wire ->
IPIN (Fcin via CB).  Wires are bidirectional (pass-transistor or relay
switches conduct both ways), so wire-wire edges appear in both
directions.

`to_fabric` converts a built graph into a `FabricIR` column for
column, so the router (which accepts only `FabricIR`) can route over
the reference graph.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Dict, List, Tuple

import numpy as np

from repro.arch.params import ArchParams
from repro.fabric import KIND_NAMES, FabricIR


class NodeKind(enum.Enum):
    SOURCE = "source"
    SINK = "sink"
    OPIN = "opin"
    IPIN = "ipin"
    HWIRE = "hwire"
    VWIRE = "vwire"


@dataclasses.dataclass
class RRNode:
    """One routing resource.

    Attributes:
        id: Dense integer id (index into the graph arrays).
        kind: Node kind.
        x, y: Tile coordinate (for pins/source/sink) or channel
            coordinate (for wires: the channel index and span start).
        span: Tiles covered by a wire segment (1 for pins).
        track: Channel track for wires, pin index for pins.
        direction: 0 for bidirectional wires and pins; +1/-1 for
            unidirectional wires driven at their low/high end.
    """

    id: int
    kind: NodeKind
    x: int
    y: int
    span: int = 1
    track: int = 0
    direction: int = 0


class RRGraph:
    """Routing-resource graph over an nx x ny tile grid.

    Args:
        params: Architecture parameters (W, L, Fc, Fs...).
        nx, ny: Grid dimensions in tiles.

    Attributes:
        nodes: All RR nodes, indexed by id.
        adjacency: Directed adjacency lists (node id -> node ids).
        source_of / sink_of: (x, y) tile -> SOURCE / SINK node id.
    """

    def __init__(self, params: ArchParams, nx: int, ny: int) -> None:
        if nx < 1 or ny < 1:
            raise ValueError(f"grid must be at least 1x1, got {nx}x{ny}")
        self.params = params
        self.nx = nx
        self.ny = ny
        self.nodes: List[RRNode] = []
        self.adjacency: List[List[int]] = []
        self.source_of: Dict[Tuple[int, int], int] = {}
        self.sink_of: Dict[Tuple[int, int], int] = {}
        # (is_vertical, channel index, track, position) -> wire node id
        self._wire_at: Dict[Tuple[bool, int, int, int], int] = {}
        # Unidirectional mode: (is_vertical, channel, corner, track) ->
        # the wire ENTERING (driven) at that corner, plus a per-corner
        # list of all entries (with L-tile staggering only ~W/L tracks
        # enter at any one corner, so fixed-track lookups mostly miss).
        self._entry_at: Dict[Tuple[bool, int, int, int], int] = {}
        self._entries_by_corner: Dict[Tuple[bool, int, int], List[Tuple[int, int]]] = {}
        self.unidir = params.directionality == "unidir"
        self._build()

    # -- construction -----------------------------------------------------

    def _new_node(
        self,
        kind: NodeKind,
        x: int,
        y: int,
        span: int = 1,
        track: int = 0,
        direction: int = 0,
    ) -> int:
        node_id = len(self.nodes)
        self.nodes.append(
            RRNode(id=node_id, kind=kind, x=x, y=y, span=span, track=track, direction=direction)
        )
        self.adjacency.append([])
        return node_id

    def _add_edge(self, src: int, dst: int) -> None:
        self.adjacency[src].append(dst)

    def _build(self) -> None:
        self._build_wires()
        self._build_pins()
        self._build_switch_boxes()

    def _segment_starts(self, track: int, extent: int) -> List[Tuple[int, int]]:
        """(start, span) segments tiling a channel of ``extent`` tiles,
        staggered by track so segment joints spread across the fabric.

        Unidirectional fabrics stagger by track *pair*: the INC/DEC
        wires of a pair share joints, so every joint corner hosts
        entries of both directions (all four turn combinations stay
        routable)."""
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
        """Unidirectional fabrics alternate direction by track parity;
        bidirectional wires carry direction 0."""
        if not self.unidir:
            return 0
        return 1 if track % 2 == 0 else -1

    def _build_wires(self) -> None:
        w = self.params.channel_width
        # Horizontal channels: index c in 0..ny (channel c sits below
        # tile row c; row ny is the top edge), extent nx tiles.
        for c in range(self.ny + 1):
            for t in range(w):
                direction = self._wire_direction(t)
                for start, span in self._segment_starts(t, self.nx):
                    node = self._new_node(
                        NodeKind.HWIRE, x=start, y=c, span=span, track=t, direction=direction
                    )
                    for pos in range(start, start + span):
                        self._wire_at[(False, c, t, pos)] = node
                    if direction:
                        entry = start if direction > 0 else start + span
                        self._entry_at[(False, c, entry, t)] = node
                        self._entries_by_corner.setdefault((False, c, entry), []).append((t, node))
        # Vertical channels: index c in 0..nx, extent ny tiles.
        for c in range(self.nx + 1):
            for t in range(w):
                direction = self._wire_direction(t)
                for start, span in self._segment_starts(t, self.ny):
                    node = self._new_node(
                        NodeKind.VWIRE, x=c, y=start, span=span, track=t, direction=direction
                    )
                    for pos in range(start, start + span):
                        self._wire_at[(True, c, t, pos)] = node
                    if direction:
                        entry = start if direction > 0 else start + span
                        self._entry_at[(True, c, entry, t)] = node
                        self._entries_by_corner.setdefault((True, c, entry), []).append((t, node))

    def _adjacent_channels(self, x: int, y: int) -> List[Tuple[bool, int, int]]:
        """The four channels bordering tile (x, y):
        (is_vertical, channel index, position along channel)."""
        return [
            (False, y, x),      # horizontal channel below
            (False, y + 1, x),  # horizontal channel above
            (True, x, y),       # vertical channel left
            (True, x + 1, y),   # vertical channel right
        ]

    def _build_pins(self) -> None:
        p = self.params
        w = p.channel_width
        for x in range(self.nx):
            for y in range(self.ny):
                source = self._new_node(NodeKind.SOURCE, x, y)
                sink = self._new_node(NodeKind.SINK, x, y)
                self.source_of[(x, y)] = source
                self.sink_of[(x, y)] = sink
                channels = self._adjacent_channels(x, y)
                # Fc patterns: stride spreads each pin's taps across the
                # channel; the per-pin offset walks through all track
                # residues so collectively every track is reachable
                # (a stride-aligned offset would strand most tracks).
                out_stride = max(1, w // p.fc_out_abs)
                in_stride = max(1, w // p.fc_in_abs)
                for pin in range(p.outputs_per_lb):
                    opin = self._new_node(NodeKind.OPIN, x, y, track=pin)
                    self._add_edge(source, opin)
                    # Taps alternate between the pin's side and the
                    # opposite side (pins reach two channels), doubling
                    # escape diversity at the same switch count.
                    offset = (pin * w) // p.outputs_per_lb + (x + y) % out_stride
                    for j in range(p.fc_out_abs):
                        vertical, chan, pos = channels[(pin + 2 * (j % 2)) % 4]
                        track = (offset + j * out_stride) % w
                        if self.unidir:
                            # Single-driver wires are entered at their
                            # start only: tap among the wires whose
                            # entry corner borders this tile (both
                            # directions exit the tile's two corners).
                            # Taps stride across the whole entry list so
                            # different pins reach disjoint-ish wire
                            # sets (a sliding window would make sibling
                            # pins' taps overlap almost completely).
                            corner = pos + (j % 2)
                            entries = self._entries_by_corner.get((vertical, chan, corner), [])
                            if not entries:
                                # Degenerate staggering: with W < 2L
                                # the track pairs cannot cover every
                                # offset, leaving corners with no entry
                                # points (e.g. corner 4 at W=8, L=5).
                                # Fall back to the tile's other corner
                                # so no tile is left driverless.
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
                    ipin = self._new_node(NodeKind.IPIN, x, y, track=pin)
                    self._add_edge(ipin, sink)
                    offset = (pin * w) // p.inputs_per_lb + (x * 2 + y) % in_stride
                    for j in range(p.fc_in_abs):
                        vertical, chan, pos = channels[(pin + 2 * (j % 2)) % 4]
                        track = (offset + j * in_stride) % w
                        wire = self._wire_at.get((vertical, chan, track, pos))
                        if wire is not None:
                            self._add_edge(wire, ipin)

    def _wires_crossing(self, vertical: bool, chan: int, pos: int) -> Dict[int, int]:
        """track -> wire id for all tracks of a channel at a position."""
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
        """Single-driver switch pattern: a wire's exit corner feeds the
        entry muxes of crossing-channel wires (Fs of them) and the next
        collinear wire on its track."""
        p = self.params
        w = p.channel_width
        for node in self.nodes:
            if node.kind not in (NodeKind.HWIRE, NodeKind.VWIRE):
                continue
            vertical = node.kind is NodeKind.VWIRE
            chan = node.x if vertical else node.y
            start = node.y if vertical else node.x
            exit_corner = start + node.span if node.direction > 0 else start
            # Collinear continuation (same track, same direction).
            nxt = self._entry_at.get((vertical, chan, exit_corner, node.track))
            if nxt is not None and nxt != node.id:
                self._add_edge(node.id, nxt)
            # Crossing-channel targets entering at the junction.  A
            # horizontal wire in row `chan` exiting at column corner c
            # meets vertical channel c at row corner `chan` (and vice
            # versa).
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
            # Mix target directions: if every crossing flipped
            # direction, the fabric would decompose into two
            # disconnected diagonal flows (right+down and left+up) and
            # e.g. a down-then-left turn would be impossible.  The
            # entry list interleaves both directions (track parity),
            # so an odd index stride visits both.
            for i in range(p.fs):
                index = (node.track + 1 + i * max(1, len(entries) // p.fs)) % len(entries)
                _t, target = entries[index]
                if target != node.id:
                    self._add_edge(node.id, target)

    def _build_switch_boxes_bidir(self) -> None:
        """Wire-wire switches at segment endpoints (Fs per endpoint),
        plus collinear continuation to the next segment on the track."""
        p = self.params
        w = p.channel_width
        seen_pairs = set()

        def connect(a: int, b: int) -> None:
            if a == b:
                return
            key = (min(a, b), max(a, b))
            if key in seen_pairs:
                return
            seen_pairs.add(key)
            self._add_edge(a, b)
            self._add_edge(b, a)

        for node in self.nodes:
            if node.kind not in (NodeKind.HWIRE, NodeKind.VWIRE):
                continue
            vertical = node.kind is NodeKind.VWIRE
            chan = node.x if vertical else node.y
            start = node.y if vertical else node.x
            end = start + node.span - 1
            # Collinear continuation on the same track.
            nxt = self._wire_at.get((vertical, chan, node.track, end + 1))
            if nxt is not None:
                connect(node.id, nxt)
            # Crossing connections at both segment endpoints.  A
            # horizontal wire spanning tiles [start, end] of channel
            # row `chan` meets vertical channels start and end + 1; the
            # crossing position in a vertical channel x = c is
            # min(chan, ny - 1) etc.  Fs tracks per endpoint, Wilton-ish
            # modulo pattern.
            for endpoint, cross_chan in ((start, start), (end, end + 1)):
                if vertical:
                    # Crossing horizontal channels are rows cross_chan
                    # (a VWIRE covering tiles [start, end] of column
                    # chan meets HWIRE rows start..end+1; endpoints only).
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
                    target_track = (node.track + i * max(1, w // p.fs)) % w
                    # Fall back to the nearest existing track.
                    if target_track not in candidates:
                        existing = sorted(candidates)
                        target_track = existing[target_track % len(existing)]
                    connect(node.id, candidates[target_track])

    # -- queries -----------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_edges(self) -> int:
        return sum(len(adj) for adj in self.adjacency)

    def wire_nodes(self) -> List[RRNode]:
        return [n for n in self.nodes if n.kind in (NodeKind.HWIRE, NodeKind.VWIRE)]

    def node_capacity(self, node: RRNode) -> int:
        """Routing capacity: 1 for wires and pins, unbounded for the
        logical SOURCE/SINK collectors."""
        if node.kind in (NodeKind.SOURCE, NodeKind.SINK):
            return 10**9
        return 1

    def base_cost(self, node: RRNode) -> float:
        """PathFinder base cost: wire cost scales with span; pins are
        cheap; sinks free."""
        if node.kind in (NodeKind.HWIRE, NodeKind.VWIRE):
            return float(node.span)
        if node.kind in (NodeKind.OPIN, NodeKind.IPIN):
            return 0.95
        return 0.0

    def describe(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for node in self.nodes:
            counts[node.kind.value] = counts.get(node.kind.value, 0) + 1
        counts["edges"] = self.num_edges
        return counts


#: NodeKind.value string -> FabricIR kind code.
_KIND_CODE = {name: code for code, name in enumerate(KIND_NAMES)}


def to_fabric(graph: RRGraph) -> FabricIR:
    """The `FabricIR` holding ``graph``'s nodes, edges and tile maps."""
    n = graph.num_nodes
    nodes = graph.nodes
    kind = np.fromiter(
        (_KIND_CODE[node.kind.value] for node in nodes), dtype=np.int8, count=n)
    xs = np.fromiter((node.x for node in nodes), dtype=np.int32, count=n)
    ys = np.fromiter((node.y for node in nodes), dtype=np.int32, count=n)
    spans = np.fromiter((node.span for node in nodes), dtype=np.int32, count=n)
    tracks = np.fromiter((node.track for node in nodes), dtype=np.int32, count=n)
    directions = np.fromiter(
        (node.direction for node in nodes), dtype=np.int8, count=n)
    counts = np.fromiter(
        (len(adj) for adj in graph.adjacency), dtype=np.int64, count=n)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    targets = np.fromiter(
        (v for adj in graph.adjacency for v in adj),
        dtype=np.int32, count=int(offsets[-1]))
    source_table = np.full(graph.nx * graph.ny, -1, dtype=np.int32)
    sink_table = np.full(graph.nx * graph.ny, -1, dtype=np.int32)
    for (x, y), node in graph.source_of.items():
        source_table[x * graph.ny + y] = node
    for (x, y), node in graph.sink_of.items():
        sink_table[x * graph.ny + y] = node
    return FabricIR(
        graph.params, graph.nx, graph.ny,
        kind=kind, xs=xs, ys=ys, spans=spans, tracks=tracks,
        directions=directions, edge_offsets=offsets, edge_targets=targets,
        source_table=source_table, sink_table=sink_table,
        build_stats={"constructor": "reference"},
    )
