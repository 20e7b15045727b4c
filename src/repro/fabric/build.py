"""Array-native RR-graph construction: the FabricIR backing store.

A port of the object-graph builder kept as the test suite's reference
(`tests/fabric/reference_rrgraph.py`) that emits flat parallel arrays
instead of node objects and per-node adjacency lists.  Node ids, node
attributes, and per-source edge order are identical to the reference
(`tests/fabric/test_equivalence.py` checks this on small and
workload-sized grids), so a router run over either takes exactly the
same decisions.

Every step is whole-array arithmetic; nothing loops per node or edge:

* wires come from per-track segment tables tiled over the channels,
  and a dense ``(channel, track, position) -> wire id`` table answers
  every "which wire is here" query;
* pin edges are index arithmetic over ``(tile, pin, j)`` grids;
* a unidirectional fabric groups its wires by entry corner with one
  stable sort, so each corner's entries are in track order;
* switch-box edges are one candidate array per wire (the collinear
  next segment, then the Fs picks at each end).

The edge sections are concatenated and `csr_from_edges` sorts them
stably by source, so each source keeps its out-edges in emit order.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from ..arch.params import ArchParams

#: Node-kind codes (SOURCE, SINK, OPIN, IPIN, HWIRE, VWIRE).
KIND_SOURCE, KIND_SINK, KIND_OPIN, KIND_IPIN, KIND_HWIRE, KIND_VWIRE = range(6)

#: Kind code -> kind name (for describe()/stats()).
KIND_NAMES = ("source", "sink", "opin", "ipin", "hwire", "vwire")


def _track_segments(params: ArchParams, extent: int) -> Tuple[np.ndarray, ...]:
    """One channel's segments, in (track, start) order.

    Returns ``(track, start, span, local)``: per segment its track,
    start position and span, and ``local[t, p]``, the index of the
    segment that covers position ``p`` of track ``t``.  Track ``t``
    starts its first full segment at its stagger offset (paired
    tracks share one in a unidirectional fabric).
    """
    seg_len = params.segment_length
    t = np.arange(params.channel_width)[:, None]
    p = np.arange(extent)[None, :]
    pitch = t // 2 if params.directionality == "unidir" else t
    offset = pitch % seg_len
    is_start = (p == 0) | ((p >= offset) & ((p - offset) % seg_len == 0))
    local = np.cumsum(is_start).reshape(is_start.shape) - 1
    track, start = np.nonzero(is_start)
    span = np.bincount(local.ravel())
    return track, start, span, local


class _Fabric:
    """Wire tables and the index arithmetic over them (build only)."""

    def __init__(self, params: ArchParams, nx: int, ny: int) -> None:
        if nx < 1 or ny < 1:
            raise ValueError(f"grid must be at least 1x1, got {nx}x{ny}")
        self.params = params
        self.nx = nx
        self.ny = ny
        self.unidir = params.directionality == "unidir"
        # Horizontal channels 0..ny run along x; vertical 0..nx along y.
        cols = {name: [] for name in ("vertical", "chan", "start", "span", "track")}
        tables = []
        base = 0
        for vertical, channels, extent in ((False, ny + 1, nx), (True, nx + 1, ny)):
            track, start, span, local = _track_segments(params, extent)
            per_channel = len(start)
            tables.append(base + np.arange(channels)[:, None, None] * per_channel
                          + local[None])
            cols["vertical"].append(np.full(channels * per_channel, vertical))
            cols["chan"].append(np.repeat(np.arange(channels), per_channel))
            for name, column in (("start", start), ("span", span), ("track", track)):
                cols[name].append(np.tile(column, channels))
            base += channels * per_channel
        self.num_wires = base
        self.h_size = tables[0].size
        #: Flat (vertical, channel, track, position) -> wire id.
        self.wire_at = np.concatenate([table.ravel() for table in tables])
        for name, parts in cols.items():
            setattr(self, name, np.concatenate(parts))
        self.direction = np.zeros(base, dtype=np.int64)
        if self.unidir:
            self.direction = np.where(self.track % 2 == 0, 1, -1)
            # Wires grouped by the corner they enter at, each group in
            # track order.  With L-tile staggering only ~W/L tracks
            # enter at any one corner.
            entry = np.where(self.direction > 0, self.start, self.start + self.span)
            codes = self.corner_code(self.vertical, self.chan, entry)
            self.by_corner = np.argsort(codes, kind="stable")
            self.corner_count = np.bincount(codes, minlength=2 * (nx + 1) * (ny + 1))
            self.corner_first = np.cumsum(self.corner_count) - self.corner_count

    def corner_code(self, vertical, chan, corner):
        """Dense index of (vertical, channel, corner)."""
        nx, ny = self.nx, self.ny
        return np.where(vertical, (nx + 1) * (ny + 1) + chan * (ny + 1) + corner,
                        chan * (nx + 1) + corner)

    def lookup(self, vertical, chan, track, pos):
        """Wire id at (vertical, channel, track, position), elementwise."""
        w = self.params.channel_width
        return self.wire_at[np.where(
            vertical, self.h_size + (chan * w + track) * self.ny + pos,
            (chan * w + track) * self.nx + pos)]

    def corner_entry(self, code, index):
        """The ``index``-th entry (mod the count) of each corner group,
        or -1 where the group is empty."""
        count = self.corner_count[code]
        found = count > 0
        slot = self.corner_first[code] + index % np.maximum(count, 1)
        return np.where(found, self.by_corner[np.where(found, slot, 0)], -1)

    def pin_taps(self, pins, fc: int, x_weight: int):
        """The Fc channel taps of one pin class, as (tile, pin, j) grids.

        ``pins`` is the (tile, pin) node-id table.  Returns the pin id,
        the tapped wire's (vertical, channel, position, track), and the
        pin and j indices.  Pin ``pin`` of tile (x, y) taps channel
        side ``(pin + 2 * (j % 2)) % 4`` (below, above, left, right),
        its tracks skewed by ``x_weight * x + y``.
        """
        w = self.params.channel_width
        tiles, count = pins.shape
        tile = np.arange(tiles)[:, None, None]
        pin = np.arange(count)[None, :, None]
        j = np.arange(fc)[None, None, :]
        x, y = tile // self.ny, tile % self.ny
        stride = max(1, w // fc)
        offset = (pin * w) // count + (x_weight * x + y) % stride
        side = (pin + 2 * (j % 2)) % 4
        vertical = side >= 2
        chan = np.where(vertical, x + (side == 3), y + (side == 1))
        pos = np.where(vertical, y, x)
        track = (offset + j * stride) % w
        grids = (pins[:, :, None], vertical, chan, pos, track, pin, j)
        return tuple(np.broadcast_to(g, (tiles, count, fc)) for g in grids)

    def switch_edges(self) -> Tuple[np.ndarray, np.ndarray]:
        """Wire-to-wire edges in emit order."""
        p = self.params
        w, fs = p.channel_width, p.fs
        vertical, chan, start, span, track = (
            self.vertical, self.chan, self.start, self.span, self.track)
        extent = np.where(vertical, self.ny, self.nx)
        # The collinear neighbour past the wire's exit end.
        after = np.where(self.direction < 0, start - 1, start + span)
        has_next = (after >= 0) & (after < extent)
        nxt = np.where(has_next, self.lookup(
            vertical, chan, track, np.where(has_next, after, 0)), -1)
        picks = np.arange(fs)[None, :]
        if self.unidir:
            exit_corner = np.where(self.direction > 0, start + span, start)
            code = self.corner_code(~vertical, exit_corner, chan)[:, None]
            stride = np.maximum(1, self.corner_count[code] // fs)
            cands = [self.corner_entry(code, track[:, None] + 1 + picks * stride)]
        else:
            # Fs picks on the crossing channel at each end of the wire.
            cross_pos = np.minimum(chan, np.where(vertical, self.nx, self.ny) - 1)
            target = (track[:, None] + picks * max(1, w // fs)) % w
            cands = [self.lookup(~vertical[:, None], cross[:, None], target,
                                 cross_pos[:, None])
                     for cross in (start, start + span)]
        cand = np.concatenate([nxt[:, None]] + cands, axis=1)
        src = np.repeat(np.arange(self.num_wires), cand.shape[1])
        dst = cand.ravel()
        keep = (dst >= 0) & (dst != src)
        src, dst = src[keep], dst[keep]
        if self.unidir:
            return src, dst
        # Each unordered pair is joined once, both ways, where it first
        # comes up.
        pair = np.minimum(src, dst) * self.num_wires + np.maximum(src, dst)
        first = np.sort(np.unique(pair, return_index=True)[1])
        src, dst = src[first], dst[first]
        return (np.stack([src, dst], axis=1).ravel(),
                np.stack([dst, src], axis=1).ravel())


def build_columns(params: ArchParams, nx: int, ny: int) -> Dict[str, np.ndarray]:
    """The `FabricIR` node columns, CSR adjacency and tile tables."""
    fab = _Fabric(params, nx, ny)
    n_out, n_in = params.outputs_per_lb, params.inputs_per_lb
    n_wire, tiles = fab.num_wires, nx * ny
    block = 2 + n_out + n_in
    num_nodes = n_wire + tiles * block

    # Per tile (x-major): SOURCE, SINK, the OPINs, then the IPINs.
    tile_base = n_wire + np.arange(tiles) * block
    pin_kind = np.repeat([KIND_SOURCE, KIND_SINK, KIND_OPIN, KIND_IPIN],
                         [1, 1, n_out, n_in])
    pin_track = np.concatenate([[0, 0], np.arange(n_out), np.arange(n_in)])
    tile = np.repeat(np.arange(tiles), block)

    def column(wires, pins, dtype):
        return np.concatenate([wires, pins]).astype(dtype)

    columns = {
        "kind": column(np.where(fab.vertical, KIND_VWIRE, KIND_HWIRE),
                       np.tile(pin_kind, tiles), np.int8),
        "xs": column(np.where(fab.vertical, fab.chan, fab.start), tile // ny, np.int32),
        "ys": column(np.where(fab.vertical, fab.start, fab.chan), tile % ny, np.int32),
        "spans": column(fab.span, np.ones_like(tile), np.int32),
        "tracks": column(fab.track, np.tile(pin_track, tiles), np.int32),
        "directions": column(fab.direction, np.zeros_like(tile), np.int8),
        "source_table": tile_base.astype(np.int32),
        "sink_table": (tile_base + 1).astype(np.int32),
    }

    opins = tile_base[:, None] + 2 + np.arange(n_out)
    ipins = tile_base[:, None] + 2 + n_out + np.arange(n_in)

    out_src, vertical, chan, pos, track, pin, j = fab.pin_taps(
        opins, params.fc_out_abs, x_weight=1)
    if fab.unidir:
        # An OPIN drives a wire entering at the near (even j) or far
        # corner of its channel segment; the other corner if none does.
        near = fab.corner_code(vertical, chan, pos + j % 2)
        far = fab.corner_code(vertical, chan, pos + 1 - j % 2)
        code = np.where(fab.corner_count[near] > 0, near, far)
        stride = np.maximum(1, fab.corner_count[code] // max(1, params.fc_out_abs // 2))
        out_dst = fab.corner_entry(code, pin + j * stride)
    else:
        out_dst = fab.lookup(vertical, chan, track, pos)
    driven = out_dst >= 0

    in_dst, vertical, chan, pos, track, _, _ = fab.pin_taps(
        ipins, params.fc_in_abs, x_weight=2)
    in_src = fab.lookup(vertical, chan, track, pos)

    sw_src, sw_dst = fab.switch_edges()
    # Section order keeps each source's emit order: a wire's IPIN taps
    # precede its switch-box edges.
    edge_src = np.concatenate([np.repeat(tile_base, n_out), out_src[driven],
                               ipins.ravel(), in_src.ravel(), sw_src])
    edge_dst = np.concatenate([opins.ravel(), out_dst[driven],
                               np.repeat(tile_base + 1, n_in), in_dst.ravel(), sw_dst])
    columns["edge_offsets"], columns["edge_targets"] = csr_from_edges(
        num_nodes, edge_src, edge_dst)
    return columns


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
