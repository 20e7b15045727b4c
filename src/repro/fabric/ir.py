"""FabricIR: flat array-backed routing-resource graph.

One compact, index-addressed intermediate representation shared by the
router, timing analyzer, bitstream extractor, and visualisers (the
architecture real P&R stacks use — packed routing graphs / flat device
resources).  Per node there is one entry in each structure-of-arrays
column (kind/x/y/span/track/direction); adjacency is CSR
(``edge_offsets`` / ``edge_targets``) with a parallel per-edge
``edge_switch`` table classifying the programmable switch each edge
crosses.

`FabricIR.build(params, nx, ny)` builds it (see `repro.fabric.build`).
It is the only graph its consumers accept: `as_fabric` raises
`TypeError` for anything else.

The IR is immutable once built and safe to share: consumers keep their
mutable state (occupancy, history costs) in their own arrays indexed
by node id.  It caches no derived view on itself.  `base_costs`,
`positions`, `csr_targets()` and the other derived columns are built
on every call, and each consumer (a route kernel, the router) builds
the forms it uses once, when it is constructed.  The fabric cache
keeps IRs alive across flows, and a result that holds its graph keeps
it alive for good, so a cached list view (about 20 MiB over the
fabrics of one `perfbench` headline pass) would outlive the router
that wanted it.
"""

from __future__ import annotations

import enum
import time
from functools import cached_property
from typing import Dict, Iterator, List, Mapping, Optional, Tuple

import numpy as np

from ..arch.params import ArchParams
from ..obs import get_tracer
from .build import (
    KIND_HWIRE,
    KIND_IPIN,
    KIND_NAMES,
    KIND_OPIN,
    KIND_SINK,
    KIND_SOURCE,
    KIND_VWIRE,
    build_raw,
    csr_from_edges,
)


class SwitchKind(enum.IntEnum):
    """Programmable-switch class of one RR edge.

    ``NONE`` marks hard-wired hops (SOURCE->OPIN fanout through the LB
    output mux, IPIN->SINK collection through the internal crossbar);
    the other three are the relay/pass-transistor switch sites of
    paper Fig. 7: output taps (SB side), wire-wire switch-box joints,
    and input taps (CB side).
    """

    NONE = 0
    OPIN_WIRE = 1
    WIRE_WIRE = 2
    WIRE_IPIN = 3


def switch_kind_code(kind_u: int, kind_v: int) -> int:
    """Classify the switch on edge (u, v) from the endpoint kind codes.

    The single source of truth shared by the bitstream extractor, its
    verify pass, and the timing analyzer (each used to re-derive this
    independently).
    """
    u_wire = kind_u == KIND_HWIRE or kind_u == KIND_VWIRE
    v_wire = kind_v == KIND_HWIRE or kind_v == KIND_VWIRE
    if u_wire:
        if v_wire:
            return SwitchKind.WIRE_WIRE
        if kind_v == KIND_IPIN:
            return SwitchKind.WIRE_IPIN
    elif kind_u == KIND_OPIN and v_wire:
        return SwitchKind.OPIN_WIRE
    return SwitchKind.NONE


def _classify_edges(kind: np.ndarray, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Vectorised `switch_kind_code` over an edge list."""
    ku = kind[src]
    kv = kind[dst]
    u_wire = (ku == KIND_HWIRE) | (ku == KIND_VWIRE)
    v_wire = (kv == KIND_HWIRE) | (kv == KIND_VWIRE)
    switch = np.zeros(len(src), dtype=np.int8)
    switch[(ku == KIND_OPIN) & v_wire] = SwitchKind.OPIN_WIRE
    switch[u_wire & v_wire] = SwitchKind.WIRE_WIRE
    switch[u_wire & (kv == KIND_IPIN)] = SwitchKind.WIRE_IPIN
    return switch


class TileLookup(Mapping[Tuple[int, int], int]):
    """Dict-compatible (x, y) -> node id view over a flat lookup array."""

    __slots__ = ("_table", "_nx", "_ny")

    def __init__(self, table: np.ndarray, nx: int, ny: int) -> None:
        self._table = table
        self._nx = nx
        self._ny = ny

    def __getitem__(self, tile: Tuple[int, int]) -> int:
        x, y = tile
        if not (0 <= x < self._nx and 0 <= y < self._ny):
            raise KeyError(tile)
        node = int(self._table[x * self._ny + y])
        if node < 0:
            raise KeyError(tile)
        return node

    def __iter__(self) -> Iterator[Tuple[int, int]]:
        for x in range(self._nx):
            for y in range(self._ny):
                if self._table[x * self._ny + y] >= 0:
                    yield (x, y)

    def __len__(self) -> int:
        return int((self._table >= 0).sum())


class FabricIR:
    """Structure-of-arrays RR graph over an nx x ny tile grid.

    Attributes:
        params / nx / ny / unidir: Architecture and grid.
        kind: int8 node-kind codes (see `repro.fabric.build`).
        xs / ys / spans / tracks: int32 per-node attribute columns.
        directions: int8 per-node wire direction (0 bidir, +1/-1).
        edge_offsets: int64 CSR row pointers (num_nodes + 1).
        edge_targets: int32 CSR targets; the out-edges of ``u`` are
            ``edge_targets[edge_offsets[u]:edge_offsets[u + 1]]`` in
            build order (router heap tie-breaks depend on it).
        edge_switch: int8 per-edge `SwitchKind`, parallel to
            ``edge_targets``.
        source_table / sink_table: int32 tile lookup arrays (flattened
            x * ny + y -> SOURCE / SINK node id).
        build_stats: Build provenance (wall time, constructor used).
    """

    def __init__(
        self,
        params: ArchParams,
        nx: int,
        ny: int,
        kind: np.ndarray,
        xs: np.ndarray,
        ys: np.ndarray,
        spans: np.ndarray,
        tracks: np.ndarray,
        directions: np.ndarray,
        edge_offsets: np.ndarray,
        edge_targets: np.ndarray,
        source_table: np.ndarray,
        sink_table: np.ndarray,
        build_stats: Optional[Dict[str, object]] = None,
    ) -> None:
        self.params = params
        self.nx = nx
        self.ny = ny
        self.unidir = params.directionality == "unidir"
        self.kind = kind
        self.xs = xs
        self.ys = ys
        self.spans = spans
        self.tracks = tracks
        self.directions = directions
        self.edge_offsets = edge_offsets
        self.edge_targets = edge_targets
        self.edge_switch = _classify_edges(
            kind, np.repeat(np.arange(len(kind)), np.diff(edge_offsets)), edge_targets
        ) if len(edge_targets) else np.zeros(0, dtype=np.int8)
        self.source_table = source_table
        self.sink_table = sink_table
        self.build_stats: Dict[str, object] = dict(build_stats or {})

    # -- construction ------------------------------------------------------

    @classmethod
    def build(cls, params: ArchParams, nx: int, ny: int) -> "FabricIR":
        """Array-native build of the fabric for ``params`` on nx x ny."""
        with get_tracer().span(
            "fabric.build", nx=nx, ny=ny, channel_width=params.channel_width
        ) as span:
            t0 = time.perf_counter()
            raw = build_raw(params, nx, ny)
            n = len(raw.kind)
            edge_src = np.asarray(raw.edge_src, dtype=np.int64)
            edge_dst = np.asarray(raw.edge_dst, dtype=np.int64)
            offsets, targets = csr_from_edges(n, edge_src, edge_dst)
            ir = cls(
                params, nx, ny,
                kind=np.asarray(raw.kind, dtype=np.int8),
                xs=np.asarray(raw.xs, dtype=np.int32),
                ys=np.asarray(raw.ys, dtype=np.int32),
                spans=np.asarray(raw.spans, dtype=np.int32),
                tracks=np.asarray(raw.tracks, dtype=np.int32),
                directions=np.asarray(raw.directions, dtype=np.int8),
                edge_offsets=offsets,
                edge_targets=targets,
                source_table=np.asarray(raw.source_lut, dtype=np.int32),
                sink_table=np.asarray(raw.sink_lut, dtype=np.int32),
            )
            ir.build_stats = {
                "constructor": "build",
                "build_wall_s": time.perf_counter() - t0,
            }
            span.set_many(
                nodes=ir.num_nodes, edges=ir.num_edges,
                memory_bytes=ir.memory_bytes(),
            )
            return ir

    # -- core queries ------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return len(self.kind)

    @property
    def num_edges(self) -> int:
        return len(self.edge_targets)

    def neighbors(self, u: int) -> List[int]:
        """Out-neighbors of ``u`` in CSR (build) order."""
        offsets = self.edge_offsets
        return self.edge_targets[offsets[u]:offsets[u + 1]].tolist()

    @cached_property
    def source_of(self) -> TileLookup:
        return TileLookup(self.source_table, self.nx, self.ny)

    @cached_property
    def sink_of(self) -> TileLookup:
        return TileLookup(self.sink_table, self.nx, self.ny)

    def switch_kind_between(self, u: int, v: int) -> SwitchKind:
        """`SwitchKind` of edge (u, v) from the per-edge switch table.

        Falls back to kind-pair classification when (u, v) is not a
        graph edge (callers walking externally-supplied trees).
        """
        lo = int(self.edge_offsets[u])
        hi = int(self.edge_offsets[u + 1])
        targets = self.edge_targets
        for ei in range(lo, hi):
            if targets[ei] == v:
                return SwitchKind(int(self.edge_switch[ei]))
        return SwitchKind(switch_kind_code(int(self.kind[u]), int(self.kind[v])))

    # -- derived views (built per call; see the module docstring) ---------

    @property
    def base_costs(self) -> np.ndarray:
        """PathFinder base costs (float64): wire cost scales with span;
        pins are cheap; sources/sinks free."""
        wire = (self.kind == KIND_HWIRE) | (self.kind == KIND_VWIRE)
        pin = (self.kind == KIND_OPIN) | (self.kind == KIND_IPIN)
        return np.where(wire, self.spans.astype(np.float64),
                        np.where(pin, 0.95, 0.0))

    @property
    def capacities(self) -> np.ndarray:
        """Routing capacities (int64): 1 everywhere except the logical
        SOURCE/SINK collectors."""
        collector = (self.kind == KIND_SOURCE) | (self.kind == KIND_SINK)
        return np.where(collector, 10**9, 1).astype(np.int64)

    def csr_offsets(self) -> List[int]:
        """`edge_offsets` as a plain list (hot-loop form)."""
        return self.edge_offsets.tolist()

    def csr_targets(self) -> List[int]:
        """`edge_targets` as a plain list (hot-loop form)."""
        return self.edge_targets.tolist()

    @property
    def sink_flags(self) -> List[bool]:
        return (self.kind == KIND_SINK).tolist()

    @property
    def source_flags(self) -> List[bool]:
        return (self.kind == KIND_SOURCE).tolist()

    @property
    def wire_spans(self) -> List[int]:
        """Per-node wirelength contribution: span for wires, else 0."""
        wire = (self.kind == KIND_HWIRE) | (self.kind == KIND_VWIRE)
        return np.where(wire, self.spans, 0).tolist()

    @property
    def pos_x(self) -> np.ndarray:
        """A* lookahead x coordinates (float64): horizontal-wire
        midpoints, pin/collector tile columns."""
        half = (self.spans - 1) / 2.0
        px = self.xs.astype(np.float64)
        hmask = self.kind == KIND_HWIRE
        px[hmask] += half[hmask]
        return px

    @property
    def pos_y(self) -> np.ndarray:
        """A* lookahead y coordinates (float64): vertical-wire
        midpoints, pin/collector tile rows."""
        half = (self.spans - 1) / 2.0
        py = self.ys.astype(np.float64)
        vmask = self.kind == KIND_VWIRE
        py[vmask] += half[vmask]
        return py

    @property
    def positions(self) -> List[Tuple[float, float]]:
        """A* lookahead coordinates: wire midpoints, pin/collector
        tiles."""
        return list(zip(self.pos_x.tolist(), self.pos_y.tolist()))

    def nodes_of_kind(self, *codes: int) -> np.ndarray:
        """Node ids whose kind is any of ``codes`` (ascending)."""
        return np.flatnonzero(np.isin(self.kind, codes))

    # -- stats -------------------------------------------------------------

    def describe(self) -> Dict[str, int]:
        """Node-kind counts plus the edge total."""
        counts: Dict[str, int] = {}
        bincount = np.bincount(self.kind, minlength=len(KIND_NAMES))
        for code, name in enumerate(KIND_NAMES):
            if bincount[code]:
                counts[name] = int(bincount[code])
        counts["edges"] = self.num_edges
        return counts

    def memory_bytes(self) -> int:
        """Footprint of the core arrays."""
        arrays = (
            self.kind, self.xs, self.ys, self.spans, self.tracks,
            self.directions, self.edge_offsets, self.edge_targets,
            self.edge_switch, self.source_table, self.sink_table,
        )
        return int(sum(a.nbytes for a in arrays))

    def stats(self) -> Dict[str, object]:
        """Full IR statistics for ``repro rrgraph --stats``."""
        switch_counts = np.bincount(self.edge_switch, minlength=len(SwitchKind))
        return {
            "grid": [self.nx, self.ny],
            "channel_width": self.params.channel_width,
            "directionality": self.params.directionality,
            "num_nodes": self.num_nodes,
            "num_edges": self.num_edges,
            "nodes_by_kind": {
                name: count for name, count in self.describe().items()
                if name != "edges"
            },
            "edges_by_switch": {
                sk.name.lower(): int(switch_counts[sk]) for sk in SwitchKind
            },
            "memory_bytes": self.memory_bytes(),
            "build": dict(self.build_stats),
        }


def as_fabric(graph) -> FabricIR:
    """``graph`` itself, checked to be a `FabricIR`.

    The router, timing analyzer, bitstream extractor and visualisers
    accept no other graph; anything else raises `TypeError`.
    """
    if not isinstance(graph, FabricIR):
        raise TypeError(
            f"expected a FabricIR routing graph, got {type(graph).__name__}")
    return graph
