"""From routed design to relay configuration ("bitstream").

The missing link the paper's two halves imply: Sec. 3 routes
applications over relay switches, Sec. 2 shows how relay arrays are
programmed.  This module connects them:

1. `extract_bitstream` walks a routed design and lists every
   programmable switch (RR-graph edge) that must conduct — the
   relay-FPGA equivalent of an SRAM bitstream;
2. `plan_tile_arrays` arranges each tile's switches into half-select
   crossbar arrays (gate rows x source columns);
3. `program_fabric` actually drives `RelayCrossbar` instances through
   the half-select protocol for every tile and verifies that exactly
   the required relays closed.

The result is an end-to-end demonstration that a placed-and-routed
application can be configured on the relay fabric with three voltage
levels and no SRAM.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..crossbar.array import RelayCrossbar
from ..crossbar.halfselect import HalfSelectProgrammer, ProgrammingVoltages, solve_voltages
from ..fabric import KIND_HWIRE, FabricIR, SwitchKind, as_fabric
from ..fabric.ir import _classify_edges
from ..nemrelay.device import NEMRelay
from ..nemrelay.electrostatics import ActuationModel
from ..nemrelay.geometry import SCALED_22NM_DEVICE
from ..nemrelay.materials import AIR, POLYSILICON
from ..obs import get_registry, get_tracer
from ..vpr.route import RoutingResult

Edge = Tuple[int, int]
Tile = Tuple[int, int]


@dataclasses.dataclass
class Bitstream:
    """The set of relay switches a routed design turns on.

    Attributes:
        switches_by_tile: Tile -> sorted list of conducting RR edges
            (u, v); each edge is one relay crosspoint.
        net_of_edge: Edge -> net name (for diagnostics).
    """

    switches_by_tile: Dict[Tile, List[Edge]]
    net_of_edge: Dict[Edge, str]

    @property
    def total_switches(self) -> int:
        return sum(len(edges) for edges in self.switches_by_tile.values())

    @property
    def tiles(self) -> List[Tile]:
        return sorted(self.switches_by_tile)

    def utilization(self, switches_per_tile: int) -> float:
        """Fraction of fabric relays conducting, given the per-tile
        inventory count."""
        if switches_per_tile <= 0:
            raise ValueError("switches_per_tile must be positive")
        if not self.switches_by_tile:
            return 0.0
        return self.total_switches / (len(self.switches_by_tile) * switches_per_tile)


def _owning_tiles(
    ir: FabricIR, u: np.ndarray, v: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Attribute programmable edges ``u[i] -> v[i]`` to tiles (for
    array grouping); returns the tiles' x and y columns.

    Pin edges belong to the pin's tile; wire-wire switches to the tile
    at the downstream wire's origin (clamped to the grid).
    """
    kind, xs, ys = ir.kind, ir.xs, ir.ys
    v_pin = kind[v] < KIND_HWIRE  # pins and collectors: the pin's tile
    u_pin = kind[u] < KIND_HWIRE
    x = np.where(v_pin, xs[v], np.where(u_pin, xs[u], np.minimum(xs[v], ir.nx - 1)))
    y = np.where(v_pin, ys[v], np.where(u_pin, ys[u], np.minimum(ys[v], ir.ny - 1)))
    return x.astype(np.int64), y.astype(np.int64)


def extract_bitstream(routing: RoutingResult, graph: FabricIR) -> Bitstream:
    """List every conducting switch of a routed design.

    An edge is a relay iff the IR's switch-kind classification calls
    it one (OPIN->wire, wire->wire, wire->IPIN); SOURCE->OPIN and
    IPIN->SINK hops classify `SwitchKind.NONE` (hard-wired).

    All tree edges are classified and attributed to tiles in one
    vector pass.  ``net_of_edge`` keeps the tree-walk order (trees in
    ``routing.trees`` order, each tree's ``parent`` in insertion
    order), which wear accounting follows; ``switches_by_tile`` lists
    tiles in the order that walk first reaches them, each with its
    edges sorted.
    """
    ir = as_fabric(graph)
    trees = routing.trees
    names = trees.names
    u = trees.column("parents").astype(np.int64)
    v = trees.column("nodes").astype(np.int64)
    keep = np.flatnonzero(u >= 0)
    keep = keep[_classify_edges(ir.kind, u[keep], v[keep]) != SwitchKind.NONE]
    u, v = u[keep], v[keep]
    net = trees.net_index()[keep]
    # One tuple per conducting edge, shared by both maps: a bitstream
    # costs no more memory than the per-edge walk's did.
    edges = list(zip(u.tolist(), v.tolist()))
    net_of_edge: Dict[Edge, str] = dict(
        zip(edges, [names[i] for i in net.tolist()]))

    tx, ty = _owning_tiles(ir, u, v)
    tile = tx * ir.ny + ty
    # Group by tile with each group's edges sorted and unique (the
    # stable sort keeps an edge's first occurrence), then order the
    # groups by first appearance in the walk.
    order = np.lexsort((v, u, tile))
    t_s, u_s, v_s = tile[order], u[order], v[order]
    fresh = np.ones(len(order), dtype=bool)
    fresh[1:] = ((t_s[1:] != t_s[:-1]) | (u_s[1:] != u_s[:-1])
                 | (v_s[1:] != v_s[:-1]))
    order = order[fresh]
    tile_ids, starts = np.unique(tile[order], return_index=True)
    _, first_seen = np.unique(tile, return_index=True)
    ends = np.append(starts[1:], len(order)).tolist()
    starts = starts.tolist()
    grouped = [edges[i] for i in order.tolist()]
    switches_by_tile: Dict[Tile, List[Edge]] = {}
    for k in np.argsort(first_seen).tolist():
        t = int(tile_ids[k])
        switches_by_tile[(t // ir.ny, t % ir.ny)] = grouped[starts[k]:ends[k]]
    return Bitstream(switches_by_tile=switches_by_tile, net_of_edge=net_of_edge)


@dataclasses.dataclass
class TileArrayPlan:
    """Half-select array layout for one tile's conducting switches.

    Attributes:
        tile: Tile coordinate.
        rows / cols: Array dimensions.
        targets: Crosspoints to pull in.
        edge_of_target: Crosspoint -> RR edge it implements.
    """

    tile: Tile
    rows: int
    cols: int
    targets: Set[Tuple[int, int]]
    edge_of_target: Dict[Tuple[int, int], Edge]


def plan_tile_arrays(bitstream: Bitstream, max_rows: int = 32) -> List[TileArrayPlan]:
    """Arrange each tile's conducting switches into near-square arrays.

    Real layouts fix the crosspoint assignment at design time; for the
    demonstration we enumerate each tile's conducting switches row-major
    into an array big enough to hold them (bounded row count keeps the
    programming-line swing realistic).
    """
    if max_rows < 1:
        raise ValueError("max_rows must be positive")
    plans: List[TileArrayPlan] = []
    for tile, edges in bitstream.switches_by_tile.items():
        count = len(edges)
        rows = min(max_rows, max(1, math.isqrt(count)))
        cols = math.ceil(count / rows)
        targets: Set[Tuple[int, int]] = set()
        edge_of_target: Dict[Tuple[int, int], Edge] = {}
        for index, edge in enumerate(edges):
            coord = (index // cols, index % cols)
            targets.add(coord)
            edge_of_target[coord] = edge
        plans.append(
            TileArrayPlan(
                tile=tile, rows=rows, cols=cols, targets=targets,
                edge_of_target=edge_of_target,
            )
        )
    return plans


@dataclasses.dataclass
class ProgrammingReport:
    """Outcome of configuring the whole fabric.

    Attributes:
        arrays_programmed: Tile arrays configured.
        relays_closed: Total relays pulled in.
        failures: Tiles whose verification failed (must be empty).
        row_steps: Half-select row operations issued fabric-wide.
    """

    arrays_programmed: int
    relays_closed: int
    failures: List[Tile]
    row_steps: int

    @property
    def success(self) -> bool:
        return not self.failures


def program_fabric(
    bitstream: Bitstream,
    model: Optional[ActuationModel] = None,
    voltages: Optional[ProgrammingVoltages] = None,
    max_rows: int = 32,
) -> ProgrammingReport:
    """Configure every tile's relay array through half-select.

    Each tile's plan is programmed on a real `RelayCrossbar` of
    22nm-scaled relays and read back; a mismatch counts the tile as a
    failure (none are expected — this is the executable proof that the
    Sec. 2 programming scheme can carry a Sec. 3 routed design).
    """
    if model is None:
        model = ActuationModel(POLYSILICON, SCALED_22NM_DEVICE, AIR)
    if voltages is None:
        voltages = solve_voltages([model.pull_in], [model.pull_out])
        assert voltages is not None
    plans = plan_tile_arrays(bitstream, max_rows=max_rows)
    with get_tracer().span(
        "crossbar.program_fabric",
        tiles=len(plans),
        switches=bitstream.total_switches,
        v_hold=voltages.v_hold,
        v_select=voltages.v_select,
    ) as tspan:
        failures: List[Tile] = []
        relays_closed = 0
        row_steps = 0
        margin_worst: Optional[float] = None
        for plan in plans:
            crossbar = RelayCrossbar(plan.rows, plan.cols, lambda r, c: NEMRelay(model))
            programmer = HalfSelectProgrammer(crossbar, voltages)
            configured = programmer.program(plan.targets)
            row_steps += len({r for (r, _c) in plan.targets}) + 2  # + erase, hold
            margins = programmer.population_margins()
            if margin_worst is None or margins.worst < margin_worst:
                margin_worst = margins.worst
            if configured != plan.targets:
                failures.append(plan.tile)
            else:
                relays_closed += len(configured)
        tspan.set_many(
            arrays_programmed=len(plans),
            relays_closed=relays_closed,
            row_steps=row_steps,
            failures=len(failures),
            success=not failures,
            margin_worst_v=margin_worst,
        )
        registry = get_registry()
        registry.counter("crossbar.fabric_programs").inc()
        registry.counter("crossbar.fabric_failures").inc(len(failures))
        registry.gauge("crossbar.fabric_row_steps").set(row_steps)
        return ProgrammingReport(
            arrays_programmed=len(plans),
            relays_closed=relays_closed,
            failures=failures,
            row_steps=row_steps,
        )


def verify_bitstream_connectivity(
    bitstream: Bitstream, routing: RoutingResult, graph: FabricIR
) -> bool:
    """Cross-check: the conducting switches reconstruct every net.

    Walking only bitstream edges (plus the hops the IR's switch table
    classifies `SwitchKind.NONE`, i.e. hard-wired SOURCE/OPIN and
    IPIN/SINK) from each net's source must reach all its sinks.
    """
    ir = as_fabric(graph)
    on_edges: Set[Edge] = set()
    for edges in bitstream.switches_by_tile.values():
        on_edges.update(edges)
    for name, tree in routing.trees.items():
        for sink in tree.sink_nodes:
            node = sink
            while tree.parent[node] >= 0:
                parent = tree.parent[node]
                hardwired = (
                    ir.switch_kind_between(parent, node) is SwitchKind.NONE
                )
                if not hardwired and (parent, node) not in on_edges:
                    return False
                node = parent
    return True
