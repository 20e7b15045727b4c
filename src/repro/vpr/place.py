"""Simulated-annealing placement (VPR-style).

Places packed logic clusters on the interior tile grid and primary
I/Os on the perimeter ring, minimising the classic bounding-box
wirelength cost

    cost = sum over nets of q(fanout) * (bb_width + bb_height)

with the VPR adaptive annealing schedule (automatic initial
temperature, per-temperature move budget ~ 10 * Nblocks^(4/3), range
limiting, exponential cooling).
"""

from __future__ import annotations

import dataclasses
import math
import random
from typing import Dict, List, Optional, Set, Tuple

from ..arch.params import ArchParams
from ..netlist.core import BlockType
from ..obs import get_logger, get_tracer, kv
from .pack import ClusteredNetlist

_log = get_logger("vpr.place")

#: VPR's q(num_terminals) compensation factors for net bounding boxes
#: (piecewise from [Betz 99]; >50 terminals extrapolates linearly).
_Q_TABLE = [
    1.0, 1.0, 1.0, 1.0, 1.0828, 1.1536, 1.2206, 1.2823, 1.3385, 1.3991,
    1.4493, 1.4974, 1.5455, 1.5937, 1.6418, 1.6899, 1.7304, 1.7709, 1.8114, 1.8519,
    1.8924,
]


def crossing_factor(terminals: int) -> float:
    """q(terminals) bounding-box wirelength compensation."""
    if terminals < 1:
        raise ValueError(f"terminals must be >= 1, got {terminals}")
    if terminals <= 20:
        return _Q_TABLE[terminals]
    return 1.8924 + 0.02616 * (terminals - 20)


#: Primary I/Os a perimeter tile can host.
IO_CAPACITY = 8


@dataclasses.dataclass
class PlacementBlock:
    """A placeable object: a logic cluster or one primary I/O.

    Attributes:
        name: Cluster index string or the PI/PO block name.
        kind: "logic", "pi", or "po".
    """

    name: str
    kind: str


@dataclasses.dataclass
class AnnealStage:
    """Telemetry for one temperature step of the annealing schedule.

    Attributes:
        temperature: Temperature the step's moves ran at.
        acceptance_rate: Accepted / proposed moves (VPR's alpha).
        cost: Bounding-box cost at the end of the step.
        range_limit: Move range limit during the step (tiles).
    """

    temperature: float
    acceptance_rate: float
    cost: float
    range_limit: float


@dataclasses.dataclass
class Placement:
    """Placement result.

    Attributes:
        grid_width / grid_height: Full grid dimensions in tiles
            (interior logic region plus the IO perimeter ring).
        location_of: Block name -> (x, y) tile.
        blocks_at: (x, y) -> block names (IO tiles hold several).
        clustered: The packed netlist this placement is for.
        cost: Final bounding-box cost.
        trajectory: Per-temperature anneal telemetry (acceptance rate
            and cost trajectory; empty for degenerate placements that
            skip annealing).
    """

    grid_width: int
    grid_height: int
    location_of: Dict[str, Tuple[int, int]]
    blocks_at: Dict[Tuple[int, int], List[str]]
    clustered: ClusteredNetlist
    cost: float
    trajectory: List[AnnealStage] = dataclasses.field(default_factory=list)

    def is_perimeter(self, x: int, y: int) -> bool:
        return x in (0, self.grid_width - 1) or y in (0, self.grid_height - 1)


def _flat_nets(clustered: ClusteredNetlist) -> List[Tuple[str, List[str]]]:
    """Placement nets: (driver placement-block, sink placement-blocks).

    Placement blocks are "c<index>" for clusters, PI names, PO names.
    Sinks collapse to one entry per cluster.
    """
    netlist = clustered.netlist
    nets: List[Tuple[str, List[str]]] = []
    for driver, sinks in clustered.external_nets().items():
        driver_block = netlist.blocks[driver]
        if driver_block.type is BlockType.INPUT:
            driver_pb = driver
        else:
            driver_pb = f"c{clustered.cluster_of[driver]}"
        sink_pbs: List[str] = []
        seen: Set[str] = set()
        for sink in sinks:
            sink_block = netlist.blocks[sink]
            if sink_block.type is BlockType.OUTPUT:
                pb = sink
            else:
                pb = f"c{clustered.cluster_of[sink]}"
            if pb not in seen and pb != driver_pb:
                seen.add(pb)
                sink_pbs.append(pb)
        if sink_pbs:
            nets.append((driver_pb, sink_pbs))
    return nets


class _Annealer:
    """Incremental-cost simulated annealing over flat block arrays.

    Blocks are ints in sorted-name order (the order moves draw from),
    coordinates live in two int lists, and each net is a driver id and
    a tuple of sink ids with its ``weight * q`` factor precomputed.  A
    move writes the candidate coordinates, recomputes the affected
    nets' boxes inline and reverts the coordinates on rejection; net
    costs and the per-tile occupant lists change only on acceptance,
    apart from the reordering a rejected move leaves behind (see
    `_moves`).
    """

    def __init__(
        self,
        blocks: Dict[str, PlacementBlock],
        nets: List[Tuple[str, List[str]]],
        grid_w: int,
        grid_h: int,
        rng: random.Random,
        net_weights: Optional[Dict[str, float]] = None,
    ) -> None:
        self.blocks = blocks
        self.grid_w = grid_w
        self.grid_h = grid_h
        self.rng = rng
        weights = net_weights or {}
        self.names = sorted(blocks)
        self.id_of = id_of = {name: b for b, name in enumerate(self.names)}
        self.is_logic = [blocks[name].kind == "logic" for name in self.names]
        n = len(self.names)
        self.xs = [0] * n
        self.ys = [0] * n
        #: Occupant block ids per tile, indexed ``x * grid_h + y``.
        self.at: List[List[int]] = [[] for _ in range(grid_w * grid_h)]
        #: Block ids in the order `random_initial` placed them.
        self.placed_order: List[int] = []
        #: Per net: driver block id, sink block ids, ``weight * q``.
        self.net_driver: List[int] = []
        self.net_sinks: List[Tuple[int, ...]] = []
        self.net_wq: List[float] = []
        nets_of: List[List[int]] = [[] for _ in range(n)]
        for i, (driver, sinks) in enumerate(nets):
            self.net_driver.append(id_of[driver])
            self.net_sinks.append(tuple(id_of[s] for s in sinks))
            self.net_wq.append(
                weights.get(driver, 1.0) * crossing_factor(len(sinks) + 1))
            nets_of[id_of[driver]].append(i)
            for s in sinks:
                nets_of[id_of[s]].append(i)
        self.nets_of = nets_of
        #: A lone mover's affected nets in `set` iteration order: the
        #: order the move's cost delta is summed in.
        self.affected_of = [tuple(set(ids)) for ids in nets_of]
        self.net_cost: List[float] = [0.0] * len(nets)
        self.trajectory: List[AnnealStage] = []

    # -- geometry helpers ------------------------------------------------

    def interior_tiles(self) -> List[Tuple[int, int]]:
        return [
            (x, y)
            for x in range(1, self.grid_w - 1)
            for y in range(1, self.grid_h - 1)
        ]

    def perimeter_tiles(self) -> List[Tuple[int, int]]:
        tiles = []
        for x in range(self.grid_w):
            tiles.append((x, 0))
            tiles.append((x, self.grid_h - 1))
        for y in range(1, self.grid_h - 1):
            tiles.append((0, y))
            tiles.append((self.grid_w - 1, y))
        return tiles

    # -- cost -------------------------------------------------------------

    def total_cost(self) -> float:
        return sum(self.net_cost)

    def _box_cost(self, i: int) -> float:
        xs, ys = self.xs, self.ys
        pins = (self.net_driver[i],) + self.net_sinks[i]
        px = [xs[b] for b in pins]
        py = [ys[b] for b in pins]
        return self.net_wq[i] * ((max(px) - min(px)) + (max(py) - min(py)))

    def recompute_all(self) -> float:
        self.net_cost[:] = [self._box_cost(i) for i in range(len(self.net_cost))]
        return self.total_cost()

    # -- moves --------------------------------------------------------------

    def random_initial(self) -> None:
        interior = self.interior_tiles()
        perimeter = self.perimeter_tiles()
        self.rng.shuffle(interior)
        self.rng.shuffle(perimeter)
        id_of = self.id_of
        logic = [id_of[name] for name, block in self.blocks.items()
                 if block.kind == "logic"]
        ios = [id_of[name] for name, block in self.blocks.items()
               if block.kind in ("pi", "po")]
        if len(logic) > len(interior):
            raise ValueError(
                f"{len(logic)} clusters exceed {len(interior)} interior tiles"
            )
        if len(ios) > len(perimeter) * IO_CAPACITY:
            raise ValueError(
                f"{len(ios)} I/Os exceed perimeter capacity {len(perimeter) * IO_CAPACITY}"
            )
        tiles = list(zip(logic, interior))
        tiles += [(b, perimeter[slot // IO_CAPACITY]) for slot, b in enumerate(ios)]
        for b, (x, y) in tiles:
            self.xs[b] = x
            self.ys[b] = y
            self.at[x * self.grid_h + y].append(b)
            self.placed_order.append(b)

    def _moves(self, count: int, temperature: float, range_limit: int) -> int:
        """Run ``count`` SA moves (pick a block, try a move or swap,
        accept by Metropolis); returns how many were accepted.

        A rejected move still leaves the mover, and its swap partner,
        last in its tile's occupant list: the original relocate-then-
        revert did so, and later I/O swaps draw from that order.
        """
        rng = self.rng
        randint, randrange, choice, random_ = (
            rng.randint, rng.randrange, rng.choice, rng.random)
        exp = math.exp
        xs, ys, at, is_logic = self.xs, self.ys, self.at, self.is_logic
        nets_of, affected_of = self.nets_of, self.affected_of
        net_driver, net_sinks, net_wq, net_cost = (
            self.net_driver, self.net_sinks, self.net_wq, self.net_cost)
        gh = self.grid_h
        x_hi, y_hi = self.grid_w - 2, gh - 2
        perimeter = self.perimeter_tiles()
        n_perimeter = len(perimeter)
        n_blocks = len(xs)
        trial = list(net_cost)
        t_div = max(temperature, 1e-12)
        accepted = 0
        for _ in range(count):
            b = randrange(n_blocks)
            ox = xs[b]
            oy = ys[b]
            if is_logic[b]:
                nx = ox + randint(-range_limit, range_limit)
                nx = 1 if nx < 1 else (x_hi if nx > x_hi else nx)
                ny = oy + randint(-range_limit, range_limit)
                ny = 1 if ny < 1 else (y_hi if ny > y_hi else ny)
                if nx == ox and ny == oy:
                    continue
                occupants = at[nx * gh + ny]
                partner = occupants[0] if occupants else -1
            else:
                nx, ny = perimeter[randrange(n_perimeter)]
                if nx == ox and ny == oy:
                    continue
                occupants = at[nx * gh + ny]
                partner = choice(occupants) if len(occupants) >= IO_CAPACITY else -1

            xs[b] = nx
            ys[b] = ny
            if partner >= 0:
                affected = set(nets_of[b])
                affected.update(nets_of[partner])
                xs[partner] = ox
                ys[partner] = oy
            else:
                affected = affected_of[b]
            delta = 0.0
            for i in affected:
                d = net_driver[i]
                x0 = x1 = xs[d]
                y0 = y1 = ys[d]
                for p in net_sinks[i]:
                    x = xs[p]
                    if x < x0:
                        x0 = x
                    elif x > x1:
                        x1 = x
                    y = ys[p]
                    if y < y0:
                        y0 = y
                    elif y > y1:
                        y1 = y
                cost = net_wq[i] * ((x1 - x0) + (y1 - y0))
                trial[i] = cost
                delta += cost - net_cost[i]

            old_list = at[ox * gh + oy]
            if delta <= 0 or random_() < exp(-delta / t_div):
                accepted += 1
                for i in affected:
                    net_cost[i] = trial[i]
                old_list.remove(b)
                if partner >= 0:
                    occupants.remove(partner)
                    old_list.append(partner)
                occupants.append(b)
                continue
            xs[b] = ox
            ys[b] = oy
            if old_list[-1] != b:
                old_list.remove(b)
                old_list.append(b)
            if partner >= 0:
                xs[partner] = nx
                ys[partner] = ny
                if occupants[-1] != partner:
                    occupants.remove(partner)
                    occupants.append(partner)
        return accepted

    def anneal(self, seed_moves: int = 60, inner_num: float = 1.0) -> float:
        """Run the annealing schedule.

        ``inner_num`` scales the per-temperature move budget
        (inner_num * Nblocks^(4/3)); 1.0 matches VPR's -fast mode,
        10.0 the default-quality mode.
        """
        cost = self.recompute_all()
        n_blocks = len(self.names)
        if not self.net_cost or n_blocks < 2:
            return cost

        # Initial temperature: 20 x the std-dev of random move deltas.
        deltas: List[float] = []
        full_range = max(self.grid_w, self.grid_h)
        for _ in range(min(seed_moves, 10 * n_blocks)):
            before = self.total_cost()
            self._moves(1, temperature=1e18, range_limit=full_range)
            deltas.append(self.total_cost() - before)
        mean = sum(deltas) / len(deltas)
        var = sum((d - mean) ** 2 for d in deltas) / len(deltas)
        temperature = 20.0 * math.sqrt(var) + 1e-9

        moves_per_t = max(10, int(inner_num * n_blocks ** (4.0 / 3.0)))
        range_limit = float(full_range)
        while temperature > 0.005 * self.total_cost() / max(len(self.net_cost), 1):
            accepted = self._moves(moves_per_t, temperature, max(1, int(range_limit)))
            alpha = accepted / moves_per_t
            self.trajectory.append(AnnealStage(
                temperature=temperature,
                acceptance_rate=alpha,
                cost=self.total_cost(),
                range_limit=range_limit,
            ))
            _log.debug("anneal step %s", kv(
                temperature=temperature, alpha=alpha, cost=self.total_cost()))
            # VPR adaptive cooling: cool slowly near alpha ~ 0.44.
            if alpha > 0.96:
                gamma = 0.5
            elif alpha > 0.8:
                gamma = 0.9
            elif alpha > 0.15:
                gamma = 0.95
            else:
                gamma = 0.8
            temperature *= gamma
            range_limit = max(1.0, min(range_limit * (1.0 - 0.44 + alpha), float(full_range)))
        return self.total_cost()

    def location_of(self) -> Dict[str, Tuple[int, int]]:
        """Block name -> tile, in the order blocks were first placed."""
        names, xs, ys = self.names, self.xs, self.ys
        return {names[b]: (xs[b], ys[b]) for b in self.placed_order}

    def blocks_at(self) -> Dict[Tuple[int, int], List[str]]:
        """Occupied tile -> block names, in occupant-list order."""
        names, gh = self.names, self.grid_h
        return {
            (t // gh, t % gh): [names[b] for b in occupants]
            for t, occupants in enumerate(self.at) if occupants
        }


def placement_grid(
    clustered: ClusteredNetlist, grid_side: Optional[int] = None,
) -> Tuple[int, int]:
    """(width, height) of the grid `place` anneals on, I/O ring included.

    ``grid_side`` is the interior (logic) side; by default the minimal
    square that fits the clusters and whose perimeter fits the I/Os.
    A pure function of the packing, so a caller that needs only the
    grid (the batch runner pre-building a fabric) need not anneal.
    """
    side = grid_side
    if side is None:
        n_logic = clustered.num_clusters
        n_io = len(clustered.netlist.inputs) + len(clustered.netlist.outputs)
        side = 1
        while side * side < n_logic or (4 * (side + 2) - 4) * IO_CAPACITY < n_io:
            side += 1
    return side + 2, side + 2


def place(
    clustered: ClusteredNetlist,
    seed: int = 1,
    grid_side: Optional[int] = None,
    inner_num: float = 1.0,
    net_weights: Optional[Dict[str, float]] = None,
) -> Placement:
    """Anneal a placement for a packed netlist.

    Args:
        clustered: Packing result.
        seed: RNG seed (placement is deterministic given the seed).
        grid_side: Interior (logic) grid side; default = minimal square
            that fits the clusters and whose perimeter fits the I/Os.
        inner_num: Move budget scale (1.0 = VPR -fast, 10.0 = VPR
            default quality).
        net_weights: Optional per-net cost multipliers keyed by driver
            signal (timing-driven placement passes criticalities here:
            critical nets shrink at the expense of relaxed ones).
    """
    netlist = clustered.netlist
    blocks: Dict[str, PlacementBlock] = {}
    for cluster in clustered.clusters:
        blocks[f"c{cluster.index}"] = PlacementBlock(name=f"c{cluster.index}", kind="logic")
    for pi in netlist.inputs:
        blocks[pi.name] = PlacementBlock(name=pi.name, kind="pi")
    for po in netlist.outputs:
        blocks[po.name] = PlacementBlock(name=po.name, kind="po")

    grid_w, grid_h = placement_grid(clustered, grid_side)

    rng = random.Random(seed)
    nets = _flat_nets(clustered)
    tracer = get_tracer()
    with tracer.span(
        "place.anneal",
        blocks=len(blocks),
        nets=len(nets),
        grid=f"{grid_w}x{grid_h}",
        seed=seed,
        inner_num=inner_num,
    ) as span:
        annealer = _Annealer(blocks, nets, grid_w, grid_h, rng, net_weights=net_weights)
        annealer.random_initial()
        cost = annealer.anneal(inner_num=inner_num)
        span.set_many(cost=cost, temperature_steps=len(annealer.trajectory))
        if tracer.enabled:
            span.set(
                "trajectory",
                [dataclasses.asdict(stage) for stage in annealer.trajectory],
            )
        return Placement(
            grid_width=grid_w,
            grid_height=grid_h,
            location_of=annealer.location_of(),
            blocks_at=annealer.blocks_at(),
            clustered=clustered,
            cost=cost,
            trajectory=list(annealer.trajectory),
        )
