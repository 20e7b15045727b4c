"""Differential test: the flat-array placer against its reference.

`_ReferenceAnnealer` below is the dict-keyed annealer `repro.vpr.place`
used before it moved to flat int arrays.  It is kept here, verbatim
apart from its debug log line, as the oracle: for every case `place()` must return exactly the same
locations, per-tile occupant lists (order included), cost and anneal
trajectory.  The cases cover small MCNC circuits, one altera circuit,
several seeds with and without timing-driven net weights, a pad-bound
grid whose I/O tiles fill to `IO_CAPACITY` (the swap path), and the
degenerate no-net and one-block designs.
"""

import math
import random
from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Set, Tuple

import pytest

from repro.arch.params import ArchParams
from repro.netlist import ALTERA4_PARAMS, MCNC20_PARAMS, Netlist, generate
from repro.netlist.generate import GeneratorParams
from repro.vpr.pack import pack
from repro.vpr.place import (
    IO_CAPACITY,
    AnnealStage,
    PlacementBlock,
    _flat_nets,
    crossing_factor,
    place,
)

ARCH = ArchParams(channel_width=48)


class _ReferenceAnnealer:
    """The dict-and-tuple annealer the flat `_Annealer` replaced, kept
    as the placement oracle."""

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
        self.nets = nets
        self.grid_w = grid_w
        self.grid_h = grid_h
        self.rng = rng
        self.net_weights = net_weights or {}
        self.location: Dict[str, Tuple[int, int]] = {}
        self.at: Dict[Tuple[int, int], List[str]] = defaultdict(list)
        self.nets_of: Dict[str, List[int]] = defaultdict(list)
        for i, (driver, sinks) in enumerate(nets):
            self.nets_of[driver].append(i)
            for s in sinks:
                self.nets_of[s].append(i)
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

    def _capacity(self, tile: Tuple[int, int], kind: str) -> int:
        perimeter = tile[0] in (0, self.grid_w - 1) or tile[1] in (0, self.grid_h - 1)
        if kind == "logic":
            return 0 if perimeter else 1
        return IO_CAPACITY if perimeter else 0

    # -- cost -------------------------------------------------------------

    def _bb_cost(self, net_index: int) -> float:
        driver, sinks = self.nets[net_index]
        xs = [self.location[driver][0]] + [self.location[s][0] for s in sinks]
        ys = [self.location[driver][1]] + [self.location[s][1] for s in sinks]
        q = crossing_factor(len(sinks) + 1)
        weight = self.net_weights.get(driver, 1.0)
        return weight * q * ((max(xs) - min(xs)) + (max(ys) - min(ys)))

    def total_cost(self) -> float:
        return sum(self.net_cost)

    def recompute_all(self) -> float:
        for i in range(len(self.nets)):
            self.net_cost[i] = self._bb_cost(i)
        return self.total_cost()

    # -- moves --------------------------------------------------------------

    def random_initial(self) -> None:
        interior = self.interior_tiles()
        perimeter = self.perimeter_tiles()
        self.rng.shuffle(interior)
        self.rng.shuffle(perimeter)
        logic = [b for b in self.blocks.values() if b.kind == "logic"]
        ios = [b for b in self.blocks.values() if b.kind in ("pi", "po")]
        if len(logic) > len(interior):
            raise ValueError(
                f"{len(logic)} clusters exceed {len(interior)} interior tiles"
            )
        if len(ios) > len(perimeter) * IO_CAPACITY:
            raise ValueError(
                f"{len(ios)} I/Os exceed perimeter capacity {len(perimeter) * IO_CAPACITY}"
            )
        for block, tile in zip(logic, interior):
            self.location[block.name] = tile
            self.at[tile].append(block.name)
        slot = 0
        for block in ios:
            tile = perimeter[slot // IO_CAPACITY]
            self.location[block.name] = tile
            self.at[tile].append(block.name)
            slot += 1

    def _affected_nets(self, names: Sequence[str]) -> Set[int]:
        result: Set[int] = set()
        for name in names:
            result.update(self.nets_of.get(name, ()))
        return result

    def propose_and_apply(self, temperature: float, range_limit: int) -> bool:
        """One SA move: pick a block, try a move/swap, accept by
        Metropolis.  Returns True if accepted."""
        name = self.rng.choice(self._movable)
        block = self.blocks[name]
        old_tile = self.location[name]
        if block.kind == "logic":
            # Target: random interior tile within range limit.
            x = self._clip(old_tile[0] + self.rng.randint(-range_limit, range_limit), 1, self.grid_w - 2)
            y = self._clip(old_tile[1] + self.rng.randint(-range_limit, range_limit), 1, self.grid_h - 2)
            new_tile = (x, y)
            if new_tile == old_tile:
                return False
            occupants = [n for n in self.at[new_tile] if self.blocks[n].kind == "logic"]
            swap_with = occupants[0] if occupants else None
        else:
            perimeter = self._perimeter_cache
            new_tile = perimeter[self.rng.randrange(len(perimeter))]
            if new_tile == old_tile:
                return False
            if len(self.at[new_tile]) >= IO_CAPACITY:
                ios = [n for n in self.at[new_tile] if self.blocks[n].kind in ("pi", "po")]
                swap_with = self.rng.choice(ios)
            else:
                swap_with = None

        moved = [name] + ([swap_with] if swap_with else [])
        affected = self._affected_nets(moved)
        old_costs = {i: self.net_cost[i] for i in affected}

        # Apply tentatively.
        self._relocate(name, old_tile, new_tile)
        if swap_with:
            self._relocate(swap_with, new_tile, old_tile)
        delta = 0.0
        for i in affected:
            new_cost = self._bb_cost(i)
            delta += new_cost - old_costs[i]
            self.net_cost[i] = new_cost

        if delta <= 0 or self.rng.random() < math.exp(-delta / max(temperature, 1e-12)):
            return True
        # Revert.
        self._relocate(name, new_tile, old_tile)
        if swap_with:
            self._relocate(swap_with, old_tile, new_tile)
        for i, c in old_costs.items():
            self.net_cost[i] = c
        return False

    def _relocate(self, name: str, src: Tuple[int, int], dst: Tuple[int, int]) -> None:
        self.at[src].remove(name)
        self.at[dst].append(name)
        self.location[name] = dst

    @staticmethod
    def _clip(v: int, lo: int, hi: int) -> int:
        return max(lo, min(hi, v))

    def anneal(self, seed_moves: int = 60, inner_num: float = 1.0) -> float:
        """Run the annealing schedule.

        ``inner_num`` scales the per-temperature move budget
        (inner_num * Nblocks^(4/3)); 1.0 matches VPR's -fast mode,
        10.0 the default-quality mode.
        """
        self._movable = sorted(self.blocks)
        self._perimeter_cache = self.perimeter_tiles()
        cost = self.recompute_all()
        if not self.nets or len(self._movable) < 2:
            return cost

        # Initial temperature: 20 x the std-dev of random move deltas.
        deltas: List[float] = []
        for _ in range(min(seed_moves, 10 * len(self._movable))):
            before = self.total_cost()
            self.propose_and_apply(temperature=1e18, range_limit=max(self.grid_w, self.grid_h))
            deltas.append(self.total_cost() - before)
        mean = sum(deltas) / len(deltas)
        var = sum((d - mean) ** 2 for d in deltas) / len(deltas)
        temperature = 20.0 * math.sqrt(var) + 1e-9

        n_blocks = len(self._movable)
        moves_per_t = max(10, int(inner_num * n_blocks ** (4.0 / 3.0)))
        range_limit = float(max(self.grid_w, self.grid_h))
        while temperature > 0.005 * self.total_cost() / max(len(self.nets), 1):
            accepted = 0
            for _ in range(moves_per_t):
                if self.propose_and_apply(temperature, max(1, int(range_limit))):
                    accepted += 1
            alpha = accepted / moves_per_t
            self.trajectory.append(AnnealStage(
                temperature=temperature,
                acceptance_rate=alpha,
                cost=self.total_cost(),
                range_limit=range_limit,
            ))
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
            range_limit = max(1.0, min(range_limit * (1.0 - 0.44 + alpha), float(max(self.grid_w, self.grid_h))))
        return self.total_cost()


def _reference_place(clustered, seed, grid_w, grid_h, net_weights=None):
    """`place()` as it ran on the reference annealer."""
    netlist = clustered.netlist
    blocks: Dict[str, PlacementBlock] = {}
    for cluster in clustered.clusters:
        blocks[f"c{cluster.index}"] = PlacementBlock(f"c{cluster.index}", "logic")
    for pi in netlist.inputs:
        blocks[pi.name] = PlacementBlock(pi.name, "pi")
    for po in netlist.outputs:
        blocks[po.name] = PlacementBlock(po.name, "po")
    annealer = _ReferenceAnnealer(
        blocks, _flat_nets(clustered), grid_w, grid_h, random.Random(seed),
        net_weights=net_weights)
    annealer.random_initial()
    cost = annealer.anneal()
    blocks_at = {k: list(v) for k, v in annealer.at.items() if v}
    return dict(annealer.location), blocks_at, cost, annealer.trajectory


def _timing_weights(clustered, seed):
    """Seeded stand-in for criticality weights, one per net driver."""
    rng = random.Random(seed)
    return {driver: 1.0 + 3.0 * rng.random() ** 2
            for driver in sorted(clustered.external_nets())}


def _assert_identical(clustered, seed, grid_side=None, net_weights=None):
    placed = place(clustered, seed=seed, grid_side=grid_side,
                   net_weights=net_weights)
    location_of, blocks_at, cost, trajectory = _reference_place(
        clustered, seed, placed.grid_width, placed.grid_height, net_weights)
    assert list(placed.location_of.items()) == list(location_of.items())
    assert placed.blocks_at == blocks_at  # dict ==, then per-tile order:
    for tile, names in blocks_at.items():
        assert placed.blocks_at[tile] == names, tile
    assert placed.cost == cost
    assert type(placed.cost) is type(cost)
    assert placed.trajectory == trajectory
    return placed


def _packed(params: GeneratorParams):
    return pack(generate(params), ARCH)


MCNC_SMALL = [p for p in MCNC20_PARAMS if p.name in ("tseng", "ex5p", "des")]


@pytest.mark.parametrize("params", MCNC_SMALL, ids=lambda p: p.name)
@pytest.mark.parametrize("seed", [1, 2, 5])
def test_mcnc_matches_reference(params, seed):
    _assert_identical(_packed(params.scaled(0.02)), seed)


@pytest.mark.parametrize("params", MCNC_SMALL, ids=lambda p: p.name)
@pytest.mark.parametrize("seed", [2, 3])
def test_weighted_matches_reference(params, seed):
    clustered = _packed(params.scaled(0.02))
    _assert_identical(clustered, seed, net_weights=_timing_weights(clustered, seed))


def test_altera_matches_reference():
    _assert_identical(_packed(ALTERA4_PARAMS[3].scaled(0.02)), 1)


@pytest.mark.parametrize("seed", [1, 4, 9])
def test_full_io_tiles_take_the_swap_path(seed):
    """91 pads on a 4x4 grid's 12 perimeter tiles (96 slots): at least
    7 tiles are full at any time, so I/O moves keep landing on full
    tiles and swapping."""
    clustered = _packed(GeneratorParams(
        "pads", num_luts=20, num_inputs=66, num_outputs=60, seed=7))
    n_io = len(clustered.netlist.inputs) + len(clustered.netlist.outputs)
    assert n_io == 91
    placed = _assert_identical(clustered, seed)
    assert placed.grid_width == 4
    full = [names for tile, names in placed.blocks_at.items()
            if placed.is_perimeter(*tile) and len(names) == IO_CAPACITY]
    assert len(full) >= 7


def test_explicit_grid_side_matches_reference():
    clustered = _packed(MCNC_SMALL[0].scaled(0.02))
    _assert_identical(clustered, 3, grid_side=9)


def _register_loop(name: str) -> Netlist:
    """A LUT/FF loop that packs into one cluster with no external net."""
    netlist = Netlist(name)
    netlist.add_lut("l", ["q"])
    netlist.add_ff("q", "l")
    return netlist


def test_no_nets_matches_reference():
    netlist = _register_loop("island")
    netlist.add_input("unused")
    clustered = pack(netlist, ARCH)
    assert _flat_nets(clustered) == []
    placed = _assert_identical(clustered, 1)
    assert len(placed.location_of) == 2
    assert placed.trajectory == []


def test_one_block_matches_reference():
    clustered = pack(_register_loop("lonely"), ARCH)
    placed = _assert_identical(clustered, 1)
    assert list(placed.location_of) == ["c0"]
    assert placed.trajectory == []
