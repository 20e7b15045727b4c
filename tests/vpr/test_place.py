"""Tests for repro.vpr.place (simulated annealing)."""

import pytest

from repro.vpr.place import IO_CAPACITY, crossing_factor, place, placement_grid

from .conftest import ARCH


class TestCrossingFactor:
    def test_small_nets_unity(self):
        assert crossing_factor(2) == pytest.approx(1.0)
        assert crossing_factor(3) == pytest.approx(1.0)

    def test_monotone(self):
        values = [crossing_factor(t) for t in range(1, 60)]
        assert values == sorted(values)

    def test_extrapolation_beyond_table(self):
        assert crossing_factor(50) > crossing_factor(20)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            crossing_factor(0)


class TestPlacement:
    def test_every_block_placed(self, clustered, placement):
        netlist = clustered.netlist
        expected = clustered.num_clusters + len(netlist.inputs) + len(netlist.outputs)
        assert len(placement.location_of) == expected

    def test_logic_in_interior(self, clustered, placement):
        for i in range(clustered.num_clusters):
            x, y = placement.location_of[f"c{i}"]
            assert not placement.is_perimeter(x, y), f"cluster c{i} on perimeter"

    def test_ios_on_perimeter(self, clustered, placement):
        netlist = clustered.netlist
        for block in list(netlist.inputs) + list(netlist.outputs):
            x, y = placement.location_of[block.name]
            assert placement.is_perimeter(x, y), f"I/O {block.name} in interior"

    def test_one_cluster_per_tile(self, clustered, placement):
        seen = set()
        for i in range(clustered.num_clusters):
            tile = placement.location_of[f"c{i}"]
            assert tile not in seen
            seen.add(tile)

    def test_io_capacity_respected(self, placement):
        for tile, blocks in placement.blocks_at.items():
            if placement.is_perimeter(*tile):
                assert len(blocks) <= IO_CAPACITY

    def test_location_and_at_maps_consistent(self, placement):
        for name, tile in placement.location_of.items():
            assert name in placement.blocks_at[tile]

    def test_deterministic_given_seed(self, clustered):
        a = place(clustered, seed=3)
        b = place(clustered, seed=3)
        assert a.location_of == b.location_of

    def test_annealing_beats_random(self, clustered):
        """The annealed cost must be well below the initial random
        placement's cost (sanity that optimisation happens)."""
        import random

        from repro.vpr.place import PlacementBlock, _Annealer, _flat_nets

        netlist = clustered.netlist
        blocks = {}
        for c in clustered.clusters:
            blocks[f"c{c.index}"] = PlacementBlock(f"c{c.index}", "logic")
        for pi in netlist.inputs:
            blocks[pi.name] = PlacementBlock(pi.name, "pi")
        for po in netlist.outputs:
            blocks[po.name] = PlacementBlock(po.name, "po")
        placed = place(clustered, seed=11)
        annealer = _Annealer(
            blocks, _flat_nets(clustered), placed.grid_width, placed.grid_height,
            random.Random(11),
        )
        annealer.random_initial()
        random_cost = annealer.recompute_all()
        assert placed.cost < 0.8 * random_cost

    def test_grid_fits_demand(self, clustered, placement):
        interior = (placement.grid_width - 2) * (placement.grid_height - 2)
        assert interior >= clustered.num_clusters

    def test_placement_grid_is_the_annealed_grid(self, clustered, placement):
        """The grid is known from the packing alone, before annealing."""
        assert placement_grid(clustered) == (placement.grid_width,
                                             placement.grid_height)
        assert placement_grid(clustered, grid_side=9) == (11, 11)
