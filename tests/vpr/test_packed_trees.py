"""`PackedTrees`: a routing result's trees as flat int32 columns.

A `RoutingResult` packs the trees it is given; reading one back builds
a `RouteTree` equal to the one packed, with ``parent`` in the same
insertion order.  These cases pin the mapping protocol, equality
(also through `dataclasses.asdict`), pickling, hand-built trees whose
``nodes`` list is in an order of its own, and the memory a routed
result retains per tree node.
"""

import copy
import dataclasses
import gc
import pickle
import tracemalloc

import pytest

from repro.arch.params import ArchParams
from repro.netlist import load_circuit
from repro.vpr.pack import pack
from repro.vpr.place import place
from repro.vpr.route import (
    PackedTrees,
    PathFinderRouter,
    RouteTree,
    RoutingResult,
    build_route_nets,
)
from repro.fabric import get_fabric


def _trees():
    return {
        "a": RouteTree(nodes=[5, 7, 9], parent={5: -1, 7: 5, 9: 7}, sink_nodes=[9]),
        "b": RouteTree(nodes=[1, 2, 3, 4], parent={1: -1, 2: 1, 3: 2, 4: 2},
                       sink_nodes=[4, 3]),
        # nodes in an order of their own, and a parent outside the tree
        "c": RouteTree(nodes=[8, 6], parent={6: -1, 8: 99}, sink_nodes=[8]),
    }


@pytest.fixture
def packed():
    return PackedTrees(_trees())


class TestMapping:
    def test_getitem_rebuilds_equal_trees(self, packed):
        for name, tree in _trees().items():
            got = packed[name]
            assert got == tree
            assert list(got.parent.items()) == list(tree.parent.items())
            assert got.nodes == tree.nodes

    def test_each_access_builds_a_fresh_tree(self, packed):
        assert packed["a"] is not packed["a"]

    def test_get_and_missing(self, packed):
        assert packed.get("b") == _trees()["b"]
        assert packed.get("zz") is None
        with pytest.raises(KeyError):
            packed["zz"]
        assert "a" in packed and "zz" not in packed

    def test_iteration_len_items(self, packed):
        assert list(packed) == ["a", "b", "c"]
        assert len(packed) == 3
        assert dict(packed.items()) == _trees()
        assert list(packed.keys()) == ["a", "b", "c"]

    def test_empty(self):
        empty = PackedTrees({})
        assert len(empty) == 0 and list(empty) == [] and empty == {}

    def test_columns(self, packed):
        assert list(packed.node_offsets) == [0, 3, 7, 9]
        assert list(packed.nodes) == [5, 7, 9, 1, 2, 3, 4, 6, 8]
        assert list(packed.parents) == [-1, 5, 7, -1, 1, 2, 2, -1, 99]
        assert list(packed.sinks) == [9, 4, 3, 8]
        assert list(packed.orders) == [2]  # only "c" keeps its own order
        listed, lengths = packed.listed_nodes()
        assert listed.tolist() == [5, 7, 9, 1, 2, 3, 4, 8, 6]
        assert lengths.tolist() == [3, 4, 2]

    def test_canonical(self, packed):
        assert packed.canonical()["b"] == {
            "parent": [(1, -1), (2, 1), (3, 2), (4, 2)], "sinks": [3, 4]}


class TestEquality:
    def test_equal_to_its_dict_and_to_a_repack(self, packed):
        assert packed == _trees()
        assert packed == PackedTrees(_trees())
        assert packed == PackedTrees(packed)

    def test_unequal(self, packed):
        other = _trees()
        other["a"] = RouteTree(nodes=[5, 7], parent={5: -1, 7: 5}, sink_nodes=[7])
        assert packed != PackedTrees(other)
        assert packed != other
        assert packed != 3

    def test_asdict_round_trip(self, packed):
        result = RoutingResult(success=True, iterations=1, trees=_trees(),
                               overused_nodes=0, wirelength=0)
        assert isinstance(result.trees, PackedTrees)
        data = dataclasses.asdict(result)
        assert data["trees"] == packed
        again = RoutingResult(**data)
        assert dataclasses.asdict(again) == data
        assert dataclasses.replace(result, trees=dict(result.trees)) == result

    def test_copy_and_pickle(self, packed):
        for clone in (copy.deepcopy(packed), pickle.loads(pickle.dumps(packed))):
            assert clone == packed
            assert dict(clone.items()) == _trees()


def test_routed_result_retains_few_bytes_per_tree_node():
    """A Wmin-probe-sized routed result keeps its trees in under 24
    bytes per tree node: 8 for the node and parent columns, the rest
    per net and per array (the dict-of-lists trees took over 100)."""
    arch = ArchParams(channel_width=20)
    placement = place(pack(load_circuit("tseng", scale=0.03), arch), seed=2)
    graph = get_fabric(arch, placement.grid_width, placement.grid_height)
    result = PathFinderRouter(graph).route(build_route_nets(placement))
    assert result.success
    nodes = len(result.trees.nodes)
    trees = result.trees
    del result
    gc.collect()
    tracemalloc.start()
    try:
        # Measure what the trees alone hold by dropping a copy of them.
        clone = copy.deepcopy(trees)
        before = tracemalloc.get_traced_memory()[0]
        del clone
        gc.collect()
        retained = before - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert nodes > 200
    assert retained / nodes < 24, f"{retained / nodes:.1f} bytes per tree node"
