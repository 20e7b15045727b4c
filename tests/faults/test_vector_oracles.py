"""Differential tests: vectorised wear, BIST observation and victim scan.

`site_actuations`, the fast BIST backend and `find_victims` once walked
their inputs one element at a time in Python.  Those loops are kept
here, verbatim, as oracles; the vector versions must reproduce them
bit for bit (wear is a float accumulation, so its order matters).
"""

import random
import types

import numpy as np
import pytest

from repro.config import extract_bitstream
from repro.faults import FabricDefectMap, FaultCampaign, run_fabric_bist
from repro.faults.bist import _observe_fast
from repro.faults.campaign import site_actuations, switch_sites
from repro.faults.defects import fabric_key_of
from repro.faults.repair import find_victims
from repro.fabric.build import KIND_HWIRE, KIND_OPIN, KIND_SOURCE
from repro.power.activity import DEFAULT_INPUT_ACTIVITY


def reference_site_actuations(sites, bitstream=None, activities=None,
                              cycles=0.0, reconfigurations=0.0):
    actuations = np.full(len(sites), float(reconfigurations))
    if bitstream is not None and cycles > 0 and len(sites):
        site_index = {
            (int(lo), int(hi)): i for i, (lo, hi) in enumerate(sites)}
        for (u, v), net in getattr(bitstream, "net_of_edge", {}).items():
            idx = site_index.get((min(u, v), max(u, v)))
            if idx is None:
                continue
            density = DEFAULT_INPUT_ACTIVITY
            if activities is not None:
                density = activities.get(net, DEFAULT_INPUT_ACTIVITY)
            actuations[idx] += cycles * density
    return actuations


def reference_observe_fast(sites, truth):
    open_set = set(truth.stuck_open_switches)
    closed_set = set(truth.stuck_closed_switches)
    dead = np.zeros(truth.num_nodes, dtype=bool)
    if truth.stuck_open_nodes:
        dead[list(truth.stuck_open_nodes)] = True
    n = len(sites)
    stuck_open = np.zeros(n, dtype=bool)
    stuck_closed = np.zeros(n, dtype=bool)
    for i, (lo, hi) in enumerate(map(tuple, sites.tolist())):
        if (lo, hi) in open_set:
            stuck_open[i] = True
        elif (lo, hi) in closed_set:
            stuck_closed[i] = True
    endpoint_dead = dead[sites[:, 0]] | dead[sites[:, 1]]
    return ~stuck_open & ~endpoint_dead, stuck_closed


def reference_find_victims(routing, defects):
    blocked_nodes = defects.blocked_nodes()
    blocked_edges = defects.blocked_edges()
    victims = []
    for name, tree in routing.trees.items():
        if blocked_nodes and any(n in blocked_nodes for n in tree.nodes):
            victims.append(name)
            continue
        if blocked_edges and any(
            parent >= 0 and (parent, node) in blocked_edges
            for node, parent in tree.parent.items()
        ):
            victims.append(name)
    return sorted(victims)


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape \
        and a.tobytes() == b.tobytes()


@pytest.fixture(scope="module")
def sites(fabric):
    return switch_sites(fabric)


@pytest.fixture(scope="module")
def bitstream(routed):
    result, graph = routed
    return extract_bitstream(result, graph)


class TestSiteActuations:
    @pytest.mark.parametrize("with_activities", [False, True])
    def test_routed_bitstream(self, sites, bitstream, with_activities):
        activities = None
        if with_activities:
            rng = random.Random(4)
            nets = sorted(set(bitstream.net_of_edge.values()))
            # Leave some nets out so the default density is used too.
            activities = {net: rng.uniform(0.01, 0.9) for net in nets[::2]}
        kwargs = dict(activities=activities, cycles=3.7e7,
                      reconfigurations=812.5)
        got = site_actuations(sites, bitstream, **kwargs)
        want = reference_site_actuations(sites, bitstream, **kwargs)
        assert same_bits(got, want)
        assert (got > 812.5).any()

    @pytest.mark.parametrize("reverse", [False, True])
    def test_both_directions_accumulate_in_edge_order(self, sites, reverse):
        """Both directed edges of one bidir site carry nets.  The
        increments 2**53 and 1.0 do not commute in float64 when added
        to 1.0, so only the walk's own order gives the oracle's
        bits."""
        lo, hi = (int(x) for x in sites[len(sites) // 3])
        other_lo, other_hi = (int(x) for x in sites[7])
        edges = [((lo, hi), "big"), ((hi, lo), "one"),
                 ((other_hi, other_lo), "one")]
        if reverse:
            edges = edges[::-1]
        stream = types.SimpleNamespace(net_of_edge=dict(edges))
        activities = {"big": 2.0 ** 53, "one": 1.0}
        for acts in (activities, None):
            got = site_actuations(sites, stream, acts, cycles=1.0,
                                  reconfigurations=1.0)
            want = reference_site_actuations(sites, stream, acts, cycles=1.0,
                                             reconfigurations=1.0)
            assert same_bits(got, want)
        forward = site_actuations(
            sites, types.SimpleNamespace(net_of_edge=dict(edges)),
            activities, cycles=1.0, reconfigurations=1.0)
        backward = site_actuations(
            sites, types.SimpleNamespace(net_of_edge=dict(edges[::-1])),
            activities, cycles=1.0, reconfigurations=1.0)
        assert forward[len(sites) // 3] != backward[len(sites) // 3]

    def test_non_site_edges_are_ignored(self, fabric, sites):
        """A hard-wired SOURCE->OPIN hop is not a relay site."""
        source = int(np.flatnonzero(fabric.kind == KIND_SOURCE)[0])
        opin = next(v for v in fabric.neighbors(source)
                    if fabric.kind[v] == KIND_OPIN)
        lo, hi = (int(x) for x in sites[-1])
        stream = types.SimpleNamespace(net_of_edge={
            (source, opin): "a", (lo, hi): "b",
            (fabric.num_nodes + 5, fabric.num_nodes + 9): "c"})
        got = site_actuations(sites, stream, cycles=10.0,
                              reconfigurations=2.0)
        want = reference_site_actuations(sites, stream, cycles=10.0,
                                         reconfigurations=2.0)
        assert same_bits(got, want)
        assert np.count_nonzero(got != 2.0) == 1

    @pytest.mark.parametrize("stream,cycles", [
        (None, 5.0),
        (types.SimpleNamespace(net_of_edge={}), 5.0),
        ("bitstream", 0.0),
    ])
    def test_baseline_only(self, sites, bitstream, stream, cycles):
        stream = bitstream if stream == "bitstream" else stream
        got = site_actuations(sites, stream, cycles=cycles,
                              reconfigurations=3.0)
        assert same_bits(got, reference_site_actuations(
            sites, stream, cycles=cycles, reconfigurations=3.0))

    def test_no_sites(self, bitstream):
        empty = np.zeros((0, 2), dtype=np.int64)
        assert site_actuations(empty, bitstream, cycles=5.0).shape == (0,)

    def test_unsorted_sites_rejected(self, sites, bitstream):
        with pytest.raises(ValueError, match="switch_sites order"):
            site_actuations(sites[::-1], bitstream, cycles=5.0)


class TestBistObservation:
    def test_every_fault_class(self, fabric, sites):
        """Stuck-open and stuck-closed switches, a dead node, and a
        stuck-closed site on that dead node."""
        dead = int(sites[40][0])
        on_dead = next(
            tuple(int(x) for x in s) for s in sites[41:] if dead in s)
        truth = FabricDefectMap(
            fabric_key=fabric_key_of(fabric),
            num_nodes=fabric.num_nodes,
            stuck_open_nodes=(dead,),
            stuck_open_switches=(tuple(sites[3]), tuple(sites[900])),
            stuck_closed_switches=(tuple(sites[17]), on_dead),
        )
        got = _observe_fast(sites, truth)
        want = reference_observe_fast(sites, truth)
        for g, w in zip(got, want):
            assert same_bits(g, w)
        programmed, erased = got
        assert not programmed[3] and not programmed[900]
        assert erased[17] and not programmed[40]

    def test_site_both_open_and_closed_reads_open(self, fabric, sites):
        """A map can hold no such site, but the observation rule is
        defined for one: stuck-open wins, as in the oracle's ``elif``."""
        both = tuple(int(x) for x in sites[5])
        truth = types.SimpleNamespace(
            num_nodes=fabric.num_nodes, stuck_open_nodes=(),
            stuck_open_switches=(both, tuple(sites[6])),
            stuck_closed_switches=(both, tuple(sites[8])))
        got = _observe_fast(sites, truth)
        for g, w in zip(got, reference_observe_fast(sites, truth)):
            assert same_bits(g, w)
        assert not got[0][5] and not got[1][5]

    def test_clean_map(self, fabric, sites):
        truth = FabricDefectMap(fabric_key=fabric_key_of(fabric),
                                num_nodes=fabric.num_nodes)
        for g, w in zip(_observe_fast(sites, truth),
                        reference_observe_fast(sites, truth)):
            assert same_bits(g, w)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_campaign_maps(self, fabric, sites, seed):
        truth = FaultCampaign(
            seed=seed, stuck_open_rate=0.05,
            stuck_closed_rate=0.03).for_fabric(fabric)
        for g, w in zip(_observe_fast(sites, truth),
                        reference_observe_fast(sites, truth)):
            assert same_bits(g, w)
        assert run_fabric_bist(fabric, truth, _sites=sites).digest \
            == run_fabric_bist(fabric, truth).digest == truth.digest


class TestFindVictims:
    @pytest.mark.parametrize("open_rate,closed_rate", [
        (0.0, 0.0), (0.002, 0.0), (0.0, 0.002), (0.01, 0.01)])
    def test_matches_oracle(self, fabric, routed, open_rate, closed_rate):
        result, _ = routed
        for seed in range(3):
            defects = FaultCampaign(
                seed=seed, stuck_open_rate=open_rate,
                stuck_closed_rate=closed_rate).for_fabric(fabric)
            got = find_victims(result, defects)
            assert got == reference_find_victims(result, defects)
            if defects.clean:
                assert got == []

    def test_dead_node_on_a_tree(self, fabric, routed):
        result, _ = routed
        name, tree = sorted(result.trees.items())[0]
        wire = next(n for n in tree.nodes if fabric.kind[n] >= KIND_HWIRE)
        defects = FabricDefectMap(
            fabric_key=fabric_key_of(fabric), num_nodes=fabric.num_nodes,
            stuck_open_nodes=(wire,))
        got = find_victims(result, defects)
        assert name in got
        assert got == reference_find_victims(result, defects)

    def test_stuck_open_tree_edge(self, fabric, routed):
        result, _ = routed
        name, tree = sorted(result.trees.items())[-1]
        node, parent = next(
            (n, p) for n, p in tree.parent.items()
            if p >= 0 and fabric.kind[n] >= KIND_HWIRE
            and fabric.kind[p] >= KIND_HWIRE)
        defects = FabricDefectMap(
            fabric_key=fabric_key_of(fabric), num_nodes=fabric.num_nodes,
            stuck_open_switches=((parent, node),))
        got = find_victims(result, defects)
        assert name in got
        assert got == reference_find_victims(result, defects)
