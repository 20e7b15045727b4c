"""Differential harness: the routing kernels are bit-identical.

The vectorised kernel (`repro.vpr.route_kernels.NumpyKernel`)
promises byte-identical `RoutingResult`s to the reference Python walk
— same trees, same parent pointers, same iteration trace, same
failures.  That contract
is what lets the kernel stay *execution policy* (never part of store
cache keys or artefact digests), so it is enforced here, not assumed:

* a (directionality x width x circuit x seed) differential grid,
* a routing-*failure* case (both kernels must fail identically —
  same overused count, same convergence trace),
* defect cases (blocked nodes, blocked directed edges),
* a hypothesis property suite over generated netlists.

Kernel *selection* (`resolve_kernel`: an explicit kernel, else numpy
on large graphs and the reference on small ones) is tested alongside.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.arch.params import ArchParams
from repro.fabric.build import KIND_HWIRE, KIND_VWIRE
from repro.netlist.generate import GeneratorParams, generate
from repro.vpr.pack import pack
from repro.vpr.place import place
from repro.vpr.route import PathFinderRouter, build_route_nets, route_design
from repro.vpr.route_kernels import (
    KERNELS,
    NUMPY_MIN_NODES,
    make_kernel,
    resolve_kernel,
)

from .conftest import ARCH


def fingerprint(result):
    """The full RoutingResult as plain data: any bit of divergence
    (a float in the convergence trace, one parent pointer) fails the
    comparison."""
    return dataclasses.asdict(result)


def placed_circuit(name, num_luts, seed, arch, place_seed):
    params = GeneratorParams(name, num_luts=num_luts, ff_fraction=0.25, seed=seed)
    clustered = pack(generate(params), arch)
    return place(clustered, seed=place_seed)


def route_pair(placement, arch, reference="python", other="numpy", **router_kwargs):
    """Route the same design with two kernels; return both results."""
    a, _ = route_design(placement, arch, kernel=reference, **router_kwargs)
    b, _ = route_design(placement, arch, kernel=other, **router_kwargs)
    return a, b


#: (directionality, W, num_luts, netlist seed, placement seed) — small
#: enough for the reference walk, varied enough to cover bidir/unidir
#: fabrics, tight and generous widths, several circuit topologies.
GRID = [
    ("bidir", 48, 120, 42, 7),
    ("bidir", 24, 80, 1, 3),
    ("unidir", 32, 100, 2, 5),
    ("unidir", 48, 60, 3, 1),
]


class TestDifferentialGrid:
    @pytest.mark.parametrize(
        "directionality,width,num_luts,seed,place_seed", GRID,
        ids=[f"{d}-W{w}-n{n}-s{s}" for d, w, n, s, _ in GRID])
    def test_numpy_matches_reference(
            self, directionality, width, num_luts, seed, place_seed):
        arch = ArchParams(channel_width=width, directionality=directionality)
        placement = placed_circuit(
            f"diff{seed}", num_luts, seed, arch, place_seed)
        ref, vec = route_pair(placement, arch)
        assert fingerprint(vec) == fingerprint(ref)

    def test_identical_failure(self, placement):
        """Unroutable width: kernels must agree on the *failure* too —
        same iteration count, same overused-node count, same
        convergence trace."""
        ref, vec = route_pair(
            placement, ARCH, channel_width=4, max_iterations=12)
        assert not ref.success
        assert vec.overused_nodes == ref.overused_nodes
        assert fingerprint(vec) == fingerprint(ref)

    def test_blocked_nodes(self, placement, routed):
        """Dead wires (5%): defect-avoidance must be kernel-invariant."""
        import random

        _, graph = routed
        wires = graph.nodes_of_kind(KIND_HWIRE, KIND_VWIRE).tolist()
        blocked = sorted(random.Random(5).sample(wires, len(wires) // 20))
        ref, vec = route_pair(placement, ARCH, blocked_nodes=set(blocked))
        assert ref.success
        for tree in ref.trees.values():
            assert not (set(tree.nodes) & set(blocked))
        assert fingerprint(vec) == fingerprint(ref)

    def test_blocked_edges(self, placement, routed):
        """Stuck-open relays: individual directed hops forbidden."""
        import random

        _, graph = routed
        off, tgt = graph.csr_offsets(), graph.csr_targets()
        kind = graph.kind
        edges = [
            (u, int(tgt[e]))
            for u in range(graph.num_nodes)
            for e in range(int(off[u]), int(off[u + 1]))
            if kind[u] in (KIND_HWIRE, KIND_VWIRE)
            and kind[int(tgt[e])] in (KIND_HWIRE, KIND_VWIRE)
        ]
        blocked = sorted(random.Random(9).sample(edges, len(edges) // 25))
        ref, vec = route_pair(placement, ARCH, blocked_edges=set(blocked))
        assert ref.success
        for tree in ref.trees.values():
            for node, parent in tree.parent.items():
                assert (parent, node) not in set(blocked)
        assert fingerprint(vec) == fingerprint(ref)

    def test_counters_advance(self, placement):
        from repro.fabric import get_fabric

        graph = get_fabric(ARCH, placement.grid_width, placement.grid_height)
        router = PathFinderRouter(graph, kernel="numpy")
        result = router.route(build_route_nets(placement))
        assert result.success
        assert router._kernel.heap_pops > 0
        assert router._kernel.heap_pushes >= router._kernel.heap_pops


class TestKernelProperties:
    @settings(max_examples=6, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 10_000), num_luts=st.integers(40, 110),
           width=st.sampled_from([24, 32, 48]))
    def test_generated_netlists_identical(self, seed, num_luts, width):
        """Property: over arbitrary generated circuits, numpy == python
        on the full RoutingResult — success or failure alike."""
        arch = ArchParams(channel_width=width)
        placement = placed_circuit(
            f"hyp{seed}", num_luts, seed, arch, place_seed=seed % 13)
        ref, vec = route_pair(placement, arch, max_iterations=40)
        assert fingerprint(vec) == fingerprint(ref)


class TestKernelSelection:
    def test_explicit_wins(self):
        assert resolve_kernel("python", 10**6) == "python"
        assert resolve_kernel("numpy", 10) == "numpy"

    def test_unknown_raises(self):
        with pytest.raises(ValueError, match="unknown route kernel"):
            resolve_kernel("fortran", 10)

    def test_auto_by_graph_size(self):
        """No kernel given: numpy on big graphs, the reference on small
        ones (below NUMPY_MIN_NODES the vector setup costs more than
        the walk it saves)."""
        assert resolve_kernel(None, NUMPY_MIN_NODES) == "numpy"
        assert resolve_kernel(None, NUMPY_MIN_NODES - 1) == "python"

    @pytest.mark.parametrize("value", ["python", "numpy", "fortran"])
    def test_environment_is_ignored(self, monkeypatch, value):
        """The pick depends on the graph size only: the retired
        ``REPRO_ROUTE_KERNEL`` variable changes nothing."""
        monkeypatch.setenv("REPRO_ROUTE_KERNEL", value)
        assert resolve_kernel(None, NUMPY_MIN_NODES) == "numpy"
        assert resolve_kernel(None, NUMPY_MIN_NODES - 1) == "python"

    def test_numba_is_not_a_kernel(self):
        assert "numba" not in KERNELS
        with pytest.raises(ValueError, match="unknown route kernel"):
            resolve_kernel("numba", 10)

    def test_router_exposes_resolved_kernel(self, placement):
        from repro.fabric import get_fabric

        graph = get_fabric(ARCH, placement.grid_width, placement.grid_height)
        assert PathFinderRouter(graph, kernel="numpy").kernel == "numpy"
        assert PathFinderRouter(graph).kernel == resolve_kernel(None, graph.num_nodes)
        with pytest.raises(ValueError):
            PathFinderRouter(graph, kernel="fortran")

    def test_make_kernel_names(self, placement):
        from repro.fabric import get_fabric

        graph = get_fabric(ARCH, placement.grid_width, placement.grid_height)
        router = PathFinderRouter(graph, kernel="python")
        for name in KERNELS:
            assert make_kernel(name, router).name == name
        with pytest.raises(ValueError):
            make_kernel("fortran", router)
