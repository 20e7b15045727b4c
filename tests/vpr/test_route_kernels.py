"""Differential harness: the routing kernels are bit-identical.

The compiled walk (`repro.vpr.route_kernels.CompiledKernel`) and its
numpy fallback (`NumpyKernel`) promise byte-identical `RoutingResult`s
to the reference Python walk (`reference_kernel.PythonKernel`) — same
trees, same parent pointers, same iteration trace, same failures.
That contract is what lets the kernel stay *execution policy* (never
part of store cache keys or artefact digests), so it is enforced here,
not assumed; every case runs both fast walks against the oracle:

* a (directionality x width x circuit x seed) differential grid,
* a routing-*failure* case (both kernels must fail identically —
  same overused count, same convergence trace),
* defect cases (blocked nodes, blocked directed edges, blocked
  wire->IPIN taps),
* the kernels' tile-sorted wire->IPIN index against the eager
  per-tile tables it replaced,
* timing-driven costs, pinned ``fixed_trees`` (incremental repair),
  stalled negotiations that escalate to sink-order shuffles, and a
  whole channel-width search,
* a hypothesis property suite over generated netlists.

Kernel *selection* (`resolve_kernel`: the compiled walk unless it
cannot be built, the numpy walk when forced or as the fallback), the
walk's build cache, and the router's lifetime (no router <-> kernel
reference cycle) are tested alongside.
"""

import dataclasses
import gc
import os
import random
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from repro.arch.params import ArchParams
from repro.core.variants import baseline_variant
from repro.fabric import get_fabric
from repro.fabric.build import KIND_HWIRE, KIND_IPIN, KIND_VWIRE
from repro.netlist import load_circuit
from repro.netlist.generate import GeneratorParams, generate
from repro.vpr.flow import find_min_channel_width
from repro.vpr.pack import pack
from repro.vpr.place import place
from repro.vpr.route import (
    PathFinderRouter,
    build_route_nets,
    feeds_into,
    route_design,
)
from repro.vpr import route_kernels
from repro.vpr.route_kernels import (
    KERNELS,
    CompiledKernel,
    NumpyKernel,
    compiled_walk,
    make_kernel,
    resolve_kernel,
)
from repro.vpr.timing import node_delay_costs

from .conftest import ARCH
from .reference_kernel import PythonKernel

#: The walk None / "c" resolves to here: the compiled one unless the C
#: compiler is missing (CI also runs this file with ``CC=/nonexistent``).
DEFAULT_KERNEL = CompiledKernel if compiled_walk() is not None else NumpyKernel
#: Every kernel the differential cases run, the oracle first.
ALL_KERNELS = (PythonKernel, "c", "numpy")


def fingerprint(result):
    """The full RoutingResult as plain data: any bit of divergence
    (a float in the convergence trace, one parent pointer) fails the
    comparison."""
    return dataclasses.asdict(result)


def placed_circuit(name, num_luts, seed, arch, place_seed):
    params = GeneratorParams(name, num_luts=num_luts, ff_fraction=0.25, seed=seed)
    clustered = pack(generate(params), arch)
    return place(clustered, seed=place_seed)


def assert_same(ref, *others):
    for other in others:
        assert fingerprint(other) == fingerprint(ref)


def route_pair(placement, arch, **router_kwargs):
    """Route the same design with the reference and both fast walks;
    return the reference's result and the compiled walk's, after
    checking that the numpy walk's equals the compiled walk's."""
    ref, vec, fallback = (
        route_design(placement, arch, kernel=k, **router_kwargs)[0]
        for k in ALL_KERNELS)
    assert fingerprint(fallback) == fingerprint(vec)
    return ref, vec


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
    def test_fast_walks_match_reference(
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

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_counters_advance(self, placement, kernel):
        graph = get_fabric(ARCH, placement.grid_width, placement.grid_height)
        router = PathFinderRouter(graph, kernel=kernel)
        result = router.route(build_route_nets(placement))
        assert result.success
        assert router._kernel.heap_pops > 0
        assert router._kernel.heap_pushes >= router._kernel.heap_pops

    def test_walks_count_the_same_heap_ops(self, placement):
        """The compiled walk pops and pushes exactly what the numpy
        walk does (the same search, run elsewhere)."""
        graph = get_fabric(ARCH, placement.grid_width, placement.grid_height)
        nets = build_route_nets(placement)
        counts = []
        for kernel in KERNELS:
            router = PathFinderRouter(graph, kernel=kernel)
            router.route(nets)
            counts.append((router._kernel.heap_pops, router._kernel.heap_pushes))
        assert counts[0] == counts[1]


#: (num_luts, netlist seed, placement seed, W) whose negotiation
#: stalls long enough to escalate (rip up blockers, shuffle sink
#: order): the first then routes, the second runs out of iterations.
ESCALATING = [(80, 1, 3, 20), (60, 3, 1, 16)]


class TestRouterPaths:
    """Router paths beyond plain routability, on graphs of the size a
    channel-width search probes (under ~2,000 nodes)."""

    def test_timing_driven(self, placement):
        graph = get_fabric(ARCH, placement.grid_width, placement.grid_height)
        delay_costs = node_delay_costs(graph, baseline_variant(ARCH).fabric())
        nets = build_route_nets(placement)
        # Spread over [0, 1], including 0 (pure congestion) and 1
        # (clamped to 0.99).
        criticality = {net.name: (i % 7) / 6 for i, net in enumerate(nets)}
        ref, *fast = (
            PathFinderRouter(graph, delay_costs=delay_costs, kernel=k)
            .route(nets, criticality=criticality)
            for k in ALL_KERNELS)
        assert ref.success
        assert_same(ref, *fast)

    def test_fixed_trees(self, placement, routed):
        """Incremental repair: every fourth net rerouted around one
        dead wire of its old tree, the rest pinned in place."""
        result, graph = routed
        nets = build_route_nets(placement)
        victims = nets[::4]
        victim_names = {net.name for net in victims}
        fixed = {name: tree for name, tree in result.trees.items()
                 if name not in victim_names}
        wires = set(graph.nodes_of_kind(KIND_HWIRE, KIND_VWIRE).tolist())
        blocked = {min(set(result.trees[net.name].nodes) & wires)
                   for net in victims}
        ref, *fast = (
            PathFinderRouter(graph, blocked_nodes=blocked, kernel=k)
            .route(victims, fixed_trees=fixed)
            for k in ALL_KERNELS)
        assert ref.success
        assert set(ref.trees) == victim_names
        assert_same(ref, *fast)
        # Pinning a packed result's trees is the same as pinning a dict.
        packed = dataclasses.replace(result, trees=fixed).trees
        assert fingerprint(PathFinderRouter(
            graph, blocked_nodes=blocked).route(
                victims, fixed_trees=packed)) == fingerprint(ref)

    @pytest.mark.parametrize(
        "num_luts,seed,place_seed,width", ESCALATING,
        ids=[f"n{n}-s{s}-W{w}" for n, s, _, w in ESCALATING])
    def test_escalation(self, monkeypatch, num_luts, seed, place_seed, width):
        shuffles = []
        route_net = PathFinderRouter._route_net

        def spy(self, net, pres_fac, bb_margin=3.0, sink_shuffle=0,
                criticality=0.0):
            shuffles.append(sink_shuffle)
            return route_net(self, net, pres_fac, bb_margin=bb_margin,
                             sink_shuffle=sink_shuffle, criticality=criticality)

        monkeypatch.setattr(PathFinderRouter, "_route_net", spy)
        arch = ArchParams(channel_width=width)
        placement = placed_circuit(
            f"esc{seed}", num_luts, seed, arch, place_seed)
        ref, vec = route_pair(placement, arch, max_iterations=60)
        assert any(shuffles), "the negotiation never escalated"
        assert fingerprint(vec) == fingerprint(ref)

    def test_channel_width_search(self):
        """A whole Wmin search on a graph of the repo benchmark's
        ``wmin`` size, the reference forced against each fast walk."""
        arch = ArchParams(channel_width=64)
        placement = place(pack(load_circuit("tseng", scale=0.03), arch), seed=2)
        w_ref, r_ref, g_ref = find_min_channel_width(
            placement, arch, kernel=PythonKernel)
        assert g_ref.num_nodes < 1500
        for kernel in KERNELS:
            w_def, r_def, g_def = find_min_channel_width(
                placement, arch, kernel=kernel)
            assert w_def == w_ref
            assert g_def.params.channel_width == g_ref.params.channel_width == w_ref
            assert fingerprint(r_def) == fingerprint(r_ref)

    @pytest.mark.skipif(DEFAULT_KERNEL is not CompiledKernel, reason="no C compiler")
    def test_compiled_walk_state_edges(self, placement, routed):
        """A one-entry heap (the walk asks for a bigger one and routes
        the net again) and epoch counters about to wrap (the stamps are
        cleared) change nothing."""
        graph = get_fabric(ARCH, placement.grid_width, placement.grid_height)
        nets = build_route_nets(placement)
        used = PathFinderRouter(graph, kernel="c")
        used.route(nets)
        router = PathFinderRouter(graph, kernel="c")
        # Stale stamps from low epochs, which the wrap must clear.
        for name in ("seen", "priced", "intree", "xmark"):
            router._kernel._arrays[name][:] = used._kernel._arrays[name]
        router._kernel._state.search = router._kernel._state.net = 2**32 - 3
        router._kernel._grow_heap(1)
        assert fingerprint(router.route(nets)) == fingerprint(routed[0])
        assert router._kernel._state.heap_cap > 1
        assert router._kernel._state.search < 2**31  # it wrapped

    def test_feeds_into_matches_row_scan(self, routed):
        """The escalation scan's vectorised row test against a plain
        per-row walk."""
        _, graph = routed
        off, tgt = graph.csr_offsets(), graph.csr_targets()
        rng = random.Random(3)
        for size in (1, 5, 39):
            nodes = set(rng.sample(range(graph.num_nodes), size))
            expected = [any(v in nodes for v in tgt[off[u]:off[u + 1]])
                        for u in range(graph.num_nodes)]
            assert feeds_into(graph, nodes) == expected


class TestKernelProperties:
    @settings(max_examples=6, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 10_000), num_luts=st.integers(40, 110),
           width=st.sampled_from([24, 32, 48]))
    def test_generated_netlists_identical(self, seed, num_luts, width):
        """Property: over arbitrary generated circuits, each fast walk
        == the reference on the full RoutingResult — success or
        failure alike."""
        arch = ArchParams(channel_width=width)
        placement = placed_circuit(
            f"hyp{seed}", num_luts, seed, arch, place_seed=seed % 13)
        ref, vec = route_pair(placement, arch, max_iterations=40)
        assert fingerprint(vec) == fingerprint(ref)


class TestKernelSelection:
    def test_explicit_wins(self):
        assert resolve_kernel("numpy") is NumpyKernel
        assert resolve_kernel("c") is DEFAULT_KERNEL
        assert resolve_kernel(PythonKernel) is PythonKernel

    def test_unknown_raises(self):
        with pytest.raises(ValueError, match="unknown route kernel"):
            resolve_kernel("fortran")

    def test_default_is_the_compiled_walk(self):
        """No kernel given: the compiled walk, whatever the graph size
        (the numpy walk only when it cannot be built)."""
        assert resolve_kernel(None) is DEFAULT_KERNEL

    @pytest.mark.parametrize("value", ["python", "numpy", "fortran"])
    def test_environment_is_ignored(self, monkeypatch, value):
        """The retired ``REPRO_ROUTE_KERNEL`` variable changes nothing."""
        monkeypatch.setenv("REPRO_ROUTE_KERNEL", value)
        assert resolve_kernel(None) is DEFAULT_KERNEL

    @pytest.mark.parametrize("name", ["numba", "python"])
    def test_retired_names_are_not_kernels(self, name):
        """numba is gone, and the reference is passed as a class."""
        assert name not in KERNELS
        with pytest.raises(ValueError, match="unknown route kernel"):
            resolve_kernel(name)

    def test_router_exposes_resolved_kernel(self, placement):
        graph = get_fabric(ARCH, placement.grid_width, placement.grid_height)
        assert PathFinderRouter(graph, kernel="numpy").kernel == "numpy"
        assert PathFinderRouter(graph).kernel == DEFAULT_KERNEL.name
        assert PathFinderRouter(graph, kernel=PythonKernel).kernel == "python"
        with pytest.raises(ValueError):
            PathFinderRouter(graph, kernel="fortran")

    def test_make_kernel_names(self, placement):
        graph = get_fabric(ARCH, placement.grid_width, placement.grid_height)
        router = PathFinderRouter(graph, kernel="numpy")
        assert make_kernel("numpy", router).name == "numpy"
        assert make_kernel("c", router).name == DEFAULT_KERNEL.name
        with pytest.raises(ValueError):
            make_kernel("fortran", router)

    def test_span_records_the_walk(self, placement):
        from repro.obs import Tracer, use_tracer

        graph = get_fabric(ARCH, placement.grid_width, placement.grid_height)
        tracer = Tracer()
        with use_tracer(tracer):
            PathFinderRouter(graph).route(build_route_nets(placement))
        (span,) = [s for s in tracer.roots if s.name == "route.pathfinder"]
        assert span.attrs["kernel"] == DEFAULT_KERNEL.name


class TestCompiledBuild:
    def test_no_compiler_falls_back(self, monkeypatch, placement, routed):
        """``CC`` naming a missing binary: one warning, the numpy walk,
        the same result."""
        monkeypatch.setattr(route_kernels, "_WALK", route_kernels._UNSET)
        monkeypatch.setenv("CC", "/nonexistent/cc")
        with pytest.warns(RuntimeWarning, match="compiled route walk") as caught:
            first, _ = route_design(placement, ARCH)
            graph = get_fabric(ARCH, placement.grid_width, placement.grid_height)
            router = PathFinderRouter(graph)
        assert len([w for w in caught if "route walk" in str(w.message)]) == 1
        assert router.kernel == "numpy"
        assert fingerprint(first) == fingerprint(routed[0])

    def test_source_ships_as_package_data(self):
        from importlib.resources import files

        source = files("repro.vpr").joinpath("_walk.c")
        assert source.is_file()
        assert b"walk_net" in source.read_bytes()

    @pytest.mark.skipif(compiled_walk() is None, reason="no C compiler")
    def test_racing_builds_load_one_library(self, tmp_path):
        """Two processes building into one empty cache both load a
        whole library, and leave one file behind."""
        import subprocess
        import sys

        code = ("import sys; from repro.vpr.route_kernels import build_walk, "
                "_load_walk; p = build_walk(sys.argv[1]); _load_walk(p); print(p)")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        procs = [subprocess.Popen([sys.executable, "-c", code, str(tmp_path)],
                                  stdout=subprocess.PIPE, text=True, env=env)
                 for _ in range(2)]
        paths = [proc.communicate(timeout=120)[0].strip() for proc in procs]
        assert [proc.returncode for proc in procs] == [0, 0]
        assert paths[0] == paths[1]
        assert [p.name for p in tmp_path.iterdir()] == [os.path.basename(paths[0])]

    @pytest.mark.skipif(compiled_walk() is None, reason="no C compiler")
    def test_cached_library_is_reused(self, tmp_path, monkeypatch):
        path = route_kernels.build_walk(str(tmp_path))
        monkeypatch.setenv("PATH", "")  # no compiler reachable now
        assert route_kernels.build_walk(str(tmp_path)) == path


class TestThreads:
    def test_routers_on_threads_route_identically(self, placement, routed):
        """Routers on more threads than cores (the compiled walk runs
        without the GIL, as under ``repro serve``) each get the serial
        result: no walk state is shared."""
        import sys
        import threading

        graph = get_fabric(ARCH, placement.grid_width, placement.grid_height)
        nets = build_route_nets(placement)
        results = [None] * 4

        def work(i):
            results[i] = PathFinderRouter(graph).route(nets)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for result in results:
            assert fingerprint(result) == fingerprint(routed[0])


class TestRouterLifetime:
    @pytest.mark.parametrize("kernel", ALL_KERNELS)
    def test_dropped_router_frees_without_gc(self, placement, kernel):
        """The kernel holds what it reads, not the router: a
        dropped router and its kernel go by refcount alone, so a
        Wmin search's probes do not pile up until a GC pass."""
        graph = get_fabric(ARCH, placement.grid_width, placement.grid_height)
        gc.collect()
        gc.disable()
        try:
            router = PathFinderRouter(graph, kernel=kernel)
            assert router.route(build_route_nets(placement)).success
            router_ref = weakref.ref(router)
            kernel_ref = weakref.ref(router._kernel)
            del router
            assert router_ref() is None
            assert kernel_ref() is None
        finally:
            gc.enable()


def eager_tile_tables(ir, blocked_edges):
    """The per-tile ``{wire: [ipin, ...]}`` tables as the numpy kernel
    once built them eagerly, one Python step per wire->IPIN edge (the
    oracle for the tile-sorted index)."""
    n = ir.num_nodes
    tables = {}
    off, tgt = ir.csr_offsets(), ir.csr_targets()
    for u in range(n):
        if ir.kind[u] not in (KIND_HWIRE, KIND_VWIRE):
            continue
        for v in tgt[off[u]:off[u + 1]]:
            if ir.kind[v] != KIND_IPIN or u * n + v in blocked_edges:
                continue
            tile = (int(ir.xs[v]), int(ir.ys[v]))
            tables.setdefault(tile, {}).setdefault(u, []).append(v)
    return tables


def index_table(kernel, tile):
    """One tile's ``{wire: [ipin, ...]}`` read from the kernel's
    tile-sorted index the way the compiled walk reads it: the tile's
    slice, each wire's taps one contiguous run."""
    t = tile[0] * kernel.fabric.ny + tile[1]
    lo, hi = kernel._ipin_tile_offsets[t], kernel._ipin_tile_offsets[t + 1]
    us, vs = kernel._ipin_u[lo:hi].tolist(), kernel._ipin_v[lo:hi].tolist()
    table = {}
    for i, u in enumerate(us):
        if u in table:
            assert us[i - 1] == u, "a wire's taps are not contiguous"
        table.setdefault(u, []).append(vs[i])
    return table


def wire_ipin_edges(ir):
    off, tgt = ir.csr_offsets(), ir.csr_targets()
    return [
        (u, v)
        for u in range(ir.num_nodes)
        if ir.kind[u] in (KIND_HWIRE, KIND_VWIRE)
        for v in tgt[off[u]:off[u + 1]]
        if ir.kind[v] == KIND_IPIN
    ]


class TestTileIndex:
    @pytest.fixture(scope="class")
    def graph(self, placement):
        return get_fabric(ARCH, placement.grid_width, placement.grid_height)

    @pytest.fixture(scope="class")
    def blocked(self, graph):
        """Random wire->IPIN taps, plus every tap of one wire into one
        tile, so that ``(tile, wire)`` has no usable IPIN edge left."""
        taps = wire_ipin_edges(graph)
        blocked = set(random.Random(11).sample(taps, len(taps) // 10))
        u, v = taps[len(taps) // 2]
        tile = (int(graph.xs[v]), int(graph.ys[v]))
        whole = {
            (a, b) for a, b in taps
            if a == u and (int(graph.xs[b]), int(graph.ys[b])) == tile}
        return blocked | whole, (tile, u)

    @pytest.mark.parametrize("with_blocked", [False, True])
    def test_every_tile_matches_eager_build(self, graph, blocked,
                                            with_blocked):
        edges = blocked[0] if with_blocked else set()
        router = PathFinderRouter(graph, blocked_edges=edges)
        eager = eager_tile_tables(graph, router._blocked_edges)
        for x in range(graph.nx):
            for y in range(graph.ny):
                # Same wires in the same order, each with the same IPINs
                # in the same (CSR) order, both as the compiled walk
                # reads the index and as the numpy walk's table.
                want = list(eager.get((x, y), {}).items())
                assert list(index_table(router._kernel, (x, y)).items()) == want
                assert list(router._kernel._tile_table((x, y)).items()) == want

    def test_fully_blocked_wire_has_no_entry(self, graph, blocked):
        edges, (tile, u) = blocked
        router = PathFinderRouter(graph, blocked_edges=edges)
        assert u not in index_table(router._kernel, tile)
        assert u not in router._kernel._tile_table(tile)
        unblocked = PathFinderRouter(graph)
        assert u in index_table(unblocked._kernel, tile)

    def test_only_the_numpy_walk_builds_tables(self, graph, placement):
        """The compiled walk reads the index and builds no per-tile
        table; the numpy walk builds one per targeted tile, on demand."""
        nets = build_route_nets(placement)
        targeted = {tile for net in nets[:3] for tile in net.sink_tiles}
        for kernel in KERNELS:
            router = PathFinderRouter(graph, kernel=kernel)
            assert router._kernel._tile_extra == {}
            assert router.route(nets[:3]).success
            built = set(router._kernel._tile_extra)
            if router.kernel == "c":
                assert built == set()
            else:
                assert built and built <= targeted

    def test_blocked_taps_route_identically(self, placement, blocked):
        ref, vec = route_pair(placement, ARCH, blocked_edges=blocked[0])
        assert ref.success
        for tree in ref.trees.values():
            for node, parent in tree.parent.items():
                assert (parent, node) not in blocked[0]
        assert fingerprint(vec) == fingerprint(ref)
