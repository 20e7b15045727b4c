"""FabricIR micro-bench — legacy object graph vs the flat IR.

The legacy arm builds a fresh object graph for every channel-width
probe and repeat route (the reference `RRGraph` the test suite keeps
in `tests/fabric/reference_rrgraph.py`) and converts it to columns.
The IR path builds flat arrays once per ``(ArchParams, nx, ny)`` and
serves repeats from the keyed cache, leaving only PathFinder itself on
the per-probe bill.  This bench times both arms on a tseng-class
circuit at the evaluation width and checks the QoR is bit-identical —
the speedup must come from representation, not from routing
differently.
"""

import os
import sys
import time

import pytest

from repro.fabric import fabric_cache, get_fabric
from repro.netlist import MCNC20_PARAMS
from repro.vpr import find_min_channel_width, route_design
from repro.vpr.route import PathFinderRouter, build_route_nets

from conftest import BENCH_ARCH, BENCH_SCALE

# The reference graph lives with the tests; a bare `pytest benchmarks/`
# does not put the repository root on sys.path.
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
from tests.fabric.reference_rrgraph import RRGraph, to_fabric  # noqa: E402

#: Repeat probes per arm: what a Wmin search + variant evaluation loop
#: asks of one width in practice.
PROBES = 5

#: Conservative gate below the observed ~3x so machine noise cannot
#: flake CI; the printed table reports the real figure (target >= 2x).
MIN_SPEEDUP = 1.5


def _tseng_placement(flow_cache):
    params = next(p for p in MCNC20_PARAMS if p.name == "tseng")
    return flow_cache.flow(params.scaled(BENCH_SCALE)).placement


def _tree_shapes(routing):
    return {
        name: sorted(tree.parent.items())
        for name, tree in routing.trees.items()
    }


@pytest.mark.benchmark(group="fabric-ir")
def test_fabric_ir_route_speedup(benchmark, flow_cache):
    placement = _tseng_placement(flow_cache)
    nets = build_route_nets(placement)
    nx, ny = placement.grid_width, placement.grid_height

    def legacy_probe():
        graph = RRGraph(BENCH_ARCH, nx, ny)  # rebuilt every probe
        return PathFinderRouter(to_fabric(graph)).route(nets)

    def ir_probe():
        ir = get_fabric(BENCH_ARCH, nx, ny)  # cache after first probe
        return PathFinderRouter(ir).route(nets)

    def run():
        ir_probe()  # populate the cache: steady-state comparison
        t0 = time.perf_counter()
        for _ in range(PROBES):
            r_legacy = legacy_probe()
        t_legacy = (time.perf_counter() - t0) / PROBES
        t0 = time.perf_counter()
        for _ in range(PROBES):
            r_ir = ir_probe()
        t_ir = (time.perf_counter() - t0) / PROBES
        return t_legacy, t_ir, r_legacy, r_ir

    t_legacy, t_ir, r_legacy, r_ir = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    speedup = t_legacy / t_ir

    print(f"\n=== FabricIR route micro-bench (tseng, scale {BENCH_SCALE}, "
          f"W = {BENCH_ARCH.channel_width}) ===")
    print(f"{'arm':>18s} {'ms/probe':>10s}")
    print(f"{'legacy rebuild':>18s} {t_legacy * 1e3:10.1f}")
    print(f"{'FabricIR cached':>18s} {t_ir * 1e3:10.1f}")
    print(f"speedup: {speedup:.2f}x over {PROBES} probes (target >= 2x)")

    # Identical QoR: the IR must route the same, not just fast.
    assert r_legacy.success and r_ir.success
    assert r_legacy.wirelength == r_ir.wirelength
    assert r_legacy.iterations == r_ir.iterations
    assert _tree_shapes(r_legacy) == _tree_shapes(r_ir)
    assert speedup >= MIN_SPEEDUP, (
        f"FabricIR probe speedup {speedup:.2f}x below {MIN_SPEEDUP}x gate"
    )


@pytest.mark.benchmark(group="fabric-ir")
def test_wmin_search_reuses_cached_fabric(benchmark, flow_cache):
    """The Wmin binary search + final route must hit the IR cache.

    Every probe width lands in the cache; routing the design at the
    derived Wmin afterwards (what the flow and every variant
    evaluation do) reuses a probe's IR instead of rebuilding.
    """
    placement = _tseng_placement(flow_cache)
    cache = fabric_cache()

    def run():
        cache.clear()
        hits_before, misses_before = cache.hits, cache.misses
        wmin, _result, search_graph = find_min_channel_width(
            placement, BENCH_ARCH, start=16
        )
        routing, graph = route_design(placement, BENCH_ARCH, channel_width=wmin)
        return (
            wmin, routing, graph, search_graph,
            cache.hits - hits_before, cache.misses - misses_before,
        )

    wmin, routing, graph, search_graph, hits, misses = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    print(f"\nwmin = {wmin}: {misses} fabric builds, {hits} cache hits "
          f"across search + final route")
    assert routing.success
    assert hits >= 1, "final route at Wmin must reuse a probe's FabricIR"
    assert graph is search_graph, "same width -> same cached IR instance"
