"""Routing-kernel bench — reference Python walk vs the numpy kernel.

PathFinder's inner expansion loop dominates the whole flow at
evaluation scale, so the vectorised kernel (`repro.vpr.route_kernels`)
is the difference between minutes and seconds per route.  This bench
times both kernels on the same tseng routing job and checks
the results are *bit-identical* — the speedup must come from how the
search executes, never from searching differently (that contract is
what keeps the kernel out of store cache keys; see
tests/vpr/test_route_kernels.py for the full differential harness).

Defaults reproduce the headline measurement: full-size tseng at
W = 56, where the numpy kernel clears 3x over the reference.  Knobs:

    REPRO_BENCH_ROUTE_SCALE  circuit shrink factor (default 1.0 —
                             unlike the other benches, this one runs
                             full size: the numpy arm only pays off
                             on graphs past ~4k nodes)
    REPRO_BENCH_ROUTE_W      channel width (default 56)

A ``BENCH_route_kernel.json`` lands next to the other bench telemetry
(same shape `repro bench-history append` consumes), with the per-arm
seconds and the speedups as its ``stages``, so the bench-history
trajectory tracks kernel-performance regressions across commits.
"""

import os
import time

import pytest

from repro.fabric import get_fabric
from repro.netlist import load_circuit
from repro.obs import run_manifest, write_json
from repro.obs.analyze import append_history, summarize_bench
from repro.arch import ArchParams
from repro.vpr.route import PathFinderRouter, build_route_nets
from repro.vpr.route_kernels import NUMPY_MIN_NODES
from repro.vpr.pack import pack
from repro.vpr.place import place

from conftest import BENCH_HISTORY, BENCH_TELEMETRY, BENCH_TELEMETRY_DIR

ROUTE_SCALE = float(os.environ.get("REPRO_BENCH_ROUTE_SCALE", "1.0"))
ROUTE_W = int(os.environ.get("REPRO_BENCH_ROUTE_W", "56"))
ROUTE_ARCH = ArchParams(channel_width=ROUTE_W)

#: Conservative gates below the observed figures so machine noise
#: cannot flake CI; the printed table reports the real numbers.
#: Observed on the full-size default: numpy 3.2x (target >= 3x).
MIN_SPEEDUP_NUMPY = 2.0


def _fingerprint(result):
    import dataclasses

    return dataclasses.asdict(result)


@pytest.mark.benchmark(group="route-kernel")
def test_route_kernel_speedup(benchmark):
    netlist = load_circuit("tseng", scale=ROUTE_SCALE)
    clustered = pack(netlist, ROUTE_ARCH)
    placement = place(clustered, seed=1)
    nets = build_route_nets(placement)
    graph = get_fabric(
        ROUTE_ARCH, placement.grid_width, placement.grid_height)

    arms = ["python", "numpy"]

    def run():
        times, results = {}, {}
        for kernel in arms:
            router = PathFinderRouter(graph, kernel=kernel)
            t0 = time.perf_counter()
            results[kernel] = router.route(nets)
            times[kernel] = time.perf_counter() - t0
        return times, results

    times, results = benchmark.pedantic(run, rounds=1, iterations=1)
    ref = _fingerprint(results["python"])
    speedups = {k: times["python"] / times[k] for k in arms}

    print(f"\n=== Routing-kernel bench (tseng, scale {ROUTE_SCALE}, "
          f"W = {ROUTE_W}, {graph.num_nodes} RR nodes) ===")
    print(f"{'kernel':>10s} {'seconds':>9s} {'speedup':>8s}")
    for kernel in arms:
        print(f"{kernel:>10s} {times[kernel]:9.2f} {speedups[kernel]:7.2f}x")

    # Bit-identical results before any timing claim: same trees, same
    # iteration trace, same outcome — success or failure alike.
    for kernel in arms[1:]:
        assert _fingerprint(results[kernel]) == ref, (
            f"kernel {kernel!r} diverged from the reference walk")

    if BENCH_TELEMETRY:
        stages = {f"t_{k}": times[k] for k in arms}
        stages.update({f"speedup_{k}": speedups[k] for k in arms[1:]})
        doc = {
            "circuit": "tseng-route-kernel",
            "manifest": run_manifest(
                arch=ROUTE_ARCH,
                extra={"bench_scale": ROUTE_SCALE,
                       "route_w": ROUTE_W,
                       "rr_nodes": graph.num_nodes}),
            "telemetry": {"flows": [], "stages": stages},
        }
        path = os.path.join(BENCH_TELEMETRY_DIR, "BENCH_route_kernel.json")
        write_json(path, doc)
        if BENCH_HISTORY:
            append_history(BENCH_HISTORY, [summarize_bench(doc, source=path)])

    # The numpy arm only pays off past ~NUMPY_MIN_NODES (the router
    # keeps the reference below that), so the gate matches: nothing enforced
    # on small graphs, a loose not-slower floor on shrunk-but-large
    # runs, the full gate at the full-size default where the observed
    # figure (3.2x) leaves real headroom.
    if graph.num_nodes >= NUMPY_MIN_NODES:
        gate = MIN_SPEEDUP_NUMPY if ROUTE_SCALE >= 1.0 else 1.2
        assert speedups["numpy"] >= gate, (
            f"numpy kernel speedup {speedups['numpy']:.2f}x below the "
            f"{gate}x gate")
