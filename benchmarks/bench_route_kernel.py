"""Routing-kernel bench — reference Python walk vs the numpy and C walks.

PathFinder's inner expansion loop dominates the whole flow at
evaluation scale, so the kernels of `repro.vpr.route_kernels` are the
difference between minutes and seconds per route.  This bench times
the reference walk (`tests/vpr/reference_kernel.py`), the numpy walk
and the compiled C walk on the same tseng routing job and checks the
results are *bit-identical* — the speedup must come from how the
search executes, never from searching differently (that contract is
what keeps the kernel out of store cache keys; see
tests/vpr/test_route_kernels.py for the full differential harness).

Defaults reproduce the headline measurement: full-size tseng at
W = 56, where the numpy kernel clears 3x over the reference.  Knobs:

    REPRO_BENCH_ROUTE_SCALE  circuit shrink factor (default 1.0 —
                             unlike the other benches, this one runs
                             full size, where the kernels differ most)
    REPRO_BENCH_ROUTE_W      channel width (default 56)

A second, fixed arm races the kernels on a graph of the size the
channel-width search probes (tseng at scale 0.03, W = 12: under 1,500
RR nodes), where the router also runs the C walk.

The full-size arm records its per-arm seconds and the numpy and C
speedups as the attrs of a ``bench.route_kernel`` root span in the
session's ``BENCH_run.jsonl``, so ``repro db trend
span.bench.route_kernel.speedup_c`` tracks kernel performance across
commits.  Without a C compiler the C arm is skipped.
"""

import os
import statistics
import sys
import time

import pytest

from repro.fabric import get_fabric
from repro.netlist import load_circuit
from repro.arch import ArchParams
from repro.vpr.route import PathFinderRouter, build_route_nets
from repro.vpr.pack import pack
from repro.vpr.place import place
from repro.vpr.route_kernels import compiled_walk

from conftest import record_bench

# The reference walk lives with the tests; a bare `pytest benchmarks/`
# does not put the repository root on sys.path.
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
from tests.vpr.reference_kernel import PythonKernel  # noqa: E402

ROUTE_SCALE = float(os.environ.get("REPRO_BENCH_ROUTE_SCALE", "1.0"))
ROUTE_W = int(os.environ.get("REPRO_BENCH_ROUTE_W", "56"))
ROUTE_ARCH = ArchParams(channel_width=ROUTE_W)

#: Conservative gates below the observed figures so machine noise
#: cannot flake CI; the printed table reports the real numbers.
#: Observed on the full-size default: numpy 3.2x (target >= 3x).
MIN_SPEEDUP_NUMPY = 2.0
#: The floor on shrunk runs, which the small-graph arm also uses.
MIN_SPEEDUP_SHRUNK = 1.2
#: The C walk over the numpy walk, at any size (observed: 8.3x at full
#: size, 2.3x on the small graph).
MIN_SPEEDUP_C_OVER_NUMPY = 1.5
#: The small-graph arm: a Wmin-probe-sized tseng.
SMALL_SCALE, SMALL_W = 0.03, 12
#: Rounds on the small graph, whose route takes well under a second.
#: Each round times both arms back to back in process CPU time, and
#: the gate reads the median of the per-round ratios: a slow spell on
#: a shared host then slows both arms of a round alike instead of
#: landing on one arm's best time.
SMALL_ROUNDS = 15


def bench_arms():
    """Arm name -> the kernel the router runs it with; the C arm only
    where the compiled walk builds."""
    arms = {"python": PythonKernel, "numpy": "numpy"}
    if compiled_walk() is not None:
        arms["c"] = "c"
    return arms


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

    arms = bench_arms()

    def run():
        times, results = {}, {}
        for name, kernel in arms.items():
            router = PathFinderRouter(graph, kernel=kernel)
            t0 = time.perf_counter()
            results[name] = router.route(nets)
            times[name] = time.perf_counter() - t0
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
    for kernel in list(arms)[1:]:
        assert _fingerprint(results[kernel]) == ref, (
            f"kernel {kernel!r} diverged from the reference walk")

    numbers = {f"t_{k}": times[k] for k in arms}
    numbers.update({f"speedup_{k}": speedups[k] for k in list(arms)[1:]})
    record_bench("route_kernel", bench_scale=ROUTE_SCALE, route_w=ROUTE_W,
                 rr_nodes=graph.num_nodes, **numbers)

    # A loose not-slower floor on shrunk runs, the full gate at the
    # full-size default where the observed figure (3.2x) leaves real
    # headroom.
    gate = MIN_SPEEDUP_NUMPY if ROUTE_SCALE >= 1.0 else MIN_SPEEDUP_SHRUNK
    assert speedups["numpy"] >= gate, (
        f"numpy kernel speedup {speedups['numpy']:.2f}x below the "
        f"{gate}x gate")
    if "c" in arms:
        c_gain = times["numpy"] / times["c"]
        assert c_gain >= MIN_SPEEDUP_C_OVER_NUMPY, (
            f"C walk {c_gain:.2f}x over numpy, below the "
            f"{MIN_SPEEDUP_C_OVER_NUMPY}x gate")


@pytest.mark.benchmark(group="route-kernel")
def test_route_kernel_small_graph(benchmark):
    arch = ArchParams(channel_width=SMALL_W)
    placement = place(pack(load_circuit("tseng", scale=SMALL_SCALE), arch),
                      seed=1)
    nets = build_route_nets(placement)
    graph = get_fabric(arch, placement.grid_width, placement.grid_height)
    assert graph.num_nodes < 1500

    arms = bench_arms()

    def run():
        times = {k: [] for k in arms}
        results = {}
        for _ in range(SMALL_ROUNDS):
            for name, kernel in arms.items():
                router = PathFinderRouter(graph, kernel=kernel)
                t0 = time.process_time()
                results[name] = router.route(nets)
                times[name].append(time.process_time() - t0)
        return times, results

    times, results = benchmark.pedantic(run, rounds=1, iterations=1)

    def ratio(slow, fast):
        return statistics.median(
            s / f for s, f in zip(times[slow], times[fast]))

    speedup = ratio("python", "numpy")

    print(f"\n=== Routing-kernel bench, small graph (tseng, scale "
          f"{SMALL_SCALE}, W = {SMALL_W}, {graph.num_nodes} RR nodes, "
          f"{SMALL_ROUNDS} rounds, CPU time) ===")
    print(f"{'kernel':>10s} {'best s':>9s} {'median s':>9s}")
    for kernel in arms:
        print(f"{kernel:>10s} {min(times[kernel]):9.4f} "
              f"{statistics.median(times[kernel]):9.4f}")
    print(f"{'speedup':>10s} {speedup:8.2f}x (numpy, median per-round ratio)")

    for kernel in list(arms)[1:]:
        assert _fingerprint(results[kernel]) == _fingerprint(results["python"]), (
            f"kernel {kernel!r} diverged from the reference walk")
    assert speedup >= MIN_SPEEDUP_SHRUNK, (
        f"numpy kernel speedup {speedup:.2f}x below the "
        f"{MIN_SPEEDUP_SHRUNK}x gate on a small graph")
    if "c" in arms:
        c_gain = ratio("numpy", "c")
        print(f"{'C/numpy':>10s} {c_gain:8.2f}x (median per-round ratio)")
        assert c_gain >= MIN_SPEEDUP_C_OVER_NUMPY, (
            f"C walk {c_gain:.2f}x over numpy on a small graph, below "
            f"the {MIN_SPEEDUP_C_OVER_NUMPY}x gate")
