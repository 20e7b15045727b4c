"""Extension — defect tolerance: BIST + defect-avoidance rerouting.

The paper's relays have finite reliable cycles and contact-quality
spread; a production relay FPGA would map dead crosspoints (BIST) and
route around them (reconfiguration as repair).  This bench measures
both halves: BIST accuracy on fault-injected arrays, and routing
success as a function of the dead-switch fraction.
"""

import random

import pytest

from repro.crossbar import StuckMode, faulty_crossbar, run_bist, solve_voltages
from repro.fabric import KIND_HWIRE, KIND_VWIRE, FabricIR
from repro.nemrelay import ActuationModel, AIR, POLYSILICON, SCALED_22NM_DEVICE
from repro.netlist import MCNC20_PARAMS, generate
from repro.vpr import PathFinderRouter, build_route_nets
from repro.vpr.pack import pack
from repro.vpr.place import place

from conftest import BENCH_ARCH, BENCH_SCALE

MODEL = ActuationModel(POLYSILICON, SCALED_22NM_DEVICE, AIR)
DEFECT_FRACTIONS = (0.0, 0.02, 0.05, 0.10, 0.20)


def run_defects():
    # Part 1: BIST on a fault-injected 8x8 array.
    voltages = solve_voltages([MODEL.pull_in], [MODEL.pull_out])
    rng = random.Random(3)
    coords = [(r, c) for r in range(8) for c in range(8)]
    injected = {
        coord: rng.choice(list(StuckMode))
        for coord in rng.sample(coords, 6)
    }
    defects = run_bist(faulty_crossbar(8, 8, MODEL, injected), voltages)

    # Part 2: routing success vs dead-wire fraction.
    params = next(p for p in MCNC20_PARAMS if p.name == "diffeq").scaled(BENCH_SCALE * 2)
    netlist = generate(params)
    clustered = pack(netlist, BENCH_ARCH)
    placement = place(clustered, seed=1)
    nets = build_route_nets(placement)
    rows = []
    for fraction in DEFECT_FRACTIONS:
        graph = FabricIR.build(BENCH_ARCH, placement.grid_width, placement.grid_height)
        wires = graph.nodes_of_kind(KIND_HWIRE, KIND_VWIRE).tolist()
        blocked = set(rng.sample(wires, int(fraction * len(wires))))
        router = PathFinderRouter(graph, blocked_nodes=blocked)
        result = router.route(nets)
        rows.append((fraction, result.success, result.wirelength, result.iterations))
    return injected, defects, rows


@pytest.mark.benchmark(group="extension")
def test_extension_defect_tolerance(benchmark):
    injected, defects, rows = benchmark.pedantic(run_defects, rounds=1, iterations=1)

    print("\n=== Extension: BIST defect mapping (8x8 array, 6 faults) ===")
    print(f"injected: {sorted(injected)}")
    print(f"found   : stuck-open {sorted(defects.stuck_open)}, "
          f"stuck-closed {sorted(defects.stuck_closed)}")
    print("\n=== Extension: routing vs dead-switch fraction ===")
    print(f"{'dead %':>7s} {'routes?':>8s} {'wirelength':>11s} {'iterations':>11s}")
    for fraction, success, wirelength, iterations in rows:
        print(f"{100 * fraction:7.0f} {success!s:>8s} {wirelength:11d} {iterations:11d}")

    # BIST recovers the injected fault set exactly.
    expected_open = {c for c, m in injected.items() if m is StuckMode.STUCK_OPEN}
    expected_closed = {c for c, m in injected.items() if m is StuckMode.STUCK_CLOSED}
    assert defects.stuck_open == expected_open
    assert defects.stuck_closed == expected_closed
    # The fabric absorbs up to 20% dead switches at the low-stress
    # channel width (spare capacity doubles as repair headroom), and
    # detours keep wirelength within a narrow band of the clean route.
    clean_wl = rows[0][2]
    for _fraction, success, wirelength, _iterations in rows:
        assert success
        assert abs(wirelength - clean_wl) < 0.2 * clean_wl
