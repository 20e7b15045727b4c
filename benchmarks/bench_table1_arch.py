"""Table 1 — FPGA architecture parameters and tile composition.

Paper Table 1: N=10, K=4, L=4, Fcin=0.2, Fcout=0.1, Fs=3; the derived
channel width is W = 118.  This bench regenerates the parameter table,
the per-tile component inventory they imply, and times the routing-
resource graph construction for a representative fabric.
"""

import pytest

from repro.arch import PAPER_ARCH, build_inventory
from repro.fabric import FabricIR

PAPER_TABLE1 = {
    "N (LUTs per LB)": 10,
    "K (inputs per LUT)": 4,
    "L (segment length)": 4,
    "Fcin": 0.2,
    "Fcout": 0.1,
    "Fs": 3,
}


def run_table1():
    inventory = build_inventory(PAPER_ARCH)
    graph = FabricIR.build(PAPER_ARCH.with_channel_width(40), nx=8, ny=8)
    return inventory, graph


@pytest.mark.benchmark(group="table1")
def test_table1_architecture(benchmark):
    inventory, graph = benchmark(run_table1)

    print("\n=== Table 1: architecture parameters ===")
    model = {
        "N (LUTs per LB)": PAPER_ARCH.n,
        "K (inputs per LUT)": PAPER_ARCH.k,
        "L (segment length)": PAPER_ARCH.segment_length,
        "Fcin": PAPER_ARCH.fc_in,
        "Fcout": PAPER_ARCH.fc_out,
        "Fs": PAPER_ARCH.fs,
    }
    print(f"{'parameter':>22s} {'paper':>8s} {'model':>8s}")
    for key, paper_value in PAPER_TABLE1.items():
        print(f"{key:>22s} {paper_value!s:>8s} {model[key]!s:>8s}")
    print(f"{'W (channel width)':>22s} {'118':>8s} {PAPER_ARCH.channel_width!s:>8s}")
    print(f"{'I (LB inputs)':>22s} {'(K/2)(N+1)':>8s} {PAPER_ARCH.inputs_per_lb!s:>8s}")

    print("\nper-tile inventory at W = 118:")
    print(f"  routing buffers: {inventory.lb_input_buffers} LB-in + "
          f"{inventory.lb_output_buffers} LB-out + {inventory.wire_buffers} wire")
    print(f"  routing switches: {inventory.cb_switches} CB + {inventory.sb_switches} SB; "
          f"crossbar crosspoints: {inventory.crossbar_switches}")
    print(f"  configuration bits: {inventory.routing_sram_bits} routing + "
          f"{inventory.crossbar_sram_bits} crossbar + {inventory.lut_sram_bits} LUT")
    print(f"RR graph (8x8 tiles, W=40): {graph.num_nodes} nodes, {graph.num_edges} edges")

    assert model == PAPER_TABLE1
    assert PAPER_ARCH.channel_width == 118
    assert PAPER_ARCH.inputs_per_lb == 22
    assert inventory.wire_buffers == 59  # ceil(2 * 118 / 4)
    assert graph.num_nodes > 0 and graph.num_edges > 0
