"""Tests for repro.vpr.flow (Wmin derivation, end-to-end driver)."""

import pytest

from repro.arch.params import ArchParams
from repro.netlist.generate import GeneratorParams, generate
from repro.vpr.flow import (
    derive_architecture_width,
    find_min_channel_width,
    low_stress_width,
    run_flow,
)
from repro.vpr.pack import pack
from repro.vpr.place import place


@pytest.fixture(scope="module")
def small_placement():
    netlist = generate(GeneratorParams("flow", num_luts=60, seed=8))
    clustered = pack(netlist, ArchParams(channel_width=48))
    return place(clustered, seed=2)


class TestLowStress:
    def test_twenty_percent_margin(self):
        # Paper: Wmin 98 -> W = 118 (98 * 1.2 = 117.6, rounded up).
        assert low_stress_width(98) == 118

    def test_rounds_up(self):
        assert low_stress_width(10) == 12
        assert low_stress_width(11) == 14  # 13.2 -> 14

    def test_rejects_bad_wmin(self):
        with pytest.raises(ValueError):
            low_stress_width(0)


class TestWminSearch:
    def test_finds_minimal_width(self, small_placement):
        wmin, result, _graph = find_min_channel_width(small_placement, start=8)
        assert result.success
        # One below Wmin must fail (minimality), unless at the floor.
        if wmin > 2:
            from repro.vpr.route import route_design

            below, _ = route_design(
                small_placement, channel_width=wmin - 1, max_iterations=60
            )
            assert not below.success

    def test_graph_matches_width(self, small_placement):
        wmin, _result, graph = find_min_channel_width(small_placement, start=8)
        assert graph.params.channel_width == wmin

    def test_never_probes_width_one(self):
        """apex4 at scale 0.02 routes at W=12 and W=3: the bisection
        must stop at W=2, not probe W=1 (which `ArchParams` rejects)."""
        from repro.netlist import MCNC20_PARAMS

        apex4 = next(p for p in MCNC20_PARAMS if p.name == "apex4")
        arch = ArchParams(channel_width=64)
        placement = place(pack(generate(apex4.scaled(0.02)), arch), seed=1)
        wmin, result, graph = find_min_channel_width(placement, arch)
        assert wmin >= 2
        assert result.success
        assert graph.params.channel_width == wmin


class TestRunFlow:
    def test_end_to_end(self):
        netlist = generate(GeneratorParams("e2e", num_luts=60, seed=9))
        flow = run_flow(netlist, ArchParams(channel_width=48), seed=1)
        assert flow.success
        assert flow.channel_width == 48
        assert flow.graph.params.channel_width == 48

    def test_width_override(self):
        netlist = generate(GeneratorParams("e2e2", num_luts=60, seed=9))
        flow = run_flow(netlist, ArchParams(channel_width=118), channel_width=40)
        assert flow.channel_width == 40


class TestDeriveArchitectureWidth:
    def test_suite_derivation(self):
        netlists = [
            generate(GeneratorParams(f"d{i}", num_luts=50 + 10 * i, seed=20 + i))
            for i in range(2)
        ]
        result = derive_architecture_width(netlists, ArchParams(channel_width=48))
        assert set(result["wmin_per_circuit"]) == {"d0", "d1"}
        assert result["wmin"] == max(result["wmin_per_circuit"].values())
        assert result["low_stress_width"] == low_stress_width(result["wmin"])
