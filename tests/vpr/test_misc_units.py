"""Smaller unit tests filling coverage gaps across the VPR substrate."""

import dataclasses

import pytest

from repro.arch.params import ArchParams
from repro.core.variants import baseline_variant, optimized_nem_variant
from repro.vpr.timing import estimate_hop_delay

from .conftest import ARCH


class TestFabricElectricalHelpers:
    def test_stage_input_cap_with_buffer(self):
        fabric = baseline_variant(ARCH).fabric()
        assert fabric.stage_input_cap() == pytest.approx(
            fabric.wire_buffer.input_capacitance
        )

    def test_stage_input_cap_without_buffer(self):
        fabric = dataclasses.replace(baseline_variant(ARCH).fabric(), wire_buffer=None)
        assert fabric.stage_input_cap() == 0.0

    def test_sink_input_cap_prefers_buffer(self):
        base = baseline_variant(ARCH).fabric()
        assert base.sink_input_cap() == pytest.approx(
            base.lb_input_buffer.input_capacitance
        )

    def test_sink_input_cap_uses_crossbar_row_when_unbuffered(self):
        opt = optimized_nem_variant(ARCH, 4.0).fabric()
        assert opt.lb_input_buffer is None
        assert opt.sink_input_cap() == pytest.approx(opt.crossbar_row_cap)

    def test_wire_off_load_product(self):
        fabric = baseline_variant(ARCH).fabric()
        assert fabric.wire_off_load == pytest.approx(
            fabric.off_taps_per_wire * fabric.switch_c_off
        )

    def test_hop_delay_unbuffered_branch(self):
        fabric = dataclasses.replace(baseline_variant(ARCH).fabric(), wire_buffer=None)
        assert estimate_hop_delay(fabric, 1.0) > 0


class TestDynamicPowerLocalHops:
    def test_num_local_hops_rescales(self):
        from repro.netlist.generate import GeneratorParams, generate
        from repro.power.activity import estimate_activities
        from repro.power.dynamic import dynamic_power

        netlist = generate(GeneratorParams("hops", num_luts=40, seed=2))
        activities = estimate_activities(netlist)
        spec = baseline_variant(ARCH).dynamic_spec()
        kwargs = dict(
            netlist=netlist, net_delays={}, activities=activities,
            spec=spec, frequency=1e9, num_tiles=25,
        )
        default = dynamic_power(**kwargs)
        estimated_hops = sum(len(lut.inputs) for lut in netlist.luts)
        doubled = dynamic_power(**kwargs, num_local_hops=2 * estimated_hops)
        assert doubled["local_interconnect"] == pytest.approx(
            2 * default["local_interconnect"]
        )


class TestRoutingResultFields:
    def test_wirelength_counts_spans(self, routed):
        result, graph = routed
        from repro.fabric import KIND_HWIRE, KIND_VWIRE

        manual = 0
        for tree in result.trees.values():
            for node_id in tree.nodes:
                if graph.kind[node_id] in (KIND_HWIRE, KIND_VWIRE):
                    manual += int(graph.spans[node_id])
        assert result.wirelength == manual

    def test_iterations_positive(self, routed):
        result, _graph = routed
        assert result.iterations >= 1


class TestVariantAblationKnob:
    def test_keep_lb_buffers_hybrid(self):
        from repro.core.variants import FpgaVariant, VariantConfig, VariantKind

        hybrid = FpgaVariant(
            ARCH, VariantConfig(VariantKind.CMOS_NEM_OPT, 8.0, keep_lb_buffers=True)
        )
        assert hybrid.lb_input_buffer is not None
        assert hybrid.lb_output_buffer is not None
        full = optimized_nem_variant(ARCH, 8.0)
        # Keeping LB buffers costs CMOS area relative to the full
        # technique (footprint may tie if relay-limited).
        assert hybrid.area.cmos_mwta > full.area.cmos_mwta

    def test_keep_lb_buffers_rejected_off_opt(self):
        from repro.core.variants import VariantConfig, VariantKind

        with pytest.raises(ValueError):
            VariantConfig(VariantKind.CMOS_ONLY, keep_lb_buffers=True)
