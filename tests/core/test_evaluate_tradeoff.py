"""Tests for repro.core.evaluate / tradeoff / report (Fig. 12)."""

import dataclasses
import hashlib
import json

import pytest

import repro.core.tradeoff as tradeoff
from repro.arch.params import ArchParams
from repro.core.evaluate import Comparison, evaluate_design
from repro.core.report import (
    PAPER_HEADLINE,
    PAPER_NAIVE,
    format_fig12_table,
    format_headline,
    headline_summary,
)
from repro.core.tradeoff import (
    DEFAULT_DOWNSIZE_SWEEP,
    fig12_series,
    geomean_curve,
    sweep_circuit,
)
from repro.core.variants import baseline_variant, optimized_nem_variant
from repro.netlist.generate import GeneratorParams, generate
from repro.obs import Tracer, get_registry, use_tracer
from repro.vpr.flow import run_flow

ARCH = ArchParams(channel_width=48)
SWEEP = (1.0, 4.0, 8.0, 16.0)


@pytest.fixture(scope="module")
def flow():
    netlist = generate(GeneratorParams("core", num_luts=90, ff_fraction=0.25, seed=13))
    result = run_flow(netlist, ARCH)
    assert result.success
    return result


@pytest.fixture(scope="module")
def curve(flow):
    return sweep_circuit(flow, ARCH, downsizes=SWEEP)


class TestEvaluateDesign:
    def test_baseline_point(self, flow):
        point = evaluate_design(flow, baseline_variant(ARCH))
        assert point.critical_path > 0
        assert point.total_dynamic > 0
        assert point.total_leakage > 0
        assert point.frequency == pytest.approx(1.0 / point.critical_path)

    def test_frequency_override(self, flow):
        point = evaluate_design(flow, baseline_variant(ARCH), frequency=5e8)
        assert point.frequency == 5e8

    def test_comparison_ratios(self, flow):
        base = evaluate_design(flow, baseline_variant(ARCH))
        nem = evaluate_design(
            flow, optimized_nem_variant(ARCH, 8.0), frequency=base.frequency
        )
        cmp = Comparison.of(base, nem)
        assert cmp.leakage_reduction > 1.0
        assert cmp.dynamic_reduction > 1.0
        assert cmp.area_reduction > 1.0


class TestSweep:
    def test_point_per_downsize(self, curve):
        assert [p.downsize for p in curve.points] == list(SWEEP)

    def test_speedup_decreases_with_downsize(self, curve):
        speedups = [p.speedup for p in curve.points]
        assert speedups == sorted(speedups, reverse=True)

    def test_leakage_reduction_increases_with_downsize(self, curve):
        leaks = [p.leakage_reduction for p in curve.points]
        assert leaks == sorted(leaks)

    def test_naive_point_present(self, curve):
        assert curve.naive is not None
        assert curve.naive.leakage_reduction > 1.0

    def test_preferred_corner_no_speed_penalty(self, curve):
        corner = curve.preferred_corner()
        assert corner.speedup >= 1.0

    def test_fig12_series_shapes(self, curve):
        series = fig12_series(curve)
        assert len(series["speedup"]) == len(SWEEP)
        assert set(series) == {"speedup", "dynamic_reduction", "leakage_reduction", "downsize"}


class TestHeadline:
    def test_paper_shape_reproduced(self, curve):
        """The headline claim: large leakage and dynamic reductions at
        ~2x area with no speed penalty."""
        corner = curve.preferred_corner()
        assert corner.leakage_reduction > 5.0      # paper: 10x
        assert corner.dynamic_reduction > 1.5      # paper: 2x
        assert 1.5 < corner.area_reduction < 3.0   # paper: 2x
        assert corner.speedup >= 1.0               # no speed penalty

    def test_naive_much_weaker_than_technique(self, curve):
        """The technique's whole point (paper Sec. 3.4 comparison)."""
        corner = curve.preferred_corner()
        naive = curve.naive
        assert corner.leakage_reduction > 2.0 * naive.leakage_reduction
        assert corner.dynamic_reduction > naive.dynamic_reduction

    def test_naive_matches_paper_band(self, curve):
        naive = curve.naive
        assert 1.4 < naive.leakage_reduction < 3.0   # paper: 2x
        assert 1.1 < naive.dynamic_reduction < 1.6   # paper: 1.3x

    def test_summary_and_formatting(self, curve):
        summary = headline_summary([curve])
        text = format_headline(summary)
        assert "leakage reduction" in text
        assert "naive" in text.lower() or "Without" in text
        table = format_fig12_table([curve])
        assert curve.circuit in table

    def test_geomean_of_single_curve_identity(self, curve):
        agg = geomean_curve([curve])
        for a, b in zip(agg.points, curve.points):
            assert a.speedup == pytest.approx(b.speedup)

    def test_paper_reference_constants(self):
        assert PAPER_HEADLINE["leakage_reduction"] == 10.0
        assert PAPER_NAIVE["area_reduction"] == 1.8


#: sha256 of `_curve_digest` over the full default sweep per circuit.
#: Every float of the sweep enters the hash exactly (JSON floats
#: round-trip), so a change in STA, power or leakage arithmetic --
#: even in the last bit, or in a dict's insertion order -- moves it.
GOLDEN_SWEEP_DIGESTS = {
    "core": "1c88fe29224fbc10ec47d136c8daec363deec3a56c4e2f92020cef124e3b1c4a",
    "comb": "e71c0562cc1ac1dd00b6adfdf252643e23a889c73a863d598ff1d0b6098f34db",
}

DIGEST_CIRCUITS = {
    "core": GeneratorParams("core", num_luts=90, ff_fraction=0.25, seed=13),
    "comb": GeneratorParams("comb", num_luts=60, ff_fraction=0.0, seed=5),
}


def _design_point_doc(point):
    timing = point.timing
    return {
        "circuit": point.circuit,
        "critical_path": point.critical_path,
        "frequency": point.frequency,
        "dynamic": point.dynamic,
        "leakage": point.leakage,
        "tile_footprint_m2": point.tile_footprint_m2,
        "critical_block": timing.critical_block,
        "arrival": timing.arrival,
        "worst_predecessor": timing.worst_predecessor,
        "endpoint_predecessor": timing.endpoint_predecessor,
        "net_delays": {
            name: {
                "delay_to_tile": sorted([list(k), v] for k, v in nd.delay_to_tile.items()),
                "cap_wire": nd.cap_wire,
                "cap_buffer": nd.cap_buffer,
                "cap_switch": nd.cap_switch,
                "num_stages": nd.num_stages,
            }
            for name, nd in timing.net_delays.items()
        },
    }


def _curve_digest(curve):
    doc = {
        "circuit": curve.circuit,
        "points": [dataclasses.asdict(p) for p in curve.points],
        "baseline": _design_point_doc(curve.baseline),
        "naive": dataclasses.asdict(curve.naive),
    }
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(DIGEST_CIRCUITS))
def test_sweep_golden_digest(name):
    """Pinned Fig. 12 sweep: every `TradeoffPoint`, the baseline
    `DesignPoint` with its full STA report, and the naive comparison."""
    flow = run_flow(generate(DIGEST_CIRCUITS[name]), ARCH)
    assert flow.success
    curve = sweep_circuit(flow, ARCH, downsizes=DEFAULT_DOWNSIZE_SWEEP)
    assert _curve_digest(curve) == GOLDEN_SWEEP_DIGESTS[name]


class TestSweepTelemetry:
    """What traced runs and perfbench read off one sweep."""

    @pytest.fixture
    def traced_sweep(self, flow, monkeypatch):
        """Sweep under a tracer, recording each evaluation through the
        module attribute perfbench's ``--trace 1`` rebinds."""
        evaluated = []
        real = tradeoff.evaluate_design

        def recording(flow, variant, **kwargs):
            point = real(flow, variant, **kwargs)
            evaluated.append((variant, kwargs.get("frequency"), point))
            return point

        monkeypatch.setattr(tradeoff, "evaluate_design", recording)
        get_registry().reset()
        tracer = Tracer()
        with use_tracer(tracer):
            sweep_circuit(flow, ARCH, downsizes=DEFAULT_DOWNSIZE_SWEEP)
        sta_runs = get_registry().snapshot()["timing.sta_runs"]["value"]
        get_registry().reset()
        return tracer, evaluated, sta_runs

    def test_one_evaluate_span_per_point(self, traced_sweep):
        tracer, evaluated, sta_runs = traced_sweep
        spans = [s for s in tracer.roots if s.name == "evaluate"]
        assert len(spans) == len(evaluated) == len(DEFAULT_DOWNSIZE_SWEEP) + 2
        assert sta_runs == len(spans)
        for span, (_variant, _f, point) in zip(spans, evaluated):
            assert [c.name for c in span.children] == ["timing.sta"]
            assert point.produced_by is not None
            assert point.produced_by == span.span_id

    def test_span_attrs_match_a_standalone_evaluation(self, flow, traced_sweep):
        """Sharing the extraction across the sweep changes no attribute
        of the `evaluate` span or its `timing.sta` child."""
        tracer, evaluated, _ = traced_sweep
        spans = [s for s in tracer.roots if s.name == "evaluate"]
        for span, (variant, frequency, _point) in zip(spans, evaluated):
            alone = Tracer()
            with use_tracer(alone):
                evaluate_design(flow, variant, frequency=frequency)
            (ref,) = alone.roots
            assert span.attrs == ref.attrs
            assert span.children[0].attrs == ref.children[0].attrs
        get_registry().reset()

    def test_evaluate_design_stays_a_module_attribute(self):
        """perfbench's traced runs patch this name; `layers.patched`
        raises AttributeError when it is gone."""
        assert tradeoff.evaluate_design is evaluate_design
