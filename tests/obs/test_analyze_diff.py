"""Run diffing: span alignment, thresholds, verdicts."""

import math
import os

import pytest

from repro.obs.analyze import (
    DiffEntry,
    Threshold,
    diff_runs,
    diff_to_dict,
    evaluate_thresholds,
    format_diff,
    load_run,
    parse_run,
    parse_threshold,
    run_measurements,
)

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "run_v1.jsonl")


def span(name, duration, attrs=None, children=()):
    return {"type": "span", "name": name, "duration_s": duration,
            "attrs": attrs or {}, "children": list(children)}


def flow_run(route_s=1.0, wirelength=100, with_place=True):
    children = [span("flow.pack", 0.1, {"clusters": 4})]
    if with_place:
        children.append(span("flow.place", 0.5))
    children.append(
        span("flow.route", route_s, {"wirelength": wirelength, "success": True})
    )
    return parse_run(
        [span("flow.run", route_s + 0.6, {"circuit": "tseng"}, children)],
        source="synthetic",
    )


class TestMeasurements:
    def test_stage_aliases_from_fixture(self):
        m = run_measurements(load_run(FIXTURE))
        for key in ("total.wall_s", "flow.wall_s", "pack.wall_s",
                    "place.wall_s", "route.wall_s", "timing.wall_s",
                    "crossbar.wall_s", "route.wirelength", "route.iterations",
                    "pack.clusters", "timing.critical_path_s"):
            assert key in m, key

    def test_circuit_and_variant_namespaces(self):
        m = run_measurements(load_run(FIXTURE))
        assert m["circuit.tseng.route.wirelength"] == m["route.wirelength"]
        assert m["variant.CMOS_ONLY.leakage_w"] > m["variant.CMOS_NEM_OPT.leakage_w"]

    def test_span_paths_and_registry_metrics(self):
        m = run_measurements(load_run(FIXTURE))
        assert "span.flow.run/flow.route.wall_s" in m
        assert m["metric.pack.clusters"] == m["pack.clusters"]
        assert "metric.timing.slack_s.p90" in m

    def test_outer_span_wins_wall_time(self):
        # flow.route contains route.pathfinder; the alias must count the
        # outer span once, not sum both.
        inner = span("route.pathfinder", 0.9, {"iterations": 5})
        run = parse_run([span("flow.route", 1.0, {}, [inner])])
        m = run_measurements(run)
        assert m["route.wall_s"] == pytest.approx(1.0)
        assert m["route.iterations"] == 5

    def test_bool_attrs_become_numbers(self):
        m = run_measurements(flow_run())
        assert m["route.success"] == 1.0

    def test_repeated_circuit_roots_follow_unprefixed_rules(self):
        # Two flows of one circuit in one run (a bench session): the
        # per-circuit keys sum wall time and let the last attrs win,
        # exactly as the unprefixed keys do.
        def root(route_s, wirelength):
            return span("flow.run", route_s + 0.6, {"circuit": "tseng"}, [
                span("flow.route", route_s, {"wirelength": wirelength})])

        m = run_measurements(parse_run([root(1.0, 100), root(2.0, 200)]))
        assert m["route.wall_s"] == pytest.approx(3.0)
        for key in ("wall_s", "count", "wirelength"):
            assert m[f"circuit.tseng.route.{key}"] == m[f"route.{key}"], key
        assert m["circuit.tseng.route.count"] == 2.0
        assert m["circuit.tseng.route.wirelength"] == 200.0

    def test_interleaved_circuits_group_by_name(self):
        # tseng, alu4, tseng: the alu4 root between the two tseng roots
        # neither joins nor splits the tseng group.
        def root(circuit, route_s, wirelength):
            return span("flow.run", route_s + 0.6, {"circuit": circuit}, [
                span("flow.route", route_s, {"wirelength": wirelength})])

        m = run_measurements(parse_run([
            root("tseng", 1.0, 100), root("alu4", 5.0, 900),
            root("tseng", 2.0, 200)]))
        assert m["circuit.tseng.route.wall_s"] == pytest.approx(3.0)
        assert m["circuit.tseng.route.count"] == 2.0
        assert m["circuit.tseng.route.wirelength"] == 200.0
        assert m["circuit.alu4.route.wall_s"] == pytest.approx(5.0)
        assert m["circuit.alu4.route.count"] == 1.0
        assert m["circuit.alu4.route.wirelength"] == 900.0
        assert m["route.wall_s"] == pytest.approx(8.0)

    def test_roots_without_circuit_stay_unprefixed(self):
        # A bench.<name> root has no circuit attr: it adds to the span
        # keys and the run total but to no circuit namespace.
        m = run_measurements(parse_run([
            span("flow.run", 1.6, {"circuit": "tseng"}, [
                span("flow.route", 1.0, {"wirelength": 100})]),
            span("bench.x", 0.0, {"speedup": 2.5})]))
        assert m["span.bench.x.speedup"] == 2.5
        assert not any(key.startswith("circuit.")
                       and "speedup" in key for key in m)
        assert m["circuit.tseng.route.wall_s"] == m["route.wall_s"]

    def test_single_root_prefixed_keys_mirror_unprefixed(self):
        # One root per circuit (a `repro flow` run): every stage key has
        # a circuit-prefixed twin with the same value.
        m = run_measurements(flow_run())
        stage_keys = [key for key in m
                      if key.split(".")[0] in ("pack", "place", "route")]
        assert stage_keys
        for key in stage_keys:
            assert m[f"circuit.tseng.{key}"] == m[key], key


class TestAlignment:
    def test_identical_runs_diff_to_zero(self):
        diff = diff_runs(flow_run(), flow_run())
        assert diff.changed() == []
        assert diff.get("route.wirelength").delta == 0.0

    def test_changed_metric_signed_delta(self):
        diff = diff_runs(flow_run(wirelength=100), flow_run(wirelength=90))
        entry = diff.get("route.wirelength")
        assert entry.delta == -10.0
        assert entry.pct == pytest.approx(-10.0)

    def test_missing_stage_in_one_run(self):
        diff = diff_runs(flow_run(with_place=True), flow_run(with_place=False))
        entry = diff.get("place.wall_s")
        assert entry.a is not None
        assert entry.b is None
        assert entry.delta is None

    def test_extra_stage_in_candidate(self):
        diff = diff_runs(flow_run(with_place=False), flow_run(with_place=True))
        entry = diff.get("place.wall_s")
        assert entry.a is None
        assert entry.b is not None

    def test_growth_from_zero_is_inf_pct(self):
        entry = DiffEntry(key="x", a=0.0, b=2.0)
        assert math.isinf(entry.pct)
        assert entry.pct > 0

    def test_shrink_to_below_zero_is_negative_inf_pct(self):
        entry = DiffEntry(key="x", a=0.0, b=-2.0)
        assert math.isinf(entry.pct)
        assert entry.pct < 0

    def test_zero_to_zero_pct_is_zero(self):
        entry = DiffEntry(key="x", a=0.0, b=0.0)
        assert entry.pct == 0.0

    def test_missing_baseline_pct_is_none(self):
        assert DiffEntry(key="x", a=None, b=2.0).pct is None
        assert DiffEntry(key="x", a=2.0, b=None).pct is None
        assert DiffEntry(key="x", a=None, b=None).pct is None

    def test_repeated_spans_align_by_path_suffix(self):
        records = [span("evaluate", 0.1, {"variant": "X"}),
                   span("evaluate", 0.2, {"variant": "Y"})]
        m = run_measurements(parse_run(records))
        assert m["span.evaluate.wall_s"] == pytest.approx(0.1)
        assert m["span.evaluate#2.wall_s"] == pytest.approx(0.2)


class TestThresholds:
    @pytest.mark.parametrize("spec, key, op, bound, relative", [
        ("route.wall_s>+10%", "route.wall_s", ">", 10.0, True),
        ("route.wirelength>+0", "route.wirelength", ">", 0.0, False),
        ("timing.critical_path_s<-50%", "timing.critical_path_s", "<", -50.0, True),
        ("metric.pack.clusters>=2", "metric.pack.clusters", ">=", 2.0, False),
        (" pack.wall_s <= -1.5e-2 ", "pack.wall_s", "<=", -0.015, False),
    ])
    def test_grammar(self, spec, key, op, bound, relative):
        t = parse_threshold(spec)
        assert (t.key, t.op, t.bound, t.relative) == (key, op, bound, relative)

    @pytest.mark.parametrize("spec", [
        "", "route.wall_s", ">10%", "route.wall_s=10", "route.wall_s>ten",
        "route.wall_s>10%%", "a b>1",
    ])
    def test_bad_grammar_raises(self, spec):
        with pytest.raises(ValueError):
            parse_threshold(spec)

    def test_gate_passes_within_bound(self):
        t = parse_threshold("route.wall_s>+50%")
        assert t.violation(DiffEntry(key="route.wall_s", a=1.0, b=1.2)) is None

    def test_gate_fails_beyond_bound(self):
        t = parse_threshold("route.wall_s>+50%")
        message = t.violation(DiffEntry(key="route.wall_s", a=1.0, b=1.6))
        assert message is not None
        assert "route.wall_s" in message

    def test_absolute_bound(self):
        t = parse_threshold("route.wirelength>+0")
        assert t.violation(DiffEntry(key="route.wirelength", a=100, b=100)) is None
        assert t.violation(DiffEntry(key="route.wirelength", a=100, b=101))

    def test_missing_metric_is_a_violation(self):
        t = parse_threshold("nonexistent>+5%")
        message = t.violation(DiffEntry(key="nonexistent", a=None, b=None))
        assert "missing from run A and B" in message

    def test_verdict_over_diff(self):
        diff = diff_runs(flow_run(wirelength=100), flow_run(wirelength=120))
        verdict = evaluate_thresholds(diff, [
            parse_threshold("route.wirelength>+10%"),
            parse_threshold("pack.clusters>+0"),
        ])
        assert not verdict.ok
        assert len(verdict.violations) == 1
        assert "route.wirelength" in verdict.violations[0]


class TestFormatting:
    def test_table_hides_span_keys_by_default(self):
        text = format_diff(diff_runs(flow_run(), flow_run()))
        assert "route.wall_s" in text
        assert "span." not in text

    def test_only_changed_filter(self):
        diff = diff_runs(flow_run(route_s=1.0), flow_run(route_s=2.0))
        text = format_diff(diff, only_changed=True)
        assert "wall_s" in text
        assert "route.wirelength" not in text

    def test_json_payload_with_verdict(self):
        diff = diff_runs(flow_run(), flow_run(wirelength=200))
        verdict = evaluate_thresholds(diff, [parse_threshold("route.wirelength>+0")])
        payload = diff_to_dict(diff, verdict)
        assert payload["ok"] is False
        assert payload["thresholds"] == ["route.wirelength>+0"]
        assert payload["metrics"]["route.wirelength"]["delta"] == 100.0

    def test_json_payload_inf_pct_nulled(self):
        diff = diff_runs(parse_run([span("flow.route", 1.0, {"wirelength": 0})]),
                         parse_run([span("flow.route", 1.0, {"wirelength": 5})]))
        payload = diff_to_dict(diff)
        assert payload["metrics"]["route.wirelength"]["pct"] is None

    def test_fmt_pct_edge_values(self):
        from repro.obs.analyze.diff import _fmt_pct

        assert _fmt_pct(None) == "-"
        assert _fmt_pct(math.inf) == "+inf%"
        assert _fmt_pct(-math.inf) == "-inf%"
        assert _fmt_pct(0.0) == "+0.0%"
        assert _fmt_pct(-12.34) == "-12.3%"

    def test_zero_baseline_rows_format_without_crashing(self):
        # A measure growing from exactly 0 must render as +inf%, not
        # raise, in both the table and JSON paths.
        diff = diff_runs(parse_run([span("flow.route", 1.0, {"wirelength": 0})]),
                         parse_run([span("flow.route", 1.0, {"wirelength": 5})]))
        text = format_diff(diff)
        assert "+inf%" in text
