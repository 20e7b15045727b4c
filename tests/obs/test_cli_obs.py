"""CLI observability: --json, --metrics-out, -v, stdout/stderr split,
and the analysis commands (report / diff)."""

import json
import os

import pytest

from repro.cli import build_parser, main

FLOW_ARGS = ["flow", "--circuit", "tseng", "--scale", "0.03", "--width", "56"]

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "run_v1.jsonl")


class TestParser:
    def test_obs_flags_parse_on_flow_commands(self):
        parser = build_parser()
        for argv in (
            FLOW_ARGS + ["--metrics-out", "m.jsonl", "-v", "--json"],
            ["sweep", "--circuit", "alu4", "--metrics-out", "m.jsonl"],
            ["headline", "--json", "-vv"],
            ["explore", "--metrics-out", "m.jsonl"],
        ):
            args = parser.parse_args(argv)
            assert callable(args.func)

    def test_verbose_counts(self):
        args = build_parser().parse_args(FLOW_ARGS + ["-vv"])
        assert args.verbose == 2


class TestFlowJson:
    def test_json_output_is_machine_readable(self, capsys):
        assert main(FLOW_ARGS + ["--json"]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out)
        assert payload["success"] is True
        assert payload["circuit"] == "tseng"
        assert payload["wirelength"] > 0
        assert payload["baseline"]["leakage_w"] > 0
        assert len(payload["variants"]) == 2
        assert all("speedup" in v for v in payload["variants"])

    def test_json_includes_convergence_series(self, capsys):
        assert main(FLOW_ARGS + ["--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        series = payload["convergence"]
        assert series[-1]["overused_nodes"] == 0
        assert series[0]["iteration"] == 1

    def test_diagnostics_on_stderr_not_stdout(self, capsys):
        assert main(FLOW_ARGS + ["--json"]) == 0
        captured = capsys.readouterr()
        assert "circuit:" in captured.err
        assert "circuit:" not in captured.out

    def test_routing_failure_diagnostic_to_stderr(self, capsys):
        # Width 2 is hopeless for this circuit: the failure path must
        # keep stdout machine-readable under --json.
        code = main(["flow", "--circuit", "tseng", "--scale", "0.03",
                     "--width", "2", "--json"])
        captured = capsys.readouterr()
        assert code == 1
        assert "FAILED" in captured.err
        payload = json.loads(captured.out)
        assert payload["success"] is False


class TestMetricsOut:
    def test_flow_writes_manifest_and_spans(self, capsys, tmp_path):
        path = tmp_path / "run.jsonl"
        assert main(FLOW_ARGS + ["--metrics-out", str(path)]) == 0
        records = [json.loads(line) for line in path.read_text().splitlines()]
        manifest = records[0]
        assert manifest["type"] == "manifest"
        assert manifest["seed"] == 1
        assert manifest["arch"]["channel_width"] == 56
        assert manifest["circuit"] == "tseng"
        span_records = [r for r in records if r["type"] == "span"]
        flow_span = next(s for s in span_records if s["name"] == "flow.run")
        stages = {c["name"] for c in flow_span["children"]}
        assert stages == {"flow.pack", "flow.place", "flow.route"}
        route = next(c for c in flow_span["children"] if c["name"] == "flow.route")
        pathfinder = next(
            c for c in route["children"] if c["name"] == "route.pathfinder"
        )
        assert pathfinder["attrs"]["convergence"][-1]["overused_nodes"] == 0

    def test_spans_have_wall_time_and_rss(self, capsys, tmp_path):
        path = tmp_path / "run.jsonl"
        assert main(FLOW_ARGS + ["--metrics-out", str(path)]) == 0
        records = [json.loads(line) for line in path.read_text().splitlines()]
        for record in records:
            if record["type"] != "span":
                continue
            assert record["duration_s"] >= 0
            assert record["peak_rss_kb"] > 0

    def test_evaluate_spans_present(self, capsys, tmp_path):
        path = tmp_path / "run.jsonl"
        assert main(FLOW_ARGS + ["--metrics-out", str(path)]) == 0
        records = [json.loads(line) for line in path.read_text().splitlines()]
        evaluates = [r for r in records if r.get("name") == "evaluate"]
        assert len(evaluates) == 3  # baseline + naive + optimised
        kinds = {e["attrs"]["variant"] for e in evaluates}
        assert "CMOS_ONLY" in kinds


class TestCrossbarJson:
    def test_json_on_stdout_diagnostics_on_stderr(self, capsys):
        assert main(["crossbar", "--json"]) == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["success"] is True
        assert payload["rows"] == 2
        assert payload["margin_worst_v"] > 0
        assert sorted(map(tuple, payload["configured"])) == \
            sorted(map(tuple, payload["targets"]))
        assert "crossbar" in captured.err
        assert "crossbar" not in captured.out

    def test_plain_output_unchanged(self, capsys):
        assert main(["crossbar"]) == 0
        captured = capsys.readouterr()
        assert "Vhold" in captured.out

    def test_metrics_out_records_program_spans(self, capsys, tmp_path):
        path = tmp_path / "xb.jsonl"
        assert main(["crossbar", "--metrics-out", str(path)]) == 0
        records = [json.loads(l) for l in path.read_text().splitlines()]
        spans = [r for r in records if r.get("type") == "span"]
        assert any(s["name"] == "crossbar.program" for s in spans)


class TestSweepJson:
    def test_json_payload(self, capsys):
        assert main(["sweep", "--circuit", "tseng", "--scale", "0.03",
                     "--json"]) == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["circuit"] == "tseng"
        assert payload["success"] is True
        assert payload["corner"]["leakage_reduction"] > 1
        assert len(payload["series"]["downsize"]) == \
            len(payload["series"]["speedup"])
        assert "sweep" not in captured.out


class TestReportCommand:
    def test_report_renders_fixture(self, capsys):
        assert main(["report", FIXTURE]) == 0
        out = capsys.readouterr().out
        for stage in ("flow.pack", "flow.place", "flow.route",
                      "timing.sta", "crossbar.program_fabric"):
            assert stage in out, stage
        assert "span timeline" in out

    def test_html_output(self, capsys, tmp_path):
        page = tmp_path / "report.html"
        assert main(["report", FIXTURE, "--html", str(page)]) == 0
        assert page.read_text().startswith("<!doctype html>")

    def test_missing_file_exits_2(self, capsys):
        assert main(["report", "/nonexistent/run.jsonl"]) == 2
        assert "error" in capsys.readouterr().err


class TestDiffCommand:
    def test_identical_runs_pass_gate(self, capsys):
        code = main(["diff", FIXTURE, FIXTURE,
                     "--fail-on", "route.wall_s>+50%",
                     "--fail-on", "route.wirelength>+0"])
        captured = capsys.readouterr()
        assert code == 0
        assert "route.wall_s" in captured.out
        assert "OK: 2 regression gate(s) passed" in captured.err

    def test_violated_gate_exits_1(self, capsys):
        code = main(["diff", FIXTURE, FIXTURE,
                     "--fail-on", "route.wirelength>=-1"])
        captured = capsys.readouterr()
        assert code == 1
        assert "FAIL" in captured.err

    def test_missing_metric_fails_gate(self, capsys):
        code = main(["diff", FIXTURE, FIXTURE,
                     "--fail-on", "no.such.metric>+5%"])
        assert code == 1
        assert "missing" in capsys.readouterr().err

    def test_json_verdict(self, capsys):
        code = main(["diff", FIXTURE, FIXTURE, "--json",
                     "--fail-on", "route.wall_s>+50%"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["metrics"]["route.wirelength"]["delta"] == 0.0

    def test_bad_threshold_exits_2(self, capsys):
        assert main(["diff", FIXTURE, FIXTURE, "--fail-on", "not a gate"]) == 2
        assert "bad threshold" in capsys.readouterr().err


class TestBenchHistoryRemoved:
    @pytest.mark.parametrize("action", ["append", "check", "prune"])
    def test_bench_history_is_not_a_command(self, capsys, tmp_path, action):
        """Bench runs go to the warehouse (`repro db ingest`) instead."""
        with pytest.raises(SystemExit) as exc:
            main(["bench-history", action, "--history",
                  str(tmp_path / "hist.jsonl"), "BENCH_run.jsonl"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


class TestVerbose:
    def test_verbose_logs_to_stderr(self, capsys):
        from repro.obs import setup_logging

        try:
            assert main(FLOW_ARGS + ["-v"]) == 0
            captured = capsys.readouterr()
            assert "flow done" in captured.err
            assert "flow done" not in captured.out
        finally:
            # Remove the handler so later tests aren't polluted with a
            # captured (soon-to-be-invalid) stderr stream.
            setup_logging(0)
