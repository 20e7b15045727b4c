"""Tests for the repro command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_subcommands_parse(self):
        parser = build_parser()
        for argv in (
            ["device"],
            ["device", "--fabricated"],
            ["crossbar", "--rows", "3", "--cols", "2"],
            ["flow", "--circuit", "tseng", "--scale", "0.03"],
            ["sweep", "--circuit", "alu4"],
            ["headline", "--suite", "mcnc20"],
            ["explore", "--knob", "fc_in"],
            ["rrgraph", "--stats"],
            ["rrgraph", "--stats", "--nx", "4", "--ny", "5", "--json"],
        ):
            args = parser.parse_args(argv)
            assert callable(args.func)

    def test_bad_suite_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["headline", "--suite", "nope"])

    @pytest.mark.parametrize("option", [
        ["--store", "results"],
        ["--store-max-bytes", "1000"],
        ["--store-max-entries", "10"],
        ["--variant", "nem-opt"],
        ["--timeout", "60"],
    ])
    def test_flow_has_no_store_mode(self, capsys, option):
        """A store-backed job is `repro batch ... --store DIR`."""
        with pytest.raises(SystemExit) as exc:
            main(["flow", "--circuit", "tseng", *option])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestExecution:
    def test_device_runs(self, capsys):
        assert main(["device"]) == 0
        out = capsys.readouterr().out
        assert "Vpi" in out and "switching delay" in out

    def test_device_fabricated(self, capsys):
        assert main(["device", "--fabricated"]) == 0
        assert "fabricated" in capsys.readouterr().out

    def test_crossbar_runs(self, capsys):
        assert main(["crossbar", "--targets", "0,1"]) == 0
        out = capsys.readouterr().out
        assert "programmed exactly the targets: True" in out

    def test_flow_runs_small(self, capsys):
        code = main([
            "flow", "--circuit", "tseng", "--scale", "0.03",
            "--width", "56", "--show-maps",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "floorplan" in out
        assert "leak.red" in out

    def test_sweep_runs_small(self, capsys):
        code = main(["sweep", "--circuit", "tseng", "--scale", "0.03", "--width", "56"])
        assert code == 0
        out = capsys.readouterr().out
        assert "downsize" in out
        assert "preferred corner" in out

    def test_map_runs(self, capsys, tmp_path):
        blif = tmp_path / "m.blif"
        code = main(["map", "--gates", "120", "--blif", str(blif)])
        assert code == 0
        assert "equivalence" in capsys.readouterr().out
        assert blif.exists()

    def test_explore_runs_small(self, capsys):
        code = main([
            "explore", "--knob", "segment_length", "--circuit", "tseng",
            "--scale", "0.02", "--width", "40",
        ])
        assert code == 0
        assert "Wmin" in capsys.readouterr().out

    def test_rrgraph_stats(self, capsys):
        code = main(["rrgraph", "--stats", "--nx", "4", "--ny", "4",
                     "--width", "8"])
        assert code == 0
        out = capsys.readouterr().out
        assert "RR graph 4x4, W = 8" in out
        assert "nodes:" in out and "edges:" in out
        assert "memory:" in out and "build:" in out

    def test_rrgraph_stats_json(self, capsys):
        import json

        code = main(["rrgraph", "--stats", "--nx", "4", "--ny", "4",
                     "--width", "8", "--json"])
        assert code == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["grid"] == [4, 4]
        assert stats["num_nodes"] == sum(stats["nodes_by_kind"].values())
        assert stats["num_edges"] == sum(stats["edges_by_switch"].values())
        assert stats["memory_bytes"] > 0

    def test_rrgraph_metrics_out(self, capsys, tmp_path):
        import json

        path = tmp_path / "rr.jsonl"
        code = main(["rrgraph", "--stats", "--nx", "4", "--ny", "4",
                     "--width", "8", "--json", "--metrics-out", str(path)])
        assert code == 0
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert records[0]["type"] == "manifest"
        assert records[0]["arch"]["channel_width"] == 8
        names = {r["name"] for r in records if r["type"] == "span"}
        assert "fabric.cache_lookup" in names
