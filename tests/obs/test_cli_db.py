"""`repro db`: the sqlite warehouse as the one perf history, driven
through the CLI the way CI drives it (ingest a run file, then read one
measurement's trajectory back with `trend`)."""

import json

import pytest

from repro.cli import main
from repro.obs import write_jsonl


def run_records(sha="aaa111", created=1000.0, route_s=1.0, wirelength=100,
                bench=None):
    """A small schema-v1 run: one tseng flow, optionally a bench span."""
    records = [
        {"type": "manifest", "schema": 1, "git_sha": sha,
         "created_unix": created, "circuit": "tseng", "seed": 1},
        {"type": "span", "name": "flow.run", "duration_s": route_s + 0.5,
         "attrs": {"circuit": "tseng"},
         "children": [
             {"name": "flow.place", "duration_s": 0.5},
             {"name": "flow.route", "duration_s": route_s,
              "attrs": {"wirelength": wirelength, "channel_width": 56}},
         ]},
    ]
    if bench is not None:
        records.append({"type": "span", "name": "bench.x", "duration_s": 0.0,
                        "attrs": bench})
    return records


@pytest.fixture
def db(tmp_path):
    return str(tmp_path / "telemetry.sqlite")


def write_run(tmp_path, name, **kwargs):
    path = str(tmp_path / name)
    write_jsonl(path, run_records(**kwargs))
    return path


def db_main(db, *argv):
    return main(["db", "--db", db, *argv])


def ingest_three(db, tmp_path, capsys):
    """Three runs of successive commits, route time 1, 2, 3 s."""
    for index, sha in enumerate(("aaa", "bbb", "ccc")):
        path = write_run(tmp_path, f"{sha}.jsonl", sha=sha,
                         created=float(index), route_s=1.0 + index,
                         wirelength=100 + index)
        assert db_main(db, "ingest", path) == 0
    capsys.readouterr()


class TestIngest:
    def test_ingest_reports_run_and_spans(self, db, tmp_path, capsys):
        path = write_run(tmp_path, "BENCH_run.jsonl")
        assert db_main(db, "ingest", path) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("run #1 ")
        assert "ingested 3 span(s)" in captured.out
        assert captured.err == ""

    def test_reingest_is_a_no_op(self, db, tmp_path, capsys):
        path = write_run(tmp_path, "BENCH_run.jsonl")
        assert db_main(db, "ingest", path) == 0
        first = capsys.readouterr().out
        assert db_main(db, "ingest", path) == 0
        second = capsys.readouterr().out
        assert "already ingested" in second
        # Same run id and digest: the run's content is its identity.
        assert second.split()[:3] == first.split()[:3]
        assert db_main(db, "runs", "--json") == 0
        assert len(json.loads(capsys.readouterr().out)) == 1

    def test_unkeyed_copy_is_the_same_run(self, db, tmp_path, capsys):
        # A tarball checkout has no git SHA; an identical run written
        # to a second path must still not grow the warehouse.
        a = write_run(tmp_path, "a.jsonl", sha=None)
        b = write_run(tmp_path, "b.jsonl", sha=None)
        assert db_main(db, "ingest", a, b) == 0
        out = capsys.readouterr().out
        assert "already ingested" in out.splitlines()[1]

    def test_malformed_line_warns_on_stderr(self, db, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        path.write_text("\n".join(json.dumps(r) for r in run_records())
                        + "\nnot json\n")
        assert db_main(db, "ingest", str(path)) == 0
        captured = capsys.readouterr()
        assert "not valid JSON, skipped" in captured.err
        assert "ingested 3 span(s)" in captured.out

    def test_missing_file_exits_2(self, db, tmp_path, capsys):
        assert db_main(db, "ingest", str(tmp_path / "nope.jsonl")) == 2
        assert "error:" in capsys.readouterr().err

    def test_label_is_stored(self, db, tmp_path, capsys):
        path = write_run(tmp_path, "BENCH_run.jsonl")
        assert db_main(db, "ingest", "--label", "perf-smoke", path) == 0
        capsys.readouterr()
        assert db_main(db, "runs", "--json") == 0
        (row,) = json.loads(capsys.readouterr().out)
        assert row["label"] == "perf-smoke"
        assert row["git_sha"] == "aaa111"


class TestRuns:
    def test_json_rows_newest_first(self, db, tmp_path, capsys):
        ingest_three(db, tmp_path, capsys)
        assert db_main(db, "runs", "--json") == 0
        rows = json.loads(capsys.readouterr().out)
        assert [row["git_sha"] for row in rows] == ["ccc", "bbb", "aaa"]

    def test_limit(self, db, tmp_path, capsys):
        ingest_three(db, tmp_path, capsys)
        assert db_main(db, "runs", "--json", "--limit", "2") == 0
        rows = json.loads(capsys.readouterr().out)
        assert [row["git_sha"] for row in rows] == ["ccc", "bbb"]

    def test_table_names_sources(self, db, tmp_path, capsys):
        ingest_three(db, tmp_path, capsys)
        assert db_main(db, "runs") == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split()[:2] == ["id", "digest"]
        assert len(lines) == 4
        assert lines[1].endswith("ccc.jsonl")


class TestTrend:
    def test_rows_oldest_first(self, db, tmp_path, capsys):
        ingest_three(db, tmp_path, capsys)
        assert db_main(db, "trend", "route.wall_s") == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[1] for line in lines] == ["aaa", "bbb", "ccc"]
        assert [float(line.split()[2]) for line in lines] == [1.0, 2.0, 3.0]
        # The bar grows with the value: empty at the low end, full at
        # the high end.
        bars = [len(line) - len(line.rstrip("#")) for line in lines]
        assert bars == [0, 15, 30]

    def test_per_circuit_qor(self, db, tmp_path, capsys):
        ingest_three(db, tmp_path, capsys)
        assert db_main(db, "trend", "--json",
                       "circuit.tseng.route.wirelength") == 0
        rows = json.loads(capsys.readouterr().out)
        assert [row["value"] for row in rows] == [100.0, 101.0, 102.0]
        assert {row["circuit"] for row in rows} == {"tseng"}

    def test_since_drops_older_runs(self, db, tmp_path, capsys):
        ingest_three(db, tmp_path, capsys)
        assert db_main(db, "trend", "--json", "--since", "bbb",
                       "circuit.tseng.route.wall_s") == 0
        rows = json.loads(capsys.readouterr().out)
        assert [row["git_sha"] for row in rows] == ["bbb", "ccc"]

    def test_unknown_since_exits_2(self, db, tmp_path, capsys):
        ingest_three(db, tmp_path, capsys)
        assert db_main(db, "trend", "--since", "zzz", "route.wall_s") == 2
        assert "no ingested run has git SHA" in capsys.readouterr().err

    def test_missing_key_exits_1(self, db, tmp_path, capsys):
        ingest_three(db, tmp_path, capsys)
        assert db_main(db, "trend", "span.bench.x.speedup") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "no ingested run has measurement" in captured.err

    def test_bench_span_attr_answers(self, db, tmp_path, capsys):
        path = write_run(tmp_path, "BENCH_run.jsonl",
                         bench={"speedup": 23.1, "t_numpy": 0.01,
                                "kernel": "numpy"})
        assert db_main(db, "ingest", path) == 0
        capsys.readouterr()
        assert db_main(db, "trend", "--json", "span.bench.x.speedup") == 0
        (row,) = json.loads(capsys.readouterr().out)
        assert row["value"] == 23.1
        # A string attr is provenance, not a measurement.
        assert db_main(db, "trend", "span.bench.x.kernel") == 1


class TestTop:
    def test_json_ranks_by_self_time(self, db, tmp_path, capsys):
        ingest_three(db, tmp_path, capsys)
        assert db_main(db, "top", "--json", "--k", "1") == 0
        (row,) = json.loads(capsys.readouterr().out)
        assert row["path"] == "flow.run/flow.route"
        assert row["agg_s"] == pytest.approx(6.0)
        assert row["runs"] == 3

    def test_last_restricts_runs(self, db, tmp_path, capsys):
        ingest_three(db, tmp_path, capsys)
        assert db_main(db, "top", "--json", "--last", "1") == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows and all(row["runs"] == 1 for row in rows)


class TestAttribute:
    def test_selectors_pass_gate(self, db, tmp_path, capsys):
        ingest_three(db, tmp_path, capsys)
        assert db_main(db, "attribute", "--json", "--fail-on",
                       "route>+100%", "latest~1", "latest") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["violations"] == []

    def test_gate_violation_exits_1(self, db, tmp_path, capsys):
        ingest_three(db, tmp_path, capsys)
        assert db_main(db, "attribute", "--fail-on", "route>+20%",
                       "latest~2", "latest") == 1
        assert "FAIL" in capsys.readouterr().err

    def test_bad_selector_exits_2(self, db, tmp_path, capsys):
        ingest_three(db, tmp_path, capsys)
        assert db_main(db, "attribute", "latest~9", "latest") == 2
        assert "error:" in capsys.readouterr().err
