"""Telemetry warehouse: ingest idempotence, selectors, queries."""

import json
import os

import pytest

from repro.arch import ArchParams
from repro.netlist import load_circuit
from repro.obs import (
    Tracer,
    run_manifest,
    telemetry_records,
    use_tracer,
    write_jsonl,
)
from repro.obs.store import (
    STORE_SCHEMA,
    connect,
    ingest_file,
    ingest_records,
    list_runs,
    load_parsed_run,
    profile_stacks,
    resolve_run,
    run_digest,
    top_spans,
    trend,
)
from repro.vpr import run_flow

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "run_v1.jsonl")


def fixture_records():
    with open(FIXTURE, "r", encoding="utf-8") as handle:
        return [json.loads(line) for line in handle]


def synthetic_records(sha="aaa111", created=1000.0, route_s=1.0, extra=None):
    records = [
        {"type": "manifest", "schema": 1, "git_sha": sha,
         "created_unix": created, "circuit": "tseng", "seed": 1},
        {"type": "span", "name": "flow.run", "duration_s": route_s + 0.5,
         "attrs": {"circuit": "tseng"},
         "children": [
             {"name": "flow.place", "duration_s": 0.5},
             {"name": "flow.route", "duration_s": route_s,
              "attrs": {"wirelength": 100}},
         ]},
    ]
    if extra:
        records.extend(extra)
    return records


@pytest.fixture
def con(tmp_path):
    connection = connect(str(tmp_path / "t.sqlite"))
    yield connection
    connection.close()


def table_counts(con):
    return {table: con.execute(f"SELECT COUNT(*) AS n FROM {table}")
            .fetchone()["n"]
            for table in ("runs", "spans", "measurements", "profiles")}


class TestIngest:
    def test_double_ingest_is_idempotent(self, con):
        first = ingest_file(con, FIXTURE)
        counts = table_counts(con)
        second = ingest_file(con, FIXTURE)
        assert first.inserted and not second.inserted
        assert first.run_id == second.run_id
        assert first.digest == second.digest
        assert table_counts(con) == counts

    def test_digest_is_content_not_path(self, con, tmp_path):
        copy = tmp_path / "copy.jsonl"
        copy.write_text(open(FIXTURE).read(), encoding="utf-8")
        assert ingest_file(con, FIXTURE).inserted
        assert not ingest_file(con, str(copy)).inserted

    def test_digest_matches_written_bytes(self):
        records = fixture_records()
        by_records = run_digest(records)
        # The digest is over the canonical sorted-key JSON lines —
        # exactly what write_jsonl emits — so changing any record
        # changes it and reformatting does not.
        assert by_records == run_digest(json.loads(json.dumps(r))
                                        for r in records)
        assert by_records != run_digest(records[:-1])

    def test_run_row_carries_provenance(self, con):
        result = ingest_records(con, synthetic_records(sha="feedface"),
                                label="nightly")
        row = con.execute("SELECT * FROM runs WHERE run_id = ?",
                          (result.run_id,)).fetchone()
        assert row["git_sha"] == "feedface"
        assert row["circuit"] == "tseng"
        assert row["seed"] == 1
        assert row["label"] == "nightly"
        assert row["total_wall_s"] == pytest.approx(1.5)
        assert row["span_count"] == 3

    def test_span_rows_flattened_with_raw_self(self, con):
        result = ingest_records(con, synthetic_records(route_s=1.0))
        rows = {row["path"]: row for row in con.execute(
            "SELECT * FROM spans WHERE run_id = ?", (result.run_id,))}
        assert rows["flow.run"]["depth"] == 0
        assert rows["flow.run/flow.route"]["parent_path"] == "flow.run"
        assert rows["flow.run"]["raw_self_s"] == pytest.approx(0.0)
        assert rows["flow.run/flow.route"]["self_s"] == pytest.approx(1.0)

    def test_measurements_populated(self, con):
        result = ingest_records(con, synthetic_records())
        keys = {row["key"] for row in con.execute(
            "SELECT key FROM measurements WHERE run_id = ?",
            (result.run_id,))}
        assert "route.wall_s" in keys
        assert "total.wall_s" in keys
        assert "route.wirelength" in keys

    def test_profile_stacks_extracted(self, con):
        extra = [{"type": "span", "name": "job", "duration_s": 1.0,
                  "attrs": {"profile": {
                      "stacks": {"a.py:f;b.py:g": 7, "a.py:f": 3}}}}]
        result = ingest_records(con, synthetic_records(extra=extra))
        assert profile_stacks(con, result.run_id) == {
            "a.py:f;b.py:g": 7, "a.py:f": 3}

    def test_newer_store_schema_refused(self, tmp_path):
        path = str(tmp_path / "t.sqlite")
        con = connect(path)
        con.execute("UPDATE meta SET value = ? WHERE key = 'schema'",
                    (str(STORE_SCHEMA + 1),))
        con.commit()
        con.close()
        with pytest.raises(ValueError, match="newer than supported"):
            connect(path)


class TestResolve:
    def test_selectors(self, con):
        old = ingest_records(con, synthetic_records(sha="aaa", created=100.0))
        new = ingest_records(con, synthetic_records(sha="bbb", created=200.0))
        assert resolve_run(con, str(old.run_id)) == old.run_id
        assert resolve_run(con, f"#{new.run_id}") == new.run_id
        assert resolve_run(con, "latest") == new.run_id
        assert resolve_run(con, "latest~1") == old.run_id
        assert resolve_run(con, old.digest[:8]) == old.run_id

    def test_bad_selectors(self, con):
        ingest_records(con, synthetic_records())
        for selector in ("99", "latest~5", "deadbeef99", "nonsense"):
            with pytest.raises(ValueError):
                resolve_run(con, selector)

    def test_list_runs_newest_first(self, con):
        ingest_records(con, synthetic_records(sha="old", created=100.0))
        ingest_records(con, synthetic_records(sha="new", created=200.0))
        assert [r["git_sha"] for r in list_runs(con)] == ["new", "old"]


class TestRoundTrip:
    def test_loaded_run_matches_fresh_parse(self, con):
        from repro.obs.analyze import load_run
        from repro.obs.analyze.diff import run_measurements

        result = ingest_file(con, FIXTURE)
        restored = run_measurements(load_parsed_run(con, result.run_id))
        fresh = run_measurements(load_run(FIXTURE))
        assert restored == fresh

    def test_job_identity_survives_round_trip(self, con):
        records = [
            {"type": "manifest", "schema": 1, "created_unix": 1.0},
            {"type": "span", "name": "batch.job", "span_id": "j3.s0",
             "duration_s": 1.0, "start_time": 0.0},
        ]
        result = ingest_records(con, records)
        run = load_parsed_run(con, result.run_id)
        from repro.obs.analyze.attribution import _job_of

        assert _job_of(run.spans[0]) == 3

    def test_unknown_run_raises(self, con):
        with pytest.raises(ValueError, match="no run with id"):
            load_parsed_run(con, 42)


class TestQueries:
    def test_top_spans_by_self(self, con):
        ingest_records(con, synthetic_records(sha="a", created=1.0,
                                              route_s=1.0))
        ingest_records(con, synthetic_records(sha="b", created=2.0,
                                              route_s=3.0))
        rows = top_spans(con, k=2, by="self")
        assert rows[0]["path"] == "flow.run/flow.route"
        assert rows[0]["agg_s"] == pytest.approx(4.0)
        assert rows[0]["runs"] == 2

    def test_top_spans_restricted_to_runs(self, con):
        a = ingest_records(con, synthetic_records(sha="a", created=1.0))
        ingest_records(con, synthetic_records(sha="b", created=2.0))
        rows = top_spans(con, runs=[a.run_id])
        assert all(row["runs"] == 1 for row in rows)
        assert top_spans(con, runs=[]) == []

    def test_top_spans_min_count_filters(self, con):
        ingest_records(con, synthetic_records(sha="a", created=1.0))
        extra = [{"type": "span", "name": "once", "duration_s": 9.0}]
        ingest_records(con, synthetic_records(sha="b", created=2.0,
                                              extra=extra))
        paths = {row["path"] for row in top_spans(con, min_count=2)}
        assert "once" not in paths
        assert "flow.run" in paths

    def test_top_spans_bad_by(self, con):
        with pytest.raises(ValueError):
            top_spans(con, by="walltime")

    def test_trend_oldest_first_with_since(self, con):
        for index, sha in enumerate(["aaa", "bbb", "ccc"]):
            ingest_records(con, synthetic_records(
                sha=sha, created=float(index), route_s=1.0 + index))
        rows = trend(con, "route.wall_s")
        assert [row["git_sha"] for row in rows] == ["aaa", "bbb", "ccc"]
        assert [row["value"] for row in rows] == [1.0, 2.0, 3.0]
        assert [row["git_sha"]
                for row in trend(con, "route.wall_s", since_sha="bbb")] \
            == ["bbb", "ccc"]

    def test_trend_unknown_sha_raises(self, con):
        ingest_records(con, synthetic_records())
        with pytest.raises(ValueError, match="no ingested run"):
            trend(con, "route.wall_s", since_sha="nothere")

    def test_trend_unknown_key_empty(self, con):
        ingest_records(con, synthetic_records())
        assert trend(con, "no.such.measure") == []


class TestBenchSession:
    """A bench session's one run file is the perf history: traced flows
    and ``bench.<name>`` root spans reach `trend` through one ingest."""

    def test_bench_run_round_trip(self, con, tmp_path):
        tracer = Tracer()
        with use_tracer(tracer):
            flow = run_flow(load_circuit("tseng", scale=0.03),
                            ArchParams(channel_width=56), seed=1)
            with tracer.span("bench.x", speedup=2.5, rr_nodes=1664):
                pass
        assert flow.success
        path = str(tmp_path / "BENCH_run.jsonl")
        write_jsonl(path, telemetry_records(run_manifest(), tracer))

        first = ingest_file(con, path, label="bench")
        counts = table_counts(con)
        second = ingest_file(con, path, label="bench")
        assert first.inserted and not first.warnings
        assert not second.inserted and second.run_id == first.run_id
        assert table_counts(con) == counts

        def value(key):
            rows = trend(con, key)
            assert len(rows) == 1, key
            return rows[0]["value"]

        root = tracer.roots[0]
        for stage in ("pack", "place", "route"):
            (span,) = [c for c in root.children if c.name == f"flow.{stage}"]
            assert value(f"circuit.tseng.{stage}.wall_s") == \
                pytest.approx(span.duration_s)
        assert value("circuit.tseng.route.wirelength") == \
            flow.routing.wirelength
        assert value("circuit.tseng.route.iterations") == \
            flow.routing.iterations
        assert value("circuit.tseng.route.channel_width") == 56
        assert value("span.bench.x.speedup") == 2.5
        assert value("span.bench.x.rr_nodes") == 1664

    def test_two_circuits_in_one_run_keep_apart(self, con):
        # A bench session routes several circuits: each gets its own
        # circuit.<name>. keys in the one run.
        extra = [{"type": "span", "name": "flow.run", "duration_s": 4.0,
                  "attrs": {"circuit": "alu4"},
                  "children": [{"name": "flow.route", "duration_s": 3.0,
                                "attrs": {"wirelength": 900}}]}]
        ingest_records(con, synthetic_records(route_s=1.0, extra=extra))
        assert [r["value"] for r in trend(con, "circuit.tseng.route.wall_s")] \
            == [1.0]
        assert [r["value"] for r in trend(con, "circuit.alu4.route.wall_s")] \
            == [3.0]
        assert [r["value"] for r in
                trend(con, "circuit.alu4.route.wirelength")] == [900.0]
        assert [r["value"] for r in trend(con, "route.wall_s")] == [4.0]

    def test_distinct_runs_of_one_sha_both_kept(self, con):
        # Re-running the benches at one commit gives new wall times, so
        # a new run; only byte-identical content is deduplicated.
        a = ingest_records(con, synthetic_records(sha="x", route_s=1.0))
        b = ingest_records(con, synthetic_records(sha="x", route_s=1.5))
        assert a.inserted and b.inserted and a.run_id != b.run_id
        assert [r["value"] for r in trend(con, "circuit.tseng.route.wall_s")] \
            == [1.0, 1.5]

    def test_foreign_records_warn_and_skip(self, con):
        extra = ["not an object", {"type": "other"},
                 {"type": "manifest", "schema": 99}]
        result = ingest_records(con, synthetic_records(extra=extra))
        assert result.inserted
        assert len(result.warnings) == 3
        assert any("newer than supported" in w for w in result.warnings)
        assert [r["value"] for r in trend(con, "route.wall_s")] == [1.0]
