"""Self-created shard directories never outlive their run.

`run_batch`, `run_single_job` and `repro serve` (which dispatches
through it) each write per-job result and shard files; when the caller
did not name a directory for them, nothing may be left in the temp dir.
"""

import asyncio
import os
import tempfile

import pytest

from repro.obs import read_jsonl
from repro.runner import BatchSpec, JobSpec, run_batch
from repro.runner.executor import run_single_job
from repro.serve import Server
from repro.store import ResultStore

TINY = dict(circuit="tseng", scale=0.01, width=40)


@pytest.fixture
def temp_root(tmp_path, monkeypatch):
    root = tmp_path / "tmp"
    root.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(root))
    return root


class TestTempDirs:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_batch_removes_its_shard_dir(self, temp_root, tmp_path, workers):
        spec = BatchSpec(jobs=(JobSpec(seed=1, **TINY), JobSpec(seed=2, **TINY)),
                         workers=workers, timeout_s=120)
        out = str(tmp_path / "run.jsonl")
        batch = run_batch(spec, metrics_out=out)
        assert batch.ok and batch.shard_dir is None
        assert sum(r.get("type") == "span" for r in read_jsonl(out)) == 2
        assert os.listdir(temp_root) == []

    def test_batch_keeps_a_given_shard_dir(self, temp_root, tmp_path):
        shards = str(tmp_path / "shards")
        batch = run_batch(BatchSpec(jobs=(JobSpec(seed=1, **TINY),)),
                          shard_dir=shards)
        assert batch.ok and batch.shard_dir == shards
        assert os.listdir(shards) == ["job-0000.jsonl"]
        assert os.listdir(temp_root) == []

    def test_single_job_removes_its_shard_dir(self, temp_root, tmp_path):
        store = ResultStore(str(tmp_path / "store"), code="temp-dirs")
        for _ in range(2):  # a miss that executes, then a store hit
            result = run_single_job(JobSpec(seed=1, **TINY), timeout_s=120,
                                    store=store)
            assert result.ok
        assert store.stats.hits == 1
        assert os.listdir(temp_root) == []

    def test_serve_leaves_no_job_files(self, temp_root, tmp_path):
        store = ResultStore(str(tmp_path / "store"), code="temp-dirs")

        async def serve_one():
            server = Server(store, workers=1, timeout_s=120)
            await server.start()
            try:
                return await server.submit(JobSpec(seed=1, **TINY))
            finally:
                await server.stop()

        result, how = asyncio.run(serve_one())
        assert result.ok and how == "executed"
        assert os.listdir(temp_root) == []
