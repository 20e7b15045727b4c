"""The worker's configure-and-evaluate step and its parent-side pre-warm.

`repro flow` and a batch job run one pipeline: the same routed design,
bitstream, programming report and variant comparisons, so their
numbers agree exactly.
"""

import contextlib
import importlib
import io
import json

import pytest

from repro.cli import main
from repro.fabric import fabric_cache
from repro.runner import JobSpec, prewarm_job, run_job

SPEC = dict(circuit="tseng", seed=1, width=56, scale=0.03)


def _spans(records):
    stack = [r for r in records if r.get("type") == "span"]
    while stack:
        span = stack.pop()
        yield span
        stack.extend(span.get("children", ()))


@pytest.fixture(scope="module")
def flow_doc():
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        assert main(["flow", "--circuit", "tseng", "--scale", "0.03",
                     "--width", "56", "--json"]) == 0
    return json.loads(out.getvalue())


class TestFlowMatchesJob:
    @pytest.mark.parametrize("variant, index",
                             [("nem-naive", 0), ("nem-opt", 1)])
    def test_flow_json_equals_job_qor(self, flow_doc, variant, index):
        result, _records = run_job(JobSpec(variant=variant, **SPEC))
        assert result.ok
        qor = result.qor
        assert flow_doc["wirelength"] == qor["wirelength"]
        assert flow_doc["iterations"] == qor["iterations"]
        assert flow_doc["config"]["relays_closed"] == qor["relays_closed"]
        assert flow_doc["config"]["switches"] == qor["bitstream_switches"]
        ratios = {key[len("vs_baseline."):]: value
                  for key, value in qor.items()
                  if key.startswith("vs_baseline.")}
        comparison = dict(flow_doc["variants"][index])
        comparison.pop("label")
        assert set(ratios) >= {"speedup", "dynamic_reduction",
                               "leakage_reduction", "area_reduction"}
        assert ratios == comparison


class TestPrewarm:
    def test_prewarm_builds_the_job_fabric_without_placing(self, monkeypatch):
        spec = JobSpec(variant="baseline", **SPEC)
        fabric_cache().clear()

        def no_place(*args, **kwargs):
            raise AssertionError("prewarm_job must not anneal a placement")

        # The module, not `repro.vpr.place` the re-exported function.
        place_module = importlib.import_module("repro.vpr.place")
        with monkeypatch.context() as patch:
            patch.setattr(place_module, "place", no_place)
            prewarm_job(spec)
        result, records = run_job(spec)
        assert result.ok
        lookups = [span for span in _spans(records)
                   if span["name"] == "fabric.cache_lookup"]
        assert [span["attrs"]["hit"] for span in lookups] == [True]
