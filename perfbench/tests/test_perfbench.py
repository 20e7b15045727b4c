"""The benchmark's own checks: exact counts, sensitivity and trace cover.

Run from the repository root (takes several minutes: the sensitivity
and trace checks run whole workload passes):

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import layers
import repro.vpr.flow
import run
import workloads
from hostspeed import HostSpeed
from repro.fabric import fabric_cache
from repro.obs import MetricsRegistry, use_registry

ROOT = run.ROOT
SETUP_METRICS = ("import_s", "netlist.generate_s", "setup.flow_s",
                 "trace.wall_s")
COUNTERS = ("route.heap_pops", "fabric.cache_misses", "repair.nets_ripped",
            "mission.repairs", "mission.bist_runs", "timing.sta_runs")


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def wall_bound() -> float:
    return next(m["bound"] for m in benchmark_spec()["end_to_end"]
                if m["name"] == "wall_s")


def test_benchmark_json_lists_the_printed_metrics():
    spec = benchmark_spec()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        run.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def counts_of(workload, item):
    fabric_cache().clear()
    registry = MetricsRegistry()
    with use_registry(registry):
        workload.op(layers.Layers(), item)
    snap = registry.snapshot()
    return {name: snap.get(name, {}).get("value", 0) for name in COUNTERS}


@pytest.mark.parametrize("name, item", [
    ("headline", "alu4"), ("wmin", ("apex4", 6)), ("mission", None)])
def test_counts_repeat_exactly(name, item):
    workload = workloads.WORKLOADS[name](3)
    workload.setup()
    item = workload.items[0] if item is None else item
    first, second = counts_of(workload, item), counts_of(workload, item)
    assert first == second
    assert first["route.heap_pops"] > 0
    if name == "mission":
        assert first["mission.bist_runs"] > 0 and first["mission.repairs"] > 0
    else:
        assert first["fabric.cache_misses"] > 0
    if name == "headline":
        assert first["timing.sta_runs"] > 0


def doubled(fn):
    def twice(*args, **kwargs):
        fn(*args, **kwargs)
        return fn(*args, **kwargs)
    return twice


def pass_wall(name, plain, nested=()):
    """One untraced pass of ``name``, in reference seconds."""
    workload = workloads.WORKLOADS[name](1)
    workload.setup()
    with layers.patched(nested), HostSpeed() as speed:
        result = run.run_pass(workload, layers, plain, None, traced_first=True)
    assert not result.failures
    assert len(result.outputs) == len(workload.items)
    return sum((t1 - t0) * speed.factor(t0, t1) for t0, t1 in result.plain)


def test_each_workload_measures_its_layer():
    """Doing a layer's work twice moves its own workload beyond the
    bound and the other workload less."""
    bound = wall_bound()
    base = layers.Layers()
    slow_place = layers.Layers(place=doubled(base.place))
    slow_route = layers.Layers(route_design=doubled(base.route_design))
    probes = [(repro.vpr.flow, "route_design",
               doubled(repro.vpr.flow.route_design))]
    ratio = {}
    for name in ("headline", "wmin"):
        wall = pass_wall(name, base)
        ratio[name, "place"] = pass_wall(name, slow_place) / wall
        ratio[name, "route"] = pass_wall(name, slow_route, probes) / wall
    print(ratio)
    assert ratio["headline", "place"] > 1 + bound
    assert ratio["wmin", "place"] < ratio["headline", "place"]
    assert ratio["wmin", "route"] > 1 + bound
    assert ratio["headline", "route"] < ratio["wmin", "route"]


def traced_run(name):
    out = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", name, "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert out.returncode == 0, out.stderr[-2000:]
    doc = json.loads(out.stdout.strip().splitlines()[-1])
    assert doc["correct"] and doc["failed"] == 0
    assert set(doc["metrics"]) == set(run.PER_LAYER_UNITS)
    return {k: v["value"] for k, v in doc["metrics"].items()}


@pytest.mark.parametrize("name, layer_metrics", [
    ("headline", ("place.s",)),
    ("wmin", ("route.s", "fabric.build_s")),
    ("mission", ("faults.mission_s", "faults.wear_s", "faults.campaign_s",
                 "faults.bist_s", "faults.repair_s", "route.init_s")),
])
def test_trace_names_the_layer_doing_most_work(name, layer_metrics):
    m = traced_run(name)
    wall = m["trace.wall_s"]
    assert sum(m[k] for k in layer_metrics) > 0.5 * wall
    # Layer self times cover the traced wall time, apart from the part
    # no span covers, which is reported.
    layer_total = sum(m[k] for k, unit in run.PER_LAYER_UNITS.items()
                      if unit == "s" and k not in SETUP_METRICS)
    assert layer_total == pytest.approx(
        wall * (1 - m["trace.unattributed_frac"]), rel=1e-6)
    assert m["trace.unattributed_frac"] < 0.05


def test_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", "headline", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    assert "correct" not in out.stdout
