"""Repository benchmark: one closed-loop client, one workload per run.

    python3 perfbench/run.py --workload headline --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones,
measured with tracing off; with ``--trace 1`` they are the per-layer
ones, from a run that executes every operation once untraced and once
traced.  Each metric is also printed by name and unit on standard
error, with the workload-only quality numbers.  Times are in reference
seconds (see hostspeed.py and README.md).

This process never imports the program.  It starts the workload in a
child interpreter and times that child from its start to its first
timed operation (``setup_s``); more children only set up, so
``setup_s`` is a median over at least three interpreters.  Exit status
is 0 only when a result was printed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import statistics
import subprocess
import sys
import threading
import time
import traceback
from typing import Dict, List, Tuple

from hostspeed import HostSpeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TAG = "PERFBENCH "
#: Set-up interpreters per run: at least the first, more while their
#: total stays under the second, at most the third.
SETUP_MIN, SETUP_BUDGET_S, SETUP_MAX = 3, 3.0, 9
CHILD_TIMEOUT_S = 170.0

END_TO_END_UNITS = {
    "wall_s": "s", "op_p50_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
    "ok_frac": "frac", "wirelength": "tiles",
}

PER_LAYER_UNITS = {
    "import_s": "s", "netlist.generate_s": "s", "setup.flow_s": "s",
    "pack.s": "s",
    "place.s": "s", "place.temp_steps": "count", "place.share": "frac",
    "route.s": "s", "route.init_s": "s", "route.iterations": "count",
    "route.heap_pops": "count", "route.pops_per_s": "1/s",
    "route.probes": "count", "route.probe_fail_frac": "frac",
    "route.lowstress_fails": "count",
    "fabric.build_s": "s", "fabric.builds": "count", "fabric.hit_frac": "frac",
    "evaluate.s": "s", "evaluate.points": "count", "timing.sta_runs": "count",
    "config.bitstream_s": "s", "crossbar.program_s": "s",
    "crossbar.relays_closed": "count",
    "faults.mission_s": "s", "faults.wear_s": "s", "faults.campaign_s": "s",
    "faults.bist_s": "s", "faults.bist_runs": "count",
    "faults.repair_s": "s", "faults.repairs": "count",
    "faults.nets_ripped": "count",
    "trace.wall_s": "s", "trace.unattributed_frac": "frac",
    "obs.trace_overhead_frac": "frac",
}

#: Span name -> per-layer time metric its self time counts towards.
SPAN_METRIC = {
    "pack": "pack.s", "place": "place.s",
    "route.design": "route.s", "route.wmin_search": "route.s",
    "route.probe": "route.s", "route.route": "route.s",
    "route.init": "route.init_s", "fabric.get": "fabric.build_s",
    "evaluate.sweep": "evaluate.s", "evaluate.point": "evaluate.s",
    "config.bitstream": "config.bitstream_s",
    "crossbar.program": "crossbar.program_s",
    "faults.mission": "faults.mission_s", "faults.wear": "faults.wear_s",
    "faults.campaign": "faults.campaign_s", "faults.bist": "faults.bist_s",
    "faults.repair": "faults.repair_s",
}

#: Counter in the program's `repro.obs` registry -> per-layer metric.
REGISTRY_METRIC = {
    "route.heap_pops": "route.heap_pops",
    "fabric.cache_misses": "fabric.builds",
    "timing.sta_runs": "timing.sta_runs",
    "mission.bist_runs": "faults.bist_runs",
    "mission.repairs": "faults.repairs",
    "repair.nets_ripped": "faults.nets_ripped",
}


def parse_args(argv: List[str]) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("headline", "wmin", "mission"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--role", choices=("main", "child", "setup"),
                    default="main", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.seconds <= 0:
        ap.error("--seconds must be > 0")
    return args


# ---------------------------------------------------------------- child


def emit(kind: str, doc) -> None:
    sys.stdout.write(f"{TAG}{kind} {json.dumps(doc)}\n")
    sys.stdout.flush()


def import_program():
    """Import the program from this checkout's ``src`` only."""
    sys.path.insert(0, SRC)
    import repro

    where = os.path.dirname(os.path.abspath(repro.__file__))
    if where != os.path.join(SRC, "repro"):
        raise ImportError(f"repro imported from {where}, not from {SRC}")
    import layers
    import workloads
    return layers, workloads


@dataclasses.dataclass
class PassResult:
    """One pass: when each untraced and traced op started and ended
    (perf_counter), the outputs that count (one per operation that
    passed its checks), and the pass's counts."""

    plain: List[Tuple[float, float]]
    traced: List[Tuple[float, float]]
    outputs: list
    failures: List[str]
    registry: Dict[str, float]
    counts: Dict[str, float]


def _add(into: Dict[str, float], counts: Dict[str, float]) -> None:
    for name, value in counts.items():
        into[name] = into.get(name, 0) + value


def run_pass(workload, layers_mod, plain, rec, traced_first) -> PassResult:
    """Run every operation of ``workload`` once, untraced; with a span
    recorder, also once traced, in alternating order."""
    from repro.fabric import fabric_cache
    from repro.obs import MetricsRegistry, use_registry

    result = PassResult([], [], [], [], {}, {})
    for index, item in enumerate(workload.items):
        modes = ["plain"] if rec is None else (
            ["traced", "plain"] if (index % 2 == 0) == traced_first
            else ["plain", "traced"])
        for mode in modes:
            # Every operation starts from a cold fabric cache, so its work
            # does not depend on which operations ran before it.
            fabric_cache().clear()
            registry = MetricsRegistry()
            try:
                with use_registry(registry):
                    if mode == "traced":
                        rec.op += 1
                        with layers_mod.traced_layers(rec, plain) as traced:
                            t0 = time.perf_counter()
                            out = workload.op(traced, item)
                            t1 = time.perf_counter()
                    else:
                        t0 = time.perf_counter()
                        out = workload.op(plain, item)
                        t1 = time.perf_counter()
                problem = workload.check(item, out)
            except Exception:
                traceback.print_exc()
                result.failures.append(f"{item}: raised")
                continue
            (result.traced if mode == "traced" else result.plain).append((t0, t1))
            if problem is not None:
                result.failures.append(f"{item}: {problem}")
                print(f"[perfbench] check failed: {item}: {problem}",
                      file=sys.stderr)
            elif rec is None or mode == "traced":
                result.outputs.append(out)
                _add(result.registry, {
                    name: snap["value"]
                    for name, snap in registry.snapshot().items()
                    if snap.get("kind") == "counter"})
                _add(result.counts, workload.counts(out))
    return result


def layer_metrics(rec, passes: List[PassResult], factor: float,
                  setup_times: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metrics per pass, from the traced executions; times in
    reference seconds."""
    n = len(passes)
    traced_wall = sum(t1 - t0 for p in passes for t0, t1 in p.traced)
    plain_wall = sum(t1 - t0 for p in passes for t0, t1 in p.plain)
    reg: Dict[str, float] = {}
    counts: Dict[str, float] = {}
    for p in passes:
        _add(reg, p.registry)
        _add(counts, p.counts)
    metrics = {name: 0.0 for name in PER_LAYER_UNITS}
    metrics.update(setup_times)
    attributed = 0.0
    for span, secs in rec.self_times().items():
        metrics[SPAN_METRIC[span]] += secs * factor / n
        attributed += secs
    for counter, name in REGISTRY_METRIC.items():
        metrics[name] = reg.get(counter, 0) / n
    for name, value in counts.items():
        metrics[name] = value / n
    hits, misses = reg.get("fabric.cache_hits", 0), reg.get("fabric.cache_misses", 0)
    metrics["fabric.hit_frac"] = hits / (hits + misses) if hits + misses else 0.0
    metrics["evaluate.points"] = rec.count("evaluate.point") / n
    probes = rec.count("route.probe")
    metrics["route.probes"] = probes / n
    metrics["route.probe_fail_frac"] = (
        rec.attr_sum("route.probe", "failed") / probes if probes else 0.0)
    metrics["route.iterations"] = rec.attr_sum("route.route", "iterations") / n
    route_time = metrics["route.s"]
    metrics["route.pops_per_s"] = (
        metrics["route.heap_pops"] / route_time if route_time else 0.0)
    metrics["trace.wall_s"] = traced_wall * factor / n
    metrics["place.share"] = metrics["place.s"] / metrics["trace.wall_s"]
    metrics["trace.unattributed_frac"] = (traced_wall - attributed) / traced_wall
    metrics["obs.trace_overhead_frac"] = traced_wall / plain_wall - 1.0
    return metrics


def child_main(args: argparse.Namespace) -> int:
    with HostSpeed(period=0.01) as setup_speed:
        t0 = time.perf_counter()
        layers_mod, workloads = import_program()
        import_s = time.perf_counter() - t0
        workload = workloads.WORKLOADS[args.workload](args.seed)
        setup_times = workload.setup()
    emit("ready", {"factor": setup_speed.factor()})
    if args.role == "setup":
        return 0

    plain = layers_mod.Layers()
    rec = layers_mod.SpanRecorder() if args.trace else None
    passes: List[PassResult] = []
    with HostSpeed() as speed:
        start = time.perf_counter()
        while True:
            passes.append(run_pass(workload, layers_mod, plain, rec,
                                   traced_first=len(passes) % 2 == 0))
            elapsed = time.perf_counter() - start
            # Start another pass only if it should end within --seconds.
            if elapsed * (len(passes) + 1) / len(passes) > args.seconds:
                break
    factor = speed.factor()
    peak_rss_mb = _peak_rss_mb()
    if rec is not None:
        os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
        rec.write_jsonl(os.path.join(
            ROOT, ".perfbench", f"trace-{args.workload}-s{args.seed}.jsonl"))

    failures = [f for p in passes for f in p.failures]
    attempted = len(passes) * len(workload.items) * (2 if rec else 1)
    # Every pass runs the same operations on the same inputs, so their
    # outputs must agree exactly.
    prints = [[workload.fingerprint(o) for o in p.outputs] for p in passes]
    deterministic = all(p == prints[0] for p in prints)
    if not deterministic:
        print("[perfbench] passes disagree: outputs are not deterministic",
              file=sys.stderr)
    complete = not failures and len(passes[0].outputs) == len(workload.items)
    qor, wirelength = {}, 0.0
    if complete:
        wirelength, qor = workload.qor(passes[0].outputs)
    # Each operation's time is put on the reference speed by the probe
    # samples taken while it ran: the host's speed moves within a run.
    op_times = [[(t1 - t0) * speed.factor(t0, t1) for t0, t1 in p.plain]
                for p in passes]
    walls = [sum(times) for times in op_times]
    op_times = [t for times in op_times for t in times]
    result = {
        "correct": complete and deterministic,
        "attempted": attempted,
        "failed": len(failures),
        "passes": len(passes),
        "ops": len(op_times),
        "factor": factor,
        "raw_wall_s": statistics.median(
            sum(t1 - t0 for t0, t1 in p.plain) for p in passes),
        "qor": qor,
    }
    if rec is None:
        result["metrics"] = {
            "wall_s": statistics.median(walls),
            "op_p50_s": statistics.median(op_times) if op_times else 0.0,
            "peak_rss_mb": peak_rss_mb,
            "ok_frac": (attempted - len(failures)) / attempted,
            "wirelength": float(wirelength),
        }
    else:
        setup_times["import_s"] = import_s
        result["metrics"] = layer_metrics(rec, passes, factor, {
            name: secs * setup_speed.factor()
            for name, secs in setup_times.items()})
    emit("result", result)
    return 0


def _peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --------------------------------------------------------------- parent


class ChildFailed(RuntimeError):
    pass


def run_child(args: argparse.Namespace, role: str, deadline: float):
    """Start a child; return (its set-up time in reference seconds, its
    result)."""
    cmd = [sys.executable, os.path.abspath(__file__),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--role", role]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    # Kill the child at the deadline; its stdout then closes.
    timer = threading.Timer(max(0.0, deadline - t0), proc.kill)
    timer.start()
    setup_s = result = None
    try:
        for line in proc.stdout:
            if line.startswith(TAG + "ready "):
                ready = json.loads(line[len(TAG + "ready "):])
                setup_s = (time.perf_counter() - t0) * ready["factor"]
            elif line.startswith(TAG + "result "):
                result = json.loads(line[len(TAG + "result "):])
            else:
                sys.stderr.write(line)
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        code = proc.wait()
        proc.stdout.close()
    if code != 0 or setup_s is None:
        raise ChildFailed(f"{role} child exited with {code}")
    return setup_s, result


def report(workload: str, doc: dict) -> None:
    units = dict(END_TO_END_UNITS, **PER_LAYER_UNITS)
    err = sys.stderr
    print(f"[perfbench] {workload}: {doc['attempted']} operations in "
          f"{doc['passes']} pass(es), {doc['failed']} failed, "
          f"correct={doc['correct']}; host speed factor {doc['factor']:.3f}, "
          f"measured pass {doc['raw_wall_s']:.3f} s", file=err)
    for name, entry in doc["metrics"].items():
        extra = f"  (n={doc['ops']} operations)" if name == "op_p50_s" else ""
        print(f"  {name:26s} {entry['value']:>14.6g} {units[name]}{extra}",
              file=err)
    for name, (value, unit) in doc["qor"].items():
        print(f"  {name:26s} {value:>14.6g} {unit}", file=err)


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if args.role != "main":
        return child_main(args)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"[perfbench] no program source at {SRC}", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + CHILD_TIMEOUT_S
    setups: List[float] = []
    try:
        if not args.trace:
            spent = time.perf_counter()
            while len(setups) < SETUP_MIN - 1 or (
                    time.perf_counter() - spent < SETUP_BUDGET_S
                    and len(setups) < SETUP_MAX - 1):
                setups.append(run_child(args, "setup", deadline)[0])
        setup_s, result = run_child(args, "child", deadline)
    except ChildFailed as exc:
        print(f"[perfbench] {exc}", file=sys.stderr)
        return 1
    if result is None:
        print("[perfbench] workload child printed no result", file=sys.stderr)
        return 1
    setups.append(setup_s)
    metrics = dict(result["metrics"])
    if not args.trace:
        metrics["setup_s"] = statistics.median(setups)
        units = END_TO_END_UNITS
    else:
        units = PER_LAYER_UNITS
    out = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }
    report(args.workload, dict(result, metrics=out["metrics"]))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
