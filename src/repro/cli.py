"""Command-line interface: ``repro <subcommand>``.

Exposes the library's main entry points without writing Python:

* ``repro device``    — relay design points (Fig. 2b / Fig. 11 anchors)
* ``repro crossbar``  — program a crossbar via half-select
* ``repro flow``      — pack/place/route/configure a benchmark + variants,
  through the batch worker's own configure-and-evaluate step
* ``repro batch``     — a (circuit x variant x seed) job matrix over a
  worker-process pool, bit-identical to serial (see `repro.runner`);
  ``--store DIR`` serves and publishes results through the result store
* ``repro watch``     — the same batch with the live telemetry table
  (``batch --live``): per-job stage, PathFinder iteration, repair
  rung, RSS, and heartbeat age streamed from the workers
* ``repro faults``    — seeded stuck-fault campaigns + self-repair
  yield curves (see `repro.faults`)
* ``repro sweep``     — the Fig. 12 downsizing trade-off for a circuit
* ``repro headline``  — suite-level headline comparison vs the paper
* ``repro explore``   — future-work architecture sweeps

Telemetry consumers (see `repro.obs.analyze`):

* ``repro report``        — render one ``--metrics-out`` JSONL run
* ``repro diff``          — compare two runs, gate with ``--fail-on``
* ``repro db``            — sqlite telemetry warehouse: ingest runs, rank
  spans across runs, plot a measurement's trajectory, and attribute an
  end-to-end regression to the spans responsible (``db attribute``)

All circuits come from the built-in suite generator; ``--scale``
shrinks them for quick runs (see DESIGN.md Sec. 6).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import sys
from typing import Dict, List, Optional


@contextlib.contextmanager
def _telemetry(args: argparse.Namespace, arch=None, extra=None,
               root_span="cli.run"):
    """Scope a tracer for one command when observability flags ask.

    ``-v`` turns on structured logs to stderr; ``--metrics-out PATH``
    records spans and writes manifest + spans + metrics as JSONL on
    exit; ``--profile`` wraps the command in a ``root_span`` with the
    sampling profiler attached (collapsed stacks land on the span when
    exported, or print to stderr without ``--metrics-out``).  With no
    flag this yields None and the flow runs over the inert null tracer.
    """
    from .obs import (
        Tracer,
        export_run,
        get_registry,
        profiled,
        run_manifest,
        setup_logging,
        use_tracer,
    )

    verbosity = getattr(args, "verbose", 0)
    if verbosity:
        setup_logging(verbosity)
    metrics_out = getattr(args, "metrics_out", None)
    profile = bool(getattr(args, "profile", False))
    if not metrics_out and not profile:
        # Structured logs (if any) need no tracer; spans stay inert.
        yield None
        return
    tracer = Tracer()
    profile_attr = None
    try:
        with use_tracer(tracer):
            if profile:
                with tracer.span(root_span) as span:
                    with profiled(span):
                        yield tracer
                profile_attr = span.attrs.get("profile")
            else:
                yield tracer
    finally:
        if metrics_out:
            manifest = run_manifest(
                seed=getattr(args, "seed", None),
                arch=arch,
                argv=sys.argv[1:],
                extra=extra,
            )
            records = export_run(metrics_out, manifest, tracer, get_registry())
            print(f"wrote {records} telemetry records to {metrics_out}",
                  file=sys.stderr)
        elif profile_attr:
            stacks = profile_attr.get("stacks") or {}
            total = profile_attr.get("samples") or 0
            print(f"profile: {total} samples @ "
                  f"{profile_attr.get('interval_s')}s "
                  f"({profile_attr.get('backend')} backend)", file=sys.stderr)
            ranked = sorted(stacks.items(), key=lambda kv: (-kv[1], kv[0]))
            for stack, count in ranked[:8]:
                share = 100.0 * count / total if total else 0.0
                print(f"  {share:5.1f}%  {stack}", file=sys.stderr)


def _cmd_device(args: argparse.Namespace) -> int:
    from .nemrelay import fabricated_relay, scaled_relay, switching_delay, sweep_iv

    relay = fabricated_relay() if args.fabricated else scaled_relay()
    label = "fabricated (23 um, oil)" if args.fabricated else "22nm scaled (Fig. 11)"
    print(f"device: {label}")
    print(f"  Vpi = {relay.pull_in_voltage:.3f} V")
    print(f"  Vpo = {relay.pull_out_voltage:.3f} V")
    print(f"  Ron = {relay.circuit.r_on:.3g} ohm, Con = {relay.circuit.c_on * 1e18:.1f} aF, "
          f"Coff = {relay.circuit.c_off * 1e18:.1f} aF")
    delay = switching_delay(relay.model)
    print(f"  mechanical switching delay (1.2x Vpi): {delay * 1e9:.2f} ns")
    curve = sweep_iv(relay)
    print(f"  swept I-V: pull-in {curve.pull_in_observed:.3f} V, "
          f"pull-out {curve.pull_out_observed:.3f} V, "
          f"window {curve.hysteresis_window:.3f} V")
    return 0


def _parse_targets(spec: str) -> set:
    targets = set()
    for part in spec.split(";"):
        part = part.strip()
        if not part:
            continue
        r, c = part.split(",")
        targets.add((int(r), int(c)))
    return targets


def _cmd_crossbar(args: argparse.Namespace) -> int:
    from .crossbar import HalfSelectProgrammer, solve_voltages, uniform_crossbar
    from .nemrelay import fabricated_relay

    model = fabricated_relay().model
    voltages = solve_voltages([model.pull_in], [model.pull_out])
    xbar = uniform_crossbar(args.rows, args.cols, model)
    programmer = HalfSelectProgrammer(xbar, voltages)
    targets = _parse_targets(args.targets)
    with _telemetry(args, extra={"rows": args.rows, "cols": args.cols}):
        configured = programmer.program(targets)
    ok = configured == targets
    # Under --json the human-readable summary becomes a diagnostic:
    # stdout carries only the machine-readable result.
    out = sys.stderr if args.json else sys.stdout
    print(f"{args.rows}x{args.cols} crossbar, Vhold = {voltages.v_hold:.2f} V, "
          f"Vselect = {voltages.v_select:.2f} V", file=out)
    for r in range(args.rows):
        print("  " + " ".join("X" if (r, c) in configured else "." for c in range(args.cols)),
              file=out)
    print(f"programmed exactly the targets: {ok}", file=out)
    if args.json:
        margins = programmer.population_margins()
        print(json.dumps({
            "rows": args.rows,
            "cols": args.cols,
            "v_hold": voltages.v_hold,
            "v_select": voltages.v_select,
            "targets": sorted(targets),
            "configured": sorted(configured),
            "margin_worst_v": margins.worst,
            "success": ok,
        }, sort_keys=True))
    return 0 if ok else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .obs import setup_logging
    from .serve import serve_async

    if getattr(args, "verbose", 0):
        setup_logging(args.verbose)
    store = _open_store(args)
    if store is None:
        print("error: repro serve needs --store DIR (the result store "
              "backing the service)", file=sys.stderr)
        return 2

    def ready(server):
        # Machine-readable bind line on stdout: launchers (CI, tests)
        # parse the ephemeral port from it.
        print(json.dumps({"serving": True, "host": server.host,
                          "port": server.port, "store": store.root,
                          "workers": server.workers}, sort_keys=True),
              flush=True)

    try:
        asyncio.run(serve_async(
            store, workers=args.workers, timeout_s=args.timeout,
            retries=args.retries, host=args.host, port=args.port,
            ready=ready))
    except KeyboardInterrupt:
        print("serve: interrupted", file=sys.stderr)
    return 0


def _cmd_flow(args: argparse.Namespace) -> int:
    from .arch import ArchParams
    from .netlist import load_circuit
    from .runner.worker import configure_and_evaluate, variant_for
    from .vpr import render_congestion, render_placement, run_flow, utilization_summary

    arch = ArchParams(channel_width=args.width)
    netlist = load_circuit(args.circuit, scale=args.scale)
    # Progress and failure diagnostics go to stderr: stdout carries
    # only results (table or --json), so pipelines stay parseable.
    print(f"circuit: {netlist}", file=sys.stderr)
    with _telemetry(args, arch=arch, extra={"circuit": args.circuit,
                                            "scale": args.scale},
                    root_span="cli.flow"):
        flow = run_flow(netlist, arch, seed=args.seed)
        if not flow.success:
            print("routing FAILED at this channel width; try --width higher",
                  file=sys.stderr)
            if args.json:
                print(json.dumps({
                    "circuit": netlist.name,
                    "width": args.width,
                    "seed": args.seed,
                    "success": False,
                    "overused_nodes": flow.routing.overused_nodes,
                    "iterations": flow.routing.iterations,
                }, sort_keys=True))
            return 1
        # Configure the relay fabric for the routed design (Sec. 2 meets
        # Sec. 3), then compare both NEM variants against the baseline.
        design = configure_and_evaluate(flow, arch, [
            variant_for("nem-naive", arch),
            variant_for("nem-opt", arch, args.downsize),
        ])
        bitstream, config, base = design.bitstream, design.config, design.base
        if not config.success:
            print(f"fabric programming FAILED on {len(config.failures)} tile(s)",
                  file=sys.stderr)
        labels = ["naive CMOS-NEM", f"optimised (downsize {args.downsize:g})"]
        comparisons = [(label, cmp) for label, (_variant, _point, cmp)
                       in zip(labels, design.variants)]
        if args.json:
            print(json.dumps({
                "circuit": netlist.name,
                "width": args.width,
                "seed": args.seed,
                "success": True,
                "wirelength": flow.routing.wirelength,
                "iterations": flow.routing.iterations,
                "config": {
                    "switches": bitstream.total_switches,
                    "arrays_programmed": config.arrays_programmed,
                    "relays_closed": config.relays_closed,
                    "row_steps": config.row_steps,
                    "success": config.success,
                },
                "convergence": [dataclasses.asdict(it)
                                for it in flow.routing.convergence],
                "baseline": {
                    "critical_path_s": base.critical_path,
                    "dynamic_w": base.total_dynamic,
                    "leakage_w": base.total_leakage,
                },
                "variants": [
                    {"label": label, **dataclasses.asdict(cmp)}
                    for label, cmp in comparisons
                ],
            }, sort_keys=True))
            return 0
        print(f"routed at W = {args.width}: wirelength {flow.routing.wirelength}, "
              f"{flow.routing.iterations} iterations")
        print(f"configured fabric: {config.relays_closed} relays closed across "
              f"{config.arrays_programmed} tile arrays in {config.row_steps} "
              f"row steps ({'ok' if config.success else 'FAILED'})")
        if args.show_maps:
            print("\nfloorplan:")
            print(render_placement(flow.placement))
            print("\ncongestion:")
            print(render_congestion(flow.routing, flow.graph))
            summary = utilization_summary(flow.routing, flow.graph)
            print(f"channel utilisation mean {100 * summary['mean']:.0f}% "
                  f"peak {100 * summary['max']:.0f}%")
        print(f"\nbaseline: crit {base.critical_path * 1e9:.2f} ns, "
              f"dyn {base.total_dynamic * 1e3:.3f} mW, leak {base.total_leakage * 1e3:.3f} mW")
        print(f"{'variant':30s} {'speedup':>8s} {'dyn.red':>8s} {'leak.red':>9s} {'area.red':>9s}")
        for label, cmp in comparisons:
            print(f"{label:30s} {cmp.speedup:8.2f} {cmp.dynamic_reduction:8.2f} "
                  f"{cmp.leakage_reduction:9.2f} {cmp.area_reduction:9.2f}")
        return 0


def _cmd_rrgraph(args: argparse.Namespace) -> int:
    from .arch import ArchParams
    from .fabric import get_fabric

    params = ArchParams(
        channel_width=args.width,
        segment_length=args.seg_length,
        directionality=args.directionality,
    )
    with _telemetry(args, arch=params,
                    extra={"nx": args.nx, "ny": args.ny}):
        ir = get_fabric(params, args.nx, args.ny)
        stats = ir.stats()
    if args.json:
        print(json.dumps(stats, sort_keys=True))
        return 0
    grid = stats["grid"]
    print(f"RR graph {grid[0]}x{grid[1]}, W = {stats['channel_width']}, "
          f"L = {params.segment_length}, {stats['directionality']}")
    print(f"  nodes: {stats['num_nodes']}")
    for name, count in stats["nodes_by_kind"].items():
        print(f"    {name:<8} {count}")
    print(f"  edges: {stats['num_edges']}")
    for name, count in stats["edges_by_switch"].items():
        print(f"    {name:<10} {count}")
    print(f"  memory: {stats['memory_bytes']} bytes")
    build = stats["build"]
    print(f"  build: {build['build_wall_s'] * 1e3:.2f} ms "
          f"({build['constructor']})")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .arch import ArchParams
    from .core import fig12_series, format_headline, headline_summary, sweep_circuit
    from .netlist import load_circuit
    from .vpr import run_flow

    arch = ArchParams(channel_width=args.width)
    netlist = load_circuit(args.circuit, scale=args.scale)
    with _telemetry(args, arch=arch, extra={"circuit": args.circuit,
                                            "scale": args.scale}):
        flow = run_flow(netlist, arch, seed=args.seed)
        if not flow.success:
            print("routing FAILED; try --width higher", file=sys.stderr)
            if args.json:
                print(json.dumps({
                    "circuit": netlist.name,
                    "width": args.width,
                    "seed": args.seed,
                    "success": False,
                }, sort_keys=True))
            return 1
        curve = sweep_circuit(flow, arch)
    series = fig12_series(curve)
    summary = headline_summary([curve])
    if args.json:
        print(json.dumps({
            "circuit": netlist.name,
            "width": args.width,
            "seed": args.seed,
            "success": True,
            "series": series,
            "corner": dataclasses.asdict(summary.corner),
            "naive": (dataclasses.asdict(summary.naive)
                      if summary.naive is not None else None),
        }, sort_keys=True))
        return 0
    print(f"{'downsize':>9s} {'speed-up':>9s} {'dyn.red':>8s} {'leak.red':>9s}")
    for ds, sp, dyn, leak in zip(
        series["downsize"], series["speedup"],
        series["dynamic_reduction"], series["leakage_reduction"],
    ):
        print(f"{ds:9.1f} {sp:9.2f} {dyn:8.2f} {leak:9.2f}")
    print()
    print(format_headline(summary))
    return 0


def _cmd_headline(args: argparse.Namespace) -> int:
    from .arch import ArchParams
    from .core import format_headline, headline_summary, sweep_circuit
    from .netlist import generate, suite
    from .vpr import run_flow

    arch = ArchParams(channel_width=args.width)
    curves = []
    with _telemetry(args, arch=arch, extra={"suite": args.suite,
                                            "scale": args.scale}):
        for params in suite(args.suite, scale=args.scale):
            netlist = generate(params)
            flow = run_flow(netlist, arch, seed=args.seed)
            if not flow.success:
                print(f"  {params.name}: unroutable at W = {args.width}, skipped",
                      file=sys.stderr)
                continue
            curves.append(sweep_circuit(flow, arch))
            print(f"  {params.name}: done ({netlist.num_luts} LUTs)", file=sys.stderr)
    if not curves:
        print("no circuit routed; try --width higher", file=sys.stderr)
        return 1
    summary = headline_summary(curves)
    if args.json:
        print(json.dumps({
            "suite": args.suite,
            "width": args.width,
            "seed": args.seed,
            "circuits": [c.circuit for c in curves],
            "corner": dataclasses.asdict(summary.corner),
            "naive": (dataclasses.asdict(summary.naive)
                      if summary.naive is not None else None),
            "per_circuit": {name: dataclasses.asdict(point)
                            for name, point in summary.per_circuit.items()},
        }, sort_keys=True))
        return 0
    print(format_headline(summary))
    return 0


def _cmd_map(args: argparse.Namespace) -> int:
    from .netlist import (
        check_equivalence,
        map_to_luts,
        mapping_stats,
        random_gate_circuit,
        write_blif,
    )

    gates = random_gate_circuit(
        "mapped",
        num_gates=args.gates,
        num_inputs=args.inputs,
        num_outputs=args.pos,
        ff_fraction=args.ff_fraction,
        seed=args.seed,
    )
    mapped = map_to_luts(gates, k=args.k)
    stats = mapping_stats(gates, mapped)
    print(f"{stats['gates']:.0f} gates -> {stats['luts']:.0f} {args.k}-LUTs "
          f"({stats['gates_per_lut']:.2f} gates/LUT, depth {stats['lut_depth']:.0f})")
    equivalent = check_equivalence(gates, mapped, vectors=args.vectors, seed=args.seed)
    print(f"functional equivalence over {args.vectors} random vectors: {equivalent}")
    if args.blif:
        with open(args.blif, "w") as handle:
            write_blif(mapped, handle)
        print(f"wrote mapped BLIF to {args.blif}")
    return 0 if equivalent else 1


def _cmd_explore(args: argparse.Namespace) -> int:
    from .arch import ArchParams
    from .core import format_sweep, sweep_connection_flexibility, sweep_segment_length
    from .netlist import load_circuit

    arch = ArchParams(channel_width=args.width)
    netlist = load_circuit(args.circuit, scale=args.scale)
    with _telemetry(args, arch=arch, extra={"circuit": args.circuit,
                                            "knob": args.knob}):
        if args.knob == "segment_length":
            points = sweep_segment_length(netlist, arch, seed=args.seed)
        else:
            points = sweep_connection_flexibility(netlist, arch, seed=args.seed)
    print(format_sweep(points, args.knob))
    return 0


def _parse_csv(spec: str, cast=str) -> List:
    return [cast(part.strip()) for part in spec.split(",") if part.strip()]


def _cmd_faults(args: argparse.Namespace) -> int:
    from .arch import ArchParams
    from .faults import run_defect_sweep
    from .netlist import load_circuit

    arch = ArchParams(channel_width=args.width)
    netlist = load_circuit(args.circuit, scale=args.scale)
    rates = _parse_csv(args.rates, float)
    print(f"circuit: {netlist}", file=sys.stderr)
    with _telemetry(args, arch=arch, extra={
        "circuit": args.circuit, "scale": args.scale,
        "rates": rates, "campaigns": args.campaigns, "mode": args.mode,
    }):
        try:
            sweep = run_defect_sweep(
                netlist, arch,
                channel_width=args.width,
                rates=rates,
                campaigns=args.campaigns,
                base_seed=args.base_seed,
                mode=args.mode,
                stuck_closed_fraction=args.stuck_closed_fraction,
                seed=args.seed,
            )
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    doc = sweep.to_dict()
    if args.out:
        from .obs import write_json

        write_json(args.out, doc)
        print(f"wrote defect sweep to {args.out}", file=sys.stderr)
    curve = sweep.yield_curve()
    all_repaired = all(row["yield"] == 1.0 for row in curve)
    if args.json:
        print(json.dumps(doc, sort_keys=True))
    else:
        print(f"{args.circuit} @ W={sweep.channel_width}: clean wirelength "
              f"{sweep.clean_wirelength}, {args.campaigns} campaign(s)/rate, "
              f"mode={args.mode}")
        print(f"{'rate':>7s} {'defects':>8s} {'yield':>6s} {'increm.':>7s} "
              f"{'ripped':>7s} {'wl.ovh':>7s}  stages")
        for row in curve:
            stages = ",".join(f"{k}:{v}" for k, v in row["stages"].items())
            print(f"{row['rate']:7.3%} {row['mean_defects']:8.1f} "
                  f"{row['yield']:6.0%} {row['incremental_yield']:7.0%} "
                  f"{row['mean_nets_ripped']:7.1f} "
                  f"{row['wirelength_overhead']:7.1%}  {stages}")
        print(f"all campaigns repaired: {all_repaired}")
    return 0 if all_repaired else 1


def _cmd_mission(args: argparse.Namespace) -> int:
    from .faults.mission import aggregate_degradation, resolve_policy
    from .obs import setup_logging, write_json
    from .runner import BatchSpec, results_identical, run_batch

    if getattr(args, "verbose", 0):
        setup_logging(args.verbose)
    policies = _parse_csv(args.policy)
    try:
        for name in policies:
            resolve_policy(name)
        if args.campaigns < 1:
            raise ValueError("--campaigns must be >= 1")
        spec = BatchSpec.from_matrix(
            circuits=[args.circuit],
            seeds=[args.seed],
            widths=[args.width],
            scale=args.scale,
            mission_epochs=args.epochs,
            mission_policies=policies,
            mission_seeds=list(range(
                args.base_seed, args.base_seed + args.campaigns)),
            mission_years=args.years,
            timeout_s=args.timeout,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    def progress(result, done, total):
        print(f"[{done}/{total}] {result.key}: {result.status} "
              f"({result.wall_s:.2f}s)", file=sys.stderr)

    workers = args.workers
    batch = run_batch(spec, workers=workers, metrics_out=args.metrics_out,
                      progress=progress, store=_open_store(args))

    deterministic = None
    if args.verify_serial and workers > 1:
        print("verify-serial: re-running the mission with 1 worker...",
              file=sys.stderr)
        serial = run_batch(spec, workers=1, progress=progress)
        deterministic = results_identical(batch.results, serial.results)
        print(f"verify-serial: parallel results are "
              f"{'bit-identical to' if deterministic else 'DIFFERENT from'} "
              f"serial execution", file=sys.stderr)

    # One job per (policy, campaign seed): re-assemble each policy's
    # degradation curve from its campaigns' per-epoch records.
    results_by_key = {r.key: r for r in batch.results}
    policy_docs: Dict[str, Dict[str, object]] = {}
    failed_jobs = [r for r in batch.results if not r.ok]
    for name in policies:
        curves = []
        ttfs = []
        for job in spec.jobs:
            if job.mission_policy != name:
                continue
            result = results_by_key[job.key]
            records = result.qor.get("mission.curve")
            if records:
                curves.append(records)
            ttf = result.qor.get("mission.ttf_years")
            if ttf is not None:
                ttfs.append(ttf)
        policy_docs[name] = {
            "campaigns": len(curves),
            "degradation_curve": aggregate_degradation(
                curves, args.epochs, args.years),
            "time_to_first_unrepairable": min(ttfs) if ttfs else None,
        }

    doc: Dict[str, object] = {
        "circuit": args.circuit,
        "scale": args.scale,
        "channel_width": args.width,
        "epochs": args.epochs,
        "years": args.years,
        "campaigns": args.campaigns,
        "base_seed": args.base_seed,
        "spec_digest": spec.digest,
        "policies": policy_docs,
        "results": [r.to_dict() for r in batch.results],
    }
    if deterministic is not None:
        doc["verify_serial"] = {"identical": deterministic}

    if args.out:
        write_json(args.out, doc)
        print(f"wrote mission document to {args.out}", file=sys.stderr)
    if args.json:
        print(json.dumps(doc, sort_keys=True))
    else:
        print(f"{args.circuit} @ W={args.width}: {len(policies)} policy(ies) "
              f"x {args.campaigns} campaign(s), {args.epochs} epochs over "
              f"{args.years:g} device-years")
        print(f"{'policy':<18s} {'yield per epoch':<28s} {'ttf.y':>6s} "
              f"{'W.end':>6s} {'repairs':>7s}")
        for name in policies:
            pdoc = policy_docs[name]
            curve = pdoc["degradation_curve"]
            yields = " ".join(f"{row['yield']:.2f}" for row in curve)
            ttf = pdoc["time_to_first_unrepairable"]
            final_w = curve[-1]["mean_channel_width"] if curve else 0.0
            repairs = sum(row["repairs"] for row in curve)
            print(f"{name:<18s} {yields:<28s} "
                  f"{ttf if ttf is not None else '-':>6} "
                  f"{final_w:>6.1f} {repairs:>7d}")
    if batch.metrics_path:
        print(f"wrote merged mission telemetry to {batch.metrics_path}",
              file=sys.stderr)
    if failed_jobs:
        for result in failed_jobs:
            print(f"job failed: {result.key}: {result.status}",
                  file=sys.stderr)
        return 1
    if deterministic is False:
        return 3
    return 0


def _open_store(args: argparse.Namespace):
    """The `ResultStore` the command's flags describe, or None."""
    path = getattr(args, "store", None)
    if not path:
        return None
    from .store import ResultStore

    return ResultStore(path,
                       max_bytes=getattr(args, "store_max_bytes", None),
                       max_entries=getattr(args, "store_max_entries", None))


def _cmd_batch(args: argparse.Namespace) -> int:
    from .obs import setup_logging, write_json
    from .runner import BatchSpec, results_identical, run_batch

    if getattr(args, "verbose", 0):
        setup_logging(args.verbose)
    try:
        if args.spec:
            spec = BatchSpec.from_file(args.spec)
        else:
            if not args.circuits:
                raise ValueError("need --spec FILE or --circuits LIST")
            spec = BatchSpec.from_matrix(
                circuits=_parse_csv(args.circuits),
                variants=_parse_csv(args.variants),
                seeds=_parse_csv(args.seeds, int),
                widths=[args.width],
                scale=args.scale,
                defect_rates=(_parse_csv(args.defect_rates, float)
                              if args.defect_rates else [None]),
                defect_seed=args.defect_seed,
                defect_mode=args.defect_mode,
                timeout_s=args.timeout,
                retries=args.retries,
            )
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    workers = args.workers if args.workers is not None else spec.workers
    live = getattr(args, "live", False)
    ingest_db = getattr(args, "db", None)
    if ingest_db and not args.metrics_out:
        print("error: --db needs --metrics-out (nothing to ingest)",
              file=sys.stderr)
        return 2

    def progress(result, done, total):
        print(f"[{done}/{total}] {result.key}: {result.status} "
              f"({result.wall_s:.2f}s"
              + (f", {result.attempts} attempts" if result.attempts > 1 else "")
              + ")", file=sys.stderr)

    batch = run_batch(
        spec, workers=workers, shard_dir=args.shard_dir,
        metrics_out=args.metrics_out,
        # The live table replaces the per-job progress lines.
        progress=None if live else progress,
        live=live or getattr(args, "stall_after", None) is not None,
        profile=getattr(args, "profile", False),
        stall_after_s=getattr(args, "stall_after", None),
        stall_kill=getattr(args, "stall_kill", False),
        ingest_db=ingest_db,
        store=_open_store(args),
    )
    doc = {
        "spec_digest": spec.digest,
        **batch.summary(),
        "results": [r.to_dict() for r in batch.results],
    }
    if batch.collector is not None:
        doc["telemetry_dropped_events"] = batch.collector.dropped_events()

    deterministic = None
    if args.verify_serial and workers > 1:
        print("verify-serial: re-running the batch with 1 worker...",
              file=sys.stderr)
        serial = run_batch(spec, workers=1, progress=progress)
        deterministic = results_identical(batch.results, serial.results)
        doc["verify_serial"] = {
            "identical": deterministic,
            "serial_wall_s": serial.wall_s,
            "parallel_wall_s": batch.wall_s,
        }
        print(f"verify-serial: parallel results are "
              f"{'bit-identical to' if deterministic else 'DIFFERENT from'} "
              f"serial execution", file=sys.stderr)

    if args.results:
        write_json(args.results, doc)
        print(f"wrote batch results to {args.results}", file=sys.stderr)
    if args.json:
        print(json.dumps(doc, sort_keys=True))
    else:
        summary = batch.summary()
        print(f"{summary['ok']}/{summary['jobs']} jobs ok in "
              f"{summary['wall_s']:.2f}s with {summary['workers']} worker(s)")
        for result in batch.results:
            qor = result.qor
            line = f"  {result.key}: {result.status}"
            if result.ok:
                line += (f"  wl={qor.get('wirelength')} "
                         f"it={qor.get('iterations')} "
                         f"crit={qor.get('critical_path_s', 0) * 1e9:.2f}ns")
            print(line)
    if batch.store_stats is not None:
        stats = batch.store_stats
        print(f"result store {args.store}: {stats['hits']} hit(s), "
              f"{stats['misses']} miss(es), {stats['published']} published",
              file=sys.stderr)
    if batch.metrics_path:
        print(f"wrote merged batch telemetry to {batch.metrics_path}",
              file=sys.stderr)
    if batch.ingest is not None:
        state = ("ingested" if batch.ingest.inserted
                 else "already ingested (unchanged)")
        print(f"telemetry warehouse {ingest_db}: run "
              f"#{batch.ingest.run_id} {batch.ingest.digest[:12]} {state}",
              file=sys.stderr)
    if deterministic is False:
        return 3
    return 0 if batch.ok else 1


def _cmd_report(args: argparse.Namespace) -> int:
    from .obs.analyze import load_run, render_html, render_report

    try:
        run = load_run(args.run)
    except OSError as exc:
        print(f"error: cannot read {args.run}: {exc}", file=sys.stderr)
        return 2
    for warning in run.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    if args.html:
        with open(args.html, "w", encoding="utf-8") as handle:
            handle.write(render_html(run))
        print(f"wrote HTML report to {args.html}", file=sys.stderr)
    print(render_report(run, flame=not args.no_flame, max_depth=args.max_depth),
          end="")
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    from .obs.analyze import (
        diff_runs,
        diff_to_dict,
        evaluate_thresholds,
        format_diff,
        load_run,
        parse_threshold,
    )

    try:
        thresholds = [parse_threshold(spec) for spec in (args.fail_on or [])]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        run_a, run_b = load_run(args.run_a), load_run(args.run_b)
    except OSError as exc:
        print(f"error: cannot read run: {exc}", file=sys.stderr)
        return 2
    for run in (run_a, run_b):
        for warning in run.warnings:
            print(f"warning: {run.source}: {warning}", file=sys.stderr)
    diff = diff_runs(run_a, run_b)
    verdict = evaluate_thresholds(diff, thresholds)
    if args.json:
        print(json.dumps(diff_to_dict(diff, verdict), sort_keys=True))
    else:
        keys = list(diff.entries) if args.all else None
        print(format_diff(diff, keys=keys, only_changed=args.changed), end="")
    for violation in verdict.violations:
        print(f"FAIL {violation}", file=sys.stderr)
    if thresholds and verdict.ok:
        print(f"OK: {len(thresholds)} regression gate(s) passed", file=sys.stderr)
    return 0 if verdict.ok else 1


def _db_load_run(con_box: dict, args: argparse.Namespace, selector: str):
    """A `ParsedRun` from a warehouse selector *or* a JSONL file path.

    File paths keep `repro db attribute` usable without any store —
    e.g. against two committed baseline runs in CI — while selectors
    (``latest``, ``latest~1``, run ids, digest prefixes) hit the
    warehouse, connecting lazily on first use.
    """
    from .obs import store
    from .obs.analyze import load_run

    if os.path.exists(selector):
        return load_run(selector)
    if con_box.get("con") is None:
        con_box["con"] = store.connect(args.db)
    con = con_box["con"]
    return store.load_parsed_run(con, store.resolve_run(con, selector))


def _cmd_db(args: argparse.Namespace) -> int:
    from .obs import store

    try:
        if args.action == "ingest":
            con = store.connect(args.db)
            try:
                for path in args.run:
                    try:
                        result = store.ingest_file(con, path, label=args.label)
                    except (OSError, ValueError) as exc:
                        print(f"error: {path}: {exc}", file=sys.stderr)
                        return 2
                    for warning in result.warnings:
                        print(f"warning: {warning}", file=sys.stderr)
                    state = (f"ingested {result.spans} span(s)"
                             if result.inserted else "already ingested")
                    print(f"run #{result.run_id} {result.digest[:12]} "
                          f"{state}: {path}")
            finally:
                con.close()
            return 0

        if args.action == "runs":
            con = store.connect(args.db)
            try:
                rows = store.list_runs(con, limit=args.limit)
            finally:
                con.close()
            if args.json:
                print(json.dumps(rows, sort_keys=True))
                return 0
            print(f"{'id':>4s} {'digest':<12s} {'git sha':<12s} "
                  f"{'circuit':<10s} {'wall s':>9s} {'spans':>6s}  source")
            for row in rows:
                sha = (row["git_sha"] or "-")[:12]
                wall = row["total_wall_s"]
                print(f"{row['run_id']:>4d} {row['digest'][:12]:<12s} "
                      f"{sha:<12s} {(row['circuit'] or '-'):<10s} "
                      f"{'-' if wall is None else format(wall, '9.3f'):>9s} "
                      f"{row['span_count']:>6d}  {row['source']}")
            return 0

        if args.action == "top":
            con = store.connect(args.db)
            try:
                runs = None
                if args.last is not None:
                    runs = [row["run_id"]
                            for row in store.list_runs(con, limit=args.last)]
                rows = store.top_spans(con, k=args.k, runs=runs, by=args.by,
                                       min_count=args.min_count)
            finally:
                con.close()
            if args.json:
                print(json.dumps(rows, sort_keys=True))
                return 0
            print(f"{'agg ' + args.by:>12s} {'mean':>9s} {'max':>9s} "
                  f"{'runs':>5s}  path")
            for row in rows:
                print(f"{row['agg_s']:12.4f} {row['mean_s']:9.4f} "
                      f"{row['max_s']:9.4f} {row['runs']:>5d}  {row['path']}")
            return 0

        if args.action == "trend":
            con = store.connect(args.db)
            try:
                rows = store.trend(con, args.key, since_sha=args.since)
            finally:
                con.close()
            if args.json:
                print(json.dumps(rows, sort_keys=True))
                return 0
            if not rows:
                print(f"no ingested run has measurement {args.key!r}",
                      file=sys.stderr)
                return 1
            values = [row["value"] for row in rows]
            lo, hi = min(values), max(values)
            for row in rows:
                # A 30-column inline bar makes the trajectory legible
                # without plotting dependencies.
                width = (30 if hi == lo
                         else int(round(30 * (row["value"] - lo) / (hi - lo))))
                sha = (row["git_sha"] or "-")[:12]
                print(f"run#{row['run_id']:<4d} {sha:<12s} "
                      f"{row['value']:>12.6g}  {'#' * width}")
            return 0

        # attribute
        from .obs.analyze import (
            attribute_runs,
            format_attribution,
            parse_threshold,
            render_attribution_html,
        )

        try:
            thresholds = [parse_threshold(spec)
                          for spec in (args.fail_on or [])]
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        con_box: dict = {"con": None}
        try:
            run_a = _db_load_run(con_box, args, args.run_a)
            run_b = _db_load_run(con_box, args, args.run_b)
        except OSError as exc:
            print(f"error: cannot read run: {exc}", file=sys.stderr)
            return 2
        finally:
            if con_box.get("con") is not None:
                con_box["con"].close()
        for run in (run_a, run_b):
            for warning in run.warnings:
                print(f"warning: {run.source}: {warning}", file=sys.stderr)
        attr = attribute_runs(run_a, run_b)
        violations = attr.check(thresholds)
        if args.html:
            with open(args.html, "w", encoding="utf-8") as handle:
                handle.write(render_attribution_html(attr))
            print(f"wrote attribution HTML to {args.html}", file=sys.stderr)
        if args.json:
            doc = attr.to_dict()
            doc["ok"] = not violations
            doc["violations"] = violations
            print(json.dumps(doc, sort_keys=True))
        else:
            print(format_attribution(attr, top=args.top), end="")
        for violation in violations:
            print(f"FAIL {violation}", file=sys.stderr)
        if thresholds and not violations:
            print(f"OK: {len(thresholds)} attribution gate(s) passed",
                  file=sys.stderr)
        return 0 if not violations else 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CMOS-NEM FPGA reproduction (DATE 2012) command-line tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_device = sub.add_parser("device", help="relay design-point summary")
    p_device.add_argument("--fabricated", action="store_true",
                          help="the 23um lab device instead of the 22nm point")
    p_device.set_defaults(func=_cmd_device)

    def add_obs_args(p):
        p.add_argument("--metrics-out", metavar="PATH",
                       help="write run manifest + spans + metrics as JSONL")
        p.add_argument("-v", "--verbose", action="count", default=0,
                       help="structured logs to stderr (-vv for debug)")

    def add_store_args(p):
        p.add_argument("--store", metavar="DIR", default=None,
                       help="content-addressed result store: serve cached "
                            "job results instead of re-running, publish "
                            "fresh ones back (see DESIGN.md Sec 5h)")
        p.add_argument("--store-max-bytes", type=int, default=None,
                       metavar="N", help="GC the store down to N blob bytes "
                                         "after publishing")
        p.add_argument("--store-max-entries", type=int, default=None,
                       metavar="N", help="GC the store down to N results "
                                         "after publishing")

    p_xbar = sub.add_parser("crossbar", help="program a crossbar via half-select")
    p_xbar.add_argument("--rows", type=int, default=2)
    p_xbar.add_argument("--cols", type=int, default=2)
    p_xbar.add_argument("--targets", default="0,0;1,1",
                        help="semicolon-separated r,c pairs")
    p_xbar.add_argument("--json", action="store_true",
                        help="machine-readable result on stdout")
    add_obs_args(p_xbar)
    p_xbar.set_defaults(func=_cmd_crossbar)

    def add_flow_args(p, width_default=64):
        p.add_argument("--circuit", default="ava", help="suite circuit name")
        p.add_argument("--scale", type=float, default=0.02,
                       help="circuit shrink factor (DESIGN.md Sec. 6)")
        p.add_argument("--width", type=int, default=width_default, help="channel width W")
        p.add_argument("--seed", type=int, default=1)
        add_obs_args(p)

    p_flow = sub.add_parser("flow", help="pack/place/route + variant table")
    add_flow_args(p_flow)
    p_flow.add_argument("--downsize", type=float, default=8.0)
    p_flow.add_argument("--show-maps", action="store_true",
                        help="print floorplan and congestion maps")
    p_flow.add_argument("--json", action="store_true",
                        help="machine-readable result on stdout")
    p_flow.add_argument("--profile", action="store_true",
                        help="attach the sampling profiler to the flow; "
                             "stacks land on the cli.flow span under "
                             "--metrics-out, else print to stderr")
    p_flow.set_defaults(func=_cmd_flow)

    p_rr = sub.add_parser(
        "rrgraph", help="FabricIR routing-resource graph statistics")
    p_rr.add_argument("--stats", action="store_true",
                      help="print node/edge counts, memory and build time "
                           "(the default and only mode)")
    p_rr.add_argument("--nx", type=int, default=8, help="grid width in tiles")
    p_rr.add_argument("--ny", type=int, default=8, help="grid height in tiles")
    p_rr.add_argument("--width", type=int, default=64, help="channel width W")
    p_rr.add_argument("--seg-length", type=int, default=4,
                      help="wire segment length L")
    p_rr.add_argument("--directionality", choices=["bidir", "unidir"],
                      default="bidir")
    p_rr.add_argument("--json", action="store_true",
                      help="machine-readable stats on stdout")
    add_obs_args(p_rr)
    p_rr.set_defaults(func=_cmd_rrgraph)

    p_sweep = sub.add_parser("sweep", help="Fig. 12 downsizing trade-off")
    add_flow_args(p_sweep)
    p_sweep.add_argument("--json", action="store_true",
                         help="machine-readable result on stdout")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_headline = sub.add_parser("headline", help="suite-level headline table")
    p_headline.add_argument("--suite", default="altera4", choices=["altera4", "mcnc20"])
    p_headline.add_argument("--scale", type=float, default=0.02)
    p_headline.add_argument("--width", type=int, default=64)
    p_headline.add_argument("--seed", type=int, default=1)
    p_headline.add_argument("--json", action="store_true",
                            help="machine-readable result on stdout")
    add_obs_args(p_headline)
    p_headline.set_defaults(func=_cmd_headline)

    p_map = sub.add_parser("map", help="technology-map a random gate circuit")
    p_map.add_argument("--gates", type=int, default=400)
    p_map.add_argument("--inputs", type=int, default=16)
    p_map.add_argument("--pos", type=int, default=8)
    p_map.add_argument("--ff-fraction", type=float, default=0.2)
    p_map.add_argument("--k", type=int, default=4)
    p_map.add_argument("--seed", type=int, default=1)
    p_map.add_argument("--vectors", type=int, default=128)
    p_map.add_argument("--blif", help="write the mapped netlist to this BLIF file")
    p_map.set_defaults(func=_cmd_map)

    p_explore = sub.add_parser("explore", help="architecture exploration sweeps")
    p_explore.add_argument("--knob", choices=["segment_length", "fc_in"],
                           default="segment_length")
    add_flow_args(p_explore, width_default=48)
    p_explore.set_defaults(func=_cmd_explore)

    def add_batch_args(p):
        p.add_argument("--spec", metavar="PATH",
                       help="batch spec JSON ('jobs' list or 'matrix' object)")
        p.add_argument("--circuits", metavar="LIST",
                       help="comma-separated suite circuit names")
        p.add_argument("--variants", default="baseline", metavar="LIST",
                       help="comma-separated variants: baseline, nem-naive, "
                            "nem-opt[:downsize] (default: baseline)")
        p.add_argument("--seeds", default="1", metavar="LIST",
                       help="comma-separated placement seeds (default: 1)")
        p.add_argument("--width", type=int, default=None,
                       help="channel width W (omit to derive Wmin per job)")
        p.add_argument("--scale", type=float, default=0.02,
                       help="circuit shrink factor (DESIGN.md Sec. 6)")
        p.add_argument("--defect-rates", metavar="LIST", default=None,
                       help="comma-separated fault-campaign rates; each "
                            "adds a flow+inject+self-repair job per matrix "
                            "point (default: no fault axis)")
        p.add_argument("--defect-seed", type=int, default=0,
                       help="fault-campaign seed (default 0)")
        p.add_argument("--defect-mode", default="uniform",
                       choices=["uniform", "variation", "aging"],
                       help="fault-campaign sampling mode")
        p.add_argument("--workers", type=int, default=None,
                       help="worker processes (default: the spec's, or 1)")
        p.add_argument("--timeout", type=float, default=None,
                       help="per-job wall-clock limit in seconds")
        p.add_argument("--retries", type=int, default=1,
                       help="relaunch budget per job after a worker crash")
        p.add_argument("--shard-dir", metavar="PATH",
                       help="directory for per-job telemetry/result shards "
                            "(default: a temp dir, removed when the batch ends)")
        p.add_argument("--profile", action="store_true",
                       help="attach the sampling profiler to every job; "
                            "collapsed stacks land on each job's root span "
                            "in the merged telemetry")
        p.add_argument("--stall-after", type=float, default=None, metavar="S",
                       help="flag a worker STALLED? after S seconds without "
                            "a telemetry event (implies the live collector)")
        p.add_argument("--stall-kill", action="store_true",
                       help="soft-kill flagged stalled workers with status "
                            "'stalled' instead of waiting for --timeout")
        p.add_argument("--db", metavar="PATH", default=None,
                       help="ingest the merged telemetry into this "
                            "warehouse (needs --metrics-out; see repro db)")
        p.add_argument("--results", metavar="PATH",
                       help="write the full results document as JSON")
        p.add_argument("--verify-serial", action="store_true",
                       help="re-run serially and fail (exit 3) unless the "
                            "parallel results are bit-identical")
        p.add_argument("--json", action="store_true",
                       help="machine-readable results on stdout")
        add_store_args(p)
        add_obs_args(p)

    p_batch = sub.add_parser(
        "batch",
        help="run a (circuit x variant x seed) job matrix over worker processes")
    p_batch.add_argument("--live", action="store_true",
                         help="stream worker telemetry to a live status "
                              "table on stderr while jobs run")
    add_batch_args(p_batch)
    p_batch.set_defaults(func=_cmd_batch)

    p_watch = sub.add_parser(
        "watch",
        help="run a batch with the live telemetry table (batch --live)")
    add_batch_args(p_watch)
    p_watch.set_defaults(func=_cmd_batch, live=True)

    p_serve = sub.add_parser(
        "serve",
        help="serve flow/batch/sweep requests over a local HTTP JSON API "
             "backed by the result store")
    p_serve.add_argument("--host", default="127.0.0.1",
                         help="bind address (default: loopback only)")
    p_serve.add_argument("--port", type=int, default=0,
                         help="TCP port (default 0: pick an ephemeral port; "
                              "the bind line on stdout carries the choice)")
    p_serve.add_argument("--workers", type=int, default=2,
                         help="max concurrent worker processes")
    p_serve.add_argument("--timeout", type=float, default=None,
                         help="per-job wall-clock limit in seconds")
    p_serve.add_argument("--retries", type=int, default=1,
                         help="relaunch budget per job after a worker crash")
    add_store_args(p_serve)
    add_obs_args(p_serve)
    p_serve.set_defaults(func=_cmd_serve)

    p_faults = sub.add_parser(
        "faults",
        help="defect-injection yield curve: route clean, inject seeded fault "
             "campaigns, self-repair via the degradation ladder")
    p_faults.add_argument("--circuit", default="tseng", help="suite circuit name")
    p_faults.add_argument("--scale", type=float, default=0.02,
                          help="circuit shrink factor (DESIGN.md Sec. 6)")
    p_faults.add_argument("--width", type=int, default=56, help="channel width W")
    p_faults.add_argument("--seed", type=int, default=1, help="placement seed")
    p_faults.add_argument("--rates", default="0.005,0.01,0.02", metavar="LIST",
                          help="comma-separated per-switch defect rates")
    p_faults.add_argument("--campaigns", type=int, default=5,
                          help="independent campaigns per rate (default 5)")
    p_faults.add_argument("--base-seed", type=int, default=0,
                          help="first campaign seed (default 0)")
    p_faults.add_argument("--mode", default="uniform",
                          choices=["uniform", "variation", "aging"],
                          help="campaign sampling mode")
    p_faults.add_argument("--stuck-closed-fraction", type=float, default=0.0,
                          help="portion of each rate sampled as stuck-closed "
                               "stiction faults (default 0 = all stuck-open)")
    p_faults.add_argument("--out", metavar="PATH",
                          help="write the full sweep document as JSON")
    p_faults.add_argument("--json", action="store_true",
                          help="machine-readable sweep on stdout")
    add_obs_args(p_faults)
    p_faults.set_defaults(func=_cmd_faults)

    p_mission = sub.add_parser(
        "mission",
        help="lifetime mission simulation: epoch-stepped Weibull aging with "
             "BIST-triggered self-repair, per-policy degradation curves")
    p_mission.add_argument("--circuit", default="tseng",
                           help="suite circuit name")
    p_mission.add_argument("--scale", type=float, default=0.02,
                           help="circuit shrink factor (DESIGN.md Sec. 6)")
    p_mission.add_argument("--width", type=int, default=56,
                           help="channel width W")
    p_mission.add_argument("--seed", type=int, default=1,
                           help="placement seed")
    p_mission.add_argument("--epochs", type=int, default=8,
                           help="device-time steps (default 8)")
    p_mission.add_argument("--years", type=float, default=10.0,
                           help="mission length in device-years (default 10)")
    p_mission.add_argument("--policy", default="on-failure", metavar="LIST",
                           help="comma-separated repair policies: never, "
                                "on-failure, periodic-<k>, every-epoch-bist, "
                                "widen-early (default: on-failure)")
    p_mission.add_argument("--campaigns", type=int, default=3,
                           help="independent aging trajectories per policy "
                                "(default 3)")
    p_mission.add_argument("--base-seed", type=int, default=0,
                           help="first aging-campaign seed (default 0)")
    p_mission.add_argument("--workers", type=int, default=1,
                           help="worker processes (one job per "
                                "policy x campaign cell)")
    p_mission.add_argument("--timeout", type=float, default=None,
                           help="per-job wall-clock limit in seconds")
    p_mission.add_argument("--verify-serial", action="store_true",
                           help="re-run serially and fail (exit 3) unless "
                                "the parallel results are bit-identical")
    p_mission.add_argument("--out", metavar="PATH",
                           help="write the full mission document as JSON")
    p_mission.add_argument("--json", action="store_true",
                           help="machine-readable document on stdout")
    add_store_args(p_mission)
    add_obs_args(p_mission)
    p_mission.set_defaults(func=_cmd_mission)

    p_report = sub.add_parser(
        "report", help="render a --metrics-out JSONL run as a readable report")
    p_report.add_argument("run", help="telemetry JSONL file")
    p_report.add_argument("--html", metavar="PATH",
                          help="additionally write a standalone HTML report")
    p_report.add_argument("--max-depth", type=int, default=None,
                          help="limit span timeline depth")
    p_report.add_argument("--no-flame", action="store_true",
                          help="skip the text flamegraph section")
    p_report.set_defaults(func=_cmd_report)

    p_diff = sub.add_parser(
        "diff", help="compare two telemetry runs; gate with --fail-on")
    p_diff.add_argument("run_a", help="baseline run JSONL (A)")
    p_diff.add_argument("run_b", help="candidate run JSONL (B)")
    p_diff.add_argument("--fail-on", action="append", metavar="EXPR",
                        help="regression gate, e.g. 'route.wall_s>+10%%' or "
                             "'route.wirelength>+0' (repeatable); exit 1 when "
                             "violated")
    p_diff.add_argument("--changed", action="store_true",
                        help="only show metrics that changed")
    p_diff.add_argument("--all", action="store_true",
                        help="include per-span and per-circuit metrics in the table")
    p_diff.add_argument("--json", action="store_true",
                        help="machine-readable verdict on stdout")
    p_diff.set_defaults(func=_cmd_diff)

    p_db = sub.add_parser(
        "db",
        help="telemetry warehouse: ingest runs into sqlite, query across them")
    p_db.add_argument("--db", default="telemetry.sqlite", metavar="PATH",
                      help="warehouse file (default: telemetry.sqlite)")
    db_sub = p_db.add_subparsers(dest="action", required=True)
    p_ingest = db_sub.add_parser(
        "ingest", help="ingest --metrics-out JSONL runs (idempotent)")
    p_ingest.add_argument("run", nargs="+", help="telemetry JSONL file(s)")
    p_ingest.add_argument("--label", default=None,
                          help="free-form label stored with each run")
    p_ingest.set_defaults(func=_cmd_db)
    p_runs = db_sub.add_parser("runs", help="list ingested runs, newest first")
    p_runs.add_argument("--limit", type=int, default=20)
    p_runs.add_argument("--json", action="store_true",
                        help="machine-readable rows on stdout")
    p_runs.set_defaults(func=_cmd_db)
    p_top = db_sub.add_parser(
        "top", help="top-k span paths by aggregate wall time across runs")
    p_top.add_argument("--k", type=int, default=10)
    p_top.add_argument("--by", choices=["self", "total"], default="self",
                       help="rank by clamped self-time (default) or "
                            "inclusive time")
    p_top.add_argument("--last", type=int, default=None, metavar="N",
                       help="restrict to the newest N runs")
    p_top.add_argument("--min-count", type=int, default=1,
                       help="drop paths seen in fewer runs than this")
    p_top.add_argument("--json", action="store_true",
                       help="machine-readable rows on stdout")
    p_top.set_defaults(func=_cmd_db)
    p_trend = db_sub.add_parser(
        "trend", help="one measurement's trajectory across ingested runs")
    p_trend.add_argument("key",
                         help="measurement name, e.g. route.wall_s, "
                              "total.wall_s, metric.route.net_route_s.p95")
    p_trend.add_argument("--since", metavar="SHA", default=None,
                         help="drop rows older than this git SHA's first run")
    p_trend.add_argument("--json", action="store_true",
                         help="machine-readable rows on stdout")
    p_trend.set_defaults(func=_cmd_db)
    p_attr = db_sub.add_parser(
        "attribute",
        help="decompose the wall-time delta between two runs into exact "
             "per-span contributions, stage roll-ups and critical paths")
    p_attr.add_argument("run_a",
                        help="baseline: a warehouse selector (run id, digest "
                             "prefix, latest[~N]) or a JSONL file path")
    p_attr.add_argument("run_b", help="candidate: selector or JSONL path")
    p_attr.add_argument("--fail-on", action="append", metavar="EXPR",
                        help="stage gate, e.g. 'route>+20%%' or 'total>+1.0' "
                             "(keys: stage alias, total, span.<path>); "
                             "repeatable; exit 1 when violated")
    p_attr.add_argument("--top", type=int, default=15,
                        help="per-span contribution rows shown (default 15)")
    p_attr.add_argument("--html", metavar="PATH",
                        help="write a standalone HTML report with "
                             "differential flamegraphs")
    p_attr.add_argument("--json", action="store_true",
                        help="machine-readable attribution on stdout")
    p_attr.set_defaults(func=_cmd_db)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
