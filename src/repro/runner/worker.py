"""Worker-side job execution for the batch runner.

`run_job` executes one `JobSpec` end to end — load circuit, pack,
place, route (fixed width or Wmin search), extract + program the
relay bitstream, evaluate the requested variant — and reduces the
outcome to a plain-JSON `JobResult` (QoR scalars + sha256 digests of
the routing trees and bitstream).

Determinism contract: every step below is a pure function of the
`JobSpec` (placement RNG seeded by ``spec.seed``, router tie-breaks
seeded per graph, generator circuits seeded by the suite), so the
same spec produces the same `JobResult.identity()` whether it runs in
this process, a forked worker, or a spawned worker.  To keep the
telemetry *shards* equally deterministic in content, each job runs
under a fresh `Tracer` and a fresh `MetricsRegistry` — a forked
worker must not leak the parent's accumulated spans or counters into
its shard.

`job_process_main` is the subprocess entry point: it writes the
result and the telemetry shard as files in the batch's shard
directory (file-based hand-off survives worker crashes — a missing
result file *is* the crash signal) and exits.
"""

from __future__ import annotations

import dataclasses
import os
import time
import traceback
from typing import (
    TYPE_CHECKING, Dict, List, NamedTuple, Optional, Sequence, Tuple)

from ..arch.params import ArchParams
from ..obs import (
    EventPublisher,
    HeartbeatThread,
    MetricsRegistry,
    NULL_PUBLISHER,
    StreamingTracer,
    TraceContext,
    Tracer,
    get_publisher,
    get_tracer,
    profiled,
    telemetry_records,
    use_publisher,
    use_registry,
    use_tracer,
    write_jsonl,
)
from .spec import JobResult, JobSpec, digest_of, parse_variant

if TYPE_CHECKING:  # the flow stack is imported where a job runs
    from ..config.bitstream import Bitstream, ProgrammingReport
    from ..core import Comparison, DesignPoint, FpgaVariant
    from ..vpr.flow import FlowResult

#: Parent-side pre-warm cache, inherited by fork workers (empty under
#: spawn, where workers simply recompute).  Keyed so a hit is exactly
#: the object the worker would have built itself.
_NETLISTS: Dict[Tuple[str, float], object] = {}


def _load_netlist(spec: JobSpec):
    from ..netlist import load_circuit

    key = (spec.circuit, spec.scale)
    netlist = _NETLISTS.get(key)
    if netlist is None:
        netlist = _NETLISTS[key] = load_circuit(spec.circuit, scale=spec.scale)
    return netlist


def job_arch(spec: JobSpec) -> ArchParams:
    """The `ArchParams` a job runs against (overrides applied)."""
    params = ArchParams(**dict(spec.arch)) if spec.arch else ArchParams()
    if spec.width is not None:
        params = params.with_channel_width(spec.width)
    return params


def prewarm_job(spec: JobSpec) -> None:
    """Parent-side warm-up: the netlist and, for fixed W, the FabricIR.

    Fork workers inherit both (the keyed fabric cache is
    process-global), so a job's own netlist load and fabric lookup are
    cache hits; packing, placement and routing still run in the job.
    Only fixed-width jobs can pre-warm the fabric — a Wmin job's probe
    widths are not known until the search runs.
    """
    from ..fabric import get_fabric
    from ..vpr.pack import pack
    from ..vpr.place import placement_grid

    netlist = _load_netlist(spec)
    if spec.width is not None:
        # The grid is a pure function of the packing (seed-independent),
        # so one fabric serves every job of this circuit and width.
        params = job_arch(spec)
        get_fabric(params, *placement_grid(pack(netlist, params)))


def _routing_digest(routing, channel_width: int) -> str:
    return digest_of({"channel_width": channel_width,
                      "trees": routing.trees.canonical()})


def _bitstream_digest(bitstream) -> str:
    switches = {
        f"{x},{y}": [[int(u), int(v)] for u, v in edges]
        for (x, y), edges in sorted(bitstream.switches_by_tile.items())
    }
    return digest_of(switches)


def variant_for(name: str, params: ArchParams, downsize: float = 8.0):
    """The `FpgaVariant` a variant name denotes (see `parse_variant`);
    ``downsize`` applies to ``nem-opt`` only."""
    from ..core import baseline_variant, naive_nem_variant, optimized_nem_variant

    if name == "baseline":
        return baseline_variant(params)
    if name == "nem-naive":
        return naive_nem_variant(params)
    return optimized_nem_variant(params, downsize)


class ConfiguredDesign(NamedTuple):
    """What `configure_and_evaluate` derives from one routed design."""

    bitstream: Bitstream
    config: ProgrammingReport
    base: DesignPoint
    variants: List[Tuple[FpgaVariant, DesignPoint, Comparison]]


def configure_and_evaluate(flow: FlowResult, params: ArchParams,
                           variants: Sequence[FpgaVariant]) -> ConfiguredDesign:
    """Configure the relay fabric for a routed design, then evaluate it.

    The back half of the paper's Fig. 10 flow, shared by `repro flow`
    and the batch worker: extract the bitstream and program every
    tile's crossbar under ``flow.configure``, then evaluate the CMOS
    baseline at its own f_max and each of ``variants``, in the order
    given, at the baseline's f_max — all over one shared timing
    extraction.
    """
    from ..config.bitstream import extract_bitstream, program_fabric
    from ..core import (
        Comparison, baseline_variant, evaluate_design, shared_evaluation)

    with get_tracer().span("flow.configure", circuit=flow.netlist.name):
        bitstream = extract_bitstream(flow.routing, flow.graph)
        config = program_fabric(bitstream)
    shared = shared_evaluation(flow)
    base = evaluate_design(flow, baseline_variant(params), **shared)
    evaluated = []
    for variant in variants:
        point = evaluate_design(flow, variant, frequency=base.frequency,
                                **shared)
        evaluated.append((variant, point, Comparison.of(base, point)))
    return ConfiguredDesign(bitstream, config, base, evaluated)


def _inject_fault(spec: JobSpec, attempt: int) -> None:
    """Test instrumentation (see `JobSpec.fault`)."""
    if not spec.fault:
        return
    if spec.fault == "crash" or (spec.fault == "crash-first" and attempt == 1):
        # SystemExit: multiprocessing's bootstrap turns it into a
        # nonzero exitcode (no result file -> crash), and the serial
        # path can intercept it without dying.
        raise SystemExit(87)
    if spec.fault == "hang":
        time.sleep(3600.0)
    if spec.fault == "stall":
        # A live-but-silent worker: the process keeps running (so the
        # pool sees a healthy child) while every event — including the
        # heartbeat thread's — goes mute.  Only heartbeat-age stall
        # detection can catch this before the hard timeout.
        get_publisher().silence()
        time.sleep(3600.0)
    if spec.fault == "fail":
        raise RuntimeError(f"injected fault for {spec.key}")


def _execute(spec: JobSpec, attempt: int) -> JobResult:
    from ..vpr.flow import run_flow, run_flow_min_width

    _inject_fault(spec, attempt)
    params = job_arch(spec)
    netlist = _load_netlist(spec)
    if spec.width is not None:
        flow = run_flow(netlist, params, seed=spec.seed)
    else:
        flow = run_flow_min_width(netlist, params, seed=spec.seed)
    qor: Dict[str, object] = {
        "clusters": flow.clustered.num_clusters,
        "placement_cost": flow.placement.cost,
        "channel_width": flow.channel_width,
        "grid": [flow.placement.grid_width, flow.placement.grid_height],
        "iterations": flow.routing.iterations,
        "overused_nodes": flow.routing.overused_nodes,
        "wirelength": flow.routing.wirelength,
    }
    if not flow.success:
        return JobResult(
            key=spec.key, status="unroutable", qor=qor,
            digests={"routing_trees": _routing_digest(flow.routing,
                                                      flow.channel_width)},
            error=f"unroutable at W={flow.channel_width}", attempts=attempt,
        )

    extra_digests: Dict[str, str] = {}
    if spec.defect_rate is not None:
        from ..faults import FaultCampaign, repair_routing

        campaign = FaultCampaign(
            seed=spec.defect_seed, mode=spec.defect_mode,
            stuck_open_rate=spec.defect_rate,
        )
        defect_map = campaign.for_fabric(flow.graph)
        repair = repair_routing(
            flow.placement, flow.routing, defect_map,
            graph=flow.graph, campaign=campaign,
        )
        qor.update({
            "defects": defect_map.total,
            "repair.stage": repair.stage,
            "repair.stage_index": repair.stage_index,
            "repair.victims": len(repair.victim_nets),
            "repair.nets_ripped": repair.nets_ripped,
            "repair.channel_width": repair.channel_width,
            "repair.wirelength": repair.routing.wirelength,
        })
        extra_digests["defect_map"] = defect_map.digest
        extra_digests["repaired_trees"] = _routing_digest(
            repair.routing, repair.channel_width)
        extra_digests["clean_trees"] = _routing_digest(
            flow.routing, flow.channel_width)
        if not repair.success:
            qor["repair.success"] = False
            return JobResult(
                key=spec.key, status="unrepairable", qor=qor,
                digests=extra_digests,
                error=(f"repair failed at rate={spec.defect_rate} "
                       f"(stage ladder exhausted)"),
                attempts=attempt,
            )
        qor["repair.success"] = True
        # Downstream stages consume the *repaired* design: the
        # bitstream must program only healthy relays.
        if repair.channel_width != flow.channel_width:
            params = params.with_channel_width(repair.channel_width)
        flow = flow.with_routing(
            repair.routing, repair.graph, repair.channel_width)

    if spec.mission_epochs is not None:
        from ..faults.mission import MissionSpec, simulate_mission

        mission_spec = MissionSpec(
            epochs=spec.mission_epochs, years=spec.mission_years,
            policy=spec.mission_policy, campaigns=1,
            base_seed=spec.mission_seed)
        mission = simulate_mission(flow, mission_spec)
        trajectory = mission.trajectories[0]
        curve = mission.degradation_curve()
        qor.update({
            "mission.policy": spec.mission_policy,
            "mission.epochs": spec.mission_epochs,
            "mission.years": spec.mission_years,
            "mission.final_yield": curve[-1]["yield"] if curve else 0.0,
            "mission.final_channel_width": trajectory.final_channel_width,
            "mission.repairs": trajectory.repairs,
            "mission.bist_runs": trajectory.bist_runs,
            "mission.failed_epoch": trajectory.failed_epoch,
            "mission.ttf_years": mission.time_to_first_unrepairable,
            "mission.curve": [r.to_dict() for r in trajectory.records],
        })
        extra_digests["mission_curve"] = mission.digest
        # The mission is a lifetime overlay: downstream stages still
        # evaluate the clean design (epoch zero), so the bitstream and
        # QoR digests below stay comparable with mission-free jobs.

    name, downsize = parse_variant(spec.variant)
    design = configure_and_evaluate(
        flow, params,
        [] if name == "baseline" else [variant_for(name, params, downsize)])
    config = design.config
    qor.update(
        bitstream_switches=design.bitstream.total_switches,
        arrays_programmed=config.arrays_programmed,
        relays_closed=config.relays_closed,
        row_steps=config.row_steps,
        config_success=config.success,
    )
    point = design.base
    for _variant, point, cmp in design.variants:
        qor.update({f"vs_baseline.{k}": v
                    for k, v in dataclasses.asdict(cmp).items()})
    qor.update(
        critical_path_s=point.critical_path,
        frequency_hz=point.frequency,
        dynamic_w=point.total_dynamic,
        leakage_w=point.total_leakage,
        tile_footprint_m2=point.tile_footprint_m2,
    )

    digests = {
        "routing_trees": _routing_digest(flow.routing, flow.channel_width),
        "bitstream": _bitstream_digest(design.bitstream),
    }
    digests.update(extra_digests)
    digests["qor"] = digest_of(qor)
    return JobResult(key=spec.key, status="ok", qor=qor, digests=digests,
                     attempts=attempt)


def run_job(spec: JobSpec, attempt: int = 1,
            trace: Optional[TraceContext] = None,
            publisher=None, profile: bool = False,
            heartbeat_s: float = 0.2, store=None):
    """Execute one job under job-local telemetry.

    Returns ``(JobResult, shard records)`` where the records are the
    job's span trees plus its metrics snapshot — exactly one shard's
    content, without a manifest (the batch driver owns the manifest).

    Args:
        trace: Cross-process span-identity context from the batch
            supervisor.  Applied whether or not streaming is on, so
            span ids are identical either way.
        publisher: Live `EventPublisher` (default: the inert null).
            When enabled, the job emits ``hello``, streams every span
            through a `StreamingTracer`, and ticks heartbeats from a
            daemon thread for the duration.  The terminal ``bye`` is
            the *caller's* job, once the shard is durably written —
            ``bye`` received must imply the shard exists.
        profile: Attach a sampling profiler to the job's root span
            (collapsed stacks land in the span's ``profile`` attr).
        store: A `repro.store.ResultStore`.  Checked once more right
            before executing — a result published while this job sat
            in the queue (another batch, another serve client) is
            honoured with a ``cached=True`` span instead of a rerun —
            and the fresh result is published back on the way out.
            Store lookups bump hit/miss counters in the job's metrics
            registry, so the shard carries them.
    """
    publisher = NULL_PUBLISHER if publisher is None else publisher
    if trace is not None:
        tracer = trace.make_tracer(publisher if publisher.enabled else None)
    elif publisher.enabled:
        tracer = StreamingTracer(publisher)
    else:
        tracer = Tracer()
    registry = MetricsRegistry()
    start = time.perf_counter()
    heartbeat = None
    if publisher.enabled:
        publisher.hello(attempt=attempt)
        heartbeat = HeartbeatThread(publisher, tracer, interval_s=heartbeat_s)
        heartbeat.start()
    executed = False
    try:
        with use_tracer(tracer), use_registry(registry), \
                use_publisher(publisher):
            with tracer.span("batch.job", job=spec.key, circuit=spec.circuit,
                             variant=spec.variant, seed=spec.seed,
                             attempt=attempt) as span:
                result = store.get(spec) if store is not None else None
                if result is not None:
                    span.set("cached", True)
                else:
                    executed = True
                    with profiled(span, enabled=profile):
                        try:
                            result = _execute(spec, attempt)
                        except Exception as exc:  # noqa: BLE001 - jobs must not kill the batch
                            result = JobResult(
                                key=spec.key, status="error", attempts=attempt,
                                error=f"{type(exc).__name__}: {exc}\n"
                                      f"{traceback.format_exc(limit=8)}",
                            )
                span.set_many(status=result.status,
                              wirelength=result.qor.get("wirelength"))
    finally:
        if heartbeat is not None:
            heartbeat.stop()
    result.wall_s = time.perf_counter() - start
    if store is not None and executed:
        try:
            store.put(spec, result)
        except (OSError, ValueError):  # pragma: no cover - a full disk
            # degrades to an unwarmed store, never a failed job
            pass
    records = telemetry_records(manifest=None, tracer=tracer, registry=registry)
    return result, records


def job_process_main(spec_doc: Dict[str, object], attempt: int,
                     result_path: str, shard_path: str,
                     trace_doc: Optional[Dict[str, object]] = None,
                     event_queue=None, profile: bool = False,
                     heartbeat_s: float = 0.2, index: int = -1,
                     store_doc: Optional[Dict[str, object]] = None) -> None:
    """Subprocess entry: run the job, write result + shard, exit.

    The shard is written before the result: the executor treats the
    result file's existence as the job's commit point, so a crash
    between the two writes reads as a crashed attempt (and the retry
    overwrites both files), never as a half-reported success.  The
    stream's ``bye`` goes out after the shard write for the same
    reason — a ``bye`` the collector sees guarantees a shard on disk.
    """
    # A child forked from a ThreadPoolExecutor worker thread (the serve
    # dispatch path runs the executor via asyncio.to_thread) inherits the
    # pool's atexit bookkeeping; its _python_exit hook would then try to
    # join the forking thread — this process's own main thread after the
    # fork — and kill the exit with a spurious nonzero code.  This
    # process owns no executor threads, so drop the inherited entries.
    import concurrent.futures.thread as _cft

    _cft._threads_queues.clear()
    spec = JobSpec.from_dict(spec_doc)
    trace = TraceContext.from_dict(trace_doc) if trace_doc else None
    publisher = None
    if event_queue is not None:
        publisher = EventPublisher(event_queue, job=spec.key, index=index)
    store = None
    if store_doc is not None:
        from ..store import ResultStore

        store = ResultStore.from_doc(store_doc)
    result, records = run_job(spec, attempt=attempt, trace=trace,
                              publisher=publisher, profile=profile,
                              heartbeat_s=heartbeat_s, store=store)
    write_jsonl(shard_path, records)
    if publisher is not None:
        publisher.bye(status=result.status)
    tmp_path = f"{result_path}.tmp"
    write_jsonl(tmp_path, [result.to_dict()])
    os.replace(tmp_path, result_path)
