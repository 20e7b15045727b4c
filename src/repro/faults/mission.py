"""Lifetime mission simulation: epoch-stepped aging with self-repair.

The static fault tools answer "can the flow absorb *this* defect map?"
This module answers the paper's actual reliability question: *how does
a routed NEM-relay FPGA degrade over device-years of operation, and
how much lifetime does each maintenance strategy buy?*

`simulate_mission` steps simulated device-time in epochs.  Each epoch:

1. **wear accrual** — per-site actuation counts grow by the epoch's
   reconfiguration baseline plus signal toggling on routed sites
   (`site_actuations` over the current bitstream, scaled by netlist
   switching activity), summed into a cumulative accumulator;
2. **fault arrival** — the cumulative accumulator is handed to one
   fixed-seed aging `FaultCampaign` via ``for_fabric(actuations=...)``.
   Because the campaign's per-site uniform draw depends only on
   ``(seed, fabric key)``, growing actuations yield *nested* fault
   sets — each epoch's map contains the previous one, asserted with
   `defect_maps_nested` every step;
3. **maintenance** — per the `RepairPolicy`: scheduled fabric BIST
   (`run_fabric_bist`) before the service interval detects faults and
   triggers the `repair_routing` graceful-degradation ladder (or a
   proactive channel-widening for ``widen-early``) so the epoch runs
   healthy; *reactive* policies instead repair at epoch end after an
   observed failure, eating one epoch of downtime per event;
4. **service** — the epoch counts healthy iff the carried routing
   touches no faulty resource during its interval.

Repaired state carries over between epochs through
`FlowResult.with_routing`; a widened repair moves the whole trajectory
onto the wider fabric (new node-id space, wear accumulator re-baselined
to the programming-cycle count the ladder itself assumed for it).

Policies (`resolve_policy`):

* ``never`` — no BIST, no repair; the first victim is permanent.
* ``on-failure`` — purely reactive: repair after observed failures.
* ``periodic-<k>`` — BIST + repair every k-th epoch, no reaction
  in between (failures wait, as downtime, for the next window).
* ``every-epoch-bist`` — scheduled BIST every epoch: faults are
  repaired before they cause downtime.
* ``widen-early`` — ``every-epoch-bist`` plus a proactive jump to a
  wider channel on the first detected fault, buying routing slack
  before wear concentrates.

Everything is deterministic: same ``(circuit, seed, policy, spec)``
produces byte-identical per-epoch records, fault-set digests and
degradation curves in any process — the property the batch runner's
``mission`` axis and the CI mission-smoke job assert serial vs
parallel vs store-warm replay.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..arch.params import ArchParams
from ..fabric import get_fabric
from ..netlist.core import Netlist
from ..obs import get_logger, get_publisher, get_registry, get_tracer, kv
from ..vpr.flow import FlowResult, run_flow
from ..vpr.route import PathFinderRouter, build_route_nets
from .bist import run_fabric_bist
from .campaign import FaultCampaign, site_actuations, switch_sites
from .defects import FabricDefectMap, canonical_digest, defect_maps_nested
from .evaluate import routing_digest
from .repair import find_victims, repair_routing

_log = get_logger("faults.mission")

#: Base policy spellings (``periodic-k`` stands for ``periodic-<int>``).
MISSION_POLICIES = (
    "never", "on-failure", "periodic-k", "every-epoch-bist", "widen-early",
)


@dataclasses.dataclass(frozen=True)
class RepairPolicy:
    """When a mission runs BIST and how aggressively it repairs.

    Attributes:
        name: Canonical policy spelling (stable across runs; part of
            job keys and digests).
        bist_period: Scheduled-BIST cadence in epochs (``1`` = every
            epoch); ``None`` disables scheduled testing entirely.
        reactive: Whether an *observed* in-service failure triggers
            BIST + repair at the end of its epoch.  The epoch still
            counts as downtime — reaction restores the following
            epochs, scheduling prevents the outage.
        widen_threshold: When set, a scheduled BIST that detects a
            faulty-site fraction above this value while the design is
            still at its original width proactively widens the channel
            by ``widen_step`` (the ``widen-early`` move).
        max_widen / widen_step: Degradation-ladder widening budget
            forwarded to `repair_routing`.
    """

    name: str
    bist_period: Optional[int] = None
    reactive: bool = False
    widen_threshold: Optional[float] = None
    max_widen: int = 3
    widen_step: int = 2

    def __post_init__(self) -> None:
        if self.bist_period is not None and self.bist_period < 1:
            raise ValueError(
                f"bist_period must be >= 1, got {self.bist_period}")
        if self.widen_threshold is not None and self.widen_threshold < 0:
            raise ValueError("widen_threshold must be >= 0")
        if self.max_widen < 0 or self.widen_step < 1:
            raise ValueError("max_widen must be >= 0 and widen_step >= 1")


def policy_name_valid(name: str) -> bool:
    """Whether ``name`` spells a known repair policy.

    Kept dependency-free so the batch-runner spec layer can validate
    job axes without importing the simulator.
    """
    if name in ("never", "on-failure", "every-epoch-bist", "widen-early"):
        return True
    if name.startswith("periodic-"):
        suffix = name[len("periodic-"):]
        return suffix.isdigit() and int(suffix) >= 1
    return False


def resolve_policy(spec: object) -> RepairPolicy:
    """Coerce a policy spelling (or a ready `RepairPolicy`) to a policy."""
    if isinstance(spec, RepairPolicy):
        return spec
    name = str(spec)
    if name == "never":
        return RepairPolicy(name)
    if name == "on-failure":
        return RepairPolicy(name, reactive=True)
    if name == "every-epoch-bist":
        return RepairPolicy(name, bist_period=1, reactive=True)
    if name == "widen-early":
        return RepairPolicy(
            name, bist_period=1, reactive=True, widen_threshold=0.0)
    if name.startswith("periodic-"):
        suffix = name[len("periodic-"):]
        if suffix.isdigit() and int(suffix) >= 1:
            return RepairPolicy(name, bist_period=int(suffix))
        raise ValueError(
            f"periodic policy needs a positive epoch count, got {name!r}")
    raise ValueError(
        f"unknown repair policy {name!r}; expected one of "
        f"{MISSION_POLICIES} (periodic-k spelt e.g. 'periodic-2')")


@dataclasses.dataclass(frozen=True)
class MissionSpec:
    """One lifetime mission's parameters (fabric- and circuit-free).

    Attributes:
        epochs: Number of equal device-time steps.
        years: Total simulated mission length in device-years.
        policy: Repair policy spelling (see `resolve_policy`).
        campaigns: Independent aging trajectories (seeds
            ``base_seed .. base_seed + campaigns - 1``); yield at each
            epoch is the fraction of trajectories running healthy.
        cycles_per_year: Signal-toggle cycles a routed site sees per
            device-year *before* activity scaling.
        reconfigurations_per_year: Baseline programming actuations
            every site sees per device-year regardless of use.
        eta / beta: Weibull endurance parameters (`WeibullEndurance`).
    """

    epochs: int = 8
    years: float = 10.0
    policy: str = "on-failure"
    campaigns: int = 3
    base_seed: int = 0
    cycles_per_year: float = 5e7
    reconfigurations_per_year: float = 100.0
    eta: float = 1e9
    beta: float = 1.6

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.years <= 0:
            raise ValueError(f"years must be > 0, got {self.years}")
        if self.campaigns < 1:
            raise ValueError(f"campaigns must be >= 1, got {self.campaigns}")
        if self.cycles_per_year < 0 or self.reconfigurations_per_year < 0:
            raise ValueError(
                "cycles_per_year and reconfigurations_per_year must be >= 0")
        if self.eta <= 0 or self.beta <= 0:
            raise ValueError("eta and beta must be positive")
        resolve_policy(self.policy)  # validates the spelling

    def to_dict(self) -> Dict[str, object]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, doc: Dict[str, object]) -> "MissionSpec":
        return cls(**{
            f.name: doc[f.name]
            for f in dataclasses.fields(cls) if f.name in doc
        })


@dataclasses.dataclass(frozen=True)
class EpochRecord:
    """One trajectory's state after one epoch.

    ``healthy`` is the service verdict for *this* epoch (no routed net
    touched a faulty resource during the interval); ``alive`` is
    whether the trajectory can still be serviced at all afterwards —
    False once a repair attempt fails, or immediately under ``never``,
    since no future mechanism exists.
    """

    epoch: int
    device_years: float
    defects: int
    new_defects: int
    defect_digest: str
    victims: int
    bist: bool
    detected: int
    repair_stage: Optional[str]
    repair_success: Optional[bool]
    nets_ripped: int
    channel_width: int
    wirelength: int
    wirelength_overhead: float
    healthy: bool
    alive: bool

    def to_dict(self) -> Dict[str, object]:
        return dataclasses.asdict(self)


@dataclasses.dataclass
class MissionTrajectory:
    """One campaign seed's full lifetime under one policy."""

    campaign_seed: int
    records: List[EpochRecord]
    failed_epoch: Optional[int]
    bist_runs: int
    repairs: int
    final_channel_width: int

    @property
    def alive(self) -> bool:
        return self.failed_epoch is None

    def to_dict(self) -> Dict[str, object]:
        return {
            "campaign_seed": self.campaign_seed,
            "failed_epoch": self.failed_epoch,
            "bist_runs": self.bist_runs,
            "repairs": self.repairs,
            "final_channel_width": self.final_channel_width,
            "records": [r.to_dict() for r in self.records],
        }


def aggregate_degradation(
    trajectory_records: Sequence[Sequence[Dict[str, object]]],
    epochs: int,
    years: float,
) -> List[Dict[str, object]]:
    """Per-epoch aggregate rows across trajectories — the degradation
    curve.

    Operates on plain record dicts (`EpochRecord.to_dict` shape) so the
    CLI can re-aggregate curves straight from batch-runner QoR JSON.
    A trajectory that died early holds its final record for the
    remaining epochs (dead is dead: yield contribution zero, last
    known hardware state carried).
    """
    rows: List[Dict[str, object]] = []
    n = len(trajectory_records)
    for epoch in range(1, epochs + 1):
        cur: List[Tuple[Dict[str, object], bool]] = []
        for records in trajectory_records:
            if not records:
                continue
            live = epoch <= len(records)
            cur.append((records[min(epoch, len(records)) - 1], live))
        if not cur:
            break
        healthy = sum(
            1 for r, live in cur if live and r["healthy"])
        dead = sum(1 for r, live in cur if not live or not r["alive"])
        rows.append({
            "epoch": epoch,
            "device_years": years * epoch / epochs,
            "yield": healthy / n,
            "dead": dead,
            "mean_defects": sum(r["defects"] for r, _ in cur) / n,
            "mean_channel_width": (
                sum(r["channel_width"] for r, _ in cur) / n),
            "mean_wirelength_overhead": (
                sum(r["wirelength_overhead"] for r, _ in cur) / n),
            "repairs": sum(
                1 for r, live in cur
                if live and r["repair_stage"] not in (None, "clean")),
            "bist_runs": sum(1 for r, live in cur if live and r["bist"]),
        })
    return rows


@dataclasses.dataclass
class MissionResult:
    """Outcome of `simulate_mission` (one circuit, one policy)."""

    circuit: str
    policy: str
    spec: MissionSpec
    channel_width: int
    clean_wirelength: int
    clean_digest: str
    trajectories: List[MissionTrajectory]

    def degradation_curve(self) -> List[Dict[str, object]]:
        return aggregate_degradation(
            [[r.to_dict() for r in t.records] for t in self.trajectories],
            self.spec.epochs, self.spec.years)

    @property
    def time_to_first_unrepairable(self) -> Optional[float]:
        """Device-years until the earliest trajectory became
        unserviceable, or None when every trajectory survived."""
        failed = [
            self.spec.years * t.failed_epoch / self.spec.epochs
            for t in self.trajectories if t.failed_epoch is not None
        ]
        return min(failed) if failed else None

    @property
    def digest(self) -> str:
        """Stable content digest of everything deterministic here."""
        return canonical_digest({
            "circuit": self.circuit,
            "policy": self.policy,
            "spec": self.spec.to_dict(),
            "channel_width": self.channel_width,
            "clean_digest": self.clean_digest,
            "trajectories": [t.to_dict() for t in self.trajectories],
        })

    def to_dict(self) -> Dict[str, object]:
        return {
            "circuit": self.circuit,
            "policy": self.policy,
            "spec": self.spec.to_dict(),
            "channel_width": self.channel_width,
            "clean_wirelength": self.clean_wirelength,
            "clean_digest": self.clean_digest,
            "degradation_curve": self.degradation_curve(),
            "time_to_first_unrepairable": self.time_to_first_unrepairable,
            "trajectories": [t.to_dict() for t in self.trajectories],
            "digest": self.digest,
        }


def _route_widened(
    placement, campaign: FaultCampaign, new_width: int, **router_kwargs
):
    """Proactively move the design to a wider fabric.

    Samples the campaign's faults on the fresh fabric (node ids — and
    the physical relay population — change with the width) and reroutes
    every net around them.  Returns ``(routing, ir, width, defects)``
    or None when the wider fabric cannot carry the design either.
    """
    params = placement.clustered.params
    wide_ir = get_fabric(
        params.with_channel_width(new_width),
        placement.grid_width, placement.grid_height)
    wide_defects = campaign.for_fabric(wide_ir)
    router = PathFinderRouter(
        wide_ir,
        blocked_nodes=sorted(wide_defects.blocked_nodes()),
        blocked_edges=sorted(wide_defects.blocked_edges()),
        **router_kwargs,
    )
    result = router.route(build_route_nets(placement))
    if not result.success:
        return None
    return result, wide_ir, new_width, wide_defects


def _simulate_trajectory(
    flow: FlowResult,
    spec: MissionSpec,
    policy: RepairPolicy,
    campaign_seed: int,
    activities: Dict[str, float],
    **router_kwargs,
) -> MissionTrajectory:
    """One campaign seed's epoch loop (see module doc)."""
    from ..config.bitstream import extract_bitstream

    placement = flow.placement
    state = flow
    base_width = flow.channel_width
    clean_wl = flow.routing.wirelength

    sites = switch_sites(state.graph)
    actuations = np.zeros(len(sites))
    bitstream = extract_bitstream(state.routing, state.graph)

    dt_years = spec.years / spec.epochs
    cycles_per_epoch = spec.cycles_per_year * dt_years
    reconfig_per_epoch = spec.reconfigurations_per_year * dt_years
    cum_cycles = 0.0
    cum_reconfig = 0.0

    prev_map: Optional[FabricDefectMap] = None
    current_map: Optional[FabricDefectMap] = None
    records: List[EpochRecord] = []
    bist_runs = 0
    repairs = 0
    failed_epoch: Optional[int] = None

    tracer = get_tracer()
    pub = get_publisher()

    def attempt_repair(
        known: FabricDefectMap, campaign: FaultCampaign, forced_widen: bool
    ) -> Tuple[str, bool, int]:
        """One maintenance action; carries repaired state over on
        success (possibly onto a wider fabric)."""
        nonlocal state, sites, actuations, bitstream, current_map
        if forced_widen:
            outcome = _route_widened(
                placement, campaign,
                state.channel_width + policy.widen_step, **router_kwargs)
            if outcome is not None:
                routing, wide_ir, wide_width, wide_defects = outcome
                state = state.with_routing(routing, wide_ir, wide_width)
                sites = switch_sites(wide_ir)
                # The wider fabric's relays carry only the programming
                # baseline — exactly the wear the campaign sampled for
                # it — so the accumulator re-baselines to match and
                # later epochs keep nesting against `wide_defects`.
                actuations = np.full(len(sites), cum_reconfig)
                bitstream = extract_bitstream(routing, wide_ir)
                current_map = wide_defects
                return "widened", True, len(routing.trees)
            # The wider fabric refused the design outright: fall back
            # to the ordinary ladder on the current fabric.
        repair = repair_routing(
            placement, state.routing, known, graph=state.graph,
            campaign=campaign, max_widen=policy.max_widen,
            widen_step=policy.widen_step, **router_kwargs)
        if repair.success:
            if repair.channel_width != state.channel_width:
                state = state.with_routing(
                    repair.routing, repair.graph, repair.channel_width)
                sites = switch_sites(repair.graph)
                actuations = np.full(len(sites), cum_reconfig)
                current_map = repair.defects
            else:
                state = state.with_routing(repair.routing)
                current_map = known
            bitstream = extract_bitstream(state.routing, state.graph)
        return repair.stage, repair.success, repair.nets_ripped

    with tracer.span(
        "mission.trajectory", campaign_seed=campaign_seed,
        policy=policy.name,
    ) as traj_span:
        for epoch in range(1, spec.epochs + 1):
            cum_cycles += cycles_per_epoch
            cum_reconfig += reconfig_per_epoch
            actuations = actuations + site_actuations(
                sites, bitstream, activities,
                cycles=cycles_per_epoch,
                reconfigurations=reconfig_per_epoch)
            campaign = FaultCampaign(
                seed=campaign_seed, mode="aging",
                cycles=cum_cycles, reconfigurations=cum_reconfig,
                eta=spec.eta, beta=spec.beta)
            true_map = campaign.for_fabric(state.graph, actuations=actuations)
            if prev_map is not None and not defect_maps_nested(
                prev_map, true_map
            ):
                raise RuntimeError(
                    "mission fault sets failed to nest across epochs — "
                    "the aging sampling contract broke")
            new_defects = true_map.total - (
                prev_map.total if prev_map is not None else 0)
            current_map = true_map

            with tracer.span(
                "mission.epoch", epoch=epoch, campaign_seed=campaign_seed
            ) as span:
                bist_ran = False
                detected = 0
                repair_stage: Optional[str] = None
                repair_success: Optional[bool] = None
                nets_ripped = 0
                alive = True

                # -- scheduled maintenance (before the service interval)
                scheduled = (policy.bist_period is not None
                             and epoch % policy.bist_period == 0)
                if scheduled:
                    known = run_fabric_bist(state.graph, current_map)
                    bist_ran = True
                    bist_runs += 1
                    detected = known.total
                    forced_widen = (
                        policy.widen_threshold is not None
                        and state.channel_width == base_width
                        and len(sites) > 0
                        and known.total / len(sites) > policy.widen_threshold)
                    if forced_widen or find_victims(state.routing, known):
                        repairs += 1
                        repair_stage, repair_success, nets_ripped = (
                            attempt_repair(known, campaign, forced_widen))
                        alive = bool(repair_success)

                # -- service interval ------------------------------------
                victims = find_victims(state.routing, current_map)
                healthy = alive and not victims

                # -- reaction (the failure already cost this epoch) ------
                if alive and victims:
                    if policy.reactive:
                        known = run_fabric_bist(state.graph, current_map)
                        bist_ran = True
                        bist_runs += 1
                        detected = known.total
                        repairs += 1
                        repair_stage, repair_success, nets_ripped = (
                            attempt_repair(known, campaign, False))
                        alive = bool(repair_success)
                    elif policy.bist_period is None:
                        # No repair mechanism will ever run again.
                        alive = False

                wl = state.routing.wirelength
                record = EpochRecord(
                    epoch=epoch,
                    device_years=dt_years * epoch,
                    defects=current_map.total,
                    new_defects=new_defects,
                    defect_digest=current_map.digest,
                    victims=len(victims),
                    bist=bist_ran,
                    detected=detected,
                    repair_stage=repair_stage,
                    repair_success=repair_success,
                    nets_ripped=nets_ripped,
                    channel_width=state.channel_width,
                    wirelength=wl,
                    wirelength_overhead=(
                        wl / clean_wl - 1.0 if clean_wl else 0.0),
                    healthy=healthy,
                    alive=alive,
                )
                records.append(record)
                span.set_many(
                    defects=current_map.total,
                    new_defects=new_defects,
                    victims=len(victims),
                    stage=repair_stage or "",
                    healthy=healthy,
                    alive=alive,
                    channel_width=state.channel_width,
                    device_years=record.device_years,
                )
                if pub.enabled:
                    pub.progress(
                        "mission.epoch", policy=policy.name,
                        campaign_seed=campaign_seed, epoch=epoch,
                        defects=current_map.total, victims=len(victims),
                        healthy=healthy)
            prev_map = current_map
            if not alive:
                failed_epoch = epoch
                _log.info("mission trajectory down %s", kv(
                    campaign_seed=campaign_seed, epoch=epoch,
                    policy=policy.name))
                break

        traj_span.set_many(
            epochs_survived=len(records),
            failed_epoch=failed_epoch,
            repairs=repairs,
            bist_runs=bist_runs,
            final_channel_width=state.channel_width,
        )
    return MissionTrajectory(
        campaign_seed=campaign_seed,
        records=records,
        failed_epoch=failed_epoch,
        bist_runs=bist_runs,
        repairs=repairs,
        final_channel_width=state.channel_width,
    )


def simulate_mission(
    flow: FlowResult,
    spec: MissionSpec,
    activities: Optional[Dict[str, float]] = None,
    **router_kwargs,
) -> MissionResult:
    """Run one lifetime mission over an already-routed clean flow.

    Args:
        flow: A successful `run_flow` outcome; the mission carries its
            routed state forward, epoch by epoch (the original flow is
            never mutated).
        spec: Mission parameters (`MissionSpec`).
        activities: Net switching densities; defaults to
            `power.activity.estimate_activities` on the flow's netlist.
        **router_kwargs: Forwarded to every `PathFinderRouter`.
    """
    if not flow.success:
        raise ValueError("mission requires a legally routed clean flow")
    policy = resolve_policy(spec.policy)
    if activities is None:
        from ..power.activity import estimate_activities
        activities = estimate_activities(flow.netlist)

    with get_tracer().span(
        "mission.run", circuit=flow.netlist.name, policy=policy.name,
        epochs=spec.epochs, campaigns=spec.campaigns, years=spec.years,
    ) as span:
        trajectories = [
            _simulate_trajectory(
                flow, spec, policy, spec.base_seed + i, activities,
                **router_kwargs)
            for i in range(spec.campaigns)
        ]
        result = MissionResult(
            circuit=flow.netlist.name,
            policy=policy.name,
            spec=spec,
            channel_width=flow.channel_width,
            clean_wirelength=flow.routing.wirelength,
            clean_digest=routing_digest(flow.routing, flow.channel_width),
            trajectories=trajectories,
        )
        curve = result.degradation_curve()
        ttf = result.time_to_first_unrepairable
        span.set("degradation", curve)
        span.set_many(
            ttf_years=ttf,
            final_yield=curve[-1]["yield"] if curve else 0.0,
            digest=result.digest[:12],
        )
        registry = get_registry()
        registry.counter("mission.epochs").inc(
            sum(len(t.records) for t in trajectories))
        registry.counter("mission.bist_runs").inc(
            sum(t.bist_runs for t in trajectories))
        registry.counter("mission.repairs").inc(
            sum(t.repairs for t in trajectories))
        registry.counter("mission.failures").inc(
            sum(1 for t in trajectories if t.failed_epoch is not None))
        if curve:
            registry.gauge("mission.final_yield").set(curve[-1]["yield"])
        _log.info("mission done %s", kv(
            circuit=flow.netlist.name, policy=policy.name,
            ttf=ttf, final_yield=curve[-1]["yield"] if curve else None))
        return result


def run_mission(
    netlist: Netlist,
    params: ArchParams,
    spec: MissionSpec,
    channel_width: Optional[int] = None,
    seed: int = 1,
    flow: Optional[FlowResult] = None,
    **router_kwargs,
) -> MissionResult:
    """P&R the circuit clean, then fly the mission (see
    `simulate_mission`)."""
    if flow is None:
        flow = run_flow(
            netlist, params, seed=seed, channel_width=channel_width,
            **router_kwargs)
    if not flow.success:
        raise RuntimeError(
            f"clean fabric unroutable at W={flow.channel_width}; "
            "widen the channel before flying a mission")
    return simulate_mission(flow, spec, **router_kwargs)
