"""Campaign evaluation: routability-vs-defect-rate yield curves.

`run_defect_sweep` answers the system-level question the fault model
exists for: *how much hardware degradation can the CAD flow absorb?*
It routes a circuit once on a clean fabric, then replays seeded fault
campaigns at increasing defect rates against that same routed design,
repairing each with the degradation ladder (`repair_routing`) and
aggregating, per rate:

* yield — fraction of campaigns ending in a legal routing at all;
* incremental yield — fraction absorbed by the cheapest rung (victim
  nets rerouted, healthy trees untouched);
* repair cost — nets ripped, wirelength inflation vs the clean route.

Every outcome carries the defect map's digest and the repaired
routing's digest, so the whole sweep is bit-reproducible from
``(campaign seeds, fabric key)`` — the property the robustness
benchmark asserts.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

from ..arch.params import ArchParams
from ..netlist.core import Netlist
from ..obs import get_logger, get_registry, get_tracer, kv
from ..vpr.flow import run_flow
from .campaign import FaultCampaign
from .defects import canonical_digest, chain_is_nested
from .repair import RepairResult, repair_routing

_log = get_logger("faults.evaluate")


def routing_digest(routing, channel_width: int) -> str:
    """Stable digest of a routing's trees (batch-runner compatible)."""
    return canonical_digest({"channel_width": channel_width,
                             "trees": routing.trees.canonical()})


@dataclasses.dataclass(frozen=True)
class CampaignOutcome:
    """One (rate, campaign) cell of a defect sweep."""

    rate: float
    campaign_seed: int
    defects: int
    defect_digest: str
    stage: str
    success: bool
    victim_nets: int
    nets_ripped: int
    channel_width: int
    wirelength: int
    routing_digest: str

    def to_dict(self) -> Dict[str, object]:
        return dataclasses.asdict(self)


@dataclasses.dataclass(frozen=True)
class FaultSetChain:
    """One campaign seed's fault sets across the swept rates, in rate
    order — the nested-fault-set invariant, made inspectable.

    ``run_defect_sweep`` keeps each campaign's seed constant while the
    rate grows, so the sampled sets must nest (`chain_is_nested`,
    the same check the mission simulator applies across epochs).
    ``nested`` records the verified outcome; a False here would mean
    the sampling contract broke, and the sweep raises before
    returning one.
    """

    campaign_seed: int
    rates: Tuple[float, ...]
    digests: Tuple[str, ...]
    defect_counts: Tuple[int, ...]
    nested: bool

    def to_dict(self) -> Dict[str, object]:
        return {
            "campaign_seed": self.campaign_seed,
            "rates": list(self.rates),
            "digests": list(self.digests),
            "defect_counts": list(self.defect_counts),
            "nested": self.nested,
        }


@dataclasses.dataclass
class DefectSweep:
    """Full sweep outcome (see `run_defect_sweep`)."""

    circuit: str
    channel_width: int
    clean_wirelength: int
    clean_digest: str
    rates: List[float]
    outcomes: List[CampaignOutcome]
    chains: List[FaultSetChain] = dataclasses.field(default_factory=list)

    def at_rate(self, rate: float) -> List[CampaignOutcome]:
        return [o for o in self.outcomes if o.rate == rate]

    def chain_for(self, campaign_seed: int) -> FaultSetChain:
        """The per-rate fault-set chain one campaign seed sampled."""
        for chain in self.chains:
            if chain.campaign_seed == campaign_seed:
                return chain
        raise KeyError(f"no chain for campaign seed {campaign_seed}")

    def yield_curve(self) -> List[Dict[str, object]]:
        """Per-rate aggregate rows (the plot the sweep exists for)."""
        rows: List[Dict[str, object]] = []
        for rate in self.rates:
            cells = self.at_rate(rate)
            n = len(cells)
            ok = [c for c in cells if c.success]
            incremental = [c for c in ok if c.stage in ("clean", "incremental")]
            wl = [c.wirelength for c in ok]
            rows.append({
                "rate": rate,
                "campaigns": n,
                "yield": len(ok) / n if n else 0.0,
                "incremental_yield": len(incremental) / n if n else 0.0,
                "mean_defects": sum(c.defects for c in cells) / n if n else 0.0,
                "mean_nets_ripped": (
                    sum(c.nets_ripped for c in ok) / len(ok) if ok else 0.0),
                "mean_wirelength": sum(wl) / len(wl) if wl else 0.0,
                "wirelength_overhead": (
                    (sum(wl) / len(wl)) / self.clean_wirelength - 1.0
                    if wl and self.clean_wirelength else 0.0),
                "stages": {
                    stage: sum(1 for c in cells if c.stage == stage)
                    for stage in sorted({c.stage for c in cells})
                },
            })
        return rows

    def to_dict(self) -> Dict[str, object]:
        return {
            "circuit": self.circuit,
            "channel_width": self.channel_width,
            "clean_wirelength": self.clean_wirelength,
            "clean_digest": self.clean_digest,
            "rates": self.rates,
            "yield_curve": self.yield_curve(),
            "outcomes": [o.to_dict() for o in self.outcomes],
            "chains": [c.to_dict() for c in self.chains],
        }


def run_defect_sweep(
    netlist: Netlist,
    params: ArchParams,
    channel_width: Optional[int] = None,
    rates: Sequence[float] = (0.005, 0.01, 0.02),
    campaigns: int = 5,
    base_seed: int = 0,
    mode: str = "uniform",
    stuck_closed_fraction: float = 0.0,
    seed: int = 1,
    max_widen: int = 3,
    **router_kwargs,
) -> DefectSweep:
    """Route clean once, then repair under seeded campaigns per rate.

    Args:
        netlist: Circuit to evaluate.
        params: Architecture.
        channel_width: Fixed W (defaults to the architecture's).
        rates: Total per-switch defect probabilities to sweep.
        campaigns: Independent campaigns per rate (seeds
            ``base_seed .. base_seed + campaigns - 1``; campaign ``i``
            keeps its seed across rates, so the fault sets nest as the
            rate grows — the yield curve is monotone in hardware, not
            sampling noise).
        mode: Campaign sampling mode (`FaultCampaign.mode`).
        stuck_closed_fraction: Portion of each rate sampled as
            stuck-closed (stiction) rather than stuck-open.
        seed: Placement seed of the clean route.
        max_widen: Degradation-ladder widening budget.
    """
    if not 0.0 <= stuck_closed_fraction <= 1.0:
        raise ValueError("stuck_closed_fraction must be in [0, 1]")
    if campaigns < 1:
        raise ValueError("campaigns must be >= 1")
    rates = [float(r) for r in rates]
    with get_tracer().span(
        "faults.sweep", circuit=netlist.name, rates=len(rates),
        campaigns=campaigns,
    ) as span:
        flow = run_flow(
            netlist, params, seed=seed, channel_width=channel_width,
            **router_kwargs)
        if not flow.success:
            raise RuntimeError(
                f"clean fabric unroutable at W={flow.channel_width}; "
                "widen the channel before sweeping defects")
        clean_digest = routing_digest(flow.routing, flow.channel_width)

        outcomes: List[CampaignOutcome] = []
        maps_by_seed: Dict[int, List] = {
            base_seed + i: [] for i in range(campaigns)}
        for rate in rates:
            for i in range(campaigns):
                campaign = FaultCampaign(
                    seed=base_seed + i,
                    mode=mode,
                    stuck_open_rate=rate * (1.0 - stuck_closed_fraction),
                    stuck_closed_rate=rate * stuck_closed_fraction,
                )
                defect_map = campaign.for_fabric(flow.graph)
                maps_by_seed[campaign.seed].append(defect_map)
                repair = repair_routing(
                    flow.placement, flow.routing, defect_map,
                    graph=flow.graph, campaign=campaign,
                    max_widen=max_widen, **router_kwargs)
                outcomes.append(_outcome_of(rate, campaign, defect_map, repair))
                _log.debug("sweep cell %s", kv(
                    rate=rate, campaign=campaign.seed, stage=repair.stage,
                    success=repair.success))
        chains = []
        for campaign_seed in sorted(maps_by_seed):
            maps = maps_by_seed[campaign_seed]
            nested = chain_is_nested(maps)
            if not nested:
                raise RuntimeError(
                    f"fault sets for campaign seed {campaign_seed} are not "
                    "nested across rates — the sampling contract broke")
            chains.append(FaultSetChain(
                campaign_seed=campaign_seed,
                rates=tuple(rates),
                digests=tuple(m.digest for m in maps),
                defect_counts=tuple(m.total for m in maps),
                nested=nested,
            ))
        sweep = DefectSweep(
            circuit=netlist.name,
            channel_width=flow.channel_width,
            clean_wirelength=flow.routing.wirelength,
            clean_digest=clean_digest,
            rates=rates,
            outcomes=outcomes,
            chains=chains,
        )
        curve = sweep.yield_curve()
        span.set("yield_curve", curve)
        registry = get_registry()
        registry.counter("faults.sweep_cells").inc(len(outcomes))
        if curve:
            registry.gauge("faults.worst_yield").set(
                min(row["yield"] for row in curve))
        return sweep


def _outcome_of(
    rate: float,
    campaign: FaultCampaign,
    defect_map,
    repair: RepairResult,
) -> CampaignOutcome:
    return CampaignOutcome(
        rate=rate,
        campaign_seed=campaign.seed,
        defects=defect_map.total,
        defect_digest=defect_map.digest,
        stage=repair.stage,
        success=repair.success,
        victim_nets=len(repair.victim_nets),
        nets_ripped=repair.nets_ripped,
        channel_width=repair.channel_width,
        wirelength=repair.routing.wirelength,
        routing_digest=routing_digest(repair.routing, repair.channel_width),
    )
