"""Design-point evaluation: (delay, dynamic power, leakage, area).

Joins the substrates: a routed design (`repro.vpr.flow.FlowResult`)
is evaluated under one `FpgaVariant`'s electrical models.  Routing is
variant-independent (the paper replaces switches 1:1, keeping W), so
one P&R run serves every variant of a circuit — exactly the paper's
methodology and a large compute saving.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Mapping, Optional

from ..obs import get_tracer
from ..power.activity import ActivityModel, estimate_activities
from ..power.dynamic import dynamic_power, total_dynamic
from ..power.leakage import fpga_leakage, total_leakage
from ..vpr.flow import FlowResult
from ..vpr.timing import TimingExtraction, TimingReport
from .variants import FpgaVariant


@dataclasses.dataclass
class DesignPoint:
    """One (circuit, variant) evaluation.

    Attributes:
        circuit: Circuit name.
        variant: The evaluated variant.
        critical_path: Application critical path delay (s).
        frequency: Clock used for dynamic power (Hz).
        dynamic: Dynamic power breakdown (W).
        leakage: Leakage power breakdown (W).
        tile_footprint_m2: Stacked tile footprint (m^2).
        timing: Full STA report (kept for inspection).
        produced_by: Telemetry span id of the evaluation that produced
            this point (None when no tracer was active) — joins result
            rows back to the flow trace in exported telemetry.
    """

    circuit: str
    variant: FpgaVariant
    critical_path: float
    frequency: float
    dynamic: Dict[str, float]
    leakage: Dict[str, float]
    tile_footprint_m2: float
    timing: TimingReport
    produced_by: Optional[str] = None

    @property
    def total_dynamic(self) -> float:
        return total_dynamic(self.dynamic)

    @property
    def total_leakage(self) -> float:
        return total_leakage(self.leakage)

    @property
    def total_power(self) -> float:
        return self.total_dynamic + self.total_leakage


def shared_evaluation(flow: FlowResult) -> Dict[str, object]:
    """`evaluate_design` keywords that let several variants of one
    routed ``flow`` share one timing extraction and one activity
    estimate (the results are those of separate evaluations)."""
    return dict(
        activities=estimate_activities(flow.netlist),
        _timing=TimingExtraction(flow.placement, flow.routing, flow.graph),
    )


def evaluate_design(
    flow: FlowResult,
    variant: FpgaVariant,
    activities: Optional[Mapping[str, float]] = None,
    frequency: Optional[float] = None,
    activity_model: ActivityModel = ActivityModel(),
    _timing: Optional[TimingExtraction] = None,
) -> DesignPoint:
    """Evaluate one routed circuit under one variant's electricals.

    Args:
        flow: P&R result (shared across variants of the circuit).
        variant: The FPGA design point.
        activities: Per-signal transition densities; estimated from the
            netlist when not given.
        frequency: Clock for dynamic power; defaults to this variant's
            own maximum (1/critical path).  Pass the baseline's f_max
            for the paper's iso-performance comparisons.
        _timing: ``TimingExtraction`` of ``flow``, when the caller
            evaluates several variants of one routing (see
            `shared_evaluation`); None extracts it here.
    """
    tracer = get_tracer()
    with tracer.span(
        "evaluate",
        circuit=flow.netlist.name,
        variant=variant.config.kind.name,
    ) as span:
        fabric = variant.fabric()
        if _timing is None:
            _timing = TimingExtraction(flow.placement, flow.routing, flow.graph)
        timing = _timing.evaluate(fabric)
        if activities is None:
            activities = estimate_activities(flow.netlist, activity_model)
        crit = timing.critical_path
        f_ref = frequency if frequency is not None else (1.0 / crit if crit > 0 else 1e9)

        num_tiles = flow.placement.grid_width * flow.placement.grid_height
        dyn = dynamic_power(
            netlist=flow.netlist,
            net_delays=timing.net_delays,
            activities=activities,
            spec=variant.dynamic_spec(),
            frequency=f_ref,
            num_tiles=num_tiles,
        )
        leak = fpga_leakage(variant.inventory, variant.leakage_spec(), num_tiles)
        assert variant.area is not None
        span.set_many(
            critical_path_s=crit,
            frequency_hz=f_ref,
            dynamic_w=total_dynamic(dyn),
            leakage_w=total_leakage(leak),
            footprint_m2=variant.area.footprint_m2,
        )
        return DesignPoint(
            circuit=flow.netlist.name,
            variant=variant,
            critical_path=crit,
            frequency=f_ref,
            dynamic=dyn,
            leakage=leak,
            tile_footprint_m2=variant.area.footprint_m2,
            timing=timing,
            produced_by=span.span_id,
        )


@dataclasses.dataclass
class Comparison:
    """Variant vs baseline ratios (the paper's reported quantities)."""

    circuit: str
    speedup: float
    dynamic_reduction: float
    leakage_reduction: float
    area_reduction: float

    @classmethod
    def of(cls, baseline: DesignPoint, candidate: DesignPoint) -> "Comparison":
        return cls(
            circuit=baseline.circuit,
            speedup=baseline.critical_path / candidate.critical_path,
            dynamic_reduction=baseline.total_dynamic / candidate.total_dynamic,
            leakage_reduction=baseline.total_leakage / candidate.total_leakage,
            area_reduction=baseline.tile_footprint_m2 / candidate.tile_footprint_m2,
        )
