"""Power-speed trade-off sweeps (paper Fig. 12 and Sec. 3.4).

For each circuit: evaluate the CMOS-only baseline, then sweep the
optimised CMOS-NEM variant over wire-buffer downsize factors
("pretending the chain drives an up-to-8x smaller load").  Each sweep
point yields (speed-up, dynamic reduction, leakage reduction) relative
to the baseline at the baseline's operating frequency — the two curve
families of Figs. 12a/12b.  The *preferred corner* is the most
power-reduced point with no application speed penalty (speed-up >= 1),
which produces the paper's headline 10x/2x/2x-at-iso-speed claim.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import Dict, List, Optional, Sequence

from ..arch.params import ArchParams
from ..circuits.ptm import PTM_22NM, Technology
from ..vpr.flow import FlowResult
from .evaluate import Comparison, DesignPoint, evaluate_design, shared_evaluation
from .variants import (
    FpgaVariant,
    baseline_variant,
    naive_nem_variant,
    optimized_nem_variant,
)

#: The paper sweeps pretend-load factors up to 8x; we extend slightly
#: so the iso-speed crossover is always bracketed at scaled workloads.
DEFAULT_DOWNSIZE_SWEEP: Sequence[float] = (1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0)


@dataclasses.dataclass(frozen=True)
class TradeoffPoint:
    """One sweep point of Fig. 12 (both panels share the x-axis)."""

    downsize: float
    speedup: float
    dynamic_reduction: float
    leakage_reduction: float
    area_reduction: float


@dataclasses.dataclass
class TradeoffCurve:
    """Per-circuit sweep results.

    Attributes:
        circuit: Circuit name ("geomean" for the aggregated curve).
        points: Sweep points in downsize order.
        baseline: The baseline design point (None for aggregates).
        naive: The no-technique CMOS-NEM comparison point.
    """

    circuit: str
    points: List[TradeoffPoint]
    baseline: Optional[DesignPoint] = None
    naive: Optional[Comparison] = None

    def preferred_corner(self) -> TradeoffPoint:
        """Most leakage-reduced point with speed-up >= 1 (no speed
        penalty); falls back to the fastest point if none qualifies."""
        eligible = [p for p in self.points if p.speedup >= 1.0]
        if eligible:
            return max(eligible, key=lambda p: p.leakage_reduction)
        return max(self.points, key=lambda p: p.speedup)


@functools.lru_cache(maxsize=64)
def _variant(build, params: ArchParams, tech: Technology, *args) -> FpgaVariant:
    """``build(params, *args, tech=tech)``, elaborated once per key.

    A variant depends only on these inputs and nothing changes it after
    `FpgaVariant.solve`, so every circuit of a sweep shares the same
    instances instead of re-sizing 11 buffer chains per circuit.
    """
    return build(params, *args, tech=tech)


def sweep_circuit(
    flow: FlowResult,
    params: ArchParams,
    tech: Technology = PTM_22NM,
    downsizes: Sequence[float] = DEFAULT_DOWNSIZE_SWEEP,
    include_naive: bool = True,
) -> TradeoffCurve:
    """Run the Fig. 12 sweep for one routed circuit.

    All variants reuse the circuit's single P&R result, so its timing
    structure and activities are extracted once; power is evaluated at
    the baseline's maximum operating frequency (the paper's
    iso-performance comparison).
    """
    if not downsizes:
        raise ValueError("need at least one downsize factor")
    shared = shared_evaluation(flow)
    baseline = evaluate_design(
        flow, _variant(baseline_variant, params, tech), **shared)
    f_ref = 1.0 / baseline.critical_path
    points: List[TradeoffPoint] = []
    for downsize in downsizes:
        variant = _variant(optimized_nem_variant, params, tech, downsize)
        point = evaluate_design(flow, variant, frequency=f_ref, **shared)
        cmp = Comparison.of(baseline, point)
        points.append(
            TradeoffPoint(
                downsize=downsize,
                speedup=cmp.speedup,
                dynamic_reduction=cmp.dynamic_reduction,
                leakage_reduction=cmp.leakage_reduction,
                area_reduction=cmp.area_reduction,
            )
        )
    naive_cmp: Optional[Comparison] = None
    if include_naive:
        naive_point = evaluate_design(
            flow, _variant(naive_nem_variant, params, tech), frequency=f_ref,
            **shared)
        naive_cmp = Comparison.of(baseline, naive_point)
    return TradeoffCurve(
        circuit=flow.netlist.name, points=points, baseline=baseline, naive=naive_cmp
    )


def _geomean(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("geomean of empty sequence")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def geomean_curve(curves: Sequence[TradeoffCurve]) -> TradeoffCurve:
    """Geometric-mean curve across circuits (the paper's '20 largest
    MCNC (geometric mean)' series)."""
    if not curves:
        raise ValueError("need at least one curve")
    n_points = len(curves[0].points)
    if any(len(c.points) != n_points for c in curves):
        raise ValueError("curves must share the downsize sweep")
    points: List[TradeoffPoint] = []
    for i in range(n_points):
        pts = [c.points[i] for c in curves]
        points.append(
            TradeoffPoint(
                downsize=pts[0].downsize,
                speedup=_geomean([p.speedup for p in pts]),
                dynamic_reduction=_geomean([p.dynamic_reduction for p in pts]),
                leakage_reduction=_geomean([p.leakage_reduction for p in pts]),
                area_reduction=_geomean([p.area_reduction for p in pts]),
            )
        )
    naive: Optional[Comparison] = None
    naives = [c.naive for c in curves if c.naive is not None]
    if naives:
        naive = Comparison(
            circuit="geomean",
            speedup=_geomean([n.speedup for n in naives]),
            dynamic_reduction=_geomean([n.dynamic_reduction for n in naives]),
            leakage_reduction=_geomean([n.leakage_reduction for n in naives]),
            area_reduction=_geomean([n.area_reduction for n in naives]),
        )
    return TradeoffCurve(circuit="geomean", points=points, naive=naive)


def fig12_series(curve: TradeoffCurve) -> Dict[str, List[float]]:
    """The two Fig. 12 panels as plottable series for one curve:
    (speed-up vs dynamic reduction) and (speed-up vs leakage
    reduction)."""
    return {
        "speedup": [p.speedup for p in curve.points],
        "dynamic_reduction": [p.dynamic_reduction for p in curve.points],
        "leakage_reduction": [p.leakage_reduction for p in curve.points],
        "downsize": [p.downsize for p in curve.points],
    }
