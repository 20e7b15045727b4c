"""Seed-robustness statistics for the headline comparisons.

Simulated annealing and negotiated routing are stochastic in their
seeds; a reproduction should show the paper's ratios are properties of
the architecture, not of one lucky placement.  `seed_sweep` re-runs
the flow across placement seeds and reports the distribution of every
headline ratio.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, List, Optional, Sequence

from ..arch.params import ArchParams
from ..circuits.ptm import PTM_22NM, Technology
from ..netlist.core import Netlist
from ..vpr.flow import run_flow
from .evaluate import Comparison, evaluate_design, shared_evaluation
from .variants import baseline_variant, optimized_nem_variant


@dataclasses.dataclass
class RatioStats:
    """Distribution summary of one reduction ratio across seeds."""

    values: List[float]

    @property
    def geomean(self) -> float:
        return math.exp(sum(math.log(v) for v in self.values) / len(self.values))

    @property
    def minimum(self) -> float:
        return min(self.values)

    @property
    def maximum(self) -> float:
        return max(self.values)

    @property
    def relative_spread(self) -> float:
        """(max - min) / geomean — the seed-noise figure."""
        return (self.maximum - self.minimum) / self.geomean


@dataclasses.dataclass
class SeedStudy:
    """Multi-seed flow statistics.

    Attributes:
        circuit: Circuit name.
        seeds: The placement seeds evaluated.
        comparisons: One paper-style comparison per successful seed.
        failed_seeds: Seeds whose routing did not close (excluded).
    """

    circuit: str
    seeds: List[int]
    comparisons: List[Comparison]
    failed_seeds: List[int]

    def stats(self) -> Dict[str, RatioStats]:
        if not self.comparisons:
            raise ValueError("no successful seeds to summarise")
        return {
            "speedup": RatioStats([c.speedup for c in self.comparisons]),
            "dynamic_reduction": RatioStats([c.dynamic_reduction for c in self.comparisons]),
            "leakage_reduction": RatioStats([c.leakage_reduction for c in self.comparisons]),
            "area_reduction": RatioStats([c.area_reduction for c in self.comparisons]),
        }


def seed_sweep(
    netlist: Netlist,
    params: ArchParams,
    seeds: Sequence[int] = (1, 2, 3, 4, 5),
    downsize: float = 8.0,
    tech: Technology = PTM_22NM,
    channel_width: Optional[int] = None,
) -> SeedStudy:
    """Evaluate baseline vs optimised CMOS-NEM across placement seeds.

    Each seed gets its own placement and routing; the two variants
    share each seed's P&R (the paper's methodology), and power is
    compared at that seed's baseline clock.
    """
    if not seeds:
        raise ValueError("need at least one seed")
    comparisons: List[Comparison] = []
    failed: List[int] = []
    for seed in seeds:
        flow = run_flow(netlist, params, seed=seed, channel_width=channel_width)
        if not flow.success:
            failed.append(seed)
            continue
        shared = shared_evaluation(flow)
        base = evaluate_design(flow, baseline_variant(params, tech), **shared)
        nem = evaluate_design(
            flow, optimized_nem_variant(params, downsize, tech), frequency=base.frequency,
            **shared)
        comparisons.append(Comparison.of(base, nem))
    return SeedStudy(
        circuit=netlist.name,
        seeds=list(seeds),
        comparisons=comparisons,
        failed_seeds=failed,
    )


def format_study(study: SeedStudy) -> str:
    """Text table of a seed study's ratio distributions."""
    stats = study.stats()
    lines = [
        f"{study.circuit}: {len(study.comparisons)}/{len(study.seeds)} seeds routed",
        f"{'ratio':>20s} {'geomean':>8s} {'min':>7s} {'max':>7s} {'spread':>7s}",
    ]
    for name, s in stats.items():
        lines.append(
            f"{name:>20s} {s.geomean:8.2f} {s.minimum:7.2f} {s.maximum:7.2f} "
            f"{100 * s.relative_spread:6.1f}%"
        )
    return "\n".join(lines)
