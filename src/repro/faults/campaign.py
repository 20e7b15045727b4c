"""Seeded fault campaigns over `FabricIR` routing switches.

A `FaultCampaign` is an immutable fault *model*: it does not hold any
node ids, only a seed plus physical parameters.  Calling
`for_fabric(ir)` samples a concrete `FabricDefectMap` for one fabric,
bit-reproducibly from ``(campaign.seed, fabric_key_of(ir))`` — the
same campaign resampled on a wider fabric (the repair ladder's W+2
retries, a `find_min_channel_width` probe) yields a deterministic but
different map, because the id space changed.

Three sampling modes, all drawing over *undirected switch sites*
(a bidir fabric stores two directed CSR edges per physical relay;
one relay fails as a unit):

* ``uniform`` — i.i.d. stuck-open / stuck-closed rates.  The workhorse
  for yield curves.
* ``variation`` — Vpi/Vpo Monte-Carlo tails (`nemrelay.variation`,
  paper Fig. 6): a relay whose Vpi exceeds the population's
  full-select voltage can never be programmed (stuck-open); one whose
  Vpo exceeds Vhold, or whose Vpi sits below the half-select level,
  violates the Fig. 4 window and latches (stuck-closed).
* ``aging`` — Weibull contact wear (`nemrelay.reliability`): each
  site accumulates actuation cycles (baseline reconfigurations, plus
  signal toggling scaled by netlist switching activity when a
  programmed bitstream is supplied) and fails stuck-open with its
  Weibull failure probability.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Dict, Optional, Tuple

import numpy as np

from ..fabric import FabricIR
from ..obs import get_registry, get_tracer
from .defects import FabricDefectMap, fabric_key_of

#: Non-programmable CSR edges (SwitchKind.NONE) are not fault sites.
_SWITCH_NONE = 0

CAMPAIGN_MODES = ("uniform", "variation", "aging")


def _seed_sequence(seed: int, fabric_key: str) -> np.random.SeedSequence:
    """SeedSequence from (campaign seed, fabric key) — the determinism
    contract: same pair, same entropy stream, any process."""
    key_int = int.from_bytes(
        hashlib.sha256(fabric_key.encode("utf-8")).digest()[:8], "big")
    return np.random.SeedSequence([int(seed), key_int])


def switch_sites(ir: FabricIR) -> np.ndarray:
    """Unique undirected programmable switch sites of ``ir``.

    Returns an int64 ``(n_sites, 2)`` array of ``(lo, hi)`` node pairs
    in ascending lexicographic order — the canonical site enumeration
    every campaign mode draws over (order stability is part of the
    determinism contract).
    """
    if ir.num_edges == 0:
        return np.zeros((0, 2), dtype=np.int64)
    sources = np.repeat(
        np.arange(ir.num_nodes, dtype=np.int64), np.diff(ir.edge_offsets))
    targets = ir.edge_targets.astype(np.int64)
    programmable = ir.edge_switch != _SWITCH_NONE
    lo = np.minimum(sources[programmable], targets[programmable])
    hi = np.maximum(sources[programmable], targets[programmable])
    encoded = np.unique(lo * np.int64(ir.num_nodes) + hi)
    return np.column_stack(
        (encoded // ir.num_nodes, encoded % ir.num_nodes))


def site_actuations(
    sites: np.ndarray,
    bitstream: Optional[object] = None,
    activities: Optional[Dict[str, float]] = None,
    cycles: float = 0.0,
    reconfigurations: float = 0.0,
) -> np.ndarray:
    """Per-site actuation counts for one wear interval.

    Every site sees the ``reconfigurations`` programming baseline; a
    site carrying a net in ``bitstream`` additionally toggles
    ``cycles`` times scaled by that net's switching activity
    (``activities``, defaulting to `DEFAULT_INPUT_ACTIVITY`).

    This is the one wear-accounting code path: `FaultCampaign` calls
    it for single-shot aging maps, and the mission simulator
    (`repro.faults.mission`) calls it per epoch, *summing* the returned
    increments into a cumulative per-site accumulator that is handed
    back through ``for_fabric(..., actuations=...)`` — which is what
    makes mission fault sets nest across epochs.

    ``sites`` must be in `switch_sites` order (strictly ascending
    ``(lo, hi)`` pairs): each conducting edge finds its site by a
    binary search over the encoded site keys.  Wear lands with one
    unbuffered ``np.add.at`` in ``net_of_edge`` order, so a site both
    of whose directions carry a net accumulates its two increments in
    the same float order as a per-edge loop would.
    """
    from ..power.activity import DEFAULT_INPUT_ACTIVITY

    actuations = np.full(len(sites), float(reconfigurations))
    net_of_edge = getattr(bitstream, "net_of_edge", None)
    if not net_of_edge or cycles <= 0 or not len(sites):
        return actuations
    edges = np.array(list(net_of_edge), dtype=np.int64).reshape(-1, 2)
    lo = np.minimum(edges[:, 0], edges[:, 1])
    hi = np.maximum(edges[:, 0], edges[:, 1])
    base = np.int64(max(int(sites.max()), int(hi.max())) + 1)
    keys = sites[:, 0].astype(np.int64) * base + sites[:, 1]
    if len(keys) > 1 and not bool(np.all(keys[1:] > keys[:-1])):
        raise ValueError("sites must be in switch_sites order")
    query = lo * base + hi
    idx = np.minimum(np.searchsorted(keys, query), len(keys) - 1)
    found = keys[idx] == query
    if activities is None:
        density = np.full(len(edges), DEFAULT_INPUT_ACTIVITY)
    else:
        density = np.array([
            activities.get(net, DEFAULT_INPUT_ACTIVITY)
            for net in net_of_edge.values()], dtype=np.float64)
    np.add.at(actuations, idx[found], cycles * density[found])
    return actuations


@dataclasses.dataclass(frozen=True)
class FaultCampaign:
    """A seeded, fabric-independent fault model.

    Attributes:
        seed: Campaign seed; with the fabric key this fully determines
            the sampled defect map.
        mode: ``uniform`` | ``variation`` | ``aging``.
        stuck_open_rate / stuck_closed_rate: Per-site probabilities
            (``uniform`` mode).
        sigma_scale: Multiplier on the Fig. 6 variation sigmas
            (``variation`` mode); >1 widens the tails.
        population: Monte-Carlo population size (``variation`` mode).
        cycles: Signal-toggle cycles each routed site accumulates
            (``aging`` mode), scaled by net switching activity.
        reconfigurations: Baseline programming actuations every site
            has seen regardless of use (``aging`` mode).
        eta / beta: Weibull endurance parameters (``aging`` mode).
    """

    seed: int = 0
    mode: str = "uniform"
    stuck_open_rate: float = 0.01
    stuck_closed_rate: float = 0.0
    sigma_scale: float = 1.0
    population: int = 200
    cycles: float = 0.0
    reconfigurations: float = 500.0
    eta: float = 1e9
    beta: float = 1.6

    def __post_init__(self) -> None:
        if self.mode not in CAMPAIGN_MODES:
            raise ValueError(
                f"mode must be one of {CAMPAIGN_MODES}, got {self.mode!r}")
        for name in ("stuck_open_rate", "stuck_closed_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if self.stuck_open_rate + self.stuck_closed_rate > 1.0:
            raise ValueError("stuck_open_rate + stuck_closed_rate > 1")
        if self.sigma_scale <= 0:
            raise ValueError("sigma_scale must be positive")
        if self.population < 2:
            raise ValueError("population must be >= 2")
        if self.cycles < 0 or self.reconfigurations < 0:
            raise ValueError("cycles and reconfigurations must be >= 0")
        if self.eta <= 0 or self.beta <= 0:
            raise ValueError("eta and beta must be positive")

    # ------------------------------------------------------------------

    def for_fabric(
        self,
        ir: FabricIR,
        bitstream: Optional[object] = None,
        activities: Optional[Dict[str, float]] = None,
        actuations: Optional[np.ndarray] = None,
        _sites: Optional[np.ndarray] = None,
    ) -> FabricDefectMap:
        """Sample this campaign's defect map for one concrete fabric.

        Args:
            ir: The fabric to sample on.
            bitstream: Optional `config.bitstream.Bitstream`; in
                ``aging`` mode, sites carrying a net additionally age
                by ``cycles`` scaled by that net's switching activity.
            activities: Net name -> transition density (from
                `power.activity.estimate_activities`); defaults to
                `DEFAULT_INPUT_ACTIVITY` per routed net.
            actuations: Precomputed per-site actuation counts
                (``aging`` mode only), in `switch_sites` order.  When
                given, ``bitstream``/``activities``/``cycles``/
                ``reconfigurations`` are ignored for wear accounting:
                the caller owns the accumulator.  The mission
                simulator uses this to accumulate wear incrementally
                across epochs; because the underlying uniform draw is
                fixed by ``(seed, fabric key)``, monotonically growing
                actuations produce monotonically nested fault sets.
            _sites: ``switch_sites(ir)``, when the caller already holds
                it (the mission simulator does, once per fabric);
                None recomputes it.
        """
        key = fabric_key_of(ir)
        with get_tracer().span(
            "faults.campaign", mode=self.mode, seed=self.seed
        ) as span:
            sites = switch_sites(ir) if _sites is None else _sites
            if actuations is not None:
                if self.mode != "aging":
                    raise ValueError(
                        "precomputed actuations only apply to aging mode, "
                        f"not {self.mode!r}")
                actuations = np.asarray(actuations, dtype=float)
                if actuations.shape != (len(sites),):
                    raise ValueError(
                        f"actuations shape {actuations.shape} != "
                        f"({len(sites)},) — one count per switch site")
                if len(sites) and float(actuations.min()) < 0:
                    raise ValueError("actuations must be >= 0")
            rng = np.random.default_rng(_seed_sequence(self.seed, key))
            if self.mode == "uniform":
                open_mask, closed_mask = self._sample_uniform(rng, len(sites))
            elif self.mode == "variation":
                open_mask, closed_mask = self._sample_variation(rng, len(sites))
            else:
                if actuations is None:
                    actuations = site_actuations(
                        sites, bitstream, activities,
                        cycles=self.cycles,
                        reconfigurations=self.reconfigurations)
                open_mask = self._sample_aging(rng, sites, actuations)
                closed_mask = np.zeros(len(sites), dtype=bool)
            defect_map = FabricDefectMap(
                fabric_key=key,
                num_nodes=ir.num_nodes,
                stuck_open_switches=tuple(
                    map(tuple, sites[open_mask].tolist())),
                stuck_closed_switches=tuple(
                    map(tuple, sites[closed_mask].tolist())),
                source="campaign",
            )
            span.set_many(
                sites=len(sites),
                stuck_open=int(open_mask.sum()),
                stuck_closed=int(closed_mask.sum()),
                digest=defect_map.digest[:12],
            )
            registry = get_registry()
            registry.counter("faults.campaigns").inc()
            registry.counter("faults.stuck_open").inc(int(open_mask.sum()))
            registry.counter("faults.stuck_closed").inc(int(closed_mask.sum()))
            return defect_map

    # -- mode samplers -------------------------------------------------

    def _sample_uniform(
        self, rng: np.random.Generator, n_sites: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        draw = rng.random(n_sites)
        open_mask = draw < self.stuck_open_rate
        closed_mask = (~open_mask) & (
            draw < self.stuck_open_rate + self.stuck_closed_rate)
        return open_mask, closed_mask

    def _sample_variation(
        self, rng: np.random.Generator, n_sites: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Fault rates from the Vpi/Vpo variation tails (paper Fig. 6).

        A relay population is Monte-Carlo'd at ``sigma_scale`` times
        the Fig. 6 process spread and the *nominal-population*
        programming voltages are applied to it: devices in the upper
        Vpi tail never pull in at full-select (stuck-open); devices
        whose Vpo rose past Vhold, or whose Vpi fell below the
        half-select level, latch closed (stiction / half-select upset).
        """
        from ..nemrelay import (
            AIR, FIG6_VARIATION_SPEC, POLYSILICON, SCALED_22NM_DEVICE,
        )
        from ..nemrelay.variation import VariationSpec, sample_population
        from ..crossbar.halfselect import solve_voltages

        base = FIG6_VARIATION_SPEC
        spec = VariationSpec(
            sigma_length=base.sigma_length * self.sigma_scale,
            sigma_thickness=base.sigma_thickness * self.sigma_scale,
            sigma_gap=base.sigma_gap * self.sigma_scale,
            sigma_contact_gap=base.sigma_contact_gap * self.sigma_scale,
            sigma_adhesion=base.sigma_adhesion * self.sigma_scale,
            mean_adhesion=base.mean_adhesion,
        )
        nominal = sample_population(
            POLYSILICON, SCALED_22NM_DEVICE, AIR,
            count=self.population, spec=base, seed=self.seed,
        )
        voltages = solve_voltages(
            list(nominal.vpi), list(nominal.vpo))
        scaled = sample_population(
            POLYSILICON, SCALED_22NM_DEVICE, AIR,
            count=self.population, spec=spec, seed=self.seed + 1,
        )
        if voltages is None:
            # Nominal process already infeasible: every site fails to
            # program deterministically one way or the other.
            p_open, p_closed = 1.0, 0.0
        else:
            vpi, vpo = scaled.vpi, scaled.vpo
            p_open = float(np.mean(vpi >= voltages.full_select))
            p_closed = float(np.mean(
                (vpo >= voltages.v_hold) | (vpi <= voltages.half_select)))
            p_closed = min(p_closed, 1.0 - p_open)
        draw = rng.random(n_sites)
        open_mask = draw < p_open
        closed_mask = (~open_mask) & (draw < p_open + p_closed)
        return open_mask, closed_mask

    def _sample_aging(
        self,
        rng: np.random.Generator,
        sites: np.ndarray,
        actuations: np.ndarray,
    ) -> np.ndarray:
        """Weibull wear-out from per-site actuation counts."""
        from ..nemrelay.reliability import WeibullEndurance

        endurance = WeibullEndurance(eta=self.eta, beta=self.beta)
        # Most sites share the baseline count; evaluate the Weibull CDF
        # once per distinct value rather than per site.
        unique, inverse = np.unique(actuations, return_inverse=True)
        p_unique = np.array(
            [endurance.failure_probability(float(a)) for a in unique])
        p_fail = p_unique[inverse]
        return rng.random(len(sites)) < p_fail

    # -- serialisation -------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, doc: Dict[str, object]) -> "FaultCampaign":
        return cls(**{
            f.name: doc[f.name]
            for f in dataclasses.fields(cls) if f.name in doc
        })
