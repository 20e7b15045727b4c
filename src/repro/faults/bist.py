"""Fabric-level built-in self-test.

Generalises the crossbar two-pattern BIST (`crossbar.bist.run_bist`)
from one array to a whole `FabricIR`: program every switch site,
observe which conduct (misses are stuck-open); erase everything,
observe which still conduct (survivors are stuck-closed).  The output
is the same `FabricDefectMap` a `FaultCampaign` produces — with the
same digest for the same fault set, because `source` is excluded from
the hash — so detection and injection close the loop:

    campaign.for_fabric(ir).digest == run_fabric_bist(ir, truth).digest

Two observation backends:

* **fast** (default): the two patterns evaluated directly on the
  site arrays, as vector set tests (`np.isin`) of the encoded site ids
  ``lo * num_nodes + hi`` against the truth map's faulty switches.
  Under pattern A (all programmed) a site conducts iff its relay is
  not stuck-open and neither endpoint wire is dead; under pattern B
  (erased) it conducts iff stuck-closed.  A node-level fault
  manifests as *every* incident site reading open, which is exactly
  how the localiser classifies it back.
* **electrical** (``electrical=True``): sites are grouped per owning
  tile, laid out as real `RelayCrossbar` arrays with `FaultyRelay`
  devices injected from the truth map, and each array runs the actual
  half-select `run_bist` — terminal behaviour only.  Quadratic in
  array size; meant for small fabrics to validate the fast path
  against physical programming, not for production sweeps.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..fabric import FabricIR
from ..obs import get_registry, get_tracer
from .campaign import switch_sites
from .defects import FabricDefectMap, fabric_key_of

Site = Tuple[int, int]


def _classify(
    sites: np.ndarray,
    conducts_programmed: np.ndarray,
    conducts_erased: np.ndarray,
    num_nodes: int,
) -> FabricDefectMap:
    """Turn two observed patterns into a defect map.

    A node whose *every* incident site failed to conduct under the
    programmed pattern is reported as a dead node (and its sites are
    then not double-reported as individual stuck-opens, matching how
    campaigns encode node faults).
    """
    open_sites = ~conducts_programmed & ~conducts_erased
    closed_sites = conducts_erased

    incident = np.zeros(num_nodes, dtype=np.int64)
    open_incident = np.zeros(num_nodes, dtype=np.int64)
    for axis in (0, 1):
        np.add.at(incident, sites[:, axis], 1)
        np.add.at(open_incident, sites[:, axis], open_sites.astype(np.int64))
    dead_nodes = (incident > 0) & (open_incident == incident)

    site_has_dead_end = dead_nodes[sites[:, 0]] | dead_nodes[sites[:, 1]]
    switch_open = open_sites & ~site_has_dead_end
    return FabricDefectMap(
        fabric_key="",  # caller fills
        num_nodes=num_nodes,
        stuck_open_nodes=tuple(np.flatnonzero(dead_nodes).tolist()),
        stuck_open_switches=tuple(map(tuple, sites[switch_open].tolist())),
        stuck_closed_switches=tuple(map(tuple, sites[closed_sites].tolist())),
        source="bist",
    )


def _observe_fast(
    sites: np.ndarray, truth: FabricDefectMap
) -> Tuple[np.ndarray, np.ndarray]:
    """Evaluate both test patterns analytically on the site arrays.

    Sites and the truth map's switch faults meet as encoded ids
    ``lo * num_nodes + hi``; a site listed both stuck-open and
    stuck-closed reads stuck-open.
    """
    n = np.int64(truth.num_nodes)
    site_ids = sites[:, 0].astype(np.int64) * n + sites[:, 1]

    def encoded(switches: Tuple[Site, ...]) -> np.ndarray:
        pairs = np.array(switches, dtype=np.int64).reshape(-1, 2)
        return pairs[:, 0] * n + pairs[:, 1]

    stuck_open = np.isin(site_ids, encoded(truth.stuck_open_switches))
    stuck_closed = np.isin(
        site_ids, encoded(truth.stuck_closed_switches)) & ~stuck_open
    dead = np.zeros(truth.num_nodes, dtype=bool)
    if truth.stuck_open_nodes:
        dead[list(truth.stuck_open_nodes)] = True
    endpoint_dead = dead[sites[:, 0]] | dead[sites[:, 1]]
    conducts_programmed = ~stuck_open & ~endpoint_dead
    conducts_erased = stuck_closed
    return conducts_programmed, conducts_erased


def _observe_electrical(
    ir: FabricIR, sites: np.ndarray, truth: FabricDefectMap, max_rows: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Run the real crossbar BIST per tile group.

    Sites are attributed to the tile of their lower-id node and packed
    row-major into arrays of at most ``max_rows`` rows; each array gets
    `FaultyRelay` devices injected at the crosspoints the truth map
    marks faulty (a dead node faults every incident site), then the
    half-select two-pattern `run_bist` reads them back electrically.
    """
    from ..config.bitstream import _owning_tiles
    from ..crossbar.bist import StuckMode, faulty_crossbar, run_bist
    from ..crossbar.halfselect import solve_voltages
    from ..nemrelay import AIR, POLYSILICON, SCALED_22NM_DEVICE
    from ..nemrelay.electrostatics import ActuationModel

    model = ActuationModel(POLYSILICON, SCALED_22NM_DEVICE, AIR)
    voltages = solve_voltages([model.pull_in], [model.pull_out])
    if voltages is None:  # pragma: no cover - nominal device is feasible
        raise RuntimeError("nominal device has no valid programming window")

    open_set = set(truth.stuck_open_switches)
    closed_set = set(truth.stuck_closed_switches)
    dead = set(truth.stuck_open_nodes)

    groups: Dict[Tuple[int, int], List[int]] = {}
    site_list = [tuple(s) for s in sites.tolist()]
    tx, ty = _owning_tiles(ir, sites[:, 0], sites[:, 1])
    for i, tile in enumerate(zip(tx.tolist(), ty.tolist())):
        groups.setdefault(tile, []).append(i)

    conducts_programmed = np.zeros(len(sites), dtype=bool)
    conducts_erased = np.zeros(len(sites), dtype=bool)
    for tile in sorted(groups):
        members = groups[tile]
        rows = min(max_rows, len(members))
        cols = -(-len(members) // rows)
        faults: Dict[Tuple[int, int], StuckMode] = {}
        coord_of: Dict[int, Tuple[int, int]] = {}
        for j, idx in enumerate(members):
            coord = (j % rows, j // rows)
            coord_of[idx] = coord
            lo, hi = site_list[idx]
            if (lo, hi) in closed_set:
                faults[coord] = StuckMode.STUCK_CLOSED
            elif (lo, hi) in open_set or lo in dead or hi in dead:
                faults[coord] = StuckMode.STUCK_OPEN
        # Padding crosspoints (beyond len(members)) are healthy relays;
        # they program and erase cleanly and are ignored on read-back.
        outcome = run_bist(faulty_crossbar(rows, cols, model, faults), voltages)
        for idx in members:
            coord = coord_of[idx]
            conducts_programmed[idx] = coord not in outcome.stuck_open
            conducts_erased[idx] = coord in outcome.stuck_closed
    return conducts_programmed, conducts_erased


def run_fabric_bist(
    ir: FabricIR,
    truth: FabricDefectMap,
    electrical: bool = False,
    max_rows: int = 32,
    _sites: Optional[np.ndarray] = None,
) -> FabricDefectMap:
    """Locate the faults of ``truth`` by testing, not by peeking.

    Args:
        ir: Fabric under test.
        truth: The physical fault state (what a campaign injected).
            The BIST only observes conduction patterns derived from
            it — the returned map is *reconstructed*, and equals the
            truth map's digest when the reconstruction is exact.
        electrical: Use the per-tile `RelayCrossbar` half-select
            backend instead of the analytic pattern evaluation.
        max_rows: Electrical backend array height limit.
        _sites: ``switch_sites(ir)``, when the caller already holds
            it; None recomputes it.
    """
    truth.validate_against(ir)
    with get_tracer().span(
        "faults.bist", electrical=electrical, faults=truth.total
    ) as span:
        sites = switch_sites(ir) if _sites is None else _sites
        if electrical:
            programmed, erased = _observe_electrical(ir, sites, truth, max_rows)
        else:
            programmed, erased = _observe_fast(sites, truth)
        located = _classify(sites, programmed, erased, ir.num_nodes)
        located = FabricDefectMap(
            fabric_key=fabric_key_of(ir),
            num_nodes=located.num_nodes,
            stuck_open_nodes=located.stuck_open_nodes,
            stuck_open_switches=located.stuck_open_switches,
            stuck_closed_switches=located.stuck_closed_switches,
            source="bist",
        )
        span.set_many(
            sites=len(sites),
            located=located.total,
            digest=located.digest[:12],
            matches_truth=located.digest == truth.digest,
        )
        get_registry().counter("faults.bist_runs").inc()
        return located
