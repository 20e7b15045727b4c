"""The benchmark's three workloads: inputs, operations and output checks.

Each workload is a fixed list of operations made from the seed.  One
pass runs every operation once; `run.py` times the passes.  An
operation calls the layers only through a `layers.Layers` table, and
its `check` decides whether the outputs are correct, with code that
does not share the logic that produced them where that is possible.

* ``headline`` -- the paper's Fig. 12 path: pack, place, route at
  W=64, the buffer-removal sweep, bitstream extraction and relay
  programming, one operation per circuit.
* ``wmin`` -- the paper's channel-width derivation (Sec. 3.3): pack,
  place, binary-search Wmin, route at the low-stress width, one
  operation per (circuit, placement seed).
* ``mission`` -- lifetime wear, BIST and incremental self-repair over
  one routed design; one operation per (policy, campaign seed).
"""

from __future__ import annotations

import math
import statistics
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.arch import ArchParams
from repro.config import verify_bitstream_connectivity
from repro.core import headline_summary
from repro.faults import MissionSpec
from repro.fabric import as_fabric
from repro.netlist import ALTERA4_PARAMS, MCNC20_PARAMS, generate
from repro.vpr import FlowResult, build_route_nets, low_stress_width, run_flow

#: The evaluation channel width of the scaled workloads (the scaled
#: counterpart of the paper's W = 118).
ARCH = ArchParams(channel_width=64)

#: Metrics each workload reports to the reader only (stderr); they are
#: not in every workload, so they are not in the JSON result.
Qor = Dict[str, Tuple[float, str]]


def routing_problems(routing, graph, placement) -> List[str]:
    """Why ``routing`` is not a legal routing of ``placement``, if it is not.

    Independent of the router: every net is present, each sink walks up
    real fabric edges to the net's SOURCE, and no node carries more nets
    than its capacity.
    """
    ir = as_fabric(graph)
    offsets, targets = ir.edge_offsets, ir.edge_targets
    capacity = ir.capacities
    use: Dict[int, int] = {}
    problems: List[str] = []
    for net in build_route_nets(placement):
        tree = routing.trees.get(net.name)
        if tree is None:
            problems.append(f"net {net.name} missing")
            continue
        if len(set(tree.sink_nodes)) != len(net.sink_tiles):
            problems.append(f"net {net.name} reaches {len(tree.sink_nodes)} "
                            f"of {len(net.sink_tiles)} sinks")
        for sink in tree.sink_nodes:
            node, hops = sink, 0
            while tree.parent[node] >= 0:
                up = tree.parent[node]
                row = targets[offsets[up]:offsets[up + 1]]
                if node not in row:
                    problems.append(f"net {net.name} uses a missing edge "
                                    f"{up}->{node}")
                    break
                node, hops = up, hops + 1
                if hops > len(tree.nodes):
                    problems.append(f"net {net.name} has a cycle")
                    break
        for node in set(tree.nodes):
            use[node] = use.get(node, 0) + 1
    over = sum(1 for node, n in use.items() if n > capacity[node])
    if over:
        problems.append(f"{over} nodes over capacity")
    return problems


class _Circuits:
    """One operation per generated circuit, all placed with the seed."""

    params: Sequence = ()
    scale = 1.0

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.netlists: Dict[str, object] = {}

    def setup(self) -> Dict[str, float]:
        t0 = time.perf_counter()
        for p in self.params:
            self.netlists[p.name] = generate(p.scaled(self.scale))
        return {"netlist.generate_s": time.perf_counter() - t0}

    @property
    def items(self) -> List[str]:
        return [p.name for p in self.params]


class Headline(_Circuits):
    """altera4 plus the first six MCNC20 circuits, scale 0.02, W=64."""

    name = "headline"
    params = list(ALTERA4_PARAMS) + list(MCNC20_PARAMS[:6])
    scale = 0.02

    def op(self, layers, item: str):
        netlist = self.netlists[item]
        clustered = layers.pack(netlist, ARCH)
        placement = layers.place(clustered, seed=self.seed)
        routing, graph = layers.route_design(placement, ARCH)
        flow = FlowResult(netlist, clustered, placement, routing, graph,
                          ARCH.channel_width)
        curve = layers.sweep_circuit(flow, ARCH)
        bitstream = layers.extract_bitstream(routing, graph)
        report = layers.program_fabric(bitstream)
        return flow, curve, bitstream, report

    def check(self, item: str, out) -> Optional[str]:
        flow, _curve, bitstream, report = out
        if not flow.routing.success:
            return "routing failed at W=64"
        if not verify_bitstream_connectivity(bitstream, flow.routing,
                                             flow.graph):
            return "bitstream does not reconstruct every net"
        if report.failures:
            return f"{len(report.failures)} tiles failed crossbar readback"
        return None

    def fingerprint(self, out):
        flow, curve, bitstream, report = out
        return (flow.routing.wirelength, flow.routing.iterations,
                curve.baseline.critical_path, bitstream.total_switches,
                report.relays_closed)

    def counts(self, out) -> Dict[str, float]:
        flow, _curve, _bitstream, report = out
        return {"place.temp_steps": len(flow.placement.trajectory),
                "crossbar.relays_closed": report.relays_closed}

    def qor(self, outs: Sequence) -> Tuple[float, Qor]:
        curves = [out[1] for out in outs]
        summary = headline_summary(curves)
        corner = summary.corner
        crit = math.exp(statistics.fmean(
            math.log(c.baseline.critical_path) for c in curves))
        wirelength = sum(out[0].routing.wirelength for out in outs)
        return wirelength, {
            "crit_path_ns": (crit * 1e9, "ns"),
            "leak_x": (corner.leakage_reduction, "x"),
            "dyn_x": (corner.dynamic_reduction, "x"),
            "area_x": (corner.area_reduction, "x"),
            "speedup_x": (corner.speedup, "x"),
        }


class Wmin(_Circuits):
    """The twelve MCNC20 circuits of under 2000 LUTs, at scale 0.03, each
    placed with two seeds: Wmin, then route at the low-stress width."""

    name = "wmin"
    # The search's cost moves with the placement, so a pass sums many
    # small operations: one large circuit (clma) made half of an earlier
    # pass and doubled its time under some seeds.
    params = [p for p in MCNC20_PARAMS if p.num_luts < 2000]
    scale = 0.03
    placements = 2

    @property
    def items(self) -> List[Tuple[str, int]]:
        seeds = range(self.seed * self.placements,
                      (self.seed + 1) * self.placements)
        return [(p.name, s) for s in seeds for p in self.params]

    def op(self, layers, item: Tuple[str, int]):
        circuit, placement_seed = item
        clustered = layers.pack(self.netlists[circuit], ARCH)
        placement = layers.place(clustered, seed=placement_seed)
        wmin, routing, graph = layers.find_min_channel_width(placement, ARCH)
        final, _ = layers.route_design(placement, ARCH,
                                       channel_width=low_stress_width(wmin))
        return placement, wmin, routing, graph, final

    def check(self, item, out) -> Optional[str]:
        # An unroutable probe is part of the search, not a failure; the
        # search's answer is what must hold.
        placement, wmin, routing, graph, _final = out
        if graph.params.channel_width != wmin:
            return f"Wmin routing is on W={graph.params.channel_width}, not {wmin}"
        if not routing.success:
            return f"routing at the returned Wmin={wmin} failed"
        problems = routing_problems(routing, graph, placement)
        return "; ".join(problems[:3]) if problems else None

    def fingerprint(self, out):
        _placement, wmin, routing, _graph, final = out
        return (wmin, routing.wirelength, final.success, final.wirelength)

    def counts(self, out) -> Dict[str, float]:
        placement, _wmin, _routing, _graph, final = out
        return {"place.temp_steps": len(placement.trajectory),
                "route.lowstress_fails": int(not final.success)}

    def qor(self, outs: Sequence) -> Tuple[float, Qor]:
        wirelength = sum(out[2].wirelength for out in outs)
        return wirelength, {
            "wmin": (statistics.fmean(out[1] for out in outs), "tracks")}


class Mission:
    """tseng at scale 0.2, W=64: one lifetime mission per (policy,
    campaign seed), 8 epochs over 40 device-years."""

    name = "mission"
    policies = ("on-failure", "every-epoch-bist", "widen-early")
    campaigns = 4

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.flow: Optional[FlowResult] = None

    def setup(self) -> Dict[str, float]:
        t0 = time.perf_counter()
        netlist = generate(next(
            p for p in MCNC20_PARAMS if p.name == "tseng").scaled(0.2))
        t1 = time.perf_counter()
        self.flow = run_flow(netlist, ARCH, seed=self.seed)
        if not self.flow.success:
            raise RuntimeError("clean tseng flow failed to route at W=64")
        return {"netlist.generate_s": t1 - t0,
                "setup.flow_s": time.perf_counter() - t1}

    @property
    def items(self) -> List[Tuple[str, int]]:
        seeds = range(self.seed * self.campaigns,
                      (self.seed + 1) * self.campaigns)
        return [(policy, s) for s in seeds for policy in self.policies]

    def spec(self, item: Tuple[str, int]) -> MissionSpec:
        policy, campaign_seed = item
        return MissionSpec(epochs=8, years=40.0, policy=policy, campaigns=1,
                           base_seed=campaign_seed)

    def op(self, layers, item):
        return layers.simulate_mission(self.flow, self.spec(item))

    def check(self, item, result) -> Optional[str]:
        # A failed repair is a yield outcome; the record count must match it.
        spec = self.spec(item)
        if len(result.trajectories) != 1:
            return f"{len(result.trajectories)} trajectories, expected 1"
        traj = result.trajectories[0]
        expected = spec.epochs if traj.failed_epoch is None else traj.failed_epoch
        epochs = [r.epoch for r in traj.records]
        if epochs != list(range(1, expected + 1)):
            return f"epoch records {epochs}, expected 1..{expected}"
        return None

    def fingerprint(self, result):
        return result.digest

    def counts(self, result) -> Dict[str, float]:
        return {}

    def qor(self, outs: Sequence) -> Tuple[float, Qor]:
        final_wl = [r.trajectories[0].records[-1].wirelength for r in outs]
        yields = [r.degradation_curve()[-1]["yield"] for r in outs]
        return statistics.fmean(final_wl), {
            "yield_final": (statistics.fmean(yields), "frac")}


WORKLOADS = {w.name: w for w in (Headline, Wmin, Mission)}
