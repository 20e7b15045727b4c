"""The reference PathFinder walk: the oracle the route kernels are pinned to.

`PythonKernel` is the original pure-Python walk `repro.vpr.route_kernels`
was ported from, kept here as the reference implementation of the
differential harness (`test_route_kernels.py`, `test_route.py`) and
the baseline arm of `benchmarks/bench_route_kernel.py`.  Nothing in
`src/` imports it; pass the class itself as ``PathFinderRouter(kernel=
PythonKernel)`` (or through ``route_design`` /
``find_min_channel_width``) to route with it.
"""

from __future__ import annotations

import heapq
import random
import zlib
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from repro.vpr.route import RouteTree
from repro.vpr.route_kernels import RouteKernel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.fabric import FabricIR
    from repro.vpr.route import RouteNet


class PythonKernel(RouteKernel):
    """The original pure-Python walk — the reference kernel.

    Kept verbatim (modulo the heap-op counters, and reading its inputs
    from the kernel rather than the router) as the semantics
    oracle: the differential harness asserts the other kernels against
    this implementation, never the other way round.
    """

    name = "python"

    def __init__(self, ir: "FabricIR", **costs) -> None:
        super().__init__(ir, **costs)
        n = ir.num_nodes
        self._jitter = self._jitter.tolist()
        self._base = ir.base_costs.tolist()
        self._cap = ir.capacities.tolist()
        self._occ = [0] * n
        self._hist = [0.0] * n
        self._static = list(self._base)
        self._is_sink = ir.sink_flags
        self._is_source = ir.source_flags
        self._edge_offsets = ir.csr_offsets()
        self._edge_targets = ir.csr_targets()
        # Wire midpoints / pin tiles for the A* lookahead.
        self._pos = ir.positions
        # Search scratch arrays reused across nets (epoch-stamped).
        self._dist = [0.0] * n
        self._came = [0] * n
        self._stamp = [0] * n
        self._epoch = 0
        self._RouteTree = RouteTree

    def refresh_static(self) -> None:
        self._static = [b + h for b, h in zip(self._base, self._hist)]

    def occupy(self, nodes: List[int], delta: int) -> None:
        occ = self._occ
        for node in nodes:
            occ[node] += delta

    def pin(self, nodes) -> None:
        occ = self._occ
        for node in nodes.tolist():
            occ[node] += 1

    def overused(self) -> List[int]:
        cap = self._cap
        return [i for i, occ in enumerate(self._occ) if occ > cap[i]]

    def add_history(self, nodes: List[int], hist_fac: float) -> None:
        occ, cap, hist = self._occ, self._cap, self._hist
        for node in nodes:
            hist[node] += hist_fac * (occ[node] - cap[node])

    def route_net(
        self,
        net: "RouteNet",
        pres_fac: float,
        bb_margin: float = 3.0,
        sink_shuffle: int = 0,
        criticality: float = 0.0,
    ) -> Optional["RouteTree"]:
        ir = self.fabric
        source = ir.source_of[net.source_tile]
        targets = {ir.sink_of[tile]: tile for tile in net.sink_tiles}
        tree_nodes: List[int] = [source]
        tree_set: Set[int] = {source}
        parent: Dict[int, int] = {source: -1}
        sink_nodes: List[int] = []
        remaining = dict(targets)

        # Net bounding box (+margin) restricts the search, VPR-style.
        xs = [net.source_tile[0]] + [t[0] for t in net.sink_tiles]
        ys = [net.source_tile[1]] + [t[1] for t in net.sink_tiles]
        bb = (min(xs) - bb_margin, max(xs) + bb_margin,
              min(ys) - bb_margin, max(ys) + bb_margin)

        # Local bindings for the hot loop.
        edge_offsets = self._edge_offsets
        edge_targets = self._edge_targets
        blocked = self._blocked
        blocked_edges = self._blocked_edges
        n_enc = ir.num_nodes
        pos = self._pos
        static = self._static
        occ = self._occ
        cap = self._cap
        is_sink = self._is_sink
        is_source = self._is_source
        astar_per_tile = self._astar_fac
        dist = self._dist
        came = self._came
        stamp = self._stamp
        heappush, heappop = heapq.heappush, heapq.heappop
        jitter = self._jitter
        self._route_calls += 1
        n_nodes = len(jitter)
        # Stable string hash: Python's hash() is salted per process,
        # which would make routing (and thus Wmin) non-reproducible.
        name_hash = zlib.crc32(net.name.encode())
        salt = (name_hash * 31 + self._route_calls * 7919) % n_nodes
        # Timing-driven blend (VPR): crit * delay + (1 - crit) * cong.
        delay_costs = self._delay_costs
        crit = min(max(criticality, 0.0), 0.99) if delay_costs is not None else 0.0
        cong_weight = 1.0 - crit

        # Optional sink-order shuffle: the default nearest-first order
        # can commit the tree trunk so the last sink is boxed into one
        # conflicted IPIN; a reshuffled order escapes such wedges.
        shuffled_order: List[int] = []
        if sink_shuffle:
            rng = random.Random(sink_shuffle)
            shuffled_order = sorted(targets)
            rng.shuffle(shuffled_order)

        pops_total = 0
        pushes_total = 0
        while remaining:
            self._epoch += 1
            epoch = self._epoch
            if shuffled_order:
                target_sink = next(s for s in shuffled_order if s in remaining)
            else:
                target_sink = min(
                    remaining,
                    key=lambda s: abs(pos[s][0] - pos[source][0])
                    + abs(pos[s][1] - pos[source][1]),
                )
            tx, ty = pos[target_sink]
            heap: List[Tuple[float, float, int]] = []
            for node in tree_nodes:
                # Once the first sink is routed, the SOURCE stops being
                # a seed: otherwise later sinks branch at the source and
                # the net consumes several OPINs, oversubscribing the
                # LB's N output pins.
                if node == source and len(tree_nodes) > 1:
                    continue
                dist[node] = 0.0
                stamp[node] = epoch
                nx, ny = pos[node]
                heappush(heap, (astar_per_tile * (abs(nx - tx) + abs(ny - ty)), 0.0, node))
            found = False
            pops = 0
            bb_x0, bb_x1, bb_y0, bb_y1 = bb
            while heap:
                pops += 1
                _f, g, u = heappop(heap)
                if stamp[u] == epoch and g > dist[u]:
                    continue
                if u == target_sink:
                    found = True
                    break
                u_base = u * n_enc if blocked_edges else 0
                # CSR neighbor expansion: one contiguous slice per pop.
                for v in edge_targets[edge_offsets[u]:edge_offsets[u + 1]]:
                    if v in tree_set:
                        continue
                    if blocked and v in blocked:
                        continue
                    if blocked_edges and u_base + v in blocked_edges:
                        continue
                    if is_sink[v]:
                        if v != target_sink:
                            continue
                    elif is_source[v]:
                        continue
                    vx, vy = pos[v]
                    if not (bb_x0 <= vx <= bb_x1 and bb_y0 <= vy <= bb_y1):
                        continue
                    c = static[v] * jitter[v - salt]
                    over = occ[v] + 1 - cap[v]
                    if over > 0:
                        c *= 1.0 + pres_fac * over
                    if crit > 0.0:
                        c = cong_weight * c + crit * delay_costs[v]
                    ng = g + c
                    if stamp[v] != epoch or ng < dist[v]:
                        dist[v] = ng
                        stamp[v] = epoch
                        came[v] = u
                        heappush(heap, (ng + astar_per_tile * (abs(vx - tx) + abs(vy - ty)), ng, v))
            pops_total += pops
            pushes_total += pops + len(heap)
            if not found:
                self.heap_pops += pops_total
                self.heap_pushes += pushes_total
                return None
            # Trace back, splice into tree.
            path: List[int] = []
            node = target_sink
            while node not in tree_set:
                path.append(node)
                node = came[node]
            for step in reversed(path):
                parent[step] = node
                tree_set.add(step)
                tree_nodes.append(step)
                node = step
            sink_nodes.append(target_sink)
            del remaining[target_sink]
        self.heap_pops += pops_total
        self.heap_pushes += pushes_total
        return self._RouteTree(nodes=tree_nodes, parent=parent, sink_nodes=sink_nodes)
