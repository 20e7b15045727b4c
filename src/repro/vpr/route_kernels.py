"""Pluggable PathFinder expansion kernels (reference / numpy / numba).

`PathFinderRouter` delegates its inner loop — per-net cost evaluation,
neighbour expansion, the A* heap walk — to one of three interchangeable
kernels:

* ``python`` — the original pure-Python walk, kept verbatim as the
  *reference kernel* the differential harness pins the others against;
* ``numpy``  — vectorised cost evaluation over FabricIR's CSR arrays
  feeding a tight scalar heap walk (this module);
* ``numba``  — the same array state driving an ``@njit``-compiled
  search (`repro.vpr.route_numba`), auto-selected when numba imports.

Determinism contract
--------------------
Kernel selection must never change results, only speed.  All kernels
produce bit-identical `RoutingResult`s — same route trees, same
iteration/convergence trace, same failures — so Wmin, artefact digests
and the result store's cache keys are byte-identical across kernels
(which is also why the kernel name is *not* part of job identity).
The invariants that make this provable rather than hopeful:

* the heap key ``(f, g, node)`` is a unique total order over live
  entries (re-pushes of a node carry strictly smaller ``g``), so any
  correct min-heap pops the identical sequence;
* per-net cost vectors are built with the reference's exact IEEE-754
  float64 operations in the reference's order (elementwise numpy ops
  run the same machine arithmetic; ``x * 1.0`` preserves bits, which
  folds the reference's ``if over > 0`` branch into `np.maximum`);
* the jitter table, crc32 name-hash salt, stable CSR edge order,
  bounding-box rule and sink-shuffle RNG are shared with the
  reference;
* inadmissible nodes (sources, non-target sinks, out-of-box, blocked)
  fold to ``+inf`` cost — a relaxation ``g + inf < dist`` can never
  fire, which is exactly the reference's skip;
* structural prunings (compacting blocked edges out of the CSR,
  dropping wire->IPIN edges into non-target tiles) only remove
  expansions that provably cannot change ``dist``/``came`` along any
  traced path.

``REPRO_ROUTE_KERNEL`` (``python`` / ``numpy`` / ``numba`` / ``auto``)
overrides auto-selection; `tests/vpr/test_route_kernels.py` is the
differential harness that enforces the contract.
"""

from __future__ import annotations

import heapq
import os
import random
import zlib
from array import array
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

import numpy as np

from ..fabric.build import (
    KIND_HWIRE,
    KIND_IPIN,
    KIND_SINK,
    KIND_SOURCE,
    KIND_VWIRE,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .route import PathFinderRouter, RouteNet, RouteTree

INF = float("inf")

#: Selectable kernel names (``auto`` additionally accepted by
#: `resolve_kernel`).
KERNELS = ("python", "numpy", "numba")
#: Environment override consulted when the router gets no explicit
#: ``kernel=`` argument (batch workers inherit it from the parent).
ENV_VAR = "REPRO_ROUTE_KERNEL"
#: Below this node count the numpy kernel's per-net vector setup
#: outweighs the walk it saves; ``auto`` stays on the reference.
NUMPY_MIN_NODES = 4096
#: Byte budget for the per-target-sink A* heuristic cache (each entry
#: is one float64 per node).  Fill-up-to-cap, no eviction: PathFinder
#: revisits the same sinks cyclically, which would thrash an LRU.
H_CACHE_BYTES = 64 * 1024 * 1024
#: Entry cap for the per-bounding-box admissibility mask cache.
BB_CACHE_ENTRIES = 4096


def numba_available() -> bool:
    """True when ``import numba`` succeeds (absence is simulated in
    tests via ``monkeypatch.setitem(sys.modules, "numba", None)``,
    which makes the import raise)."""
    try:
        import numba  # noqa: F401
    except Exception:
        return False
    return True


def resolve_kernel(kernel: Optional[str], num_nodes: int) -> str:
    """Pick the kernel to run: explicit arg > ``REPRO_ROUTE_KERNEL``
    env > ``auto``.

    ``auto`` prefers numba when importable, numpy on graphs of at
    least `NUMPY_MIN_NODES` nodes, and the reference kernel otherwise.
    Unknown names raise `ValueError`; asking for ``numba`` explicitly
    when it is not importable raises `RuntimeError` (auto never does —
    it just falls back).
    """
    requested = kernel if kernel is not None else os.environ.get(ENV_VAR) or "auto"
    if requested not in KERNELS + ("auto",):
        raise ValueError(
            f"unknown route kernel {requested!r}; expected one of "
            f"{', '.join(KERNELS + ('auto',))}")
    if requested == "numba" and not numba_available():
        raise RuntimeError(
            "route kernel 'numba' requested but numba is not importable; "
            "use kernel='auto' to fall back automatically")
    if requested != "auto":
        return requested
    if numba_available():
        return "numba"
    return "numpy" if num_nodes >= NUMPY_MIN_NODES else "python"


def make_kernel(name: str, router: "PathFinderRouter") -> "RouteKernel":
    """Instantiate the named kernel bound to ``router``."""
    if name == "python":
        return PythonKernel(router)
    if name == "numpy":
        return NumpyKernel(router)
    if name == "numba":
        from .route_numba import NumbaKernel

        return NumbaKernel(router)
    raise ValueError(f"unknown route kernel {name!r}")


def _no_extra(_u: int) -> None:
    return None


class RouteKernel:
    """Interface between `PathFinderRouter` and an expansion kernel.

    A kernel owns the router's mutable per-node state (occupancy,
    history, static costs) and implements the sink-by-sink expansion
    search; the router keeps the negotiation schedule, net ordering
    and escalation logic.  Everything observable through this
    interface must be bit-identical across kernels — the differential
    harness enforces it — except the `heap_pops` / `heap_pushes`
    telemetry counters, which may legitimately differ because the
    array kernels prune expansions the reference performs and skips.
    """

    name = "abstract"

    def __init__(self, router: "PathFinderRouter") -> None:
        self._router = router
        #: Monotonic heap-operation telemetry (obs only, never part of
        #: the routing result).
        self.heap_pops = 0
        self.heap_pushes = 0

    def refresh_static(self) -> None:
        """Recompute static = base + history (once per iteration)."""
        raise NotImplementedError

    def occupy(self, nodes: List[int], delta: int) -> None:
        """Add ``delta`` to the occupancy of every node in ``nodes``."""
        raise NotImplementedError

    def overused(self) -> List[int]:
        """Node ids with occupancy above capacity, ascending."""
        raise NotImplementedError

    def add_history(self, nodes: List[int], hist_fac: float) -> None:
        """Accumulate history cost on the (distinct) overused nodes."""
        raise NotImplementedError

    def route_net(
        self,
        net: "RouteNet",
        pres_fac: float,
        bb_margin: float = 3.0,
        sink_shuffle: int = 0,
        criticality: float = 0.0,
    ) -> Optional["RouteTree"]:
        """Grow one net's Steiner tree sink-by-sink; None on failure."""
        raise NotImplementedError


class PythonKernel(RouteKernel):
    """The original pure-Python walk — the reference kernel.

    Kept verbatim (modulo the heap-op counters) as the semantics
    oracle: the differential harness asserts the array kernels against
    this implementation, never the other way round.
    """

    name = "python"

    def __init__(self, router: "PathFinderRouter") -> None:
        super().__init__(router)
        ir = router.fabric
        n = ir.num_nodes
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
        from .route import RouteTree

        self._RouteTree = RouteTree

    def refresh_static(self) -> None:
        self._static = [b + h for b, h in zip(self._base, self._hist)]

    def occupy(self, nodes: List[int], delta: int) -> None:
        occ = self._occ
        for node in nodes:
            occ[node] += delta

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
        router = self._router
        ir = router.fabric
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
        blocked = router._blocked
        blocked_edges = router._blocked_edges
        n_enc = ir.num_nodes
        pos = self._pos
        static = self._static
        occ = self._occ
        cap = self._cap
        is_sink = self._is_sink
        is_source = self._is_source
        astar_per_tile = router.astar_fac
        dist = self._dist
        came = self._came
        stamp = self._stamp
        heappush, heappop = heapq.heappush, heapq.heappop
        jitter = router._jitter
        router._route_calls += 1
        n_nodes = len(jitter)
        # Stable string hash: Python's hash() is salted per process,
        # which would make routing (and thus Wmin) non-reproducible.
        name_hash = zlib.crc32(net.name.encode())
        salt = (name_hash * 31 + router._route_calls * 7919) % n_nodes
        # Timing-driven blend (VPR): crit * delay + (1 - crit) * cong.
        delay_costs = router._delay_costs
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


class _ArrayStateKernel(RouteKernel):
    """Shared numpy state + cost-vector machinery for the array kernels.

    Subclasses choose the CSR form and the heap walk; everything here
    — the occupancy/history columns, the per-net cost vector, the
    cached per-target A* heuristic vectors and bounding-box masks —
    reproduces the reference kernel's IEEE-754 op order exactly.
    """

    def __init__(self, router: "PathFinderRouter",
                 inadmissible_kinds: Tuple[int, ...]) -> None:
        super().__init__(router)
        ir = router.fabric
        n = ir.num_nodes
        cols = ir.router_columns()
        self._base = cols.base
        self._cap = cols.capacity
        self._occ = cols.occupancy
        self._hist = cols.history
        self._static = cols.static
        self._px = ir.pos_x
        self._py = ir.pos_y
        jit = np.asarray(router._jitter, dtype=np.float64)
        # Jitter doubled so the reference's negative-index wrap
        # ``jitter[v - salt]`` becomes one contiguous view
        # ``jitter2[n - salt : 2n - salt]`` (no per-net np.roll copy).
        self._jitter2 = np.concatenate([jit, jit])
        self._n_jitter = len(jit)
        self._inadmissible = ir.nodes_of_kind(*inadmissible_kinds)
        blocked = sorted(router._blocked)
        self._blocked_idx = (
            np.asarray(blocked, dtype=np.int64) if blocked else None)
        self._delay_np = (
            np.asarray(router._delay_costs, dtype=np.float64)
            if router._delay_costs is not None else None)
        self._h_cache: Dict[int, object] = {}
        self._h_entries = max(1, H_CACHE_BYTES // max(8 * n, 8))
        self._bb_cache: Dict[Tuple[float, float, float, float], np.ndarray] = {}
        from .route import RouteTree

        self._RouteTree = RouteTree

    # -- router state -------------------------------------------------------

    def refresh_static(self) -> None:
        np.add(self._base, self._hist, out=self._static)

    def occupy(self, nodes: List[int], delta: int) -> None:
        # Tree nodes are distinct, so fancy-index += applies each once.
        self._occ[np.asarray(nodes, dtype=np.int64)] += delta

    def overused(self) -> List[int]:
        return np.nonzero(self._occ > self._cap)[0].tolist()

    def add_history(self, nodes: List[int], hist_fac: float) -> None:
        idx = np.asarray(nodes, dtype=np.int64)
        self._hist[idx] += hist_fac * (self._occ[idx] - self._cap[idx])

    # -- cost machinery -----------------------------------------------------

    def _cost_vector(self, name: str, pres_fac: float, crit: float,
                     cong_weight: float,
                     bb: Tuple[float, float, float, float]) -> Tuple[np.ndarray, int]:
        """Per-net cost vector in the reference's exact op order, with
        inadmissible nodes folded to ``+inf``.  Also advances the
        router's per-call salt sequence (one bump per route_net call,
        exactly like the reference)."""
        router = self._router
        router._route_calls += 1
        nj = self._n_jitter
        salt = (zlib.crc32(name.encode()) * 31 + router._route_calls * 7919) % nj
        c = self._static * self._jitter2[nj - salt:2 * nj - salt]
        # max(m, 1.0) folds the reference's ``if over > 0`` branch:
        # x * 1.0 is a bitwise identity for every routing cost.
        m = 1.0 + pres_fac * (self._occ + 1 - self._cap)
        np.maximum(m, 1.0, out=m)
        c *= m
        if crit > 0.0:
            c *= cong_weight
            c += crit * self._delay_np
        c[self._bbox_out(bb)] = INF
        c[self._inadmissible] = INF
        if self._blocked_idx is not None:
            c[self._blocked_idx] = INF
        return c, salt

    def _scalar_cost(self, v: int, salt: int, pres_fac: float, crit: float,
                     cong_weight: float) -> float:
        """The reference's scalar cost expression for one node — used
        to patch per-search admissible targets into the cost vector."""
        router = self._router
        cv = float(self._static[v]) * router._jitter[v - salt]
        over = int(self._occ[v]) + 1 - int(self._cap[v])
        if over > 0:
            cv *= 1.0 + pres_fac * over
        if crit > 0.0:
            cv = cong_weight * cv + crit * router._delay_costs[v]
        return cv

    def _next_sink(self, remaining: Dict[int, Tuple[int, int]], source: int,
                   shuffled_order: List[int]) -> int:
        """The reference's sink order: the shuffled order when given,
        else the sink nearest the source (first one on ties)."""
        if shuffled_order:
            return next(s for s in shuffled_order if s in remaining)
        px, py = self._px, self._py
        sx, sy = px[source], py[source]
        return min(remaining, key=lambda s: abs(px[s] - sx) + abs(py[s] - sy))

    def _h_vector(self, t: int) -> np.ndarray:
        """A* lookahead vector towards target ``t`` (reference op
        order: scale applied after the Manhattan sum)."""
        tx, ty = self._px[t], self._py[t]
        return self._router.astar_fac * (np.abs(self._px - tx) + np.abs(self._py - ty))

    def _wrap_vector(self, vec: np.ndarray):
        """Hook: final in-memory form of a cached heuristic vector."""
        return vec

    def _heuristic(self, t: int):
        h = self._h_cache.get(t)
        if h is None:
            h = self._wrap_vector(self._h_vector(t))
            if len(self._h_cache) < self._h_entries:
                self._h_cache[t] = h
        return h

    def _bbox_out(self, bb: Tuple[float, float, float, float]) -> np.ndarray:
        mask = self._bb_cache.get(bb)
        if mask is None:
            x0, x1, y0, y1 = bb
            mask = (self._px < x0) | (self._px > x1) | (self._py < y0) | (self._py > y1)
            if len(self._bb_cache) < BB_CACHE_ENTRIES:
                self._bb_cache[bb] = mask
        return mask


class NumpyKernel(_ArrayStateKernel):
    """Vectorised cost build + reduced-CSR scalar heap walk.

    Structure: blocked edges are compacted out of the CSR once, and
    wire->IPIN edges are dropped — IPINs are only ever *entered* on
    the target tile, so those in-edges are re-attached per search from
    a precomputed per-tile table.  All sinks, sources and IPINs fold
    to ``+inf`` in the cost vector; each search patches the target
    sink and the target tile's IPINs admissible with the reference's
    scalar cost expression and restores them afterwards.
    """

    name = "numpy"

    def __init__(self, router: "PathFinderRouter") -> None:
        super().__init__(router, (KIND_SINK, KIND_SOURCE, KIND_IPIN))
        ir = router.fabric
        n = ir.num_nodes
        off = ir.edge_offsets
        tgt = ir.edge_targets
        kind = ir.kind
        src = np.repeat(np.arange(n, dtype=np.int64), np.diff(off))
        wire = (kind == KIND_HWIRE) | (kind == KIND_VWIRE)
        if len(tgt):
            to_ipin = wire[src] & (kind[tgt] == KIND_IPIN)
        else:
            to_ipin = np.zeros(0, dtype=bool)
        if router._blocked_edges:
            enc = src * n + tgt
            edge_ok = ~np.isin(enc, np.fromiter(
                router._blocked_edges, dtype=np.int64,
                count=len(router._blocked_edges)))
        else:
            edge_ok = None
        keep = ~to_ipin if edge_ok is None else (~to_ipin & edge_ok)
        counts = np.bincount(src[keep], minlength=n)
        offs = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=offs[1:])
        self._k_offsets = offs.tolist()
        self._k_targets = tgt[keep].tolist()
        # Per-tile IPIN tables for the per-search re-attachment.
        ipin_sel = to_ipin if edge_ok is None else (to_ipin & edge_ok)
        xs, ys = ir.xs, ir.ys
        tile_extra: Dict[Tuple[int, int], Dict[int, List[int]]] = {}
        for u, v in zip(src[ipin_sel].tolist(), tgt[ipin_sel].tolist()):
            tile_extra.setdefault(
                (int(xs[v]), int(ys[v])), {}).setdefault(u, []).append(v)
        self._tile_extra = tile_extra
        tile_ipins: Dict[Tuple[int, int], List[int]] = {}
        for i in ir.nodes_of_kind(KIND_IPIN).tolist():
            tile_ipins.setdefault((int(xs[i]), int(ys[i])), []).append(i)
        self._tile_ipins = tile_ipins
        # INF-sentinel scratch (restored via the touched list).
        self._dist = [INF] * n
        self._came = [0] * n

    def _wrap_vector(self, vec: np.ndarray) -> array:
        # array('d') gives ~2x faster python-float item reads than a
        # numpy array in the scalar walk (no per-index boxing).
        out = array("d")
        out.frombytes(memoryview(vec).cast("B"))
        return out

    def route_net(
        self,
        net: "RouteNet",
        pres_fac: float,
        bb_margin: float = 3.0,
        sink_shuffle: int = 0,
        criticality: float = 0.0,
    ) -> Optional["RouteTree"]:
        router = self._router
        ir = router.fabric
        source = ir.source_of[net.source_tile]
        targets = {ir.sink_of[tile]: tile for tile in net.sink_tiles}
        tree_nodes: List[int] = [source]
        tree_set: Set[int] = {source}
        parent: Dict[int, int] = {source: -1}
        sink_nodes: List[int] = []
        remaining = dict(targets)

        xs = [net.source_tile[0]] + [t[0] for t in net.sink_tiles]
        ys = [net.source_tile[1]] + [t[1] for t in net.sink_tiles]
        bb = (min(xs) - bb_margin, max(xs) + bb_margin,
              min(ys) - bb_margin, max(ys) + bb_margin)

        crit = (min(max(criticality, 0.0), 0.99)
                if router._delay_costs is not None else 0.0)
        cong_weight = 1.0 - crit
        c_np, salt = self._cost_vector(net.name, pres_fac, crit, cong_weight, bb)
        c = array("d")
        c.frombytes(memoryview(c_np).cast("B"))

        shuffled_order: List[int] = []
        if sink_shuffle:
            rng = random.Random(sink_shuffle)
            shuffled_order = sorted(targets)
            rng.shuffle(shuffled_order)

        dist = self._dist
        came = self._came
        offsets = self._k_offsets
        tgts = self._k_targets
        heappush, heappop = heapq.heappush, heapq.heappop
        blocked = router._blocked
        pops_total = 0
        pushes_total = 0

        while remaining:
            target_sink = self._next_sink(remaining, source, shuffled_order)
            tile = targets[target_sink]
            ha = self._heuristic(target_sink)
            # Patch the search's admissible targets into the vector
            # (skipping tree members and blocked nodes, which the
            # reference skips at expansion time).
            patched: List[int] = []
            if target_sink not in blocked:
                patched.append(target_sink)
                c[target_sink] = self._scalar_cost(
                    target_sink, salt, pres_fac, crit, cong_weight)
            for v in self._tile_ipins.get(tile, ()):
                if v in tree_set or v in blocked:
                    continue
                patched.append(v)
                c[v] = self._scalar_cost(v, salt, pres_fac, crit, cong_weight)
            extra = self._tile_extra.get(tile)
            get_extra = extra.get if extra is not None else _no_extra
            touched: List[int] = []
            heap: List[Tuple[float, float, int]] = []
            for node in tree_nodes:
                if node == source and len(tree_nodes) > 1:
                    continue
                dist[node] = 0.0
                touched.append(node)
                heappush(heap, (ha[node], 0.0, node))
            found = False
            pops = 0
            while heap:
                pops += 1
                _f, g, u = heappop(heap)
                if g > dist[u]:
                    continue
                if u == target_sink:
                    found = True
                    break
                for v in tgts[offsets[u]:offsets[u + 1]]:
                    ng = g + c[v]
                    if ng < dist[v]:
                        dist[v] = ng
                        came[v] = u
                        touched.append(v)
                        heappush(heap, (ng + ha[v], ng, v))
                ev = get_extra(u)
                if ev is not None:
                    for v in ev:
                        ng = g + c[v]
                        if ng < dist[v]:
                            dist[v] = ng
                            came[v] = u
                            touched.append(v)
                            heappush(heap, (ng + ha[v], ng, v))
            pops_total += pops
            pushes_total += pops + len(heap)
            for v in touched:
                dist[v] = INF
            for v in patched:
                c[v] = INF
            if not found:
                self.heap_pops += pops_total
                self.heap_pushes += pushes_total
                return None
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
