"""PathFinder expansion kernels: the compiled walk and its numpy fallback.

`PathFinderRouter` delegates its inner loop — per-net cost evaluation,
neighbour expansion, the A* heap walk — to a kernel:

* ``c``     — `CompiledKernel`: every sink search of a net in one call
  into ``_walk.c``, built with the system C compiler on the first
  route (`compiled_walk`);
* ``numpy`` — `NumpyKernel`: vectorised cost evaluation over
  FabricIR's CSR arrays feeding a scalar Python heap walk; the router
  falls back to it, with one warning, when the C walk cannot be built.

The pure-Python reference walk both are pinned against lives in
``tests/vpr/reference_kernel.py``; tests and benches pass it to
``PathFinderRouter(kernel=)`` as a class.

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
  correct min-heap pops the identical sequence — `heapq` and the C
  walk's binary heap alike;
* node costs use the reference's exact IEEE-754 float64 operations in
  the reference's order: elementwise numpy ops and the C walk's scalar
  ones run the same machine arithmetic, and ``_walk.c`` is built with
  ``-ffp-contract=off`` (no fused multiply-add) and never with
  ``-ffast-math``; ``x * 1.0`` preserves bits, which folds the
  reference's ``if over > 0`` branch into a max with 1;
* a net's node costs do not change while it routes, so the C walk
  computing each one the first time its searches touch it equals the
  numpy kernel's whole per-net vector;
* the jitter table, crc32 name-hash salt, stable CSR edge order,
  bounding-box rule and sink order are the reference's (a stable sort
  by distance to the source is its repeated first-minimum);
* out-of-box and blocked nodes cost ``+inf`` — a relaxation
  ``g + inf < dist`` can never fire, which is exactly the reference's
  skip;
* the reference's other skips (sources, non-target sinks, tree
  members) need no fold, because the reduced CSR cannot reach those
  nodes: a SOURCE has no in-edges; an IPIN's only in-edges come from
  wires, and those are dropped except into the target tile; a SINK's
  only in-edge comes from its own tile's IPINs; tree nodes are seeded
  at ``dist = 0`` and so are never relaxed (and a tree IPIN's SINK is
  itself in the tree);
* the target tile's wire->IPIN edges, re-attached per search from the
  kernel's tile-sorted index, keep their CSR order within each wire's
  list, so the relaxation order (and every heap tie) matches the
  reference.

`tests/vpr/test_route_kernels.py` is the differential harness that
enforces the contract.
"""

from __future__ import annotations

import hashlib
import heapq
import os
import random
import subprocess
import tempfile
import threading
import warnings
import zlib
from array import array
from typing import TYPE_CHECKING, AbstractSet, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..fabric.build import KIND_HWIRE, KIND_IPIN, KIND_VWIRE

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..fabric import FabricIR
    from .route import PathFinderRouter, RouteNet, RouteTree

INF = float("inf")

#: Kernel names `PathFinderRouter(kernel=)` accepts.
KERNELS = ("c", "numpy")
#: Byte budget for the numpy walk's per-target-sink A* heuristic
#: cache (each entry is one float64 per node).  Fill-up-to-cap, no
#: eviction: PathFinder revisits the same sinks cyclically, which
#: would thrash an LRU.
H_CACHE_BYTES = 64 * 1024 * 1024
#: Entry cap for the numpy walk's bounding-box mask cache.
BB_CACHE_ENTRIES = 4096
#: How ``_walk.c`` is compiled; part of the build cache key.
CFLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")

_UNSET = object()
_WALK = _UNSET
_WALK_LOCK = threading.Lock()


def build_walk(cache_dir: Optional[str] = None) -> str:
    """Path of the compiled walk library, compiling ``_walk.c`` with
    ``$CC`` (default ``cc``) unless a library of the same source,
    compiler and flags is already cached: in ``cache_dir``, else the
    package's ``__pycache__``, else a per-user temp dir.

    The library is written to a temp file and renamed into place, so
    processes building into one cache at once each load a whole
    library.  Raises `OSError` / `subprocess.SubprocessError` when no
    library can be built."""
    import shlex
    from importlib.resources import files

    source = files(__package__).joinpath("_walk.c").read_bytes()
    cc = shlex.split(os.environ.get("CC") or "cc")
    key = hashlib.sha256(source + repr((cc, CFLAGS)).encode()).hexdigest()[:20]
    uid = getattr(os, "getuid", lambda: "user")()
    for folder in [cache_dir] if cache_dir else [
            os.path.join(os.path.dirname(os.path.abspath(__file__)), "__pycache__"),
            os.path.join(tempfile.gettempdir(), f"repro-walk-{uid}")]:
        path = os.path.join(folder, f"_walk-{key}.so")
        try:
            os.makedirs(folder, mode=0o700, exist_ok=True)
            # Load nothing from a folder another user could write into.
            if os.stat(folder).st_uid not in (0, uid):
                continue
            if os.path.exists(path):
                return path
            fd, tmp = tempfile.mkstemp(suffix=".so", dir=folder)
        except OSError:
            continue
        os.close(fd)
        try:
            subprocess.run([*cc, *CFLAGS, "-x", "c", "-", "-o", tmp, "-lm"],
                           input=source, check=True, capture_output=True)
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
        return path
    raise OSError("no writable cache directory for the compiled walk")


def compiled_walk():
    """``(library, walk_t struct type)`` of the compiled walk, built on
    first use; None when it cannot be built (warned once per process).
    ``ctypes`` is imported here, never on import."""
    global _WALK
    with _WALK_LOCK:
        if _WALK is _UNSET:
            try:
                _WALK = _load_walk(build_walk())
            except (OSError, subprocess.SubprocessError) as exc:
                warnings.warn(
                    f"cannot build the compiled route walk ({exc}); "
                    "routing with the numpy walk", RuntimeWarning, stacklevel=2)
                _WALK = None
        return _WALK


def _load_walk(path: str):
    import ctypes as C

    ptr, i32, f64 = C.c_void_p, C.c_int32, C.c_double

    class Walk(C.Structure):
        _fields_ = [("n", i32)] + [(name, ptr) for name in (
            "off", "tgt", "xoff", "xu", "xv", "px", "py", "stat", "jit",
            "delay", "occ", "cap", "blocked", "dist", "cost", "came",
            "xfirst", "seen", "priced", "intree", "xmark")] + [
            ("search", C.c_uint32), ("net", C.c_uint32), ("heap", ptr),
            ("heap_cap", C.c_int64), ("astar", f64), ("nodes", ptr),
            ("parents", ptr), ("stats", C.c_int64 * 2)]

    lib = C.CDLL(path)
    lib.walk_net.restype = i32
    lib.walk_net.argtypes = [C.POINTER(Walk), i32, ptr, ptr, i32, i32,
                             f64, f64, f64, f64, f64, f64]
    return lib.walk_net, Walk


def resolve_kernel(kernel: Union[None, str, type]) -> type:
    """The kernel class to run.  None or ``"c"``: the compiled walk,
    or the numpy kernel when it cannot be built; ``"numpy"``: the
    numpy kernel; a `RouteKernel` subclass (the tests' reference
    oracle) runs as given.  Unknown names raise `ValueError`."""
    if isinstance(kernel, type) and issubclass(kernel, RouteKernel):
        return kernel
    if kernel is not None and kernel not in KERNELS:
        raise ValueError(
            f"unknown route kernel {kernel!r}; expected one of "
            f"{', '.join(KERNELS)}")
    if kernel == "numpy" or compiled_walk() is None:
        return NumpyKernel
    return CompiledKernel


def make_kernel(kernel: Union[None, str, type],
                router: "PathFinderRouter") -> "RouteKernel":
    """Instantiate the resolved kernel over ``router``'s graph and costs.

    The kernel gets the values it reads, never the router itself, so
    the two form no reference cycle: dropping a router frees it and
    its kernel by refcount, without waiting for a garbage-collector
    pass."""
    return resolve_kernel(kernel)(
        router.fabric,
        jitter=router._jitter,
        blocked=router._blocked,
        blocked_edges=router._blocked_edges,
        delay_costs=router._delay_costs,
        astar_fac=router.astar_fac,
    )


class RouteKernel:
    """Interface between `PathFinderRouter` and an expansion kernel.

    A kernel owns the router's mutable per-node state (occupancy,
    history, static costs) and implements the sink-by-sink expansion
    search; the router keeps the negotiation schedule, net ordering
    and escalation logic.  Everything observable through this
    interface must be bit-identical across kernels — the differential
    harness enforces it — except the `heap_pops` / `heap_pushes`
    telemetry counters, which may legitimately differ because the
    fast kernels prune expansions the reference performs and skips.
    """

    name = "abstract"

    def __init__(
        self,
        fabric: "FabricIR",
        jitter: np.ndarray,
        blocked: AbstractSet[int],
        blocked_edges: AbstractSet[int],
        delay_costs: Optional[Sequence[float]],
        astar_fac: float,
    ) -> None:
        """``jitter`` holds one float64 per node; ``blocked_edges``
        holds directed hops encoded ``u * n + v``; ``delay_costs`` is
        None in pure routability mode."""
        self.fabric = fabric
        self._jitter = jitter
        self._blocked = blocked
        self._blocked_edges = blocked_edges
        self._delay_costs = delay_costs
        self._astar_fac = astar_fac
        #: `route_net` calls so far; salts each call's jitter offset.
        self._route_calls = 0
        #: Monotonic heap-operation telemetry (obs only, never part of
        #: the routing result).
        self.heap_pops = 0
        self.heap_pushes = 0

    def refresh_static(self) -> None:
        """Recompute static = base + history (once per iteration)."""
        raise NotImplementedError

    def occupy(self, nodes: Sequence[int], delta: int) -> None:
        """Add ``delta`` to the occupancy of every node in ``nodes``
        (distinct, as a tree's are)."""
        raise NotImplementedError

    def pin(self, nodes: np.ndarray) -> None:
        """Add one occupancy per occurrence in ``nodes`` (several
        trees' nodes, which may repeat)."""
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


class NumpyKernel(RouteKernel):
    """Vectorised cost build + reduced-CSR scalar heap walk.

    Structure: blocked edges are compacted out of the CSR once, and
    wire->IPIN edges are dropped — IPINs are only ever *entered* on
    the target tile, so those in-edges are re-attached per search from
    a per-tile ``{wire: [ipin, ...]}`` table.  The kernel keeps those
    edges as one numpy index sorted by target tile; this walk builds a
    tile's table from its slice the first time a search targets that
    tile (the compiled walk reads the slice itself).  With those edges
    gone, no search can reach a source, a non-target sink or an IPIN
    off the target tile, so the cost vector needs no per-search
    patching: only out-of-box and blocked nodes fold to ``+inf``.  The
    occupancy/history columns, the per-net cost vector, the cached
    per-target A* heuristic vectors and bounding-box masks reproduce
    the reference kernel's IEEE-754 op order exactly.
    """

    name = "numpy"

    def __init__(self, ir: "FabricIR", **costs) -> None:
        super().__init__(ir, **costs)
        n = ir.num_nodes
        # Writable per-router state; the shared IR stays immutable.
        self._base = ir.base_costs
        self._cap = ir.capacities.astype(np.int32)
        self._occ = np.zeros(n, dtype=np.int32)
        self._hist = np.zeros(n, dtype=np.float64)
        self._static = self._base.copy()
        self._px = ir.pos_x
        self._py = ir.pos_y
        blocked = sorted(self._blocked)
        self._blocked_idx = (
            np.asarray(blocked, dtype=np.int64) if blocked else None)
        self._delay_np = (
            np.asarray(self._delay_costs, dtype=np.float64)
            if self._delay_costs is not None else None)
        off = ir.edge_offsets
        tgt = ir.edge_targets
        kind = ir.kind
        src = np.repeat(np.arange(n, dtype=np.int64), np.diff(off))
        wire = (kind == KIND_HWIRE) | (kind == KIND_VWIRE)
        if len(tgt):
            to_ipin = wire[src] & (kind[tgt] == KIND_IPIN)
        else:
            to_ipin = np.zeros(0, dtype=bool)
        if self._blocked_edges:
            enc = src * n + tgt
            edge_ok = ~np.isin(enc, np.fromiter(
                self._blocked_edges, dtype=np.int64,
                count=len(self._blocked_edges)))
        else:
            edge_ok = None
        keep = ~to_ipin if edge_ok is None else (~to_ipin & edge_ok)
        counts = np.bincount(src[keep], minlength=n)
        self._k_off = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=self._k_off[1:])
        self._k_tgt = np.ascontiguousarray(tgt[keep], dtype=np.int32)
        # Wire->IPIN edges for the per-search re-attachment, as a
        # numpy index sorted (stably, so CSR order holds within a tile,
        # and each wire's edges are contiguous) by target tile.
        ipin_sel = to_ipin if edge_ok is None else (to_ipin & edge_ok)
        ipin_u, ipin_v = src[ipin_sel], tgt[ipin_sel]
        tile_id = ir.xs[ipin_v].astype(np.int64) * ir.ny + ir.ys[ipin_v]
        order = np.argsort(tile_id, kind="stable")
        self._ipin_u = ipin_u[order].astype(np.int32)
        self._ipin_v = ipin_v[order].astype(np.int32)
        tile_offs = np.zeros(ir.nx * ir.ny + 1, dtype=np.int64)
        np.cumsum(np.bincount(tile_id, minlength=ir.nx * ir.ny),
                  out=tile_offs[1:])
        self._ipin_tile_offsets = tile_offs
        # The Python walk's hot-loop lists and INF-sentinel scratch,
        # made on its first search, and its caches.
        self._walk_lists: Optional[Tuple[list, list, list, list]] = None
        self._h_cache: Dict[int, array] = {}
        self._h_entries = max(1, H_CACHE_BYTES // max(8 * n, 8))
        self._bb_cache: Dict[Tuple[float, float, float, float], np.ndarray] = {}
        self._tile_extra: Dict[Tuple[int, int], Dict[int, List[int]]] = {}
        from .route import RouteTree

        self._RouteTree = RouteTree

    # -- router state -------------------------------------------------------

    def refresh_static(self) -> None:
        np.add(self._base, self._hist, out=self._static)

    def occupy(self, nodes: Sequence[int], delta: int) -> None:
        # Tree nodes are distinct, so fancy-index += applies each once.
        self._occ[np.asarray(nodes, dtype=np.int64)] += delta

    def pin(self, nodes: np.ndarray) -> None:
        self._occ += np.bincount(nodes, minlength=len(self._occ)).astype(np.int32)

    def overused(self) -> List[int]:
        return np.nonzero(self._occ > self._cap)[0].tolist()

    def add_history(self, nodes: List[int], hist_fac: float) -> None:
        idx = np.asarray(nodes, dtype=np.int64)
        self._hist[idx] += hist_fac * (self._occ[idx] - self._cap[idx])

    # -- per-net set-up shared by both walks ---------------------------------

    def _net_setup(self, net: "RouteNet", bb_margin: float, sink_shuffle: int,
                   criticality: float):
        """``(source, sinks in search order, their tiles, bounding box,
        criticality, salt)`` of one `route_net` call; advances the
        per-call salt sequence (one bump per call, like the
        reference)."""
        ir = self.fabric
        source = ir.source_of[net.source_tile]
        targets = {ir.sink_of[tile]: tile for tile in net.sink_tiles}
        if sink_shuffle:
            # The default nearest-first order can commit the tree trunk
            # so the last sink is boxed into one conflicted IPIN; a
            # reshuffled order escapes such wedges.
            order = sorted(targets)
            random.Random(sink_shuffle).shuffle(order)
        else:
            # A stable sort is the reference's repeated first-minimum.
            px, py, s = self._px, self._py, source
            order = sorted(targets, key=lambda t: abs(px[t] - px[s]) + abs(py[t] - py[s]))
        xs = [net.source_tile[0]] + [t[0] for t in net.sink_tiles]
        ys = [net.source_tile[1]] + [t[1] for t in net.sink_tiles]
        bb = (min(xs) - bb_margin, max(xs) + bb_margin,
              min(ys) - bb_margin, max(ys) + bb_margin)
        crit = (min(max(criticality, 0.0), 0.99)
                if self._delay_costs is not None else 0.0)
        self._route_calls += 1
        salt = (zlib.crc32(net.name.encode()) * 31 + self._route_calls * 7919) % len(self._jitter)
        return source, order, [targets[s] for s in order], bb, crit, salt

    # -- the numpy walk -----------------------------------------------------

    def _cost_vector(self, salt: int, pres_fac: float, crit: float,
                     bb: Tuple[float, float, float, float]) -> np.ndarray:
        """Per-net cost vector in the reference's exact op order, with
        out-of-box and blocked nodes folded to ``+inf``."""
        n, jit, static = len(self._static), self._jitter, self._static
        # The reference's wrapping ``jitter[v - salt]``, as two slices.
        c = np.empty(n)
        np.multiply(static[:salt], jit[n - salt:], out=c[:salt])
        np.multiply(static[salt:], jit[:n - salt], out=c[salt:])
        # max(m, 1.0) folds the reference's ``if over > 0`` branch:
        # x * 1.0 is a bitwise identity for every routing cost.
        m = 1.0 + pres_fac * (self._occ + 1 - self._cap)
        np.maximum(m, 1.0, out=m)
        c *= m
        if crit > 0.0:
            c *= 1.0 - crit
            c += crit * self._delay_np
        c[self._bbox_out(bb)] = INF
        if self._blocked_idx is not None:
            c[self._blocked_idx] = INF
        return c

    def _h_vector(self, t: int) -> np.ndarray:
        """A* lookahead vector towards target ``t`` (reference op
        order: scale applied after the Manhattan sum)."""
        tx, ty = self._px[t], self._py[t]
        return self._astar_fac * (np.abs(self._px - tx) + np.abs(self._py - ty))

    def _heuristic(self, t: int) -> array:
        h = self._h_cache.get(t)
        if h is None:
            # array('d') gives ~2x faster python-float item reads than
            # a numpy array in the scalar walk (no per-index boxing).
            h = array("d")
            h.frombytes(memoryview(self._h_vector(t)).cast("B"))
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

    def _tile_table(self, tile: Tuple[int, int]) -> Dict[int, List[int]]:
        """``{wire: [ipin, ...]}`` of the unblocked wire->IPIN edges
        into ``tile``, in CSR order (built on the first search that
        targets the tile, then kept for this router's lifetime)."""
        table = self._tile_extra.get(tile)
        if table is None:
            t = tile[0] * self.fabric.ny + tile[1]
            lo = int(self._ipin_tile_offsets[t])
            hi = int(self._ipin_tile_offsets[t + 1])
            table = {}
            for u, v in zip(self._ipin_u[lo:hi].tolist(),
                            self._ipin_v[lo:hi].tolist()):
                table.setdefault(u, []).append(v)
            self._tile_extra[tile] = table
        return table

    def route_net(self, net: "RouteNet", pres_fac: float, bb_margin: float = 3.0,
                  sink_shuffle: int = 0, criticality: float = 0.0) -> Optional["RouteTree"]:
        source, order, tiles, bb, crit, salt = self._net_setup(
            net, bb_margin, sink_shuffle, criticality)
        c = array("d")
        c.frombytes(memoryview(self._cost_vector(salt, pres_fac, crit, bb)).cast("B"))
        if self._walk_lists is None:
            n = len(self._occ)
            self._walk_lists = (self._k_off.tolist(), self._k_tgt.tolist(),
                                [INF] * n, [0] * n)
        offsets, tgts, dist, came = self._walk_lists
        tree_nodes: List[int] = [source]
        tree_set = {source}
        parent: Dict[int, int] = {source: -1}
        heappush, heappop = heapq.heappush, heapq.heappop
        pops_total = 0
        pushes_total = 0

        for target_sink, tile in zip(order, tiles):
            ha = self._heuristic(target_sink)
            get_extra = self._tile_table(tile).get
            touched: List[int] = []
            heap: List[Tuple[float, float, int]] = []
            for node in tree_nodes:
                # Once the first sink is routed, the SOURCE stops being
                # a seed: otherwise later sinks branch at the source and
                # the net consumes several OPINs, oversubscribing the
                # LB's N output pins.
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
            if not found:
                self.heap_pops += pops_total
                self.heap_pushes += pushes_total
                return None
            # Trace back, splice into the tree.
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
        self.heap_pops += pops_total
        self.heap_pushes += pushes_total
        return self._RouteTree(nodes=tree_nodes, parent=parent, sink_nodes=order)


class CompiledKernel(NumpyKernel):
    """The numpy kernel's arrays, walked by ``_walk.c``: one call per
    net runs every sink search (see `compiled_walk`).

    Every buffer the walk writes is this kernel's (no static state in
    the C file), so routers on several threads — ctypes releases the
    GIL during the call — never share one."""

    name = "c"

    def __init__(self, ir: "FabricIR", **costs) -> None:
        super().__init__(ir, **costs)
        self._walk, Walk = compiled_walk()
        n = len(self._occ)
        blocked = np.zeros(n, dtype=np.uint8)
        blocked[list(self._blocked)] = 1
        self._tree = np.zeros((2, max(n, 1)), dtype=np.int32)
        scratch = {name: np.zeros(n, dtype=dtype) for name, dtype in (
            ("dist", np.float64), ("cost", np.float64), ("came", np.int32),
            ("xfirst", np.int32), ("seen", np.uint32), ("priced", np.uint32),
            ("intree", np.uint32), ("xmark", np.uint32))}
        arrays = dict(
            scratch, off=self._k_off, tgt=self._k_tgt,
            xoff=self._ipin_tile_offsets, xu=self._ipin_u, xv=self._ipin_v,
            px=self._px, py=self._py, stat=self._static, jit=self._jitter,
            delay=self._delay_np, occ=self._occ, cap=self._cap,
            blocked=blocked, nodes=self._tree[0], parents=self._tree[1])
        #: Keeps every array the walk points into alive.
        self._arrays = arrays
        self._state = Walk(n=n, astar=self._astar_fac, **{
            name: None if a is None else a.ctypes.data
            for name, a in arrays.items()})
        self._grow_heap(n + 64)

    def _grow_heap(self, capacity: int) -> None:
        # One (f, g, u) entry is 24 bytes: two doubles, an int32, padding.
        self._heap = np.empty(3 * capacity, dtype=np.float64)
        self._state.heap = self._heap.ctypes.data
        self._state.heap_cap = capacity

    def route_net(self, net: "RouteNet", pres_fac: float, bb_margin: float = 3.0,
                  sink_shuffle: int = 0, criticality: float = 0.0) -> Optional["RouteTree"]:
        source, order, tiles, bb, crit, salt = self._net_setup(
            net, bb_margin, sink_shuffle, criticality)
        ny = self.fabric.ny
        args = array("i", order + [x * ny + y for x, y in tiles])
        sinks, state = args.buffer_info()[0], self._state
        while True:
            size = self._walk(state, source, sinks, sinks + 4 * len(order),
                              len(order), salt, pres_fac, crit, *bb)
            if size >= 0:
                break
            self._grow_heap(2 * state.heap_cap)
        self.heap_pops += state.stats[0]
        self.heap_pushes += state.stats[1]
        if size == 0:
            return None
        nodes = self._tree[0, :size].tolist()
        return self._RouteTree(
            nodes=nodes, parent=dict(zip(nodes, self._tree[1, :size].tolist())),
            sink_nodes=order)
