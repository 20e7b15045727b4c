"""Numba-compiled PathFinder expansion kernel.

The same array state as the numpy kernel (see
`repro.vpr.route_kernels._ArrayStateKernel`) drives an ``@njit``
compiled A* walk over the full CSR (blocked edges compacted out once).
Unlike the numpy kernel, IPINs stay admissible — exactly the
reference's rule — so no per-tile edge re-attachment is needed inside
compiled code; only the target sink is patched per search.

When numba is not importable the ``@njit`` decorator degrades to the
identity, so this module still imports and `NumbaKernel` runs the
exact same search in pure python — slow, but it lets the differential
harness exercise the compiled code path bit-for-bit on the CI arm
without the dependency.

Bit-exactness: compiled **without** ``fastmath`` so float64 arithmetic
keeps IEEE-754 semantics identical to the interpreter's, and the
array heap orders entries by the same unique total order
``(f, g, node)`` as ``heapq`` — hence the identical pop sequence and
identical route trees.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

import numpy as np

from ..fabric.build import KIND_SINK, KIND_SOURCE
from .route_kernels import INF, _ArrayStateKernel

try:
    from numba import njit

    HAVE_NUMBA = True
except Exception:  # pragma: no cover - depends on environment
    HAVE_NUMBA = False

    def njit(*args, **kwargs):
        """Identity decorator stand-in when numba is unavailable."""
        if args and callable(args[0]):
            return args[0]

        def wrap(fn):
            return fn

        return wrap


@njit(cache=True)
def _expand(offsets, targets, c, h, dist, came, stamp, epoch, seeds, target):
    """One target-sink A* search over the CSR.

    An array-backed binary min-heap (``hf``/``hg``/``hv`` columns,
    doubling growth) replaces ``heapq``; the lexicographic strict-less
    on ``(f, g, v)`` is the same unique total order, so the pop
    sequence is identical.  ``stamp``/``epoch`` make per-search state
    reset O(1): an entry is live iff ``stamp[v] == epoch``.

    Returns ``(found, pops, pushes)``.
    """
    hf = np.empty(1024, np.float64)
    hg = np.empty(1024, np.float64)
    hv = np.empty(1024, np.int64)
    size = 0
    pops = 0
    for i in range(seeds.shape[0]):
        node = seeds[i]
        dist[node] = 0.0
        stamp[node] = epoch
        if size == hf.shape[0]:
            nf = np.empty(size * 2, np.float64)
            nf[:size] = hf
            hf = nf
            ngr = np.empty(size * 2, np.float64)
            ngr[:size] = hg
            hg = ngr
            nv = np.empty(size * 2, np.int64)
            nv[:size] = hv
            hv = nv
        j = size
        hf[j] = h[node]
        hg[j] = 0.0
        hv[j] = node
        size += 1
        while j > 0:
            p = (j - 1) >> 1
            if (hf[p] > hf[j]) or (hf[p] == hf[j] and (
                    (hg[p] > hg[j]) or (hg[p] == hg[j] and hv[p] > hv[j]))):
                tf = hf[p]; hf[p] = hf[j]; hf[j] = tf
                tg = hg[p]; hg[p] = hg[j]; hg[j] = tg
                tv = hv[p]; hv[p] = hv[j]; hv[j] = tv
                j = p
            else:
                break
    found = False
    while size > 0:
        pops += 1
        g = hg[0]
        u = hv[0]
        size -= 1
        if size > 0:
            hf[0] = hf[size]
            hg[0] = hg[size]
            hv[0] = hv[size]
            j = 0
            while True:
                left = 2 * j + 1
                if left >= size:
                    break
                right = left + 1
                m = left
                if right < size and ((hf[right] < hf[left]) or (
                        hf[right] == hf[left] and (
                            (hg[right] < hg[left]) or
                            (hg[right] == hg[left] and hv[right] < hv[left])))):
                    m = right
                if (hf[m] < hf[j]) or (hf[m] == hf[j] and (
                        (hg[m] < hg[j]) or (hg[m] == hg[j] and hv[m] < hv[j]))):
                    tf = hf[m]; hf[m] = hf[j]; hf[j] = tf
                    tg = hg[m]; hg[m] = hg[j]; hg[j] = tg
                    tv = hv[m]; hv[m] = hv[j]; hv[j] = tv
                    j = m
                else:
                    break
        if g > dist[u]:
            continue
        if u == target:
            found = True
            break
        for e in range(offsets[u], offsets[u + 1]):
            v = targets[e]
            ng = g + c[v]
            if stamp[v] == epoch:
                lim = dist[v]
            else:
                lim = np.inf
            if ng < lim:
                dist[v] = ng
                stamp[v] = epoch
                came[v] = u
                if size == hf.shape[0]:
                    nf = np.empty(size * 2, np.float64)
                    nf[:size] = hf
                    hf = nf
                    ngr = np.empty(size * 2, np.float64)
                    ngr[:size] = hg
                    hg = ngr
                    nv = np.empty(size * 2, np.int64)
                    nv[:size] = hv
                    hv = nv
                j = size
                hf[j] = ng + h[v]
                hg[j] = ng
                hv[j] = v
                size += 1
                while j > 0:
                    p = (j - 1) >> 1
                    if (hf[p] > hf[j]) or (hf[p] == hf[j] and (
                            (hg[p] > hg[j]) or (hg[p] == hg[j] and hv[p] > hv[j]))):
                        tf = hf[p]; hf[p] = hf[j]; hf[j] = tf
                        tg = hg[p]; hg[p] = hg[j]; hg[j] = tg
                        tv = hv[p]; hv[p] = hv[j]; hv[j] = tv
                        j = p
                    else:
                        break
    return found, pops, pops + size


class NumbaKernel(_ArrayStateKernel):
    """Array-state kernel whose per-search walk is `_expand` above."""

    name = "numba"

    def __init__(self, router) -> None:
        super().__init__(router, (KIND_SINK, KIND_SOURCE))
        ir = router.fabric
        n = ir.num_nodes
        off = ir.edge_offsets
        tgt = ir.edge_targets
        if router._blocked_edges:
            src = np.repeat(np.arange(n, dtype=np.int64), np.diff(off))
            enc = src * n + tgt
            keep = ~np.isin(enc, np.fromiter(
                router._blocked_edges, dtype=np.int64,
                count=len(router._blocked_edges)))
            counts = np.bincount(src[keep], minlength=n)
            offs = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(counts, out=offs[1:])
            self._k_offsets = offs
            self._k_targets = tgt[keep].astype(np.int64)
        else:
            self._k_offsets = np.ascontiguousarray(off, dtype=np.int64)
            self._k_targets = np.ascontiguousarray(tgt, dtype=np.int64)
        self._dist = np.full(n, INF, dtype=np.float64)
        self._came = np.zeros(n, dtype=np.int64)
        self._stamp = np.zeros(n, dtype=np.int64)
        self._epoch = 0

    def route_net(
        self,
        net,
        pres_fac: float,
        bb_margin: float = 3.0,
        sink_shuffle: int = 0,
        criticality: float = 0.0,
    ):
        import random

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
        c, salt = self._cost_vector(net.name, pres_fac, crit, cong_weight, bb)

        shuffled_order: List[int] = []
        if sink_shuffle:
            rng = random.Random(sink_shuffle)
            shuffled_order = sorted(targets)
            rng.shuffle(shuffled_order)

        dist, came, stamp = self._dist, self._came, self._stamp
        blocked = router._blocked

        while remaining:
            target_sink = self._next_sink(remaining, source, shuffled_order)
            ha = self._heuristic(target_sink)
            patch = target_sink not in blocked
            if patch:
                c[target_sink] = self._scalar_cost(
                    target_sink, salt, pres_fac, crit, cong_weight)
            self._epoch += 1
            if len(tree_nodes) > 1:
                seeds = np.asarray(
                    [node for node in tree_nodes if node != source],
                    dtype=np.int64)
            else:
                seeds = np.asarray(tree_nodes, dtype=np.int64)
            found, pops, pushes = _expand(
                self._k_offsets, self._k_targets, c, ha,
                dist, came, stamp, self._epoch, seeds, target_sink)
            self.heap_pops += int(pops)
            self.heap_pushes += int(pushes)
            if patch:
                c[target_sink] = INF
            if not found:
                return None
            path: List[int] = []
            node = target_sink
            while node not in tree_set:
                path.append(node)
                node = int(came[node])
            for step in reversed(path):
                parent[step] = node
                tree_set.add(step)
                tree_nodes.append(step)
                node = step
            sink_nodes.append(target_sink)
            del remaining[target_sink]
        return self._RouteTree(nodes=tree_nodes, parent=parent, sink_nodes=sink_nodes)
