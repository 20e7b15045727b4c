"""Keyed FabricIR cache: one build per (ArchParams, nx, ny).

The channel-width binary search and the evaluation stages route the
same placement repeatedly — at probe widths during the search, then
again at the working width for every variant/STA pass.  The cache
makes a repeat at any previously seen width free.

`ArchParams` is a frozen dataclass, so `(params, nx, ny)` is directly
hashable.  Cached IRs are immutable and shared: routers keep their
occupancy/history state in router-local arrays.  Hits and misses feed
the `repro.obs` registry (``fabric.cache_hits`` / ``_misses``) and the
per-lookup span, so ``repro report`` shows the win.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Tuple

from ..arch.params import ArchParams
from ..obs import get_registry, get_tracer
from .ir import FabricIR

Key = Tuple[ArchParams, int, int]


class FabricCache:
    """LRU cache of built `FabricIR` instances.

    Args:
        maxsize: Retained IRs; a Wmin binary search touches ~10 widths
            and IRs for scaled workloads are a few MB each, so the
            default holds a whole search.
    """

    def __init__(self, maxsize: int = 16) -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self._entries: "OrderedDict[Key, FabricIR]" = OrderedDict()
        self._lock = threading.Lock()
        #: Key -> event for an in-flight build (single-flight: one
        #: builder per key, everyone else waits and shares the result).
        self._building: Dict[Key, threading.Event] = {}
        self.hits = 0
        self.misses = 0

    def get(self, params: ArchParams, nx: int, ny: int) -> FabricIR:
        """The IR for this architecture/grid, building on first use.

        Thread-safe: every piece of bookkeeping (LRU order, eviction,
        hit/miss counters) happens under the lock, and concurrent
        misses for the same key coalesce into a single build — the
        batch runner's parent pre-warm may race threaded callers
        without double-building or corrupting the LRU state.
        """
        key = (params, nx, ny)
        registry = get_registry()
        while True:
            with self._lock:
                cached = self._entries.get(key)
                if cached is not None:
                    self._entries.move_to_end(key)
                    self.hits += 1
                    registry.counter("fabric.cache_hits").inc()
                    with get_tracer().span(
                        "fabric.cache_lookup", hit=True, nx=nx, ny=ny,
                        channel_width=params.channel_width,
                    ):
                        pass
                    return cached
                pending = self._building.get(key)
                if pending is None:
                    pending = self._building[key] = threading.Event()
                    self.misses += 1
                    registry.counter("fabric.cache_misses").inc()
                    builder = True
                else:
                    builder = False
            if not builder:
                # Another thread is building this key; wait and
                # re-check (the entry may also have been evicted by
                # the time we wake — then the loop elects a builder).
                pending.wait()
                continue
            try:
                with get_tracer().span(
                    "fabric.cache_lookup", hit=False, nx=nx, ny=ny,
                    channel_width=params.channel_width,
                ):
                    ir = FabricIR.build(params, nx, ny)
            except BaseException:
                with self._lock:
                    self._building.pop(key, None)
                pending.set()  # waiters retry; one of them rebuilds
                raise
            with self._lock:
                self._entries[key] = ir
                self._entries.move_to_end(key)
                while len(self._entries) > self.maxsize:
                    self._entries.popitem(last=False)
                registry.gauge("fabric.cache_entries").set(len(self._entries))
                self._building.pop(key, None)
            pending.set()
            return ir

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {"entries": len(self._entries), "hits": self.hits,
                    "misses": self.misses}


#: Process-wide cache the flow drives its probes through.
_GLOBAL_CACHE = FabricCache()


def get_fabric(params: ArchParams, nx: int, ny: int) -> FabricIR:
    """Fetch-or-build from the process-wide cache."""
    return _GLOBAL_CACHE.get(params, nx, ny)


def fabric_cache() -> FabricCache:
    """The process-wide cache (inspection / `clear()` in tests)."""
    return _GLOBAL_CACHE
