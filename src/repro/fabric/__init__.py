"""FabricIR: the flat array-backed RR-graph core.

One compact structure-of-arrays representation of the routing fabric
— numpy attribute columns, CSR adjacency, a per-edge switch-kind
table, and tile lookup arrays — built once per ``(ArchParams, nx,
ny)`` and shared (read-only) by the PathFinder router, the timing
analyzer, the bitstream extractor, and the visualisers.

Entry points:

* `FabricIR.build(params, nx, ny)` — array-native construction;
* `get_fabric(params, nx, ny)`     — the keyed process-wide cache the
  flow's channel-width probes go through;
* `as_fabric(graph)`               — the consumers' type check: returns
  ``graph`` if it is a `FabricIR`, else raises `TypeError`.

See DESIGN.md ("FabricIR") for the array layout.
"""

from .build import (
    KIND_HWIRE,
    KIND_IPIN,
    KIND_NAMES,
    KIND_OPIN,
    KIND_SINK,
    KIND_SOURCE,
    KIND_VWIRE,
)
from .ir import (
    FabricIR,
    SwitchKind,
    TileLookup,
    as_fabric,
    switch_kind_code,
)
from .cache import FabricCache, fabric_cache, get_fabric

__all__ = [
    "FabricCache",
    "FabricIR",
    "KIND_HWIRE",
    "KIND_IPIN",
    "KIND_NAMES",
    "KIND_OPIN",
    "KIND_SINK",
    "KIND_SOURCE",
    "KIND_VWIRE",
    "SwitchKind",
    "TileLookup",
    "as_fabric",
    "fabric_cache",
    "get_fabric",
    "switch_kind_code",
]
