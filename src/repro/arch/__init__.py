"""Island-style FPGA architecture substrate (paper Sec. 3.1, Fig. 7).

Architecture parameters (Table 1), per-tile component inventories and
the minimum-width-transistor-area model with NEM relay stacking.  The
routing-resource graph the router negotiates over is `repro.fabric`.
"""

from .params import ArchParams, PAPER_ARCH
from .tile import TileInventory, build_inventory, grid_size_for
from .area import (
    AreaBreakdown,
    ComponentAreas,
    MWTA_90NM_M2,
    RELAY_CELL_AREA_M2,
    local_wire_length,
    mwta_area_m2,
    segment_wire_length,
    tile_area,
)

__all__ = [
    "ArchParams",
    "AreaBreakdown",
    "ComponentAreas",
    "MWTA_90NM_M2",
    "PAPER_ARCH",
    "RELAY_CELL_AREA_M2",
    "TileInventory",
    "build_inventory",
    "grid_size_for",
    "local_wire_length",
    "mwta_area_m2",
    "segment_wire_length",
    "tile_area",
]
