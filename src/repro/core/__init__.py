"""The paper's contribution: energy-efficient CMOS-NEM FPGA design.

Elaborates CMOS-only and CMOS-NEM FPGA design points (`variants`),
evaluates (delay, dynamic power, leakage, area) per circuit
(`evaluate`), sweeps the selective buffer removal/downsizing technique
into Fig. 12 trade-off curves (`tradeoff`), and reports the headline
comparisons (`report`).
"""

from .variants import (
    CLK_Q_FO4,
    FpgaVariant,
    LUT_DELAY_FO4,
    SETUP_FO4,
    VariantConfig,
    VariantKind,
    baseline_variant,
    naive_nem_variant,
    optimized_nem_variant,
)
from .evaluate import Comparison, DesignPoint, evaluate_design, shared_evaluation
from .tradeoff import (
    DEFAULT_DOWNSIZE_SWEEP,
    TradeoffCurve,
    TradeoffPoint,
    fig12_series,
    geomean_curve,
    sweep_circuit,
)
from .report import (
    HeadlineSummary,
    PAPER_HEADLINE,
    PAPER_NAIVE,
    format_fig12_table,
    format_headline,
    headline_summary,
)
from .exploration import (
    ArchPoint,
    format_sweep,
    sweep_connection_flexibility,
    sweep_segment_length,
)
from .robustness import RatioStats, SeedStudy, format_study, seed_sweep

__all__ = [
    "ArchPoint",
    "CLK_Q_FO4",
    "Comparison",
    "format_sweep",
    "sweep_connection_flexibility",
    "sweep_segment_length",
    "DEFAULT_DOWNSIZE_SWEEP",
    "DesignPoint",
    "FpgaVariant",
    "HeadlineSummary",
    "LUT_DELAY_FO4",
    "PAPER_HEADLINE",
    "PAPER_NAIVE",
    "RatioStats",
    "SETUP_FO4",
    "SeedStudy",
    "format_study",
    "seed_sweep",
    "TradeoffCurve",
    "TradeoffPoint",
    "VariantConfig",
    "VariantKind",
    "baseline_variant",
    "evaluate_design",
    "fig12_series",
    "format_fig12_table",
    "format_headline",
    "geomean_curve",
    "headline_summary",
    "naive_nem_variant",
    "optimized_nem_variant",
    "shared_evaluation",
    "sweep_circuit",
]
