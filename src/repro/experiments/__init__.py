"""Per-figure/table experiment drivers (see DESIGN.md's experiment index)."""

from repro.experiments.capacity import PAPER_TABLE3, CapacityRow, figure1_breakdown, table3
from repro.experiments.discussion import DiscussionEstimates, estimates
from repro.experiments.energy import COMPARISONS, EpiReport, epi_report
from repro.experiments.evaluation import (
    CONFIG_KEYS,
    FULL,
    QUICK,
    CellResult,
    Fidelity,
    bins,
    current_fidelity,
    evaluation_matrix,
    instruction_budget,
    workload_order,
)
from repro.experiments.parallel import default_jobs
from repro.experiments.performance import PerfReport, perf_report
from repro.experiments.reliability import figure2, figure8, figure18
from repro.experiments.report import format_barchart, format_percent, format_table, geomean
from repro.experiments.runner import (
    DEFAULT_SCALE,
    RunSpec,
    adaptive_instructions,
    build_system,
    run,
    run_matrix,
)
from repro.experiments.traffic import (
    BandwidthReport,
    TrafficReport,
    bandwidth_report,
    traffic_report,
)

__all__ = [
    "PAPER_TABLE3",
    "CapacityRow",
    "figure1_breakdown",
    "table3",
    "DiscussionEstimates",
    "estimates",
    "COMPARISONS",
    "EpiReport",
    "epi_report",
    "CONFIG_KEYS",
    "FULL",
    "QUICK",
    "CellResult",
    "Fidelity",
    "bins",
    "current_fidelity",
    "evaluation_matrix",
    "instruction_budget",
    "workload_order",
    "default_jobs",
    "PerfReport",
    "perf_report",
    "figure2",
    "figure8",
    "figure18",
    "format_barchart",
    "format_percent",
    "format_table",
    "geomean",
    "DEFAULT_SCALE",
    "RunSpec",
    "adaptive_instructions",
    "build_system",
    "run",
    "run_matrix",
    "BandwidthReport",
    "TrafficReport",
    "bandwidth_report",
    "traffic_report",
]
