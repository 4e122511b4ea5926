"""Experiment harness: one entry point per paper table and figure."""

from repro.experiments.capacity import fig3, fig4, fig9, fig10
from repro.experiments.compiler_metrics import overheads, storage_report, table4
from repro.experiments.figures import FIGURES, Figure
from repro.experiments.latency_tolerance import (
    LATENCY_GRID,
    SWEEP_SUBSET,
    fig11,
    fig12,
    fig13,
    fig14,
    max_tolerable_latency,
    normalized_sweep,
    render_sweep_table,
    sweep_requests,
)
from repro.experiments.report import ExperimentResult, geomean, mean, render_table
from repro.experiments.runner import (
    Runner,
    RunRecord,
    SimRequest,
    baseline_config,
    default_cache_dir,
    sweep_config,
    table2_config,
)
from repro.experiments.static_tables import fig2, table1, table2

__all__ = [
    "ExperimentResult",
    "FIGURES",
    "Figure",
    "LATENCY_GRID",
    "RunRecord",
    "Runner",
    "SWEEP_SUBSET",
    "SimRequest",
    "baseline_config",
    "default_cache_dir",
    "fig2",
    "fig3",
    "fig4",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "geomean",
    "max_tolerable_latency",
    "mean",
    "normalized_sweep",
    "overheads",
    "render_sweep_table",
    "render_table",
    "storage_report",
    "sweep_config",
    "sweep_requests",
    "table1",
    "table2",
    "table2_config",
    "table4",
]
