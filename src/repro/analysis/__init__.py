"""Analysis and figure regeneration: series building, ASCII plots,
one result contract for every scenario driver, and one function per
paper figure."""

from repro.analysis.convergence import (
    SawtoothMetrics,
    convergence_time,
    sawtooth_metrics,
)
from repro.analysis.figures import (
    FigureData,
    ScenarioResult,
    figure1,
    figure3,
    figure4,
    figure5,
    figure6,
    run_scenario,
)
from repro.analysis.sensitivity import Elasticity, sensitivity_analysis
from repro.analysis.series import Series, series_from_table
from repro.analysis.text_plots import line_plot, scatter_plot

__all__ = [
    "Elasticity",
    "FigureData",
    "SawtoothMetrics",
    "ScenarioResult",
    "Series",
    "convergence_time",
    "figure1",
    "figure3",
    "figure4",
    "figure5",
    "figure6",
    "line_plot",
    "run_scenario",
    "sawtooth_metrics",
    "scatter_plot",
    "sensitivity_analysis",
    "series_from_table",
]
