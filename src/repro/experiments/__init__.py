"""``repro.experiments`` — the harness regenerating every table and figure
of the paper's evaluation section (run ``python -m repro.experiments``)."""

from .figures import figure_13, figure_14, figure_15, figure_16, figure_17
from .registry import EXPERIMENT_DESCRIPTIONS, EXPERIMENTS
from .reporting import format_series, format_table
from .runner import (BUDGETS, Budget, FAST, FULL, MODEL_ORDER, RunResult,
                     STANDARD, build_detector, dataset_hyperparameters,
                     overall_average, run_detector, run_matrix)
from .tables import (TableResult, table_3, table_4, table_5, table_6,
                     table_7, table_8)

__all__ = [
    "BUDGETS", "Budget", "EXPERIMENTS", "EXPERIMENT_DESCRIPTIONS", "FAST",
    "FULL", "MODEL_ORDER", "RunResult", "STANDARD", "TableResult",
    "build_detector", "dataset_hyperparameters", "figure_13", "figure_14",
    "figure_15", "figure_16", "figure_17", "format_series", "format_table",
    "overall_average", "run_detector", "run_matrix", "table_3", "table_4",
    "table_5", "table_6", "table_7", "table_8",
]
