"""Experiment orchestration: configs, the run loop, logging, plots, CLI."""

from ..controller import replay_neve_decisions
from .config import (AuxSpec, DatasetSpec, ExperimentConfig, OptimizerSpec,
                     SchedulerSpec, config_from_dict, config_from_file,
                     merge_overrides)
from .runner import (CSV_HEADER, RunRecord, RunResult, RunSummary, emit_csv,
                     emit_plots, load_dataset, records_to_csv, run_training,
                     summarize_results)
from .svg import line_chart

__all__ = [
    "AuxSpec", "DatasetSpec", "ExperimentConfig", "OptimizerSpec", "SchedulerSpec",
    "config_from_dict", "config_from_file", "merge_overrides",
    "CSV_HEADER", "RunRecord", "RunResult", "RunSummary", "emit_csv",
    "emit_plots", "load_dataset", "records_to_csv", "replay_neve_decisions",
    "run_training", "summarize_results", "line_chart",
]
