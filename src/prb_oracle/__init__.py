"""Probabilistic PRB-load forecasting and power-saving simulation.

Pipeline: hourly PRB traces -> probabilistic estimators (simple feed-forward,
DeepAR-style recurrent, transformer) plus a deterministic LSTM baseline ->
percentile allocation policies -> provisioning and power-saving analysis
under a normalized base-station power model.
"""

from .decision import AllocationPolicy, allocate
from .forecasters import (
    ForecasterConfig,
    ForecastResult,
    TrainedModel,
    fit,
    forecast_quantile,
    predict,
)
from .likelihoods import GaussianParams, StudentTParams
from .power import PowerParams, power_saving, total_power
from .rapp import ExperimentConfig, emit_report, run_pipeline
from .traces import PrbSeries, TraceConfig, generate_synthetic, load_csv, save_csv, split

__version__ = "0.1.0"

__all__ = [
    "AllocationPolicy",
    "ExperimentConfig",
    "ForecastResult",
    "ForecasterConfig",
    "GaussianParams",
    "PowerParams",
    "PrbSeries",
    "StudentTParams",
    "TraceConfig",
    "TrainedModel",
    "allocate",
    "emit_report",
    "fit",
    "forecast_quantile",
    "generate_synthetic",
    "load_csv",
    "power_saving",
    "predict",
    "run_pipeline",
    "save_csv",
    "split",
    "total_power",
]
