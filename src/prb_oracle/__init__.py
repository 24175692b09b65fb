"""Probabilistic PRB-load forecasting and power-saving simulation.

Pipeline: hourly PRB traces -> probabilistic estimators (simple feed-forward,
DeepAR-style recurrent, transformer) plus a deterministic LSTM baseline ->
percentile allocation policies -> provisioning and power-saving analysis
under a normalized base-station power model.
"""

from .decision import AllocationPlan, AllocationPolicy, allocate
from .forecasters import (
    ForecasterConfig,
    ForecastResult,
    TrainedModel,
    fit,
    forecast_quantile,
    predict,
)
from .likelihoods import GaussianParams, StudentTParams
from .power import PowerParams, load_ratio, p_out, power_saving, total_power
from .rapp import ExperimentConfig, emit_report, run_pipeline
from .traces import (
    PrbSeries,
    TraceConfig,
    WindowPair,
    generate_synthetic,
    load_csv,
    make_windows,
    save_csv,
    split,
)

__version__ = "0.1.0"

__all__ = [
    "AllocationPlan",
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
    "WindowPair",
    "allocate",
    "emit_report",
    "fit",
    "forecast_quantile",
    "generate_synthetic",
    "load_csv",
    "load_ratio",
    "make_windows",
    "p_out",
    "power_saving",
    "predict",
    "run_pipeline",
    "save_csv",
    "split",
    "total_power",
]
