"""The four PRB-load estimators behind one fit/predict contract."""

from .base import (
    MODEL_KEYS,
    MODEL_KINDS,
    PROBABILISTIC_KINDS,
    ForecastError,
    ForecasterConfig,
    ForecastResult,
    TrainedModel,
    TrainingDiverged,
    calendar_features,
    fit,
    forecast_quantile,
    predict,
)

__all__ = [
    "MODEL_KEYS",
    "MODEL_KINDS",
    "PROBABILISTIC_KINDS",
    "ForecastError",
    "ForecasterConfig",
    "ForecastResult",
    "TrainedModel",
    "TrainingDiverged",
    "calendar_features",
    "fit",
    "forecast_quantile",
    "predict",
]
