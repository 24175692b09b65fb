"""Shared fit/predict contract for the four PRB-load estimators."""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime, timedelta

import numpy as np

from ..likelihoods import sample
from ..nncore import ParameterSet, AdamState, adam_step, backward
from ..traces import PrbSeries, make_windows

MODEL_KINDS = ("sff", "deepar", "transformer", "lstm")
PROBABILISTIC_KINDS = ("sff", "deepar", "transformer")

# The only keys each kind's config block holds; context_len and horizon are top-level.
_COMMON_KEYS = ("epochs", "batch_size", "lr")
MODEL_KEYS = {
    "sff": (*_COMMON_KEYS, "num_samples", "hidden"),
    "deepar": (*_COMMON_KEYS, "num_samples", "rnn_layers", "rnn_cells"),
    "transformer": (*_COMMON_KEYS, "num_samples", "model_dim", "ff_scale", "heads", "blocks"),
    "lstm": (*_COMMON_KEYS, "rnn_cells"),
}


class ForecastError(ValueError):
    """Invalid forecaster configuration or inputs."""


class TrainingDiverged(RuntimeError):
    """Training produced a non-finite loss."""


@dataclass(frozen=True)
class ForecasterConfig:
    """Hyperparameters for one estimator; defaults mirror the benchmark setup."""

    kind: str
    context_len: int = 24
    horizon: int = 24
    epochs: int = 5
    batch_size: int = 1
    num_samples: int = 100
    hidden: tuple[int, ...] = (40, 40)  # sff
    rnn_layers: int = 2                 # deepar
    rnn_cells: int = 40                 # deepar + lstm
    model_dim: int = 32                 # transformer
    ff_scale: int = 4
    heads: int = 8
    blocks: int = 2
    lr: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "hidden", tuple(self.hidden))
        if self.kind not in MODEL_KINDS:
            raise ForecastError(f"unknown model kind {self.kind!r}, expected one of {MODEL_KINDS}")
        # Messages name the field as the config file spells it: models.<kind>.<key>,
        # but the top-level context_len and horizon.
        where = f"models.{self.kind}."
        for key in ("context_len", "horizon", "batch_size", "num_samples", "rnn_layers",
                    "rnn_cells", "model_dim", "ff_scale", "heads", "blocks"):
            if (value := getattr(self, key)) < 1:
                field = key if key in ("context_len", "horizon") else where + key
                raise ForecastError(f"{field} must be positive, got {value}")
        if any(h < 1 for h in self.hidden):
            raise ForecastError(f"{where}hidden sizes must be positive, got {list(self.hidden)}")
        if self.epochs < 0:
            raise ForecastError(f"{where}epochs must be >= 0, got {self.epochs}")
        if not (np.isfinite(self.lr) and self.lr > 0):
            raise ForecastError(f"{where}lr must be finite and > 0, got {self.lr}")
        if self.kind == "transformer" and self.model_dim % self.heads != 0:
            raise ForecastError(
                f"{where}model_dim {self.model_dim} not divisible by {where}heads {self.heads}"
            )

    def settings(self) -> dict:
        """This kind's config block: its `MODEL_KEYS` and their values."""
        return {key: getattr(self, key) for key in MODEL_KEYS[self.kind]}


@dataclass(frozen=True)
class ForecastResult:
    """Monte Carlo representation of one window's predictive distribution.

    samples is (num_samples, horizon) in PRBs; deterministic models carry a
    single row and also expose it as `point`.
    """

    samples: np.ndarray
    origin: int
    point: np.ndarray | None = None

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=np.float64)
        object.__setattr__(self, "samples", s)
        if s.ndim != 2 or s.shape[0] < 1:
            raise ForecastError(f"samples must be (num_samples, horizon), got {s.shape}")
        if not np.all(np.isfinite(s)):
            raise ForecastError("forecast samples contain non-finite values")


@dataclass(frozen=True)
class TrainedModel:
    """Immutable snapshot of a fitted estimator; `loss_curve` holds each
    epoch's mean training loss per window."""

    config: ForecasterConfig
    params: ParameterSet
    scale: float
    train_end_time: datetime
    loss_curve: tuple[float, ...]

    @property
    def final_train_loss(self) -> float | None:
        """The last epoch's mean loss; None when no epoch ran."""
        return self.loss_curve[-1] if self.loss_curve else None


def calendar_features(anchor: datetime, offsets: np.ndarray) -> np.ndarray:
    """Hour-of-day/23 and day-of-week/6 for anchor + offset hours, shape (n, 2)."""
    base = anchor.weekday() * 24 + anchor.hour
    h = base + np.asarray(offsets, dtype=np.int64)
    hour = (h % 24) / 23.0
    dow = ((h // 24) % 7) / 6.0
    return np.stack([hour, dow], axis=1)


def _model_module(kind: str):
    from . import sff, deepar, transformer, lstm

    return {"sff": sff, "deepar": deepar, "transformer": transformer, "lstm": lstm}[kind]


# deepar and transformer are autoregressive. Each supplies its network as
# `start(params, config, ctx_scaled (B, C), cov_ctx (B, C, 2)) -> state`, the state
# of B contexts (deepar: each layer's last `lstm_cell` [h | c], (B·num_samples, 1, 2n);
# transformer: the encoder's cross keys and values, and no self-attention cache yet), and
# `step(params, config, inp (B, m, 3), state) -> (raw heads (B, m, n), state)`.
def ancestral_paths(params, config, ctx_scaled, feats, rng, project) -> np.ndarray:
    """Ancestral roll-outs of one context (1, C), all num_samples paths as rows of
    one batch: each one-position `step` is followed by one draw per path from
    `project` of its raw heads, the path's next input. One (S, 1, 3) input
    array serves every step: the previous draws, then the hour's calendar row."""
    mod = _model_module(config.kind)
    state = mod.start(params, config, ctx_scaled, feats["ctx"])
    out = np.empty((config.num_samples, config.horizon))
    inp = np.empty((config.num_samples, 1, 3))
    inp[:, 0, 0] = ctx_scaled[0, -1]
    for t in range(config.horizon):
        inp[:, 0, 1:] = feats["tgt"][0, t]
        raw, state = mod.step(params, config, inp, state)
        inp[:, 0, 0] = out[:, t] = sample(project(raw.data[:, 0]), rng, 1)[0]
    return out


FINAL_LR_FRACTION = 0.1  # of the configured lr, reached at the last step


def learning_rate(lr: float, step: int, steps: int) -> float:
    """The rate of Adam step `step` (0-based) of a fit that takes `steps`.

    A linear warm-up over the first 10 % of the steps (rounded up) reaches
    `lr` at its last step (Goyal et al. 2017); a cosine decay then brings it
    to FINAL_LR_FRACTION x `lr` at the fit's last step (Loshchilov & Hutter
    2017). A one-step fit takes its step at `lr`.
    """
    warmup = -(-steps // 10)
    if step < warmup:
        return lr * (step + 1) / warmup
    cosine = 0.5 * (1.0 + math.cos(math.pi * (step + 1 - warmup) / (steps - warmup)))
    return lr * (FINAL_LR_FRACTION + (1.0 - FINAL_LR_FRACTION) * cosine)


def fit(config: ForecasterConfig, train: PrbSeries) -> TrainedModel:
    """Train one estimator on a PRB series.

    Runs `epochs` shuffled passes over all sliding windows, one Adam step per
    `batch_size` windows (the last batch of an epoch may be short), minimizing
    the model's loss per window: its likelihood loss, squared error for the
    lstm baseline. Each step's rate follows `learning_rate` over all the
    fit's steps. Inputs are divided by the training-series mean;
    deterministic per config.seed. The scaled series and its calendar table
    are built once; a batch is a fancy index of its windows' t0s into both.
    The loss curve holds each epoch's mean loss per window.
    """
    mod = _model_module(config.kind)
    t0s = make_windows(train, config.context_len, config.horizon)
    scale = float(train.values.mean())
    if scale <= 0.0:
        raise ForecastError("training series mean must be positive")
    scaled = train.values / scale
    calendar = calendar_features(train.start_time, np.arange(len(train)))
    params = mod.build(config)
    state = AdamState.for_params(params)
    shuffle_rng = np.random.default_rng([config.seed, 1])
    ctx_offsets = np.arange(-config.context_len, 0)
    tgt_offsets = np.arange(config.horizon)
    batch_starts = range(0, len(t0s), config.batch_size)
    steps = config.epochs * len(batch_starts)

    loss_curve = []
    for epoch in range(config.epochs):
        order = shuffle_rng.permutation(len(t0s))
        epoch_loss = 0.0
        for lo in batch_starts:
            batch = t0s[order[lo:lo + config.batch_size]]
            ctx, tgt = batch[:, None] + ctx_offsets, batch[:, None] + tgt_offsets
            feats = {"ctx": calendar[ctx], "tgt": calendar[tgt]}
            loss = mod.loss(params, config, scaled[ctx], scaled[tgt], feats)
            value = loss.item()
            if not np.isfinite(value):
                raise TrainingDiverged(
                    f"{config.kind}: non-finite loss {value} at epoch {epoch}, "
                    f"batch of window t0s {batch.tolist()}"
                )
            grads = backward(loss, params)
            adam_step(params, grads, state, learning_rate(config.lr, state.step, steps))
            epoch_loss += value * len(batch)
        loss_curve.append(epoch_loss / len(t0s))
    params.freeze()
    end = train.start_time + timedelta(hours=len(train))
    return TrainedModel(
        config=config,
        params=params,
        scale=scale,
        train_end_time=end,
        loss_curve=tuple(loss_curve),
    )


def predict(
    model: TrainedModel,
    context: np.ndarray,
    start: datetime | None = None,
    rng: np.random.Generator | None = None,
    origin: int = 0,
) -> ForecastResult:
    """Forecast the horizon following `context`.

    `start` is the timestamp of the first predicted hour (defaults to the
    hour right after the training data, the natural continuation); it feeds
    the calendar covariates of the recurrent and attention models. With the
    default rng the result is a pure function of (model, context, start).
    `fit` froze the parameters into constants, so the forward records nothing.
    """
    config = model.config
    context = np.asarray(context, dtype=np.float64)
    if context.shape != (config.context_len,):
        raise ForecastError(
            f"context shape {context.shape} != ({config.context_len},)"
        )
    bad = np.argmin(np.isfinite(context))  # the first non-finite value, if there is one
    if not math.isfinite(context[bad]):
        raise ForecastError(f"context must be finite, got {context[bad]} at index {bad}")
    if start is None:
        start = model.train_end_time
    if rng is None:
        rng = np.random.default_rng([config.seed, 2])
    calendar = calendar_features(start, np.arange(-config.context_len, config.horizon))[None]
    feats = {"ctx": calendar[:, :config.context_len], "tgt": calendar[:, config.context_len:]}
    mod = _model_module(config.kind)
    result = mod.paths(model.params, config, context[None] / model.scale, feats, rng)
    if config.kind not in PROBABILISTIC_KINDS:
        point = result[0] * model.scale
        return ForecastResult(samples=point[None, :].copy(), origin=origin, point=point)
    return ForecastResult(samples=result * model.scale, origin=origin)


def forecast_quantile(result: ForecastResult, q: float) -> np.ndarray:
    """Per-timestep empirical quantile, linear interpolation at (n-1)q."""
    if not 0.0 < q < 1.0:
        raise ForecastError(f"quantile level must be in (0,1), got {q}")
    return np.quantile(result.samples, q, axis=0)
