"""Estimator contracts: shapes, determinism, scaling, losses."""

from datetime import datetime

import numpy as np
import pytest

from prb_oracle import nncore as nn
from prb_oracle.forecasters import (
    MODEL_KEYS,
    MODEL_KINDS,
    ForecastError,
    ForecasterConfig,
    ForecastResult,
    TrainingDiverged,
    calendar_features,
    fit,
    forecast_quantile,
    predict,
)
from prb_oracle.forecasters import base, deepar, lstm, sff, transformer
from prb_oracle.likelihoods import gaussian_logpdf, project_gaussian, project_studentt
from prb_oracle.nncore import AdamState, adam_step, tensor
from prb_oracle.traces import PrbSeries, TraceConfig, generate_synthetic

MODULES = {"sff": sff, "deepar": deepar, "transformer": transformer, "lstm": lstm}

TINY = dict(context_len=6, horizon=3, epochs=1, num_samples=8,
            hidden=(8, 8), rnn_layers=2, rnn_cells=8,
            model_dim=8, ff_scale=2, heads=2, blocks=1)


def tiny_config(kind, **overrides):
    return ForecasterConfig(kind=kind, **{**TINY, **overrides})


def short_series(hours=60, seed=0, constant=None):
    if constant is not None:
        values = np.full(hours, float(constant))
    else:
        values = generate_synthetic(TraceConfig(weeks=1, seed=seed)).values[:hours]
    return PrbSeries(datetime(2024, 1, 1), values, 160)


# ---------------------------------------------------------------------------
# configuration + quantiles
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ForecastError, match="unknown model kind"):
        ForecasterConfig(kind="gru")
    with pytest.raises(ForecastError, match="positive"):
        ForecasterConfig(kind="sff", horizon=0)
    with pytest.raises(ForecastError, match="divisible"):
        ForecasterConfig(kind="transformer", model_dim=30, heads=8)


def test_config_holds_fields_its_kind_does_not_read():
    # Divisibility is a transformer constraint; other kinds ignore heads.
    assert ForecasterConfig(kind="lstm", heads=3).heads == 3
    assert set(ForecasterConfig(kind="lstm", heads=3).settings()) == set(MODEL_KEYS["lstm"])


def test_forecast_quantile_linear_interpolation():
    result = ForecastResult(samples=np.array([[0.0], [10.0]]), origin=0)
    assert forecast_quantile(result, 0.5)[0] == 5.0
    assert forecast_quantile(result, 0.25)[0] == 2.5


def test_forecast_quantile_median_of_odd_column():
    col = np.array([[3.0], [1.0], [7.0]])
    assert forecast_quantile(ForecastResult(samples=col, origin=0), 0.5)[0] == 3.0


def test_forecast_quantile_monotone_in_q():
    rng = np.random.default_rng(0)
    result = ForecastResult(samples=rng.normal(50, 20, size=(100, 24)), origin=0)
    levels = np.linspace(0.05, 0.95, 19)
    curves = [forecast_quantile(result, q) for q in levels]
    for lo, hi in zip(curves[:-1], curves[1:]):
        assert np.all(lo <= hi)


def test_forecast_quantile_rejects_bad_q():
    result = ForecastResult(samples=np.zeros((2, 2)), origin=0)
    for q in (0.0, 1.0, -1.0):
        with pytest.raises(ForecastError):
            forecast_quantile(result, q)


def test_calendar_features_wrap():
    anchor = datetime(2024, 1, 1, 22)  # Monday 22:00
    feats = calendar_features(anchor, np.arange(4))
    assert np.allclose(feats[:, 0] * 23, [22, 23, 0, 1])
    assert np.allclose(feats[:, 1] * 6, [0, 0, 1, 1])
    back = calendar_features(datetime(2024, 1, 8), np.array([-1]))  # Sunday 23:00
    assert np.allclose(back[0] * [23, 6], [23, 6])


# ---------------------------------------------------------------------------
# fit/predict contracts (all four kinds)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_epochs_zero_keeps_initialization(kind):
    cfg = tiny_config(kind, epochs=0)
    model = fit(cfg, short_series())
    fresh = MODULES[kind].build(cfg)
    assert sorted(model.params.names()) == sorted(fresh.names())
    for name in fresh.names():
        assert np.array_equal(model.params[name].data, fresh[name].data)
    assert model.final_train_loss is None


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_fit_deterministic_per_seed(kind):
    a = fit(tiny_config(kind, seed=6), short_series())
    b = fit(tiny_config(kind, seed=6), short_series())
    c = fit(tiny_config(kind, seed=8), short_series())
    for name in a.params.names():
        assert np.array_equal(a.params[name].data, b.params[name].data)
    assert any(not np.array_equal(a.params[n].data, c.params[n].data)
               for n in a.params.names())


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_predict_shapes_and_determinism(kind):
    model = fit(tiny_config(kind), short_series())
    ctx = short_series(seed=2).values[:6]
    r1 = predict(model, ctx)
    r2 = predict(model, ctx)
    expected_rows = 1 if kind == "lstm" else 8
    assert r1.samples.shape == (expected_rows, 3)
    assert np.array_equal(r1.samples, r2.samples)
    assert np.all(np.isfinite(r1.samples))


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_predict_on_a_fitted_model_records_nothing(kind):
    model = fit(tiny_config(kind), short_series())
    before = list(tensor._tape)
    predict(model, short_series(seed=2).values[:6])
    assert tensor._tape == before


def test_default_config_shape_contract():
    # Untrained weights still honor the (num_samples, horizon) contract.
    series = generate_synthetic(TraceConfig(weeks=1))
    model = fit(ForecasterConfig(kind="sff", epochs=0), series)
    result = predict(model, series.values[:24])
    assert result.samples.shape == (100, 24)


def test_lstm_single_path_equals_point():
    model = fit(tiny_config("lstm"), short_series())
    result = predict(model, short_series(seed=3).values[:6])
    assert result.point is not None
    assert result.samples.shape == (1, 3)
    assert np.array_equal(result.samples[0], result.point)


def test_predict_rejects_wrong_context_length():
    model = fit(tiny_config("sff", epochs=0), short_series())
    with pytest.raises(ForecastError, match="context"):
        predict(model, np.ones(7))


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_constant_series_forecast_centers_on_level(kind):
    series = short_series(hours=84, constant=20.0)
    cfg = tiny_config(kind, context_len=12, horizon=6, epochs=8, lr=0.01,
                      num_samples=50)
    model = fit(cfg, series)
    result = predict(model, np.full(12, 20.0))
    median = forecast_quantile(result, 0.5)
    assert np.all(np.abs(median - 20.0) <= 2.0)


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_scale_field_tracks_series_magnitude(kind):
    base = PrbSeries(datetime(2024, 1, 1), short_series().values / 4.0, 160)
    doubled = PrbSeries(base.start_time, base.values * 2.0, 160)
    m1 = fit(tiny_config(kind, epochs=0), base)
    m2 = fit(tiny_config(kind, epochs=0), doubled)
    assert m2.scale == pytest.approx(2.0 * m1.scale, rel=1e-12)


def test_fit_requires_enough_data():
    tiny = PrbSeries(datetime(2024, 1, 1), np.ones(5) * 10.0, 160)
    with pytest.raises(Exception, match="too short"):
        fit(tiny_config("sff"), tiny)


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_fit_cuts_each_window_and_its_calendar_at_t0(kind):
    # A series of exactly one window, starting mid-week off midnight: the
    # one training step's loss is the loss on the window cut by hand.
    cfg = tiny_config(kind)
    start, c = datetime(2024, 1, 3, 17), cfg.context_len
    values = short_series().values[:c + cfg.horizon]
    model = fit(cfg, PrbSeries(start, values, 160))
    scale = values.mean()
    feats = {
        "ctx": calendar_features(start, np.arange(c)),
        "tgt": calendar_features(start, np.arange(c, c + cfg.horizon)),
    }
    mod = MODULES[kind]
    want = mod.loss(mod.build(cfg), cfg, values[:c] / scale, values[c:] / scale, feats).item()
    assert model.final_train_loss == want


def _windows(series, t0s, cfg):
    """Scaled (B, C) contexts, (B, H) targets and their (B, ·, 2) calendar rows."""
    scale = series.values.mean()
    ctx = np.stack([series.values[t - cfg.context_len:t] for t in t0s]) / scale
    tgt = np.stack([series.values[t:t + cfg.horizon] for t in t0s]) / scale
    feats = {
        "ctx": np.stack([calendar_features(series.start_time, np.arange(t - cfg.context_len, t))
                         for t in t0s]),
        "tgt": np.stack([calendar_features(series.start_time, np.arange(t, t + cfg.horizon))
                         for t in t0s]),
    }
    return ctx, tgt, feats


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_batch_loss_is_the_mean_of_its_window_losses(kind):
    cfg = tiny_config(kind)
    mod, series = MODULES[kind], short_series()
    params = mod.build(cfg)
    ctx, tgt, feats = _windows(series, [6, 17, 30, 44], cfg)
    batch = mod.loss(params, cfg, ctx, tgt, feats)
    assert batch.shape == ()
    got_value, got = batch.item(), nn.backward(batch, params)
    values, grads = [], []
    for b in range(4):  # each window alone, in the 1-D form
        one = mod.loss(params, cfg, ctx[b], tgt[b], {k: v[b] for k, v in feats.items()})
        values.append(one.item())
        grads.append(nn.backward(one, params))
    assert got_value == pytest.approx(np.mean(values), rel=1e-12, abs=0)
    for name in params.names():
        want = np.mean([g[name] for g in grads], axis=0)
        assert np.max(np.abs(got[name] - want)) <= 1e-12 * max(1.0, np.max(np.abs(want))), name


def _per_window_fit(cfg, series):
    """The training loop before minibatches: one Adam step per window, each
    window sliced by hand and passed in the 1-D form."""
    mod = MODULES[cfg.kind]
    c, h = cfg.context_len, cfg.horizon
    t0s = np.arange(c, len(series) - h + 1)
    scale = series.values.mean()
    scaled = series.values / scale
    calendar = calendar_features(series.start_time, np.arange(len(series)))
    params = mod.build(cfg)
    state = AdamState.for_params(params, lr=cfg.lr)
    shuffle_rng = np.random.default_rng([cfg.seed, 1])
    for _ in range(cfg.epochs):
        total = 0.0
        for t0 in t0s[shuffle_rng.permutation(len(t0s))]:
            feats = {"ctx": calendar[t0 - c:t0], "tgt": calendar[t0:t0 + h]}
            loss = mod.loss(params, cfg, scaled[t0 - c:t0], scaled[t0:t0 + h], feats)
            total += loss.item()
            adam_step(params, nn.backward(loss, params), state)
    return params, total / len(t0s)


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_fit_at_batch_size_one_is_the_per_window_loop(kind):
    cfg = tiny_config(kind, epochs=2, batch_size=1, seed=4)
    series = short_series()
    model = fit(cfg, series)
    params, final_loss = _per_window_fit(cfg, series)
    assert model.final_train_loss == final_loss
    for name in params.names():
        assert np.array_equal(model.params[name].data, params[name].data), name


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_fit_takes_one_step_per_batch(kind, monkeypatch):
    # 52 windows at batch 16 are batches of 16, 16, 16 and 4 per epoch.
    sizes, real = [], MODULES[kind].loss

    def loss(params, cfg, ctx, tgt, feats):
        sizes.append(len(ctx))
        return real(params, cfg, ctx, tgt, feats)

    monkeypatch.setattr(MODULES[kind], "loss", loss)
    model = fit(tiny_config(kind, epochs=2, batch_size=16), short_series())
    assert sizes == [16, 16, 16, 4] * 2
    assert np.isfinite(model.final_train_loss)


def test_diverged_fit_names_the_batch_windows():
    # An absurd step size overflows the weights on the first Adam step, so the
    # second batch's loss is the first non-finite one.
    cfg = tiny_config("sff", batch_size=8, lr=1e300)
    message = r"^sff: non-finite loss \S+ at epoch 0, batch of window t0s \[(\d+, ){7}\d+\]$"
    with np.errstate(all="ignore"), pytest.raises(TrainingDiverged, match=message):
        fit(cfg, short_series())


def test_training_loss_recorded_and_finite():
    model = fit(tiny_config("deepar"), short_series())
    assert model.final_train_loss is not None
    assert np.isfinite(model.final_train_loss)


# ---------------------------------------------------------------------------
# model-specific structure
# ---------------------------------------------------------------------------

def test_deepar_loss_is_sum_of_per_step_gaussian_nll():
    cfg = tiny_config("deepar")
    params = deepar.build(cfg)
    series = short_series()
    ctx = series.values[:6] / 50.0
    tgt = series.values[6:9] / 50.0
    feats = {
        "ctx": calendar_features(series.start_time, np.arange(-6, 0)),
        "tgt": calendar_features(series.start_time, np.arange(3)),
    }
    total = deepar.loss(params, cfg, ctx, tgt, feats).item()

    # Independent recomputation: one-position steps fed the true previous
    # values, float nll.
    state = deepar.start(params, cfg, ctx, feats["ctx"], 1)
    prev = np.concatenate([ctx[-1:], tgt[:-1]])
    raws = []
    for t in range(3):
        raw, state = deepar.step(params, cfg, np.array([[[prev[t], *feats["tgt"][t]]]]), state)
        raws.append(raw.data[0])
    assert total == pytest.approx(-gaussian_logpdf(tgt, project_gaussian(raws)).sum(), abs=1e-9)


def test_sff_head_layout_projects_to_one_distribution_per_step():
    cfg = tiny_config("sff")
    params = sff.build(cfg)
    ctx = np.linspace(0.5, 1.5, 6)
    dists = project_studentt(sff._forward(params, cfg, ctx).data)
    assert dists.mu.shape == dists.sigma.shape == dists.nu.shape == (3,)
    assert np.all(dists.sigma > 0) and np.all(dists.nu > 2.0)


def test_transformer_decoder_causality():
    # Changing a later decoder input must not affect earlier outputs.
    cfg = tiny_config("transformer")
    params = transformer.build(cfg)
    ctx = np.linspace(0.8, 1.2, 6)
    feats = calendar_features(datetime(2024, 1, 1), np.arange(-6, 0))
    tgt_feats = calendar_features(datetime(2024, 1, 1), np.arange(3))
    state = transformer.start(params, cfg, ctx, feats, 1)
    base_inp = np.column_stack([[1.0, 1.1, 0.9], tgt_feats])
    bumped = base_inp.copy()
    bumped[2, 0] = 5.0
    raw_a = transformer.step(params, cfg, base_inp[None], state)[0].data
    raw_b = transformer.step(params, cfg, bumped[None], state)[0].data
    assert np.allclose(raw_a[:2], raw_b[:2])
    assert not np.allclose(raw_a[2], raw_b[2])


class NoiseTable:
    """Stands in for `sample` in the shared sampler: at step t, sample s draws
    mu + sigma * noise[s, t]. Records the distributions it was handed."""

    def __init__(self, noise):
        self.noise, self.t, self.dists = noise, 0, []

    def __call__(self, dist, rng, n):
        assert n == 1
        self.dists.append(dist)
        draw = dist.mu + dist.sigma * self.noise[:, self.t]
        self.t += 1
        return draw[None, :]


def _deepar_one_by_one(params, cfg, ctx, feats, noise):
    """Sample by sample, step by step, from one warmed state: the roll-outs
    batching replaced, fed the same draws. Returns the paths and each step's
    (mu, sigma)."""
    warm = deepar.start(params, cfg, ctx, feats["ctx"], 1)
    out, moments = np.empty(noise.shape), np.empty(noise.shape + (2,))
    for s in range(noise.shape[0]):
        state, prev = warm, float(ctx[-1])
        for t in range(cfg.horizon):
            raw, state = deepar.step(params, cfg, np.array([[[prev, *feats["tgt"][t]]]]), state)
            dist = project_gaussian(raw.data[0])
            prev = out[s, t] = dist.mu + dist.sigma * noise[s, t]
            moments[s, t] = dist.mu, dist.sigma
    return out, moments


def _transformer_one_by_one(params, cfg, ctx, feats, noise):
    """Each step of each sample is the last row of a full-prefix, uncached
    `step` of that sample's own inputs, as before batching, fed the same draws."""
    start = transformer.start(params, cfg, ctx, feats["ctx"], 1)
    out, moments = np.empty(noise.shape), np.empty(noise.shape + (2,))
    for s in range(noise.shape[0]):
        prev = [float(ctx[-1])]
        for t in range(cfg.horizon):
            dec_inp = np.column_stack([prev, feats["tgt"][: t + 1]])
            raw = transformer.step(params, cfg, dec_inp[None], start)[0].data[-1]
            dist = project_studentt(raw)
            out[s, t] = dist.mu + dist.sigma * noise[s, t]
            moments[s, t] = dist.mu, dist.sigma
            prev.append(out[s, t])
    return out, moments


ONE_BY_ONE = {"deepar": _deepar_one_by_one, "transformer": _transformer_one_by_one}


def _batched_rollouts(kind, params, cfg, ctx, feats, noise, monkeypatch):
    table = NoiseTable(noise)
    monkeypatch.setattr(base, "sample", table)
    out = MODULES[kind].paths(params, cfg, ctx, feats, rng=None)
    moments = np.stack([np.stack([d.mu, d.sigma], axis=-1) for d in table.dists], axis=1)
    return out, moments


def _rollout_inputs(kind):
    cfg = tiny_config(kind, num_samples=5, horizon=4)
    feats = {
        "ctx": calendar_features(datetime(2024, 1, 1), np.arange(-6, 0)),
        "tgt": calendar_features(datetime(2024, 1, 1), np.arange(4)),
    }
    noise = np.random.default_rng(21).standard_normal((5, 4))
    params = MODULES[kind].build(cfg)
    params.freeze()  # sampled as `predict` samples a fitted model
    return cfg, params, np.linspace(0.8, 1.2, 6), feats, noise


@pytest.mark.parametrize("kind", ["deepar", "transformer"])
def test_batched_rollouts_equal_one_by_one_rollouts(kind, monkeypatch):
    cfg, params, ctx, feats, noise = _rollout_inputs(kind)
    want, want_moments = ONE_BY_ONE[kind](params, cfg, ctx, feats, noise)
    got, got_moments = _batched_rollouts(kind, params, cfg, ctx, feats, noise, monkeypatch)
    assert got.shape == (5, 4)
    assert np.max(np.abs(got_moments - want_moments)) <= 1e-12
    assert np.max(np.abs(got - want)) <= 1e-12


@pytest.mark.parametrize("kind", ["deepar", "transformer"])
def test_batched_rollouts_keep_samples_apart(kind, monkeypatch):
    cfg, params, ctx, feats, noise = _rollout_inputs(kind)
    bumped = noise.copy()
    bumped[2, 1] += 3.0
    base, _ = _batched_rollouts(kind, params, cfg, ctx, feats, noise, monkeypatch)
    moved, _ = _batched_rollouts(kind, params, cfg, ctx, feats, bumped, monkeypatch)
    others = [0, 1, 3, 4]
    assert np.array_equal(moved[others], base[others])
    assert np.array_equal(moved[2, :1], base[2, :1])
    assert np.all(moved[2, 1:] != base[2, 1:])


def test_positional_encoding_shape_and_range():
    pe = transformer.positional_encoding(10, 8)
    assert pe.shape == (10, 8)
    assert np.all(np.abs(pe) <= 1.0)
    assert not np.allclose(pe[0], pe[1])
