"""Deterministic LSTM baseline: one recurrent layer over the context, then an
affine head emitting all horizon values at once, trained on squared error."""

from __future__ import annotations

import numpy as np

from .. import nncore as nn
from ..nncore import ParameterSet, lstm_cell


def build(config) -> ParameterSet:
    params = ParameterSet(seed=[config.seed, 0])
    params.weight("wx0", 1, 4 * config.rnn_cells)
    params.weight("wh0", config.rnn_cells, 4 * config.rnn_cells)
    params.bias("bg0", 4 * config.rnn_cells)
    params.weight("w_head", config.rnn_cells, config.horizon)
    params.bias("b_head", config.horizon)
    return params


def _forward(params, config, ctx_scaled: np.ndarray) -> nn.Tensor:
    """Point forecasts (B, 1, horizon) of (B, C) contexts."""
    hc = np.zeros((len(ctx_scaled), 1, 2 * config.rnn_cells))
    x = nn.constant(ctx_scaled[:, :, None])
    h, _ = lstm_cell(x, hc, params["wx0"], params["wh0"], params["bg0"])
    return nn.affine(nn.narrow(h, 1, config.context_len - 1, 1), params["w_head"], params["b_head"])


def loss(params, config, ctx_scaled, tgt_scaled, feats) -> nn.Tensor:
    """Mean squared error over all B·H values: the mean of the per-window MSEs."""
    pred = _forward(params, config, ctx_scaled)
    diff = nn.sub(pred, nn.constant(tgt_scaled[:, None]))
    sq = nn.square(diff)
    return nn.scale(nn.sum_all(sq), 1.0 / sq.data.size)


def paths(params, config, ctx_scaled, feats, rng) -> np.ndarray:
    return _forward(params, config, ctx_scaled).data[:, 0].copy()
