"""DeepAR-style estimator: stacked LSTM with a Gaussian head.

`loss` runs each layer once over the teacher-forced warm-up and horizon: one
`lstm_cell` node, its h (B, T, n) (Salinas et al. 2020). For sampling, `start`
warms each layer's last [h | c] (B, 1, 2n), a plain array, on the context and
`step` advances it to raw heads (B, m, 2); `base.ancestral_paths` drives both.
"""

from __future__ import annotations

import numpy as np

from .. import nncore as nn
from ..likelihoods import gaussian_nll_graph, project_gaussian
from ..nncore import ParameterSet
from .base import ancestral_paths

N_FEATURES = 3  # previous value, hour-of-day, day-of-week


def build(config) -> ParameterSet:
    params = ParameterSet(seed=[config.seed, 0])
    for layer in range(config.rnn_layers):
        n_in = N_FEATURES if layer == 0 else config.rnn_cells
        params.weight(f"wx{layer}", n_in, 4 * config.rnn_cells)
        params.weight(f"wh{layer}", config.rnn_cells, 4 * config.rnn_cells)
        params.bias(f"bg{layer}", 4 * config.rnn_cells)
    params.weight("w_head", config.rnn_cells, 2)
    params.bias("b_head", 2)
    return params


def _zero_state(config, batch: int) -> list[np.ndarray]:
    return [np.zeros((batch, 1, 2 * config.rnn_cells))] * config.rnn_layers


def _layers(params, inp: np.ndarray, state):
    """Each layer once over inp (B, T, 3), or the h below, from its state: the
    top h node (B, T, n) and each layer's last [h | c] (B, 1, 2n) array."""
    x, last = nn.constant(inp), []
    for layer, hc in enumerate(state):
        x, hc = nn.lstm_cell(x, hc, params[f"wx{layer}"], params[f"wh{layer}"], params[f"bg{layer}"])
        last.append(hc)
    return x, last


def loss(params, config, ctx_scaled, tgt_scaled, feats) -> nn.Tensor:
    """Gaussian NLL per window, teacher-forced over one unrolled sequence: the
    C - 1 warm-up and H horizon positions, each fed the true previous value
    and the calendar row of the hour it predicts, from a zero state. The NLL
    of the B·H horizon steps divided by B."""
    prev = np.concatenate([ctx_scaled, tgt_scaled[:, :-1]], axis=1)
    cov = np.concatenate([feats["ctx"][:, 1:], feats["tgt"]], axis=1)
    inp = np.concatenate([prev[..., None], cov], axis=2)
    hidden, _ = _layers(params, inp, _zero_state(config, len(inp)))
    horizon = nn.narrow(hidden, 1, config.context_len - 1, config.horizon)
    raw = nn.affine(horizon, params["w_head"], params["b_head"])
    return nn.scale(gaussian_nll_graph(raw, tgt_scaled), 1.0 / len(tgt_scaled))


def start(params, config, ctx_scaled, cov_ctx):
    """Each layer's [h | c] state warmed on the B contexts (B, C), with their
    calendar rows (B, C, 2), and repeated to num_samples rows per context:
    (B·S, 1, 2n) arrays. A one-hour context leaves nothing to warm on."""
    state = _zero_state(config, len(ctx_scaled))
    warm = np.concatenate([ctx_scaled[:, :-1, None], cov_ctx[:, 1:]], axis=2)
    if warm.shape[1]:
        _, state = _layers(params, warm, state)
    return [np.repeat(hc, config.num_samples, axis=0) for hc in state]


def step(params, config, inp: np.ndarray, state):
    """Raw heads (B, m, 2) for the m new positions of inp (B, m, 3), and the
    state (B, 1, 2n) per layer after them."""
    hidden, state = _layers(params, inp, state)
    return nn.affine(hidden, params["w_head"], params["b_head"]), state


def paths(params, config, ctx_scaled, feats, rng) -> np.ndarray:
    return ancestral_paths(params, config, ctx_scaled, feats, rng, project_gaussian)
