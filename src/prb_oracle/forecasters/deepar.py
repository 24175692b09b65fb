"""DeepAR-style estimator: stacked LSTM with a Gaussian head.

`start` warms each layer's packed [h | c] state (B, 1, 2n) on the context and
`step` advances it to raw heads (B, m, 2), each with one `lstm_cell` node per
layer; `base.teacher_forced_loss` and `base.ancestral_paths` drive both.
"""

from __future__ import annotations

import numpy as np

from .. import nncore as nn
from ..likelihoods import gaussian_nll_graph, project_gaussian
from ..nncore import ParameterSet
from .base import ancestral_paths, as_batch, teacher_forced_loss

N_FEATURES = 3  # previous value, hour-of-day, day-of-week
HEAD = (gaussian_nll_graph, project_gaussian)


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


def start(params, config, ctx_scaled, cov_ctx, rows: int):
    """Each layer's [h | c] state (B, 1, 2n), warmed on the B contexts (a one-hour
    context leaves nothing to warm on); `rows` > 1 repeats each context's row
    as constants, so only the one-row state keeps its graph."""
    ctx, cov = as_batch(ctx_scaled, cov_ctx)
    state = [nn.constant(np.zeros((len(ctx), 1, 2 * config.rnn_cells)))] * config.rnn_layers
    warm = np.concatenate([ctx[:, :-1, None], cov[:, 1:]], axis=2)
    if warm.shape[1]:
        _, state = _layers(params, config, warm, state)
    if rows > 1:
        state = [nn.constant(np.repeat(hc.data, rows, axis=0)) for hc in state]
    return state


def _layers(params, config, inp: np.ndarray, state):
    """Each layer once over inp (B, T, 3): the top h (B, T, n) and the last state."""
    x, new_state = nn.constant(inp), []
    for layer, hc in enumerate(state):
        out = nn.lstm_cell(x, hc, params[f"wx{layer}"], params[f"wh{layer}"], params[f"bg{layer}"])
        new_state.append(nn.narrow(out, 1, inp.shape[1] - 1, 1))
        x = nn.narrow(out, 2, 0, config.rnn_cells)
    return x, new_state


def step(params, config, inp: np.ndarray, state):
    """Raw heads (B, m, 2) for the m new positions of inp (B, m, 3), and the
    state (B, 1, 2n) per layer after them."""
    hidden, state = _layers(params, config, inp, state)
    return nn.affine(hidden, params["w_head"], params["b_head"]), state


def loss(params, config, ctx_scaled, tgt_scaled, feats) -> nn.Tensor:
    return teacher_forced_loss(params, config, ctx_scaled, tgt_scaled, feats)


def paths(params, config, ctx_scaled, feats, rng) -> np.ndarray:
    return ancestral_paths(params, config, ctx_scaled, feats, rng)
