"""DeepAR-style estimator: stacked LSTM with a Gaussian head.

Training runs teacher-forced over context + horizon and sums the Gaussian
negative log-likelihood over the prediction range; forecasting draws
independent ancestral roll-outs where each sampled value feeds the next
step's input. The roll-outs advance together, one row per sample.
"""

from __future__ import annotations

import numpy as np

from .. import nncore as nn
from ..likelihoods import gaussian_nll_graph, project_gaussian, sample
from ..nncore import ParameterSet

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


def _zero_state(config):
    """One packed [h | c] row of zeros per layer."""
    return [nn.constant(np.zeros((1, 2 * config.rnn_cells))) for _ in range(config.rnn_layers)]


def _step(params, config, x: nn.Tensor, state):
    """Advance all layers one step; returns the new state."""
    new_state = []
    for layer, hc in enumerate(state):
        inp = nn.narrow(new_state[-1], 1, 0, config.rnn_cells) if layer else x
        new_state.append(nn.lstm_cell(inp, hc, params[f"wx{layer}"], params[f"wh{layer}"],
                                      params[f"bg{layer}"]))
    return new_state


def _input_at(value, cov_row: np.ndarray) -> nn.Tensor:
    """Input rows [value, hour, day-of-week], one per entry of `value`."""
    value = np.atleast_1d(value)
    return nn.constant(np.column_stack([value, np.broadcast_to(cov_row, (value.size, 2))]))


def loss(params, config, ctx_scaled, tgt_scaled, feats) -> nn.Tensor:
    values = np.concatenate([ctx_scaled, tgt_scaled])
    cov = np.vstack([feats["ctx"], feats["tgt"]])
    state = _zero_state(config)
    head_rows = []
    total = config.context_len + config.horizon
    for t in range(1, total):
        state = _step(params, config, _input_at(values[t - 1], cov[t]), state)
        if t >= config.context_len:
            head_rows.append(nn.narrow(state[-1], 1, 0, config.rnn_cells))
    hidden = nn.concat(head_rows, axis=0)
    raw = nn.add(nn.matmul(hidden, params["w_head"]), params["b_head"])
    return gaussian_nll_graph(raw, tgt_scaled)


def paths(params, config, ctx_scaled, feats, rng) -> np.ndarray:
    cov_ctx, cov_tgt = feats["ctx"], feats["tgt"]
    # Warm the recurrent state on the observed context once, then tile it:
    # every sample path rolls forward from a copy of it, as one row.
    state = _zero_state(config)
    for t in range(1, config.context_len):
        state = _step(params, config, _input_at(ctx_scaled[t - 1], cov_ctx[t]), state)
    n = config.num_samples
    state = [nn.constant(np.repeat(hc.data, n, axis=0)) for hc in state]

    out = np.empty((n, config.horizon))
    prev = np.full(n, float(ctx_scaled[-1]))
    for t in range(config.horizon):
        state = _step(params, config, _input_at(prev, cov_tgt[t]), state)
        top = nn.narrow(state[-1], 1, 0, config.rnn_cells)
        raw = nn.add(nn.matmul(top, params["w_head"]), params["b_head"])
        prev = out[:, t] = sample(project_gaussian(raw.data), rng, 1)[0]
    return out
