"""Transformer estimator: self-attention encoder, single-block decoder,
Student-t head.

The encoder ingests the embedded context; the decoder applies masked
self-attention, attention over the encoder output, and a position-wise
feed-forward layer. Training is teacher-forced; forecasting samples
autoregressively, all samples as rows of one batch, with the decoder's
self-attention keys and values cached per sample and head.
"""

from __future__ import annotations

import math

import numpy as np

from .. import nncore as nn
from ..likelihoods import project_studentt, sample, studentt_nll_graph
from ..nncore import ParameterSet

N_FEATURES = 3  # previous (encoder: current) value, hour-of-day, day-of-week


def build(config) -> ParameterSet:
    d = config.model_dim
    ff = config.ff_scale * d
    params = ParameterSet(seed=[config.seed, 0])
    for side in ("enc", "dec"):
        params.weight(f"{side}_embed", N_FEATURES, d)
        params.bias(f"{side}_embed_b", d)
    for i in range(config.blocks):
        _attention_params(params, f"enc{i}_attn", d)
        _ff_params(params, f"enc{i}", d, ff)
        _ln_params(params, f"enc{i}_ln1", d)
        _ln_params(params, f"enc{i}_ln2", d)
    _attention_params(params, "dec_self", d)
    _attention_params(params, "dec_cross", d)
    _ff_params(params, "dec", d, ff)
    for name in ("dec_ln1", "dec_ln2", "dec_ln3"):
        _ln_params(params, name, d)
    params.weight("head", d, 3)
    params.bias("head_b", 3)
    return params


def _attention_params(params, prefix, d):
    for proj in ("wq", "wk", "wv", "wo"):
        params.weight(f"{prefix}_{proj}", d, d)


def _ff_params(params, prefix, d, ff):
    params.weight(f"{prefix}_ff1", d, ff)
    params.bias(f"{prefix}_ff1_b", ff)
    params.weight(f"{prefix}_ff2", ff, d)
    params.bias(f"{prefix}_ff2_b", d)


def _ln_params(params, prefix, d):
    params.add(f"{prefix}_g", np.ones((1, d)))
    params.bias(f"{prefix}_b", d)


def positional_encoding(length: int, d: int) -> np.ndarray:
    """Sinusoidal position table, shape (length, d)."""
    pos = np.arange(length, dtype=np.float64)[:, None]
    i = np.arange(d, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, 2.0 * np.floor(i / 2.0) / d)
    return np.where(i % 2 == 0, np.sin(angle), np.cos(angle))


def split_heads(x: nn.Tensor, heads: int) -> nn.Tensor:
    """Heads onto the batch axis: (..., t, d) to (B·heads, t, d/heads), B = 1 for 2-D x."""
    t, d = x.shape[-2:]
    batch = x.data.size // (t * d) * heads
    return nn.transpose(nn.reshape(nn.transpose(x), (batch, d // heads, t)))


def merge_heads(x: nn.Tensor, shape: tuple[int, ...]) -> nn.Tensor:
    """Inverse of `split_heads`: (B·heads, t, d/heads) back to `shape` (..., t, d)."""
    return nn.transpose(nn.reshape(nn.transpose(x), (*shape[:-2], shape[-1], shape[-2])))


def project_kv(params, prefix, x_kv, heads) -> tuple[nn.Tensor, nn.Tensor]:
    """Attention keys and values of `x_kv` (2-D rows or a leading batch axis),
    split into heads."""
    return (split_heads(nn.matmul(x_kv, params[f"{prefix}_wk"]), heads),
            split_heads(nn.matmul(x_kv, params[f"{prefix}_wv"]), heads))


def multi_head_attention(params, prefix, x_q, k, v, heads, mask=None) -> nn.Tensor:
    """Attention of the projected queries of `x_q` over split keys `k` and
    values `v` (from `project_kv`), all heads in one batched call. A 2-D
    `mask` applies to every head."""
    q = nn.matmul(x_q, params[f"{prefix}_wq"])
    a = nn.attention(split_heads(q, heads), k, v, mask)
    return nn.matmul(merge_heads(a, q.shape), params[f"{prefix}_wo"])


def _self_attention(params, prefix, x, heads, mask=None) -> nn.Tensor:
    return multi_head_attention(params, prefix, x, *project_kv(params, prefix, x, heads), heads, mask)


def _feed_forward(params, prefix, x) -> nn.Tensor:
    inner = nn.relu(nn.add(nn.matmul(x, params[f"{prefix}_ff1"]), params[f"{prefix}_ff1_b"]))
    return nn.add(nn.matmul(inner, params[f"{prefix}_ff2"]), params[f"{prefix}_ff2_b"])


def _sublayer(params, ln_prefix, x, out) -> nn.Tensor:
    return nn.layer_norm(nn.add(x, out), params[f"{ln_prefix}_g"], params[f"{ln_prefix}_b"])


def _embed(params, config, side: str, inp: np.ndarray, positions: np.ndarray) -> nn.Tensor:
    """Embed input rows; `positions` is their positional table, or one
    (1, d) row shared by every input row."""
    x = nn.add(nn.matmul(nn.constant(inp), params[f"{side}_embed"]), params[f"{side}_embed_b"])
    # sqrt(d) embedding gain keeps the value signal from drowning in the
    # positional table.
    x = nn.scale(x, math.sqrt(config.model_dim))
    return nn.add(x, nn.constant(positions))


def encode(params, config, ctx_scaled: np.ndarray, cov_ctx: np.ndarray) -> nn.Tensor:
    inp = np.column_stack([ctx_scaled, cov_ctx])
    x = _embed(params, config, "enc", inp, positional_encoding(config.context_len, config.model_dim))
    for i in range(config.blocks):
        a = _self_attention(params, f"enc{i}_attn", x, config.heads)
        x = _sublayer(params, f"enc{i}_ln1", x, a)
        x = _sublayer(params, f"enc{i}_ln2", x, _feed_forward(params, f"enc{i}", x))
    return x


def _decoder_tail(params, config, y, self_attn, cross_kv) -> nn.Tensor:
    """Everything after the decoder's self-attention, row by row, through
    the head: raw outputs (rows, 3)."""
    y = _sublayer(params, "dec_ln1", y, self_attn)
    a2 = multi_head_attention(params, "dec_cross", y, *cross_kv, config.heads)
    y = _sublayer(params, "dec_ln2", y, a2)
    y = _sublayer(params, "dec_ln3", y, _feed_forward(params, "dec", y))
    return nn.add(nn.matmul(y, params["head"]), params["head_b"])


def decode(params, config, dec_inp: np.ndarray, first_pos: int, enc_out: nn.Tensor) -> nn.Tensor:
    """Decoder raw head outputs (len(dec_inp), 3); dec_inp rows are
    [previous value, hour, day-of-week]."""
    m = dec_inp.shape[0]
    table = positional_encoding(first_pos + m, config.model_dim)[first_pos:]
    y = _embed(params, config, "dec", dec_inp, table)
    a = _self_attention(params, "dec_self", y, config.heads, nn.causal_mask(m))
    return _decoder_tail(params, config, y, a, project_kv(params, "dec_cross", enc_out, config.heads))


def decode_step(params, config, inp: np.ndarray, position: np.ndarray, cache, cross_kv):
    """Decode the next position of every sample at once.

    inp is (S, 3), one [previous value, hour, day-of-week] row per sample, at
    the (1, d) positional row `position`. `cache` holds the self-attention
    keys and values of the earlier positions, split per sample and head as
    `project_kv` returns them, (S·heads, t, d/heads) each, or is None at the
    first position; cross_kv is `project_kv` of the shared encoder output.
    Returns the raw head outputs (S, 3) and the cache extended to
    (S·heads, t+1, d/heads). Row s equals the last row of `decode` on sample
    s's own prefix, as causal masking keeps earlier rows fixed.
    """
    y = _embed(params, config, "dec", inp, position)
    y_seq = nn.reshape(y, (inp.shape[0], 1, config.model_dim))  # one query per sample
    k, v = project_kv(params, "dec_self", y_seq, config.heads)
    if cache is not None:
        k, v = nn.concat([cache[0], k], axis=1), nn.concat([cache[1], v], axis=1)
    a = multi_head_attention(params, "dec_self", y_seq, k, v, config.heads)
    return _decoder_tail(params, config, y, nn.reshape(a, y.shape), cross_kv), (k, v)


def loss(params, config, ctx_scaled, tgt_scaled, feats) -> nn.Tensor:
    enc_out = encode(params, config, ctx_scaled, feats["ctx"])
    prev = np.concatenate([[ctx_scaled[-1]], tgt_scaled[:-1]])
    dec_inp = np.column_stack([prev, feats["tgt"]])
    raw = decode(params, config, dec_inp, config.context_len, enc_out)
    return studentt_nll_graph(raw, tgt_scaled)


def paths(params, config, ctx_scaled, feats, rng) -> np.ndarray:
    """Ancestral roll-outs of all samples at once, one row per sample: the
    context is encoded once, then each step decodes one new row per sample."""
    enc_out = encode(params, config, ctx_scaled, feats["ctx"])
    cross_kv = project_kv(params, "dec_cross", enc_out, config.heads)
    table = positional_encoding(config.context_len + config.horizon, config.model_dim)
    n = config.num_samples
    out = np.empty((n, config.horizon))
    prev = np.full(n, float(ctx_scaled[-1]))
    cache = None
    for t in range(config.horizon):
        inp = np.column_stack([prev, np.broadcast_to(feats["tgt"][t], (n, 2))])
        pos = config.context_len + t
        raw, cache = decode_step(params, config, inp, table[pos:pos + 1], cache, cross_kv)
        prev = out[:, t] = sample(project_studentt(raw.data), rng, 1)[0]
    return out
