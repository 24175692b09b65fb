"""The fused nncore ops, and batched-head attention, against the composites
of primitives they replace.

Each reference below is the composite the model code used before the op or
layout existed, kept here only as an oracle: the new path's value and its
input gradients must match it to float rounding.
"""

import json
import math
import tracemalloc

import numpy as np
import pytest

from conftest import max_rel_err
from prb_oracle import nncore as nn
from prb_oracle.cli import default_config_path
from prb_oracle.forecasters import ForecasterConfig, deepar, transformer
from prb_oracle.nncore import AdamState, adam_step
from prb_oracle.rapp import ExperimentConfig
from prb_oracle.nncore.tensor import _LANCZOS_COEFFS, _LANCZOS_G

TOL = 1e-12


def composite_lstm_cell(x, hc, wx, wh, b):
    """The old deepar cell on separate h and c, repacked as [h | c]."""
    n = wh.shape[0]
    h, c = nn.narrow(hc, 1, 0, n), nn.narrow(hc, 1, n, n)
    gates = nn.add(nn.add(nn.matmul(x, wx), nn.matmul(h, wh)), b)
    i = nn.sigmoid(nn.narrow(gates, 1, 0, n))
    f = nn.sigmoid(nn.narrow(gates, 1, n, n))
    g = nn.tanh(nn.narrow(gates, 1, 2 * n, n))
    o = nn.sigmoid(nn.narrow(gates, 1, 3 * n, n))
    c_new = nn.add(nn.mul(f, c), nn.mul(i, g))
    h_new = nn.mul(o, nn.tanh(c_new))
    return nn.concat([h_new, c_new], axis=1)


def composite_layer_norm(x, gain, bias, eps=1e-5):
    """The old 13-op layer norm built from matmuls against ones."""
    n, d = x.shape
    ones_row = nn.constant(np.ones((1, d)))
    mean_col = nn.matmul(x, nn.constant(np.full((d, 1), 1.0 / d)))
    centered = nn.sub(x, nn.matmul(mean_col, ones_row))
    var_col = nn.matmul(nn.square(centered), nn.constant(np.full((d, 1), 1.0 / d)))
    inv_std = nn.div(nn.constant(np.ones((n, 1))), nn.sqrt(nn.add_const(var_col, eps)))
    normed = nn.mul(centered, nn.matmul(inv_std, ones_row))
    return nn.add(nn.mul(normed, nn.matmul(nn.constant(np.ones((n, 1))), gain)), bias)


def composite_log_gamma(z):
    """The old chain-rule Lanczos log-gamma: its gradient came from the graph."""
    t = nn.add_const(z, _LANCZOS_G - 0.5)
    series = nn.constant(np.full(z.shape, _LANCZOS_COEFFS[0]))
    for k, c in enumerate(_LANCZOS_COEFFS[1:], start=1):
        series = nn.add(series, nn.div(nn.constant(np.full(z.shape, c)),
                                       nn.add_const(z, float(k - 1))))
    lead = nn.mul(nn.add_const(z, -0.5), nn.log(t))
    return nn.add_const(nn.add(nn.sub(lead, t), nn.log(series)), 0.5 * math.log(2.0 * math.pi))


def _value_and_grads(op, inputs, probe):
    leaves = [nn.Tensor(x.copy(), requires_grad=True) for x in inputs]
    out = op(*leaves)
    nn.backward(nn.sum_all(nn.mul(out, nn.constant(probe))))
    return out.data, [leaf.grad for leaf in leaves]


def _inputs(kind, rng):
    if kind == "lstm_cell":
        b, n, k = 5, 6, 3
        return [rng.normal(size=(b, k)), rng.normal(size=(b, 2 * n)),
                rng.normal(scale=0.5, size=(k, 4 * n)), rng.normal(scale=0.5, size=(n, 4 * n)),
                rng.normal(scale=0.5, size=(1, 4 * n))]
    if kind == "layer_norm":
        return [rng.normal(loc=2.0, scale=3.0, size=(7, 8)), rng.normal(size=(1, 8)),
                rng.normal(size=(1, 8))]
    return [rng.uniform(0.5, 40.0, size=(6, 3))]


CASES = {
    "lstm_cell": (nn.lstm_cell, composite_lstm_cell),
    "layer_norm": (nn.layer_norm, composite_layer_norm),
    "lgamma": (nn.lgamma, composite_log_gamma),
}


@pytest.mark.parametrize("kind", sorted(CASES))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fused_op_matches_its_composite(kind, seed):
    rng = np.random.default_rng(seed)
    inputs = _inputs(kind, rng)
    fused, composite = CASES[kind]
    probe = rng.normal(size=composite(*map(nn.constant, inputs)).shape)
    want, want_grads = _value_and_grads(composite, inputs, probe)
    got, got_grads = _value_and_grads(fused, inputs, probe)
    assert got.shape == want.shape
    assert max_rel_err(got, want) <= TOL
    for g, w in zip(got_grads, want_grads):
        assert max_rel_err(g, w) <= TOL


def test_fused_ops_are_single_nodes():
    rng = np.random.default_rng(3)
    for kind, (fused, _) in CASES.items():
        out = fused(*map(nn.constant, _inputs(kind, rng)))
        assert out.op == kind
        assert all(parent.op == "leaf" for parent in out._parents)


def test_fused_op_shape_errors():
    def ones(*shape):
        return nn.constant(np.ones(shape))

    with pytest.raises(nn.ShapeMismatch, match="lstm_cell"):
        nn.lstm_cell(ones(2, 3), ones(2, 6), ones(3, 16), ones(4, 16), ones(1, 16))
    with pytest.raises(nn.ShapeMismatch, match="lstm_cell"):
        nn.lstm_cell(ones(2, 3), ones(2, 8), ones(2, 16), ones(4, 16), ones(1, 16))
    with pytest.raises(nn.ShapeMismatch, match="layer_norm"):
        nn.layer_norm(ones(2, 3), ones(1, 4), ones(1, 3))


# ---------------------------------------------------------------------------
# what a taped training step keeps
# ---------------------------------------------------------------------------

def test_backward_frees_interior_gradients_and_keeps_leaf_ones():
    rng = np.random.default_rng(8)
    inputs = _inputs("lstm_cell", rng)
    leaves = [nn.Tensor(x, requires_grad=True) for x in inputs]
    x, hc, wx, wh, b = leaves
    first = nn.lstm_cell(x, hc, wx, wh, b)
    second = nn.lstm_cell(x, first, wx, wh, b)
    loss = nn.sum_all(nn.square(second))
    nn.backward(loss)
    for interior in (first, second, loss):
        assert interior.grad is None and interior._parents is None
    for leaf in leaves:
        assert leaf.grad is not None and leaf.grad.shape == leaf.shape and np.any(leaf.grad != 0.0)


def test_a_batch_32_deepar_step_keeps_a_small_tape():
    # The lstm_cell nodes keep no gate arrays and backward frees each interior
    # gradient once used: one training step at default.json shapes and batch
    # size peaks near 3 MB (stored gates and kept gradients: about 12 MB).
    default = ExperimentConfig.from_dict(json.loads(default_config_path().read_text()))
    cfg = default.models["deepar"]
    assert cfg.batch_size == 32
    rng = np.random.default_rng(9)
    ctx = rng.uniform(0.5, 1.5, (cfg.batch_size, cfg.context_len))
    tgt = rng.uniform(0.5, 1.5, (cfg.batch_size, cfg.horizon))
    feats = {"ctx": rng.uniform(size=(*ctx.shape, 2)), "tgt": rng.uniform(size=(*tgt.shape, 2))}
    params = deepar.build(cfg)
    state = AdamState.for_params(params, lr=cfg.lr)
    tracemalloc.start()
    try:
        adam_step(params, nn.backward(deepar.loss(params, cfg, ctx, tgt, feats), params), state)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4e6, f"peak {peak / 1e6:.1f} MB"


# ---------------------------------------------------------------------------
# multi-head attention: heads on the batch axis against per-head slices
# ---------------------------------------------------------------------------

HEADS, DIM = 4, 8


def composite_multi_head_attention(params, x_q, x_kv, heads, mask=None):
    """The old per-head path: narrow each head out of q, k and v on the last
    axis, one attention call per head, and a concat to join them."""
    q, k, v = (nn.matmul(x, params[f"a_{w}"]) for x, w in ((x_q, "wq"), (x_kv, "wk"), (x_kv, "wv")))
    axis = q.data.ndim - 1
    size = q.shape[axis] // heads
    outs = [nn.attention(*(nn.narrow(t, axis, h * size, size) for t in (q, k, v)), mask)
            for h in range(heads)]
    return nn.matmul(nn.concat(outs, axis=axis), params["a_wo"])


def _named(weights):
    return dict(zip(("a_wq", "a_wk", "a_wv", "a_wo"), weights))


def _split_cache_attention(x_new, x_prev, *weights):
    """The cached decoder's layout: earlier positions' keys and values cached split,
    the new position's appended on the time axis."""
    params = _named(weights)
    cache = transformer.project_kv(params, "a", x_prev, HEADS)
    k, v = transformer.project_kv(params, "a", x_new, HEADS)
    k, v = nn.concat([cache[0], k], axis=1), nn.concat([cache[1], v], axis=1)
    return transformer.multi_head_attention(params, "a", x_new, k, v, HEADS)


MASK = nn.causal_mask(5)
MHA_CASES = {
    # name: (input shapes before the four weights, batched-head path, per-head oracle)
    "causal_2d": (
        [(5, DIM)],
        lambda x, *w: transformer.multi_head_attention(
            _named(w), "a", x, *transformer.project_kv(_named(w), "a", x, HEADS), HEADS, MASK),
        lambda x, *w: composite_multi_head_attention(_named(w), x, x, HEADS, MASK),
    ),
    "batched_3d": (
        [(3, 2, DIM), (3, 4, DIM)],
        lambda xq, xkv, *w: transformer.multi_head_attention(
            _named(w), "a", xq, *transformer.project_kv(_named(w), "a", xkv, HEADS), HEADS),
        lambda xq, xkv, *w: composite_multi_head_attention(_named(w), xq, xkv, HEADS),
    ),
    "split_cache": (
        [(3, 1, DIM), (3, 4, DIM)],
        _split_cache_attention,
        lambda xn, xp, *w: composite_multi_head_attention(
            _named(w), xn, nn.concat([xp, xn], axis=1), HEADS),
    ),
}


@pytest.mark.parametrize("case", sorted(MHA_CASES))
@pytest.mark.parametrize("seed", [0, 1])
def test_multi_head_attention_matches_per_head_slices(case, seed):
    rng = np.random.default_rng(seed)
    shapes, batched, per_head = MHA_CASES[case]
    inputs = [rng.normal(size=s) for s in shapes]
    inputs += [rng.normal(scale=0.5, size=(DIM, DIM)) for _ in range(4)]
    probe = rng.normal(size=per_head(*map(nn.constant, inputs)).shape)
    want, want_grads = _value_and_grads(per_head, inputs, probe)
    got, got_grads = _value_and_grads(batched, inputs, probe)
    assert got.shape == want.shape
    assert max_rel_err(got, want) <= TOL
    for g, w in zip(got_grads, want_grads):
        assert max_rel_err(g, w) <= TOL


def test_multi_head_attention_has_no_per_head_nodes():
    rng = np.random.default_rng(4)
    shapes = [(5, DIM)] + [(DIM, DIM)] * 4
    leaves = [nn.Tensor(rng.normal(size=s), requires_grad=True) for s in shapes]
    out = MHA_CASES["causal_2d"][1](*leaves)
    ops, stack = [], [out]
    while stack:
        node = stack.pop()
        ops.append(node.op)
        stack.extend(node._parents)
    assert ops.count("softmax") == 1
    assert "narrow" not in ops and "concat" not in ops


@pytest.mark.parametrize("kind", ["deepar", "transformer"])
def test_step_batches_sequences_and_chains_positions(kind):
    # One network step for training and sampling: a batch of B sequences
    # gives the rows of B single-sequence calls, and chained one-position
    # steps give the rows of one multi-position (teacher-forced) step.
    cfg = ForecasterConfig(kind=kind, context_len=4, horizon=4, num_samples=3, rnn_cells=DIM,
                           model_dim=DIM, ff_scale=2, heads=HEADS, blocks=1)
    mod = {"deepar": deepar, "transformer": transformer}[kind]
    params = mod.build(cfg)
    inp = np.random.default_rng(5).uniform(0.0, 1.0, (3, 4, 3))
    ctx, cov = np.linspace(0.8, 1.2, 4), np.random.default_rng(6).uniform(0.0, 1.0, (4, 2))
    whole, _ = mod.step(params, cfg, inp, mod.start(params, cfg, ctx, cov, 3))
    one = mod.start(params, cfg, ctx, cov, 1)
    singles = [mod.step(params, cfg, seq[None], one)[0].data for seq in inp]
    state, steps = mod.start(params, cfg, ctx, cov, 3), []
    for t in range(4):
        raw, state = mod.step(params, cfg, inp[:, t:t + 1], state)
        steps.append(raw.data)
    n = whole.shape[1]
    assert whole.shape == (3 * 4, n) and raw.shape == (3, n)
    assert np.max(np.abs(whole.data - np.concatenate(singles))) <= 1e-12
    assert np.max(np.abs(np.stack(steps, axis=1).reshape(-1, n) - whole.data)) <= 1e-12
    if kind == "transformer":
        cache = state[1]
        assert cache[0].shape == cache[1].shape == (3 * HEADS, 4, DIM // HEADS)
