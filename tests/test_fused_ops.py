"""The fused nncore ops against the composites of primitives they replace.

Each reference below is the composite the model code used before the op
existed, kept here only as an oracle: the fused op's value and its input
gradients must match it to float rounding.
"""

import math

import numpy as np
import pytest

from conftest import max_rel_err
from prb_oracle import nncore as nn
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
