"""Tour of the reverse-mode autodiff core that trains every estimator.

Builds small graphs, checks a gradient against central finite differences,
and runs a few Adam steps on a toy regression. Run:

    python demos/02_autodiff_engine.py
"""

import numpy as np

from prb_oracle import nncore as nn
from prb_oracle.nncore import AdamState, adam_step, backward, init_params

# A scalar graph: loss = softplus(x * y) with x = 1.5, y = -0.5
x = nn.Tensor(np.array([[1.5]]), requires_grad=True)
y = nn.Tensor(np.array([[-0.5]]), requires_grad=True)
loss = nn.sum_all(nn.softplus(nn.mul(x, y)))
backward(loss)
print(f"softplus(x*y) at (1.5, -0.5) = {loss.item():.6f}")
print(f"d/dx = {x.grad[0, 0]:+.6f}   d/dy = {y.grad[0, 0]:+.6f}")

# Finite-difference cross-check on a two-layer softplus network.
params = init_params([3, 8, 1], seed=0)
inputs = np.random.default_rng(1).normal(size=(5, 3))
target = np.random.default_rng(2).normal(size=(5, 1))


def forward():
    h = nn.softplus(nn.matmul(nn.constant(inputs), params["w0"], params["b0"]))
    out = nn.matmul(h, params["w1"], params["b1"])
    sq = nn.square(nn.sub(out, nn.constant(target)))
    return nn.scale(nn.sum_all(sq), 1.0 / sq.data.size)


grads = backward(forward(), params)
w = params["w0"].data
h = 1e-4
flat_index = (1, 2)
orig = w[flat_index]
w[flat_index] = orig + h
up = forward().item()
w[flat_index] = orig - h
down = forward().item()
w[flat_index] = orig
numeric = (up - down) / (2 * h)
print(f"\nanalytic dL/dw0[1,2] = {grads['w0'][flat_index]:+.8f}")
print(f"numeric  dL/dw0[1,2] = {numeric:+.8f}")

# Adam drives the toy loss down.
state = AdamState.for_params(params)
print("\nAdam on the toy regression:")
for step in range(1, 101):
    loss = forward()
    adam_step(params, backward(loss, params), state, 0.05)
    if step % 25 == 0:
        print(f"  step {step:3d}  loss {loss.item():.5f}")

# The one-node attention the transformer uses, here with a single head.
q = nn.constant(np.random.default_rng(3).normal(size=(4, 8)))
out = nn.attention(q, q, q, causal=True)
print(f"\ncausal self-attention output shape: {out.shape}")
