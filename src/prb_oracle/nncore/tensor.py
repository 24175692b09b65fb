"""Dense float64 tensors with a taped computation graph and reverse-mode autodiff.

Every operation checks shapes eagerly, computes its forward value with plain
numpy, and (while gradients are enabled) records a closure that scatters the
output adjoint back onto its inputs. `backward` topologically sorts the
recorded graph from a scalar loss and runs the closures in reverse.
"""

from __future__ import annotations

import math
from contextlib import contextmanager

import numpy as np

_grad_enabled = True


@contextmanager
def no_grad():
    """Disable graph recording (prediction-time forward passes)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class ShapeMismatch(ValueError):
    """Operand shapes incompatible for the requested op."""


def _shape_error(op: str, *shapes) -> ShapeMismatch:
    return ShapeMismatch(f"{op}: incompatible shapes {' and '.join(str(s) for s in shapes)}")


class Tensor:
    """A node in the computation graph: value, adjoint slot, and provenance."""

    __slots__ = ("data", "grad", "requires_grad", "op", "_parents", "_backprop")

    def __init__(self, data, requires_grad: bool = False, op: str = "leaf",
                 parents: tuple = (), backprop=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self.op = op
        self._parents = parents
        self._backprop = backprop

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise _shape_error("item", self.shape)
        return self.data.item()

    def __repr__(self) -> str:
        return f"Tensor(op={self.op!r}, shape={self.shape})"

    # Operator sugar; floats go through scale/add_const so the graph only
    # ever holds tensor-tensor edges.
    def __matmul__(self, other):
        return matmul(self, other)

    def __add__(self, other):
        return add_const(self, float(other)) if np.isscalar(other) else add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return add_const(self, -float(other)) if np.isscalar(other) else sub(self, other)

    def __mul__(self, other):
        return scale(self, float(other)) if np.isscalar(other) else mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return scale(self, 1.0 / float(other)) if np.isscalar(other) else div(self, other)

    def __neg__(self):
        return scale(self, -1.0)


def constant(data) -> Tensor:
    """Leaf that participates in forward math but never needs a gradient."""
    return Tensor(data)


def _node(data, op: str, parents: tuple, backprop) -> Tensor:
    if _grad_enabled:
        return Tensor(data, op=op, parents=parents, backprop=backprop)
    return Tensor(data, op=op)


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    t.grad = g if t.grad is None else t.grad + g


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Product over the last two axes; a may carry a leading batch axis.

    (S, m, k) @ (k, n) applies one shared right operand to every batch entry;
    (S, m, k) @ (S, k, n) multiplies entry by entry.
    """
    nd_a, nd_b = a.data.ndim, b.data.ndim
    if not (2 <= nd_a <= 3 and (nd_b == 2 or (nd_b == 3 and nd_a == 3 and a.shape[0] == b.shape[0]))
            and a.shape[-1] == b.shape[-2]):
        raise _shape_error("matmul", a.shape, b.shape)
    out_data = a.data @ b.data

    def backprop(g):
        _accumulate(a, g @ _swap_last(b.data))
        if nd_a > nd_b:  # one right operand shared by every batch entry
            _accumulate(b, a.data.reshape(-1, a.shape[-1]).T @ g.reshape(-1, g.shape[-1]))
        else:
            _accumulate(b, _swap_last(a.data) @ g)

    return _node(out_data, "matmul", (a, b), backprop)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise add; also accepts a (1, n) bias row broadcast over rows of a."""
    bias_row = (
        a.data.ndim == 2 and b.data.ndim == 2
        and b.shape[0] == 1 and b.shape[1] == a.shape[1] and a.shape[0] != 1
    )
    if not bias_row and a.shape != b.shape:
        raise _shape_error("add", a.shape, b.shape)
    out_data = a.data + b.data

    def backprop(g):
        _accumulate(a, g)
        _accumulate(b, g.sum(axis=0, keepdims=True) if bias_row else g)

    return _node(out_data, "add", (a, b), backprop)


def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise _shape_error("sub", a.shape, b.shape)
    out_data = a.data - b.data

    def backprop(g):
        _accumulate(a, g)
        _accumulate(b, -g)

    return _node(out_data, "sub", (a, b), backprop)


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise _shape_error("mul", a.shape, b.shape)
    out_data = a.data * b.data

    def backprop(g):
        _accumulate(a, g * b.data)
        _accumulate(b, g * a.data)

    return _node(out_data, "mul", (a, b), backprop)


def div(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise _shape_error("div", a.shape, b.shape)
    out_data = a.data / b.data

    def backprop(g):
        _accumulate(a, g / b.data)
        _accumulate(b, -g * a.data / (b.data * b.data))

    return _node(out_data, "div", (a, b), backprop)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    out_data = a.data * c

    def backprop(g):
        _accumulate(a, g * c)

    return _node(out_data, "scale", (a,), backprop)


def add_const(a: Tensor, c: float) -> Tensor:
    out_data = a.data + float(c)

    def backprop(g):
        _accumulate(a, g)

    return _node(out_data, "add_const", (a,), backprop)


def concat(tensors: list[Tensor], axis: int = 0) -> Tensor:
    if not tensors:
        raise ShapeMismatch("concat: no inputs")
    ndim = tensors[0].data.ndim
    if any(t.data.ndim != ndim for t in tensors) or not 0 <= axis < ndim:
        raise _shape_error(f"concat(axis={axis})", *[t.shape for t in tensors])
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backprop(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * ndim
            idx[axis] = slice(lo, hi)
            _accumulate(t, g[tuple(idx)])

    return _node(out_data, "concat", tuple(tensors), backprop)


def narrow(a: Tensor, axis: int, start: int, size: int) -> Tensor:
    """Contiguous slice of length `size` along `axis`."""
    if not 0 <= axis < a.data.ndim or start < 0 or start + size > a.shape[axis]:
        raise _shape_error(f"narrow(axis={axis}, start={start}, size={size})", a.shape)
    idx = [slice(None)] * a.data.ndim
    idx[axis] = slice(start, start + size)
    idx = tuple(idx)
    out_data = a.data[idx]

    def backprop(g):
        full = np.zeros_like(a.data)
        full[idx] = g
        _accumulate(a, full)

    return _node(out_data, "narrow", (a,), backprop)


def transpose(a: Tensor) -> Tensor:
    """Swap the last two axes of a 2-D or batched 3-D tensor."""
    if a.data.ndim not in (2, 3):
        raise _shape_error("transpose", a.shape)
    out_data = _swap_last(a.data).copy()

    def backprop(g):
        _accumulate(a, _swap_last(g))

    return _node(out_data, "transpose", (a,), backprop)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    if int(np.prod(shape)) != a.data.size:
        raise _shape_error(f"reshape to {shape}", a.shape)
    out_data = a.data.reshape(shape)

    def backprop(g):
        _accumulate(a, g.reshape(a.shape))

    return _node(out_data, "reshape", (a,), backprop)


def sum_all(a: Tensor) -> Tensor:
    out_data = a.data.sum()

    def backprop(g):
        _accumulate(a, np.full(a.shape, float(g)))

    return _node(out_data, "sum_all", (a,), backprop)


def mean_all(a: Tensor) -> Tensor:
    return scale(sum_all(a), 1.0 / a.data.size)


def tanh(a: Tensor) -> Tensor:
    out_data = np.tanh(a.data)

    def backprop(g):
        _accumulate(a, g * (1.0 - out_data * out_data))

    return _node(out_data, "tanh", (a,), backprop)


def sigmoid(a: Tensor) -> Tensor:
    out_data = _sigmoid(a.data)

    def backprop(g):
        _accumulate(a, g * out_data * (1.0 - out_data))

    return _node(out_data, "sigmoid", (a,), backprop)


def relu(a: Tensor) -> Tensor:
    out_data = np.maximum(a.data, 0.0)

    def backprop(g):
        _accumulate(a, g * (a.data > 0.0))

    return _node(out_data, "relu", (a,), backprop)


def softplus(a: Tensor) -> Tensor:
    out_data = np.logaddexp(0.0, a.data)

    def backprop(g):
        _accumulate(a, g * _sigmoid(a.data))

    return _node(out_data, "softplus", (a,), backprop)


def exp(a: Tensor) -> Tensor:
    out_data = np.exp(a.data)

    def backprop(g):
        _accumulate(a, g * out_data)

    return _node(out_data, "exp", (a,), backprop)


def log(a: Tensor) -> Tensor:
    out_data = np.log(a.data)

    def backprop(g):
        _accumulate(a, g / a.data)

    return _node(out_data, "log", (a,), backprop)


def sqrt(a: Tensor) -> Tensor:
    out_data = np.sqrt(a.data)

    def backprop(g):
        _accumulate(a, g / (2.0 * out_data))

    return _node(out_data, "sqrt", (a,), backprop)


def square(a: Tensor) -> Tensor:
    out_data = a.data * a.data

    def backprop(g):
        _accumulate(a, g * 2.0 * a.data)

    return _node(out_data, "square", (a,), backprop)


def softmax(a: Tensor) -> Tensor:
    """Softmax over the last axis of a 2-D or batched 3-D tensor."""
    if a.data.ndim not in (2, 3):
        raise _shape_error("softmax", a.shape)
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=-1, keepdims=True)

    def backprop(g):
        inner = (g * out_data).sum(axis=-1, keepdims=True)
        _accumulate(a, out_data * (g - inner))

    return _node(out_data, "softmax", (a,), backprop)


def _swap_last(x: np.ndarray) -> np.ndarray:
    """View with the last two axes swapped; `.T` is the cheap 2-D case."""
    return x.T if x.ndim == 2 else x.swapaxes(-1, -2)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


# ---------------------------------------------------------------------------
# composites
# ---------------------------------------------------------------------------

def attention(q: Tensor, k: Tensor, v: Tensor, mask: np.ndarray | None = None) -> Tensor:
    """Scaled dot-product attention softmax(q k^T / sqrt(d) + mask) v.

    q, k and v are 2-D, or 3-D with one shared leading batch axis; the
    additive mask has the shape of the scores.
    """
    nd = q.data.ndim
    if nd not in (2, 3) or k.data.ndim != nd or v.data.ndim != nd \
            or q.shape[-1] != k.shape[-1] or k.shape[-2] != v.shape[-2] \
            or not q.shape[:-2] == k.shape[:-2] == v.shape[:-2]:
        raise _shape_error("attention", q.shape, k.shape, v.shape)
    scores = scale(matmul(q, transpose(k)), 1.0 / math.sqrt(q.shape[-1]))
    if mask is not None:
        scores = add(scores, constant(mask))
    return matmul(softmax(scores), v)


def causal_mask(n: int) -> np.ndarray:
    """Additive mask hiding future positions in self-attention."""
    return np.triu(np.full((n, n), -1e9), k=1)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Row-wise layer normalization with learned (1, d) gain and bias."""
    n, d = x.shape
    if gain.shape != (1, d) or bias.shape != (1, d):
        raise _shape_error("layer_norm", x.shape, gain.shape, bias.shape)
    ones_row = constant(np.ones((1, d)))
    mean_col = matmul(x, constant(np.full((d, 1), 1.0 / d)))
    centered = sub(x, matmul(mean_col, ones_row))
    var_col = matmul(square(centered), constant(np.full((d, 1), 1.0 / d)))
    inv_std = div(constant(np.ones((n, 1))), sqrt(add_const(var_col, eps)))
    normed = mul(centered, matmul(inv_std, ones_row))
    return add(mul(normed, matmul(constant(np.ones((n, 1))), gain)), bias)


# ---------------------------------------------------------------------------
# reverse pass
# ---------------------------------------------------------------------------

def _topo_order(loss: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order  # parents precede children


def backward(loss: Tensor, params=None):
    """Run reverse-mode accumulation from a scalar loss.

    Populates `.grad` on every node reachable from the loss. When a
    ParameterSet is given, returns {name: gradient array}, with zeros for
    parameters the loss does not depend on.
    """
    if loss.data.size != 1:
        raise ShapeMismatch(f"backward: loss must be scalar, got shape {loss.shape}")
    if params is not None:
        for p in params.tensors():
            p.grad = None
    order = _topo_order(loss)
    for node in order:
        node.grad = None
    loss.grad = np.ones_like(loss.data)
    for node in reversed(order):
        if node._backprop is not None and node.grad is not None:
            node._backprop(node.grad)
    if params is not None:
        return {
            name: (p.grad if p.grad is not None else np.zeros_like(p.data))
            for name, p in params.items()
        }
    return None
