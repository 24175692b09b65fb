"""Shared test helpers: finite-difference gradient checking, the primitive
op catalogue, and loop-based metric oracles."""

from __future__ import annotations

import inspect
from math import fsum

import numpy as np

from prb_oracle import nncore as nn
from prb_oracle.nncore import tensor

# ---------------------------------------------------------------------------
# finite-difference gradient checking
# ---------------------------------------------------------------------------

def numeric_grad(f, x: np.ndarray, h: float = 1e-4) -> np.ndarray:
    """Central finite differences of scalar f() w.r.t. x, mutated in place."""
    if not x.flags.c_contiguous:
        raise ValueError("numeric_grad perturbs x through a flat view: x must be C-contiguous")
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f()
        flat[i] = orig - h
        fm = f()
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * h)
    return grad


def max_rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Worst relative disagreement, with an absolute floor near zero."""
    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float(np.max(np.abs(analytic - numeric) / denom))


def check_op_gradients(make_output, inputs: list[np.ndarray], rtol: float = 1e-4,
                       rng: np.random.Generator | None = None) -> float:
    """FD-check every input of an op.

    make_output(leaves) -> output tensor; the check reduces it to a scalar
    with fixed random weights so all output entries influence the loss.
    """
    rng = rng or np.random.default_rng(99)
    leaves = [nn.Tensor(x, requires_grad=True) for x in inputs]
    probe = nn.constant(rng.normal(size=make_output(leaves).shape))

    def loss_value() -> float:
        return nn.sum_all(nn.mul(make_output(leaves), probe)).item()

    loss = nn.sum_all(nn.mul(make_output(leaves), probe))
    nn.backward(loss)
    worst = 0.0
    for leaf, x in zip(leaves, inputs):
        analytic = leaf.grad if leaf.grad is not None else np.zeros_like(x)
        numeric = numeric_grad(loss_value, x)
        worst = max(worst, max_rel_err(analytic, numeric))
    assert worst < rtol, f"gradient mismatch: max rel err {worst}"
    return worst


def primitive_cases() -> list[tuple[str, callable, list[np.ndarray]]]:
    """(name, builder, inputs) for every primitive and composite op.

    Inputs avoid relu/division kinks so central differences are valid.
    """
    rng = np.random.default_rng(1234)

    def mat(*shape, low=0.6, high=2.0, signed=True):
        m = rng.uniform(low, high, size=shape)
        if signed:
            m *= rng.choice([-1.0, 1.0], size=shape)
        return m

    a34, b34 = mat(3, 4), mat(3, 4)
    hc = mat(3, 1, 8, low=0.1, high=0.9)  # lstm_cell's start state, a plain array
    return [
        ("matmul", lambda t: nn.matmul(t[0], t[1]), [mat(3, 4), mat(4, 2)]),
        ("add", lambda t: nn.add(t[0], t[1]), [a34.copy(), b34.copy()]),
        ("matmul_bias", lambda t: nn.matmul(t[0], t[1], t[2]), [mat(3, 4), mat(4, 2), mat(1, 2)]),
        ("sub", lambda t: nn.sub(t[0], t[1]), [a34.copy(), b34.copy()]),
        ("mul", lambda t: nn.mul(t[0], t[1]), [a34.copy(), b34.copy()]),
        ("div", lambda t: nn.div(t[0], t[1]), [mat(3, 4), mat(3, 4, signed=False)]),
        ("scale", lambda t: nn.scale(t[0], -1.7), [mat(3, 4)]),
        ("add_const", lambda t: nn.add_const(t[0], 2.5), [mat(3, 4)]),
        ("narrow", lambda t: nn.narrow(t[0], 1, 1, 2), [mat(3, 5)]),
        ("reshape", lambda t: nn.reshape(t[0], (2, 6)), [mat(3, 4)]),
        ("sum_all", lambda t: nn.sum_all(t[0]), [mat(3, 4)]),
        ("relu", lambda t: nn.relu(t[0]), [mat(3, 4)]),
        ("softplus", lambda t: nn.softplus(t[0]), [mat(3, 4)]),
        ("log", lambda t: nn.log(t[0]), [mat(3, 4, signed=False)]),
        ("square", lambda t: nn.square(t[0]), [mat(3, 4)]),
        ("attention", lambda t: nn.attention(t[0], t[1], t[2]), [mat(3, 4), mat(5, 4), mat(5, 2)]),
        ("attention_masked", lambda t: nn.attention(t[0], t[1], t[2], causal=True),
         [mat(3, 4), mat(3, 4), mat(3, 2)]),
        ("layer_norm", lambda t: nn.layer_norm(t[0], t[1], t[2]),
         [mat(3, 4), mat(1, 4), mat(1, 4)]),
        # The h node: B=3 rows, T=3 positions, k=2 inputs, n=4 cells, from a non-zero
        # [h | c] start state; x needs a gradient, as deepar's upper layer's does.
        ("lstm_cell", lambda t: nn.lstm_cell(t[0], hc, t[1], t[2], t[3])[0],
         [mat(3, 3, 2), mat(2, 16, low=0.1, high=0.8), mat(4, 16, low=0.1, high=0.8),
          mat(1, 16, low=0.1, high=0.5)]),
        ("lgamma", lambda t: nn.lgamma(t[0]), [mat(3, 4, low=0.6, high=9.0, signed=False)]),
        # Leading batch axis (the batched Monte Carlo decoder's shapes).
        ("matmul_bias_batched", lambda t: nn.matmul(t[0], t[1], t[2]),
         [mat(2, 3, 4), mat(4, 2), mat(1, 2)]),
        ("layer_norm_batched", lambda t: nn.layer_norm(t[0], t[1], t[2]),
         [mat(2, 3, 4), mat(1, 4), mat(1, 4)]),
        ("matmul_batched_shared", lambda t: nn.matmul(t[0], t[1]), [mat(2, 3, 4), mat(4, 2)]),
        ("attention_batched", lambda t: nn.attention(t[0], t[1], t[2]),
         [mat(2, 3, 4), mat(2, 5, 4), mat(2, 5, 2)]),
        # One causal mask over every batch entry.
        ("attention_batched_mask_2d", lambda t: nn.attention(t[0], t[1], t[2], causal=True),
         [mat(2, 3, 4), mat(2, 3, 4), mat(2, 3, 2)]),
        # Four heads split inside the one node, masked and batched.
        ("attention_batched_masked_heads",
         lambda t: nn.attention(t[0], t[1], t[2], heads=4, causal=True),
         [mat(2, 3, 8), mat(2, 3, 8), mat(2, 3, 4)]),
        # One query against five keys per entry, four heads: a sampling step.
        ("attention_batched_single_query_heads",
         lambda t: nn.attention(t[0], t[1], t[2], heads=4),
         [mat(2, 1, 8), mat(2, 5, 8), mat(2, 5, 4)]),
    ]


def exported_ops() -> set[str]:
    """The op names nncore exports: every function from its tensor module but
    these three, which record no node of their own."""
    not_ops = {"backward", "constant", "lanczos_lgamma"}
    return {name for name in nn.__all__
            if inspect.isfunction(getattr(nn, name))
            and getattr(nn, name).__module__ == tensor.__name__} - not_ops


# ---------------------------------------------------------------------------
# literal loop-based metric oracles (independent of prb_oracle.metrics)
# ---------------------------------------------------------------------------

def brute_mse(truth, pred):
    return fsum((t - p) ** 2 for t, p in zip(truth, pred)) / len(truth)


def brute_mae(truth, pred):
    return fsum(abs(t - p) for t, p in zip(truth, pred)) / len(truth)


def brute_mape(truth, pred):
    return 100.0 * fsum(abs(t - p) / t for t, p in zip(truth, pred)) / len(truth)


def brute_nd(truth, pred):
    return fsum(abs(t - p) for t, p in zip(truth, pred)) / fsum(abs(t) for t in truth)


def brute_quantile_loss(truth, qpred, q):
    terms = []
    for t, f in zip(truth, qpred):
        over = t - f if t > f else 0.0
        under = f - t if f > t else 0.0
        terms.append(2.0 * (q * over + (1.0 - q) * under))
    return fsum(terms) / len(truth)


def brute_coverage(truth, qpred):
    hits = 0
    for t, f in zip(truth, qpred):
        if t <= f:
            hits += 1
    return hits / len(truth)


def brute_provisioning(truth, alloc):
    over = 0
    for t, a in zip(truth, alloc):
        if a >= t:
            over += 1
    over_pct = 100.0 * over / len(truth)
    return over_pct, 100.0 - over_pct


# ---------------------------------------------------------------------------
# acceptance summary: one PASS/FAIL line per criterion
# ---------------------------------------------------------------------------

ACCEPTANCE_CRITERIA = {
    1: "no external reference values pinned (synthetic benchmark)",
    2: "likelihood numeric oracles (closed forms + quadrature)",
    3: "gradient checks vs central finite differences",
    4: "metric brute-force equivalence",
    5: "power-model exactness",
    6: "monotonicity across percentiles",
    7: "deepar calibration + pipeline runtime",
    8: "skill floor vs seasonal persistence",
    9: "CLI determinism (byte-identical report.json)",
    10: "forecast shape contract (100 x 24; lstm single path)",
}


def pytest_terminal_summary(terminalreporter):
    import re

    outcomes: dict[int, str] = {}
    for status in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(status, []):
            match = re.search(r"test_criterion_(\d+)", getattr(report, "nodeid", ""))
            if match and getattr(report, "when", "call") in ("call", "setup"):
                num = int(match.group(1))
                verdict = "PASS" if status == "passed" else "FAIL"
                if outcomes.get(num) != "FAIL":
                    outcomes[num] = verdict
    if outcomes:
        terminalreporter.write_sep("=", "acceptance criteria")
        for num in sorted(outcomes):
            terminalreporter.write_line(
                f"criterion {num:2d} [{outcomes[num]}] {ACCEPTANCE_CRITERIA[num]}"
            )
