"""Parametric likelihood heads: Student-t location-scale and Gaussian.

Float-side functions (projections, log-pdfs, sampling) evaluate trained
distributions; the *_nll_graph builders express the same formulas in nncore
tensors so training losses are differentiable end to end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import nncore as nn

LOG_2PI = math.log(2.0 * math.pi)
NU_FLOOR = 2.0  # added to softplus(raw nu): every projected Student-t has finite variance

class LikelihoodError(ValueError):
    """Invalid distribution parameters or mismatched lengths."""


def _shape(dist) -> tuple[int, ...]:
    """Broadcast shape of a distribution's fields; () for scalar parameters."""
    return np.broadcast_shapes(*(np.shape(v) for v in vars(dist).values()))


def _check_params(dist, positive: tuple[str, ...]) -> None:
    """Every element of each named field must be > 0; all fields must broadcast."""
    for name in positive:
        value = np.asarray(getattr(dist, name))
        bad = np.flatnonzero(~(value > 0.0))
        if bad.size:
            at = "" if value.ndim == 0 else f" at element {int(bad[0])}"
            raise LikelihoodError(f"{name} must be > 0, got {value.flat[bad[0]]}{at}")
    try:
        _shape(dist)
    except ValueError:
        raise LikelihoodError(
            f"parameter shapes {[np.shape(v) for v in vars(dist).values()]} do not broadcast"
        ) from None


@dataclass(frozen=True)
class StudentTParams:
    """Location-scale Student-t: location mu, scale sigma > 0, dof nu > 0.

    Fields are floats, or arrays that broadcast together: one distribution
    per element.
    """

    mu: float | np.ndarray
    sigma: float | np.ndarray
    nu: float | np.ndarray

    def __post_init__(self):
        _check_params(self, ("sigma", "nu"))


@dataclass(frozen=True)
class GaussianParams:
    mu: float | np.ndarray
    sigma: float | np.ndarray

    def __post_init__(self):
        _check_params(self, ("sigma",))


def log_gamma(x):
    """Lanczos log-gamma for positive reals (scalar or array), no scipy."""
    x = np.asarray(x, dtype=np.float64)
    if np.any(x <= 0.0):
        raise LikelihoodError("log_gamma requires positive arguments")
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    out = np.empty_like(x)
    small = x < 0.5
    # Reflection for the (0, 0.5) strip keeps the series well conditioned.
    if np.any(small):
        xs = x[small]
        out[small] = np.log(np.pi / np.sin(np.pi * xs)) - nn.lanczos_lgamma(1.0 - xs)
    out[~small] = nn.lanczos_lgamma(x[~small])
    return float(out[0]) if scalar else out


def softplus(x):
    return np.logaddexp(0.0, np.asarray(x, dtype=np.float64))


def _project(raw, n: int) -> list:
    """mu and the softplus of the other raw head outputs, split off the last axis.

    One raw tuple gives floats; a (..., n) array gives arrays of shape (...).
    """
    raw = np.asarray(raw, dtype=np.float64)
    if raw.shape[-1:] != (n,):
        raise LikelihoodError(f"expected raw head outputs ending in {n} values, got shape {raw.shape}")
    cols = [raw[..., 0]] + [softplus(raw[..., i]) for i in range(1, n)]
    return [float(c) for c in cols] if raw.ndim == 1 else cols


def project_studentt(raw) -> StudentTParams:
    """Map raw network triples (last axis) to valid Student-t parameters.

    mu passes through; sigma and nu go through softplus, and nu gets
    NU_FLOOR on top.
    """
    mu, sigma, nu = _project(raw, 3)
    return StudentTParams(mu=mu, sigma=sigma, nu=NU_FLOOR + nu)


def project_gaussian(raw) -> GaussianParams:
    mu, sigma = _project(raw, 2)
    return GaussianParams(mu=mu, sigma=sigma)


def studentt_logpdf(y, p: StudentTParams):
    """Log density of the location-scale Student-t at y (scalar or array)."""
    y = np.asarray(y, dtype=np.float64)
    z2 = ((y - p.mu) / p.sigma) ** 2
    half_nup1 = 0.5 * (p.nu + 1.0)
    out = (
        log_gamma(half_nup1)
        - log_gamma(0.5 * p.nu)
        - np.log(p.sigma)
        - 0.5 * np.log(p.nu * math.pi)
        - half_nup1 * np.log1p(z2 / p.nu)
    )
    return float(out) if out.ndim == 0 else out


def gaussian_logpdf(y, p: GaussianParams):
    y = np.asarray(y, dtype=np.float64)
    out = -0.5 * LOG_2PI - np.log(p.sigma) - (y - p.mu) ** 2 / (2.0 * p.sigma**2)
    return float(out) if out.ndim == 0 else out


def sample(dist, rng: np.random.Generator, n: int) -> np.ndarray:
    """Draw n values per distribution: shape (n,) + the parameters' shape.

    Deterministic per rng state and location-scale equivariant element by
    element. Draws fill the output in C order, so scalar parameters consume
    the stream exactly as n scalar draws do.
    """
    if n < 1:
        raise LikelihoodError(f"n must be >= 1, got {n}")
    if not isinstance(dist, (GaussianParams, StudentTParams)):
        raise LikelihoodError(f"unsupported distribution {type(dist).__name__}")
    shape = (n, *_shape(dist))
    if isinstance(dist, GaussianParams):
        return dist.mu + dist.sigma * rng.standard_normal(shape)
    z = rng.standard_normal(shape)
    v = rng.chisquare(dist.nu, shape)
    return dist.mu + dist.sigma * (z / np.sqrt(v / dist.nu))


# ---------------------------------------------------------------------------
# graph-side builders (training losses)
# ---------------------------------------------------------------------------

def _head_columns(raw: nn.Tensor, targets: np.ndarray, n: int) -> tuple[nn.Tensor, list]:
    """Targets (...) as a (..., 1) constant and the n (..., 1) columns of (..., n) raw heads."""
    targets = np.asarray(targets, dtype=np.float64)
    if raw.shape != (want := (*targets.shape, n)):
        raise LikelihoodError(f"raw shape {raw.shape} vs targets {targets.shape}, expected {want}")
    return nn.constant(targets[..., None]), [nn.narrow(raw, raw.data.ndim - 1, i, 1) for i in range(n)]


def studentt_nll_graph(raw: nn.Tensor, targets: np.ndarray) -> nn.Tensor:
    """Differentiable Student-t NLL, summed over all targets: one prediction
    range, or the (B, H) steps of a batch of them.

    raw holds the (..., 3) raw heads [mu, sigma, nu], as `project_studentt`
    takes them; targets, shaped (...), is in the same (scaled) units as mu.
    """
    y, (raw_mu, raw_sigma, raw_nu) = _head_columns(raw, targets, 3)
    sigma = nn.softplus(raw_sigma)
    nu = nn.add_const(nn.softplus(raw_nu), NU_FLOOR)
    half_nup1 = nn.scale(nn.add_const(nu, 1.0), 0.5)
    z = nn.div(nn.sub(y, raw_mu), sigma)
    inner = nn.add_const(nn.div(nn.square(z), nu), 1.0)
    logpdf = nn.sub(
        nn.sub(nn.lgamma(half_nup1), nn.lgamma(nn.scale(nu, 0.5))),
        nn.add(
            nn.add(nn.log(sigma), nn.add_const(nn.scale(nn.log(nu), 0.5), 0.5 * math.log(math.pi))),
            nn.mul(half_nup1, nn.log(inner)),
        ),
    )
    return nn.scale(nn.sum_all(logpdf), -1.0)


def gaussian_nll_graph(raw: nn.Tensor, targets: np.ndarray) -> nn.Tensor:
    """Differentiable Gaussian NLL, summed over all targets (...), from the
    (..., 2) raw heads [mu, sigma] as `project_gaussian` takes them."""
    y, (raw_mu, raw_sigma) = _head_columns(raw, targets, 2)
    sigma = nn.softplus(raw_sigma)
    quad = nn.div(nn.square(nn.sub(y, raw_mu)), nn.scale(nn.square(sigma), 2.0))
    logpdf = nn.add_const(nn.scale(nn.add(nn.log(sigma), quad), -1.0), -0.5 * LOG_2PI)
    return nn.scale(nn.sum_all(logpdf), -1.0)
