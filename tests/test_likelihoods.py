"""Likelihood heads: closed forms, quadrature normalization, sampling laws."""

import math

import numpy as np
import pytest

from prb_oracle import nncore as nn
from prb_oracle.likelihoods import (
    NU_FLOOR,
    GaussianParams,
    LikelihoodError,
    StudentTParams,
    gaussian_logpdf,
    gaussian_nll_graph,
    log_gamma,
    project_gaussian,
    project_studentt,
    sample,
    studentt_logpdf,
    studentt_nll_graph,
)

LN2 = math.log(2.0)


def simpson(values: np.ndarray, dx: float) -> float:
    """Composite Simpson rule; len(values) must be odd."""
    assert len(values) % 2 == 1
    return dx / 3.0 * (values[0] + values[-1]
                       + 4.0 * values[1:-1:2].sum() + 2.0 * values[2:-1:2].sum())


def integrate_full_line(logpdf, mu, sigma, n=40001):
    """Whole-line quadrature via y = mu + sigma tan(theta) (heavy-tail safe)."""
    eps = 1e-9
    theta = np.linspace(-np.pi / 2 + eps, np.pi / 2 - eps, n)
    y = mu + sigma * np.tan(theta)
    jacobian = sigma / np.cos(theta) ** 2
    return simpson(np.exp(logpdf(y)) * jacobian, theta[1] - theta[0])


# ---------------------------------------------------------------------------
# log-gamma
# ---------------------------------------------------------------------------

def test_log_gamma_matches_stdlib_under_1e10():
    grid = np.concatenate([
        np.linspace(1e-3, 0.49, 200),    # reflection strip
        np.linspace(0.5, 50.0, 500),
        np.linspace(50.0, 1e4, 500),
    ])
    for x in grid:
        assert abs(log_gamma(float(x)) - math.lgamma(float(x))) < 1e-10


def test_log_gamma_known_values():
    assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-12)
    assert log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), abs=1e-12)
    assert log_gamma(5.0) == pytest.approx(math.log(24.0), abs=1e-10)


def test_log_gamma_rejects_nonpositive():
    with pytest.raises(LikelihoodError):
        log_gamma(0.0)
    with pytest.raises(LikelihoodError):
        log_gamma(-1.5)


def test_lgamma_op_value_and_gradient():
    z = np.array([[1.0], [2.5], [7.0], [30.0]])
    leaf = nn.Tensor(z.copy(), requires_grad=True)
    out = nn.lgamma(leaf)
    assert np.allclose(out.data[:, 0], [math.lgamma(v) for v in z[:, 0]], atol=1e-10)
    nn.backward(nn.sum_all(out))
    h = 1e-5
    numeric = np.array([
        (math.lgamma(v + h) - math.lgamma(v - h)) / (2 * h) for v in z[:, 0]
    ]).reshape(-1, 1)
    assert np.max(np.abs(leaf.grad - numeric)) < 1e-6


# ---------------------------------------------------------------------------
# projections
# ---------------------------------------------------------------------------

def test_project_studentt_softplus():
    p = project_studentt((5.0, 0.0, 0.0))
    assert (p.mu, p.sigma, p.nu) == pytest.approx((5.0, LN2, NU_FLOOR + LN2), abs=1e-12)


def test_project_studentt_with_variance_floor():
    # However negative the raw dof, nu stays above 2: the variance is finite.
    assert NU_FLOOR == 2.0
    raw = np.zeros((4, 3))
    raw[:, 2] = [-800.0, -30.0, 0.0, 5.0]
    nu = project_studentt(raw).nu
    assert np.all(nu >= 2.0) and np.all(np.diff(nu) > 0.0)


def test_project_large_raw_sigma():
    p = project_studentt((0.0, 10.0, 10.0))
    assert p.sigma == pytest.approx(10.0000454, abs=1e-6)


def test_projection_always_positive():
    for raw in (-100.0, -30.0, -5.0, 0.0, 5.0):
        assert project_studentt((0.0, raw, raw)).sigma > 0.0
        assert project_gaussian((0.0, raw)).sigma > 0.0


def test_project_gaussian_mu_passthrough():
    for mu in (-17.3, 0.0, 42.0):
        p = project_gaussian((mu, 0.0))
        assert p.mu == mu
        assert p.sigma == pytest.approx(LN2, abs=1e-12)


def test_invalid_params_rejected():
    with pytest.raises(LikelihoodError):
        StudentTParams(0.0, 0.0, 1.0)
    with pytest.raises(LikelihoodError):
        StudentTParams(0.0, 1.0, -1.0)
    with pytest.raises(LikelihoodError):
        GaussianParams(0.0, -2.0)


# ---------------------------------------------------------------------------
# log-pdfs
# ---------------------------------------------------------------------------

def test_cauchy_mode_closed_form():
    # nu=1 Student-t is Cauchy: density 1/pi at the mode.
    lp = studentt_logpdf(0.0, StudentTParams(0.0, 1.0, 1.0))
    assert lp == pytest.approx(math.log(1.0 / math.pi), abs=1e-10)


def test_studentt_symmetric_around_mu():
    p = StudentTParams(3.0, 2.0, 4.5)
    for d in (0.1, 1.0, 7.3):
        assert studentt_logpdf(3.0 + d, p) == studentt_logpdf(3.0 - d, p)


@pytest.mark.parametrize("nu", [1.0, 3.0, 30.0])
@pytest.mark.parametrize("sigma", [0.5, 2.0])
def test_studentt_density_normalizes(nu, sigma):
    p = StudentTParams(1.0, sigma, nu)
    total = integrate_full_line(lambda y: studentt_logpdf(y, p), p.mu, p.sigma)
    assert abs(total - 1.0) < 1e-6


def test_gaussian_mode_closed_forms():
    assert gaussian_logpdf(0.0, GaussianParams(0.0, 1.0)) == pytest.approx(
        math.log(1.0 / math.sqrt(2 * math.pi)), abs=1e-12
    )
    assert math.exp(gaussian_logpdf(5.0, GaussianParams(5.0, 2.0))) == pytest.approx(
        1.0 / (2.0 * math.sqrt(2 * math.pi)), abs=1e-12
    )


def test_gaussian_density_normalizes():
    p = GaussianParams(-2.0, 1.7)
    # Plain Simpson over +-15 sigma; the truncated tail mass is ~1e-50.
    y = np.linspace(p.mu - 15 * p.sigma, p.mu + 15 * p.sigma, 40001)
    total = simpson(np.exp(gaussian_logpdf(y, p)), y[1] - y[0])
    assert abs(total - 1.0) < 1e-9


def test_studentt_approaches_gaussian_for_large_nu():
    # The true asymptotic gap is (z^4 - 2z^2 - 1)/(4 nu): 9.2e-5 at z=4.5
    # but 1.43e-4 at z=5, so the 1e-4 bound only holds inside ~4.5 sigma.
    tp = StudentTParams(1.0, 2.0, 1e6)
    gp = GaussianParams(1.0, 2.0)
    for y in np.linspace(1.0 - 4.5 * 2.0, 1.0 + 4.5 * 2.0, 41):
        assert abs(studentt_logpdf(y, tp) - gaussian_logpdf(y, gp)) < 1e-4
    for y in (1.0 - 5 * 2.0, 1.0 + 5 * 2.0):
        assert abs(studentt_logpdf(y, tp) - gaussian_logpdf(y, gp)) < 1.5e-4


def test_logpdfs_maximized_at_mu():
    tp = StudentTParams(2.0, 1.5, 3.0)
    gp = GaussianParams(2.0, 1.5)
    peak_t = studentt_logpdf(2.0, tp)
    peak_g = gaussian_logpdf(2.0, gp)
    for y in (-3.0, 0.0, 1.9, 2.1, 5.0):
        if y != 2.0:
            assert studentt_logpdf(y, tp) < peak_t
            assert gaussian_logpdf(y, gp) < peak_g


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_sampling_deterministic_per_seed():
    for dist in (GaussianParams(3.0, 2.0), StudentTParams(3.0, 2.0, 4.0)):
        a = sample(dist, np.random.default_rng(11), 100)
        b = sample(dist, np.random.default_rng(11), 100)
        assert np.array_equal(a, b)


def test_sampling_degenerate_scale():
    dist = GaussianParams(7.0, 1e-12)
    draws = sample(dist, np.random.default_rng(0), 1000)
    assert np.all(np.abs(draws - 7.0) < 1e-9)


def test_gaussian_sample_moments():
    draws = sample(GaussianParams(0.0, 1.0), np.random.default_rng(2024), 100_000)
    assert abs(draws.mean()) < 0.02
    assert 0.99 < draws.std() < 1.01


def test_sampling_location_scale_equivariance():
    for base, shifted in (
        (GaussianParams(0.0, 1.0), GaussianParams(5.0, 3.0)),
        (StudentTParams(0.0, 1.0, 6.0), StudentTParams(5.0, 3.0, 6.0)),
    ):
        unit = sample(base, np.random.default_rng(7), 500)
        moved = sample(shifted, np.random.default_rng(7), 500)
        assert np.array_equal(moved, 5.0 + 3.0 * unit)


def test_studentt_sample_median_near_mu():
    draws = sample(StudentTParams(10.0, 1.0, 3.0), np.random.default_rng(5), 100_000)
    assert abs(np.median(draws) - 10.0) < 0.02


def test_sample_rejects_bad_count():
    with pytest.raises(LikelihoodError):
        sample(GaussianParams(0.0, 1.0), np.random.default_rng(0), 0)


def test_sample_array_params_shape():
    rng = np.random.default_rng(4)
    g = sample(GaussianParams(np.array([0.0, 5.0, -2.0]), np.array([1.0, 2.0, 0.5])), rng, 4)
    assert g.shape == (4, 3)
    # Fields broadcast against each other: one distribution per element.
    t = sample(StudentTParams(np.zeros((2, 3)), 1.0, np.full(3, 4.0)), rng, 5)
    assert t.shape == (5, 2, 3)
    assert np.all(np.isfinite(g)) and np.all(np.isfinite(t))


def test_sample_array_params_location_scale_equivariance():
    mu = np.array([-3.0, 0.0, 5.0, 12.5])
    sigma = np.array([0.5, 1.0, 3.0, 7.0])
    nu = np.array([2.5, 4.0, 6.0, 30.0])
    zeros, ones = np.zeros(4), np.ones(4)
    for base, shifted in (
        (GaussianParams(zeros, ones), GaussianParams(mu, sigma)),
        (StudentTParams(zeros, ones, nu), StudentTParams(mu, sigma, nu)),
    ):
        unit = sample(base, np.random.default_rng(7), 300)
        moved = sample(shifted, np.random.default_rng(7), 300)
        assert moved.shape == (300, 4)
        assert np.array_equal(moved, mu + sigma * unit)


def test_sample_scalar_params_draw_the_scalar_stream():
    # The scalar sampler, written out: vectorising must not move a single draw.
    for dist in (GaussianParams(3.0, 2.0), StudentTParams(3.0, 2.0, 4.0)):
        rng, ref = np.random.default_rng(3), np.random.default_rng(3)
        got = sample(dist, rng, 50)
        if isinstance(dist, GaussianParams):
            want = dist.mu + dist.sigma * ref.standard_normal(50)
        else:
            z = ref.standard_normal(50)
            v = ref.chisquare(dist.nu, 50)
            want = dist.mu + dist.sigma * (z / np.sqrt(v / dist.nu))
        assert got.shape == (50,)
        assert np.array_equal(got, want)
        assert rng.standard_normal() == ref.standard_normal()


def test_array_params_validate_every_element():
    with pytest.raises(LikelihoodError, match="sigma must be > 0, got 0.0 at element 1"):
        StudentTParams(np.zeros(3), np.array([1.0, 0.0, 2.0]), 3.0)
    with pytest.raises(LikelihoodError, match="nu"):
        StudentTParams(0.0, 1.0, np.array([3.0, np.nan]))
    with pytest.raises(LikelihoodError, match="sigma"):
        GaussianParams(np.zeros(2), np.array([1.0, -1e-300]))
    with pytest.raises(LikelihoodError, match="broadcast"):
        GaussianParams(np.zeros(3), np.ones(2))


def test_projections_accept_stacked_raw_rows():
    raw = np.random.default_rng(12).normal(scale=3.0, size=(5, 3))
    stacked_t = project_studentt(raw)
    stacked_g = project_gaussian(raw[:, :2])
    for i, row in enumerate(raw):
        one_t = project_studentt(row)
        one_g = project_gaussian(row[:2])
        assert (stacked_t.mu[i], stacked_t.sigma[i], stacked_t.nu[i]) == (one_t.mu, one_t.sigma, one_t.nu)
        assert (stacked_g.mu[i], stacked_g.sigma[i]) == (one_g.mu, one_g.sigma)
    with pytest.raises(LikelihoodError, match="3 values"):
        project_studentt(np.zeros((4, 2)))


# ---------------------------------------------------------------------------
# negative log-likelihood
# ---------------------------------------------------------------------------

def _gaussian_nll(targets, mu, sigma) -> float:
    """Graph NLL of the targets under N(mu, sigma), through raw head rows."""
    shape = np.shape(targets)
    raw = np.column_stack([np.broadcast_to(mu, shape), np.log(np.expm1(np.broadcast_to(sigma, shape)))])
    return gaussian_nll_graph(nn.constant(raw), np.asarray(targets)).item()


def test_nll_single_gaussian_point_at_mean():
    assert _gaussian_nll([0.0], 0.0, 1.0) == pytest.approx(0.918939, abs=1e-6)


def test_nll_additive_over_timesteps():
    rng = np.random.default_rng(8)
    targets = rng.normal(size=6)
    mu, sigma = rng.normal(size=6), 1.0 + np.abs(rng.normal(size=6))
    total = _gaussian_nll(targets, mu, sigma)
    split_sum = _gaussian_nll(targets[:2], mu[:2], sigma[:2]) + _gaussian_nll(targets[2:], mu[2:], sigma[2:])
    assert total == pytest.approx(split_sum, abs=1e-9)


def test_nll_decreases_as_prediction_approaches_target():
    losses = [_gaussian_nll([5.0], mu, 1.0) for mu in (1.0, 3.0, 4.0, 5.0)]
    assert losses == sorted(losses, reverse=True)
    assert losses[-1] < losses[0]


def test_nll_length_mismatch():
    with pytest.raises(LikelihoodError, match=r"expected \(1, 3\)"):
        studentt_nll_graph(nn.constant(np.zeros((2, 3))), np.array([1.0]))


def test_graph_nll_matches_float_nll():
    rng = np.random.default_rng(19)
    raw = rng.normal(size=(8, 3))
    targets = rng.normal(size=8)
    graph = studentt_nll_graph(nn.constant(raw), targets)
    floats = -studentt_logpdf(targets, project_studentt(raw)).sum()
    assert graph.item() == pytest.approx(floats, abs=1e-9)

    graph_g = gaussian_nll_graph(nn.constant(raw[:, :2]), targets)
    floats_g = -gaussian_logpdf(targets, project_gaussian(raw[:, :2])).sum()
    assert graph_g.item() == pytest.approx(floats_g, abs=1e-9)


def test_graph_nll_takes_one_raw_row_per_target():
    with pytest.raises(LikelihoodError, match=r"expected \(4, 3\)"):
        studentt_nll_graph(nn.constant(np.zeros((4, 2))), np.zeros(4))
    with pytest.raises(LikelihoodError, match=r"expected \(4, 2\)"):
        gaussian_nll_graph(nn.constant(np.zeros((3, 2))), np.zeros(4))
    # Batched heads need targets of their leading shape; the error names both.
    with pytest.raises(LikelihoodError,
                       match=r"raw shape \(2, 4, 3\) vs targets \(2, 3\), expected \(2, 3, 3\)"):
        studentt_nll_graph(nn.constant(np.zeros((2, 4, 3))), np.zeros((2, 3)))


@pytest.mark.parametrize("builder, n", [(studentt_nll_graph, 3), (gaussian_nll_graph, 2)])
def test_graph_nll_of_batched_heads_is_the_nll_of_their_rows(builder, n):
    # Models hand the builders (B, m, n) heads and (B, m) targets: the NLL and
    # its gradient on the heads are those of the B·m flattened rows, bit for bit.
    rng = np.random.default_rng(23)
    raw, targets = rng.normal(size=(4, 6, n)), rng.normal(size=(4, 6))
    results = []
    for shape in ((4, 6), (24,)):
        leaf = nn.Tensor(raw.reshape(*shape, n), requires_grad=True)
        nll = builder(leaf, targets.reshape(shape))
        nn.backward(nll)
        results.append((nll.item(), leaf.grad.reshape(raw.shape)))
    (got, got_grad), (want, want_grad) = results
    assert got == want and np.array_equal(got_grad, want_grad)


def test_logpdfs_take_array_parameters():
    rng = np.random.default_rng(8)
    mu, sigma, nu = rng.normal(size=6), rng.uniform(0.1, 3.0, 6), rng.uniform(2.1, 30.0, 6)
    y = rng.normal(scale=4.0, size=6)
    cases = [
        (studentt_logpdf, StudentTParams(mu, sigma, nu),
         [StudentTParams(*args) for args in zip(mu, sigma, nu)]),
        (gaussian_logpdf, GaussianParams(mu, sigma),
         [GaussianParams(*args) for args in zip(mu, sigma)]),
    ]
    for logpdf, batched, scalars in cases:
        expected = [logpdf(yi, p) for yi, p in zip(y, scalars)]
        np.testing.assert_allclose(logpdf(y, batched), expected, rtol=1e-14, atol=0.0)
