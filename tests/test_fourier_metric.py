import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from _oracles import (
    kappa_gradient_sup_bound,
    kappa_hessian_pairing_spectral,
    kappa_hessian_sup_bound,
    rho_F_norm,
    rho_f_point_masses_1d,
    rho_f_trapezoid_1d,
    tail_radius_betaincinv,
    total_variation,
)
from conftest import linear_combination, random_probability_measure
from fwlab import fourier_metric as fm
from fwlab import measures as ms

# full-line adaptive quadrature value of rho_F(delta_0, delta_1) at lam = 4,
# computed once with the oracle below and pinned
RHO_D0_D1 = 0.17007722980167875


def test_lambda_table_examples():
    assert fm.lambda_for_dim(1) == 4
    assert fm.lambda_for_dim(4) == 6
    assert fm.lambda_for_dim(6) == 6
    with pytest.raises(ValueError):
        fm.lambda_for_dim(0)


def test_rho_identity(cfg1d, rng):
    mu = random_probability_measure(rng)
    assert fm.rho_F(mu, mu, cfg1d) == 0.0


MEASURE_DRAWS = {"d": st.sampled_from([1, 2]), "seed": st.integers(0, 2**32 - 1)}


@settings(max_examples=100, deadline=None)
@given(**MEASURE_DRAWS)
def test_rho_symmetry(d, seed):
    rng = np.random.default_rng(seed)
    cfg = fm.default_config(d)
    mu, nu = (random_probability_measure(rng, dim=d) for _ in range(2))
    forward = fm.rho_F(mu, nu, cfg)
    assert abs(forward - fm.rho_F(nu, mu, cfg)) <= 1e-12 * max(1.0, forward)


def test_rho_point_mass_pinned_value(cfg1d):
    value = fm.rho_F(ms.dirac(0.0), ms.dirac(1.0), cfg1d)
    assert value == pytest.approx(RHO_D0_D1, abs=1e-9)
    # the pinned constant comes from the adaptive full-line oracle
    assert rho_f_point_masses_1d(1.0, 4) == pytest.approx(RHO_D0_D1, abs=1e-12)


def test_rho_dimension_mismatch(cfg1d):
    with pytest.raises(ValueError):
        fm.rho_F(ms.dirac(np.zeros(2)), ms.dirac(np.zeros(2)), cfg1d)


def test_d_F_zero_and_euclidean_part(cfg1d, rng):
    mu = random_probability_measure(rng)
    th = ms.Theta(0.3, mu, np.array([0.5]))
    assert fm.d_F(th, th, cfg1d) == 0.0
    # equal measures, equal times, |m - n| = 5 in a 2d shift... scalar case:
    cfg2 = dataclasses.replace(fm.default_config(2), k_nodes_per_axis=16)
    mu2 = random_probability_measure(rng, dim=2)
    th2 = ms.Theta(0.4, mu2, np.array([3.0, 4.0]))
    io2 = ms.Theta(0.4, mu2, np.zeros(2))
    assert fm.d_F(th2, io2, cfg2) == pytest.approx(5.0, abs=1e-12)


def test_d_F_recomposition(cfg1d, rng):
    mu = random_probability_measure(rng)
    nu = random_probability_measure(rng)
    th = ms.Theta(0.1, mu, np.array([0.7]))
    io = ms.Theta(0.9, nu, np.array([-0.2]))
    expected = np.sqrt(
        (0.1 - 0.9) ** 2 + (0.7 + 0.2) ** 2 + fm.rho_F(mu, nu, cfg1d) ** 2
    )
    assert fm.d_F(th, io, cfg1d) == pytest.approx(expected, rel=1e-14)


def test_L_functional_zero_measure(cfg1d, rng):
    mu = random_probability_measure(rng)
    nu = random_probability_measure(rng)
    zero = ms.SignedAtomicMeasure(1, np.zeros((1, 1)), np.zeros(1))
    assert fm.L_functional(zero, mu, nu, cfg1d) == 0.0


def test_L_functional_collapse(cfg1d, rng):
    for _ in range(10):
        mu = random_probability_measure(rng)
        nu = random_probability_measure(rng)
        eta = linear_combination([1.0, -1.0], [mu, nu])
        assert fm.L_functional(eta, mu, nu, cfg1d) == pytest.approx(
            2.0 * fm.rho_F(mu, nu, cfg1d) ** 2, rel=1e-12, abs=1e-14
        )


def test_L_functional_cauchy_schwarz(cfg1d, rng):
    for _ in range(20):
        mu, nu = (random_probability_measure(rng) for _ in range(2))
        a, b = (random_probability_measure(rng) for _ in range(2))
        eta = linear_combination([1.0, -1.0], [a, b])
        lhs = abs(fm.L_functional(eta, mu, nu, cfg1d))
        rhs = 2.0 * rho_F_norm(eta, cfg1d) * fm.rho_F(mu, nu, cfg1d)
        assert lhs <= rhs + 1e-12


def test_parallelogram_equality_at_diagonal(cfg1d, rng):
    mu = random_probability_measure(rng)
    nu = random_probability_measure(rng)
    rep = fm.parallelogram_check(mu, nu, mu, nu, cfg1d)
    assert rep.passed
    assert abs(rep.stats["gap"]) < 1e-10


@settings(max_examples=100, deadline=None)
@given(**MEASURE_DRAWS)
def test_parallelogram_random_quadruples(d, seed):
    rng = np.random.default_rng(seed)
    cfg = fm.default_config(d)
    mu, nu, ms_, ns_ = (random_probability_measure(rng, dim=d) for _ in range(4))
    rep = fm.parallelogram_check(mu, nu, ms_, ns_, cfg)
    assert rep.passed, rep.stats


def test_parallelogram_all_equal(cfg1d, rng):
    mu = random_probability_measure(rng)
    rep = fm.parallelogram_check(mu, mu, mu, mu, cfg1d)
    assert rep.passed
    assert rep.stats["lhs"] == pytest.approx(0.0, abs=1e-14)


@settings(max_examples=100, deadline=None)
@given(**MEASURE_DRAWS)
def test_triangle_inequality(d, seed):
    rng = np.random.default_rng(seed)
    cfg = fm.default_config(d)
    a, b, c = (random_probability_measure(rng, dim=d) for _ in range(3))
    detour = fm.rho_F(a, b, cfg) + fm.rho_F(b, c, cfg)
    assert fm.rho_F(a, c, cfg) <= detour + 1e-12 * max(1.0, detour)


def test_uniform_boundedness(cfg1d, rng):
    cap = (2 * np.pi) ** -0.5 * np.sqrt(fm.weight_mass(cfg1d))
    for _ in range(20):
        mu = random_probability_measure(rng, spread=20.0)
        nu = random_probability_measure(rng, spread=20.0)
        tv = total_variation(mu) + total_variation(nu)
        assert fm.rho_F(mu, nu, cfg1d) <= cap * tv + 1e-12


def test_quadrature_refinement_stability(cfg1d):
    fine = dataclasses.replace(cfg1d, k_nodes_per_axis=2 * cfg1d.k_nodes_per_axis)
    cases = [
        (ms.dirac(0.0), ms.dirac(1.0)),
        (ms.dirac(-0.5), ms.dirac(2.5)),
        (
            ms.SignedAtomicMeasure(1, [[-1.0], [1.0]], [0.5, 0.5], probability=True),
            ms.dirac(0.0),
        ),
    ]
    for mu, nu in cases:
        assert fm.rho_F(mu, nu, cfg1d) == pytest.approx(
            fm.rho_F(mu, nu, fine), abs=1e-6
        )


def test_trapezoid_rule_agrees(cfg1d):
    mu, nu = ms.dirac(0.0), ms.dirac(1.0)
    trap = rho_f_trapezoid_1d(mu, nu, 4, cfg1d.k_radius, 4096)
    assert trap == pytest.approx(RHO_D0_D1, abs=1e-7)
    assert fm.rho_F(mu, nu, cfg1d) == pytest.approx(trap, abs=1e-7)


def test_kappa_vanishes_on_equal_measures(cfg1d, rng):
    mu = random_probability_measure(rng)
    ker = fm.make_kappa(mu, mu, 0.2, cfg1d)
    x = np.array([0.3])
    assert fm.kappa_eval(ker, x, 0) == 0.0
    assert np.all(fm.kappa_eval(ker, x, 1) == 0.0)
    assert np.all(fm.kappa_eval(ker, x, 2) == 0.0)


def test_kappa_gradient_matches_finite_differences(cfg1d, rng):
    mu = random_probability_measure(rng)
    nu = random_probability_measure(rng)
    ker = fm.make_kappa(mu, nu, 0.1, cfg1d)
    h = 1e-5
    for _ in range(20):
        x = rng.uniform(-3, 3, size=1)
        grad = fm.kappa_eval(ker, x, 1)
        fd = (fm.kappa_eval(ker, x + h, 0) - fm.kappa_eval(ker, x - h, 0)) / (2 * h)
        assert grad[0] == pytest.approx(fd, rel=1e-6, abs=1e-10)


def test_kappa_hessian_pairing_identity(cfg1d, rng):
    for _ in range(5):
        mu = random_probability_measure(rng)
        nu = random_probability_measure(rng)
        ker = fm.make_kappa(mu, nu, 0.05, cfg1d)
        lhs = np.zeros((1, 1))
        for x, w in zip(mu.locations, mu.weights):
            lhs += w * fm.kappa_eval(ker, x, 2)
        for x, w in zip(nu.locations, nu.weights):
            lhs -= w * fm.kappa_eval(ker, x, 2)
        rhs = kappa_hessian_pairing_spectral(ker)
        assert lhs[0, 0] == pytest.approx(rhs[0, 0], rel=1e-8)
        assert rhs[0, 0] <= 0.0


def test_kappa_sup_bounds(cfg1d, rng):
    mu = random_probability_measure(rng)
    nu = random_probability_measure(rng)
    for eps in (0.5, 0.1, 0.02):
        ker = fm.make_kappa(mu, nu, eps, cfg1d)
        gb, hb = kappa_gradient_sup_bound(ker), kappa_hessian_sup_bound(ker)
        for _ in range(20):
            x = rng.uniform(-6, 6, size=1)
            assert np.linalg.norm(fm.kappa_eval(ker, x, 1)) <= gb + 1e-12
            assert np.linalg.norm(fm.kappa_eval(ker, x, 2)) <= hb + 1e-12


def test_kappa_real_valued(cfg1d, rng):
    mu = random_probability_measure(rng)
    nu = random_probability_measure(rng)
    ker = fm.make_kappa(mu, nu, 0.3, cfg1d)
    val = fm.kappa_eval(ker, np.array([1.2]), 0)
    assert isinstance(val, float)


@settings(max_examples=30, deadline=None)
@given(d=st.sampled_from([1, 2]), n=st.integers(2, 6), seed=st.integers(0, 2**32 - 1))
def test_kappa_eval_on_point_arrays_matches_each_point(d, n, seed):
    rng = np.random.default_rng(seed)
    cfg = fm.default_config(d)
    mu = random_probability_measure(rng, dim=d)
    nu = random_probability_measure(rng, dim=d)
    ker = fm.make_kappa(mu, nu, float(rng.uniform(0.05, 0.5)), cfg)
    X = rng.uniform(-4.0, 4.0, size=(n, d))
    for order, shape in ((0, (n,)), (1, (n, d)), (2, (n, d, d))):
        batch = fm.kappa_eval(ker, X, order)
        rows = np.array([fm.kappa_eval(ker, x, order) for x in X])
        assert batch.shape == shape
        scale = max(1.0, float(np.max(np.abs(rows))))
        assert np.max(np.abs(batch - rows)) <= 1e-12 * scale
    grad, hess = fm.kappa_gradient_field(ker)(X), fm.kappa_hessian_field(ker)(X)
    assert np.array_equal(grad, fm.kappa_eval(ker, X, 1))
    assert np.array_equal(hess, fm.kappa_eval(ker, X, 2))


def test_kappa_invalid_order(cfg1d, rng):
    ker = fm.make_kappa(ms.dirac(0.0), ms.dirac(1.0), 0.1, cfg1d)
    with pytest.raises(ValueError):
        fm.kappa_eval(ker, np.array([0.0]), 3)
    with pytest.raises(ValueError):
        fm.make_kappa(ms.dirac(0.0), ms.dirac(1.0), -0.1, cfg1d)


def test_config_validation():
    with pytest.raises(ValueError):
        fm.FourierConfig(1, 4, -1.0, 64)
    with pytest.raises(ValueError):
        fm.FourierConfig(1, 4, 10.0, 4)
    with pytest.raises(ValueError):
        fm.FourierConfig(1, 0, 10.0, 64)


def test_moment_constant_divergence_guard():
    cfg = fm.default_config(1)
    with pytest.raises(ValueError):
        fm.moment_constant(cfg, 8)
    # at the boundary: integral of s^7 (1+s^2)^-4 over [0, inf) diverges logarithmically
    with pytest.raises(ValueError, match="diverges"):
        fm.moment_constant(cfg, 7)
    assert math.isfinite(fm.moment_constant(cfg, 6))


def _radial_quad(d, lam, power, lo):
    """Adaptive quadrature of s^(power+d-1) (1+s^2)^-lam over [lo, inf), to
    relative precision (the default absolute tolerance 1.5e-8 is far above
    the 1e-10 tails)."""
    return integrate.quad(
        lambda s: s ** (power + d - 1) * (1 + s * s) ** (-lam),
        lo, np.inf, epsabs=0, epsrel=1e-12, limit=200,
    )[0]


@pytest.mark.parametrize("d, lam", [(1, 4), (2, 4), (3, 4), (1, 2), (1, 3), (2, 3), (3, 3), (4, 6)])
def test_closed_forms_match_quadrature(d, lam):
    surf = 2 * math.pi ** (d / 2) / math.gamma(d / 2)
    cfg = fm.FourierConfig(d, lam, 10.0, 16)
    for power in range(2 * lam - d):
        quad = math.sqrt(surf * _radial_quad(d, lam, power, 0.0))
        assert fm.moment_constant(cfg, power) == pytest.approx(quad, rel=1e-12)
    radius = fm._tail_radius(d, lam)
    tail = 4 * (2 * math.pi) ** (-d) * surf * _radial_quad(d, lam, 0, radius)
    assert tail == pytest.approx(1e-10, rel=1e-9)


def test_default_radii():
    assert [fm.default_config(d).k_radius for d in (1, 2, 3)] == [22.0, 32.0, 53.0]


# every (d, lam) with an integrable weight, 2 lam > d, up to lam = 12
INTEGRABLE = [(d, lam) for d in range(1, 9) for lam in range(d // 2 + 1, 13)]


@pytest.mark.parametrize("d, lam", INTEGRABLE)
def test_tail_radius_matches_the_inverse_incomplete_beta(d, lam):
    assert fm._tail_radius(d, lam) == pytest.approx(tail_radius_betaincinv(d, lam), rel=1e-12)


@pytest.mark.parametrize("d", range(1, 7))
def test_default_radius_is_the_ceiling_of_the_oracle_radius(d):
    radius = tail_radius_betaincinv(d, fm.lambda_for_dim(d))
    assert fm.default_config(d).k_radius == math.ceil(radius)


@pytest.mark.parametrize("d, lam", INTEGRABLE)
def test_moment_constant_matches_scipy_beta(d, lam):
    cfg = fm.FourierConfig(d, lam, 10.0, 16)
    surf = 2 * math.pi ** (d / 2) / special.gamma(d / 2)
    for power in range(2 * lam - d):
        a = (power + d) / 2
        exact = math.sqrt(surf * 0.5 * special.beta(a, lam - a))
        assert fm.moment_constant(cfg, power) == pytest.approx(exact, rel=1e-13)
