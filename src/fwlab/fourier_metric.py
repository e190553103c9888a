"""Fourier-weighted distance between measures and its penalization kernel.

The squared distance is the integral of |F_k(mu - nu)|^2 / (1 + |k|^2)^lambda
over wave vectors k, with F_k the (2*pi)^{-d/2}-normalized characteristic
function.  The integral is truncated at radius R and discretized by a tensor
Gauss-Legendre rule; defaults take R from the closed-form tail (a
hypergeometric series, inverted by bisection), rounded up so the truncated
tail is below 1e-10, which is the only part of the construction not pinned
down analytically.  Every constant is built with ``math`` alone.

The kernel kappa built from a pair (mu, nu) and a penalization scale eps is
the smoothed density of mu - nu against the same spectral weight; its
gradient and Hessian drive the Hamiltonian difference estimates, so they are
evaluated by differentiating under the quadrature (exact per node).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .measures import SignedAtomicMeasure, Theta, char_fn_batch
from .reports import CheckReport

__all__ = [
    "FourierConfig",
    "KappaKernel",
    "lambda_for_dim",
    "default_config",
    "rho_F",
    "d_F",
    "d_F_from_rho",
    "L_functional",
    "make_kappa",
    "kappa_eval",
    "kappa_gradient_field",
    "kappa_hessian_field",
    "parallelogram_check",
    "weight_mass",
    "moment_constant",
]


def lambda_for_dim(d: int) -> int:
    """Integrability exponent for the spectral weight, by dimension.

    floor(d/2) + 4 when d mod 4 in {0, 1}; floor(d/2) + 3 otherwise.
    """
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    return d // 2 + 4 if d % 4 in (0, 1) else d // 2 + 3


_DEFAULT_NODES = {1: 384, 2: 48, 3: 24}
_TAIL_TARGET = 1e-10  # spectral tail mass beyond default_config's radius
_PARALLELOGRAM_TOL = 1e-10  # parallelogram_check: allowed shortfall of the left side


@dataclass(frozen=True)
class FourierConfig:
    """Quadrature recipe for the spectral integrals in a fixed dimension."""

    dim: int
    lam: int
    k_radius: float
    k_nodes_per_axis: int

    def __post_init__(self):
        if self.k_radius <= 0:
            raise ValueError("k_radius must be positive")
        if self.k_nodes_per_axis < 8:
            raise ValueError("k_nodes_per_axis must be >= 8")
        if self.lam < 1:
            raise ValueError("lam must be a positive integer")


def _sphere_area(d: int) -> float:
    """Surface area 2 pi^(d/2) / Gamma(d/2) of the unit sphere in R^d."""
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


def _radial_tail(d: int, lam: int, y: float) -> float:
    """integral_R^inf s^(d-1) (1+s^2)^-lam ds at y = 1 / (1 + R^2).

    With a = lam - d/2 and b = d/2 it equals y^a (1-y)^b / (2a) times
    sum_n (lam)_n / (a+1)_n y^n, the series of the regularized incomplete
    beta function I_y(a, b); its terms shrink by a ratio below 1 for y < 1.
    """
    a, b = lam - d / 2.0, d / 2.0
    term = total = 1.0
    n = 0
    while total + term != total:
        term *= (lam + n) / (a + 1.0 + n) * y
        total += term
        n += 1
    return y**a * (1.0 - y) ** b / (2.0 * a) * total


def _tail_radius(d: int, lam: int) -> float:
    """R with 4 (2 pi)^-d * integral over |k|>R of the weight equal to 1e-10.

    In polar form the integral is the sphere area times ``_radial_tail``,
    which grows with y = 1 / (1 + R^2); y is bisected on (0, 1) down to
    adjacent floats.
    """
    target = _TAIL_TARGET / (4.0 * (2.0 * math.pi) ** (-d) * _sphere_area(d))
    lo, hi = 0.0, 1.0
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        if _radial_tail(d, lam, mid) < target:
            lo = mid
        else:
            hi = mid
    return math.sqrt(1.0 / hi - 1.0)


@lru_cache(maxsize=32)
def default_config(d: int) -> FourierConfig:
    """Per-dimension default: exponent ``lambda_for_dim(d)``, radius from the
    1e-10 tail bound, node counts sized so doubling them moves distances by
    far less than 1e-6 on unit-scale atoms."""
    lam = lambda_for_dim(d)
    radius = math.ceil(_tail_radius(d, lam))
    return FourierConfig(d, lam, float(radius), _DEFAULT_NODES.get(d, 12))


@lru_cache(maxsize=64)
def _quadrature(cfg: FourierConfig):
    """Tensor Gauss-Legendre nodes (M, d) and spectral weights
    w/(1+|k|^2)^lam, ball-masked."""
    x, w = (v * cfg.k_radius for v in np.polynomial.legendre.leggauss(cfg.k_nodes_per_axis))
    mesh = np.meshgrid(*([x] * cfg.dim), indexing="ij")
    nodes = np.stack([m.ravel() for m in mesh], axis=1)
    mesh_w = np.meshgrid(*([w] * cfg.dim), indexing="ij")
    wts = np.prod(np.stack([m.ravel() for m in mesh_w]), axis=0)
    r2 = np.sum(nodes * nodes, axis=1)
    wts = np.where(r2 <= cfg.k_radius**2, wts, 0.0)
    wtilde = wts / (1.0 + r2) ** cfg.lam
    nodes.setflags(write=False)
    wtilde.setflags(write=False)
    return nodes, wtilde


def weight_mass(cfg: FourierConfig) -> float:
    """Quadrature value of the integrable spectral weight (1+|k|^2)^{-lam}."""
    _, wtilde = _quadrature(cfg)
    return float(np.sum(wtilde))


def moment_constant(cfg: FourierConfig, power: int) -> float:
    """sqrt of the full-space integral of |k|^power * (1+|k|^2)^{-lam}.

    In polar form the integral is surf * integral_0^inf s^(power+d-1)
    (1+s^2)^-lam ds = surf * B(a, lam - a) / 2 with a = (power + d) / 2,
    finite exactly when power + d < 2 lam.
    """
    d, lam = cfg.dim, cfg.lam
    if power + d >= 2 * lam:
        raise ValueError("moment integral diverges for this (power, lam)")
    a = (power + d) / 2.0
    beta = math.exp(math.lgamma(a) + math.lgamma(lam - a) - math.lgamma(lam))
    return math.sqrt(_sphere_area(d) * 0.5 * beta)


def _check_dims(cfg: FourierConfig, *measures: SignedAtomicMeasure):
    for m in measures:
        if m.dim != cfg.dim:
            raise ValueError(f"measure dim {m.dim} != config dim {cfg.dim}")


def _seminorm(wtilde: np.ndarray, coeffs: np.ndarray) -> float:
    """sqrt(int |c_k|^2 weight dk) for spectral coefficients c at the quadrature nodes."""
    return math.sqrt(max(float(wtilde @ (coeffs.real**2 + coeffs.imag**2)), 0.0))


def rho_F(mu: SignedAtomicMeasure, nu: SignedAtomicMeasure, cfg: FourierConfig) -> float:
    """Spectral distance between two measures (pseudo-metric on atom lists)."""
    _check_dims(cfg, mu, nu)
    nodes, wtilde = _quadrature(cfg)
    dhat = char_fn_batch(mu, nodes) - char_fn_batch(nu, nodes)
    return _seminorm(wtilde, dhat)


def d_F(theta: Theta, iota: Theta, cfg: FourierConfig) -> float:
    """Extended distance sqrt(|t-s|^2 + |m-n|^2 + rho_F^2(mu, nu))."""
    return d_F_from_rho(theta, iota, rho_F(theta.measure, iota.measure, cfg))


def d_F_from_rho(theta: Theta, iota: Theta, rho: float) -> float:
    """``d_F`` given rho_F of the pair's measures, such as their kernel's ``rho``."""
    dm = theta.m - iota.m
    return math.sqrt((theta.t - iota.t) ** 2 + float(dm @ dm) + rho**2)


def L_functional(
    eta: SignedAtomicMeasure,
    mu_star: SignedAtomicMeasure,
    nu_star: SignedAtomicMeasure,
    cfg: FourierConfig,
) -> float:
    """Bilinear pairing 2 int Re(F_k(eta) (F_k(mu*) - F_k(nu*))^*) weight dk."""
    _check_dims(cfg, eta, mu_star, nu_star)
    nodes, wtilde = _quadrature(cfg)
    ehat = char_fn_batch(eta, nodes)
    dhat = char_fn_batch(mu_star, nodes) - char_fn_batch(nu_star, nodes)
    return 2.0 * float(wtilde @ (ehat * dhat.conj()).real)


@dataclass(frozen=True)
class KappaKernel:
    """Penalization kernel for a pair (mu, nu) at scale eps.

    kappa(x) = (1/eps) * int Re(F_k(mu - nu) conj(f_k(x))) weight dk, with
    cached per-node spectral coefficients of mu - nu so that kappa and its
    first two derivatives are cheap to evaluate anywhere.
    """

    config: FourierConfig
    epsilon: float
    eta_hat: np.ndarray  # F_k(mu - nu) per quadrature node
    rho: float  # rho_F(mu, nu) under the same quadrature


def make_kappa(
    mu: SignedAtomicMeasure,
    nu: SignedAtomicMeasure,
    epsilon: float,
    cfg: FourierConfig,
) -> KappaKernel:
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    _check_dims(cfg, mu, nu)
    nodes, wtilde = _quadrature(cfg)
    eta_hat = char_fn_batch(mu, nodes) - char_fn_batch(nu, nodes)
    return KappaKernel(cfg, epsilon, eta_hat, _seminorm(wtilde, eta_hat))


def kappa_eval(kernel: KappaKernel, x, order: int = 0):
    """kappa, grad kappa or Hessian kappa at points x of shape (..., d).

    Differentiates the quadrature; order 0 returns shape (...), order 1
    shape (..., d) and order 2 symmetric (..., d, d).
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    d = kernel.config.dim
    if x.shape[-1] != d:
        raise ValueError("evaluation point dimension mismatch")
    if not np.all(np.isfinite(x)):
        raise ValueError("evaluation point must be finite")
    nodes, wtilde = _quadrature(kernel.config)
    coeff = wtilde * (2.0 * np.pi) ** (-d / 2.0)
    wave = kernel.eta_hat * np.exp(-1j * (x @ nodes.T))
    if order == 0:
        return (wave.real @ coeff) / kernel.epsilon
    if order == 1:
        return ((coeff * wave.imag) @ nodes) / kernel.epsilon
    if order == 2:
        return -np.einsum("...j,jp,jq->...pq", coeff * wave.real, nodes, nodes) / kernel.epsilon
    raise ValueError("order must be 0, 1 or 2")


def kappa_gradient_field(kernel: KappaKernel):
    """Batched closure X (n,d) -> (n,d) evaluating grad kappa at each row."""
    return lambda X: kappa_eval(kernel, X, 1)


def kappa_hessian_field(kernel: KappaKernel):
    """Batched closure X (n,d) -> (n,d,d) evaluating the Hessian of kappa."""
    return lambda X: kappa_eval(kernel, X, 2)


def parallelogram_check(
    mu: SignedAtomicMeasure,
    nu: SignedAtomicMeasure,
    mu_star: SignedAtomicMeasure,
    nu_star: SignedAtomicMeasure,
    cfg: FourierConfig,
) -> CheckReport:
    """Spectral parallelogram inequality between a pair and an anchor pair.

    Asserts 2 rho^2(mu,mu*) + 2 rho^2(nu,nu*) + L(mu,mu*,nu*) - L(nu,mu*,nu*)
    >= rho^2(mu,nu) + rho^2(mu*,nu*) - 1e-10, with equality within 1e-10 when
    (mu, nu) = (mu*, nu*).  A violation signals either a quadrature config
    with negative weights (impossible for the shipped rules) or a bug.
    """
    lhs = (
        2.0 * rho_F(mu, mu_star, cfg) ** 2
        + 2.0 * rho_F(nu, nu_star, cfg) ** 2
        + L_functional(mu, mu_star, nu_star, cfg)
        - L_functional(nu, mu_star, nu_star, cfg)
    )
    rhs = rho_F(mu, nu, cfg) ** 2 + rho_F(mu_star, nu_star, cfg) ** 2
    gap = lhs - rhs
    passed = gap >= -_PARALLELOGRAM_TOL
    return CheckReport(
        name="parallelogram",
        passed=bool(passed),
        stats={"lhs": lhs, "rhs": rhs, "gap": gap, "tol": _PARALLELOGRAM_TOL},
        failures=[] if passed else [{"lhs": lhs, "rhs": rhs}],
    )
