"""Fourier-weighted distance between measures and its penalization kernel.

The squared distance is the integral of |F_k(mu - nu)|^2 / (1 + |k|^2)^lambda
over wave vectors k in R^d, with F_k the (2*pi)^{-d/2}-normalized
characteristic function; it is finite exactly when 2 lambda > d.  Over the
signed atoms (x_i, a_i) of mu - nu it is the double sum of a_i a_j
C(|x_i - x_j|), where C, the inverse Fourier transform of the weight, is the
Matern kernel c r^nu K_nu(r) with nu = lambda - d/2 and c = (2 pi)^(-d/2)
2^(1-lambda) / Gamma(lambda) (Rasmussen and Williams, Gaussian Processes for
Machine Learning, 2006, section 4.2.1).  Nothing is truncated, and numpy
alone builds f_a(r) = r^a K_a(r): in closed form for odd d, from a fixed
trapezoid rule for even d.

The kernel kappa built from a pair (mu, nu) and a penalization scale eps is
the smoothed density eps^-1 sum_i a_i C(|x - x_i|) of mu - nu; its gradient
and Hessian drive the Hamiltonian difference estimates and come from the
same family, since d/dr f_a = -r f_{a-1}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measures import SignedAtomicMeasure, Theta
from .reports import CheckReport

__all__ = [
    "FourierConfig",
    "KappaKernel",
    "lambda_for_dim",
    "default_config",
    "kernel_matrix",
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


def __getattr__(name: str):
    # bench/tracing.py still wraps ``_quadrature`` and ``char_fn_batch``, which
    # the closed-form kernel replaced; each resolves to None, which the tracer
    # wraps and nothing calls.  Both go with the next benchmark change (ROADMAP
    # item 13).
    if name in ("_quadrature", "char_fn_batch"):
        return None
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def lambda_for_dim(d: int) -> int:
    """Integrability exponent for the spectral weight, by dimension.

    floor(d/2) + 4 when d mod 4 in {0, 1}; floor(d/2) + 3 otherwise.
    """
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    return d // 2 + 4 if d % 4 in (0, 1) else d // 2 + 3


_PARALLELOGRAM_TOL = 1e-10  # parallelogram_check: allowed shortfall of the left side
# K_0 and K_1 for even d: the trapezoid rule on int_0^inf e^(-r cosh s) (1, cosh s) ds
# over the fixed nodes s = 0, 0.1, ..., 25.9, so a point gets the same bits alone
# as in any batch; for r >= 1e-8 the integrand is below e^-980 past the last node
_COSH_S = np.cosh(0.1 * np.arange(260))
_K_WEIGHTS = 0.1 * np.stack([np.ones(260), _COSH_S])
_K_WEIGHTS[:, 0] *= 0.5
_R_ZERO = 1e-8  # below it, f_a reads its limit at r = 0 where that is finite


@dataclass(frozen=True)
class FourierConfig:
    """The spectral weight (1 + |k|^2)^-lam on wave vectors k in R^dim."""

    dim: int
    lam: int

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dimension must be >= 1, got {self.dim}")
        if self.lam < 1:
            raise ValueError("lam must be a positive integer")
        _require_moment(self, 0)


def _require_moment(cfg: FourierConfig, power: int) -> None:
    """Raise unless the integral of |k|^power (1+|k|^2)^-lam is finite: power + d < 2 lam."""
    if power + cfg.dim >= 2 * cfg.lam:
        raise ValueError(f"moment integral diverges for this (power, lam) = ({power}, {cfg.lam})")


def default_config(d: int) -> FourierConfig:
    """Per-dimension default: exponent ``lambda_for_dim(d)``."""
    return FourierConfig(d, lambda_for_dim(d))


def weight_mass(cfg: FourierConfig) -> float:
    """Integral of the spectral weight (1+|k|^2)^{-lam} over R^d."""
    return moment_constant(cfg, 0) ** 2


def moment_constant(cfg: FourierConfig, power: int) -> float:
    """sqrt of the full-space integral of |k|^power * (1+|k|^2)^{-lam}.

    In polar form the integral is surf * integral_0^inf s^(power+d-1)
    (1+s^2)^-lam ds = surf * B(a, lam - a) / 2 with a = (power + d) / 2 and
    surf = 2 pi^(d/2) / Gamma(d/2), finite exactly when power + d < 2 lam.
    """
    _require_moment(cfg, power)
    d, lam = cfg.dim, cfg.lam
    a = (power + d) / 2.0
    beta = math.exp(math.lgamma(a) + math.lgamma(lam - a) - math.lgamma(lam))
    return math.sqrt(math.pi ** (d / 2.0) / math.gamma(d / 2.0) * beta)


def _matern(cfg: FourierConfig, r: np.ndarray, depth: int = 0) -> list:
    """[C, C_1, ..., C_depth] at distances r: C_j = c f_(nu-j), f_a(r) = r^a K_a(r).

    The upward recurrence f_(a+1) = r^2 f_(a-1) + 2a f_a starts from
    (f_1/2, f_3/2) = sqrt(pi/2) e^-r (1, 1 + r) for odd d and from
    (f_0, f_1) = (K_0, r K_1) for even d; f_-a = r^-2a f_a.  Below r = 1e-8,
    f_a reads its limit 2^(a-1) Gamma(a) for a > 0, and its value at 1e-8 for
    a <= 0, where the kernel's derivatives multiply it by a vanishing x - x_i.
    """
    nu = cfg.lam - cfg.dim / 2.0
    small = r < _R_ZERO
    r = np.maximum(r, _R_ZERO)
    if cfg.dim % 2:
        base, f = 0.5, [math.sqrt(math.pi / 2.0) * np.exp(-r)]
        f.append(f[0] * (1.0 + r))
    else:
        k = np.vecdot(np.exp(-r[..., None] * _COSH_S)[..., None, :], _K_WEIGHTS)
        base, f = 0.0, [k[..., 0], r * k[..., 1]]
    while base + len(f) - 1 < nu:
        f.append(r * r * f[-2] + 2.0 * (base + len(f) - 1) * f[-1])
    c = (2.0 * math.pi) ** (-cfg.dim / 2.0) * 2.0 ** (1 - cfg.lam) / math.gamma(cfg.lam)
    out = []
    for a in (nu - j for j in range(depth + 1)):
        value = f[round(abs(a) - base)] * (r ** (2.0 * a) if a < 0 else 1.0)
        if a > 0:
            value = np.where(small, 2.0 ** (a - 1.0) * math.gamma(a), value)
        out.append(c * value)
    return out


def _offsets(x: np.ndarray, atoms: np.ndarray) -> tuple:
    """x - x_i over the atoms x_i on the last axis, shape (..., d, n), and its norms (..., n)."""
    D = x[..., :, None] - atoms.T
    return D, np.sqrt(np.vecdot(D, D, axis=-2))


def kernel_matrix(x, atoms, cfg: FourierConfig) -> np.ndarray:
    """C(|x - x_i|) for points x (..., d) and atoms x_i, the rows of (n, d), shape (..., n).

    C is positive definite, and C(|x - y|) has the same bits as C(|y - x|).
    """
    return _matern(cfg, _offsets(np.asarray(x, dtype=float), np.asarray(atoms, dtype=float))[1])[0]


def _check_dims(cfg: FourierConfig, *measures: SignedAtomicMeasure):
    for m in measures:
        if m.dim != cfg.dim:
            raise ValueError(f"measure dim {m.dim} != config dim {cfg.dim}")


def _difference(mu: SignedAtomicMeasure, nu: SignedAtomicMeasure) -> tuple:
    """Atoms (n, d) and signed weights (n,) of mu - nu, coincident atoms merged,
    so that mu - mu has only zero weights."""
    locations = np.concatenate([mu.locations, nu.locations])
    atoms, index = np.unique(locations, axis=0, return_inverse=True)
    return atoms, np.bincount(index.ravel(), np.concatenate([mu.weights, -nu.weights]), len(atoms))


def _rho(atoms: np.ndarray, weights: np.ndarray, cfg: FourierConfig) -> float:
    """sqrt(sum_ij a_i a_j C(|x_i - x_j|)) for the signed atoms (x_i, a_i)."""
    square = np.vecdot(weights, np.vecdot(kernel_matrix(atoms, atoms, cfg), weights))
    return math.sqrt(max(float(square), 0.0))


def rho_F(mu: SignedAtomicMeasure, nu: SignedAtomicMeasure, cfg: FourierConfig) -> float:
    """Spectral distance between two measures (pseudo-metric on atom lists)."""
    _check_dims(cfg, mu, nu)
    return _rho(*_difference(mu, nu), cfg)


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
    """Bilinear pairing 2 int Re(F_k(eta) (F_k(mu*) - F_k(nu*))^*) weight dk,
    that is 2 sum_ij e_i b_j C(|y_i - z_j|) over the atoms (y_i, e_i) of eta
    and (z_j, b_j) of mu* - nu*."""
    _check_dims(cfg, eta, mu_star, nu_star)
    atoms, weights = _difference(mu_star, nu_star)
    pairing = np.vecdot(eta.weights, np.vecdot(kernel_matrix(eta.locations, atoms, cfg), weights))
    return 2.0 * float(pairing)


@dataclass(frozen=True)
class KappaKernel:
    """Penalization kernel for a pair (mu, nu) at scale eps.

    kappa(x) = (1/eps) * int Re(F_k(mu - nu) conj(f_k(x))) weight dk
    = (1/eps) sum_i a_i C(|x - x_i|) over the signed atoms of mu - nu.
    """

    config: FourierConfig
    epsilon: float
    atoms: np.ndarray  # (n, d) atoms of mu - nu, coincident ones merged
    weights: np.ndarray  # (n,) their signed weights
    rho: float  # rho_F(mu, nu)


def make_kappa(
    mu: SignedAtomicMeasure,
    nu: SignedAtomicMeasure,
    epsilon: float,
    cfg: FourierConfig,
) -> KappaKernel:
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    _check_dims(cfg, mu, nu)
    atoms, weights = _difference(mu, nu)
    return KappaKernel(cfg, epsilon, atoms, weights, _rho(atoms, weights, cfg))


def kappa_eval(kernel: KappaKernel, x, order: int = 0):
    """kappa, grad kappa or Hessian kappa at points x of shape (..., d).

    Order 0 returns shape (...), order 1 shape (..., d) and order 2
    symmetric (..., d, d).  With D = x - x_i, r = |D| and C_j(r) =
    c r^(nu-j) K_(nu-j)(r), the gradient of C(r) is -C_1(r) D and its
    Hessian -C_1(r) I + C_2(r) D D^T.  Order j needs 2 lam - d > j, the
    moment ``moment_constant`` needs for power j.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    cfg = kernel.config
    if x.shape[-1] != cfg.dim:
        raise ValueError("evaluation point dimension mismatch")
    if not np.all(np.isfinite(x)):
        raise ValueError("evaluation point must be finite")
    if order not in (0, 1, 2):
        raise ValueError("order must be 0, 1 or 2")
    _require_moment(cfg, order)
    D, r = _offsets(x, kernel.atoms)
    C = _matern(cfg, r, order)
    a = kernel.weights / kernel.epsilon
    if order == 0:
        return np.vecdot(C[0], a)
    if order == 1:
        return -np.vecdot(D, (C[1] * a)[..., None, :])
    outer = np.vecdot(D[..., :, None, :] * D[..., None, :, :], (C[2] * a)[..., None, None, :])
    return outer - np.vecdot(C[1], a)[..., None, None] * np.eye(cfg.dim)


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
    (mu, nu) = (mu*, nu*).  The kernel is positive definite, so a violation
    signals a bug.
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
