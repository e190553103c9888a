"""Reference values computed apart from fwlab's own code paths.

Each function is a closed form, an exact identity or an independent solver;
none calls into ``fwlab``.  The benchmark checks every unit of work against
these, never against a stored copy of an earlier run.
"""

from __future__ import annotations

import math

import numpy as np


def doubling_floor(slack: float, delta: float) -> float:
    """Exact doubled objective at the diagonal point (atom at 0, m = 0, vartheta = 1).

    With u = v + slack the value there is slack - 2 delta, so every maximum
    of the doubled objective is at least this.
    """
    return slack - 2.0 * delta


def lq_cost_closed_form(
    mean: float, var: float, sigma: float, sigma_tilde: float, rho: float, horizon: float
) -> float:
    """Optimal cost P(0) mean^2 + c(0) + Var + sigma^2 T of the scalar LQ problem.

    P(t) = rho / (rho + T - t) and c(t) = sigma_tilde^2 rho ln((rho + T - t) / rho)
    solve the Riccati pair dP/dt = P^2 / rho, dc/dt = -sigma_tilde^2 P with
    P(T) = 1, c(T) = 0.
    """
    p0 = rho / (rho + horizon)
    c0 = sigma_tilde**2 * rho * math.log((rho + horizon) / rho)
    return p0 * mean * mean + c0 + var + sigma**2 * horizon


def exp_weights_first_action_regret(eta: float, horizon: int) -> float:
    """Expected regret of two-action exp-weights against the first-action adversary.

    The adversary always plays the subset {1}, so the forecaster's score
    vector after s rounds is (s, 0) whatever it drew; it picks action 2 with
    probability 1 / (1 + e^{eta s}), and each such round adds one to the gap
    of action 1, which is the maximum gap.  Summing gives the exact mean.
    """
    return math.fsum(1.0 / (1.0 + math.exp(eta * s)) for s in range(horizon))


def regret_sup_zero_q(M: np.ndarray) -> float:
    """sup of K_regret with q = 0 and PSD M: (1/2) max over proper subsets S of 1_S^T M 1_S.

    With q = 0 the pairing is (1/2)(hat_i V_i^T M V_i + hat_{-i} V_{-i}^T M V_{-i}),
    convex in each conditional mean, so by Jensen's inequality the supremum
    sits at a vertex action, where V is the indicator of a proper subset.
    """
    M = np.asarray(M, dtype=float)
    K = M.shape[0]
    best = 0.0
    for mask in range(2**K - 1):
        e = np.array([(mask >> j) & 1 for j in range(K)], dtype=float)
        best = max(best, 0.5 * float(e @ M @ e))
    return best


def filtering_grid_minimum_bounds(
    alpha: float, beta: float, mean: float, sigma: float, sigma_tilde: float, M: float, h: float
) -> tuple:
    """Interval [c, c + h^2/4] holding G_filtering for lq1d with p(x) = alpha x, q = beta.

    K(a) = a^2 + a alpha mean + beta sigma^2 / 2 + sigma_tilde^2 M / 2 is a
    parabola of unit curvature, so its minimum over controls is
    c = -(alpha mean)^2 / 4 + beta sigma^2 / 2 + sigma_tilde^2 M / 2, and a
    grid of step h whose range contains the minimizer comes within
    (h / 2)^2 of it.
    """
    c = -((alpha * mean) ** 2) / 4.0 + 0.5 * beta * sigma**2 + 0.5 * sigma_tilde**2 * M
    return c, c + h * h / 4.0


def game_value_lp(horizon: int, g0, grid_weights: list) -> float:
    """Sequence-form linear-program value of the game (tests/_oracles.py).

    One LP over both players' realization plans on the whole tree, instead
    of the stagewise matrix games of fwlab's backward induction.
    """
    from _oracles import sequence_form_value

    return sequence_form_value(horizon, g0, grid_weights)


def point_mass_gram(x, lam: int) -> np.ndarray:
    """Gram matrix of the spectral inner product between unit atoms at the points x (d = 1).

    G_ab = G_0 - rho_F(delta_a, delta_b)^2 / 2, with the distance between two
    point masses integrated adaptively over the whole line.
    """
    from scipy import integrate
    from _oracles import rho_f_point_masses_1d

    g0 = 2.0 * integrate.quad(lambda k: (1 + k * k) ** (-lam), 0, np.inf, epsabs=1e-15)[0]
    g0 /= 2.0 * math.pi
    x = np.asarray(x, dtype=float)
    return np.array(
        [[g0 - 0.5 * rho_f_point_masses_1d(a - b, lam) ** 2 for b in x] for a in x]
    )


def doubling_excess_slope(
    x, m_box: float, sigma: float, sigma_tilde: float, rho: float, horizon: float,
    osc: float, lam: int = 4,
) -> float:
    """kappa with (doubled maximum) - (diagonal floor) <= kappa * eps for the LQ pair.

    u - v = slack + f(theta) - f(iota) with f the rescaled LQ value on the
    support slice, and the moment penalty is at least 2 delta, so
    H <= floor + L d - d^2 / (2 eps) <= floor + eps L^2 / 2, where L bounds
    f's Lipschitz constant for d_F^2 = dt^2 + dm^2 + rho_F^2.  L comes from
    the sup of each partial derivative over [0, T] x simplex x [-m_box, m_box];
    the weight part is measured in the dual norm of the Gram form on
    zero-sum weight changes.
    """
    x = np.asarray(x, dtype=float)
    xmax = float(np.max(np.abs(x)))
    mean_max = xmax + m_box
    # P(t) = rho/(rho+T-t) lies in (0, 1] with P' <= 1/rho; c' = -sigma_tilde^2 P
    d_t = mean_max**2 / rho + sigma_tilde**2 + sigma**2
    d_m = 2.0 * mean_max
    gram = point_mass_gram(x, lam)
    n = x.size
    # orthonormal basis of the zero-sum weight changes
    basis = np.linalg.qr(np.eye(n) - 1.0 / n)[0][:, : n - 1]
    inv = np.linalg.inv(basis.T @ gram @ basis)

    def dual(v):
        c = basis.T @ v
        return math.sqrt(float(c @ inv @ c))

    # grad_w f = (2 P mean - 2 w.x) x + x^2
    d_w = (2.0 * mean_max + 2.0 * xmax) * dual(x) + dual(x * x)
    c0 = sigma_tilde**2 * rho * math.log((rho + horizon) / rho)
    raw_bound = mean_max**2 + c0 + float(np.max(x * x)) + sigma**2 * horizon
    lip = osc / raw_bound * math.sqrt(d_t**2 + d_m**2 + d_w**2)
    return 0.5 * lip * lip
