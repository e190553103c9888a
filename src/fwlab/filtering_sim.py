"""Common-noise particle simulation of the controlled conditional law.

Because the common-noise loading does not depend on the state and the
observation is the common path itself, the conditional law given that path is
exactly the mixture over initial condition and idiosyncratic noise: particles
driven by one shared W path and independent B paths represent it with no
reweighting.  Policies only ever see a summary of the empirical law, so
adaptedness to the common filtration is enforced structurally.  All runs
advance together: one Euler step moves a (runs, N, d) state array and the
(runs, N) running cost beside it, while every run draws from its own
substreams, so a run's path does not depend on the other runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._rng import mean_stderr, substream
from .hamiltonians import FilteringCoeffs, G_filtering, JetArgs
from .measures import SignedAtomicMeasure

__all__ = [
    "LawSummary",
    "ControlPolicy",
    "SimConfig",
    "sample_costs",
    "estimate_cost",
    "LQParams",
    "lq_riccati",
    "lq_value",
    "lqg_value_oracle",
    "lqg_feedback_policy",
    "SmoothCandidate",
    "viscosity_residual",
    "constant_policy",
    "lq_candidate",
    "POLICY_REGISTRY",
]

_DIVERGENCE_GUARD = 1e6
# viscosity_residual's spot check of the derivative closures
_CONSISTENCY_TOL = 1e-3


@dataclass(frozen=True)
class LawSummary:
    """What a policy is allowed to see: the empirical conditional law's mean,
    one (d,) row per run."""

    mean: np.ndarray


@dataclass(frozen=True)
class ControlPolicy:
    """Measurable feedback on the empirical conditional law.

    ``rule(t, summary)`` sees the summaries of all runs at once and returns
    one scalar control per run, as a (runs,) array.  Controls must lie
    inside [lo, hi] (clipped defensively on use).
    """

    rule: Callable
    lo: float
    hi: float

    def __call__(self, t: float, summary: LawSummary) -> np.ndarray:
        return np.clip(np.asarray(self.rule(t, summary), dtype=float), self.lo, self.hi)


_CONSTANT_CONTROL_BOUND = 4.0  # constant_policy clips its control to [-4, 4]


def constant_policy(value: float) -> ControlPolicy:
    return ControlPolicy(
        lambda t, s: np.full(len(s.mean), value), -_CONSTANT_CONTROL_BOUND, _CONSTANT_CONTROL_BOUND
    )


@dataclass(frozen=True)
class SimConfig:
    dt: float
    n_particles: int
    horizon: float
    runs: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.dt <= 0 or self.dt > self.horizon + 1e-15:
            raise ValueError("need 0 < dt <= horizon")
        if self.runs < 1 or self.n_particles < 1:
            raise ValueError("runs and particle count must be >= 1")


def _run_paths(
    t: float,
    mu: SignedAtomicMeasure,
    policy: ControlPolicy,
    coeffs: FilteringCoeffs,
    cfg: SimConfig,
    runs,
):
    """Generator of (time, states, running cost per particle) along the Euler
    paths of the given runs, stepped together.

    States have shape (len(runs), N, d) and running costs (len(runs), N).
    Batch row k draws from the substreams (seed, runs[k], 0..2), so it does
    not depend on which other runs share the batch.  The running cost is the
    left-endpoint quadrature of r along each particle's path up to the
    yielded time.  The states and the running cost are each one array moved
    in place, so a consumer that keeps either past the next step must copy
    it; the coefficient closures see a view of the states that the step then
    moves, so they must not keep it either.  A state that is not finite or
    exceeds the divergence guard in absolute value raises FloatingPointError.
    The paths end at the horizon: t must lie in [0, horizon] and (horizon -
    t) / dt be an integer within 1e-9 relative, else ValueError.
    """
    if not mu.probability:
        raise ValueError("initial condition must be a probability measure")
    if not 0.0 <= t <= cfg.horizon:
        raise ValueError(f"start time {t!r} is outside [0, horizon {cfg.horizon!r}]")
    steps = (cfg.horizon - t) / cfg.dt
    n_steps = round(steps)
    if abs(steps - n_steps) > 1e-9 * max(steps, 1.0):
        raise ValueError(f"dt {cfg.dt!r} does not divide horizon - t = {cfg.horizon - t!r} evenly")
    R, N, d = len(runs), cfg.n_particles, coeffs.d

    # substreams 1 and 0 are read once here, and only substream 2 is kept
    p0 = mu.weights / mu.weights.sum()
    X = np.stack(
        [mu.locations[substream(cfg.seed, run, 1).choice(mu.n_atoms, size=N, p=p0)] for run in runs]
    )
    flat = X.reshape(R * N, d)
    sqdt = math.sqrt(cfg.dt)
    # (R, n_steps, d2, 1): one column per run and step for the common loading
    dW = np.stack(
        [substream(cfg.seed, run, 0).standard_normal((n_steps, coeffs.d2)) for run in runs]
    )[..., None] * sqdt
    rng_b = [substream(cfg.seed, run, 2) for run in runs]
    # A step allocates no (runs * N)-sized array of its own.  Five such buffers
    # live across the steps: X, running, the controls and two scratches, one
    # holding the normals dB until sigma dB is taken and then b dt, the other
    # r dt and then sigma dB.  Each closure output is dropped before the next
    # closure is called, so at most six are alive at once.
    dB_buf, noise_buf = np.empty(R * N * max(coeffs.d1, d)), np.empty(R * N * d)
    dB = dB_buf[: R * N * coeffs.d1].reshape(R * N, coeffs.d1)
    b_dt = dB_buf[: R * N * d].reshape(R * N, d)
    r_dt, noise = noise_buf[: R * N], noise_buf.reshape(R * N, d)
    controls = np.empty(R * N)
    running = np.zeros((R, N))
    yield t, X, running
    for step in range(n_steps):
        a = policy(t + step * cfg.dt, LawSummary(X.mean(axis=1)))
        controls.reshape(R, N)[...] = a[:, None]
        np.multiply(np.asarray(coeffs.r(flat, controls), dtype=float), cfg.dt, out=r_dt)
        running += r_dt.reshape(R, N)
        for k, g in enumerate(rng_b):
            g.standard_normal(out=dB[k * N : (k + 1) * N])
        dB *= sqdt
        sigma = np.asarray(coeffs.sigma(flat, controls), dtype=float)
        np.einsum("nij,nj->ni", sigma, dB, out=noise)
        del sigma
        np.multiply(np.asarray(coeffs.b(flat, controls), dtype=float), cfg.dt, out=b_dt)
        # X + b dt + sigma dB + sigma_tilde dW, summed in this order.  The
        # closures' outputs are never written to: a closure may return an
        # array it keeps.
        flat += b_dt
        flat += noise
        X += (np.asarray(coeffs.sigma_tilde(a), dtype=float) @ dW[:, step])[:, None, :, 0]
        if not (X.max() <= _DIVERGENCE_GUARD and X.min() >= -_DIVERGENCE_GUARD):
            raise FloatingPointError(
                f"particle state is not finite or exceeded {_DIVERGENCE_GUARD:g}; check coefficients"
            )
        yield t + (step + 1) * cfg.dt, X, running


def sample_costs(
    t: float,
    mu: SignedAtomicMeasure,
    policy: ControlPolicy,
    coeffs: FilteringCoeffs,
    cfg: SimConfig,
) -> tuple:
    """Per-run costs (running + terminal) and run 0's trajectory rows.

    Each run's cost is the particle average of its running cost plus the
    terminal cost l.  Run 0 also records (time, mean, variance, cost_to_date)
    at every Euler step: the first coordinate of the particle mean, the
    particle variance and the particle average of the running cost so far.
    """
    rows = []
    for clock, X, running in _run_paths(t, mu, policy, coeffs, cfg, range(cfg.runs)):
        mean = X[0].mean(axis=0)
        var = float(np.mean((X[0] - mean) ** 2))
        rows.append((clock, float(mean[0]), var, float(running[0].mean())))
    return _run_costs(X, running, coeffs), rows


def _run_costs(X: np.ndarray, running: np.ndarray, coeffs: FilteringCoeffs) -> list:
    """Per-run particle averages of running plus terminal cost, from the
    final (runs, N, d) states and (runs, N) running costs of ``_run_paths``."""
    terminal = np.asarray(coeffs.l(X.reshape(-1, coeffs.d)), dtype=float).reshape(running.shape)
    costs = (running + terminal).mean(axis=1).tolist()
    for run, cost in enumerate(costs):
        if not math.isfinite(cost):
            raise FloatingPointError(f"run {run} has a non-finite cost; check coefficients")
    return costs


def estimate_cost(
    t: float,
    mu: SignedAtomicMeasure,
    policy: ControlPolicy,
    coeffs: FilteringCoeffs,
    cfg: SimConfig,
) -> tuple:
    """Monte Carlo cost (running + terminal) with its run-level standard error.

    Left-endpoint time quadrature for the running cost; the estimate is the
    mean over runs of per-run particle averages, aggregated with exact
    summation so the result does not depend on run ordering.
    """
    for _, X, running in _run_paths(t, mu, policy, coeffs, cfg, range(cfg.runs)):
        pass
    return mean_stderr(_run_costs(X, running, coeffs))


# ---------------------------------------------------------------------------
# scalar linear-quadratic reference solution
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LQParams:
    """Scalar family: drift = control, constant noise loadings, quadratic costs.

    Running cost is control_weight * a^2, terminal cost x^2.  The control box
    [-control_bound, control_bound] must be wide enough that the unconstrained
    feedback stays interior for the states of interest.
    """

    sigma: float = 1.0
    sigma_tilde: float = 1.0
    horizon: float = 1.0
    control_weight: float = 1.0
    control_bound: float = 4.0

    def __post_init__(self):
        if self.control_weight <= 0 or self.horizon <= 0 or self.control_bound <= 0:
            raise ValueError("LQ parameters must be positive")
        if self.sigma < 0 or self.sigma_tilde < 0:
            raise ValueError("noise loadings must be nonnegative")


def lq_riccati(t, lq: LQParams) -> tuple:
    """Exact Riccati pair (P(t), c(t)) of the scalar LQ family.

    P = rho / (rho + T - t) and c = sigma_tilde^2 rho ln((rho + T - t) / rho)
    solve dP/dt = P^2/rho, dc/dt = -sigma_tilde^2 P with P(T) = 1, c(T) = 0;
    both extend smoothly past [0, T] for t < T + rho.
    """
    rho = lq.control_weight
    s = rho + (lq.horizon - t)
    return rho / s, lq.sigma_tilde**2 * rho * np.log(s / rho)


def lq_value(t, mean: float, var: float, lq: LQParams) -> tuple:
    """Optimal cost of the scalar LQ family from a law with this mean and variance.

    Returns (V, dV/dt, dV/dmean, d^2V/dmean^2) for
    V = P(t) mean^2 + c(t) + var + sigma^2 (T - t).
    """
    P, c = lq_riccati(t, lq)
    value = P * mean * mean + c + var + lq.sigma**2 * (lq.horizon - t)
    dt = (P * P / lq.control_weight) * mean * mean - lq.sigma_tilde**2 * P - lq.sigma**2
    return value, dt, 2.0 * P * mean, 2.0 * P


def _mean_var(mu: SignedAtomicMeasure) -> tuple:
    mean = float(mu.mean()[0])
    return mean, mu.second_moment() - mean * mean


def lqg_value_oracle(t: float, mu: SignedAtomicMeasure, lq: LQParams) -> float:
    """Reference optimal cost for the scalar LQ family.

    The closed-form Riccati pair of the conditional-mean problem plus the
    contribution of the conditional variance, ``lq_value`` at the mean and
    variance of mu.  Validate against the control-grid dynamic program
    before relying on it.
    """
    if not isinstance(lq, LQParams):
        raise TypeError("lqg_value_oracle needs LQParams")
    if mu.dim != 1:
        raise ValueError("the LQ reference is scalar")
    if not mu.probability:
        raise ValueError("initial condition must be a probability measure")
    if t < 0 or t > lq.horizon + 1e-12:
        raise ValueError("time outside [0, horizon]")
    return float(lq_value(t, *_mean_var(mu), lq)[0])


def lqg_feedback_policy(lq: LQParams) -> ControlPolicy:
    """Optimal mean-feedback a = -P(t) mean / control_weight, clipped to the box."""

    def rule(t, summary: LawSummary):
        slope = lq_value(t, summary.mean[:, 0], 0.0, lq)[2]
        return -slope / (2.0 * lq.control_weight)

    return ControlPolicy(rule, -lq.control_bound, lq.control_bound)


POLICY_REGISTRY = {
    "zero": lambda lq=None: constant_policy(0.0),
    "lqg-feedback": lambda lq: lqg_feedback_policy(lq),
}


# ---------------------------------------------------------------------------
# smooth candidates and the equation residual
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SmoothCandidate:
    """A candidate solution with analytic derivative closures.

    ``value(t, mu)`` and ``dt(t, mu)`` are scalars; ``p(t, mu)`` and
    ``q(t, mu)`` return batched fields (the measure-derivative gradient and
    Hessian); ``hess_m(t, mu)`` is the (d, d) second derivative along uniform
    translations of the measure.
    """

    value: Callable
    dt: Callable
    p: Callable
    q: Callable
    hess_m: Callable


def _consistency_check(phi: SmoothCandidate, t: float, mu: SignedAtomicMeasure, tol: float):
    h = 1e-4
    # time slot, probed just inside the domain so the stencil stays valid at t = 0
    t_probe = t + 2 * h
    fd_t = (phi.value(t_probe + h, mu) - phi.value(t_probe - h, mu)) / (2 * h)
    an_t = phi.dt(t_probe, mu)
    if abs(fd_t - an_t) > tol * (1.0 + abs(an_t)):
        raise ValueError(f"dt closure inconsistent: fd={fd_t}, closure={an_t}")
    d = mu.dim
    pfield = phi.p(t, mu)
    # first variation along single-atom moves
    j = 0
    for axis in range(d):
        locs_plus = mu.locations.copy()
        locs_minus = mu.locations.copy()
        locs_plus[j, axis] += h
        locs_minus[j, axis] -= h
        mp = SignedAtomicMeasure(d, locs_plus, mu.weights, True)
        mm = SignedAtomicMeasure(d, locs_minus, mu.weights, True)
        fd = (phi.value(t, mp) - phi.value(t, mm)) / (2 * h)
        an = mu.weights[j] * float(np.asarray(pfield(mu.locations))[j, axis])
        if abs(fd - an) > tol * (1.0 + abs(an)):
            raise ValueError(f"p closure inconsistent along atom 0 axis {axis}: fd={fd}, closure={an}")
    # spatial gradient of p against q
    qfield = phi.q(t, mu)
    x0 = mu.locations[:1]
    for axis in range(d):
        e = np.zeros(d)
        e[axis] = h
        fd = (np.asarray(pfield(x0 + e))[0] - np.asarray(pfield(x0 - e))[0]) / (2 * h)
        an = np.asarray(qfield(x0))[0][:, axis]
        if np.max(np.abs(fd - an)) > tol * (1.0 + np.max(np.abs(an))):
            raise ValueError(f"q closure inconsistent along axis {axis}")
    # translation Hessian
    for axis in range(d):
        e = np.zeros(d)
        e[axis] = h
        vp = phi.value(t, _translate(mu, e))
        vm = phi.value(t, _translate(mu, -e))
        v0 = phi.value(t, mu)
        fd = (vp - 2 * v0 + vm) / (h * h)
        an = float(np.asarray(phi.hess_m(t, mu))[axis, axis])
        if abs(fd - an) > 100 * tol * (1.0 + abs(an)):
            raise ValueError(f"translation Hessian inconsistent along axis {axis}: fd={fd}, closure={an}")


def _translate(mu: SignedAtomicMeasure, e: np.ndarray) -> SignedAtomicMeasure:
    return SignedAtomicMeasure(mu.dim, mu.locations + e, mu.weights, mu.probability)


def viscosity_residual(
    phi: SmoothCandidate,
    t: float,
    mu: SignedAtomicMeasure,
    coeffs: FilteringCoeffs,
    control_grid,
) -> float:
    """Equation residual -dt(phi) - G(mu, derivatives of phi) at (t, mu).

    Derivative closures are spot-checked against finite differences of the
    value closure along measure perturbations (time probed at t + O(1e-4),
    so t should sit below the horizon by at least that much) before use; a
    classical solution drives the residual to zero as the control grid
    refines.
    """
    _consistency_check(phi, t, mu, _CONSISTENCY_TOL)
    jet = JetArgs(phi.p(t, mu), phi.q(t, mu), np.atleast_2d(phi.hess_m(t, mu)))
    return -phi.dt(t, mu) - G_filtering(mu, jet, coeffs, control_grid)


def lq_candidate(lq: LQParams) -> SmoothCandidate:
    """The LQ reference value as a smooth candidate with analytic derivatives."""

    def value(t, mu):
        return float(lq_value(t, *_mean_var(mu), lq)[0])

    def dt(t, mu):
        return float(lq_value(t, *_mean_var(mu), lq)[1])

    def p(t, mu):
        mean, var = _mean_var(mu)
        slope = lq_value(t, mean, var, lq)[2]

        return lambda X: slope + 2.0 * (X - mean)

    def q(t, mu):
        return lambda X: np.full((X.shape[0], 1, 1), 2.0)

    def hess_m(t, mu):
        return np.array([[lq_value(t, *_mean_var(mu), lq)[3]]])

    return SmoothCandidate(value, dt, p, q, hess_m)
