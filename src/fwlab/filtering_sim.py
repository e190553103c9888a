"""Common-noise particle simulation of the controlled conditional law.

Because the common-noise loading does not depend on the state and the
observation is the common path itself, the conditional law given that path is
exactly the mixture over initial condition and idiosyncratic noise: particles
driven by one shared W path and independent B paths represent it with no
reweighting.  Policies only ever see a summary of the empirical law, so
adaptedness to the common filtration is enforced structurally.  Runs
advance in blocks: one Euler step moves a (block, N, d) state array and the
(block, N) running cost beside it, with the block sized so that each such
buffer stays under 128 KiB, while every run draws from its own substreams, so
a run's path does not depend on the other runs in its block.
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
    "viscosity_residual",
    "constant_policy",
    "lq_candidate",
    "POLICY_REGISTRY",
]

_DIVERGENCE_GUARD = 1e6
# sample_costs steps as many runs together as keep each state-sized float64
# buffer of _run_paths at 16 000 entries, 128 000 bytes: under glibc's
# 131 072-byte mmap threshold, so the buffers come from the heap and are reused
_BLOCK_POINTS = 16_000
_CONTROL_BOUND = 4.0
# viscosity_residual's spot check of the candidate's jet
_CONSISTENCY_TOL = 1e-3


@dataclass(frozen=True)
class LawSummary:
    """What a policy is allowed to see: the empirical conditional law's mean,
    one (d,) row per run."""

    mean: np.ndarray


@dataclass(frozen=True)
class ControlPolicy:
    """Measurable feedback on the empirical conditional law.

    ``rule(t, summary)`` sees the summaries of the runs stepped together at
    once and returns one scalar control per run, as a (runs,) array, clipped
    to [-4, 4] on use.
    """

    rule: Callable

    def __call__(self, t: float, summary: LawSummary) -> np.ndarray:
        return np.clip(np.asarray(self.rule(t, summary), dtype=float), -_CONTROL_BOUND, _CONTROL_BOUND)


def constant_policy(value: float) -> ControlPolicy:
    return ControlPolicy(lambda t, s: np.full(len(s.mean), value))


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
    The paths end at the horizon, else ValueError: t lies in [0, horizon] and
    (horizon - t) / dt is an integer, within 1e-9 relative, that fits an array.
    """
    if not mu.probability:
        raise ValueError("initial condition must be a probability measure")
    if mu.dim != coeffs.d:
        raise ValueError(f"initial law of dimension {mu.dim} for coefficients of dimension {coeffs.d}")
    if not 0.0 <= t <= cfg.horizon:
        raise ValueError(f"start time {t!r} is outside [0, horizon {cfg.horizon!r}]")
    steps = (cfg.horizon - t) / cfg.dt
    n_steps = round(steps)
    if abs(steps - n_steps) > 1e-9 * max(steps, 1.0):
        raise ValueError(f"dt {cfg.dt!r} does not divide horizon - t = {cfg.horizon - t!r} evenly")
    R, N, d = len(runs), cfg.n_particles, coeffs.d
    if R * n_steps * coeffs.d2 > np.iinfo(np.intp).max // 8:  # the normals' bytes
        raise ValueError(f"dt {cfg.dt!r} gives {steps:.3g} steps, more than an array can hold")

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
    The runs step in consecutive blocks, as many at a time as keep each
    state-sized buffer at _BLOCK_POINTS entries (at least one run); a run
    draws only from its own substreams, so the blocks change no bit.
    """
    block = max(1, _BLOCK_POINTS // (cfg.n_particles * max(coeffs.d, coeffs.d1)))
    rows, costs = [], []
    for lo in range(0, cfg.runs, block):
        runs = range(lo, min(lo + block, cfg.runs))
        for clock, X, running in _run_paths(t, mu, policy, coeffs, cfg, runs):
            if lo == 0:
                mean = X[0].mean(axis=0)
                var = float(np.mean((X[0] - mean) ** 2))
                rows.append((clock, float(mean[0]), var, float(running[0].mean())))
        terminal = np.asarray(coeffs.l(X.reshape(-1, coeffs.d)), dtype=float).reshape(running.shape)
        costs += (running + terminal).mean(axis=1).tolist()
        del X, running, terminal  # before the next block allocates its own
    for run, cost in enumerate(costs):
        if not math.isfinite(cost):
            raise FloatingPointError(f"run {run} has a non-finite cost; check coefficients")
    return costs, rows


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
    return mean_stderr(sample_costs(t, mu, policy, coeffs, cfg)[0])


# ---------------------------------------------------------------------------
# scalar linear-quadratic reference solution
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LQParams:
    """Scalar family: drift = control, constant noise loadings, quadratic costs.

    Running cost is control_weight * a^2, terminal cost x^2.
    """

    sigma: float = 1.0
    sigma_tilde: float = 1.0
    horizon: float = 1.0
    control_weight: float = 1.0

    def __post_init__(self):
        if self.control_weight <= 0 or self.horizon <= 0:
            raise ValueError("control_weight and horizon must be positive")
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
    """Optimal mean-feedback a = -P(t) mean / control_weight, clipped to [-4, 4], a box wide
    enough for the states of interest.  Reads only ``lq``'s horizon and control weight."""

    def rule(t, summary: LawSummary):
        slope = lq_value(t, summary.mean[:, 0], 0.0, lq)[2]
        return -slope / (2.0 * lq.control_weight)

    return ControlPolicy(rule)


def _lqg_feedback(horizon: float, /, *, control_weight: float = 1.0) -> ControlPolicy:
    return lqg_feedback_policy(LQParams(horizon=horizon, control_weight=control_weight))


# each factory takes the horizon, then the policy's keys as keyword-only parameters: its schema
POLICY_REGISTRY = {"zero": lambda horizon, /: constant_policy(0.0), "lqg-feedback": _lqg_feedback}


# ---------------------------------------------------------------------------
# smooth candidates and the equation residual
# ---------------------------------------------------------------------------


def _check_close(fd, closure, tol: float, what: str):
    """Raise ValueError naming ``what`` if a finite difference and the jet's
    value differ by more than tol (1 + |closure|), in the max norm."""
    if np.max(np.abs(fd - closure)) > tol * (1.0 + np.max(np.abs(closure))):
        raise ValueError(f"inconsistent {what}: fd={fd}, closure={closure}")


def _consistency_check(jet: Callable, t: float, mu: SignedAtomicMeasure, tol: float):
    h = 1e-4
    # time slot, probed just inside the domain so the stencil stays valid at t = 0
    t_probe = t + 2 * h
    fd_t = (jet(t_probe + h, mu)[0] - jet(t_probe - h, mu)[0]) / (2 * h)
    _check_close(fd_t, jet(t_probe, mu)[1], tol, "dt closure")
    v0, _, pfield, qfield, hess_m = jet(t, mu)
    x0 = mu.locations[:1]

    # the value with the atoms moved by shift: one (d,) row, or one row per atom
    value_at = lambda shift: jet(t, SignedAtomicMeasure(mu.dim, mu.locations + shift, mu.weights, True))[0]
    for axis, e in enumerate(h * np.eye(mu.dim)):
        # first variation along a move of atom 0 alone
        atom0 = e * np.eye(mu.n_atoms, 1)
        fd = (value_at(atom0) - value_at(-atom0)) / (2 * h)
        an = mu.weights[0] * float(np.asarray(pfield(mu.locations))[0, axis])
        _check_close(fd, an, tol, f"p closure along atom 0 axis {axis}")
        # spatial gradient of p against q
        fd = (np.asarray(pfield(x0 + e))[0] - np.asarray(pfield(x0 - e))[0]) / (2 * h)
        _check_close(fd, np.asarray(qfield(x0))[0][:, axis], tol, f"q closure along axis {axis}")
        # translation Hessian
        fd = (value_at(e) - 2 * v0 + value_at(-e)) / (h * h)
        an = float(np.asarray(hess_m)[axis, axis])
        _check_close(fd, an, 100 * tol, f"translation Hessian along axis {axis}")


def viscosity_residual(
    jet: Callable,
    t: float,
    mu: SignedAtomicMeasure,
    coeffs: FilteringCoeffs,
    control_grid,
) -> float:
    """Equation residual -dt(phi) - G(mu, derivatives of phi) at (t, mu).

    ``jet(t, mu)`` returns the candidate's whole jet from one call: the
    value and d/dt as scalars, the measure-derivative gradient p and Hessian
    q as batched fields X (n, d) -> (n, d) and (n, d, d), and the (d, d)
    second derivative hess_m along uniform translations of the measure.  The
    derivatives are spot-checked against finite differences of the value
    along measure perturbations (time probed at t + O(1e-4), so t should sit
    below the horizon by at least that much) before use; a classical
    solution drives the residual to zero as the control grid refines.  mu
    must be a probability measure.
    """
    _consistency_check(jet, t, mu, _CONSISTENCY_TOL)
    _, dt, p, q, hess_m = jet(t, mu)
    return -dt - G_filtering(mu, JetArgs(p, q, np.atleast_2d(hess_m)), coeffs, control_grid)


def lq_candidate(lq: LQParams) -> Callable:
    """The LQ reference value as a smooth candidate: the jet
    ``(t, mu) -> (value, d/dt, p, q, hess_m)`` that ``viscosity_residual``
    reads, from one ``lq_value`` call at the mean and variance of mu."""

    def jet(t, mu):
        mean, var = _mean_var(mu)
        value, dt, slope, curvature = lq_value(t, mean, var, lq)
        p = lambda X: slope + 2.0 * (X - mean)
        q = lambda X: np.full((X.shape[0], 1, 1), 2.0)
        return float(value), float(dt), p, q, np.array([[curvature]])

    return jet
