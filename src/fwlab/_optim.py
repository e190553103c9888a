"""Projected-gradient ascent over products of simple convex sets.

The caller passes one ``value_and_grad(X)`` callable that returns the
objective and its exact gradient together for each row of a batch of points;
the package has no finite-difference gradient left.  All starts advance in
lockstep, and each point is evaluated exactly once.

Row independence: row k of a batch must get the bits that row k alone gets,
so ``value_and_grad`` contracts rows with ``np.vecdot`` or row sums, never a
matrix product.  Then each start follows the path it would follow alone.
"""

from __future__ import annotations

import numpy as np

_STEP0 = 0.25  # first trial step along the projected arc
_GRAD_TOL = 1e-8  # converged when the unit-step projected gradient is smaller
_SHRINK = 0.5  # step factor after a rejected trial
_MAX_BACKTRACKS = 30


def project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex along the last axis."""
    v = np.asarray(v, dtype=float)
    n = v.shape[-1]
    u = np.sort(v, axis=-1)[..., ::-1]
    css = np.cumsum(u, axis=-1) - 1.0
    ind = np.arange(1, n + 1)
    cond = u - css / ind > 0
    # rho is the last index where cond holds; theta is css at rho over rho
    rho = n - np.argmax(cond[..., ::-1], axis=-1)
    at_rho = css.reshape(-1)[np.arange(0, css.size, n) + rho.reshape(-1) - 1]
    theta = at_rho.reshape(rho.shape) / rho
    return np.maximum(v - theta[..., None], 0.0)


def projected_gradient_ascent(value_and_grad, x0: np.ndarray, project, *, max_iters: int):
    """Maximize along projected gradient arcs from each row of the (S, p) starts x0.

    ``value_and_grad(X)`` maps a (B, p) batch to ``(values (B,), gradients
    (B, p))`` and ``project`` maps a (B, p) batch row by row.  Each tick calls
    ``value_and_grad`` once, on the trial points of the starts still running,
    so every point is evaluated once.  Each start keeps its own step,
    iteration and backtrack counts, so its path does not depend on the other
    rows: the step grows on accepted trials and backtracks otherwise.  A
    start converged when its unit-step projected gradient mapping fell below
    1e-8, not when it ran out of iterations or stalled because no backtrack
    ascends.  Returns (X (S, p), values (S,), converged), where the one bool
    ``converged`` is True only when every start converged.
    """
    X = project(np.array(x0, dtype=float))
    F, G = (np.array(a, dtype=float) for a in value_and_grad(X))
    S = X.shape[0]
    step = np.full(S, _STEP0)
    iters, tries = np.zeros((2, S), dtype=int)
    converged = np.zeros(S, dtype=bool)
    active = np.ones(S, dtype=bool)

    def begin_iteration(rows):
        # the loop head of one start: budget, then the convergence test
        out = iters[rows] >= max_iters
        rows, done = rows[~out], rows[out]
        pg = project(X[rows] + G[rows]) - X[rows]
        conv = np.sqrt(np.sum(pg * pg, axis=1)) < _GRAD_TOL
        converged[rows[conv]] = True
        active[done] = active[rows[conv]] = False
        rows = rows[~conv]
        iters[rows] += 1
        tries[rows] = 0

    begin_iteration(np.arange(S))
    while active.any():
        rows = np.flatnonzero(active)
        x, grad = X[rows], G[rows]
        cand = project(x + step[rows, None] * grad)
        direction = np.sum(grad * (cand - x), axis=1)
        fc, gc = value_and_grad(cand)
        ok = (direction > 0) & (fc >= F[rows] + 1e-4 * direction)
        up, down = rows[ok], rows[~ok]
        X[up], F[up], G[up] = cand[ok], fc[ok], gc[ok]
        step[up] *= 2.0
        step[down] *= _SHRINK
        tries[down] += 1
        active[down[tries[down] >= _MAX_BACKTRACKS]] = False
        begin_iteration(up)
    return X, F, bool(converged.all())
