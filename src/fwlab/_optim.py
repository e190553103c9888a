"""Projected-gradient ascent over products of simple convex sets.

The ascent takes the objective's gradient from the caller, and every caller
passes an exact one: the package has no finite-difference gradient left.
"""

from __future__ import annotations

import numpy as np


def project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection of v onto the probability simplex."""
    v = np.asarray(v, dtype=float)
    n = v.size
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    ind = np.arange(1, n + 1)
    cond = u - css / ind > 0
    rho = int(ind[cond][-1])
    theta = css[rho - 1] / rho
    return np.maximum(v - theta, 0.0)


def projected_gradient_ascent(
    objective,
    x0: np.ndarray,
    project,
    *,
    gradient,
    max_iters: int = 300,
    step0: float = 0.5,
    grad_tol: float = 1e-8,
    shrink: float = 0.5,
    max_backtracks: int = 30,
):
    """Maximize ``objective`` along projected gradient arcs.

    ``gradient(x)`` is called once per iteration, at the accepted point.  The
    step grows on accepted trials and backtracks otherwise.  ``converged``
    is True only when the unit-step projected gradient mapping became
    smaller than ``grad_tol``; an ascent that runs out of iterations, or
    stalls because no backtrack along the arc ascends, reports False.
    Returns (x, value, converged).
    """
    x = project(np.asarray(x0, dtype=float))
    fx = objective(x)
    step = step0
    for _ in range(max_iters):
        grad = gradient(x)
        pg = project(x + grad) - x
        if float(np.linalg.norm(pg)) < grad_tol:
            return x, fx, True
        for _ in range(max_backtracks):
            cand = project(x + step * grad)
            direction = float(grad @ (cand - x))
            fc = objective(cand)
            if direction > 0 and fc >= fx + 1e-4 * direction:
                x, fx = cand, fc
                step *= 2.0
                break
            step *= shrink
        else:
            break
    return x, fx, False

