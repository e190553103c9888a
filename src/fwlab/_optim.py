"""Projected-gradient ascent over products of simple convex sets.

The caller passes one ``value_and_grad(x)`` callable that returns the
objective and its exact gradient together; the package has no
finite-difference gradient left.  The ascent evaluates each point it tries
exactly once and keeps the gradient of the point it accepts.
"""

from __future__ import annotations

import numpy as np

_STEP0 = 0.25  # first trial step along the projected arc
_GRAD_TOL = 1e-8  # converged when the unit-step projected gradient is smaller
_SHRINK = 0.5  # step factor after a rejected trial
_MAX_BACKTRACKS = 30


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


def projected_gradient_ascent(value_and_grad, x0: np.ndarray, project, *, max_iters: int):
    """Maximize along projected gradient arcs.

    ``value_and_grad(x)`` returns ``(value, gradient)`` and is called once
    per point: at the projected start and at each trial point.  The step
    grows on accepted trials and backtracks otherwise.  ``converged`` is True
    only when the unit-step projected gradient mapping became smaller than
    1e-8; an ascent that runs out of iterations, or stalls because no
    backtrack along the arc ascends, reports False.
    Returns (x, value, converged).
    """
    x = project(np.asarray(x0, dtype=float))
    fx, grad = value_and_grad(x)
    step = _STEP0
    for _ in range(max_iters):
        pg = project(x + grad) - x
        if float(np.linalg.norm(pg)) < _GRAD_TOL:
            return x, fx, True
        for _ in range(_MAX_BACKTRACKS):
            cand = project(x + step * grad)
            direction = float(grad @ (cand - x))
            fc, gc = value_and_grad(cand)
            if direction > 0 and fc >= fx + 1e-4 * direction:
                x, fx, grad = cand, fc, gc
                step *= 2.0
                break
            step *= _SHRINK
        else:
            break
    return x, fx, False
