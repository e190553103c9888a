"""Projected-gradient ascent and SLSQP over batches of starts.

The caller passes one callable that returns the objective and its exact
gradient together for each row of a batch of points; the package has no
finite-difference gradient left.  All starts advance in lockstep, and each
point is evaluated exactly once.

Row independence: row k of a batch must get the bits that row k alone gets,
so the objective contracts rows with ``np.vecdot`` or row sums, never a
matrix product.  Then each start follows the path it would follow alone.
"""

from __future__ import annotations

import sys

import numpy as np

_STEP0 = 0.25  # first trial step along the projected arc
_GRAD_TOL = 1e-8  # converged when the unit-step projected gradient is smaller
_SHRINK = 0.5  # step factor after a rejected trial
_MAX_BACKTRACKS = 30


def __getattr__(name: str):
    # ``slsqp`` is SciPy's compiled SLSQP step, which ``scipy.optimize.minimize``
    # drives one start at a time from ``_minimize_slsqp`` (SciPy 1.17);
    # pyproject.toml pins the minor version and the one-start oracle test
    # guards the mirror.  It loads on first use, since importing it loads all
    # of ``scipy.optimize``.
    if name == "slsqp":
        from scipy.optimize._slsqplib import slsqp

        return slsqp
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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


def lockstep_slsqp(fun_and_grad, x0: np.ndarray, lo, hi, eq_matrix, eq_rhs, *, maxiter: int, ftol: float):
    """Minimize by SLSQP from each row of the (R, p) starts x0, all runs in lockstep.

    Each run solves min f(x) subject to lo <= x <= hi and eq_matrix @ x =
    eq_rhs with its own SLSQP state and workspace, advanced by SciPy's
    compiled step exactly as ``scipy.optimize.minimize(method="SLSQP",
    jac=True)`` advances it.  ``fun_and_grad(X, rows)`` maps the (B, p)
    points X of the runs ``rows`` to their values (B,) and gradients (B, p).
    Each run keeps its last evaluated point with its value and gradient, as
    SciPy's ``ScalarFunction`` and ``MemoizeJac`` do, and steps until it
    needs the objective at a new point; then every run waiting for one joins
    one call.  So each run makes its own evaluations, one per call, and with
    a row-independent objective follows its one-start path bit for bit.
    Returns (X (R, p), values (R,), status (R,), nit (R,)): the final
    points and values, SLSQP's exit modes (0 on success, 9 at the iteration
    limit) and the major iteration counts.
    """
    slsqp = sys.modules[__name__].slsqp  # the module attribute, so a replaced step is the one called
    X = np.clip(np.asarray(x0, dtype=float), lo, hi)
    R, n = X.shape
    A = np.asarray(eq_matrix, dtype=float)
    m = A.shape[0]
    # SciPy's step reads an infinite bound as nan
    xl, xu = (np.where(np.isinf(b), np.nan, b) for b in (np.asarray(lo, float), np.asarray(hi, float)))
    # the workspace size of _minimize_slsqp with m equality and no inequality constraints
    buffer_size = n * (n + 1) // 2 + 3 * m * n - (m + 5 * n + 7) * m + 9 * m + 8 * n * n + 35 * n
    buffer_size += m * m + 28 + 2 * n * (n + 1)
    states = [
        {
            "acc": ftol, "alpha": 0.0, "f0": 0.0, "gs": 0.0, "h1": 0.0, "h2": 0.0, "h3": 0.0,
            "h4": 0.0, "t": 0.0, "t0": 0.0, "tol": 10.0 * ftol, "exact": 0, "inconsistent": 0,
            "reset": 0, "iter": 0, "itermax": int(maxiter), "line": 0, "m": m, "meq": m,
            "mode": 0, "n": n,
        }
        for _ in range(R)
    ]
    work = [
        (
            np.zeros(max(1, m + 2 * n + 2)),  # multipliers
            np.zeros(max(buffer_size, 1)),
            np.zeros(max(m + 2 * n + 2, 1), dtype=np.int32),
            np.array(A, order="F"),  # constraint normals
            A @ X[r] - eq_rhs,  # constraint values
        )
        for r in range(R)
    ]
    # one memo slot per run: the last evaluated point, value and gradient
    memo_x = X.copy()
    memo_f, memo_g = fun_and_grad(X.copy(), np.arange(R))
    memo_f, memo_g = list(memo_f), list(memo_g)
    fx, g = memo_f.copy(), memo_g.copy()

    def advance(r):
        # step run r until it needs an evaluation at a new point (True) or ends (False)
        x = X[r]
        mult, buffer, indices, C, d = work[r]
        while True:
            slsqp(states[r], fx[r], g[r], C, d, x, mult, xl, xu, buffer, indices)
            mode = states[r]["mode"]
            if mode == 1:
                d[:] = A @ x - eq_rhs
            elif mode == -1:
                C[...] = A
            else:
                return False
            if not np.all(x == memo_x[r]):
                return True
            if mode == 1:
                fx[r] = memo_f[r]
            else:
                g[r] = memo_g[r]

    waiting = [r for r in range(R) if advance(r)]
    while waiting:
        F, G = fun_and_grad(X[waiting], np.array(waiting))
        memo_x[waiting] = X[waiting]
        for r, f, grad in zip(waiting, F, G):
            memo_f[r], memo_g[r] = f, grad
            if states[r]["mode"] == 1:
                fx[r] = f
            else:
                g[r] = grad
        waiting = [r for r in waiting if advance(r)]
    status = np.array([s["mode"] for s in states])
    nit = np.array([s["iter"] for s in states])
    return X, np.array(fx), status, nit
