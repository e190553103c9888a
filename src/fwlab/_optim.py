"""Projected-gradient ascent and an active-set quasi-Newton polish over
batches of starts, and the stacked solve of simplex-point systems.

The caller passes one callable that returns the objective and its exact
gradient together for each row of a batch of points; the package has no
finite-difference gradient left.  All starts advance in lockstep, and each
point is evaluated exactly once.

Row independence: row k of a batch must get the bits that row k alone gets,
so the objective contracts rows with ``np.vecdot`` or row sums, never a
matrix product.  Then each start follows the path it would follow alone.
"""

from __future__ import annotations

import numpy as np

_STEP0 = 0.25  # first trial step along the projected arc
_GRAD_TOL = 1e-8  # converged when the unit-step projected gradient is smaller
_SHRINK = 0.5  # step factor after a rejected trial
_MAX_BACKTRACKS = 30
_KKT_TOL = 1e-8  # active_set_polish: converged when the KKT residual is smaller
_EPS = np.finfo(float).eps  # active_set_polish: the resolution of f, relative to |f|
_ARMIJO = 1e-4  # active_set_polish: sufficient decrease, as a share of the predicted one
_MAX_HALVINGS = 30  # active_set_polish: a line search that halves its step this often ends its run


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


def simplex_points(A: np.ndarray, rhs: np.ndarray, k: int, tol: float) -> tuple:
    """Solve the systems of the (S, m, m) stack A with nonzero determinant in
    one call, against ``rhs`` ((S, m, c), or (m, c) for all), and keep the
    solutions whose first k entries are all >= -tol, clipped at 0 and rescaled
    to sum 1.  Returns (the kept systems' indices, ascending, (N, k) points).
    """
    with np.errstate(divide="ignore"):  # det takes the log of a subnormal pivot product
        live = np.flatnonzero(np.linalg.det(A) != 0.0)
    rhs = rhs[live] if rhs.ndim == A.ndim else rhs
    x = np.linalg.solve(A[live], rhs)[:, :k, 0]
    kept = np.all(x >= -tol, axis=1)
    x = np.maximum(x[kept], 0.0)
    return live[kept], x / x.sum(axis=1, keepdims=True)


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


def active_set_polish(fun_and_grad, x0: np.ndarray, lo, hi, eq_matrix, hessians, *, max_calls: int):
    """Minimize from each row of the (R, p) starts x0 over lo <= x <= hi and
    eq_matrix @ x = eq_matrix @ x0, all runs in lockstep.

    A feasible active-set quasi-Newton method.  ``fun_and_grad(X, rows)``
    maps the (B, p) points X of the runs ``rows`` to their values (B,) and
    gradients (B, p); ``hessians`` (R, p, p) seeds each run's positive
    definite model.  A run's face fixes the bounds its point sits on.  After
    each move a run solves its face's KKT system (one stacked solve for all
    runs that moved), releasing the bound with the most negative multiplier
    if the new step then leaves it, and a ratio test stops the step at the
    first bound it meets.  Armijo backtracking puts the trial points of
    every run into one ``fun_and_grad`` call per round; each accepted step
    updates its run's model by damped BFGS.  Every equality row must keep a
    free variable on every face, as a row summing variables bounded only
    below (a simplex's weights) does.  With a row-independent objective each
    run follows the path it would follow alone.

    A run ends once its KKT residual (the largest |g + A^T lambda| over the
    free variables and wrong-signed bound multiplier) is below 1e-8 and its
    step can no longer lower f beyond the rounding of f; below that
    resolution a step is taken on the model's word.  It also ends after
    ``max_calls`` evaluations or ``_MAX_HALVINGS`` halvings of one step.
    Returns (X (R, p), values (R,), converged (R,)): converged where the KKT
    residual at the last point is below 1e-8.
    """
    X = np.clip(np.array(x0, dtype=float), lo, hi)
    R, p = X.shape
    A = np.asarray(eq_matrix, dtype=float)
    m = A.shape[0]
    lo, hi = (np.broadcast_to(np.asarray(b, dtype=float), (p,)) for b in (lo, hi))
    B = np.array(hessians, dtype=float)
    F, G = (np.array(a, dtype=float) for a in fun_and_grad(X, np.arange(R)))
    fixed = (X == lo) | (X == hi)
    D = np.zeros((R, p))
    alpha, alpha_max = np.zeros((2, R))
    block = np.zeros(R, dtype=int)
    calls = np.ones(R, dtype=int)
    halvings = np.zeros(R, dtype=int)
    kkt = np.full(R, np.inf)
    searching = np.zeros(R, dtype=bool)

    def face_steps(rows):
        # min g.d + d^T B d / 2 subject to A d = 0 and d = 0 on the fixed
        # bounds, whose rows and columns of the KKT matrix are the identity's;
        # returns the steps, the bound multipliers (>= 0 where the bound holds
        # the minimum, 0 on free variables) and max |g + A^T lambda| off them
        on, free = fixed[rows], ~fixed[rows]
        K = np.zeros((len(rows), p + m, p + m))
        K[:, :p, :p] = np.where(free[:, :, None] & free[:, None, :], B[rows], 0.0)
        K[:, np.arange(p), np.arange(p)] += on
        K[:, p:, :p] = A * free[:, None, :]
        K[:, :p, p:] = np.swapaxes(K[:, p:, :p], 1, 2)
        rhs = np.zeros((len(rows), p + m, 1))
        rhs[:, :p, 0] = np.where(free, -G[rows], 0.0)
        solution = np.linalg.solve(K, rhs)[..., 0]
        d = np.where(on, 0.0, solution[:, :p])
        grad_l = G[rows] + np.vecdot(solution[:, None, p:], A.T)
        mult = np.where(X[rows] == hi, -1.0, 1.0) * (grad_l + np.vecdot(B[rows], d[:, None, :]))
        return d, np.where(on, mult, 0.0), np.max(np.where(free, np.abs(grad_l), 0.0), axis=1)

    def plan(rows):
        # each run's next step on its face, or its end
        d, mult, free_res = face_steps(rows)
        j = np.argmin(mult, axis=1)
        release = mult[np.arange(len(rows)), j] < -np.maximum(free_res, _EPS)
        r, j = rows[release], j[release]
        fixed[r, j] = False
        d2, mult2, res2 = face_steps(r)
        inward = np.where(X[r, j] == hi[j], -1.0, 1.0) * d2[np.arange(r.size), j] > 0.0
        fixed[r[~inward], j[~inward]] = True
        keep = np.flatnonzero(release)[inward]
        d[keep], mult[keep], free_res[keep] = d2[inward], mult2[inward], res2[inward]
        kkt[rows] = np.maximum(free_res, np.max(-mult, axis=1))
        done = (kkt[rows] < _KKT_TOL) & (-np.vecdot(G[rows], d) <= _EPS * np.abs(F[rows]))
        go = ~done & np.any(d != 0.0, axis=1)
        rows, d = rows[go], d[go]
        # the ratio test: the longest step before a free variable leaves the box
        with np.errstate(divide="ignore", invalid="ignore"):
            room = np.where(d < 0.0, (lo - X[rows]) / d, np.where(d > 0.0, (hi - X[rows]) / d, np.inf))
        block[rows] = np.argmin(room, axis=1)
        alpha_max[rows] = room[np.arange(len(rows)), block[rows]]
        D[rows], alpha[rows] = d, np.minimum(1.0, alpha_max[rows])
        halvings[rows] = 0
        searching[rows] = True

    plan(np.arange(R))
    while searching.any():
        rows = np.flatnonzero(searching)
        trial = X[rows] + alpha[rows, None] * D[rows]
        hit = np.flatnonzero(alpha[rows] == alpha_max[rows])  # lands on its blocking bound
        j = block[rows[hit]]
        trial[hit, j] = np.where(D[rows[hit], j] > 0.0, hi[j], lo[j])
        trial = np.clip(trial, lo, hi)
        ft, gt = (np.array(a, dtype=float) for a in fun_and_grad(trial, rows))
        calls[rows] += 1
        predicted = alpha[rows] * np.vecdot(G[rows], D[rows])
        unresolved = -predicted <= _EPS * np.abs(F[rows])
        ok = (ft <= F[rows] + _ARMIJO * predicted) | (unresolved & np.isfinite(ft))
        up, down = rows[ok], rows[~ok]
        # damped BFGS: the model keeps its curvature positive along each step
        s, y = trial[ok] - X[up], gt[ok] - G[up]
        Bs = np.vecdot(B[up], s[:, None, :])
        sBs, sy = np.vecdot(s, Bs), np.vecdot(s, y)
        theta = np.where(sy >= 0.2 * sBs, 1.0, 0.8 * sBs / np.where(sBs > sy, sBs - sy, 1.0))
        r = theta[:, None] * y + (1.0 - theta[:, None]) * Bs
        sr = np.vecdot(s, r)
        live = (sBs > 0.0) & (sr > 0.0)
        r, Bs, sr, sBs = r[live], Bs[live], sr[live], sBs[live]
        B[up[live]] += r[:, :, None] * r[:, None, :] / sr[:, None, None]
        B[up[live]] -= Bs[:, :, None] * Bs[:, None, :] / sBs[:, None, None]
        X[up], F[up], G[up] = trial[ok], ft[ok], gt[ok]
        fixed[up] |= (X[up] == lo) | (X[up] == hi)
        alpha[down] *= 0.5
        halvings[down] += 1
        searching[up] = False
        searching[down] = halvings[down] < _MAX_HALVINGS
        plan(up)
        searching &= calls < max_calls
    return X, F, kkt < _KKT_TOL
