"""Penalized doubling machinery on a fixed-support slice of measure space.

Measures are restricted to a fixed finite atom support, so a candidate
function of (time, measure, shift) becomes a function on
[0, T] x simplex^n x box, and the doubled penalized objective is a
finite-dimensional maximization: distance coupling between the two copies,
plus a moment penalty that confines the maximizer.  The harness reports the
penalty decay along a scale sequence, ordering of candidate pairs, and the
block matrix inequality that certified second-order data must satisfy.

Candidates and the objective contract each row of a batch on its own
(``np.vecdot`` or a row sum, never ``@``, whose one-row form numpy sends to
other BLAS kernels), so a point has the same bits alone as in any batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import fourier_metric as fm
from ._optim import active_set_polish, project_simplex, projected_gradient_ascent
from ._rng import substream
from .filtering_sim import LQParams, lq_riccati, lq_value
from .reports import CheckReport

__all__ = [
    "DiscretizedFunction",
    "FixedSupportMetric",
    "DoublingConfig",
    "DoublingReport",
    "doubled_objective",
    "doubling_maximize",
    "penalty_decay_check",
    "ordering_check",
    "ishii_matrix_check",
    "lq_discretized_candidate",
]


def __getattr__(name: str):
    # ``optimize`` is no longer used here; bench/tracing.py still wraps
    # ``optimize.minimize``, so it resolves on that lookup alone.  It goes with
    # the next benchmark change (ROADMAP items 10-11).
    if name == "optimize":
        from scipy import optimize

        return optimize
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class DiscretizedFunction:
    """A bounded function of (t, weights-on-support, shift) with its gradient.

    ``support`` fixes the atom locations; ``eval_fn(t, w, m)`` evaluates the
    extended candidate at a batch of B points, the measures with weights
    w (B, n) translated by m (B, d) at times t (B,), and returns
    ``(value, d/dt, d/dw, d/dm)`` shaped (B,), (B,), (B, n) and (B, d).
    ``bound`` is the declared sup bound on the optimization domain.
    """

    support: np.ndarray  # (n, d)
    eval_fn: Callable
    bound: float

    def __post_init__(self):
        sup = np.atleast_2d(np.asarray(self.support, dtype=float))
        sup = sup.copy()
        sup.setflags(write=False)
        object.__setattr__(self, "support", sup)

    @property
    def n_atoms(self) -> int:
        return self.support.shape[0]

    @property
    def dim(self) -> int:
        return self.support.shape[1]


class FixedSupportMetric:
    """Squared spectral distance as a quadratic form on weight differences.

    On a fixed support the squared distance is (w - w')^T Gram (w - w') with
    the positive definite Gram matrix C(|x_i - x_j|) of the spectral kernel,
    symmetric bit for bit.
    """

    def __init__(self, support: np.ndarray, cfg: fm.FourierConfig):
        support = np.atleast_2d(np.asarray(support, dtype=float))
        if cfg.dim != support.shape[1]:
            raise ValueError("config dimension does not match support")
        self.gram = fm.kernel_matrix(support, support, cfg)


# at most this many of the starts are diagonal probes (theta = iota)
_N_DIAGONAL_PROBES = 16
# penalty_decay_check: the last penalty must be at most factor * first + tol
_DECAY_FACTOR = 0.1
_DECAY_ABS_TOL = 1e-6
_ORDERING_TOL = 1e-9  # ordering_check: allowed excess of u_sub over v_super
_POLISH_CALLS = 200  # doubling_maximize: objective evaluations per polish run
_ISHII_TOL = 1e-10  # ishii_matrix_check: allowed negative eigenvalue of either side


@dataclass(frozen=True)
class DoublingConfig:
    horizon: float = 1.0
    m_box: float = 2.0  # shifts range over [-m_box, m_box]^d
    n_starts: int = 32
    max_iters: int = 150
    seed: int = 0
    n_polish: int = 6  # best ascent results refined by a constrained local solver

    def __post_init__(self):
        for name, least in (("n_starts", 1), ("n_polish", 1), ("max_iters", 0)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be >= {least}, got {getattr(self, name)}")


@dataclass
class DoublingReport:
    value: float
    theta_star: tuple  # (t, weights, m)
    penalty: float  # (1/2 eps) d_F^2 at the maximizer
    d_F: float
    converged: bool


def _unpack(Z: np.ndarray, n: int, d: int) -> tuple:
    """(t1, w1, m1, t2, w2, m2, eps) as views into packed points along the last axis."""
    half = 1 + n + d
    return (
        Z[..., 0],
        Z[..., 1 : 1 + n],
        Z[..., 1 + n : half],
        Z[..., half],
        Z[..., half + 1 : half + 1 + n],
        Z[..., half + 1 + n : 2 * half],
        Z[..., 2 * half],
    )


def _d_F_sq(dt, dw, dm, gram: np.ndarray) -> tuple:
    """d_F^2 = dt^2 + |dm|^2 + max(dw^T Gram dw, 0) and Gram dw from the
    differences (...), (..., n), (..., d) of the copies' times, weights and
    shifts; the objective and the per-scale report both read it."""
    gram_dw = np.vecdot(dw[..., None, :], gram)  # the Gram matrix is symmetric
    return dt * dt + (dm * dm).sum(axis=-1) + np.maximum((dw * gram_dw).sum(axis=-1), 0.0), gram_dw


def doubled_objective(
    u: DiscretizedFunction, v: DiscretizedFunction, gram: np.ndarray, delta: float
) -> Callable:
    """Value and exact gradient of the doubled penalized objective.

    The returned ``value_and_grad(Z)`` takes a (B, p + 1) batch of packed
    points z = (t1, w1, m1, t2, w2, m2, eps), each row carrying its own scale
    eps in the trailing coordinate, evaluates each copy once on the whole
    batch and returns the (B,) values and (B, p + 1) gradients of
    H = u(t1, w1, m1) - v(t2, w2, m2) - d_F^2 / (2 eps)
    - delta (vartheta(w1, m1) + vartheta(w2, m2)), where
    d_F^2 = (t1 - t2)^2 + |m1 - m2|^2 + (w1 - w2)^T Gram (w1 - w2) and
    vartheta(w, m) = 1 + |m|^2 + sum_i w_i |x_i|^2 over the support atoms x_i.
    The scale is a parameter, not a variable: its gradient entry is 0, so no
    ascent step moves it.
    """
    n, d = u.n_atoms, u.dim
    sq_norms = np.sum(u.support * u.support, axis=1)

    def value_and_grad(Z):
        t1, w1, m1, t2, w2, m2, eps = _unpack(Z, n, d)
        u_val, u_t, u_w, u_m = u.eval_fn(t1, w1, m1)
        v_val, v_t, v_w, v_m = v.eval_fn(t2, w2, m2)
        dt, dw, dm = t1 - t2, w1 - w2, m1 - m2
        d_F_sq, gram_dw = _d_F_sq(dt, dw, dm, gram)
        val = u_val - v_val - d_F_sq / (2.0 * eps)
        val -= delta * (
            (1.0 + (m1 * m1).sum(axis=1) + np.vecdot(w1, sq_norms))
            + (1.0 + (m2 * m2).sum(axis=1) + np.vecdot(w2, sq_norms))
        )
        grad = np.empty(Z.shape)
        g_t1, g_w1, g_m1, g_t2, g_w2, g_m2, g_eps = _unpack(grad, n, d)
        eps_col = eps[:, None]
        g_t1[...] = u_t - dt / eps
        g_w1[...] = u_w - gram_dw / eps_col - delta * sq_norms
        g_m1[...] = u_m - dm / eps_col - 2.0 * delta * m1
        g_t2[...] = dt / eps - v_t
        g_w2[...] = gram_dw / eps_col - v_w - delta * sq_norms
        g_m2[...] = dm / eps_col - v_m - 2.0 * delta * m2
        g_eps[...] = 0.0
        return val, grad

    return value_and_grad


def doubling_maximize(
    u: DiscretizedFunction,
    v: DiscretizedFunction,
    eps_sequence,
    delta: float,
    cfg: DoublingConfig = DoublingConfig(),
) -> list:
    """Best found maximizer of the doubled penalized objective at each scale.

    H(theta, iota) = u(theta) - v(iota) - (1/2 eps) d_F^2 - delta (moment
    penalties), maximized over both copies of [0, T] x simplex^n x box for
    each eps in the non-empty ``eps_sequence``; one ``DoublingReport`` per
    scale, in order.  The Gram matrix is built once and the same
    ``n_starts`` starts are tiled over the scales: one batched projected
    gradient ascent advances every (scale, start) row, each carrying its eps
    as the trailing coordinate, and each row follows the path it would
    follow alone.  An active-set quasi-Newton polish then refines each
    scale's best ``n_polish`` results: all polishes of all scales advance in
    lockstep, with one batched objective call per round, and each ends where
    it would end alone.  Both use the exact gradient of
    ``doubled_objective``.  The first min(16, n_starts) starts are diagonal
    probes, so each value dominates the diagonal probe set by construction.
    ``converged`` says whether the polish of the reported point ended at a
    KKT point.  Where the reported point is an ascent result it is the
    ascent's flag, True only if every start at every scale converged, so it can read
    False for a scale whose own starts all converged, never True where one
    of them did not.
    """
    eps_sequence = [float(eps) for eps in eps_sequence]
    if not eps_sequence:
        raise ValueError("eps_sequence must not be empty")
    if min(eps_sequence) <= 0 or delta <= 0:
        raise ValueError("eps and delta must be positive")
    if u.n_atoms != v.n_atoms or u.dim != v.dim:
        raise ValueError("candidates must share the support")
    if not np.allclose(u.support, v.support):
        raise ValueError("candidates must share the support atoms")
    n, d = u.n_atoms, u.dim
    half = 1 + n + d
    metric = FixedSupportMetric(u.support, fm.default_config(d))
    value_and_grad = doubled_objective(u, v, metric.gram, delta)
    T = cfg.horizon

    # the box of one copy is [0, T] x [0, inf)^n x [-m_box, m_box]^d, as the
    # simplex bounds the weights by 1; the ascent projects them onto the
    # simplex instead of clipping, and the trailing scale passes the clip
    bounds = ([(0.0, T)] + [(0.0, np.inf)] * n + [(-cfg.m_box, cfg.m_box)] * d) * 2
    lo, hi = np.array(bounds + [(0.0, np.inf)]).T

    def weights(Z):
        # both copies' weights as one (..., 2, n) view
        return Z[..., :-1].reshape(Z.shape[:-1] + (2, half))[..., 1 : 1 + n]

    def project(Z):
        out = np.clip(Z, lo, hi)  # a new C-contiguous array, so weights(out) is a view
        weights(out)[...] = project_simplex(weights(Z))
        return out

    rng = substream(cfg.seed, 0)

    def draw():
        return np.concatenate(
            [
                [rng.uniform(0.0, T)],
                rng.dirichlet(np.ones(n)),
                rng.uniform(-cfg.m_box, cfg.m_box, size=d),
            ]
        )

    n_diagonal = min(_N_DIAGONAL_PROBES, cfg.n_starts)
    starts = [np.tile(draw(), 2) for _ in range(n_diagonal)]
    starts += [np.concatenate([draw(), draw()]) for _ in range(cfg.n_starts - n_diagonal)]
    S = len(starts)
    x0 = np.empty((len(eps_sequence) * S, 2 * half + 1))
    x0[:, :-1] = np.tile(starts, (len(eps_sequence), 1))
    x0[:, -1] = np.repeat(eps_sequence, S)

    X, F, ascent_converged = projected_gradient_ascent(
        value_and_grad, x0, project, max_iters=cfg.max_iters
    )

    # the coupling makes the landscape stiff across scales; a constrained local
    # solve from each scale's leading ascent results pins the maximizer down,
    # with each copy's weights summing to one; every polish of every scale
    # advances in lockstep, one objective call per round
    sums = np.zeros((2, 2 * half))
    sums[0, 1 : 1 + n] = sums[1, half + 1 : half + 1 + n] = 1.0
    E, P = len(eps_sequence), min(cfg.n_polish, S)
    order = np.argsort(-F.reshape(E, S), axis=1, kind="stable")[:, :P]
    picked = (np.arange(E)[:, None] * S + order).ravel()
    eps_of = X[picked, -1]
    # each polish's model starts from the exact Hessian of its scale's
    # penalty: d_F^2 / (2 eps) couples the copies through blockdiag(1, Gram,
    # I_d), the moments add 2 delta on each shift; 0.01 I keeps it definite
    metric_block = np.eye(half)
    metric_block[1 : 1 + n, 1 : 1 + n] = metric.gram
    moments = np.tile(np.r_[np.zeros(1 + n), np.full(d, 2.0 * delta)], 2)
    hessians = np.kron([[1.0, -1.0], [-1.0, 1.0]], metric_block) / eps_of[:, None, None]
    hessians += np.diag(moments + 0.01)

    def negated(Z, rows):
        val, grad = value_and_grad(np.column_stack([Z, eps_of[rows]]))
        return -val, -grad[:, :-1]

    Xp, _, ok = active_set_polish(
        negated, X[picked, :-1], lo[:-1], hi[:-1], sums, hessians, max_calls=_POLISH_CALLS
    )
    # a polish counts only if its projected point scores at least the
    # ascent's; a nan score never does
    polished = project(np.column_stack([Xp, eps_of]))
    scores = value_and_grad(polished)[0]

    reports = []
    for k, eps in enumerate(eps_sequence):
        best = None
        for r in range(k * P, (k + 1) * P):
            found = (float(F[picked[r]]), X[picked[r]], ascent_converged)
            if scores[r] >= found[0]:
                found = (float(scores[r]), polished[r], bool(ok[r]))
            if best is None or found[0] > best[0]:
                best = found
        val, z, conv = best
        t1, w1, m1, t2, w2, m2, _ = _unpack(z, n, d)
        dsq = float(_d_F_sq(t1 - t2, w1 - w2, m1 - m2, metric.gram)[0])
        reports.append(
            DoublingReport(
                value=val,
                theta_star=(float(t1), w1.copy(), m1.copy()),
                penalty=dsq / (2.0 * eps),
                d_F=math.sqrt(dsq),
                converged=bool(conv),
            )
        )
    return reports


def penalty_decay_check(
    u: DiscretizedFunction,
    v: DiscretizedFunction,
    delta: float,
    eps_sequence,
    cfg: DoublingConfig = DoublingConfig(),
) -> CheckReport:
    """Run the doubling maximization along a decreasing scale sequence.

    One ``doubling_maximize`` call covers the whole sequence.  Passes when
    the coupling penalty at the last scale is at most ``_DECAY_FACTOR`` (0.1)
    times the first-scale penalty plus ``_DECAY_ABS_TOL`` (1e-6), and the
    maximizer separation shrinks overall.  Non-decay flags either a
    candidate outside the semicontinuous bounded class or an optimizer
    failure, which the per-scale convergence flags help distinguish.  For
    Lipschitz candidates the penalty falls only in proportion to eps, so
    with the factor 0.1 the sequence must span well over 10x: eps 0.5 to
    0.05 on the scalar LQ pair gives a penalty ratio of 0.128 and fails.
    """
    eps_sequence = list(eps_sequence)
    if any(b >= a for a, b in zip(eps_sequence, eps_sequence[1:])):
        raise ValueError("eps sequence must be strictly decreasing")
    reports = doubling_maximize(u, v, eps_sequence, delta, cfg)
    penalties = [r.penalty for r in reports]
    seps = [r.d_F for r in reports]
    decayed = penalties[-1] <= _DECAY_FACTOR * penalties[0] + _DECAY_ABS_TOL
    sep_shrinks = seps[-1] <= seps[0] + 1e-9
    passed = decayed and sep_shrinks
    return CheckReport(
        "penalty-decay",
        bool(passed),
        stats={
            "epsilons": eps_sequence,
            "penalties": penalties,
            "separations": seps,
            "values": [r.value for r in reports],
            "converged": [r.converged for r in reports],
        },
        failures=[]
        if passed
        else [{"penalties": penalties, "separations": seps}],
    )


def ordering_check(
    u_sub: DiscretizedFunction,
    v_super: DiscretizedFunction,
    probes,
    horizon: float,
) -> CheckReport:
    """Terminal ordering on probes implies ordering everywhere on the probes.

    ``probes`` is a non-empty iterable of (t, weights, m), evaluated as one
    batch.  The terminal slice is checked first (precondition); a violation
    anywhere is returned with its witness, the first probe attaining it.
    """
    probes = list(probes)
    if not probes:
        raise ValueError("ordering_check needs at least one probe")
    t, w, m = (np.array([p[k] for p in probes], dtype=float) for k in range(3))
    end = np.full(t.shape, float(horizon))
    u_end, v_end = u_sub.eval_fn(end, w, m)[0], v_super.eval_fn(end, w, m)[0]
    bad = np.flatnonzero(u_end > v_end + _ORDERING_TOL)
    if bad.size:
        return CheckReport(
            "ordering",
            False,
            stats={"stage": "terminal-precondition"},
            failures=[{"t": horizon, "w": w[bad[0]].tolist(), "m": m[bad[0]].tolist()}],
        )
    gaps = v_super.eval_fn(t, w, m)[0] - u_sub.eval_fn(t, w, m)[0]
    i = int(np.argmin(gaps))
    margin = float(gaps[i])
    passed = margin >= -_ORDERING_TOL
    failures = []
    if not passed:
        failures.append({"t": float(t[i]), "w": w[i].tolist(), "m": m[i].tolist(), "gap": margin})
    return CheckReport(
        "ordering",
        bool(passed),
        stats={"min_margin": margin, "n_probes": len(probes)},
        failures=failures,
    )


def lq_discretized_candidate(
    support: np.ndarray,
    lq,
    slack: float = 0.0,
    m_box: float = 2.0,
    osc: float = 1.0,
    shift_fn=None,
) -> DiscretizedFunction:
    """Reference optimal-cost candidate restricted to a fixed support.

    Evaluates the scalar LQ value at the weighted support measure translated
    by m, rescaled so its oscillation over the harness domain is about
    ``osc`` (the doubling machinery presumes bounded candidates, and the raw
    value's quadratic growth would otherwise dominate every penalty), plus a
    constant slack and an optional extra term of time alone: ``shift_fn(t)``
    maps an array of times to the pair (values, d/dt), each an array of the
    same shape or a scalar.  The gradient is exact, by the chain rule through
    mean = w.x + m and var = w.x^2 - (w.x)^2 and by ``shift_fn``'s own
    derivative.
    """
    if not isinstance(lq, LQParams):
        raise TypeError("lq must be LQParams")
    support = np.atleast_2d(np.asarray(support, dtype=float))
    if support.shape[1] != 1:
        raise ValueError("the LQ candidate is scalar")
    x = support[:, 0]
    x2 = x * x
    raw_bound = (
        (float(np.max(np.abs(x))) + m_box) ** 2
        + float(lq_riccati(0.0, lq)[1])
        + float(np.max(x2))
        + lq.sigma**2 * lq.horizon
    )
    scale = osc / raw_bound

    def eval_fn(t, w, m):
        wx = np.vecdot(w, x)
        mean = wx + m[:, 0]
        var = np.vecdot(w, x2) - wx**2
        value, v_t, v_mean, _ = lq_value(t, mean, var, lq)
        val = scale * value + slack
        d_t = scale * v_t
        if shift_fn is not None:
            s, s_t = shift_fn(t)
            val += s
            d_t += s_t
        d_w = scale * (v_mean[:, None] * x + x2 - 2.0 * wx[:, None] * x)
        return val, d_t, d_w, scale * v_mean[:, None]

    return DiscretizedFunction(support, eval_fn, 1.0 + abs(slack) + scale * raw_bound)


def ishii_matrix_check(X: np.ndarray, Y: np.ndarray, eps: float, alpha: float) -> bool:
    """Exact eigenvalue test of the coupled second-order bound.

    Checks -(1/alpha + 2/eps) I <= blockdiag(X, Y) <= (1/eps + 2 alpha/eps^2)
    [[I, -I], [-I, I]] in the semidefinite order.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    if X.shape != Y.shape or X.shape[0] != X.shape[1]:
        raise ValueError("X and Y must be square of equal size")
    if eps <= 0 or alpha <= 0:
        raise ValueError("eps and alpha must be positive")
    d = X.shape[0]
    block = np.zeros((2 * d, 2 * d))
    block[:d, :d] = X
    block[d:, d:] = Y
    lower = block + (1.0 / alpha + 2.0 / eps) * np.eye(2 * d)
    if float(np.linalg.eigvalsh(lower)[0]) < -_ISHII_TOL:
        return False
    coupling = np.block([[np.eye(d), -np.eye(d)], [-np.eye(d), np.eye(d)]])
    upper = (1.0 / eps + 2.0 * alpha / eps**2) * coupling - block
    return float(np.linalg.eigvalsh(upper)[0]) >= -_ISHII_TOL
