"""The two model Hamiltonians and the executable continuity checks on them.

Filtering side: the per-control generator pairing K, its infimum G over a
control grid, and the extension G^e that evaluates G at a translated measure
with translated derivative arguments.  Prediction side: subset-weight
bookkeeping on mixed adversary actions, the per-direction quadratic form K in
closed form over arrays of actions, and its exact supremum over action index
and mixed action, found among the KKT points of the faces of the action
simplex.  K_filtering takes an array of controls and K_regret an array of
actions.

The continuity conditions the comparison argument needs are *fitted* here:
checking one means estimating its constant on a sample family and verifying
no held-out violation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Callable

import numpy as np

from . import fourier_metric as fm
from .measures import SignedAtomicMeasure, Theta, pushforward_shift
from .reports import CheckReport

__all__ = [
    "FilteringCoeffs",
    "JetArgs",
    "SimplexAction",
    "K_filtering",
    "G_filtering",
    "Ge_extend",
    "check_coefficient_assumptions",
    "check_assumption_i_filtering",
    "check_assumption_ii_filtering",
    "HamiltonianGapRecord",
    "fit_linear_modulus",
    "verify_linear_modulus",
    "hat_weights",
    "K_regret",
    "G_regret",
    "RegretSolverConfig",
    "check_assumptions_regret",
    "regret_samples",
    "linear_growth_norm",
    "subset_vectors",
    "vertex_action",
    "uniform_action",
    "make_lq_coeffs",
    "make_bounded_filter_coeffs",
    "COEFFS_REGISTRY",
]


# ---------------------------------------------------------------------------
# filtering side
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FilteringCoeffs:
    """Coefficient bundle (b, sigma, sigma_tilde, r, l) for the filtering problem.

    Closures are batched over states and controls: ``b(X, a)`` takes points
    X of shape (n, d) and an (n,) array of per-point controls and returns
    (n, d); ``sigma(X, a)`` returns (n, d, d1); ``r(X, a)`` returns (n,);
    ``l(X)`` returns (n,).  ``sigma_tilde(a)`` takes an (m,) control array
    and returns (m, d, d2).  Every caller passes arrays of exactly these
    shapes, so a closure need not coerce its arguments.
    ``bounds`` and ``lip`` declare per-coefficient sup bounds and Lipschitz
    constants (in x, uniform over controls); ``delta`` the ellipticity
    constant of sigma sigma^T.
    """

    d: int
    d1: int
    d2: int
    b: Callable
    sigma: Callable
    sigma_tilde: Callable
    r: Callable
    l: Callable
    bounds: dict = field(default_factory=dict)
    lip: dict = field(default_factory=dict)
    delta: float = 0.0


# random state pairs drawn by check_coefficient_assumptions, uniform on [-3, 3]^d
_COEFF_PROBE_POINTS = 64
_COEFF_PROBE_SCALE = 3.0


def _sizes(values: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a batch, whatever its trailing shape."""
    return np.linalg.norm(values.reshape(len(values), -1), axis=1)


def check_coefficient_assumptions(
    coeffs: FilteringCoeffs,
    control_grid: np.ndarray,
    rng: np.random.Generator,
) -> CheckReport:
    """Sampled boundedness and Lipschitz checks, exact ellipticity.

    Each declared sup bound in ``coeffs.bounds`` and each declared Lipschitz
    constant in ``coeffs.lip`` is checked against its own coefficient.  b,
    sigma and r are sampled on random state pairs for every control on the
    grid, in one evaluation of each closure on the pairs tiled over the
    controls; l on the pairs alone; sigma_tilde on the control grid.  Sizes
    are Euclidean norms of b, Frobenius norms of sigma and sigma_tilde and
    absolute values of r and l.  The least eigenvalue of sigma sigma^T at
    each probe point is checked against ``coeffs.delta``.  A declared
    constant for a coefficient the check does not sample is a ValueError.
    """
    X, Y = rng.uniform(-_COEFF_PROBE_SCALE, _COEFF_PROBE_SCALE, (2, _COEFF_PROBE_POINTS, coeffs.d))
    grid = np.atleast_1d(np.asarray(control_grid, dtype=float))
    Xc, Yc, ac = np.tile(X, (grid.size, 1)), np.tile(Y, (grid.size, 1)), np.repeat(grid, len(X))
    dist = np.linalg.norm(X - Y, axis=1)
    dist = np.where(dist < 1e-12, np.inf, dist)
    tiled = np.tile(dist, grid.size)
    pairs = {
        "b": (coeffs.b(Xc, ac), coeffs.b(Yc, ac), tiled),
        "sigma": (coeffs.sigma(Xc, ac), coeffs.sigma(Yc, ac), tiled),
        "r": (coeffs.r(Xc, ac), coeffs.r(Yc, ac), tiled),
        "l": (coeffs.l(X), coeffs.l(Y), dist),
    }
    worst, lip = {}, {}
    for key, (vx, vy, span) in pairs.items():
        worst[key] = float(np.max(_sizes(vx)))
        lip[key] = float(np.max(_sizes(vx - vy) / span))
    worst["sigma_tilde"] = float(np.max(_sizes(coeffs.sigma_tilde(grid))))
    unknown = sorted(set(coeffs.bounds) - set(worst)) + sorted(set(coeffs.lip) - set(lip))
    if unknown:
        raise ValueError(f"no check samples the declared constant of {unknown}")
    sx = pairs["sigma"][0]
    min_ell = float(np.min(np.linalg.eigvalsh(np.einsum("nij,nkj->nik", sx, sx))))
    failures = []
    for constant, observed, declared in (("bound", worst, coeffs.bounds), ("lipschitz", lip, coeffs.lip)):
        for key, limit in declared.items():
            if observed[key] > limit * (1 + 1e-9):
                failures.append(
                    {"coefficient": key, "constant": constant, "observed": observed[key], "declared": limit}
                )
    if min_ell < coeffs.delta - 1e-12:
        failures.append({"coefficient": "ellipticity", "observed": min_ell, "declared": coeffs.delta})
    return CheckReport(
        "filtering-coefficients",
        not failures,
        stats={**worst, "lip": lip, "ellipticity_min": min_ell},
        failures=failures,
    )


_PROBE_VALUES = (1.0, 5.0, 25.0)


def _probe_points(dim: int, extra: np.ndarray | None = None) -> np.ndarray:
    """The origin, then +-v e_axis for v in ``_PROBE_VALUES``, axis by axis."""
    steps = np.ravel(np.outer(_PROBE_VALUES, (1.0, -1.0)))
    axes = np.repeat(np.arange(dim), steps.size)
    pts = np.zeros((1 + axes.size, dim))
    pts[np.arange(1, 1 + axes.size), axes] = np.tile(steps, dim)
    if extra is not None and extra.size:
        pts = np.vstack([pts, np.atleast_2d(extra)])
    return pts


def linear_growth_norm(f: Callable, dim: int, extra_points: np.ndarray | None = None) -> float:
    """sup |f(x)| / (1 + |x|) estimated on the standard probe set plus extras."""
    X = _probe_points(dim, extra_points)
    vals = np.asarray(f(X), dtype=float)
    mags = np.abs(vals) if vals.ndim == 1 else np.linalg.norm(
        vals.reshape(vals.shape[0], -1), axis=1
    )
    return float(np.max(mags / (1.0 + np.linalg.norm(X, axis=1))))


def _nearly_symmetric(M: np.ndarray) -> bool:
    """``np.allclose(M, M.T, atol=1e-12)`` without its set-up: each entry
    equals its transpose entry (equal infinities included) or lies within
    1e-12 + 1e-5 |M.T| of a finite one; a nan entry never passes."""
    T = M.T
    if (M == T).all():
        return True
    with np.errstate(invalid="ignore"):  # inf - inf
        close = (np.abs(M - T) <= 1e-12 + 1e-5 * np.abs(T)) & np.isfinite(T)
    return bool((close | (M == T)).all())


@dataclass(frozen=True)
class JetArgs:
    """Derivative arguments (p, q, M) fed to a Hamiltonian.

    ``p``: batched field X (n,d) -> (n,d) with linear growth; ``q``: batched
    field X (n,d) -> (n,d,d); ``M``: symmetric (d,d) matrix.
    """

    p: Callable
    q: Callable
    M: np.ndarray

    def __post_init__(self):
        M = np.atleast_2d(np.asarray(self.M, dtype=float))
        if M.shape[0] != M.shape[1]:
            raise ValueError("M must be square")
        if not _nearly_symmetric(M):
            raise ValueError("M must be symmetric")
        M = M.copy()
        M.setflags(write=False)
        object.__setattr__(self, "M", M)


def K_filtering(controls, mu: SignedAtomicMeasure, jet: JetArgs, coeffs: FilteringCoeffs):
    """Per-control pairing: running cost, drift against p, diffusion against q,
    plus the common-noise trace against M; exact on the atoms.  ``controls`` is
    a 1-d array and the result holds one value per control; the jet fields p
    and q are evaluated once, and each coefficient closure once on the atoms
    tiled over the controls."""
    if not mu.probability:
        raise ValueError("K_filtering expects a probability measure")
    grid = np.asarray(controls, dtype=float)
    if grid.ndim != 1:
        raise ValueError(f"controls must be a 1-d array, got shape {grid.shape}")
    X, w = mu.locations, mu.weights
    C, n = grid.size, X.shape[0]
    Xc, ac = np.tile(X, (C, 1)), np.repeat(grid, n)
    pv = np.tile(np.asarray(jet.p(X), dtype=float), (C, 1))
    qv = np.tile(np.asarray(jet.q(X), dtype=float), (C, 1, 1))
    sv = np.asarray(coeffs.sigma(Xc, ac), dtype=float)
    drift = np.einsum("ni,ni->n", np.asarray(coeffs.b(Xc, ac), dtype=float), pv)
    diffusion = np.einsum("nik,nki->n", qv, np.einsum("nij,nkj->nik", sv, sv))
    integrand = np.asarray(coeffs.r(Xc, ac), dtype=float) + drift + 0.5 * diffusion
    st = np.asarray(coeffs.sigma_tilde(grid), dtype=float)
    common = np.trace(st @ np.swapaxes(st, 1, 2) @ jet.M, axis1=1, axis2=2)
    # one dot product per control, so a control's value does not depend on the batch
    return np.vecdot(integrand.reshape(C, n), w) + 0.5 * common


def G_filtering(
    mu: SignedAtomicMeasure, jet: JetArgs, coeffs: FilteringCoeffs, control_grid
) -> float:
    """Infimum of K_filtering over a finite control grid (non-increasing under
    grid refinement)."""
    grid = np.atleast_1d(control_grid)
    if not grid.size:
        raise ValueError("control grid must be nonempty")
    return float(np.min(K_filtering(grid, mu, jet, coeffs)))


def Ge_extend(
    mu: SignedAtomicMeasure,
    m,
    jet: JetArgs,
    coeffs: FilteringCoeffs,
    control_grid,
) -> float:
    """G at the translated measure, with p and q composed with x -> x - m."""
    m = np.atleast_1d(np.asarray(m, dtype=float))
    shifted = JetArgs(lambda X: jet.p(X - m), lambda X: jet.q(X - m), jet.M)
    return G_filtering(pushforward_shift(mu, m), shifted, coeffs, control_grid)


def check_assumption_i_filtering(
    coeffs: FilteringCoeffs,
    samples: list,
    control_grid,
) -> CheckReport:
    """Fit the Lipschitz-in-jets constant of G^e over sampled jet pairs.

    Each sample is (mu, m, jet1, jet2); the reported constant is the largest
    ratio of |G^e difference| to
    (1 + |m| + int |x| dmu) (|p1-p2|_l + |q1-q2|_l + |M1-M2|).
    The check fails only if no finite constant fits (non-finite ratio).
    """
    ratios = []
    failures = []
    for mu, m, jet1, jet2 in samples:
        m = np.atleast_1d(np.asarray(m, dtype=float))
        lhs = abs(
            Ge_extend(mu, m, jet1, coeffs, control_grid)
            - Ge_extend(mu, m, jet2, coeffs, control_grid)
        )
        p1, q1, p2, q2 = jet1.p, jet1.q, jet2.p, jet2.q
        dp = linear_growth_norm(lambda X: np.asarray(p1(X)) - np.asarray(p2(X)), mu.dim, mu.locations)
        dq = linear_growth_norm(lambda X: np.asarray(q1(X)) - np.asarray(q2(X)), mu.dim, mu.locations)
        dM = float(np.linalg.norm(jet1.M - jet2.M))
        scale = (1.0 + float(np.linalg.norm(m)) + abs(mu.abs_moment())) * (dp + dq + dM)
        if scale == 0.0:
            if lhs > 1e-12:
                failures.append({"lhs": lhs, "scale": scale})
            continue
        ratio = lhs / scale
        if not np.isfinite(ratio):
            failures.append({"lhs": lhs, "scale": scale})
        else:
            ratios.append(ratio)
    fitted = max(ratios) if ratios else 0.0
    return CheckReport(
        "filtering-jet-lipschitz",
        not failures,
        stats={"fitted_constant": fitted, "n_samples": len(samples)},
        failures=failures,
    )


@dataclass
class HamiltonianGapRecord:
    """One evaluation of the doubled Hamiltonian difference and its modulus argument."""

    difference: float
    d_F: float
    z: float  # (1/eps) d_F^2 + d_F, the modulus argument
    moment_factor: float  # 1 + |m| + |n| + int |x| d(mu + nu)
    epsilon: float


def check_assumption_ii_filtering(
    coeffs: FilteringCoeffs,
    theta: Theta,
    iota: Theta,
    eps: float,
    cfg: fm.FourierConfig,
    control_grid,
) -> HamiltonianGapRecord:
    """Evaluate G^e(theta) - G^e(iota) at the pair's penalization kernel jets,
    with M = 0.

    Returns the raw difference together with the modulus argument
    z = d_F^2/eps + d_F and the moment factor; a linear modulus is fitted
    over a family of records by the caller.
    """
    mu, nu = theta.measure, iota.measure
    kernel = fm.make_kappa(mu, nu, eps, cfg)
    jet = JetArgs(
        fm.kappa_gradient_field(kernel),
        fm.kappa_hessian_field(kernel),
        np.zeros((mu.dim, mu.dim)),
    )
    g_theta = Ge_extend(mu, theta.m, jet, coeffs, control_grid)
    g_iota = Ge_extend(nu, iota.m, jet, coeffs, control_grid)
    dist = fm.d_F_from_rho(theta, iota, kernel.rho)
    z = dist * dist / eps + dist
    moment = (
        1.0
        + float(np.linalg.norm(theta.m))
        + float(np.linalg.norm(iota.m))
        + mu.abs_moment()
        + nu.abs_moment()
    )
    return HamiltonianGapRecord(
        difference=g_theta - g_iota, d_F=dist, z=z, moment_factor=moment, epsilon=eps
    )


def fit_linear_modulus(records: list) -> float:
    """Largest difference / (z * moment_factor) over records with positive gap."""
    best = 0.0
    for rec in records:
        denom = rec.z * rec.moment_factor
        if rec.difference > 0 and denom > 0:
            best = max(best, rec.difference / denom)
    return best


_MODULUS_RTOL = 1e-9  # verify_linear_modulus: relative slack on each record's bound


def verify_linear_modulus(records: list, constant: float) -> CheckReport:
    """No record may exceed difference <= constant * z * moment_factor."""
    failures = [
        {"difference": rec.difference, "bound": constant * rec.z * rec.moment_factor, "eps": rec.epsilon}
        for rec in records
        if rec.difference > constant * rec.z * rec.moment_factor * (1.0 + _MODULUS_RTOL) + 1e-12
    ]
    return CheckReport(
        "filtering-doubling-modulus",
        not failures,
        stats={"constant": constant, "n_records": len(records)},
        failures=failures,
    )


# ---------------------------------------------------------------------------
# prediction side
# ---------------------------------------------------------------------------


def _validated_weights(K: int, w, ndim: int) -> np.ndarray:
    """Mixed actions over the 2^K subsets as an ``ndim``-d float array, one
    action per row if 2-d: nonnegative weights summing to one within 1e-12."""
    w = np.asarray(w, dtype=float)
    if w.ndim != ndim or w.shape[-1] != 2**K:
        raise ValueError(f"need {2 ** K} weights per action in {ndim} dims, got shape {w.shape}")
    if (w < 0).any():
        raise ValueError("weights must be nonnegative")
    sums = w.sum(axis=-1)
    off = abs(sums - 1.0)
    if (off > 1e-12).any():
        raise ValueError(f"weights sum to {float(np.ravel(sums)[np.argmax(off)])!r} != 1")
    return w


@dataclass(frozen=True)
class SimplexAction:
    """Mixed subset choice: 2^K weights indexed by subset bitmask.

    Bit i-1 of the mask says whether action i belongs to the subset; weights
    are nonnegative and sum to one within 1e-12.
    """

    n_actions: int
    weights: np.ndarray

    def __post_init__(self):
        w = _validated_weights(self.n_actions, np.ravel(self.weights), 1).copy()
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)


@lru_cache(maxsize=None)
def subset_vectors(K: int) -> np.ndarray:
    """Read-only (2^K, K) matrix whose row ``mask`` is the indicator vector of
    the subset: column i-1 holds bit i-1 of the mask, i.e. action i."""
    E = (np.arange(2**K)[:, None] >> np.arange(K) & 1).astype(float)
    E.setflags(write=False)
    return E


@lru_cache(maxsize=None)
def _direction(K: int, i: int) -> tuple:
    """Read-only mask of the subsets containing action i, and the (2^K, K)
    matrix C whose row j is e_{j^C} for those subsets and e_j for the rest."""
    if not (1 <= i <= K):
        raise ValueError(f"action index {i} out of 1..{K}")
    E = subset_vectors(K)
    member = E[:, i - 1].astype(bool)
    C = np.where(member[:, None], 1.0 - E, E)
    member.setflags(write=False)
    C.setflags(write=False)
    return member, C


def vertex_action(K: int, mask: int) -> SimplexAction:
    w = np.zeros(2**K)
    w[mask] = 1.0
    return SimplexAction(K, w)


def uniform_action(K: int) -> SimplexAction:
    return SimplexAction(K, np.full(2**K, 1.0 / 2**K))


def hat_weights(a: SimplexAction, i: int) -> tuple:
    """Total weight on subsets containing i, and its complement.

    The complement is returned as 1 - hat(i) so the pair always sums to one
    exactly in floating point; it agrees with the direct sum over subsets not
    containing i up to the simplex mass tolerance.
    """
    member, _ = _direction(a.n_actions, i)
    hat_i = float(np.sum(a.weights[member]))
    return hat_i, 1.0 - hat_i


def _regret_data(mu: SignedAtomicMeasure, q, M) -> tuple:
    """The mean matrix of q under mu and M, checked against mu's dimension."""
    if not mu.probability:
        raise ValueError("regret pairing expects a probability measure")
    M = np.asarray(M, dtype=float)
    if M.shape != (mu.dim, mu.dim):
        raise ValueError(f"M must be {mu.dim}x{mu.dim}, got shape {M.shape}")
    qbar = np.einsum("n,nij->ij", mu.weights, np.asarray(q(mu.locations), dtype=float))
    if qbar.shape != M.shape:
        raise ValueError(f"q must take {mu.dim}x{mu.dim} values, got shape {qbar.shape}")
    return qbar, M


def _pairing(i: int, W: np.ndarray, qbar: np.ndarray, M: np.ndarray) -> np.ndarray:
    """Direction-i pairing of each row of the (B, 2^K) weights W.

    With c_j = e_{j^C} for subsets j containing i and c_j = e_j otherwise,
    S = M - qbar, l_j = c_j^T qbar c_j, h = sum_{j ∋ i} a_j,
    h' = sum_{j ∌ i} a_j, u = sum_{j ∋ i} a_j c_j and
    u' = sum_{j ∌ i} a_j c_j, the pairing is

        K = (a.l + u^T S u / h + u'^T S u' / h') / 2,

    a term with a zero denominator being 0.  Each side is divided by its own
    mass, so K is homogeneous of degree one in a, also off the exact simplex.
    Returns the (B,) values, each row's by its own dot products, so with the
    same bits as the row alone.
    """
    member, C = _direction(qbar.shape[0], i)
    S = M - qbar
    ell = np.einsum("jp,pq,jq->j", C, qbar, C)
    values = np.vecdot(W, ell)
    h = np.vecdot(W, member)
    for side, denom in ((member, h), (~member, np.vecdot(W, ~member))):
        u = np.vecdot(W[:, None, :], C.T * side)  # zero weight off this side
        quad = np.einsum("bp,pq,bq->b", u, S, u)
        values += np.where(denom > 0, quad, 0.0) / np.where(denom > 0, denom, 1.0)
    return 0.5 * values


def K_regret(i: int, W, mu: SignedAtomicMeasure, q, M: np.ndarray):
    """Per-direction quadratic pairing of mixed subset actions with (q, M).

    ``q`` is a batched matrix field X (n,K) -> (n,K,K) integrated against mu;
    terms conditioned on zero-probability sides vanish (weight-cleared form,
    see ``_pairing``).  ``W`` is a (B, 2^K) array of mixed actions, one per
    row, and the result holds one value per row.
    """
    return _pairing(i, _validated_weights(mu.dim, W, 2), *_regret_data(mu, q, M))


@dataclass(frozen=True)
class RegretSolverConfig:
    """Ignored: ``G_regret`` is exact and takes no budget or seed.  Kept so
    that callers which still pass one keep working."""

    multistarts: int = 16
    seed: int = 0


_FACE_TOL = 1e-12  # _regret_argmax: how far a face's KKT point may sit outside the simplex


def _regret_argmax(qbar: np.ndarray, M: np.ndarray) -> tuple:
    """Exact supremum of ``_pairing`` as (value, direction i, weights attaining it).

    For fixed i and p = a/h on the side of subsets containing i, that side
    contributes h phi(p) with phi(p) = p.l + p^T (C S C^T) p, the other side
    (1 - h) phi(p'): both sides carry the vectors {e_k : k ∌ i}.  So the
    supremum is half the maximum of phi over the simplex on the subsets
    without i, at h = 0.  That maximum is a KKT point of some face F:
    2 Q_FF p - lambda 1 = -l_F, 1^T p = 1, whose system is nonsingular on a
    smallest such face.  Each face of each direction, padded with p_j = 0 off
    F, is one (n+1) x (n+1) system of one batched solve; the solutions in the
    simplex (within ``_FACE_TOL``, then clipped onto it) are scored by
    ``_pairing``, bit for bit ``K_regret`` there.  K <= 4, as there are
    2^(2^(K-1)) - 1 faces per direction.
    """
    K = qbar.shape[0]
    if K > 4:
        raise ValueError(f"the exact regret supremum needs K <= 4, got K = {K}")
    n = 2 ** (K - 1)
    faces = subset_vectors(n)[1:]  # bit rows of 1 .. 2^n - 1: every nonempty face
    sides = np.array([np.flatnonzero(~_direction(K, i)[0]) for i in range(1, K + 1)])
    Es = subset_vectors(K)[sides]
    Q = Es @ (M - qbar) @ np.swapaxes(Es, 1, 2)
    ell = np.einsum("ijp,pq,ijq->ij", Es, qbar, Es)
    A = np.zeros((K, len(faces), n + 1, n + 1))
    A[..., :n, :n] = np.where(
        faces[:, :, None], (Q + np.swapaxes(Q, 1, 2))[:, None] * faces[:, None, :], np.eye(n)
    )
    A[..., :n, n], A[..., n, :n] = -faces, faces
    rhs = np.append(np.where(faces, -ell[:, None], 0.0), np.ones((K, len(faces), 1)), axis=2)
    direction = np.repeat(np.arange(K), len(faces))
    A, rhs = A.reshape(-1, n + 1, n + 1), rhs.reshape(-1, n + 1, 1)
    with np.errstate(divide="ignore"):  # det takes the log of a subnormal pivot product
        live = np.linalg.det(A) != 0.0
    p = np.linalg.solve(A[live], rhs[live])[:, :n, 0]
    inside = np.all((p >= -_FACE_TOL) & (p <= 1.0 + _FACE_TOL), axis=1) & (p.max(axis=1) > 0)
    p = np.maximum(p[inside], 0.0)
    direction = direction[live][inside]  # still sorted, so values line up with W
    W = np.zeros((len(p), 2**K))
    W[np.arange(len(p))[:, None], sides[direction]] = p / p.sum(axis=1, keepdims=True)
    values = np.concatenate([_pairing(i + 1, W[direction == i], qbar, M) for i in range(K)])
    k = int(np.argmax(values))
    return float(values[k]), int(direction[k]) + 1, W[k]


def G_regret(
    mu: SignedAtomicMeasure,
    q,
    M: np.ndarray,
    cfg: RegretSolverConfig | None = None,
) -> float:
    """Supremum of K_regret over directions and the mixed-action simplex.

    Exact and deterministic: the value of ``_pairing`` at the best KKT point
    of all faces of the action simplex (see ``_regret_argmax``), so it is
    attained by an explicit action.  ``cfg`` is ignored.  Needs K <= 4.
    """
    return _regret_argmax(*_regret_data(mu, q, M))[0]


_REGRET_RTOL = 1e-9  # check_assumptions_regret: relative slack on the Lipschitz bound
_REGRET_SIGN_TOL = 1e-9  # and absolute slack on the sign gap


def check_assumptions_regret(samples: list, metric_cfgs: dict) -> CheckReport:
    """Two-sided verification on sampled problem data.

    Each sample is a dict with keys (K, mu, nu, q1, q2, M1, M2, M, eps, i, a).
    (i) the exact suprema ``G_regret`` under (q1, M1) and (q2, M2) satisfy
    the dimension-dependent Lipschitz bound
    2^{3K-2} (1 + int |x| dmu)(|q1-q2|_l + |M1-M2|);
    (ii) swapping mu for nu in the pairing with the pair's own penalization
    Hessian never increases it beyond 1e-9.  ``metric_cfgs`` maps K to
    the spectral weight the kernels are built from.
    """
    failures = []
    max_lip_ratio = 0.0
    max_sign_gap = -math.inf
    for idx, s in enumerate(samples):
        K_n = s["K"]
        mu, nu = s["mu"], s["nu"]
        g1 = G_regret(mu, s["q1"], s["M1"])
        g2 = G_regret(mu, s["q2"], s["M2"])
        q1, q2 = s["q1"], s["q2"]
        dq = linear_growth_norm(
            lambda X: np.asarray(q1(X)) - np.asarray(q2(X)), K_n, mu.locations
        )
        dM = float(np.linalg.norm(s["M1"] - s["M2"]))
        bound = 2.0 ** (3 * K_n - 2) * (1.0 + mu.abs_moment()) * (dq + dM)
        lhs = abs(g1 - g2)
        if bound > 0:
            max_lip_ratio = max(max_lip_ratio, lhs / bound)
        if lhs > bound * (1.0 + _REGRET_RTOL) + 1e-15:
            failures.append({"sample": idx, "check": "lipschitz", "lhs": lhs, "bound": bound})

        kernel = fm.make_kappa(mu, nu, s["eps"], metric_cfgs[K_n])
        hess = fm.kappa_hessian_field(kernel)
        i, W = s["i"], s["a"].weights[None]
        gap = float(K_regret(i, W, mu, hess, s["M"])[0] - K_regret(i, W, nu, hess, s["M"])[0])
        max_sign_gap = max(max_sign_gap, gap)
        if gap > _REGRET_SIGN_TOL:
            failures.append({"sample": idx, "check": "sign", "gap": gap})
    return CheckReport(
        "regret-hamiltonian-assumptions",
        not failures,
        stats={
            "max_lipschitz_ratio": max_lip_ratio,
            "max_sign_gap": max_sign_gap,
            "n_samples": len(samples),
        },
        failures=failures,
    )


def regret_samples(K: int, n: int, rng: np.random.Generator) -> list:
    """``n`` random samples in the format ``check_assumptions_regret`` reads.

    Each pairs two 1-3 atom probability measures with equal weights on
    [-2, 2]^K, two fields q(X) = sin(X . c) B and two matrices M (B, M
    symmetric), a scale eps in [0.05, 0.5], an action index and a mixed action.
    """

    def sym():
        A = rng.standard_normal((K, K))
        return 0.5 * (A + A.T)

    def field(c, B):
        return lambda X: np.sin(X @ c)[:, None, None] * B

    samples = []
    for _ in range(n):
        n_atoms = int(rng.integers(1, 4))
        locs = rng.uniform(-2.0, 2.0, size=(n_atoms, K))
        w = rng.dirichlet(np.ones(n_atoms))
        locs2 = rng.uniform(-2.0, 2.0, size=(n_atoms, K))
        M1, M2 = sym(), sym()
        c1, c2 = rng.standard_normal(K), rng.standard_normal(K)
        B1, B2 = sym(), sym()
        samples.append(
            {
                "K": K,
                "mu": SignedAtomicMeasure(K, locs, w, probability=True),
                "nu": SignedAtomicMeasure(K, locs2, w, probability=True),
                "q1": field(c1, B1),
                "q2": field(c2, B2),
                "M1": M1,
                "M2": M2,
                "M": M1,
                "eps": float(rng.uniform(0.05, 0.5)),
                "i": int(rng.integers(1, K + 1)),
                "a": SimplexAction(K, rng.dirichlet(np.ones(2**K))),
            }
        )
    return samples


# ---------------------------------------------------------------------------
# named coefficient registry
# ---------------------------------------------------------------------------


def make_lq_coeffs(
    sigma: float = 1.0,
    sigma_tilde: float = 1.0,
    control_weight: float = 1.0,
    saturate_terminal: float | None = None,
) -> FilteringCoeffs:
    """Scalar linear-quadratic family: drift = control, quadratic costs.

    The terminal cost x^2 exceeds the bounded-coefficient regime; the
    saturated variant min(x^2, cap) stays inside it.
    """

    def b(X, a):
        return a[:, None].copy()

    def sig(X, a):
        return np.full((X.shape[0], 1, 1), sigma)

    def sig_t(a):
        return np.full((len(a), 1, 1), sigma_tilde)

    def r(X, a):
        return control_weight * a**2

    cap = math.inf if saturate_terminal is None else saturate_terminal

    def l(X):
        return np.minimum(np.sum(X * X, axis=1), cap)

    return FilteringCoeffs(
        d=1,
        d1=1,
        d2=1,
        b=b,
        sigma=sig,
        sigma_tilde=sig_t,
        r=r,
        l=l,
        bounds={"sigma": sigma, "sigma_tilde": sigma_tilde},
        lip={"b": 0.0, "sigma": 0.0, "r": 0.0},
        delta=sigma * sigma,
    )


def make_bounded_filter_coeffs() -> FilteringCoeffs:
    """Bounded Lipschitz elliptic demo coefficients with genuine x-dependence.

    Both the drift and the running cost carry control-free components, so the
    Hamiltonian differences do not collapse at the zero control.
    """

    def b(X, a):
        return a[:, None] * (0.5 + 0.5 / (1.0 + X * X)) + 0.4 * np.sin(X)

    def sig(X, a):
        return (1.0 + 0.3 * np.sin(X))[:, :, None]

    def sig_t(a):
        return np.full((len(a), 1, 1), 0.5)

    def r(X, a):
        return 0.3 * np.cos(X[:, 0]) + a**2 * (1.0 + 0.2 * np.cos(X[:, 0])) / 1.2

    def l(X):
        return np.tanh(np.sum(X * X, axis=1))

    return FilteringCoeffs(
        d=1,
        d1=1,
        d2=1,
        b=b,
        sigma=sig,
        sigma_tilde=sig_t,
        r=r,
        l=l,
        bounds={"b": 4.0 * 1.0 + 0.4, "sigma": 1.3, "sigma_tilde": 0.5, "r": 16.5, "l": 1.0},
        lip={"b": 4.4, "sigma": 0.3, "r": 16.5, "l": 2.0},
        delta=0.49,
    )


COEFFS_REGISTRY = {
    "lq1d": make_lq_coeffs,
    "lq1d-saturated": partial(make_lq_coeffs, saturate_terminal=100.0),
    "filter1d": make_bounded_filter_coeffs,
}
