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
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable

import numpy as np

from . import fourier_metric as fm
from ._optim import simplex_points
from .measures import SignedAtomicMeasure, Theta
from .reports import CheckReport

__all__ = [
    "FilteringCoeffs",
    "JetArgs",
    "SimplexAction",
    "K_filtering",
    "G_filtering",
    "Ge_extend",
    "check_assumption_i_filtering",
    "check_assumption_ii_filtering",
    "HamiltonianGapRecord",
    "fit_linear_modulus",
    "verify_linear_modulus",
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
    """

    d: int
    d1: int
    d2: int
    b: Callable
    sigma: Callable
    sigma_tilde: Callable
    r: Callable
    l: Callable


_PROBE_VALUES = (1.0, 5.0, 25.0)


def _probe_points(dim: int, extra: np.ndarray) -> np.ndarray:
    """The origin, then +-v e_axis for v in ``_PROBE_VALUES``, axis by axis, then ``extra``."""
    steps = np.ravel(np.outer(_PROBE_VALUES, (1.0, -1.0)))
    axes = np.repeat(np.arange(dim), steps.size)
    pts = np.zeros((1 + axes.size, dim))
    pts[np.arange(1, 1 + axes.size), axes] = np.tile(steps, dim)
    return np.vstack([pts, extra])


def linear_growth_norm(f: Callable, dim: int, extra_points: np.ndarray) -> float:
    """sup |f(x)| / (1 + |x|) estimated on the standard probe set plus ``extra_points``."""
    X = _probe_points(dim, extra_points)
    vals = np.asarray(f(X), dtype=float)
    mags = np.abs(vals) if vals.ndim == 1 else np.linalg.norm(
        vals.reshape(vals.shape[0], -1), axis=1
    )
    return float(np.max(mags / (1.0 + np.linalg.norm(X, axis=1))))


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
        if not np.allclose(M, M.T, atol=1e-12):
            raise ValueError("M must be symmetric")
        M = M.copy()
        M.setflags(write=False)
        object.__setattr__(self, "M", M)


def K_filtering(controls, mu: SignedAtomicMeasure, jet: JetArgs, coeffs: FilteringCoeffs):
    """Per-control pairing: running cost, drift against p, diffusion against q,
    plus the common-noise trace against M; exact on the atoms.  ``controls`` is
    a 1-d array and the result holds one value per control; the jet fields p
    and q are evaluated once, then ``_filtering_pairing`` makes one pass over
    the atoms tiled over the controls, with mu as its single side."""
    grid, X = _controls(controls, mu), mu.locations
    return _filtering_pairing(grid, X, [mu.weights], jet.p(X), jet.q(X), jet.M, coeffs)[0]


def _controls(controls, mu: SignedAtomicMeasure) -> np.ndarray:
    if not mu.probability:
        raise ValueError("K_filtering expects a probability measure")
    grid = np.asarray(controls, dtype=float)
    if grid.ndim != 1:
        raise ValueError(f"controls must be a 1-d array, got shape {grid.shape}")
    return grid


def _filtering_pairing(grid, X, weights, p, q, M, coeffs: FilteringCoeffs) -> np.ndarray:
    """``K_filtering`` of several sides in one control-grid pass, one row per side.

    The atoms X (n, d) and the jet values p (n, d) and q (n, d, d) there
    stack the sides in order, side s taking the next len(weights[s]) rows; M
    (d, d) is common to all sides.  Each closure is evaluated once on the
    stack tiled over the controls."""
    C, (n, d) = grid.size, X.shape
    if (d, M.shape) != (coeffs.d, (coeffs.d, coeffs.d)):
        raise ValueError(
            f"coefficients of dimension {coeffs.d} got atoms of dimension {d} and M of shape {M.shape}"
        )
    Xc, ac = np.tile(X, (C, 1)), np.repeat(grid, n)
    pv = np.tile(np.asarray(p, dtype=float), (C, 1))
    qv = np.tile(np.asarray(q, dtype=float), (C, 1, 1))
    sv = np.asarray(coeffs.sigma(Xc, ac), dtype=float)
    drift = np.einsum("ni,ni->n", np.asarray(coeffs.b(Xc, ac), dtype=float), pv)
    diffusion = np.einsum("nik,nki->n", qv, np.einsum("nij,nkj->nik", sv, sv))
    integrand = (np.asarray(coeffs.r(Xc, ac), dtype=float) + drift + 0.5 * diffusion).reshape(C, n)
    st = np.asarray(coeffs.sigma_tilde(grid), dtype=float)
    common = np.trace(st @ np.swapaxes(st, 1, 2) @ M, axis1=1, axis2=2)
    # one dot product per control over a side's own contiguous rows, so a
    # value has the bits of its control and its side alone
    ends = np.cumsum([len(w) for w in weights])
    rows = [np.vecdot(integrand[:, hi - len(w) : hi], w) for hi, w in zip(ends, weights)]
    return np.stack(rows) + 0.5 * common


def G_filtering(
    mu: SignedAtomicMeasure, jet: JetArgs, coeffs: FilteringCoeffs, control_grid
) -> float:
    """Infimum of K_filtering over a finite control grid (non-increasing under
    grid refinement)."""
    grid = np.atleast_1d(control_grid)
    if not grid.size:
        raise ValueError("control grid must be nonempty")
    return float(np.min(K_filtering(grid, mu, jet, coeffs)))


def _shifted(mu: SignedAtomicMeasure, m, control_grid) -> tuple:
    """The checked control grid, and the atoms of mu shifted by m."""
    m = np.atleast_1d(np.asarray(m, dtype=float))
    grid = _controls(np.atleast_1d(control_grid), mu)
    if m.size != mu.dim or not grid.size:
        raise ValueError(f"need a shift in R^{mu.dim} and a nonempty control grid")
    return grid, mu.locations + m


def Ge_extend(
    mu: SignedAtomicMeasure,
    m,
    jet: JetArgs,
    coeffs: FilteringCoeffs,
    control_grid,
) -> float:
    """G at the translated measure, with p and q composed with x -> x - m:
    the coefficients are read at the shifted atoms x_i + m, the jet at x_i."""
    (grid, Y), X = _shifted(mu, m, control_grid), mu.locations
    return float(np.min(_filtering_pairing(grid, Y, [mu.weights], jet.p(X), jet.q(X), jet.M, coeffs)))


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
    if not samples:
        raise ValueError("check_assumption_i_filtering needs at least one sample")
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
    over a family of records by the caller.  A record is one kernel pass
    and one ``_filtering_pairing`` pass, with theta and iota as its sides.
    """
    mu, nu = theta.measure, iota.measure
    kernel = fm.make_kappa(mu, nu, eps, cfg)
    (grid, X), (_, Y) = _shifted(mu, theta.m, control_grid), _shifted(nu, iota.m, control_grid)
    # one kernel pass gives the jets at the atoms of both measures
    p, q = fm.kappa_jets(kernel, np.concatenate([mu.locations, nu.locations]))
    sides, M = [mu.weights, nu.weights], np.zeros((mu.dim, mu.dim))
    K = _filtering_pairing(grid, np.concatenate([X, Y]), sides, p, q, M, coeffs)
    g_theta, g_iota = float(np.min(K[0])), float(np.min(K[1]))
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
    """No record may exceed difference <= constant * z * moment_factor; at
    least one record is needed."""
    if not records:
        raise ValueError("verify_linear_modulus needs at least one record")
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


# subset actions need K <= 16 base actions: a 65 536-row subset table of 8 MB
_MAX_BASE_ACTIONS = 16


def _n_subsets(K: int) -> int:
    """2^K, checked against ``_MAX_BASE_ACTIONS`` before anything of that size is made."""
    if K > _MAX_BASE_ACTIONS:
        raise ValueError(f"subset actions need K <= {_MAX_BASE_ACTIONS} base actions, got K = {K}")
    return 2**K


def _validated_weights(K: int, w, ndim: int) -> np.ndarray:
    """Mixed actions over the 2^K subsets as an ``ndim``-d float array, one
    action per row if 2-d: nonnegative weights summing to one within 1e-12."""
    n = _n_subsets(K)
    w = np.asarray(w, dtype=float)
    if w.ndim != ndim or w.shape[-1] != n:
        raise ValueError(f"need {n} weights per action in {ndim} dims, got shape {w.shape}")
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
        if self.n_actions < 1:
            raise ValueError(f"n_actions must be at least 1, got {self.n_actions}")
        w = _validated_weights(self.n_actions, np.ravel(self.weights), 1).copy()
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)


@lru_cache(maxsize=None)
def subset_vectors(K: int) -> np.ndarray:
    """Read-only (2^K, K) matrix whose row ``mask`` is the indicator vector of
    the subset: column i-1 holds bit i-1 of the mask, i.e. action i."""
    E = (np.arange(_n_subsets(K))[:, None] >> np.arange(K) & 1).astype(float)
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
    n = _n_subsets(K)
    if not 0 <= mask < n:
        raise ValueError(f"subset mask {mask} is outside [0, 2^{K})")
    return SimplexAction(K, np.arange(n) == mask)


def uniform_action(K: int) -> SimplexAction:
    n = _n_subsets(K)
    return SimplexAction(K, np.full(n, 1.0 / n))


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
    F, is one (n+1) x (n+1) system of one ``simplex_points`` call (direction
    index // faces); its points (within ``_FACE_TOL`` of the simplex, clipped
    onto it) are scored by ``_pairing``, bit for bit ``K_regret`` there.
    K <= 4, as there are 2^(2^(K-1)) - 1 faces per direction.
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
    kept, p = simplex_points(A.reshape(-1, n + 1, n + 1), rhs.reshape(-1, n + 1, 1), n, _FACE_TOL)
    direction = kept // len(faces)  # ascending, so values line up with W
    W = np.zeros((len(p), 2**K))
    W[np.arange(len(p))[:, None], sides[direction]] = p
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
    the spectral weight the kernels are built from.  At least one sample is
    needed.
    """
    if not samples:
        raise ValueError("check_assumptions_regret needs at least one sample")
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

        # one Hessian pass at the atoms of both measures; each side reads its rows
        kernel = fm.make_kappa(mu, nu, s["eps"], metric_cfgs[K_n])
        hess = fm.kappa_hessian_field(kernel)(np.concatenate([mu.locations, nu.locations]))
        i, W, n = s["i"], s["a"].weights[None], mu.n_atoms
        k_mu = K_regret(i, W, mu, lambda _: hess[:n], s["M"])[0]
        gap = float(k_mu - K_regret(i, W, nu, lambda _: hess[n:], s["M"])[0])
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
                "a": SimplexAction(K, rng.dirichlet(np.ones(_n_subsets(K)))),
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
    )


COEFFS_REGISTRY = {
    "lq1d": make_lq_coeffs,
    "lq1d-saturated": partial(make_lq_coeffs, saturate_terminal=100.0),
    "filter1d": make_bounded_filter_coeffs,
}
