"""The two model Hamiltonians and the executable continuity checks on them.

Filtering side: the per-control generator pairing K, its infimum G over a
control grid, and the extension G^e that evaluates G at a translated measure
with translated derivative arguments.  Prediction side: subset-weight
bookkeeping on mixed adversary actions, the per-direction quadratic form K,
and its supremum over action index and mixed action.

The continuity conditions the comparison argument needs are *fitted* here:
checking one means estimating its constant on a sample family and verifying
no held-out violation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from . import fourier_metric as fm
from ._optim import multistart_ascent, project_simplex
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
    "hat_weights",
    "V_vectors",
    "K_regret",
    "G_regret",
    "RegretSolverConfig",
    "check_assumptions_regret",
    "regret_samples",
    "linear_growth_norm",
    "subset_vectors",
    "vertex_action",
    "uniform_action",
    "COEFFS_REGISTRY",
]


# ---------------------------------------------------------------------------
# filtering side
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FilteringCoeffs:
    """Coefficient bundle (b, sigma, sigma_tilde, r, l) for the filtering problem.

    Closures are batched over states: ``b(X, a)`` takes X of shape (n, d) and
    returns (n, d); ``sigma(X, a)`` returns (n, d, d1); ``sigma_tilde(a)``
    returns (d, d2); ``r(X, a)`` returns (n,); ``l(X)`` returns (n,).
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


def check_coefficient_assumptions(
    coeffs: FilteringCoeffs,
    control_grid: np.ndarray,
    rng: np.random.Generator,
    n_points: int = 64,
    x_scale: float = 3.0,
) -> CheckReport:
    """Sampled boundedness, Lipschitz and ellipticity verification.

    Declared bounds and Lipschitz constants are sup-checked on random state
    pairs for every control on the grid; ellipticity of sigma sigma^T is
    checked against ``coeffs.delta`` on random directions.
    """
    X = rng.uniform(-x_scale, x_scale, size=(n_points, coeffs.d))
    Y = rng.uniform(-x_scale, x_scale, size=(n_points, coeffs.d))
    failures = []
    worst = {"b": 0.0, "sigma": 0.0, "r": 0.0, "l": 0.0, "lip": 0.0}
    min_ell = math.inf
    for a in np.atleast_1d(control_grid):
        bx, by = coeffs.b(X, a), coeffs.b(Y, a)
        sx, sy = coeffs.sigma(X, a), coeffs.sigma(Y, a)
        rx, ry = coeffs.r(X, a), coeffs.r(Y, a)
        worst["b"] = max(worst["b"], float(np.max(np.linalg.norm(bx, axis=1))))
        worst["sigma"] = max(
            worst["sigma"], float(np.max(np.linalg.norm(sx, axis=(1, 2))))
        )
        worst["r"] = max(worst["r"], float(np.max(np.abs(rx))))
        dist = np.linalg.norm(X - Y, axis=1)
        dist = np.where(dist < 1e-12, np.inf, dist)
        worst["lip"] = max(
            worst["lip"],
            float(np.max(np.linalg.norm(bx - by, axis=1) / dist)),
            float(np.max(np.linalg.norm(sx - sy, axis=(1, 2)) / dist)),
            float(np.max(np.abs(rx - ry) / dist)),
        )
        ssT = np.einsum("nij,nkj->nik", sx, sx)
        xi = rng.standard_normal((8, coeffs.d))
        xi /= np.linalg.norm(xi, axis=1, keepdims=True)
        quad = np.einsum("kp,npq,kq->nk", xi, ssT, xi)
        min_ell = min(min_ell, float(np.min(quad)))
    worst["l"] = float(np.max(np.abs(coeffs.l(X))))
    for key in ("b", "sigma", "r", "l"):
        declared = coeffs.bounds.get(key)
        if declared is not None and worst[key] > declared * (1 + 1e-9):
            failures.append({"coefficient": key, "observed": worst[key], "declared": declared})
    declared_lip = max(coeffs.lip.values()) if coeffs.lip else None
    if declared_lip is not None and worst["lip"] > declared_lip * (1 + 1e-9):
        failures.append({"coefficient": "lip", "observed": worst["lip"], "declared": declared_lip})
    if min_ell < coeffs.delta - 1e-12:
        failures.append({"coefficient": "ellipticity", "observed": min_ell, "declared": coeffs.delta})
    return CheckReport(
        "filtering-coefficients",
        not failures,
        stats={**worst, "ellipticity_min": min_ell},
        failures=failures,
    )


_PROBE_VALUES = (1.0, 5.0, 25.0)


def _probe_points(dim: int, extra: np.ndarray | None = None) -> np.ndarray:
    pts = [np.zeros(dim)]
    for axis in range(dim):
        for v in _PROBE_VALUES:
            for sign in (1.0, -1.0):
                e = np.zeros(dim)
                e[axis] = sign * v
                pts.append(e)
    pts = np.array(pts)
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

    def shifted(self, m: np.ndarray) -> "JetArgs":
        """The jet with p and q composed with x -> x - m (M unchanged)."""
        m = np.asarray(m, dtype=float)
        p, q = self.p, self.q
        return JetArgs(lambda X: p(np.atleast_2d(X) - m), lambda X: q(np.atleast_2d(X) - m), self.M)


def K_filtering(controls, mu: SignedAtomicMeasure, jet: JetArgs, coeffs: FilteringCoeffs):
    """Per-control pairing: running cost, drift against p, diffusion against q,
    plus the common-noise trace against M; exact on the atoms.  ``controls`` is
    one control (float result) or a 1-d array (one value per control); the jet
    fields p and q are evaluated once."""
    if not mu.probability:
        raise ValueError("K_filtering expects a probability measure")
    X, w = mu.locations, mu.weights
    pv = np.asarray(jet.p(X), dtype=float)
    qv = np.asarray(jet.q(X), dtype=float)
    values = []
    for a in np.atleast_1d(controls):
        sv = np.asarray(coeffs.sigma(X, a), dtype=float)
        drift = np.einsum("ni,ni->n", np.asarray(coeffs.b(X, a), dtype=float), pv)
        diffusion = np.einsum("nik,nki->n", qv, np.einsum("nij,nkj->nik", sv, sv))
        integrand = np.asarray(coeffs.r(X, a), dtype=float) + drift + 0.5 * diffusion
        st = np.asarray(coeffs.sigma_tilde(a), dtype=float)
        values.append(float(w @ integrand) + 0.5 * float(np.trace(st @ st.T @ jet.M)))
    return np.array(values) if np.ndim(controls) else values[0]


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
    """G at the translated measure with translated derivative arguments."""
    m = np.atleast_1d(np.asarray(m, dtype=float))
    return G_filtering(pushforward_shift(mu, m), jet.shifted(m), coeffs, control_grid)


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
    M: np.ndarray | None = None,
) -> HamiltonianGapRecord:
    """Evaluate G^e(theta) - G^e(iota) at the pair's penalization kernel jets.

    Returns the raw difference together with the modulus argument
    z = d_F^2/eps + d_F and the moment factor; a linear modulus is fitted
    over a family of records by the caller.
    """
    mu, nu = theta.measure, iota.measure
    kernel = fm.make_kappa(mu, nu, eps, cfg)
    jet = JetArgs(
        fm.kappa_gradient_field(kernel),
        fm.kappa_hessian_field(kernel),
        np.zeros((mu.dim, mu.dim)) if M is None else M,
    )
    g_theta = Ge_extend(mu, theta.m, jet, coeffs, control_grid)
    g_iota = Ge_extend(nu, iota.m, jet, coeffs, control_grid)
    dist = fm.d_F(theta, iota, cfg)
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


def verify_linear_modulus(records: list, constant: float, rtol: float = 1e-9) -> CheckReport:
    """No record may exceed difference <= constant * z * moment_factor."""
    failures = [
        {"difference": rec.difference, "bound": constant * rec.z * rec.moment_factor, "eps": rec.epsilon}
        for rec in records
        if rec.difference > constant * rec.z * rec.moment_factor * (1.0 + rtol) + 1e-12
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


@dataclass(frozen=True)
class SimplexAction:
    """Mixed subset choice: 2^K weights indexed by subset bitmask.

    Bit i-1 of the mask says whether action i belongs to the subset; weights
    are nonnegative and sum to one within 1e-12.
    """

    n_actions: int
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float).ravel()
        if w.size != 2**self.n_actions:
            raise ValueError(f"need {2 ** self.n_actions} weights, got {w.size}")
        if np.any(w < 0):
            raise ValueError("weights must be nonnegative")
        if abs(float(np.sum(w)) - 1.0) > 1e-12:
            raise ValueError(f"weights sum to {float(np.sum(w))!r} != 1")
        w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)


@lru_cache(maxsize=None)
def subset_vectors(K: int) -> np.ndarray:
    """Read-only (2^K, K) matrix whose row ``mask`` is the indicator vector of
    the subset: column i-1 holds bit i-1 of the mask, i.e. action i."""
    E = (np.arange(2**K)[:, None] >> np.arange(K) & 1).astype(float)
    E.setflags(write=False)
    return E


def vertex_action(K: int, mask: int) -> SimplexAction:
    w = np.zeros(2**K)
    w[mask] = 1.0
    return SimplexAction(K, w)


def uniform_action(K: int) -> SimplexAction:
    return SimplexAction(K, np.full(2**K, 1.0 / 2**K))


def _member_mask(K: int, i: int) -> np.ndarray:
    if not (1 <= i <= K):
        raise ValueError(f"action index {i} out of 1..{K}")
    return subset_vectors(K)[:, i - 1].astype(bool)


def hat_weights(a: SimplexAction, i: int) -> tuple:
    """Total weight on subsets containing i, and its complement.

    The complement is returned as 1 - hat(i) so the pair always sums to one
    exactly in floating point; it agrees with the direct sum over subsets not
    containing i up to the simplex mass tolerance.
    """
    sel = _member_mask(a.n_actions, i)
    hat_i = float(np.sum(a.weights[sel]))
    return hat_i, 1.0 - hat_i


def V_vectors(a: SimplexAction, i: int) -> tuple:
    """Conditional mean complement/member indicator vectors (V_i, V_{-i}).

    V_i averages e_{complement of j} over subsets j containing i with weights
    a(j)/hat(i); the zero-vector convention applies where the conditioning
    weight vanishes, which makes the weight-cleared form of the quadratic
    pairing continuous there.
    """
    K = a.n_actions
    E = subset_vectors(K)
    sel = _member_mask(K, i)
    hat_i, hat_mi = hat_weights(a, i)
    u_i = a.weights[sel] @ (1.0 - E[sel])  # sum a(j) e_{j^C} over j containing i
    u_mi = a.weights[~sel] @ E[~sel]  # sum a(j) e_j over j not containing i
    v_i = u_i / hat_i if hat_i > 0 else np.zeros(K)
    v_mi = u_mi / hat_mi if hat_mi > 0 else np.zeros(K)
    return v_i, v_mi


def _mean_matrix(mu: SignedAtomicMeasure, q) -> np.ndarray:
    qv = np.asarray(q(mu.locations), dtype=float)
    return np.einsum("n,nij->ij", mu.weights, qv)


def K_regret(i: int, a: SimplexAction, mu: SignedAtomicMeasure, q, M: np.ndarray) -> float:
    """Per-direction quadratic pairing of a mixed subset action with (q, M).

    ``q`` is a batched matrix field X (n,K) -> (n,K,K) integrated against mu;
    terms conditioned on zero-probability sides vanish (weight-cleared form).
    """
    if not mu.probability:
        raise ValueError("K_regret expects a probability measure")
    K_n = a.n_actions
    if mu.dim != K_n:
        raise ValueError("measure dimension must equal the number of actions")
    M = np.asarray(M, dtype=float)
    qbar = _mean_matrix(mu, q)
    E = subset_vectors(K_n)
    sel = _member_mask(K_n, i)
    hat_i, hat_mi = hat_weights(a, i)
    v_i, v_mi = V_vectors(a, i)

    comp = 1.0 - E[sel]  # e_{j^C} for subsets j containing i
    pair_i = np.einsum("jp,pq,jq->j", comp, qbar, comp - v_i)
    term_i = 0.5 * (hat_i * float(v_i @ M @ v_i) + float(a.weights[sel] @ pair_i))
    mem = E[~sel]  # e_j for subsets j not containing i
    pair_mi = np.einsum("jp,pq,jq->j", mem, qbar, mem - v_mi)
    term_mi = 0.5 * (hat_mi * float(v_mi @ M @ v_mi) + float(a.weights[~sel] @ pair_mi))
    return term_i + term_mi


@dataclass(frozen=True)
class RegretSolverConfig:
    """Budget for the supremum over (direction, mixed action)."""

    multistarts: int = 16
    max_iters: int = 150
    seed: int = 0
    step0: float = 0.25
    refine: bool = True  # run projected-gradient ascent after probing
    grid_step: float | None = None  # include a dense simplex grid in the probes


def _simplex_grid(dim: int, step: float) -> np.ndarray:
    """All points of the simplex lattice with the given resolution."""
    levels = int(round(1.0 / step))

    def rec(prefix, remaining, slots):
        if slots == 1:
            yield prefix + [remaining]
            return
        for k in range(remaining + 1):
            yield from rec(prefix + [k], remaining - k, slots - 1)

    pts = np.array(list(rec([], levels, dim)), dtype=float) / levels
    return pts


def G_regret(
    mu: SignedAtomicMeasure,
    q,
    M: np.ndarray,
    cfg: RegretSolverConfig = RegretSolverConfig(),
) -> float:
    """Supremum of K_regret over directions and the mixed-action simplex.

    Vertex actions are always probed; interior multistart ascent refines when
    enabled; the result dominates every probed point by construction and is
    deterministic given the seed.
    """
    K_n = mu.dim
    n_w = 2**K_n
    best = -math.inf
    rng = np.random.default_rng(cfg.seed)
    grid_pts = _simplex_grid(n_w, cfg.grid_step) if cfg.grid_step else None
    for i in range(1, K_n + 1):

        def objective(w, i=i):
            w = np.maximum(np.asarray(w, dtype=float), 0.0)
            s = float(np.sum(w))
            w = w / s if s > 0 else np.full(n_w, 1.0 / n_w)
            return K_regret(i, SimplexAction(K_n, w), mu, q, M)

        for mask in range(n_w):
            w = np.zeros(n_w)
            w[mask] = 1.0
            best = max(best, objective(w))
        if grid_pts is not None:
            for w in grid_pts:
                best = max(best, objective(w))
        if cfg.refine:
            starts = [np.full(n_w, 1.0 / n_w)]
            starts += [rng.dirichlet(np.ones(n_w)) for _ in range(cfg.multistarts)]
            _, val, _, _ = multistart_ascent(
                objective,
                starts,
                project_simplex,
                max_iters=cfg.max_iters,
                step0=cfg.step0,
            )
            best = max(best, val)
    return best


def check_assumptions_regret(
    samples: list,
    metric_cfgs: dict,
    probe_batch: int = 32,
    probe_seed: int = 1234,
    rtol: float = 1e-9,
    sign_tol: float = 1e-9,
) -> CheckReport:
    """Two-sided verification on sampled problem data.

    Each sample is a dict with keys (K, mu, nu, q1, q2, M1, M2, M, eps, i, a).
    (i) the supremum over a fixed common probe set satisfies the dimension-
    dependent Lipschitz bound 2^{3K-2} (1 + int |x| dmu)(|q1-q2|_l + |M1-M2|);
    (ii) swapping mu for nu in the pairing with the pair's own penalization
    Hessian never increases it beyond ``sign_tol``.  ``metric_cfgs`` maps K to
    the spectral quadrature used for the kernels.
    """
    failures = []
    max_lip_ratio = 0.0
    max_sign_gap = -math.inf
    rng_master = np.random.default_rng(probe_seed)
    probe_cache: dict = {}
    for idx, s in enumerate(samples):
        K_n = s["K"]
        mu, nu = s["mu"], s["nu"]
        if K_n not in probe_cache:
            n_w = 2**K_n
            probes = [vertex_action(K_n, m) for m in range(n_w)]
            probes += [
                SimplexAction(K_n, rng_master.dirichlet(np.ones(n_w)))
                for _ in range(probe_batch)
            ]
            probe_cache[K_n] = probes
        probes = probe_cache[K_n]

        def sup_over_probes(q, M):
            return max(
                K_regret(i, a, mu, q, M) for i in range(1, K_n + 1) for a in probes
            )

        g1 = sup_over_probes(s["q1"], s["M1"])
        g2 = sup_over_probes(s["q2"], s["M2"])
        q1, q2 = s["q1"], s["q2"]
        dq = linear_growth_norm(
            lambda X: np.asarray(q1(X)) - np.asarray(q2(X)), K_n, mu.locations
        )
        dM = float(np.linalg.norm(s["M1"] - s["M2"]))
        bound = 2.0 ** (3 * K_n - 2) * (1.0 + mu.abs_moment()) * (dq + dM)
        lhs = abs(g1 - g2)
        if bound > 0:
            max_lip_ratio = max(max_lip_ratio, lhs / bound)
        if lhs > bound * (1.0 + rtol) + 1e-15:
            failures.append({"sample": idx, "check": "lipschitz", "lhs": lhs, "bound": bound})

        kernel = fm.make_kappa(mu, nu, s["eps"], metric_cfgs[K_n])
        hess = fm.kappa_hessian_field(kernel)
        gap = K_regret(s["i"], s["a"], mu, hess, s["M"]) - K_regret(
            s["i"], s["a"], nu, hess, s["M"]
        )
        max_sign_gap = max(max_sign_gap, gap)
        if gap > sign_tol:
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
        return lambda X: np.sin(np.atleast_2d(X) @ c)[:, None, None] * B

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
        X = np.atleast_2d(X)
        return np.full((X.shape[0], 1), float(a))

    def sig(X, a):
        X = np.atleast_2d(X)
        return np.full((X.shape[0], 1, 1), sigma)

    def sig_t(a):
        return np.array([[sigma_tilde]])

    def r(X, a):
        X = np.atleast_2d(X)
        return np.full(X.shape[0], control_weight * float(a) ** 2)

    if saturate_terminal is None:

        def l(X):
            X = np.atleast_2d(X)
            return np.sum(X * X, axis=1)

    else:

        def l(X):
            X = np.atleast_2d(X)
            return np.minimum(np.sum(X * X, axis=1), saturate_terminal)

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
        X = np.atleast_2d(X)
        return float(a) * (0.5 + 0.5 / (1.0 + X * X)) + 0.4 * np.sin(X)

    def sig(X, a):
        X = np.atleast_2d(X)
        return (1.0 + 0.3 * np.sin(X))[:, :, None]

    def sig_t(a):
        return np.array([[0.5]])

    def r(X, a):
        X = np.atleast_2d(X)
        return 0.3 * np.cos(X[:, 0]) + float(a) ** 2 * (1.0 + 0.2 * np.cos(X[:, 0])) / 1.2

    def l(X):
        X = np.atleast_2d(X)
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
    "lq1d-saturated": lambda **kw: make_lq_coeffs(saturate_terminal=100.0, **kw),
    "filter1d": make_bounded_filter_coeffs,
}
