"""Independent reference computations used only by the test suite.

Everything here deliberately avoids the package's own code paths for the
quantity it checks: the spectral-distance oracles integrate over the full
line with adaptive quadrature, by the trapezoid rule or by a Gauss-Legendre
rule on characteristic functions, the tail radius that truncates those rules
inverts SciPy's incomplete beta function, the kernel oracle takes SciPy's
Bessel function instead of the package's recurrence, and so does the doubling
distance oracle, one pair at a time instead of the harness's Gram form, the
Hessian pairing oracle integrates the spectral side adaptively, the game oracle
solves one sequence-form linear program over the whole tree instead of
stagewise matrix games, the belief-state DP oracle recurses depth first and
solves one stage game per call instead of a whole level of them in a stack,
the mean-problem oracle is a dense backward dynamic
program, the forecaster oracles rescan the game history instead of keeping
running scores, and the particle-filter oracle steps one run at a time, the
coefficient-check oracle evaluates one control at a time, the filtering gap
oracle shifts the measures and composes the kernel's jet closures with the
shift instead of reading one jet pass at the atoms, the signed-difference
oracle merges atoms with ``np.unique`` instead of a sorted merge, the
two-pass record oracle runs each side of a filtering gap through its own
control-grid pass, the two-transform dissipation oracle brings the gradient
and the Hessian back by separate inverse transforms, the ascent
oracle runs one start at a time on scalar points, the SLSQP oracle calls
``scipy.optimize.minimize`` once per start, the regret supremum oracles
maximize quadratics on segments and on triangles of side marginals instead
of enumerating faces, and the Monte Carlo regret oracle and the two
closed-form values the exact game value is held to (Cover's value and the
singleton adversary's regret) sum binomial and multinomial terms in exact
rationals.  The measure and kernel summaries at the end are
quantities only tests check against, so they live here and not in the
package.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
from scipy import integrate, interpolate, optimize, special

from fwlab import fourier_metric as fm
from fwlab import hamiltonians as ham
from fwlab import sobolev as sb
from fwlab.measures import SignedAtomicMeasure


# ---------------------------------------------------------------------------
# full-line spectral distance between two point masses (d = 1)
# ---------------------------------------------------------------------------


def rho_f_point_masses_1d(separation: float, lam: int) -> float:
    """sqrt((2 pi)^-1 Int_R 2 (1 - cos(k s)) / (1 + k^2)^lam dk), adaptively."""
    s = abs(separation)
    base = 2.0 * integrate.quad(lambda k: (1 + k * k) ** (-lam), 0, np.inf, epsabs=1e-15)[0]
    if s == 0:
        return 0.0
    # oscillatory part on a finite window; the truncated tail is below 1e-13
    cut = 60.0
    osc = 2.0 * integrate.quad(
        lambda k: (1 + k * k) ** (-lam),
        0,
        cut,
        weight="cos",
        wvar=s,
        epsabs=1e-15,
        limit=400,
    )[0]
    return math.sqrt(2.0 * (base - osc) / (2.0 * math.pi))


def rho_f_trapezoid_1d(mu, nu, lam: int, radius: float, n_nodes: int) -> float:
    """The spectral distance in d = 1 by the trapezoid rule on [-radius, radius]."""
    k = np.linspace(-radius, radius, n_nodes)
    w = np.full(n_nodes, k[1] - k[0])
    w[[0, -1]] *= 0.5
    diff = np.exp(1j * np.outer(k, mu.locations[:, 0])) @ mu.weights
    diff -= np.exp(1j * np.outer(k, nu.locations[:, 0])) @ nu.weights
    return math.sqrt(float(w @ (np.abs(diff) ** 2 / (1.0 + k * k) ** lam)) / (2.0 * math.pi))


def tail_radius_betaincinv(d: int, lam: int) -> float:
    """R with 4 (2 pi)^-d * integral over |k|>R of (1+|k|^2)^-lam equal to 1e-10.

    With t = 1 / (1 + s^2), integral_R^inf s^(d-1) (1+s^2)^-lam ds is
    B(lam - d/2, d/2) / 2 times the regularized incomplete beta function
    I_{1/(1+R^2)}(lam - d/2, d/2), which ``scipy.special.betaincinv`` inverts.
    """
    a, b = lam - d / 2.0, d / 2.0
    sphere_area = 2.0 * math.pi ** (d / 2.0) / special.gamma(d / 2.0)
    scale = 4.0 * (2.0 * math.pi) ** (-d) * sphere_area * 0.5 * special.beta(a, b)
    y = special.betaincinv(a, b, 1e-10 / scale)
    return math.sqrt(1.0 / y - 1.0)


def char_fn_batch(measure: SignedAtomicMeasure, nodes: np.ndarray) -> np.ndarray:
    """Spectral coefficients (2*pi)^{-d/2} sum_i w_i exp(i k.x_i), one per row k
    of the (M, d) wave vectors ``nodes``.

    Each modulus is bounded by (2*pi)^{-d/2} times the total variation.
    """
    nodes = np.asarray(nodes, dtype=float)
    if nodes.ndim != 2 or nodes.shape[1] != measure.dim:
        raise ValueError("nodes must have shape (M, d)")
    phases = np.exp(1j * (nodes @ measure.locations.T))
    return (2.0 * np.pi) ** (-measure.dim / 2.0) * (phases @ measure.weights)


def spectral_quadrature_1d(lam: int, n_nodes: int = 384) -> tuple:
    """Gauss-Legendre nodes (M, 1) and weights w / (1 + k^2)^lam on [-R, R], with
    R the whole number just above ``tail_radius_betaincinv(1, lam)``, so the
    weight's mass beyond R is below 1e-10 (22 at lam = 4)."""
    radius = math.ceil(tail_radius_betaincinv(1, lam))
    k, w = (v * radius for v in np.polynomial.legendre.leggauss(n_nodes))
    return k[:, None], w / (1.0 + k * k) ** lam


def rho_F_norm(eta: SignedAtomicMeasure, cfg, n_nodes: int = 384) -> float:
    """Spectral seminorm sqrt(int |F_k(eta)|^2 weight dk) of a signed measure in
    d = 1, from its characteristic function on ``spectral_quadrature_1d``."""
    assert cfg.dim == 1
    nodes, weights = spectral_quadrature_1d(cfg.lam, n_nodes)
    fhat = char_fn_batch(eta, nodes)
    return math.sqrt(max(float(weights @ (fhat.real**2 + fhat.imag**2)), 0.0))


def matern_kv(r, d: int, lam: int) -> np.ndarray:
    """(2 pi)^-d int (1+|k|^2)^-lam e^(ik.x) dk at |x| = r from SciPy's kv:
    (2 pi)^(-d/2) 2^(1-lam) / Gamma(lam) r^nu K_nu(r), nu = lam - d/2, and
    its limit 2^(nu-1) Gamma(nu) in place of r^nu K_nu(r) at r = 0."""
    r = np.asarray(r, dtype=float)
    nu = lam - d / 2.0
    c = (2.0 * math.pi) ** (-d / 2.0) * 2.0 ** (1 - lam) / special.gamma(lam)
    with np.errstate(invalid="ignore"):
        f = np.where(r > 0, r**nu * special.kv(nu, r), 2.0 ** (nu - 1) * special.gamma(nu))
    return c * f


def fixed_support_d_F_sq(t1, w1, m1, t2, w2, m2, support, cfg) -> float:
    """d_F^2 between two points (t, weights, shift) of the doubling harness's
    fixed-support domain, one pair at a time: |t1 - t2|^2 + |m1 - m2|^2 plus
    the double sum of dw_i dw_j C(|x_i - x_j|) over the support atoms, with C
    from ``matern_kv`` instead of the harness's Gram form."""
    support = np.atleast_2d(np.asarray(support, dtype=float))
    dm = np.asarray(m1, dtype=float) - np.asarray(m2, dtype=float)
    dw = np.asarray(w1, dtype=float) - np.asarray(w2, dtype=float)
    r = np.linalg.norm(support[:, None, :] - support[None, :, :], axis=-1)
    return (t1 - t2) ** 2 + float(np.sum(dm * dm)) + float(dw @ matern_kv(r, cfg.dim, cfg.lam) @ dw)


# ---------------------------------------------------------------------------
# sequence-form LP value of the prediction game against a finite grid
# ---------------------------------------------------------------------------


def _sides(action_weights: np.ndarray, K: int, i: int) -> tuple:
    """The weights held by the subsets containing i and by the rest: the
    probabilities of signals i and -i."""
    member = (np.arange(2**K) >> (i - 1) & 1).astype(bool)
    return float(np.sum(action_weights[member])), float(np.sum(action_weights[~member]))


def _subset_vec(K: int, mask: int) -> np.ndarray:
    return np.array([(mask >> (j - 1)) & 1 for j in range(1, K + 1)], dtype=float)


def _push_belief(belief: dict, weights: np.ndarray, K: int, y: int) -> dict:
    """Posterior of a belief over integer gap offsets after signal y."""
    i, success = abs(y), y > 0
    masks = np.arange(2**K)
    member = (masks >> (i - 1) & 1).astype(bool)
    sel = member if success else ~member
    wsel = weights[sel]
    total = wsel.sum()
    out: dict = {}
    for offsets, p in belief.items():
        for mask, w in zip(masks[sel], wsel):
            o = tuple(ov + ((int(mask) >> k) & 1) - success for k, ov in enumerate(offsets))
            out[o] = out.get(o, 0.0) + p * (w / total)
    return out


def sequence_form_value(T: int, g0, grid_weights: list) -> float:
    """Exact game value by one linear program over realization plans.

    ``grid_weights`` is a list of weight vectors over subsets (the adversary's
    pure choices).  Both players' information sets are the public histories;
    the forecaster's mixing is the realization plan, chance resolves the
    signal.  Minimizer: forecaster.  Beliefs are held over integer offsets of
    the gap vector from g0, so no gap is rounded before the leaf payoffs.
    """
    K = len(g0)
    g0 = [float(x) for x in g0]
    grid = [np.asarray(w, dtype=float) for w in grid_weights]
    histories = {(): {"belief": {(0,) * K: 1.0}, "chance": 1.0}}
    levels = [[()]]
    for depth in range(T):
        nxt = []
        for h in levels[-1]:
            info = histories[h]
            for ai, w in enumerate(grid):
                for i in range(1, K + 1):
                    hat_i, hat_mi = _sides(w, K, i)
                    for y, pr in ((i, hat_i), (-i, hat_mi)):
                        if pr <= 0.0:
                            continue
                        child = h + ((ai, y),)
                        if child not in histories:
                            histories[child] = {
                                "belief": _push_belief(info["belief"], w, K, y),
                                "chance": info["chance"] * pr,
                            }
                            nxt.append(child)
        levels.append(nxt)

    interior = [h for lvl in levels[:-1] for h in lvl]
    leaves = levels[-1]

    # HiGHS drops constraint entries below 1e-9 in magnitude, which a leaf
    # whose largest gap is a tiny start offset would make; every payoff is
    # therefore raised by one half, which raises the value by one half, since
    # the leaves' chances sum to one under any pair of plans
    shift = 0.5

    def payoff(h) -> float:
        b = histories[h]["belief"]
        gains = (p * max(g + o for g, o in zip(g0, offsets)) for offsets, p in b.items())
        return shift + math.fsum(gains)

    # forecaster sequences: root () plus (h, i) for interior h
    f_seqs = [()] + [(h, i) for h in interior for i in range(1, K + 1)]
    f_index = {s: k for k, s in enumerate(f_seqs)}
    # adversary sequences: root () plus (h, ai)
    a_seqs = [()] + [(h, ai) for h in interior for ai in range(len(grid))]
    a_index = {s: k for k, s in enumerate(a_seqs)}
    # adversary infoset rows: one synthetic root row plus one per interior history
    a_rows = [("root",)] + [("h", h) for h in interior]
    row_index = {r: k for k, r in enumerate(a_rows)}

    def f_seq_of(h):
        if not h:
            return ()
        parent = h[:-1]
        return (parent, abs(h[-1][1]))

    def a_seq_of(h):
        if not h:
            return ()
        return (h[:-1], h[-1][0])

    n_x, n_q = len(f_seqs), len(a_rows)
    # A^T x terms: for each adversary sequence, the coefficient of each x var
    a_coeff = [dict() for _ in a_seqs]
    for leaf in leaves:
        h_parent = leaf[:-1]
        ai, y = leaf[-1]
        fs = f_index[(h_parent, abs(y))]
        asq = a_index[(h_parent, ai)]
        a_coeff[asq][fs] = a_coeff[asq].get(fs, 0.0) + histories[leaf]["chance"] * payoff(leaf)

    # children infoset map: rows whose adversary parent sequence is sigma_a;
    # the root history's parent sequence is the adversary root sequence ()
    children: dict = {k: [] for k in range(len(a_seqs))}
    for h in interior:
        children[a_index[a_seq_of(h)]].append(row_index[("h", h)])

    def row_of_seq(k):
        if a_seqs[k] == ():
            return row_index[("root",)]
        h, ai = a_seqs[k]
        return row_index[("h", h)]

    # objective: minimize q at the synthetic root row
    n_vars = n_x + n_q
    c = np.zeros(n_vars)
    c[n_x + row_index[("root",)]] = 1.0

    A_ub, b_ub = [], []
    for k in range(len(a_seqs)):
        row = np.zeros(n_vars)
        for fs, coef in a_coeff[k].items():
            row[fs] = coef
        row[n_x + row_of_seq(k)] -= 1.0
        for child_row in children[k]:
            row[n_x + child_row] += 1.0
        A_ub.append(row)
        b_ub.append(0.0)

    A_eq, b_eq = [], []
    root_flow = np.zeros(n_vars)
    root_flow[f_index[()]] = 1.0
    A_eq.append(root_flow)
    b_eq.append(1.0)
    for h in interior:
        row = np.zeros(n_vars)
        for i in range(1, K + 1):
            row[f_index[(h, i)]] = 1.0
        row[f_index[f_seq_of(h)]] -= 1.0
        A_eq.append(row)
        b_eq.append(0.0)

    bounds = [(0, None)] * n_x + [(None, None)] * n_q
    res = optimize.linprog(
        c,
        A_ub=np.array(A_ub),
        b_ub=np.array(b_ub),
        A_eq=np.array(A_eq),
        b_eq=np.array(b_eq),
        bounds=bounds,
        method="highs",
    )
    if not res.success:
        raise RuntimeError(f"sequence-form LP failed: {res.message}")
    return float(res.fun) - shift


# ---------------------------------------------------------------------------
# the belief-state DP one stage game per call, by recursion
# ---------------------------------------------------------------------------


def single_stage_value(M: np.ndarray) -> float:
    """min over b in the simplex of max_j (M^T b)_j of one K x n game, by the
    vertex enumeration that ``prediction_game`` batches over games: every
    candidate system of s >= 1 tight columns and K - s zero rows that is
    nonsingular is solved, and the mixtures are kept and clipped."""
    K, n = M.shape
    rows = np.array(
        [
            cols + tuple(n + i for i in zeros)
            for s in range(1, K + 1)
            for cols in itertools.combinations(range(n), s)
            for zeros in itertools.combinations(range(K), K - s)
        ]
    )
    bank = np.vstack([np.hstack([M.T, -np.ones((n, 1))]), np.eye(K, K + 1)])
    A = np.empty((len(rows), K + 1, K + 1))
    A[:, 0, :K], A[:, 0, K] = 1.0, 0.0
    A[:, 1:] = bank[rows]
    with np.errstate(divide="ignore"):  # det takes the log of a subnormal pivot product
        A = A[np.linalg.det(A) != 0.0]
    b = np.linalg.solve(A, np.eye(K + 1, 1))[:, :K, 0]
    b = np.maximum(b[np.all(b >= -1e-9, axis=1)], 0.0)
    b /= b.sum(axis=1, keepdims=True)
    return float(np.min((b @ M).max(axis=1), initial=math.inf))


def recursive_exact_value(T: int, m0: SignedAtomicMeasure, grid: list, table=None) -> float:
    """The exact game value against any grid, mixed actions included, by
    depth-first recursion with a memo: the reference for
    ``prediction_game.exact_value_small``, which plays pure actions only.

    The initial gap is drawn from the probability law m0 and known to
    neither player.  No signal depends on it, so a belief is m0 times a
    belief over integer offsets o of the gap vector, and a terminal offset
    pays sum_x m0(x) max_k (x + o)_k, the atoms averaged right after the max
    (one atom keeps the point-mass bits).  Each distinct stage game is solved
    alone by ``single_stage_value`` once its children are; a belief's
    children are built one (signal) at a time before the memo lookup.
    Beliefs are integer-offset code arrays of positive masses, keyed by their
    codes and their masses rounded to 12 decimals, and a signal's
    probability is the weight on its side of the subsets.  On pure actions
    from a point mass the memo keys, the ``table`` labels (each belief's
    first history in depth-first order) and the values are the package's.
    No size limit is checked.
    """
    K, atoms, law = m0.dim, m0.locations, m0.weights / m0.weights.sum()
    if T == 0:
        return float(law @ atoms.max(axis=1))
    n = len(grid)
    base = 2 * T + 1
    powers = base ** np.arange(K, dtype=np.int64)
    E = ham.subset_vectors(K)
    subset_codes = E.astype(np.int64) @ powers
    signals = []
    for ai, a in enumerate(grid if T > 1 else []):
        for i in range(1, K + 1):
            member = E[:, i - 1].astype(bool)
            for y, sel in ((i, member), (-i, ~member)):
                w = a.weights[sel]
                if w.sum() > 0:
                    shift = subset_codes[sel] - (y > 0) * powers.sum()
                    signals.append((ai, i - 1, y, w.sum(), shift, w / w.sum()))
    weights = np.array([a.weights for a in grid])
    incs = E[:, None, :] - E[:, :, None]
    memo: dict = {}

    def last_round(codes: np.ndarray, mass: np.ndarray) -> np.ndarray:
        gaps = atoms[:, None, :] + (codes[:, None] // powers % base - T)
        final = np.tensordot(law, (gaps[..., None, None, :] + incs).max(axis=-1), axes=1)
        return (weights @ np.tensordot(mass, final, axes=1)).T

    def value(codes: np.ndarray, mass: np.ndarray, rounds_left: int, label: tuple) -> float:
        key = (rounds_left, codes.tobytes(), np.round(mass, 12).tobytes())
        if key in memo:
            return memo[key]
        if rounds_left == 1:
            M = last_round(codes, mass)
        else:
            M = np.zeros((K, n))
            for ai, row, y, prob, shifts, cond in signals:
                child, where = np.unique((codes[:, None] + shifts).ravel(), return_inverse=True)
                child_mass = np.bincount(where, (mass[:, None] * cond).ravel())
                child, child_mass = child[child_mass > 0], child_mass[child_mass > 0]
                M[row, ai] += prob * value(child, child_mass, rounds_left - 1, label + ((ai, y),))
        val = single_stage_value(M)
        memo[key] = val
        if table is not None:
            table[label] = {"value": val, "matrix": M.tolist()}
        return val

    return value(np.array([T * powers.sum()]), np.ones(1), T, ())


# ---------------------------------------------------------------------------
# forecasters that rescan the whole game history every round
# ---------------------------------------------------------------------------


def history_forecaster(name: str, K: int, eta: float = 0.5):
    """The shipped forecasters as rules on the history of (weights, signal) pairs.

    Each call rebuilds its scores from the whole history: follow-the-leader
    sums the mixtures' expected per-action gains, exp-weights the same gains
    with the played action's entry replaced by its realized outcome.
    """
    E = np.array([_subset_vec(K, mask) for mask in range(2**K)])

    def uniform(history):
        return np.full(K, 1.0 / K)

    def follow_the_leader(history):
        scores = np.zeros(K)
        for w, _y in history:
            scores += w @ E
        out = np.zeros(K)
        out[int(np.argmax(scores))] = 1.0
        return out

    def exp_weights(history):
        scores = np.zeros(K)
        for w, y in history:
            est = w @ E
            est[abs(y) - 1] = 1.0 if y > 0 else 0.0
            scores += est
        p = np.exp(eta * (scores - scores.max()))
        return p / p.sum()

    rules = {"uniform": uniform, "follow-the-leader": follow_the_leader, "exp-weights": exp_weights}
    return rules[name]


# ---------------------------------------------------------------------------
# the particle filter one run at a time
# ---------------------------------------------------------------------------


def _run_stream(seed: int, run: int, source: int) -> np.random.Generator:
    seq = np.random.SeedSequence(seed, spawn_key=(run, source))
    return np.random.Generator(np.random.PCG64(seq))


def scalar_run_costs(t, mu, policy, coeffs, cfg, law_summary) -> tuple:
    """Per-run costs and run 0's (time, mean, variance, cost_to_date) rows,
    stepping each run's (N, d) particles on its own.

    ``law_summary(mean)`` builds what the policy sees from a run's (d,)
    particle mean; the policy answers for a batch of one, and that one
    control is passed to every particle of the run.
    """
    costs, rows = [], []
    for run in range(cfg.runs):
        n_steps = max(int(round((cfg.horizon - t) / cfg.dt)), 0)
        rng_w, rng_init, rng_b = (_run_stream(cfg.seed, run, source) for source in range(3))
        p0 = mu.weights / mu.weights.sum()
        X = mu.locations[rng_init.choice(mu.n_atoms, size=cfg.n_particles, p=p0)]
        sqdt = math.sqrt(cfg.dt)
        dW = rng_w.standard_normal((n_steps, coeffs.d2)) * sqdt
        running = np.zeros(cfg.n_particles)
        path = [(t, X, running)]
        for step in range(n_steps):
            a = policy(t + step * cfg.dt, law_summary(X.mean(axis=0)[None]))
            per_point = np.full(cfg.n_particles, a[0])
            dB = rng_b.standard_normal((cfg.n_particles, coeffs.d1)) * sqdt
            drift = np.asarray(coeffs.b(X, per_point), dtype=float)
            diff = np.asarray(coeffs.sigma(X, per_point), dtype=float)
            common = np.asarray(coeffs.sigma_tilde(a), dtype=float)[0]
            running = running + np.asarray(coeffs.r(X, per_point), dtype=float) * cfg.dt
            X = X + drift * cfg.dt + np.einsum("nij,nj->ni", diff, dB) + common @ dW[step]
            path.append((t + (step + 1) * cfg.dt, X, running))
        if run == 0:
            for clock, Xs, run_cost in path:
                mean = Xs.mean(axis=0)
                var = float(np.mean((Xs - mean) ** 2))
                rows.append((clock, float(mean[0]), var, float(run_cost.mean())))
        costs.append(float((running + np.asarray(coeffs.l(X), dtype=float)).mean()))
    return costs, rows


# ---------------------------------------------------------------------------
# the coefficient constants, one control at a time
# ---------------------------------------------------------------------------


def per_control_coefficient_stats(coeffs, control_grid, rng) -> dict:
    """Sampled sup bounds, Lipschitz constants and ellipticity of a coefficient set.

    Draws 64 state pairs on [-3, 3]^d and keeps running maxima per
    coefficient (and the running least eigenvalue of sigma sigma^T) over the
    controls, one control at a time.  Sizes are Euclidean norms of b,
    Frobenius norms of sigma and sigma_tilde and absolute values of r and l.
    """
    X, Y = rng.uniform(-3.0, 3.0, (2, 64, coeffs.d))
    worst = {"b": 0.0, "sigma": 0.0, "r": 0.0, "sigma_tilde": 0.0}
    lip = {"b": 0.0, "sigma": 0.0, "r": 0.0}
    min_ell = math.inf
    dist = np.linalg.norm(X - Y, axis=1)
    dist = np.where(dist < 1e-12, np.inf, dist)
    for a in np.atleast_1d(control_grid):
        per_point = np.full(len(X), a)
        bx, by = coeffs.b(X, per_point), coeffs.b(Y, per_point)
        sx, sy = coeffs.sigma(X, per_point), coeffs.sigma(Y, per_point)
        rx, ry = coeffs.r(X, per_point), coeffs.r(Y, per_point)
        worst["b"] = max(worst["b"], float(np.max(np.linalg.norm(bx, axis=1))))
        worst["sigma"] = max(worst["sigma"], float(np.max(np.linalg.norm(sx, axis=(1, 2)))))
        worst["r"] = max(worst["r"], float(np.max(np.abs(rx))))
        st = coeffs.sigma_tilde(np.array([a]))
        worst["sigma_tilde"] = max(worst["sigma_tilde"], float(np.linalg.norm(st[0])))
        lip["b"] = max(lip["b"], float(np.max(np.linalg.norm(bx - by, axis=1) / dist)))
        lip["sigma"] = max(lip["sigma"], float(np.max(np.linalg.norm(sx - sy, axis=(1, 2)) / dist)))
        lip["r"] = max(lip["r"], float(np.max(np.abs(rx - ry) / dist)))
        ssT = np.einsum("nij,nkj->nik", sx, sx)
        min_ell = min(min_ell, float(np.min(np.linalg.eigvalsh(ssT))))
    lx, ly = coeffs.l(X), coeffs.l(Y)
    worst["l"] = float(np.max(np.abs(lx)))
    lip["l"] = float(np.max(np.abs(lx - ly) / dist))
    return {**worst, "lip": lip, "ellipticity_min": min_ell}


# ---------------------------------------------------------------------------
# dense control-grid dynamic program for the scalar mean problem
# ---------------------------------------------------------------------------


def dp_mean_value(
    t0: float,
    mean0: float,
    horizon: float,
    sigma_tilde: float,
    control_weight: float = 1.0,
    control_bound: float = 4.0,
    n_steps: int = 200,
    n_mean: int = 251,
    mean_span: float = 5.0,
    n_controls: int = 161,
    n_gh: int = 5,
) -> float:
    """Backward induction for min E[int rho a^2 ds + m_T^2], dm = a ds + st dW.

    Cubic interpolation in the state (exact for the quadratic value), Gauss-
    Hermite in the noise (exact for polynomials), dense control grid.
    """
    dt = (horizon - t0) / n_steps
    means = np.linspace(-mean_span, mean_span, n_mean)
    controls = np.linspace(-control_bound, control_bound, n_controls)
    gh_x, gh_w = np.polynomial.hermite.hermgauss(n_gh)
    gh_w = gh_w / math.sqrt(math.pi)
    noise = math.sqrt(2.0) * sigma_tilde * math.sqrt(dt) * gh_x

    V = means**2
    for _ in range(n_steps):
        spline = interpolate.CubicSpline(means, V, bc_type="not-a-knot")
        drift = means[:, None] + controls[None, :] * dt
        cont = np.zeros((n_mean, n_controls))
        for z, w in zip(noise, gh_w):
            cont += w * spline(drift + z)
        total = control_weight * controls[None, :] ** 2 * dt + cont
        V = total.min(axis=1)
    spline = interpolate.CubicSpline(means, V, bc_type="not-a-knot")
    return float(spline(mean0))


def lq_total_value_dp(t0, mu_mean, mu_var, lq, **kw) -> float:
    """Mean-problem DP plus the closed conditional-variance contribution."""
    w = dp_mean_value(
        t0,
        mu_mean,
        lq.horizon,
        lq.sigma_tilde,
        lq.control_weight,
        **kw,
    )
    return w + mu_var + lq.sigma**2 * (lq.horizon - t0)


# ---------------------------------------------------------------------------
# misc small oracles
# ---------------------------------------------------------------------------


def simplex_lattice(dim: int, levels: int) -> np.ndarray:
    """All compositions of ``levels`` into ``dim`` parts, normalized.

    Stars and bars: each choice of dim - 1 bar positions among levels + dim - 1
    slots is one composition, the part sizes being the gaps between bars.
    """
    combos = list(itertools.combinations(range(levels + dim - 1), dim - 1))
    bars = np.array(combos, dtype=int).reshape(len(combos), dim - 1)
    edges = np.hstack(
        [np.full((len(bars), 1), -1), bars, np.full((len(bars), 1), levels + dim - 1)]
    )
    return (np.diff(edges, axis=1) - 1).astype(float) / levels


# ---------------------------------------------------------------------------
# the prediction pairing in its conditional-mean form
# ---------------------------------------------------------------------------


def V_vectors(a, i: int) -> tuple:
    """Conditional mean complement/member indicator vectors (V_i, V_{-i}).

    ``a`` carries ``n_actions`` and the 2^K subset weights ``weights``.  V_i
    averages e_{complement of j} over subsets j containing i with weights
    a(j)/hat(i); the zero vector stands where the conditioning weight
    vanishes.
    """
    K = a.n_actions
    E = np.array([_subset_vec(K, mask) for mask in range(2**K)])
    sel = E[:, i - 1].astype(bool)
    hat_i, hat_mi = _sides(a.weights, K, i)
    u_i = a.weights[sel] @ (1.0 - E[sel])  # sum a(j) e_{j^C} over j containing i
    u_mi = a.weights[~sel] @ E[~sel]  # sum a(j) e_j over j not containing i
    v_i = u_i / hat_i if hat_i > 0 else np.zeros(K)
    v_mi = u_mi / hat_mi if hat_mi > 0 else np.zeros(K)
    return v_i, v_mi


def K_regret_conditional(i: int, a, mu, q, M) -> float:
    """(1/2) sum over both sides of hat V^T M V + sum_j a(j) c_j^T qbar (c_j - V).

    c_j is e_{j^C} on the subsets containing i and e_j on the others, and
    qbar integrates the batched field q against mu.
    """
    K = a.n_actions
    E = np.array([_subset_vec(K, mask) for mask in range(2**K)])
    sel = E[:, i - 1].astype(bool)
    qbar = np.einsum("n,nij->ij", mu.weights, np.asarray(q(mu.locations), dtype=float))
    M = np.asarray(M, dtype=float)
    hat_i, hat_mi = _sides(a.weights, K, i)
    v_i, v_mi = V_vectors(a, i)
    comp = 1.0 - E[sel]
    pair_i = np.einsum("jp,pq,jq->j", comp, qbar, comp - v_i)
    term_i = 0.5 * (hat_i * float(v_i @ M @ v_i) + float(a.weights[sel] @ pair_i))
    mem = E[~sel]
    pair_mi = np.einsum("jp,pq,jq->j", mem, qbar, mem - v_mi)
    term_mi = 0.5 * (hat_mi * float(v_mi @ M @ v_mi) + float(a.weights[~sel] @ pair_mi))
    return term_i + term_mi


def G_regret_segments(mu, q, M) -> float:
    """Supremum of the regret pairing for K <= 2 by one-variable calculus.

    With direction i and one side of subsets fixed, the side's weights p
    live on a segment (K = 2: two subsets) or a point (K = 1), and the
    pairing is at most half of phi(p) = sum_j p_j c_j^T qbar c_j
    + v^T (M - qbar) v, v = sum_j p_j c_j, attained with all weight on that
    side.  On the segment p = (1 - t, t), phi is the quadratic
    phi(0) + b t + c t^2, whose maximum on [0, 1] is at an endpoint or at
    the stationary point -b / (2c) when c < 0.
    """
    K = mu.dim
    if K > 2:
        raise ValueError("the segment oracle covers K <= 2")
    qbar = np.einsum("n,nij->ij", mu.weights, np.asarray(q(mu.locations), dtype=float))
    S = np.asarray(M, dtype=float) - qbar
    best = -math.inf
    for i in range(1, K + 1):
        masks = range(2**K)
        member = [m for m in masks if (m >> (i - 1)) & 1]
        other = [m for m in masks if not (m >> (i - 1)) & 1]
        for side in ([1.0 - _subset_vec(K, m) for m in member], [_subset_vec(K, m) for m in other]):

            def phi(t):
                v = (1.0 - t) * side[0] + t * side[-1]
                ell = (1.0 - t) * (side[0] @ qbar @ side[0]) + t * (side[-1] @ qbar @ side[-1])
                return float(ell + v @ S @ v)

            candidates = [0.0, 1.0]
            d = side[-1] - side[0]
            c = float(d @ S @ d)
            if c < 0:
                b = phi(1.0) - phi(0.0) - c
                candidates.append(min(max(-b / (2.0 * c), 0.0), 1.0))
            best = max(best, max(0.5 * phi(t) for t in candidates))
    return best


def G_regret_three_actions(mu, q, M) -> float:
    """Supremum of the regret pairing for K = 3 through side marginals.

    Fix direction i and let a < b be the other two actions.  Both sides of i
    carry the vectors of the subsets of {a, b} (the member side as
    complements), so the supremum is half the maximum of phi over weights p
    on those four subsets.  phi depends on p only through x = p_a + p_ab,
    y = p_b + p_ab and t = p_ab:

        phi = x l_a + y l_b + kappa t + w^T S w,  w = x e_a + y e_b,

    with kappa = qbar_ab + qbar_ba and t free in [max(0, x + y - 1),
    min(x, y)].  So t sits at its upper end if kappa > 0 and at its lower end
    otherwise, and phi is a quadratic on each of two triangles of the unit
    square, whose maximum is at a vertex, at an edge's stationary point or
    at the triangle's stationary point.
    """
    if mu.dim != 3:
        raise ValueError("the marginal oracle covers K = 3")
    qbar = np.einsum("n,nij->ij", mu.weights, np.asarray(q(mu.locations), dtype=float))
    S = np.asarray(M, dtype=float) - qbar
    S = 0.5 * (S + S.T)
    best = -math.inf
    for i in range(3):
        a, b = (k for k in range(3) if k != i)
        kappa = qbar[a, b] + qbar[b, a]
        A = S[np.ix_([a, b], [a, b])]
        if kappa > 0:  # t = min(x, y): t = x above the diagonal, y below it
            pieces = [((1, 0), 0, [(0, 0), (0, 1), (1, 1)]), ((0, 1), 0, [(0, 0), (1, 0), (1, 1)])]
        else:  # t = max(0, x + y - 1)
            pieces = [((0, 0), 0, [(0, 0), (1, 0), (0, 1)]), ((1, 1), -1, [(1, 0), (0, 1), (1, 1)])]
        for tau, tau0, corners in pieces:
            lin = np.array([qbar[a, a], qbar[b, b]]) + kappa * np.array(tau, dtype=float)
            V = np.array(corners, dtype=float)
            points = list(V)
            for k, l in ((0, 1), (1, 2), (0, 2)):
                d = V[l] - V[k]
                if d @ A @ d != 0:
                    s = -(lin @ d + 2 * V[k] @ A @ d) / (2 * (d @ A @ d))
                    points.append(V[k] + min(max(s, 0.0), 1.0) * d)
            if np.linalg.det(A) != 0:
                z = np.linalg.solve(2 * A, -lin)
                bary = np.linalg.solve(np.vstack([V.T, np.ones(3)]), np.append(z, 1.0))
                if np.all(bary >= 0):
                    points.append(z)
            best = max(best, max(0.5 * (lin @ z + kappa * tau0 + z @ A @ z) for z in points))
    return float(best)


# ---------------------------------------------------------------------------
# projected-gradient ascent, one start at a time
# ---------------------------------------------------------------------------


def scalar_projected_gradient_ascent(value_and_grad, x0, project, *, max_iters: int) -> tuple:
    """The per-start rule the batched ascent follows, on 1-d points.

    ``value_and_grad(x)`` returns ``(value, gradient)`` for one point.  Step
    0.25, doubled on an accepted trial (Armijo constant 1e-4 along the
    projected arc) and halved on a rejected one, at most 30 backtracks per
    iteration, converged when the unit-step projected gradient mapping is
    below 1e-8.  Returns (x, value, converged).
    """
    x = project(np.asarray(x0, dtype=float))
    fx, grad = value_and_grad(x)
    step = 0.25
    for _ in range(max_iters):
        pg = project(x + grad) - x
        if float(np.linalg.norm(pg)) < 1e-8:
            return x, fx, True
        for _ in range(30):
            cand = project(x + step * grad)
            direction = float(grad @ (cand - x))
            fc, gc = value_and_grad(cand)
            if direction > 0 and fc >= fx + 1e-4 * direction:
                x, fx, grad = cand, fc, gc
                step *= 2.0
                break
            step *= 0.5
        else:
            break
    return x, fx, False


# ---------------------------------------------------------------------------
# SLSQP, one start at a time
# ---------------------------------------------------------------------------


def slsqp_one_start_at_a_time(fun_and_grad, x0, lo, hi, eq_matrix, eq_rhs, *, maxiter, ftol) -> list:
    """SciPy's SLSQP from each row of x0, a local solver apart from the
    doubling polish to check its values against: one
    ``optimize.minimize(method="SLSQP", jac=True)`` per start.

    ``fun_and_grad(X, rows)`` is the polish's batch objective; each call here
    passes one point, the start's own row index, and takes row 0 of the
    result.  Returns one ``OptimizeResult`` per start, each carrying the
    number of objective calls it made as ``calls``.
    """
    results = []
    for r, x in enumerate(np.asarray(x0, dtype=float)):
        calls = 0

        def objective(z):
            nonlocal calls
            calls += 1
            f, g = fun_and_grad(z[None], np.array([r]))
            return f[0], g[0]

        res = optimize.minimize(
            objective,
            x,
            jac=True,
            method="SLSQP",
            bounds=list(zip(lo, hi)),
            constraints={"type": "eq", "fun": lambda z: eq_matrix @ z - eq_rhs, "jac": lambda z: eq_matrix},
            options={"maxiter": maxiter, "ftol": ftol},
        )
        res.calls = calls
        results.append(res)
    return results


# ---------------------------------------------------------------------------
# expected K = 2 regret against the uniform adversary, exactly
# ---------------------------------------------------------------------------


def uniform_adversary_regret(T: int) -> Fraction:
    """E|B - T| / 2 with B ~ Bin(2T, 1/2), as an exact fraction.

    Against the uniform mixture over the four subsets of two actions, each
    action's total gain is Bin(T, 1/2) and independent of the other and of
    the forecaster's draws, so the expected final max gap from zero gaps is
    E max(X1, X2) - T/2 = E|X1 - X2| / 2 with X1 - X2 ~ B - T, whatever the
    forecaster.
    """
    total = sum(math.comb(2 * T, b) * abs(b - T) for b in range(2 * T + 1))
    return Fraction(total, 2 ** (2 * T + 1))


def cover_value(T: int) -> Fraction:
    """E|S_T| / 2 = sum_k C(T, k) |2k - T| / 2^(T+1), S_T a sum of T fair
    signs, as an exact fraction.

    Cover's minimax regret of predicting T binary outcomes against two
    experts that always disagree.  At K = 2 only the singleton subsets move
    the gap difference, by -1 or +1, so this is the value of the game on
    the vertex grid from zero gaps.
    """
    total = sum(math.comb(T, k) * abs(2 * k - T) for k in range(T + 1))
    return Fraction(total, 2 ** (T + 1))


def singleton_adversary_regret(T: int, K: int) -> Fraction:
    """E max_i N_i - T/K with N ~ Multinomial(T, 1/K), as an exact fraction.

    Against the adversary that names one action uniformly at random each
    round, action i's total gain is N_i and the forecaster's expected gain
    is T/K whatever it plays, so this is that adversary's expected final max
    gap from zero gaps: a lower bound on the game's value over any grid
    that holds the K singletons.
    """
    total = 0
    for counts in itertools.product(range(T + 1), repeat=K):
        if sum(counts) == T:
            ways = math.factorial(T) // math.prod(math.factorial(c) for c in counts)
            total += ways * max(counts)
    return Fraction(total, K**T) - Fraction(T, K)


# ---------------------------------------------------------------------------
# the signed difference by np.unique, the filtering gap record by shifted
# measures and composed jet closures and by one pass per side, and the
# dissipation record by two inverse transforms
# ---------------------------------------------------------------------------


def unique_difference(mu, nu) -> tuple:
    """Atoms and signed weights of mu - nu, coincident atoms merged by
    ``np.unique(axis=0, return_inverse=True)``."""
    locations = np.concatenate([mu.locations, nu.locations])
    atoms, index = np.unique(locations, axis=0, return_inverse=True)
    return atoms, np.bincount(index.ravel(), np.concatenate([mu.weights, -nu.weights]), len(atoms))


def pushforward_shift(measure: SignedAtomicMeasure, m) -> SignedAtomicMeasure:
    """Image of the measure under x -> x + m; weights unchanged."""
    m = np.atleast_1d(np.asarray(m, dtype=float))
    if m.size != measure.dim:
        raise ValueError("shift vector dimension mismatch")
    return SignedAtomicMeasure(
        measure.dim, measure.locations + m, measure.weights, measure.probability
    )


def shifted_closure_G(mu, m, p, q, M, coeffs, control_grid) -> float:
    """G^e(mu, m) as plain ``G_filtering`` at the shifted measure, with the
    fields p and q composed with x -> x - m."""
    m = np.atleast_1d(np.asarray(m, dtype=float))
    jet = ham.JetArgs(lambda X: p(X - m), lambda X: q(X - m), M)
    return ham.G_filtering(pushforward_shift(mu, m), jet, coeffs, control_grid)


def filtering_gap_by_closures(coeffs, theta, iota, eps, cfg, control_grid) -> tuple:
    """G^e(theta) - G^e(iota) at the pair's kernel jets with M = 0, and the
    larger of the two |G^e|: each side through ``shifted_closure_G``, with the
    gradient and the Hessian of kappa from separate ``kappa_eval`` passes."""
    kernel = fm.make_kappa(theta.measure, iota.measure, eps, cfg)
    p = lambda X: fm.kappa_eval(kernel, X, 1)
    q = lambda X: fm.kappa_eval(kernel, X, 2)
    M = np.zeros((cfg.dim, cfg.dim))
    sides = [
        shifted_closure_G(point.measure, point.m, p, q, M, coeffs, control_grid)
        for point in (theta, iota)
    ]
    return sides[0] - sides[1], max(abs(sides[0]), abs(sides[1]))


def one_side_pairing(grid, X, w, p, q, M, coeffs) -> np.ndarray:
    """The per-control filtering pairing of one measure, atoms X and weights w,
    with the jet values p and q at the atoms: one control-grid pass that
    contracts all of its rows."""
    C, n = grid.size, X.shape[0]
    Xc, ac = np.tile(X, (C, 1)), np.repeat(grid, n)
    pv = np.tile(np.asarray(p, dtype=float), (C, 1))
    qv = np.tile(np.asarray(q, dtype=float), (C, 1, 1))
    sv = np.asarray(coeffs.sigma(Xc, ac), dtype=float)
    drift = np.einsum("ni,ni->n", np.asarray(coeffs.b(Xc, ac), dtype=float), pv)
    diffusion = np.einsum("nik,nki->n", qv, np.einsum("nij,nkj->nik", sv, sv))
    integrand = np.asarray(coeffs.r(Xc, ac), dtype=float) + drift + 0.5 * diffusion
    st = np.asarray(coeffs.sigma_tilde(grid), dtype=float)
    common = np.trace(st @ np.swapaxes(st, 1, 2) @ M, axis1=1, axis2=2)
    return np.vecdot(integrand.reshape(C, n), w) + 0.5 * common


def filtering_record_by_two_passes(coeffs, theta, iota, eps, cfg, control_grid):
    """``check_assumption_ii_filtering``'s record with one ``one_side_pairing``
    pass per side, each at its shifted atoms and its rows of one kernel pass."""
    mu, nu = theta.measure, iota.measure
    kernel = fm.make_kappa(mu, nu, eps, cfg)
    p, q = fm.kappa_jets(kernel, np.concatenate([mu.locations, nu.locations]))
    n, M, grid = mu.n_atoms, np.zeros((mu.dim, mu.dim)), np.atleast_1d(control_grid)
    g_theta, g_iota = (
        float(np.min(one_side_pairing(grid, eta.locations + shift, eta.weights, pj, qj, M, coeffs)))
        for eta, shift, pj, qj in ((mu, theta.m, p[:n], q[:n]), (nu, iota.m, p[n:], q[n:]))
    )
    dist = fm.d_F_from_rho(theta, iota, kernel.rho)
    moment = (
        1.0
        + float(np.linalg.norm(theta.m))
        + float(np.linalg.norm(iota.m))
        + mu.abs_moment()
        + nu.abs_moment()
    )
    return ham.HamiltonianGapRecord(
        difference=g_theta - g_iota,
        d_F=dist,
        z=dist * dist / eps + dist,
        moment_factor=moment,
        epsilon=eps,
    )


def dissipation_by_two_transforms(eta, a, b, lam, delta, eps_moll):
    """``dissipation_check``'s record with the gradient and the Hessian of the
    smoothed spectrum transformed back separately, and each norm squaring the
    spectrum again."""
    box, d = a.box, a.dim
    ell = sb._ellipticity_minimum(a.values)
    if ell < delta - 1e-12:
        raise ValueError(f"matrix field not {delta}-elliptic (min quadratic form {ell})")
    dens = sb.mollify(eta, eps_moll, box)
    dhat = np.fft.fftn(dens.values)
    xi = np.stack(np.broadcast_arrays(*sb._wave_numbers(box)[0]))
    smoothed = sb._weight(box, -float(lam)) * dhat
    grad = np.fft.ifftn(1j * xi * smoothed, axes=tuple(range(1, d + 1))).real
    hess = np.fft.ifftn(-xi[:, None] * xi[None] * smoothed, axes=tuple(range(2, d + 2))).real
    a_term = 0.5 * np.einsum("...ij,ij...->...", a.values, hess)
    b_term = np.einsum("...i,i...->...", b.values, grad)
    lhs = float(np.sum((a_term + b_term) * dens.values) * box.cell_volume())

    def norm_sq(s):
        total = float(np.sum(sb._weight(box, s) * (dhat.real**2 + dhat.imag**2)))
        return total * box.cell_volume() / float(np.prod(box.nodes))

    return sb.DissipationRecord(lhs, norm_sq(1.0 - lam), norm_sq(-float(lam)), ell)


# ---------------------------------------------------------------------------
# summaries of measures and kernels that only the tests read
# ---------------------------------------------------------------------------


def total_mass(mu) -> float:
    return float(np.sum(mu.weights))


def total_variation(mu) -> float:
    return float(np.sum(np.abs(mu.weights)))


def kappa_gradient_sup_bound(kernel) -> float:
    """Uniform bound C * rho_F / eps on |grad kappa| with the |k|^2 moment."""
    return fm.moment_constant(kernel.config, 2) * kernel.rho / kernel.epsilon


def kappa_hessian_sup_bound(kernel) -> float:
    """Uniform bound C * rho_F / eps on the Hessian Frobenius norm."""
    return fm.moment_constant(kernel.config, 4) * kernel.rho / kernel.epsilon


def kappa_hessian_pairing_spectral(kernel) -> np.ndarray:
    """-(1/eps) int |F_k(mu-nu)|^2 k k^T weight dk in d = 1, computed spectrally.

    Equals the integral of the Hessian of kappa against mu - nu; negative
    semidefinite by construction.  |F_k|^2 expands over the kernel's signed
    atoms into cosines of k times their separations, each integrated
    adaptively over the half line.
    """
    assert kernel.config.dim == 1
    lam, x, a = kernel.config.lam, kernel.atoms[:, 0], kernel.weights

    def moment(s):
        # int_0^inf cos(k s) k^2 (1 + k^2)^-lam dk
        integrand = lambda k: k * k * (1.0 + k * k) ** (-lam)
        if s == 0.0:
            return integrate.quad(integrand, 0, np.inf, epsabs=1e-15, epsrel=1e-13)[0]
        return integrate.quad(integrand, 0, np.inf, weight="cos", wvar=s, epsabs=1e-13)[0]

    seps = np.abs(x[:, None] - x[None, :])
    moments = {s: moment(s) for s in np.unique(seps)}
    total = sum(a[i] * a[j] * moments[seps[i, j]] for i in range(x.size) for j in range(x.size))
    return np.array([[-total / (math.pi * kernel.epsilon)]])


# ---------------------------------------------------------------------------
# exact value of a small stage matrix game, in rationals
# ---------------------------------------------------------------------------


def _det(A: list) -> int:
    """Determinant of a small square integer matrix by cofactor expansion."""
    if not A:
        return 1
    minors = ([row[:c] + row[c + 1 :] for row in A[1:]] for c in range(len(A)))
    return sum((-1) ** c * A[0][c] * _det(minor) for c, minor in enumerate(minors))


def rational_stage_value(M) -> Fraction:
    """Exact min over b in the simplex of max_j (M^T b)_j of a K x n game.

    The entries are taken as the exact rationals of their floats, scaled by
    their common power-of-two denominator to integers.  The objective is
    linear on each cell of the arrangement that the hyperplanes (M^T b)_j =
    (M^T b)_l of tied columns cut from the simplex, so its minimum sits at a
    vertex of a cell: a point with sum b = 1 where K - 1 independent
    equations hold, each a facet b_i = 0 or a tie between two columns.  Every
    choice of K - 1 equations is solved by Cramer's rule in integers, and the
    least objective over the nonnegative solutions is the value.
    """
    entries = [[Fraction(x) for x in row] for row in np.asarray(M, dtype=float).tolist()]
    # the denominators are powers of two, so the largest is a multiple of all
    scale = max(x.denominator for row in entries for x in row)
    K, n = len(entries), len(entries[0])
    cols = [[int(entries[i][j] * scale) for i in range(K)] for j in range(n)]
    equations = [[int(i == k) for i in range(K)] for k in range(K)]
    for j, l in itertools.combinations(range(n), 2):
        equations.append([a - b for a, b in zip(cols[j], cols[l])])
    best = None
    for chosen in itertools.combinations(equations, K - 1):
        # with the row sum b = 1 on top, b_c is column c's signed minor of
        # the chosen equations over the determinant, their sum
        cof = [(-1) ** c * _det([e[:c] + e[c + 1 :] for e in chosen]) for c in range(K)]
        det = sum(cof)
        if det < 0:
            cof, det = [-x for x in cof], -det
        if det == 0 or min(cof) < 0:
            continue
        value = Fraction(max(sum(x * y for x, y in zip(cof, col)) for col in cols), det * scale)
        best = value if best is None else min(best, value)
    return best
