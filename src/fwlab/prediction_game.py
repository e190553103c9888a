"""Discrete K-action prediction game under partial monitoring.

Per round the forecaster mixes over actions, the adversary mixes over winning
subsets; the forecaster observes the adversary's mixture and a signed success
signal, never the realized subset.  Shipped: the exact step dynamics on a gap
vector, Monte Carlo regret of a forecaster against a fixed mixed subset action,
exact small-instance values by backward induction over public histories with
stage matrix games, each of at most three rows and solved exactly by vertex
enumeration, on beliefs held as arrays of integer gap offsets from the initial
point mass, and the arithmetic rescaling to the long-horizon normalization.
Forecasters read a running score vector, never the game history, so a run of
T rounds costs O(T), and all Monte Carlo runs advance together as (runs, K)
arrays, each run on uniforms from its own substream.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from ._rng import mean_stderr, substream
from .hamiltonians import SimplexAction, hat_weights, subset_vectors, uniform_action, vertex_action
from .measures import SignedAtomicMeasure

__all__ = [
    "ForecasterStrategy",
    "step",
    "monte_carlo_regret",
    "exact_value_small",
    "rescaled_value",
    "uniform_forecaster",
    "follow_the_leader_forecaster",
    "exp_weights_forecaster",
    "FORECASTER_REGISTRY",
    "ADVERSARY_REGISTRY",
]


def __getattr__(name: str):
    # ``linprog`` is no longer used here; bench/tracing.py still wraps it as
    # the ``prediction_game.lp`` span, so it resolves on that lookup alone.  It
    # goes with the next benchmark change (ROADMAP items 10-11).
    if name == "linprog":
        from scipy.optimize import linprog

        return linprog
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class ForecasterStrategy:
    """A forecaster driven by a running score vector, one row per run.

    ``rule(scores)`` maps the (R, K) scores to (R, K) probability vectors
    over the K actions; after each round ``gain(a, y)`` (the adversary's
    mixture and the (R,) signals) is added to the scores, which start at
    zero.
    """

    rule: Callable
    gain: Callable


def _sample(weights: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Index drawn by each uniform in u from the matching row of weights, as
    ``Generator.choice(k, p=p)`` draws with its next uniform from
    p = weights / weights.sum(): the number of entries of
    cumsum(p) / cumsum(p)[-1] at or below u (searchsorted, side="right")."""
    cdf = np.cumsum(weights / weights.sum(axis=-1, keepdims=True), axis=-1)
    cdf = cdf / cdf[..., -1:]
    return (cdf <= u[..., None]).sum(axis=-1)


def step(gaps: np.ndarray, b: np.ndarray, a: SimplexAction, u: np.ndarray) -> tuple:
    """One round of R runs: sample the actions and the subsets, update gaps, emit the signals.

    ``gaps`` is the (R, K) array of per-action total gain minus the
    forecaster's total gain, ``b`` the (R, K) forecaster mixtures and ``u``
    the (R, 2) uniforms that draw each run's action and subset.  Gap
    coordinate i moves by 1_{i in J} - 1_{I in J}; the signal is +I on
    success and -I on failure, so the realized action index is always
    recoverable from its magnitude.  Returns (new gaps, (R,) signals).
    """
    gaps = np.asarray(gaps, dtype=float)
    b = np.asarray(b, dtype=float)
    if gaps.ndim != 2:
        raise ValueError("gaps must be an (R, K) array")
    R, K = gaps.shape
    if b.shape != gaps.shape or np.any(b < -1e-12) or np.any(np.abs(b.sum(axis=1) - 1.0) > 1e-9):
        raise ValueError("forecaster mixtures must be probability vectors over [K]")
    if a.n_actions != K:
        raise ValueError("adversary action has wrong number of base actions")
    u = np.asarray(u, dtype=float)
    if u.shape != (R, 2):
        raise ValueError("need two uniforms per run")
    i_real = _sample(b, u[:, 0]) + 1
    in_j = subset_vectors(K)[_sample(a.weights, u[:, 1])]
    success = in_j[np.arange(R), i_real - 1]
    y = np.where(success > 0, i_real, -i_real)
    return gaps + in_j - success[:, None], y


def monte_carlo_regret(
    T: int,
    m0: SignedAtomicMeasure,
    forecaster: ForecasterStrategy,
    adversary: SimplexAction,
    runs: int,
    seed: int,
) -> tuple:
    """Average of max_i gaps_i at the horizon over independent runs.

    The adversary plays the same mixed subset action every round.  Run r
    draws its 1 + 2T uniforms (initial gaps, then action and subset per
    round) from the substream (seed, r), so the estimate is reproducible and
    invariant to run ordering; all runs advance together.
    """
    if T < 0 or runs < 1:
        raise ValueError("need T >= 0 and runs >= 1")
    K = m0.dim
    if adversary.n_actions != K:
        raise ValueError("adversary action has wrong number of base actions")
    u = np.stack([substream(seed, run).random(1 + 2 * T) for run in range(runs)])
    gaps = m0.locations[_sample(m0.weights, u[:, 0])]
    scores = np.zeros((runs, K))
    for t in range(T):
        gaps, y = step(gaps, forecaster.rule(scores), adversary, u[:, 1 + 2 * t : 3 + 2 * t])
        scores = scores + forecaster.gain(adversary, y)
    return mean_stderr(gaps.max(axis=1).tolist())


# ---------------------------------------------------------------------------
# exact small instances
# ---------------------------------------------------------------------------


# size limits of exact_value_small: actions, rounds, candidate vertex systems
# per stage game and over all stage games; and the digits belief masses are
# rounded to in the memo keys
_MAX_ACTIONS = 3
_MAX_HORIZON = 6
_MAX_VERTEX_SYSTEMS = 100_000
_MAX_STAGE_SYSTEMS = 450_000
_BELIEF_ROUND = 12
# a solved vertex counts as a mixture when no weight is below -_MIX_TOL
_MIX_TOL = 1e-9


def _n_vertex_systems(K: int, n: int) -> int:
    """Candidate vertices of a K x n stage game: s >= 1 of the n columns
    tight and K - s of the K rows zero."""
    return sum(math.comb(n, s) * math.comb(K, s) for s in range(1, K + 1))


@lru_cache(maxsize=16)
def _vertex_rows(K: int, n: int) -> np.ndarray:
    """Rows of the constraint bank [M^T, -1; I_K, 0] tight at each candidate
    vertex of {(b, v) : v >= M^T b, b >= 0, sum b = 1}: s >= 1 columns with
    (M^T b)_j = v and K - s rows with b_i = 0, one read-only (K,) index row
    per choice."""
    rows = np.array(
        [
            cols + tuple(n + i for i in zeros)
            for s in range(1, K + 1)
            for cols in itertools.combinations(range(n), s)
            for zeros in itertools.combinations(range(K), K - s)
        ]
    )
    rows.setflags(write=False)
    return rows


def _stage_value(M: np.ndarray) -> float:
    """Exact value min over b in the simplex of max_j (M^T b)_j of a K x n game.

    The minimum sits at a vertex of the pointed polyhedron {(b, v) : v >=
    M^T b, b >= 0, sum b = 1}, where sum b = 1 and K more tight constraints,
    at least one a column, form a nonsingular (K+1) x (K+1) system.  All the
    candidate systems are solved in one batch, singular ones skipped, and
    the value is the least max_j (M^T b)_j over the solutions b that are
    mixtures, each clipped onto the simplex so that no term undercuts the
    value.  Returns inf or nan if M is not finite.
    """
    K, n = M.shape
    rows = _vertex_rows(K, n)
    bank = np.vstack([np.hstack([M.T, -np.ones((n, 1))]), np.eye(K, K + 1)])
    A = np.empty((len(rows), K + 1, K + 1))
    A[:, 0, :K], A[:, 0, K] = 1.0, 0.0
    A[:, 1:] = bank[rows]
    with np.errstate(divide="ignore"):  # det takes the log of a subnormal pivot product
        A = A[np.linalg.det(A) != 0.0]
    b = np.linalg.solve(A, np.eye(K + 1, 1))[:, :K, 0]
    b = np.maximum(b[np.all(b >= -_MIX_TOL, axis=1)], 0.0)
    b /= b.sum(axis=1, keepdims=True)
    return float(np.min((b @ M).max(axis=1), initial=math.inf))


def exact_value_small(
    T: int,
    m0: SignedAtomicMeasure,
    adversary_grid: list,
    table: dict | None = None,
) -> float:
    """Exact inf-sup regret value against a finite adversary grid.

    Backward induction over public belief states: each stage is a finite
    zero-sum matrix game between the K pure forecaster actions and the grid
    actions, with chance resolving the signal, and its value is found
    exactly by ``_stage_value`` without a linear program.  A belief is a
    sorted array of codes of integer offsets o in [-T, T]^K of the gap vector
    from m0's atom, so every gap g0 + o is exact, and the matching masses; a
    child belief is one ``np.unique`` over the codes plus the shifts of a
    signal table built once.  Beliefs with equal codes and masses equal to 12
    decimals share one stage game.  With one round left the stage matrix is
    one broadcast over the belief, M[i, a] = sum_g p_g sum_J w_aJ
    max_k(g_k + E_Jk - E_Ji).  The grid restricts the adversary, so the
    result lower-bounds the unrestricted value.  Point-mass initial
    distributions only, K <= 3, T <= 6, at most 100 000 candidate vertices
    per stage game (grids of up to 82 actions at K = 3, 445 at K = 2) and
    450 000 over all stage games, checked before each new one (T = 6 at K = 2
    and T = 4 at K = 3 on the vertex grids).  A ``table`` dict passed in is
    filled with one entry per solved stage game, keyed by its public history
    of (grid index, signal) pairs: {"value": v, "matrix": rows}.  Raises
    FloatingPointError if a stage value is not finite.
    """
    if m0.n_atoms != 1:
        raise ValueError("exact values need a point-mass initial distribution")
    K = m0.dim
    if K > _MAX_ACTIONS or T > _MAX_HORIZON:
        raise ValueError(f"instance exceeds size limits K<={_MAX_ACTIONS}, T<={_MAX_HORIZON}")
    if not adversary_grid or any(a.n_actions != K for a in adversary_grid):
        raise ValueError(f"adversary grid must be a nonempty list of {K}-action mixtures")
    n = len(adversary_grid)
    n_systems = _n_vertex_systems(K, n)
    if n_systems > _MAX_VERTEX_SYSTEMS:
        raise ValueError(f"adversary grid too large ({n} actions) for exact stage games")
    if T == 0:
        return float(max(m0.locations[0]))
    g0, base = m0.locations[0], 2 * T + 1
    powers = base ** np.arange(K, dtype=np.int64)  # offset o has code sum_k (o_k + T) base^k
    E = subset_vectors(K)
    subset_codes = E.astype(np.int64) @ powers
    # per signal of positive probability, in stage-matrix order: grid index,
    # i - 1, signal, probability, the code shifts E_J - 1_{i in J} of the
    # subsets J it allows and their conditional weights; the last round needs none
    signals = []
    for ai, a in enumerate(adversary_grid if T > 1 else []):
        for i in range(1, K + 1):
            member = E[:, i - 1].astype(bool)
            for y, prob, sel in zip((i, -i), hat_weights(a, i), (member, ~member)):
                w = a.weights[sel]
                if prob > 0:
                    if w.sum() <= 0:
                        raise ValueError("observed signal has zero probability under the mixture")
                    shift = subset_codes[sel] - (y > 0) * powers.sum()
                    signals.append((ai, i - 1, y, prob, shift, w / w.sum()))
    weights = np.array([a.weights for a in adversary_grid])
    incs = E[:, None, :] - E[:, :, None]  # [J, i, k] = E_Jk - E_Ji, the last round's gap moves
    memo: dict = {}
    n_games = 0

    def last_round(codes: np.ndarray, mass: np.ndarray) -> np.ndarray:
        gaps = g0 + (codes[:, None] // powers % base - T)
        final = (gaps[:, None, None, :] + incs).max(axis=3)  # [g, J, i]
        return (weights @ np.tensordot(mass, final, axes=1)).T

    def value(codes: np.ndarray, mass: np.ndarray, rounds_left: int, label: tuple) -> float:
        nonlocal n_games
        key = (rounds_left, codes.tobytes(), np.round(mass, _BELIEF_ROUND).tobytes())
        if key in memo:
            return memo[key]
        n_games += 1
        if n_games * n_systems > _MAX_STAGE_SYSTEMS:
            raise ValueError(f"exact value needs over {_MAX_STAGE_SYSTEMS} candidate vertex "
                             f"systems in its stage games ({n_systems} per game)")
        if rounds_left == 1:
            M = last_round(codes, mass)
        else:
            M = np.zeros((K, n))
            for ai, row, y, prob, shifts, cond in signals:
                child, where = np.unique((codes[:, None] + shifts).ravel(), return_inverse=True)
                child_mass = np.bincount(where, (mass[:, None] * cond).ravel())
                M[row, ai] += prob * value(child, child_mass, rounds_left - 1, label + ((ai, y),))
        val = _stage_value(M)
        if not math.isfinite(val):
            raise FloatingPointError(f"stage game after history {label} has value {val}")
        memo[key] = val
        if table is not None:
            table[label] = {"value": val, "matrix": M.tolist()}
        return val

    return value(np.array([T * powers.sum()]), np.ones(1), T, ())


# ---------------------------------------------------------------------------
# rescaling
# ---------------------------------------------------------------------------


def rescaled_value(values: dict) -> dict:
    """Divide horizon-indexed values by sqrt(T): {T: {s: v}} -> {s: {T: v/sqrt(T)}}.

    Pure arithmetic; the inputs must already be evaluated at round ceil(s T)
    from the sqrt(T)-scaled initial measure.
    """
    out: dict = {}
    for T, by_s in values.items():
        for s, v in by_s.items():
            out.setdefault(s, {})[T] = v / math.sqrt(T)
    return out


# ---------------------------------------------------------------------------
# baseline strategies (not optimality claims)
# ---------------------------------------------------------------------------


def _expected_gains(a: SimplexAction, y: np.ndarray) -> np.ndarray:
    """The exactly known expected per-action gains hat a(i) of the mixture."""
    return a.weights @ subset_vectors(a.n_actions)


def _observed_gains(a: SimplexAction, y: np.ndarray) -> np.ndarray:
    """Expected gains with each run's played entry replaced by its outcome."""
    est = np.repeat(_expected_gains(a, y)[None], y.size, axis=0)
    est[np.arange(y.size), np.abs(y) - 1] = y > 0
    return est


def uniform_forecaster(K: int) -> ForecasterStrategy:
    return ForecasterStrategy(lambda scores: np.full(scores.shape, 1.0 / K), lambda a, y: 0.0)


def follow_the_leader_forecaster(K: int) -> ForecasterStrategy:
    """Greedy on the exactly-known expected per-action gains sum_s hat a_s(i)."""

    def rule(scores):
        return np.eye(K)[np.argmax(scores, axis=1)]

    return ForecasterStrategy(rule, _expected_gains)


def exp_weights_forecaster(K: int, eta: float = 0.5) -> ForecasterStrategy:
    """Exponential weights on the observed-mixture gain estimates."""

    def rule(scores):
        w = np.exp(eta * (scores - scores.max(axis=1, keepdims=True)))
        return w / w.sum(axis=1, keepdims=True)

    return ForecasterStrategy(rule, _observed_gains)


FORECASTER_REGISTRY = {
    "uniform": uniform_forecaster,
    "follow-the-leader": follow_the_leader_forecaster,
    "exp-weights": exp_weights_forecaster,
}

# fixed mixed subset actions, played every round
ADVERSARY_REGISTRY = {
    "full-set": lambda K: vertex_action(K, 2**K - 1),
    "empty-set": lambda K: vertex_action(K, 0),
    "first-action": lambda K: vertex_action(K, 1),
    "uniform": uniform_action,
}
