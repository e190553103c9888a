"""Discrete K-action prediction game under partial monitoring.

Per round the forecaster mixes over actions, the adversary mixes over winning
subsets; the forecaster observes the adversary's mixture and a signed success
signal, never the realized subset.  Shipped: the exact step dynamics on a gap
vector, Monte Carlo regret of a forecaster against a fixed mixed subset action,
exact small-instance values on pure subset actions by backward induction over
public histories with stage matrix games of K rows, each solved exactly by
vertex enumeration, on states held as integer gap offsets from the initial
point mass.  Forecasters read a running score vector, never the game
history, so a run of T rounds costs O(T), and all Monte Carlo runs advance
together as (runs, K) arrays, each run on uniforms from its own substream.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from ._optim import simplex_points
from ._rng import mean_stderr, substream
from .hamiltonians import SimplexAction, subset_vectors, uniform_action, vertex_action
from .measures import SignedAtomicMeasure

__all__ = [
    "ForecasterStrategy",
    "step",
    "monte_carlo_regret",
    "exact_value_small",
    "vertex_grid",
    "uniform_forecaster",
    "follow_the_leader_forecaster",
    "exp_weights_forecaster",
    "FORECASTER_REGISTRY",
    "ADVERSARY_REGISTRY",
]


# nothing calls it: bench/tracing.py wraps it, until ROADMAP item 1's benchmark change
linprog = None


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
    if not m0.probability:
        raise ValueError("initial condition must be a probability measure")
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


# size limits of exact_value_small: candidate vertex systems per stage game and
# over all levels; and the elements of one batched array
_MAX_VERTEX_SYSTEMS = 100_000
_MAX_STAGE_SYSTEMS = 450_000
_BATCH = 1 << 16
# a solved vertex counts as a mixture when no weight is below -_MIX_TOL
_MIX_TOL = 1e-9
# below this largest entry, 2^-970, the solves and the products b M of a stage
# game leave the normal range and lose bits, so the game is scaled up first
_TINY_GAME = np.finfo(float).tiny / np.finfo(float).eps


def _n_vertex_systems(K: int, n: int) -> int:
    """Candidate vertices of a K x n stage game, s >= 1 of the n columns tight
    and K - s of the K rows zero; a ValueError over ``_MAX_VERTEX_SYSTEMS``,
    checked on n first, since each column is tight in at least one."""
    count = sum(math.comb(n, s) * math.comb(K, s) for s in range(1, K + 1)) if n <= _MAX_VERTEX_SYSTEMS else n
    if count > _MAX_VERTEX_SYSTEMS:
        raise ValueError(f"adversary grid too large: {n} actions make over {_MAX_VERTEX_SYSTEMS} "
                         "candidate vertex systems per stage game")
    return count


def vertex_grid(K: int) -> list:
    """The 2^K pure subset actions, refused before any is built when their stage game is too large."""
    _n_vertex_systems(K, 2**K)
    return [vertex_action(K, mask) for mask in range(2**K)]


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


def _stage_values(M: np.ndarray) -> np.ndarray:
    """Exact values min over b in the simplex of max_j (M^T b)_j of G stacked K x n games.

    Each minimum sits at a vertex of the pointed polyhedron {(b, v) : v >=
    M^T b, b >= 0, sum b = 1}, where sum b = 1 and K more tight constraints,
    at least one a column, form a nonsingular (K+1) x (K+1) system.  The
    candidate systems of all the games go to one ``simplex_points`` call
    (game index // len(rows)), and a game's value is the least max_j (M^T b)_j
    over its mixtures b (within ``_MIX_TOL``, clipped onto the simplex so that
    no term undercuts the value).  The products b M are stacked over the games
    with equally many mixtures, so each game gets the bits it gets alone.
    The value is homogeneous in M, so a game whose largest entry is below
    ``_TINY_GAME`` is solved scaled up by a power of two, exactly, and its
    value scaled back in one rounding.  Returns (G,) values, inf or nan where
    M is not finite.
    """
    G, K, n = M.shape
    peak = np.abs(M).max(axis=(1, 2), initial=0.0)
    shift = np.where((peak > 0.0) & (peak < _TINY_GAME), 1 - np.frexp(peak)[1], 0)
    if shift.any():
        M = np.ldexp(M, shift[:, None, None])
    rows = _vertex_rows(K, n)
    bank = np.zeros((G, n + K, K + 1))
    bank[:, :n, :K], bank[:, :n, K], bank[:, n:, :K] = np.swapaxes(M, 1, 2), -1.0, np.eye(K)
    A = np.empty((G, len(rows), K + 1, K + 1))
    A[..., 0, :K], A[..., 0, K] = 1.0, 0.0
    A[:, :, 1:] = bank[:, rows]
    kept, b = simplex_points(A.reshape(-1, K + 1, K + 1), np.eye(K + 1, 1), K, _MIX_TOL)
    game = kept // len(rows)
    counts = np.bincount(game, minlength=G)
    first = np.cumsum(counts) - counts
    values = np.full(G, math.inf)
    for count in np.flatnonzero(np.bincount(counts)[1:]) + 1:
        games = np.flatnonzero(counts == count)
        stacked = b[first[games, None] + np.arange(count)]
        # a sequential minimum from inf, as over one game alone: without the
        # start value the reduction may pick the other sign of a zero
        values[games] = np.matmul(stacked, M[games]).max(axis=2).min(axis=1, initial=math.inf)
    return np.ldexp(values, -shift) if shift.any() else values


def exact_value_small(
    T: int,
    m0: SignedAtomicMeasure,
    adversary_grid: list,
    table: dict | None = None,
) -> float:
    """Exact inf-sup regret value against a finite grid of pure subset actions.

    Backward induction over public histories: each stage is a finite zero-sum
    matrix game between the K pure forecaster actions and the grid actions,
    and its value is found exactly by ``_stage_values`` without a linear
    program.  Every grid action plays one subset J, so the signal (+i when
    the forecaster's action i is in J, -i otherwise) leaves one child per
    (state, grid action, forecaster action) and every belief is a point mass:
    a state is the integer offset o in [-T, T]^K of the gap vector from m0's
    atom, held as one int64 code, so every gap g0 + o is exact.  A stage
    entry is its child's value; with one round left it is
    M[i, J] = max_k((g0 + o)_k + (E_Jk - E_Ji)).  Levels are expanded with
    histories in lexicographic order, each by one ``np.unique`` over the
    codes of its children; states of one level with equal codes share one
    stage game, labelled by their first history, and the stage games of a
    level are solved in one batch, deepest level first.  The grid restricts
    the adversary, so the result lower-bounds the unrestricted value.  A
    mixed action is refused: its signals leave a belief over offsets, which
    the test oracle ``recursive_exact_value`` solves.  Point-mass initial
    probability laws only, (2T + 1)^K <= 2^63, at most 100 000 candidate
    vertices per stage game (82 grid actions at K = 3) and 450 000 over all
    levels, each charged at least one batch, counted before any stage game
    is solved (from zero gaps the vertex grids reach T = 27, 34, 7 and 2 at
    K = 1, 2, 3 and 4).  A ``table`` dict passed in is filled with one entry
    per solved stage game, keyed by its public history of (grid index,
    signal) pairs: {"value": v, "matrix": rows}.  Raises FloatingPointError
    if a stage value is not finite.
    """
    if m0.n_atoms != 1 or not m0.probability:
        raise ValueError("exact values need a point-mass initial probability distribution")
    K = m0.dim
    if not adversary_grid or any(a.n_actions != K for a in adversary_grid):
        raise ValueError(f"adversary grid must be a nonempty list of {K}-action mixtures")
    weights = np.array([a.weights for a in adversary_grid])
    for ai, w in enumerate(weights):
        # a weight of 1e-13 beside 1.0 is a valid mixture, so the nonzero weights are counted
        if np.count_nonzero(w) != 1 or w.max() != 1.0:
            raise ValueError(f"exact values need pure subset actions; grid action {ai} is a mixture")
    n = len(adversary_grid)
    n_systems = _n_vertex_systems(K, n)
    if T < 0 or (2 * T + 1) ** K > 2**63:  # past this, int64 state codes wrap silently
        raise ValueError(f"need 0 <= T and (2T + 1)^K <= 2^63 for int64 state codes, got T={T}, K={K}")
    if T == 0:
        return float(max(m0.locations[0]))
    g0, base = m0.locations[0], 2 * T + 1
    powers = base ** np.arange(K, dtype=np.int64)  # offset o has code sum_k (o_k + T) base^k
    # [ai, k]: the subset each grid action plays, in integers, so that codes past 2^53 stay exact
    E = subset_vectors(K)[weights.argmax(axis=1)].astype(np.int64)
    # [ai, i]: the code shift E_J - 1_{i in J} of the child and the signal seen
    shifts = (E @ powers)[:, None] - E * powers.sum()
    signals = np.where(E > 0, 1, -1) * np.arange(1, K + 1)

    # the codes of the deepest level expanded so far; per level, the first
    # history of each state and, but for the deepest, the index in the next
    # level of each child, [state, forecaster action, grid action]
    codes, labels, children = np.array([T * powers.sum()]), [[()]], []
    floor = _BATCH // (K + 1) ** 2  # the systems of one batch: each level is charged at least these
    spent = max(n_systems, floor)
    for _ in range(T - 1):
        keys = (codes[:, None, None] + shifts).ravel()
        _, first, where = np.unique(keys, return_index=True, return_inverse=True)
        order = np.argsort(first)  # the distinct children by first history
        spent += max(len(order) * n_systems, floor)
        if spent > _MAX_STAGE_SYSTEMS:
            raise ValueError(f"exact value needs over {_MAX_STAGE_SYSTEMS} candidate vertex systems "
                             f"in its stage games ({n_systems} per game, {floor} per level at least)")
        codes = keys[first[order]]
        parent, ai, i = np.unravel_index(first[order], (len(labels[-1]), n, K))
        labels.append([labels[-1][p] + ((a, int(signals[a, k])),)
                       for p, a, k in zip(parent.tolist(), ai.tolist(), i.tolist())])
        children.append(np.argsort(order)[where].reshape(-1, n, K).swapaxes(1, 2))

    def solve(M: np.ndarray, labels: list) -> np.ndarray:
        step = max(floor // n_systems, 1)
        values = np.concatenate([_stage_values(M[lo : lo + step]) for lo in range(0, len(M), step)])
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            raise FloatingPointError(f"stage game after history {labels[bad[0]]} has value {values[bad[0]]}")
        if table is not None:
            for label, value, rows in zip(labels, values.tolist(), M.tolist()):
                table[label] = {"value": value, "matrix": rows}
        return values

    # [state, i, ai, k]: the gaps after the last round, added in this order
    gaps = g0 + (codes[:, None] // powers % base - T)
    values = solve((gaps[:, None, None, :] + (E - E.T[:, :, None])).max(axis=3), labels[-1])
    for level, child in zip(labels[-2::-1], children[::-1]):
        values = solve(values[child], level)
    return float(values[0])


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
    return ForecasterStrategy(lambda scores: np.eye(K)[np.argmax(scores, axis=1)], _expected_gains)


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
