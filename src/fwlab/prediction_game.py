"""Discrete K-action prediction game under partial monitoring.

Per round the forecaster mixes over actions, the adversary mixes over winning
subsets; the forecaster observes the adversary's mixture and a signed success
signal, never the realized subset.  Shipped: the exact step dynamics on a gap
vector, Monte Carlo regret of a forecaster against a fixed mixed subset action,
exact small-instance values by backward induction over public histories with
stage matrix games, each of at most three rows and solved exactly by vertex
enumeration, on beliefs held as arrays of integer gap offsets from the initial
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


# size limits of exact_value_small: actions, rounds, candidate vertex systems
# per stage game and over all stage games; the digits belief masses are
# rounded to in the memo keys; and the elements of one batched array
_MAX_ACTIONS = 3
_MAX_HORIZON = 6
_MAX_VERTEX_SYSTEMS = 100_000
_MAX_STAGE_SYSTEMS = 450_000
_BELIEF_ROUND = 12
_BATCH = 1 << 16
# a solved vertex counts as a mixture when no weight is below -_MIX_TOL
_MIX_TOL = 1e-9
# below this largest entry, 2^-970, the solves and the products b M of a stage
# game leave the normal range and lose bits, so the game is scaled up first
_TINY_GAME = np.finfo(float).tiny / np.finfo(float).eps


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


def _chunks(sizes: np.ndarray, limit: int):
    """Consecutive index ranges [lo, hi) of ``sizes`` whose sums stay within
    ``limit``, one item at least per range."""
    ends = np.cumsum(sizes)
    lo = 0
    while lo < len(sizes):
        hi = max(int(np.searchsorted(ends, ends[lo] - sizes[lo] + limit, side="right")), lo + 1)
        yield lo, hi
        lo = hi


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
    exactly by ``_stage_values`` without a linear program.  A belief is a
    sorted array of codes of integer offsets o in [-T, T]^K of the gap vector
    from m0's atom, so every gap g0 + o is exact, and the matching positive
    masses.  A signal is observed only when its side of the subsets (those
    with i in J on success, the rest on failure) holds positive weight, and
    that weight is its probability.  Beliefs are expanded level by level,
    histories in lexicographic order; the children of a whole level come from
    one ``np.unique`` over the parents' codes plus the shifts of a signal
    table built once, and beliefs of one level with equal codes and masses
    equal to 12 decimals share one stage game, labelled by their first
    history.  The stage games of a level are then solved in one batch, deepest
    level first.  With one round left the stage matrix is one broadcast over
    the belief, M[i, a] = sum_g p_g sum_J w_aJ max_k(g_k + E_Jk - E_Ji).  The
    grid restricts the adversary, so the result lower-bounds the unrestricted
    value.  Point-mass initial probability laws only, K <= 3, T <= 6, at most
    100 000 candidate vertices per stage game (grids of up to 82 actions at
    K = 3, 445 at K = 2) and 450 000 over all stage games, counted as the
    levels are expanded, before any stage game is solved (T = 6 on the vertex
    grids from zero gaps: 146 stage games at K = 2 and 1 156 at K = 3).  A
    ``table`` dict passed in is filled with one entry per solved stage game,
    keyed by its public history of (grid index, signal) pairs:
    {"value": v, "matrix": rows}.  Raises FloatingPointError if a stage
    value is not finite.
    """
    if m0.n_atoms != 1 or not m0.probability:
        raise ValueError("exact values need a point-mass initial probability distribution")
    K = m0.dim
    if not 0 <= T <= _MAX_HORIZON or K > _MAX_ACTIONS:
        raise ValueError(f"need 0 <= T <= {_MAX_HORIZON} and K <= {_MAX_ACTIONS}, got T={T}, K={K}")
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
    # per signal whose side of the subsets holds positive weight, in
    # stage-matrix order: its history step (grid index, signal), its
    # stage-matrix cell (i - 1, grid index), its probability (that weight),
    # the code shifts E_J - 1_{i in J} of the 2^(K-1) subsets J on its side
    # and their conditional weights; the last round needs none
    steps, cells, probs, shifts, cond = [], [], [], [], []
    for ai, a in enumerate(adversary_grid if T > 1 else []):
        for i in range(1, K + 1):
            member = E[:, i - 1].astype(bool)
            for y, sel in ((i, member), (-i, ~member)):
                w = a.weights[sel]
                if (total := w.sum()) > 0:
                    steps.append((ai, y))
                    cells.append((i - 1, ai))
                    probs.append(total)
                    shifts.append(subset_codes[sel] - (y > 0) * powers.sum())
                    cond.append(w / total)
    S, shifts, cond, probs = len(steps), np.array(shifts), np.array(cond), np.array(probs)
    cells = tuple(np.array(cells, dtype=np.int64).reshape(S, 2).T)
    stride = base**K  # every code lies in [0, stride)
    most_games = _MAX_STAGE_SYSTEMS // n_systems

    # the distinct beliefs of the deepest level expanded so far, as their
    # codes and masses laid end to end and the number of codes of each; per
    # level, the first history of each belief and, but for the deepest, the
    # index in the next level of each (belief, signal) pair's child
    codes, mass, lengths = np.array([T * powers.sum()]), np.ones(1), np.ones(1, dtype=np.int64)
    labels, children = [[()]], []
    n_games = 1
    for _ in range(T - 1):
        first, seen, parts, new_labels = np.cumsum(lengths) - lengths, {}, [], []
        child = np.empty((len(lengths), S), dtype=np.int64)
        for lo, hi in _chunks(lengths * shifts.size, _BATCH):
            # pair lo * S + j is parent lo + j // S under signal j % S; the keys
            # sort by pair, then by child code
            pair = np.repeat(np.arange(lo * S, hi * S).reshape(hi - lo, S), lengths[lo:hi], axis=0)
            at = slice(first[lo], first[hi - 1] + lengths[hi - 1])
            key, where = np.unique(
                ((pair * stride + codes[at, None])[..., None] + shifts).ravel(), return_inverse=True
            )
            child_mass = np.bincount(where, (mass[at, None, None] * cond).ravel())
            # a child keeps only the offsets of positive mass
            key, child_mass = key[child_mass > 0], child_mass[child_mass > 0]
            child_codes = key % stride
            bounds = np.searchsorted(key // stride, np.arange(lo * S, hi * S + 1))
            code_bytes = child_codes.tobytes()
            mass_bytes = np.round(child_mass, _BELIEF_ROUND).tobytes()
            offsets, fresh, index_of = (8 * bounds).tolist(), [], []
            for j, (start, end) in enumerate(zip(offsets, offsets[1:])):
                index = seen.setdefault((code_bytes[start:end], mass_bytes[start:end]), len(seen))
                if index == len(new_labels):
                    new_labels.append(labels[-1][lo + j // S] + (steps[j % S],))
                    fresh.append(j)
                index_of.append(index)
            if n_games + len(seen) > most_games:
                raise ValueError(f"exact value needs over {_MAX_STAGE_SYSTEMS} candidate vertex "
                                 f"systems in its stage games ({n_systems} per game)")
            child[lo:hi] = np.reshape(index_of, (hi - lo, S))
            sizes = np.diff(bounds)
            new = np.zeros((hi - lo) * S, dtype=bool)
            new[fresh] = True
            elements = np.repeat(new, sizes)
            parts.append((child_codes[elements], child_mass[elements], sizes[new]))
        n_games += len(seen)
        codes, mass, lengths = (np.concatenate(part) for part in zip(*parts))
        labels.append(new_labels)
        children.append(child)

    weights = np.array([a.weights for a in adversary_grid])
    incs = E[:, None, :] - E[:, :, None]  # [J, i, k] = E_Jk - E_Ji, the last round's gap moves

    def last_round() -> np.ndarray:
        """Stage matrices (P, K, n) of the deepest level's beliefs, which have
        one round left, taken over the beliefs with equally many codes at once."""
        first, out = np.cumsum(lengths) - lengths, np.empty((len(lengths), K, n))
        for length in np.flatnonzero(np.bincount(lengths)):
            group = np.flatnonzero(lengths == length)
            step = max(_BATCH // (length * incs.size), 1)
            for beliefs in (group[lo : lo + step] for lo in range(0, len(group), step)):
                at = first[beliefs, None] + np.arange(length)
                gaps = g0 + (codes[at][..., None] // powers % base - T)
                moved = gaps[..., None, None, :] + incs
                # [p, g, J, i]: the max over k one k at a time, as a reduce over
                # an axis of length K is slow
                final = moved[..., 0]
                for k in range(1, K):
                    final = np.maximum(final, moved[..., k])
                final = final.reshape(len(beliefs), length, -1)
                per_subset = np.matmul(mass[at][:, None, :], final).reshape(len(beliefs), -1, K)
                out[beliefs] = np.swapaxes(weights @ per_subset, 1, 2)
        return out

    def solve(M: np.ndarray, labels: list) -> np.ndarray:
        step = max(_BATCH // (n_systems * (K + 1) ** 2), 1)
        values = np.concatenate([_stage_values(M[lo : lo + step]) for lo in range(0, len(M), step)])
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            raise FloatingPointError(
                f"stage game after history {labels[bad[0]]} has value {values[bad[0]]}"
            )
        if table is not None:
            for label, value, rows in zip(labels, values.tolist(), M.tolist()):
                table[label] = {"value": value, "matrix": rows}
        return values

    values = solve(last_round(), labels[-1])
    for level, child in zip(labels[-2::-1], children[::-1]):
        M = np.zeros((len(level), K, n))
        # each entry sums the two signals of one action and grid index, so
        # its value does not depend on the order they are added in
        np.add.at(M, (slice(None), *cells), probs * values[child])
        values = solve(M, level)
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
