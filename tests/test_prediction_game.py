import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import stats
from scipy.optimize import linprog

from _oracles import (
    cover_value,
    history_forecaster,
    rational_stage_value,
    recursive_exact_value,
    sequence_form_value,
    single_stage_value,
    singleton_adversary_regret,
    uniform_adversary_regret,
)
from fwlab import hamiltonians as ham
from fwlab import measures as ms
from fwlab import prediction_game as pg
from fwlab._rng import substream

ZERO2 = ms.dirac(np.zeros(2))


def test_step_full_and_empty_sets_freeze_gaps(rng):
    gaps = np.array([[0.5, -0.5]])
    for mask in (0b11, 0b00):
        a = ham.vertex_action(2, mask)
        nxt, y = pg.step(gaps, np.array([[0.5, 0.5]]), a, rng.random((1, 2)))
        assert np.array_equal(nxt, gaps)
        assert abs(y[0]) in (1, 2)


def test_step_forced_outcome():
    gaps = np.zeros((1, 2))
    u = substream(0, 0).random((1, 2))
    nxt, y = pg.step(gaps, np.array([[0.0, 1.0]]), ham.vertex_action(2, 0b01), u)
    assert np.array_equal(nxt, [[1.0, 0.0]])
    assert y.tolist() == [-2]
    assert np.array_equal(gaps, [[0.0, 0.0]])


def test_step_invariants_random(rng):
    gaps = np.zeros((1, 3))
    for _ in range(200):
        b = rng.dirichlet(np.ones(3))[None]
        a = ham.SimplexAction(3, rng.dirichlet(np.ones(8)))
        nxt, y = pg.step(gaps, b, a, rng.random((1, 2)))
        delta = nxt[0] - gaps[0]
        assert set(np.unique(delta)).issubset({-1.0, 0.0, 1.0})
        i, success = abs(y[0]), y[0] > 0
        # the chosen action's own gap never moves
        assert delta[i - 1] == 0.0
        # success means everyone is debited; failure means nobody is
        assert np.all(delta <= 0.0) if success else np.all(delta >= 0.0)
        gaps = nxt


def test_step_samples_as_generator_choice_does(rng):
    # one row per draw: the action and the subset step draws from a run's two
    # uniforms are the ones Generator.choice draws from the same generator
    for K in (1, 2, 3):
        R = 500
        b = rng.dirichlet(np.ones(K), R)
        a = ham.SimplexAction(K, rng.dirichlet(np.ones(2**K)))
        seeds = rng.integers(2**31, size=R)
        u = np.stack([substream(int(s)).random(2) for s in seeds])
        nxt, y = pg.step(np.zeros((R, K)), b, a, u)
        in_j = nxt + (y > 0)[:, None]
        mask = (in_j.astype(int) << np.arange(K)).sum(axis=1)
        for r, s in enumerate(seeds):
            g = substream(int(s))
            assert abs(y[r]) == g.choice(K, p=b[r] / b[r].sum()) + 1
            assert mask[r] == g.choice(2**K, p=a.weights / a.weights.sum())


def test_step_rejects_mismatched_sizes(rng):
    u = rng.random((1, 2))
    with pytest.raises(ValueError):
        pg.step(np.zeros((1, 2)), np.array([[0.2, 0.3, 0.5]]), ham.vertex_action(2, 1), u)
    with pytest.raises(ValueError):
        pg.step(np.zeros((1, 2)), np.array([[0.5, 0.5]]), ham.vertex_action(3, 1), u)
    with pytest.raises(ValueError):
        pg.step(np.zeros((1, 2)), np.array([[0.5, 0.5]]), ham.vertex_action(2, 1), u[:, :1])
    with pytest.raises(ValueError):
        pg.monte_carlo_regret(
            1, ZERO2, pg.uniform_forecaster(2), pg.ADVERSARY_REGISTRY["full-set"](3), 4, 0
        )


def test_monte_carlo_T0_exact():
    m0 = ms.SignedAtomicMeasure(
        2, [[1.0, 0.0], [0.0, 2.0]], [0.5, 0.5], probability=True
    )
    est, err = pg.monte_carlo_regret(
        0, m0, pg.uniform_forecaster(2), pg.ADVERSARY_REGISTRY["full-set"](2), 500, 7
    )
    assert est == pytest.approx(1.5, abs=3 * err + 0.1)
    point = ms.dirac(np.array([2.0, -1.0]))
    est, err = pg.monte_carlo_regret(
        0, point, pg.uniform_forecaster(2), pg.ADVERSARY_REGISTRY["full-set"](2), 50, 7
    )
    assert est == 2.0 and err == 0.0


def test_monte_carlo_frozen_adversary_any_horizon():
    point = ms.dirac(np.array([0.7, -0.2]))
    for T in (1, 4):
        est, err = pg.monte_carlo_regret(
            T, point, pg.uniform_forecaster(2), pg.ADVERSARY_REGISTRY["full-set"](2), 64, 3
        )
        assert est == 0.7 and err == 0.0


def test_monte_carlo_vs_exhaustive_enumeration():
    # adversary always plays the first action's singleton; unroll the 2^3 paths
    vals = []
    for seq in itertools.product([1, 2], repeat=3):
        g = np.zeros(2)
        for i_real in seq:
            g[0] += 1.0 - (i_real == 1)
            g[1] -= 1.0 * (i_real == 1)
        vals.append(max(g))
    exact = float(np.mean(vals))
    est, err = pg.monte_carlo_regret(
        3,
        ms.dirac(np.zeros(2)),
        pg.uniform_forecaster(2),
        pg.ADVERSARY_REGISTRY["first-action"](2),
        10_000,
        13,
    )
    assert abs(est - exact) <= 3 * err


# |z| bound of the uniform-adversary test: over its 12 cases at each of the
# seeds 1000-1049 (600 cases) the largest |z| was 3.6, and none exceeded 4
UNIFORM_ADVERSARY_Z = 4.5


@pytest.mark.parametrize("name", sorted(pg.FORECASTER_REGISTRY))
def test_monte_carlo_matches_the_exact_uniform_adversary_regret(name):
    forecaster, adversary = pg.FORECASTER_REGISTRY[name](2), pg.ADVERSARY_REGISTRY["uniform"](2)
    for T in (1, 5, 20, 80):
        est, err = pg.monte_carlo_regret(T, ZERO2, forecaster, adversary, 2000, 0)
        assert abs(est - float(uniform_adversary_regret(T))) <= UNIFORM_ADVERSARY_Z * err


def test_uniform_adversary_regret_small_horizons():
    # T = 1: |B - 1| / 2 with B ~ Bin(2, 1/2) is 1/2 w.p. 1/2; T = 2: E|B - 2| = 3/4
    assert uniform_adversary_regret(0) == 0
    assert uniform_adversary_regret(1) == Fraction(1, 4)
    assert uniform_adversary_regret(2) == Fraction(3, 8)


@pytest.mark.parametrize("T", range(1, 7))
def test_exact_value_at_two_actions_is_covers_value(T):
    # 0.5, 0.5, 0.75, 0.75, 0.9375, 0.9375; the DP's rounding was at most 2.2e-16
    value, cover = pg.exact_value_small(T, ZERO2, _vertex_grid(2)), float(cover_value(T))
    assert abs(value - cover) <= 2 * math.ulp(cover)


@pytest.mark.parametrize("T", range(1, 7))
def test_exact_value_at_three_actions_is_at_least_the_singleton_adversary_regret(T):
    # the value against the bound: 0.667/0.667, 0.833/0.667, 1.000/0.889,
    # 1.125/1.037, 1.250/1.111, 1.354/1.235
    value = pg.exact_value_small(T, ms.dirac(np.zeros(3)), _vertex_grid(3))
    bound = float(singleton_adversary_regret(T, 3))
    assert value >= bound - 2 * math.ulp(bound)


def test_cover_and_singleton_values_small_horizons():
    assert cover_value(1) == cover_value(2) == Fraction(1, 2)
    assert cover_value(3) == Fraction(3, 4)
    # T = 1: max N = 1; T = 2: max N is 2 w.p. 1/3 and 1 otherwise
    assert singleton_adversary_regret(1, 3) == Fraction(2, 3)
    assert singleton_adversary_regret(2, 3) == Fraction(4, 3) - Fraction(2, 3)


# the game's one-round second moment: at K = 2, from zero gaps, with
# A = [[1, -1], [-1, 1]] and phi(x) = x^T A x / 2
_SPREAD = np.array([[1.0, -1.0], [-1.0, 1.0]])
_SPLIT = ham.SimplexAction(2, [0.0, 0.5, 0.5, 0.0])


@pytest.mark.parametrize("b", [(0.5, 0.5), (0.2, 0.8), (1.0, 0.0)])
@pytest.mark.parametrize(
    "adversary, moment, moment_at_M0", [(ham.uniform_action(2), 0.25, 0.125), (_SPLIT, 0.5, 0.0)],
    ids=["uniform", "split"],
)
def test_K_regret_is_the_one_round_second_moment(b, adversary, moment, moment_at_M0):
    # E phi(new gaps) over the 200 x 200 midpoint grid of step's two uniforms,
    # which is exact for its finite laws: the forecaster draws with b, the
    # adversary's subset with its weights
    mid = (np.arange(200) + 0.5) / 200
    u = np.stack(np.meshgrid(mid, mid, indexing="ij"), axis=-1).reshape(-1, 2)
    gaps, _ = pg.step(np.zeros((len(u), 2)), np.tile(b, (len(u), 1)), adversary, u)
    assert 0.5 * np.einsum("ri,ij,rj->r", gaps, _SPREAD, gaps).mean() == pytest.approx(moment, abs=1e-15)
    # K_regret with M = qbar = A reads the same moment in either direction
    q = lambda X: np.broadcast_to(_SPREAD, (len(X), 2, 2))
    for i in (1, 2):
        W = adversary.weights[None]
        assert ham.K_regret(i, W, ZERO2, q, _SPREAD)[0] == pytest.approx(moment, abs=1e-15)
        assert ham.K_regret(i, W, ZERO2, q, np.zeros((2, 2)))[0] == pytest.approx(moment_at_M0, abs=1e-15)


def test_monte_carlo_reproducible():
    args = (
        3,
        ms.dirac(np.zeros(2)),
        pg.exp_weights_forecaster(2),
        pg.ADVERSARY_REGISTRY["uniform"](2),
        200,
        42,
    )
    assert pg.monte_carlo_regret(*args) == pg.monte_carlo_regret(*args)


def test_relabeling_equivariance_two_sample():
    # swap action labels in every ingredient; distributions must match
    def collect(g0, mask, b, seed):
        a = ham.vertex_action(2, mask)
        runs = 10_000
        u = np.stack([substream(seed, run).random(6) for run in range(runs)])
        gaps, b = np.tile(g0, (runs, 1)), np.tile(b, (runs, 1))
        for t in range(3):
            gaps, _ = pg.step(gaps, b, a, u[:, 2 * t : 2 * t + 2])
        return gaps.max(axis=1)

    base = collect([0.4, -0.1], 0b01, [0.3, 0.7], 5)
    swapped = collect([-0.1, 0.4], 0b10, [0.7, 0.3], 6)
    assert stats.ks_2samp(base, swapped).pvalue > 0.01


def _rescan_regret(T, m0, rule, a, runs, seed):
    """Monte Carlo regret of a history-rescan rule, one run at a time: the
    initial gaps from ``Generator.choice``, then a batch-of-one ``step`` per
    round on two fresh uniforms of the run's own generator."""
    per_run = []
    for run in range(runs):
        rng = substream(seed, run)
        gaps = m0.locations[[rng.choice(m0.n_atoms, p=m0.weights / m0.weights.sum())]]
        history = ()
        for _ in range(T):
            gaps, y = pg.step(gaps, rule(history)[None], a, rng.random((1, 2)))
            history += ((a.weights, int(y[0])),)
        per_run.append(float(np.max(gaps)))
    est = math.fsum(per_run) / runs
    var = math.fsum((v - est) ** 2 for v in per_run) / (runs - 1)
    return est, math.sqrt(var / runs)


ADVERSARIES = dict(pg.ADVERSARY_REGISTRY, mixed=lambda K: ham.SimplexAction(K, [0.1, 0.4, 0.3, 0.2]))


@pytest.mark.parametrize("adversary", sorted(ADVERSARIES))
@pytest.mark.parametrize("forecaster", sorted(pg.FORECASTER_REGISTRY))
def test_score_engine_matches_history_rescan(forecaster, adversary):
    m0 = ms.SignedAtomicMeasure(2, [[0.0, 0.0], [0.5, -0.25]], [0.4, 0.6], probability=True)
    kwargs = {"eta": 0.7} if forecaster == "exp-weights" else {}
    a = ADVERSARIES[adversary](2)
    rule = history_forecaster(forecaster, 2, **kwargs)
    main = pg.monte_carlo_regret(
        8, m0, pg.FORECASTER_REGISTRY[forecaster](2, **kwargs), a, 40, 11
    )
    assert main == _rescan_regret(8, m0, rule, a, 40, 11)


def test_exact_value_T0_and_frozen_grid():
    point = ms.dirac(np.array([1.2, -0.3]))
    frozen = [ham.vertex_action(2, 0b11)]
    assert pg.exact_value_small(0, point, frozen) == 1.2
    assert pg.exact_value_small(3, point, frozen) == 1.2


def _vertex_grid(K):
    return [ham.vertex_action(K, m) for m in range(2**K)]


def test_exact_value_matches_sequence_form_lp():
    # the mixed action's hat weights (0.6, 0.5) lie strictly inside (0, 1),
    # so the last round weighs both signals of each action
    mix = ham.SimplexAction(2, np.array([0.1, 0.4, 0.3, 0.2]))
    grid2 = [ham.vertex_action(2, 1), ham.vertex_action(2, 2), mix]
    cases = [
        (1, np.zeros(2), _vertex_grid(2)),
        (2, np.zeros(2), _vertex_grid(2)),
        (4, np.array([0.25, -0.5]), _vertex_grid(2)),
        (2, np.array([0.3, -0.2, 0.1]), _vertex_grid(3)),
        (2, np.zeros(2), grid2),
        (3, np.zeros(2), grid2),
    ]
    for T, g0, grid in cases:
        main = pg.exact_value_small(T, ms.dirac(g0), grid)
        oracle = sequence_form_value(T, g0, [g.weights for g in grid])
        assert main == pytest.approx(oracle, abs=5e-9)


@pytest.mark.parametrize("K, T", [(2, 4), (3, 2)])
def test_exact_value_solves_no_linear_program(monkeypatch, K, T):
    calls = []

    def counting_linprog(*args, **kwargs):
        calls.append(args)
        return linprog(*args, **kwargs)

    monkeypatch.setattr(pg, "linprog", counting_linprog)
    pg.exact_value_small(T, ms.dirac(np.full(K, 0.1)), _vertex_grid(K))
    assert calls == []
    # positive control: a call through the module's own name is counted
    pg.linprog([1.0], bounds=[(0.0, 1.0)])
    assert len(calls) == 1


_ENTRIES = st.one_of(
    st.floats(-3.0, 3.0, allow_nan=False),
    # small integers make ties, degenerate vertices and pure saddles common
    st.integers(-2, 2).map(float),
)
# 2 x n and 3 x n stage games
_GAMES = st.tuples(st.integers(2, 3), st.integers(1, 8)).flatmap(
    lambda shape: hnp.arrays(float, shape, elements=_ENTRIES)
)


@settings(max_examples=200, deadline=None)
@given(M=_GAMES)
# two 1e-10 entries: a HiGHS linear program returned -0.0 here against the exact 1e-10
@example(
    M=np.array(
        [
            [-2.0, 2.0, 1e-10, -2.0, 0.0, 2.0, -2.0, -2.0],
            [1.0, -2.0, 1.0, -1.0, 2.0, -1.0, 1.0, 1.0],
            [1.0, -2.0, 1e-10, -1.0, 0.0, -2.0, 1.0, 0.0],
        ]
    )
)
# subnormal entries: the value 2^-1075 lies halfway between two floats, and
# the unscaled solve once returned 1e-320 against the exact 7.5e-321
@example(M=np.array([[5e-324, 0.0], [0.0, 5e-324]]))
@example(M=np.array([[1e-320, 0.0], [0.0, 3e-320]]))
def test_stage_value_is_the_exact_rational_value(M):
    # within 1e-15 of the larger of the value and the largest entry: a value
    # near 0 still carries the rounding of entries of that size; plus half the
    # spacing of subnormals, 2^-1075, the rounding of any float result there
    exact = rational_stage_value(M)
    scale = max(abs(exact), Fraction(float(np.abs(M).max())))
    error = abs(Fraction(pg._stage_values(M[None])[0]) - exact)
    assert error <= Fraction(1e-15) * scale + Fraction(1, 2**1075)


@settings(max_examples=100, deadline=None)
@given(
    games=st.tuples(st.integers(2, 3), st.integers(1, 8), st.integers(1, 6)).flatmap(
        lambda shape: hnp.arrays(float, (shape[2], shape[0], shape[1]), elements=_ENTRIES)
    )
)
def test_stacked_stage_values_match_one_game_at_a_time(games):
    # every game of a stack gets the bits it gets alone
    alone = np.array([single_stage_value(M) for M in games])
    assert pg._stage_values(games).tobytes() == alone.tobytes()


def test_a_zero_stage_value_keeps_the_sign_it_has_alone():
    # the row maxima of this game hold both +0.0 and -0.0 (a product with
    # -DBL_MIN underflows); the stack once took the minimum in another order
    M = np.array([[0.0, 0.0, -2.2250738585072014e-308], [0.0, 0.0, 2.625]])
    games = np.stack([M, M[::-1], np.ones((2, 3))])
    alone = np.array([single_stage_value(G) for G in games])
    assert pg._stage_values(games).tobytes() == alone.tobytes()
    assert pg._stage_values(M[None]).tobytes() == alone[:1].tobytes()


def test_exact_value_saddle_certificate():
    # hand-built one-round matrix for vertex subsets from a zero point mass:
    # picking i against subset j pays max over coordinates of e_j - 1_{i in j}
    grid = [ham.vertex_action(2, m) for m in range(4)]
    M = np.zeros((2, 4))
    for i in (1, 2):
        for mask in range(4):
            e = np.array([(mask >> 0) & 1, (mask >> 1) & 1], dtype=float)
            gaps = e - float((mask >> (i - 1)) & 1)
            M[i - 1, mask] = np.max(gaps)
    assert Fraction(pg.exact_value_small(1, ZERO2, grid)) == rational_stage_value(M)


@pytest.mark.parametrize(
    "m0",
    [
        ms.SignedAtomicMeasure(2, [[0.0, 0.0]], [-3.0]),
        ms.SignedAtomicMeasure(2, [[0.0, 0.0], [1.0, 1.0]], [-1.0, 2.0]),
        ms.dirac(np.zeros(2), probability=False),
    ],
    ids=["negative-point-mass", "signed-pair", "unit-mass-not-flagged"],
)
def test_game_engines_need_a_probability_initial_law(m0):
    adversary = pg.ADVERSARY_REGISTRY["first-action"](2)
    with pytest.raises(ValueError, match="probability"):
        pg.monte_carlo_regret(5, m0, pg.exp_weights_forecaster(2), adversary, 10, 4)
    with pytest.raises(ValueError, match="probability"):
        pg.exact_value_small(2, m0, _vertex_grid(2))


@pytest.mark.parametrize("T", [-1, -3])
def test_exact_value_rejects_a_negative_horizon(T):
    # unchecked, T = -1 returned 1.5 and T = -3 returned 0.5
    with pytest.raises(ValueError, match="0 <= T"):
        pg.exact_value_small(T, ZERO2, _vertex_grid(2))


def test_exact_value_size_limits():
    big_grid = [ham.vertex_action(2, m) for m in range(4)]
    with pytest.raises(ValueError):
        pg.exact_value_small(9, ZERO2, big_grid)
    with pytest.raises(ValueError):
        pg.exact_value_small(1, ms.dirac(np.zeros(4)), [ham.vertex_action(4, 0)])
    spread = ms.SignedAtomicMeasure(2, [[0.0, 0.0], [1.0, 1.0]], [0.5, 0.5], True)
    with pytest.raises(ValueError):
        pg.exact_value_small(1, spread, big_grid)
    with pytest.raises(ValueError):
        pg.exact_value_small(1, ZERO2, [])
    with pytest.raises(ValueError, match="2-action mixtures"):
        pg.exact_value_small(2, ZERO2, [ham.vertex_action(3, 1)])
    # 83 actions at K = 3 make 102 339 candidate vertices per stage game
    with pytest.raises(ValueError, match="grid too large"):
        pg.exact_value_small(1, ms.dirac(np.zeros(3)), [ham.vertex_action(3, 0)] * 83)


@pytest.mark.parametrize("K, counts", [(2, [1, 6, 19, 44]), (3, [1, 14, 71])], ids=["K2", "K3"])
def test_exact_value_memo_counts(K, counts):
    # distinct stage games solved from zero gaps on the vertex grid, T = 1, 2, ...
    for T, count in enumerate(counts, start=1):
        table = {}
        pg.exact_value_small(T, ms.dirac(np.zeros(K)), _vertex_grid(K), table)
        assert len(table) == count


def _grid_actions(K):
    """Vertex actions, or mixtures with every subset weight positive."""
    vertex = st.integers(0, 2**K - 1).map(lambda mask: ham.vertex_action(K, mask))
    mixed = st.lists(st.floats(0.05, 1.0), min_size=2**K, max_size=2**K).map(
        lambda w: ham.SimplexAction(K, np.array(w) / np.sum(w))
    )
    return st.lists(st.one_of(vertex, mixed), min_size=1, max_size=3)


@settings(max_examples=30, deadline=None)
@given(
    case=st.sampled_from([(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)]).flatmap(
        lambda kt: st.tuples(
            st.just(kt[1]),
            st.lists(st.integers(-100, 100), min_size=kt[0], max_size=kt[0]),
            st.one_of(st.just(_vertex_grid(kt[0])), _grid_actions(kt[0])),
        )
    )
)
def test_exact_value_matches_sequence_form_lp_on_random_instances(case):
    T, start, grid = case
    g0 = np.array(start) / 100.0
    main = pg.exact_value_small(T, ms.dirac(g0), grid)
    oracle = sequence_form_value(T, g0, [g.weights for g in grid])
    assert main == pytest.approx(oracle, abs=5e-9)


def _parity_set():
    """K = 2 at T = 1..4 and K = 3 at T = 1..3, each from zero gaps and five
    two-decimal starts on the vertex grid, from a two-decimal start on two
    vertices and three Dirichlet mixtures, and from zero gaps on two mixtures
    and the uniform action; plus two starts below 1e-12: 58 instances."""
    rng = np.random.default_rng(12)
    cases = []
    for K, T in [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3)]:
        starts = [np.zeros(K)] + [np.round(rng.uniform(-1.0, 1.0, K), 2) for _ in range(5)]
        cases += [(T, g0, _vertex_grid(K)) for g0 in starts]
        mixtures = [ham.SimplexAction(K, rng.dirichlet(np.ones(2**K))) for _ in range(4)]
        vertices = [ham.vertex_action(K, 1), ham.vertex_action(K, 2**K - 2)]
        cases.append((T, np.round(rng.uniform(-1.0, 1.0, K), 2), vertices + mixtures[:3]))
        cases.append((T, np.zeros(K), mixtures[2:] + [ham.uniform_action(K)]))
    cases.append((3, np.array([7e-13, 0.0]), _vertex_grid(2)))
    cases.append((2, np.array([3e-13, 1e-13, 0.0]), _vertex_grid(3)))
    return cases


def _assert_same_as_recursive_dp(T, g0, grid):
    table, oracle_table = {}, {}
    value = pg.exact_value_small(T, ms.dirac(g0), grid, table)
    assert value == recursive_exact_value(T, ms.dirac(g0), grid, oracle_table)
    # the same stage games under the same first histories, with the same matrices and values
    assert table == oracle_table


def test_exact_value_matches_the_recursive_dp_on_the_parity_set():
    cases = _parity_set()
    assert len(cases) == 58
    for T, g0, grid in cases:
        _assert_same_as_recursive_dp(T, g0, grid)


@settings(max_examples=40, deadline=None)
@given(
    case=st.sampled_from([(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2)]).flatmap(
        lambda kt: st.tuples(
            st.just(kt[1]),
            st.one_of(
                st.lists(st.integers(-100, 100), min_size=kt[0], max_size=kt[0]).map(
                    lambda start: np.array(start) / 100.0
                ),
                st.lists(st.integers(-9, 9), min_size=kt[0], max_size=kt[0]).map(
                    lambda start: np.array(start) * 1e-13
                ),
            ),
            st.one_of(st.just(_vertex_grid(kt[0])), _grid_actions(kt[0])),
        )
    )
)
def test_exact_value_matches_the_recursive_dp_on_random_instances(case):
    _assert_same_as_recursive_dp(*case)


@pytest.mark.parametrize(
    "T, g0", [(2, (3e-13, 1e-13, 0.0)), (3, (7e-13, 0.0))], ids=["K3T2", "K2T3"]
)
def test_exact_value_below_1e_12_matches_the_sequence_form_lp(T, g0):
    # the LP pushes integer gap offsets and never rounds a gap, so it sees
    # starts far below 1e-12
    grid = _vertex_grid(len(g0))
    main = pg.exact_value_small(T, ms.dirac(np.array(g0)), grid)
    oracle = sequence_form_value(T, g0, [g.weights for g in grid])
    assert main == pytest.approx(oracle, abs=1e-15)
    assert main != pg.exact_value_small(T, ms.dirac(np.zeros(len(g0))), grid)


# actions whose whole weight sits on one side of an action's signal: masks 3
# and 6 both hold action 2 at K = 3, and masks 1 and 3 both hold action 1 at
# K = 2, with a total 5e-13 short of one.  Read as one minus the other side,
# the empty side's probability was 1.1e-16 and 5e-13, and the DP raised
_ONE_SIDED = [
    (3, [0.0, 0.0, 0.0, 0.19583650425799073, 0.0, 0.0, 0.8041634957420092, 0.0]),
    (2, [0.0, 0.5, 0.0, 0.5 - 5e-13]),
]


@pytest.mark.parametrize("T", [2, 3])
@pytest.mark.parametrize("K, weights", _ONE_SIDED, ids=["K3", "K2"])
def test_exact_value_observes_no_signal_from_an_empty_side(K, weights, T):
    # against the same grid with every weight raised by 1e-9, which leaves no
    # side empty (0.4941087762 against 0.4941087771 at K = 3, T = 2)
    w = np.array(weights)
    twin = (w + 1e-9) / (w + 1e-9).sum()
    rest = [ham.vertex_action(K, 0), ham.vertex_action(K, 1)]
    g0 = np.zeros(K)
    value = pg.exact_value_small(T, ms.dirac(g0), [ham.SimplexAction(K, w)] + rest)
    near = pg.exact_value_small(T, ms.dirac(g0), [ham.SimplexAction(K, twin)] + rest)
    assert math.isfinite(value) and abs(value - near) <= 1e-8
    oracle = sequence_form_value(T, g0, [twin] + [a.weights for a in rest])
    assert near == pytest.approx(oracle, abs=5e-9)
    # the LP also skips a signal whose side holds no weight (2.5e-13 apart at K = 2, T = 2)
    assert value == pytest.approx(sequence_form_value(T, g0, [w] + [a.weights for a in rest]), abs=1e-10)


# the eight vertices and the uniform action at K = 3: 219 candidate vertex
# systems per stage game, so T = 5 needs more than the 2 054 games the budget admits
_OVER_BUDGET = (5, ms.dirac(np.zeros(3)), _vertex_grid(3) + [ham.uniform_action(3)])


def test_exact_value_refuses_before_solving_any_stage_game(monkeypatch):
    solved = []
    monkeypatch.setattr(pg, "_stage_values", lambda M: solved.append(len(M)))
    with pytest.raises(ValueError, match="candidate vertex systems"):
        pg.exact_value_small(*_OVER_BUDGET)
    assert solved == []


def test_exact_value_stage_game_budget():
    table = {}
    value = pg.exact_value_small(6, ZERO2, _vertex_grid(2), table)
    assert value == pytest.approx(0.9375, abs=1e-12)
    assert len(table) == 146
    with pytest.raises(ValueError, match="candidate vertex systems"):
        pg.exact_value_small(*_OVER_BUDGET)


def test_exact_value_dump_table():
    grid = [ham.vertex_action(2, m) for m in range(4)]
    table = {}
    value = pg.exact_value_small(1, ZERO2, grid, table)
    assert value == pytest.approx(0.5)
    assert () in table and "matrix" in table[()]
    assert table[()]["value"] == value == pg.exact_value_small(1, ZERO2, grid)
