from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _oracles import fixed_support_d_F_sq, slsqp_one_start_at_a_time
from fwlab import _optim
from fwlab import comparison_harness as ch
from fwlab import filtering_sim as fs
from fwlab import fourier_metric as fm
from fwlab._rng import substream

SUPPORT = np.array([[-1.0], [0.0], [1.0]])
LQ = fs.LQParams(sigma=1.0, sigma_tilde=0.5, horizon=1.0)
CFG = ch.DoublingConfig(horizon=1.0, m_box=1.5, n_starts=20, max_iters=100, seed=0)


def _pair(slack=0.25):
    u = ch.lq_discretized_candidate(SUPPORT, LQ, slack=slack, m_box=CFG.m_box, osc=0.25)
    v = ch.lq_discretized_candidate(SUPPORT, LQ, slack=0.0, m_box=CFG.m_box, osc=0.25)
    return u, v


# where the gradient tests place a point: inside the domain, on either time
# boundary, or at a vertex of the weight simplex
POINT_KINDS = ("interior", "t=0", "t=T", "vertex")


def _at(f, t, w, m) -> float:
    """The candidate's value at the one point (t, w, m), as a one-row batch."""
    values = f.eval_fn(np.array([t], dtype=float), np.asarray(w)[None], np.asarray(m)[None])[0]
    return float(values[0])


def _central_differences(f, x, h):
    return np.array([(f(x + h * e) - f(x - h * e)) / (2.0 * h) for e in np.eye(x.size)])


def _random_point(rng, n, m_box, kind):
    t = {"t=0": 0.0, "t=T": 1.0}.get(kind, rng.uniform(0.0, 1.0))
    w = np.eye(n)[rng.integers(n)] if kind == "vertex" else rng.dirichlet(np.ones(n))
    return np.concatenate([[t], w, rng.uniform(-m_box, m_box, 1)])


def _random_lq_pair(rng, shifted):
    """A random support and LQ pair at osc 0.25, with the candidates' common
    rescale factor osc / raw_bound as lq_discretized_candidate defines it."""
    n = int(rng.integers(2, 6))
    support = rng.uniform(-1.5, 1.5, (n, 1))
    lq = fs.LQParams(sigma=1.0, sigma_tilde=float(rng.uniform(0.2, 1.0)), horizon=1.0)
    shift = (lambda t: (0.1 * np.sin(3.0 * t), 0.3 * np.cos(3.0 * t))) if shifted else None
    kw = {"m_box": 1.5, "osc": 0.25}
    slack = float(rng.uniform(0.0, 0.5))
    u = ch.lq_discretized_candidate(support, lq, slack=slack, shift_fn=shift, **kw)
    v = ch.lq_discretized_candidate(support, lq, **kw)
    x = support[:, 0]
    raw_bound = (
        (np.max(np.abs(x)) + 1.5) ** 2
        + fs.lq_riccati(0.0, lq)[1]
        + np.max(x * x)
        + lq.sigma**2 * lq.horizon
    )
    return u, v, 0.25 / raw_bound


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(POINT_KINDS), shifted=st.booleans())
def test_lq_candidate_gradient_matches_central_differences(seed, kind, shifted):
    rng = np.random.default_rng(seed)
    u, _, scale = _random_lq_pair(rng, shifted)
    n = u.n_atoms
    z = _random_point(rng, n, 1.5, kind)
    _, d_t, d_w, d_m = (a[0] for a in u.eval_fn(z[:1], z[None, 1 : 1 + n], z[None, 1 + n :]))
    fd = _central_differences(lambda y: _at(u, y[0], y[1 : 1 + n], y[1 + n :]), z, 1e-6)
    assert np.max(np.abs(np.concatenate([[d_t], d_w, d_m]) - fd)) <= 1e-7 * scale


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kinds=st.tuples(st.sampled_from(POINT_KINDS), st.sampled_from(POINT_KINDS)),
    shifted=st.booleans(),
    eps=st.floats(0.02, 1.0),
    delta=st.floats(0.005, 0.2),
)
def test_doubled_objective_gradient_matches_central_differences(seed, kinds, shifted, eps, delta):
    rng = np.random.default_rng(seed)
    u, v, scale = _random_lq_pair(rng, shifted)
    gram = ch.FixedSupportMetric(u.support, fm.default_config(1)).gram
    value_and_grad = ch.doubled_objective(u, v, gram, delta)
    z = np.concatenate([_random_point(rng, u.n_atoms, 1.5, kind) for kind in kinds])
    _, grad = value_and_grad(np.append(z, eps)[None])
    # the trailing scale is carried, not optimized
    assert grad[0, -1] == 0.0
    # the coupling and moment terms are quadratic, so a wider step costs them
    # nothing and keeps the rounding in the 1/eps penalty small
    fd = _central_differences(lambda y: value_and_grad(np.append(y, eps)[None])[0][0], z, 1e-5)
    assert np.max(np.abs(grad[0, :-1] - fd)) <= 1e-7 * scale * (1.0 + 1.0 / eps)


def test_equal_candidates_diagonal_maximum():
    _, v = _pair()
    # diagonal optimality holds in the small-eps limit: the maximizer drifts
    # off-diagonal by O(eps), so the penalty shrinks linearly
    rep_big, rep = ch.doubling_maximize(v, v, [0.05, 0.002], 0.02, CFG)
    assert rep.penalty <= 5e-5
    assert rep.penalty <= 0.1 * rep_big.penalty
    assert rep.value == pytest.approx(-2 * 0.02 * 1.0, abs=1e-3)


@pytest.mark.parametrize("n_starts", [4, 18])
def test_doubling_runs_n_starts_ascents(monkeypatch, n_starts):
    # one ascent call whose rows are the n_starts starts tiled over the
    # scales, each row's scale in its trailing coordinate; the first
    # min(16, n_starts) starts are diagonal: both copies (t, 3 weights, 1 shift) coincide
    calls = []
    ascent = ch.projected_gradient_ascent

    def counted(objective, x0, *args, **kwargs):
        calls.append(np.array(x0))
        return ascent(objective, x0, *args, **kwargs)

    monkeypatch.setattr(ch, "projected_gradient_ascent", counted)
    u, v = _pair()
    cfg = ch.DoublingConfig(horizon=1.0, m_box=1.5, n_starts=n_starts, max_iters=2, n_polish=1)
    eps_sequence = [0.5, 0.1, 0.02]
    reports = ch.doubling_maximize(u, v, eps_sequence, 0.02, cfg)
    assert len(reports) == len(eps_sequence)
    assert len(calls) == 1
    x0 = calls[0]
    assert x0.shape == (len(eps_sequence) * n_starts, 11)
    for k, eps in enumerate(eps_sequence):
        rows = x0[k * n_starts : (k + 1) * n_starts]
        assert np.array_equal(rows[:, :-1], x0[:n_starts, :-1])
        assert np.all(rows[:, -1] == eps)
    diagonal = [np.array_equal(x[:5], x[5:10]) for x in x0[:n_starts]]
    assert diagonal == [True] * min(16, n_starts) + [False] * max(n_starts - 16, 0)


def REJECTED_POLISH(fun_and_grad, x0, *args, **kwargs):
    # a stand-in for the polish that ends every run at once at a nan point,
    # unconverged, so the reports keep the ascent's own points, values and flags
    X = np.full(np.shape(x0), np.nan)
    return X, np.full(len(X), np.nan), np.zeros(len(X), dtype=bool)


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 5),
    slack=st.floats(0.0, 0.5),
    n_starts=st.integers(1, 6),
    max_iters=st.integers(0, 80),
    eps_sequence=st.lists(st.floats(0.01, 1.0), min_size=1, max_size=5),
    polish=st.booleans(),
)
def test_each_scale_reports_as_if_alone(seed, n, slack, n_starts, max_iters, eps_sequence, polish):
    # the scales share one ascent, yet each report is bit for bit the report
    # of a call with that scale alone
    rng = np.random.default_rng(seed)
    support = rng.uniform(-1.5, 1.5, (n, 1))
    lq = fs.LQParams(sigma=1.0, sigma_tilde=float(rng.uniform(0.2, 1.0)), horizon=1.0)
    kw = {"m_box": 1.5, "osc": 0.25}
    u = ch.lq_discretized_candidate(support, lq, slack=slack, **kw)
    v = ch.lq_discretized_candidate(support, lq, **kw)
    cfg = ch.DoublingConfig(
        horizon=1.0, m_box=1.5, n_starts=n_starts, max_iters=max_iters, n_polish=1, seed=seed
    )
    with mock.patch.object(ch, "active_set_polish", ch.active_set_polish if polish else REJECTED_POLISH):
        reports = ch.doubling_maximize(u, v, eps_sequence, 0.02, cfg)
        alone = [ch.doubling_maximize(u, v, [eps], 0.02, cfg)[0] for eps in eps_sequence]
    for rep, ref in zip(reports, alone, strict=True):
        for field in ("value", "penalty", "d_F"):
            assert _bits(getattr(rep, field)) == _bits(getattr(ref, field))
        assert all(_bits(a) == _bits(b) for a, b in zip(rep.theta_star, ref.theta_star))


def _polish_run(u, v, eps_sequence, cfg):
    """The reports of ``doubling_maximize``, the arguments it passes to the
    polish, the polish's output and the number of objective calls it made."""
    calls = []
    objective = ch.doubled_objective

    def counted_objective(*args):
        value_and_grad = objective(*args)

        def counted(Z):
            calls.append(len(Z))
            return value_and_grad(Z)

        return counted

    seen = []

    def spy(*args, **kwargs):
        before = len(calls)
        out = _optim.active_set_polish(*args, **kwargs)
        seen.append((args, kwargs, out, len(calls) - before))
        return out

    with mock.patch.object(ch, "doubled_objective", counted_objective):
        with mock.patch.object(ch, "active_set_polish", spy):
            reports = ch.doubling_maximize(u, v, eps_sequence, 0.02, cfg)
    ((args, kwargs, out, polish_calls),) = seen
    return reports, args, kwargs, out, polish_calls


def _random_pair(seed, n, slack):
    rng = np.random.default_rng(seed)
    support = rng.uniform(-1.5, 1.5, (n, 1))
    lq = fs.LQParams(sigma=1.0, sigma_tilde=float(rng.uniform(0.2, 1.0)), horizon=1.0)
    kw = {"m_box": 1.5, "osc": 0.25}
    u = ch.lq_discretized_candidate(support, lq, slack=slack, **kw)
    return u, ch.lq_discretized_candidate(support, lq, **kw)


POLISH_CASES = dict(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 6),
    slack=st.floats(0.0, 0.5),
    eps_sequence=st.lists(st.floats(0.01, 1.0), min_size=1, max_size=3),
    n_polish=st.integers(1, 4),
)


def _bench_pair(seed):
    """The benchmark's doubling instance: a scalar LQ pair u = v + slack on a
    3-atom support, with 18 starts, 20 ascent iterations and 2 polishes."""
    rng = np.random.default_rng(seed)
    support = np.array([[-rng.uniform(0.5, 1.5)], [0.0], [rng.uniform(0.5, 1.5)]])
    lq = fs.LQParams(sigma=1.0, sigma_tilde=float(rng.uniform(0.3, 0.7)), horizon=1.0)
    slack = float(rng.uniform(0.15, 0.35))
    kw = {"m_box": 1.5, "osc": 0.25}
    u = ch.lq_discretized_candidate(support, lq, slack=slack, **kw)
    v = ch.lq_discretized_candidate(support, lq, **kw)
    cfg = ch.DoublingConfig(horizon=1.0, m_box=1.5, n_starts=18, max_iters=20, n_polish=2, seed=seed)
    return u, v, cfg


@pytest.mark.parametrize("seed", range(12))
def test_polish_value_matches_one_minimize_per_start(seed):
    # on the benchmark's instances, from the same starts, each scale reports
    # at least the best value scipy.optimize.minimize (SLSQP) reaches from
    # them one at a time
    u, v, cfg = _bench_pair(seed)
    reports, (fun_and_grad, x0, lo, hi, sums, _), _, _, _ = _polish_run(u, v, [0.5, 0.1, 0.02], cfg)
    results = slsqp_one_start_at_a_time(fun_and_grad, x0, lo, hi, sums, 1.0, maxiter=300, ftol=1e-14)
    assert len(results) == 6 and all(res.success for res in results)
    for k, rep in enumerate(reports):
        assert rep.value >= max(-res.fun for res in results[2 * k : 2 * k + 2]) - 1e-12


@settings(max_examples=25, deadline=None)
@given(**POLISH_CASES)
@example(seed=0, n=3, slack=0.25, eps_sequence=[0.5, 0.1, 0.02], n_polish=2)
def test_polished_points_are_kkt_points(seed, n, slack, eps_sequence, n_polish):
    # every polish converges; at its point the unit-step projected gradient
    # of the objective over the box and the two simplices is below 1e-8, and
    # SLSQP started there gains nothing
    u, v = _random_pair(seed, n, slack)
    cfg = ch.DoublingConfig(
        horizon=1.0, m_box=1.5, n_starts=6, max_iters=10, n_polish=n_polish, seed=seed
    )
    _, (fun_and_grad, _, lo, hi, sums, _), _, (X, F, converged), _ = _polish_run(u, v, eps_sequence, cfg)
    assert converged.all()
    P = min(n_polish, 6)
    Z = np.column_stack([X, np.repeat(eps_sequence, P)])
    gram = ch.FixedSupportMetric(u.support, fm.default_config(1)).gram
    _, grad = ch.doubled_objective(u, v, gram, 0.02)(Z)
    ascended = Z[:, :-1] + grad[:, :-1]
    step = np.clip(ascended, lo, hi)
    for w in (slice(1, 1 + n), slice(3 + n, 3 + 2 * n)):  # each copy's weights
        step[:, w] = _optim.project_simplex(ascended[:, w])
    assert np.max(np.abs(step - Z[:, :-1])) <= 1e-8
    again = slsqp_one_start_at_a_time(fun_and_grad, X, lo, hi, sums, 1.0, maxiter=300, ftol=1e-14)
    assert all(res.fun >= f - 1e-12 for res, f in zip(again, F))


def test_polish_makes_one_objective_call_per_round():
    # the bench configuration: every polish of the three scales joins one
    # batched call per round, so the polish makes as many calls as its
    # longest run makes alone, and no more than SLSQP's longest run
    u, v = _pair()
    cfg = ch.DoublingConfig(horizon=1.0, m_box=1.5, n_starts=18, max_iters=20, n_polish=2, seed=7)
    _, args, kwargs, _, polish_calls = _polish_run(u, v, [0.5, 0.1, 0.02], cfg)
    fun_and_grad, x0, lo, hi, sums, hessians = args
    alone = []
    for r in range(len(x0)):
        calls = []

        def counted(Z, rows, r=r):
            calls.append(len(Z))
            return fun_and_grad(Z, rows + r)

        _optim.active_set_polish(counted, x0[r : r + 1], lo, hi, sums, hessians[r : r + 1], **kwargs)
        alone.append(len(calls))
    oracle = slsqp_one_start_at_a_time(fun_and_grad, x0, lo, hi, sums, 1.0, maxiter=300, ftol=1e-14)
    assert len(alone) == 6
    assert polish_calls == max(alone) < sum(alone)
    assert polish_calls <= max(res.calls for res in oracle)


def _constant(value):
    def eval_fn(t, w, m):
        return np.full(t.shape, value), np.zeros(t.shape), np.zeros_like(w), np.zeros_like(m)

    return ch.DiscretizedFunction(SUPPORT, eval_fn)


def test_constant_difference_value():
    c = 1.7
    u, v = _constant(c), _constant(0.0)
    rep = ch.doubling_maximize(u, v, [0.1], 0.02, CFG)[0]
    assert rep.value == pytest.approx(c - 2 * 0.02 * 1.0, abs=1e-6)
    assert rep.penalty <= 1e-8


def test_converged_after_a_rejected_polish_covers_every_scale(monkeypatch):
    # with every polish rejected each report keeps the ascent's flag, and the
    # one ascent's flag covers the starts of every scale: the coarse scale,
    # whose own 17 starts all converge, reads False beside the fine scale
    u, v = _constant(1.7), _constant(0.0)
    cfg = ch.DoublingConfig(horizon=1.0, m_box=1.5, n_starts=17, max_iters=400, n_polish=1)
    (coarse,) = ch.doubling_maximize(u, v, [1.0], 0.02, cfg)
    assert coarse.converged
    monkeypatch.setattr(ch, "active_set_polish", REJECTED_POLISH)
    (coarse_alone,) = ch.doubling_maximize(u, v, [1.0], 0.02, cfg)
    (fine_alone,) = ch.doubling_maximize(u, v, [0.001], 0.02, cfg)
    assert coarse_alone.converged and not fine_alone.converged
    both = ch.doubling_maximize(u, v, [1.0, 0.001], 0.02, cfg)
    assert [r.converged for r in both] == [False, False]
    # only the flag is shared: the values are still each scale's own
    assert [r.value for r in both] == [coarse_alone.value, fine_alone.value]


def test_value_dominates_probes():
    u, v = _pair()
    rep = ch.doubling_maximize(u, v, [0.1], 0.02, CFG)[0]
    cfg1 = fm.default_config(1)
    rng = substream(4, 0)
    probes = []
    for _ in range(10_000):
        t1, t2 = rng.uniform(0, 1, 2)
        w1, w2 = rng.dirichlet(np.ones(3)), rng.dirichlet(np.ones(3))
        m1, m2 = rng.uniform(-CFG.m_box, CFG.m_box, (2, 1))
        probes.append((t1, w1, m1, t2, w2, m2))
    t1, w1, m1, t2, w2, m2 = (np.array(column) for column in zip(*probes))
    sq = SUPPORT[:, 0] ** 2
    h = (
        u.eval_fn(t1, w1, m1)[0]
        - v.eval_fn(t2, w2, m2)[0]
        - np.array([fixed_support_d_F_sq(*p, SUPPORT, cfg1) for p in probes]) / 0.2
        - 0.02 * (2.0 + m1[:, 0] ** 2 + m2[:, 0] ** 2 + w1 @ sq + w2 @ sq)
    )
    assert h.max() <= rep.value + 1e-9


def test_value_monotone_in_delta():
    u, v = _pair()
    values = [
        ch.doubling_maximize(u, v, [0.1], delta, CFG)[0].value
        for delta in (0.01, 0.05, 0.2)
    ]
    assert values[0] >= values[1] - 1e-6
    assert values[1] >= values[2] - 1e-6


def test_grid_oracle_cross_validation():
    # coarse exhaustive grid over both copies at n = 2 atoms
    support = np.array([[-0.8], [0.8]])
    u = ch.lq_discretized_candidate(support, LQ, slack=0.3, m_box=1.0, osc=0.25)
    v = ch.lq_discretized_candidate(support, LQ, slack=0.0, m_box=1.0, osc=0.25)
    cfg = ch.DoublingConfig(horizon=1.0, m_box=1.0, n_starts=20, max_iters=100, seed=1)
    eps, delta = 0.2, 0.02
    rep = ch.doubling_maximize(u, v, [eps], delta, cfg)[0]
    metric = ch.FixedSupportMetric(support, fm.default_config(1))
    x2 = support[:, 0] ** 2
    # every single-copy grid point, each candidate evaluated once per point
    grid = [
        (t, np.array([w, 1 - w]), np.array([m]))
        for t in np.linspace(0, 1, 7)
        for w in np.linspace(0, 1, 9)
        for m in np.linspace(-1.0, 1.0, 9)
    ]
    ts = np.array([t for t, _, _ in grid])
    wvs = np.array([wv for _, wv, _ in grid])
    ms_ = np.array([m[0] for _, _, m in grid])
    u_vals = u.eval_fn(ts, wvs, ms_[:, None])[0]
    v_vals = v.eval_fn(ts, wvs, ms_[:, None])[0]
    vth = 1 + ms_**2 + wvs @ x2
    # the coupling over all pairs from the Gram form, spot-checked pairwise
    dw = wvs[:, None, :] - wvs[None, :, :]
    d_sq = (
        (ts[:, None] - ts[None, :]) ** 2
        + (ms_[:, None] - ms_[None, :]) ** 2
        + np.maximum(np.einsum("abi,ij,abj->ab", dw, metric.gram, dw), 0.0)
    )
    for a, b in np.random.default_rng(0).integers(len(grid), size=(200, 2)):
        t1, wv1, m1 = grid[a]
        t2, wv2, m2 = grid[b]
        oracle = fixed_support_d_F_sq(t1, wv1, m1, t2, wv2, m2, support, fm.default_config(1))
        assert d_sq[a, b] == pytest.approx(oracle, rel=1e-12, abs=1e-15)
    h = u_vals[:, None] - v_vals[None, :] - d_sq / (2 * eps) - delta * (vth[:, None] + vth[None, :])
    best = float(np.max(h))
    assert rep.value >= best - 1e-9
    assert rep.value <= best + 0.05  # grid is coarse; the optimizer refines it


def test_penalty_decay_on_lq_pair():
    u, v = _pair()
    rep = ch.penalty_decay_check(u, v, 0.02, [0.5, 0.1, 0.02], CFG)
    assert rep.passed, rep.stats
    pens = rep.stats["penalties"]
    assert pens[-1] <= 0.1 * pens[0] + 1e-6


def test_penalty_decay_with_usc_jump():
    # upper semicontinuous time jump: decay still holds
    u = ch.lq_discretized_candidate(
        SUPPORT,
        LQ,
        slack=0.25,
        m_box=CFG.m_box,
        osc=0.25,
        shift_fn=lambda t: (np.where(t <= 0.5, 0.05, 0.0), 0.0),
    )
    v = ch.lq_discretized_candidate(SUPPORT, LQ, slack=0.0, m_box=CFG.m_box, osc=0.25)
    rep = ch.penalty_decay_check(u, v, 0.02, [0.5, 0.1, 0.02], CFG)
    assert rep.passed, rep.stats


def test_penalty_decay_requires_decreasing_eps():
    u, v = _pair()
    with pytest.raises(ValueError):
        ch.penalty_decay_check(u, v, 0.02, [0.1, 0.5], CFG)


def _probes(rng, n=50, m_box=1.5):
    out = []
    for _ in range(n):
        out.append(
            (
                float(rng.uniform(0, 1)),
                rng.dirichlet(np.ones(3)),
                rng.uniform(-m_box, m_box, 1),
            )
        )
    return out


def test_ordering_check_margin_pair(rng):
    base = ch.lq_discretized_candidate(SUPPORT, LQ, slack=0.0, m_box=1.5, osc=1.0)
    c = 0.3
    above = ch.lq_discretized_candidate(
        SUPPORT, LQ, slack=0.0, m_box=1.5, osc=1.0,
        shift_fn=lambda t: (c * (1.0 - t), -c),
    )
    rep = ch.ordering_check(base, above, _probes(rng), horizon=1.0)
    assert rep.passed
    assert rep.stats["min_margin"] >= -1e-12


def test_ordering_check_equality_and_h_shift(rng):
    base = ch.lq_discretized_candidate(SUPPORT, LQ, slack=0.0, m_box=1.5, osc=1.0)
    rep = ch.ordering_check(base, base, _probes(rng), horizon=1.0)
    assert rep.passed
    h = 0.12
    lowered = ch.lq_discretized_candidate(
        SUPPORT, LQ, slack=0.0, m_box=1.5, osc=1.0,
        shift_fn=lambda t: (-h * (1.0 - t + 1.0), h),
    )
    rep = ch.ordering_check(lowered, base, _probes(rng), horizon=1.0)
    assert rep.passed
    assert rep.stats["min_margin"] >= h - 1e-12


def test_ordering_check_reports_witness(rng):
    base = ch.lq_discretized_candidate(SUPPORT, LQ, slack=0.0, m_box=1.5, osc=1.0)
    above = ch.lq_discretized_candidate(
        SUPPORT, LQ, slack=0.05, m_box=1.5, osc=1.0
    )
    rep = ch.ordering_check(above, base, _probes(rng), horizon=1.0)
    assert not rep.passed
    assert rep.failures


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), c=st.floats(-0.2, 0.2), n_probes=st.integers(1, 30))
def test_ordering_check_matches_each_probe(seed, c, n_probes):
    # the batched check against one-row calls of the candidates, probe by probe
    rng = np.random.default_rng(seed)
    base = ch.lq_discretized_candidate(SUPPORT, LQ, slack=0.0, m_box=1.5, osc=1.0)
    other = ch.lq_discretized_candidate(
        SUPPORT, LQ, slack=0.0, m_box=1.5, osc=1.0,
        shift_fn=lambda t: (c * np.sin(5.0 * t), 5.0 * c * np.cos(5.0 * t)),
    )
    probes = _probes(rng, n_probes)
    rep = ch.ordering_check(base, other, probes, horizon=1.0)
    terminal = [_at(base, 1.0, w, m) - _at(other, 1.0, w, m) for _, w, m in probes]
    if max(terminal) > 1e-9:
        assert not rep.passed and rep.stats["stage"] == "terminal-precondition"
        return
    gaps = [_at(other, t, w, m) - _at(base, t, w, m) for t, w, m in probes]
    assert rep.stats["min_margin"] == pytest.approx(min(gaps), rel=0.0, abs=1e-12)
    assert rep.passed == (min(gaps) >= -1e-9)
    if not rep.passed:
        t, w, m = probes[int(np.argmin(gaps))]
        assert rep.failures[0]["t"] == t and rep.failures[0]["w"] == w.tolist()


def test_ordering_check_needs_a_probe():
    base = ch.lq_discretized_candidate(SUPPORT, LQ, osc=1.0)
    with pytest.raises(ValueError):
        ch.ordering_check(base, base, [], horizon=1.0)


def test_ishii_matrix_examples():
    z = np.zeros((2, 2))
    assert ch.ishii_matrix_check(z, z, 0.5, 1.0)
    assert ch.ishii_matrix_check(z, z, 0.01, 100.0)
    bad = np.eye(2) / 0.5
    assert not ch.ishii_matrix_check(bad, bad, 0.5, 1.0)


def test_ishii_matrix_random_vs_eigen_oracle(rng):
    eps, alpha = 0.4, 0.7
    lo = 1.0 / alpha + 2.0 / eps
    hi = 1.0 / eps + 2.0 * alpha / eps**2
    coupling = np.block([[np.eye(2), -np.eye(2)], [-np.eye(2), np.eye(2)]])
    for _ in range(50):
        X = 0.05 * rng.standard_normal((2, 2))
        X = 0.5 * (X + X.T)
        Y = -X
        block = np.zeros((4, 4))
        block[:2, :2], block[2:, 2:] = X, Y
        expected = (
            np.linalg.eigvalsh(block + lo * np.eye(4))[0] >= -1e-10
            and np.linalg.eigvalsh(hi * coupling - block)[0] >= -1e-10
        )
        assert ch.ishii_matrix_check(X, Y, eps, alpha) == expected


def test_ishii_matrix_validation():
    with pytest.raises(ValueError):
        ch.ishii_matrix_check(np.zeros((2, 2)), np.zeros((3, 3)), 0.5, 1.0)
    with pytest.raises(ValueError):
        ch.ishii_matrix_check(np.zeros((2, 2)), np.zeros((2, 2)), -0.5, 1.0)


def test_discretized_function_bound_holds(rng):
    # the rescaled LQ value is at most osc in size on the harness domain, so
    # the candidate stays within 1 + |slack| + osc
    slack, osc = 0.25, 0.25
    u = ch.lq_discretized_candidate(SUPPORT, LQ, slack=slack, m_box=CFG.m_box, osc=osc)
    t, w, m = (np.array(column) for column in zip(*_probes(rng, 200)))
    assert np.all(np.abs(u.eval_fn(t, w, m)[0]) <= 1.0 + abs(slack) + osc + 1e-12)


@pytest.mark.parametrize(
    "field, value", [("n_starts", 0), ("n_polish", 0), ("max_iters", -1), ("m_box", -1.0)]
)
def test_doubling_config_rejects_degenerate_settings(field, value):
    with pytest.raises(ValueError, match=f"{field} must be >= "):
        ch.DoublingConfig(**{field: value})
    ch.DoublingConfig(n_starts=1, n_polish=1, max_iters=0, m_box=0.0)  # the least allowed settings


def test_lq_candidate_needs_a_support_atom():
    with pytest.raises(ValueError, match="support"):
        ch.lq_discretized_candidate(np.zeros((0, 1)), LQ)


def test_doubling_rejects_mismatched_support():
    u, _ = _pair()
    other = ch.lq_discretized_candidate(np.array([[-2.0], [2.0]]), LQ, osc=0.25)
    with pytest.raises(ValueError):
        ch.doubling_maximize(u, other, [0.1], 0.01, CFG)
    with pytest.raises(ValueError):
        ch.doubling_maximize(u, u, [0.1, -0.1], 0.01, CFG)
    with pytest.raises(ValueError):
        ch.doubling_maximize(u, u, [], 0.01, CFG)


def test_report_reproducible():
    u, v = _pair()
    a = ch.doubling_maximize(u, v, [0.1], 0.02, CFG)[0]
    b = ch.doubling_maximize(u, v, [0.1], 0.02, CFG)[0]
    assert a.value == b.value and a.penalty == b.penalty
    assert np.array_equal(a.theta_star[1], b.theta_star[1])
