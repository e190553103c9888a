import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (
    G_regret_segments,
    G_regret_three_actions,
    K_regret_conditional,
    V_vectors,
    per_control_coefficient_stats,
    simplex_lattice,
)
from conftest import random_probability_measure
from fwlab import fourier_metric as fm
from fwlab import hamiltonians as ham
from fwlab import measures as ms

LQ = ham.make_lq_coeffs()
GRID = np.linspace(-2.0, 2.0, 401)


def _standard_jet(p_slope=1.0, q_const=1.0, M=1.0):
    return ham.JetArgs(
        lambda X: p_slope * np.atleast_2d(X),
        lambda X: np.full((np.atleast_2d(X).shape[0], 1, 1), q_const),
        np.atleast_2d(M),
    )


# ---------------------------------------------------------------------------
# filtering side
# ---------------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 4),
    noise=st.sampled_from([0.0, 1e-13, 1e-12, 1e-9, 1e-6, 1e-5, 1e-3]),
    n_special=st.integers(0, 3),
    mirror=st.sampled_from(["none", "same", "negated"]),
)
def test_jet_symmetry_check_accepts_what_allclose_accepts(seed, d, noise, n_special, mirror):
    # near-symmetric matrices at scales from 1e-14 to 1e2, with inf, -inf and
    # nan entries, alone or mirrored across the diagonal
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(d, d)) * 10.0 ** float(rng.integers(-14, 3))
    M = A + A.T + noise * rng.normal(size=(d, d))
    for _ in range(n_special):
        i, j = rng.integers(d, size=2)
        M[i, j] = rng.choice([np.inf, -np.inf, np.nan])
        if mirror != "none":
            M[j, i] = M[i, j] if mirror == "same" else -M[i, j]
    if np.allclose(M, M.T, atol=1e-12):
        ham.JetArgs(np.asarray, np.asarray, M)
    else:
        with pytest.raises(ValueError, match="symmetric"):
            ham.JetArgs(np.asarray, np.asarray, M)


def test_K_running_cost_only(rng):
    mu = random_probability_measure(rng)
    jet = _standard_jet(p_slope=0.0, q_const=0.0, M=0.0)
    a = 0.7
    assert ham.K_filtering(np.array([a]), mu, jet, LQ)[0] == pytest.approx(a * a, rel=1e-14)


def test_K_hand_value():
    mu = ms.dirac(0.0)
    assert ham.K_filtering(np.zeros(1), mu, _standard_jet(), LQ)[0] == pytest.approx(1.0)


def test_K_monotone_in_M(rng):
    mu = random_probability_measure(rng)
    jet1 = _standard_jet(M=0.3)
    jet2 = _standard_jet(M=0.9)  # difference is positive semidefinite
    a = np.array([-1.0, 0.0, 1.5])
    assert np.all(ham.K_filtering(a, mu, jet1, LQ) <= ham.K_filtering(a, mu, jet2, LQ))


def test_K_affine_in_jet_arguments(rng):
    mu = random_probability_measure(rng)
    a = np.array([0.4])
    j1 = _standard_jet(1.0, 0.5, 0.2)
    j2 = _standard_jet(-2.0, 1.5, -0.7)
    lam = 0.35
    mix = ham.JetArgs(
        lambda X: lam * j1.p(X) + (1 - lam) * j2.p(X),
        lambda X: lam * j1.q(X) + (1 - lam) * j2.q(X),
        lam * j1.M + (1 - lam) * j2.M,
    )
    lhs = ham.K_filtering(a, mu, mix, LQ)
    rhs = lam * ham.K_filtering(a, mu, j1, LQ) + (1 - lam) * ham.K_filtering(a, mu, j2, LQ)
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_G_singleton_grid(rng):
    mu = random_probability_measure(rng)
    jet = _standard_jet()
    assert ham.G_filtering(mu, jet, LQ, [0.3]) == pytest.approx(
        ham.K_filtering(np.array([0.3]), mu, jet, LQ)[0]
    )
    with pytest.raises(ValueError):
        ham.G_filtering(mu, jet, LQ, [])
    with pytest.raises(ValueError, match="1-d"):
        ham.K_filtering(0.3, mu, jet, LQ)


def test_G_monotone_under_refinement(rng):
    mu = random_probability_measure(rng)
    jet = _standard_jet()
    coarse = np.linspace(-2, 2, 11)
    fine = np.linspace(-2, 2, 21)  # superset of the coarse grid
    assert ham.G_filtering(mu, jet, LQ, fine) <= ham.G_filtering(mu, jet, LQ, coarse)


def test_G_matches_calculus_oracle(rng):
    jet = _standard_jet()
    for _ in range(10):
        mu = random_probability_measure(rng)
        pbar = float(mu.mean()[0])
        astar = min(max(-pbar / 2.0, -2.0), 2.0)
        exact = astar * astar + astar * pbar + 0.5 + 0.5
        val = ham.G_filtering(mu, jet, LQ, GRID)
        assert val == pytest.approx(exact, abs=(4.0 / 400) ** 2)
    assert ham.G_filtering(ms.dirac(0.0), jet, LQ, GRID) == pytest.approx(1.0)


def test_Ge_zero_shift_and_point_mass(rng):
    mu = random_probability_measure(rng)
    jet = _standard_jet()
    assert ham.Ge_extend(mu, np.zeros(1), jet, LQ, GRID) == pytest.approx(
        ham.G_filtering(mu, jet, LQ, GRID)
    )
    # for translation-invariant jet fields the extension only sees x + m
    const_jet = ham.JetArgs(
        lambda X: np.full_like(np.atleast_2d(X), 0.9),
        lambda X: np.full((np.atleast_2d(X).shape[0], 1, 1), 1.1),
        np.array([[0.5]]),
    )
    m = np.array([0.8])
    a = ham.Ge_extend(ms.dirac(0.5), m, const_jet, LQ, GRID)
    b = ham.Ge_extend(ms.dirac(1.3), np.zeros(1), const_jet, LQ, GRID)
    assert a == pytest.approx(b, rel=1e-12)


def test_Ge_translation_consistency(rng):
    # second route: plain G at the shifted measure with shifted jet closures
    jet = _standard_jet(p_slope=0.7, q_const=1.2, M=0.4)
    for _ in range(20):
        mu = random_probability_measure(rng)
        m = rng.uniform(-2, 2, size=1)
        lhs = ham.Ge_extend(mu, m, jet, LQ, GRID)
        shifted = ms.pushforward_shift(mu, m)
        jet_m = ham.JetArgs(
            lambda X: jet.p(np.atleast_2d(X) - m),
            lambda X: jet.q(np.atleast_2d(X) - m),
            jet.M,
        )
        rhs = ham.G_filtering(shifted, jet_m, LQ, GRID)
        assert lhs == pytest.approx(rhs, rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.floats(-3.0, 3.0))
def test_Ge_extend_with_x_free_coefficients_is_G(cfg1d, seed, m):
    # lq1d coefficients do not depend on x, so translating the measure and the
    # jet together changes nothing but the rounding of (x + m) - m
    rng = np.random.default_rng(seed)
    mu = random_probability_measure(rng)
    jet = _kappa_jet(rng, cfg1d)
    grid = np.linspace(-2.0, 2.0, 41)
    G = ham.G_filtering(mu, jet, LQ, grid)
    assert abs(ham.Ge_extend(mu, np.array([m]), jet, LQ, grid) - G) <= 1e-12 * max(1.0, abs(G))


def test_assumption_i_identical_jets(rng):
    mu = random_probability_measure(rng)
    jet = _standard_jet()
    rep = ham.check_assumption_i_filtering(LQ, [(mu, np.zeros(1), jet, jet)], GRID)
    assert rep.passed
    assert rep.stats["fitted_constant"] == 0.0


def test_assumption_i_M_only_difference(rng):
    # jets differing only in M: the gap is exactly half the trace difference
    mu = random_probability_measure(rng)
    j1 = _standard_jet(M=0.2)
    j2 = _standard_jet(M=1.0)
    lhs = abs(
        ham.Ge_extend(mu, np.zeros(1), j1, LQ, GRID)
        - ham.Ge_extend(mu, np.zeros(1), j2, LQ, GRID)
    )
    assert lhs == pytest.approx(0.5 * 0.8, rel=1e-12)
    rep = ham.check_assumption_i_filtering(LQ, [(mu, np.zeros(1), j1, j2)], GRID)
    assert rep.passed
    assert rep.stats["fitted_constant"] <= 0.5 + 1e-12


def _jet_samples(rng, n):
    samples = []
    # extremal members keep the fitted constant saturated across sample sizes
    samples.append((ms.dirac(0.0), np.zeros(1), _standard_jet(M=0.0), _standard_jet(M=1.0)))
    for _ in range(n - 1):
        mu = random_probability_measure(rng)
        m = rng.uniform(-1.5, 1.5, size=1)
        jets = []
        for _ in range(2):
            slope, q_const, M = rng.uniform(-1.5, 1.5, size=3)
            jets.append(_standard_jet(slope, q_const, M))
        samples.append((mu, m, jets[0], jets[1]))
    return samples


def test_assumption_i_fit_stable_across_sizes(rng):
    samples = _jet_samples(rng, 80)
    small = ham.check_assumption_i_filtering(LQ, samples[:40], GRID)
    large = ham.check_assumption_i_filtering(LQ, samples, GRID)
    c1, c2 = small.stats["fitted_constant"], large.stats["fitted_constant"]
    assert c2 >= c1  # nested max
    assert abs(c2 - c1) <= 0.10 * c1


def test_assumption_ii_zero_gap_cases(cfg1d, rng):
    mu = random_probability_measure(rng)
    th = ms.Theta(0.0, mu, np.array([0.3]))
    rec = ham.check_assumption_ii_filtering(LQ, th, th, 0.1, cfg1d, GRID)
    assert rec.difference == pytest.approx(0.0, abs=1e-12)
    assert rec.d_F == pytest.approx(0.0, abs=1e-12)


def test_assumption_ii_distance_is_d_F_from_the_kernel(cfg1d, rng, monkeypatch):
    # the record's d_F is fm.d_F bit for bit, yet the pair's kernel sums are
    # computed once, by the one kernel the check builds
    calls = []
    for name in ("make_kappa", "rho_F"):
        original = getattr(fm, name)
        monkeypatch.setattr(fm, name, lambda *a, f=original, n=name: calls.append(n) or f(*a))
    for _ in range(10):
        mu, nu = (random_probability_measure(rng) for _ in range(2))
        th = ms.Theta(float(rng.uniform(0, 1)), mu, rng.uniform(-1, 1, 1))
        io = ms.Theta(float(rng.uniform(0, 1)), nu, rng.uniform(-1, 1, 1))
        calls.clear()
        rec = ham.check_assumption_ii_filtering(LQ, th, io, 0.1, cfg1d, GRID)
        assert calls == ["make_kappa"]
        assert rec.d_F == fm.d_F(th, io, cfg1d)


def test_assumption_ii_lq_never_positive(cfg1d, rng):
    # constant coefficients: the gap reduces to the dissipative pairing
    for eps in (0.5, 0.1, 0.02):
        for _ in range(5):
            mu, nu = (random_probability_measure(rng) for _ in range(2))
            th = ms.Theta(0.0, mu, rng.uniform(-1, 1, 1))
            io = ms.Theta(0.0, nu, rng.uniform(-1, 1, 1))
            rec = ham.check_assumption_ii_filtering(LQ, th, io, eps, cfg1d, GRID)
            assert rec.difference <= 1e-10
    report = ham.verify_linear_modulus([rec], 0.0)
    assert report.passed


def test_assumption_ii_bounded_coeffs_fit(cfg1d, rng):
    coeffs = ham.make_bounded_filter_coeffs()
    grid = np.linspace(-2, 2, 41)
    records = []
    for eps in (0.5, 0.1, 0.02):
        for _ in range(8):
            mu, nu = (random_probability_measure(rng) for _ in range(2))
            th = ms.Theta(0.0, mu, rng.uniform(-1, 1, 1))
            io = ms.Theta(0.0, nu, rng.uniform(-1, 1, 1))
            records.append(
                ham.check_assumption_ii_filtering(coeffs, th, io, eps, cfg1d, grid)
            )
    c = ham.fit_linear_modulus(records)
    assert np.isfinite(c)
    assert ham.verify_linear_modulus(records, c).passed


def _kappa_jet(rng, cfg):
    mu, nu = (random_probability_measure(rng) for _ in range(2))
    ker = fm.make_kappa(mu, nu, float(rng.uniform(0.02, 0.5)), cfg)
    M = rng.uniform(-1.0, 1.0, (1, 1))
    return ham.JetArgs(fm.kappa_gradient_field(ker), fm.kappa_hessian_field(ker), M)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_controls=st.integers(1, 41))
def test_K_filtering_over_controls_matches_each_control(cfg1d, seed, n_controls):
    rng = np.random.default_rng(seed)
    coeffs = ham.make_bounded_filter_coeffs()
    mu = random_probability_measure(rng)
    jet = _kappa_jet(rng, cfg1d)
    controls = rng.uniform(-2.0, 2.0, n_controls)
    values = ham.K_filtering(controls, mu, jet, coeffs)
    each = np.concatenate([ham.K_filtering(np.array([a]), mu, jet, coeffs) for a in controls])
    assert values.shape == (n_controls,)
    assert np.array_equal(values, each)
    assert ham.G_filtering(mu, jet, coeffs, controls) == each.min()


@pytest.mark.parametrize("m", [1, 7])
@pytest.mark.parametrize("name", sorted(ham.COEFFS_REGISTRY))
def test_closures_follow_the_array_contract(name, m):
    # (m, d) points and (m,) per-point controls; row k of a batch is the
    # one-row call on row k
    coeffs = ham.COEFFS_REGISTRY[name]()
    rng = np.random.default_rng(m)
    X = rng.uniform(-3.0, 3.0, (m, coeffs.d))
    a = rng.uniform(-4.0, 4.0, m)
    d, d1, d2 = coeffs.d, coeffs.d1, coeffs.d2
    calls = [
        (lambda X, a: coeffs.b(X, a), (d,)),
        (lambda X, a: coeffs.sigma(X, a), (d, d1)),
        (lambda X, a: coeffs.r(X, a), ()),
        (lambda X, a: coeffs.l(X), ()),
        (lambda X, a: coeffs.sigma_tilde(a), (d, d2)),
    ]
    for f, tail in calls:
        batch = np.asarray(f(X, a))
        assert batch.shape == (m,) + tail
        for k in range(m):
            assert np.array_equal(batch[k], np.asarray(f(X[k : k + 1], a[k : k + 1]))[0])


def test_G_filtering_evaluates_the_jet_once(cfg1d, rng):
    calls = {"p": 0, "q": 0}
    jet = _kappa_jet(rng, cfg1d)

    def counted(name, field):
        def wrapped(X):
            calls[name] += 1
            return field(X)

        return wrapped

    counting = ham.JetArgs(counted("p", jet.p), counted("q", jet.q), jet.M)
    mu = random_probability_measure(rng)
    grid = np.linspace(-2.0, 2.0, 41)
    ham.G_filtering(mu, counting, ham.make_bounded_filter_coeffs(), grid)
    assert calls == {"p": 1, "q": 1}


def test_coefficient_checker_accepts_and_rejects(rng):
    ok = ham.check_coefficient_assumptions(LQ, GRID[::40], rng)
    assert ok.passed, ok.failures
    bad = ham.FilteringCoeffs(
        d=1,
        d1=1,
        d2=1,
        b=LQ.b,
        sigma=LQ.sigma,
        sigma_tilde=LQ.sigma_tilde,
        r=LQ.r,
        l=LQ.l,
        bounds={"sigma": 0.5},  # declared tighter than reality
        delta=4.0,  # declared stronger than sigma^2
    )
    rep = ham.check_coefficient_assumptions(bad, GRID[::40], rng)
    assert not rep.passed


def test_coefficient_checker_enforces_each_declared_constant(rng):
    base = ham.make_bounded_filter_coeffs()
    assert ham.check_coefficient_assumptions(base, GRID[::40], rng).passed
    # sigma = 1 + 0.3 sin(10 x) is Lipschitz with constant 3 against the declared
    # 0.3; the largest declared constant (r's 16.5) must not cover it
    wiggly = dataclasses.replace(base, sigma=lambda X, a: (1.0 + 0.3 * np.sin(10.0 * X))[:, :, None])
    rep = ham.check_coefficient_assumptions(wiggly, GRID[::40], rng)
    assert not rep.passed
    assert [(f["coefficient"], f["constant"]) for f in rep.failures] == [("sigma", "lipschitz")]
    assert 2.0 < rep.stats["lip"]["sigma"] <= 3.0
    # the declared sigma_tilde bound is sup-checked over the control grid
    tight = dataclasses.replace(base, bounds={**base.bounds, "sigma_tilde": 0.4})
    rep = ham.check_coefficient_assumptions(tight, GRID[::40], rng)
    assert [(f["coefficient"], f["constant"]) for f in rep.failures] == [("sigma_tilde", "bound")]
    assert rep.stats["sigma_tilde"] == 0.5
    with pytest.raises(ValueError):
        ham.check_coefficient_assumptions(
            dataclasses.replace(base, lip={**base.lip, "sigma_tilde": 0.0}), GRID[::40], rng
        )


# sigma sigma^T with eigenvalues (OFF_AXIS_DELTA - 1e-3, 4) along axes rotated
# off the coordinate ones, so only a near-worst direction sees the defect
OFF_AXIS_DELTA = 0.5


def _off_axis_coeffs(declared):
    theta = 0.7
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    sig = rot @ np.diag([np.sqrt(OFF_AXIS_DELTA - 1e-3), 2.0])
    return ham.FilteringCoeffs(
        d=2,
        d1=2,
        d2=1,
        b=lambda X, a: np.zeros_like(X),
        sigma=lambda X, a: np.broadcast_to(sig, (len(X), 2, 2)),
        sigma_tilde=lambda a: np.zeros((len(a), 2, 1)),
        r=lambda X, a: np.zeros(len(X)),
        l=lambda X: np.zeros(len(X)),
        delta=declared,
    )


@pytest.mark.parametrize(
    "coeffs",
    [LQ, ham.make_bounded_filter_coeffs(), _off_axis_coeffs(OFF_AXIS_DELTA)],
    ids=["lq1d", "filter1d", "off-axis-2d"],
)
def test_coefficient_checker_matches_the_per_control_loop(coeffs):
    got = ham.check_coefficient_assumptions(coeffs, GRID[::40], np.random.default_rng(5))
    assert got.stats == per_control_coefficient_stats(coeffs, GRID[::40], np.random.default_rng(5))


def test_coefficient_checker_rejects_off_axis_ellipticity_in_2d(rng):
    rep = ham.check_coefficient_assumptions(_off_axis_coeffs(OFF_AXIS_DELTA), GRID[::40], rng)
    assert not rep.passed
    assert [f["coefficient"] for f in rep.failures] == ["ellipticity"]


def test_coefficient_checker_ellipticity_is_exact_in_2d(rng):
    rep = ham.check_coefficient_assumptions(_off_axis_coeffs(OFF_AXIS_DELTA), GRID[::40], rng)
    assert rep.stats["ellipticity_min"] == pytest.approx(OFF_AXIS_DELTA - 1e-3, rel=1e-12)
    rep = ham.check_coefficient_assumptions(_off_axis_coeffs(OFF_AXIS_DELTA - 1e-3), GRID[::40], rng)
    assert rep.passed, rep.failures


# ---------------------------------------------------------------------------
# prediction side
# ---------------------------------------------------------------------------


def test_hat_weights_examples():
    assert ham.hat_weights(ham.vertex_action(2, 0b01), 1) == (1.0, 0.0)
    assert ham.hat_weights(ham.vertex_action(2, 0), 1) == (0.0, 1.0)
    assert ham.hat_weights(ham.uniform_action(2), 1) == (0.5, 0.5)
    with pytest.raises(ValueError):
        ham.hat_weights(ham.uniform_action(2), 3)


def test_hat_weights_partition_exact(rng):
    for _ in range(50):
        K = int(rng.integers(2, 4))
        a = ham.SimplexAction(K, rng.dirichlet(np.ones(2**K)))
        for i in range(1, K + 1):
            hi, hmi = ham.hat_weights(a, i)
            assert hi + hmi == 1.0


@settings(max_examples=100, deadline=None)
@given(
    action=st.integers(1, 3).flatmap(
        lambda K: st.tuples(
            st.just(K),
            st.lists(st.floats(0.0, 1e3), min_size=2**K, max_size=2**K).filter(
                lambda w: sum(w) > 0
            ),
        )
    )
)
def test_hat_weights_sum_to_one(action):
    K, raw = action
    w = np.asarray(raw) / np.sum(raw)
    a = ham.SimplexAction(K, w)
    masks = np.arange(2**K)
    for i in range(1, K + 1):
        hi, hmi = ham.hat_weights(a, i)
        assert hi + hmi == 1.0
        assert hmi == pytest.approx(np.sum(a.weights[(masks >> (i - 1) & 1) == 0]), abs=1e-12)


def test_subset_vectors_table():
    for K in range(1, 5):
        E = ham.subset_vectors(K)
        assert E.shape == (2**K, K)
        assert not E.flags.writeable
        for mask in range(2**K):
            for i in range(1, K + 1):
                assert E[mask, i - 1] == (mask >> (i - 1)) & 1
        with pytest.raises(ValueError):
            E[0, 0] = 1.0


def test_V_vectors_examples():
    v1, vm1 = V_vectors(ham.vertex_action(2, 0b01), 1)
    assert np.array_equal(v1, [0.0, 1.0])
    assert np.array_equal(vm1, [0.0, 0.0])
    v1u, _ = V_vectors(ham.uniform_action(2), 1)
    assert np.allclose(v1u, [0.0, 0.5], atol=1e-15)
    # vanishing conditioning weight: zero-vector convention
    v1e, vm1e = V_vectors(ham.vertex_action(2, 0), 1)
    assert np.array_equal(v1e, [0.0, 0.0])
    assert np.array_equal(vm1e, [0.0, 0.0])


def test_V_vectors_norm_bound_and_cleared_identity(rng):
    for _ in range(50):
        K = int(rng.integers(2, 4))
        a = ham.SimplexAction(K, rng.dirichlet(np.ones(2**K)))
        E = ham.subset_vectors(K)
        masks = np.arange(2**K)
        for i in range(1, K + 1):
            hi, hmi = ham.hat_weights(a, i)
            vi, vmi = V_vectors(a, i)
            assert np.linalg.norm(vi) <= 2.0 ** (K - 1) + 1e-12
            assert np.linalg.norm(vmi) <= 2.0 ** (K - 1) + 1e-12
            member = (masks >> (i - 1) & 1).astype(bool)
            cleared = a.weights[member] @ (1.0 - E[member])
            assert np.allclose(hi * vi, cleared, atol=2e-16, rtol=4e-16)


def _regret_problem(K, seed):
    """A 1-3 atom probability measure on [-2, 2]^K, a field q(X) = sin(X . c) B
    and a matrix M, with B and M symmetric."""
    rng = np.random.default_rng(seed)
    n_atoms = int(rng.integers(1, 4))
    mu = ms.SignedAtomicMeasure(
        K, rng.uniform(-2, 2, (n_atoms, K)), rng.dirichlet(np.ones(n_atoms)), probability=True
    )
    c = rng.standard_normal(K)
    B = rng.standard_normal((K, K))
    B = B + B.T
    M = rng.standard_normal((K, K))
    M = M + M.T
    return rng, mu, (lambda X: np.sin(np.atleast_2d(X) @ c)[:, None, None] * B), M, B


@settings(max_examples=60, deadline=None)
@given(K=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_batched_K_regret_matches_rows_and_conditional_oracle(K, seed):
    rng, mu, q, M, B = _regret_problem(K, seed)
    n_w = 2**K
    member = (np.arange(n_w) >> (int(rng.integers(K))) & 1).astype(bool)
    rows = [rng.dirichlet(np.ones(n_w)) for _ in range(4)]
    rows.append(np.eye(n_w)[rng.integers(n_w)])
    for side in (member, ~member):  # hat = 0 and hat = 1 for that action
        w = np.where(side, rng.dirichlet(np.ones(n_w)), 0.0)
        rows.append(w / w.sum())
    W = np.array(rows)
    scale = K * (1.0 + np.linalg.norm(M) + np.linalg.norm(B))
    for i in range(1, K + 1):
        batched = ham.K_regret(i, W, mu, q, M)
        assert batched.shape == (len(W),)
        for w, value in zip(W, batched):
            assert abs(value - ham.K_regret(i, w[None], mu, q, M)[0]) <= 1e-12 * scale
            oracle = K_regret_conditional(i, ham.SimplexAction(K, w), mu, q, M)
            assert abs(value - oracle) <= 1e-12 * scale


def test_K_regret_trivial_and_vertex():
    mu = ms.dirac(np.zeros(2))
    q0 = lambda X: np.zeros((np.atleast_2d(X).shape[0], 2, 2))
    uniform = ham.uniform_action(2).weights[None]
    assert ham.K_regret(1, uniform, mu, q0, np.zeros((2, 2)))[0] == 0.0
    val = ham.K_regret(1, ham.vertex_action(2, 0b01).weights[None], mu, q0, np.eye(2))[0]
    assert val == pytest.approx(0.5)


def test_K_regret_monotone_and_homogeneous(rng):
    mu = random_probability_measure(rng, dim=2)
    a = rng.dirichlet(np.ones(4))[None]
    B = rng.standard_normal((2, 2))
    B = 0.5 * (B + B.T)
    q = lambda X: np.broadcast_to(B, (np.atleast_2d(X).shape[0], 2, 2))
    M = rng.standard_normal((2, 2))
    M = 0.5 * (M + M.T)
    bump = np.array([[0.4, 0.1], [0.1, 0.2]])  # positive definite
    assert ham.K_regret(1, a, mu, q, M)[0] <= ham.K_regret(1, a, mu, q, M + bump)[0] + 1e-12
    c = 2.6
    qc = lambda X: c * q(X)
    assert ham.K_regret(2, a, mu, qc, c * M)[0] == pytest.approx(
        c * ham.K_regret(2, a, mu, q, M)[0], rel=1e-12
    )


def test_K_regret_off_the_simplex_stays_under_the_scaled_supremum():
    # weights validated within 1e-12 of the simplex may carry a little extra
    # mass; each side is paired by its own mass, so K_regret stays homogeneous
    # and with 1e-13 extra mass does not exceed mass * G_regret by 1e-15, also
    # where the side without action i is nearly empty
    for s in ham.regret_samples(4, 200, np.random.default_rng(11)):
        qbar, M = ham._regret_data(s["mu"], s["q1"], s["M1"])
        G, i, W = ham._regret_argmax(qbar, M)
        member, _ = ham._direction(4, i)
        rows = W + 1e-13 * np.eye(16)  # the extra mass on each subset in turn
        if W[member].sum() > 0:
            thin = np.where(member, W, 0.0) / W[member].sum()
            thin[np.flatnonzero(~member)[0]] = 1.01e-13
            rows = np.vstack([rows, thin])
        K = ham.K_regret(i, rows, s["mu"], s["q1"], s["M1"])
        assert np.all(K <= rows.sum(axis=1) * G + 1e-15)


def test_G_regret_trivial_and_dominates_vertices(rng):
    mu = random_probability_measure(rng, dim=2)
    q0 = lambda X: np.zeros((np.atleast_2d(X).shape[0], 2, 2))
    assert ham.G_regret(mu, q0, np.zeros((2, 2))) == pytest.approx(0.0, abs=1e-12)
    M = np.array([[0.7, -0.2], [-0.2, 0.3]])
    val = ham.G_regret(mu, q0, M)
    for i in (1, 2):
        assert val >= np.max(ham.K_regret(i, np.eye(4), mu, q0, M)) - 1e-12  # every vertex


def test_G_regret_matches_dense_grid_oracle():
    mu = ms.dirac(np.zeros(2))
    q0 = lambda X: np.zeros((np.atleast_2d(X).shape[0], 2, 2))
    M = np.diag([1.0, 0.0])
    solver = ham.G_regret(mu, q0, M)
    # independent brute force over the simplex lattice, which holds the maximizer
    lattice = simplex_lattice(4, 50)
    best = max(float(np.max(ham.K_regret(i, lattice, mu, q0, M))) for i in (1, 2))
    assert best == pytest.approx(0.5, abs=1e-9)
    assert abs(solver - 0.5) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(K=st.integers(1, 2), seed=st.integers(0, 2**32 - 1))
def test_G_regret_matches_the_segment_oracle(K, seed):
    _, mu, q, M, B = _regret_problem(K, seed)
    scale = K * (1.0 + np.linalg.norm(M) + np.linalg.norm(B))
    assert abs(ham.G_regret(mu, q, M) - G_regret_segments(mu, q, M)) <= 1e-12 * scale


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_G_regret_matches_the_three_action_oracle(seed):
    _, mu, q, M, B = _regret_problem(3, seed)
    scale = 3 * (1.0 + np.linalg.norm(M) + np.linalg.norm(B))
    assert abs(ham.G_regret(mu, q, M) - G_regret_three_actions(mu, q, M)) <= 1e-12 * scale


LATTICE_LEVELS = {1: 8, 2: 8, 3: 6, 4: 3}  # 9, 165, 1716 and 816 lattice rows


@settings(max_examples=40, deadline=None)
@given(K=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_G_regret_is_attained_and_dominates_every_action(K, seed):
    rng, mu, q, M, B = _regret_problem(K, seed)
    scale = K * (1.0 + np.linalg.norm(M) + np.linalg.norm(B))
    value = ham.G_regret(mu, q, M)
    best, i, w = ham._regret_argmax(*ham._regret_data(mu, q, M))
    assert best == value
    assert ham.K_regret(i, w[None], mu, q, M)[0] == value
    W = np.vstack([simplex_lattice(2**K, LATTICE_LEVELS[K]), rng.dirichlet(np.ones(2**K), 20)])
    for i in range(1, K + 1):
        assert np.max(ham.K_regret(i, W, mu, q, M)) <= value + 1e-12 * scale


def test_G_regret_rejects_more_than_four_actions():
    mu = ms.dirac(np.zeros(5))
    q0 = lambda X: np.zeros((np.atleast_2d(X).shape[0], 5, 5))
    with pytest.raises(ValueError, match="K <= 4"):
        ham.G_regret(mu, q0, np.eye(5))


def test_simplex_lattice_matches_filtered_product():
    for dim, levels in ((1, 3), (2, 4), (3, 5), (4, 6), (5, 4)):
        product = {
            combo
            for combo in itertools.product(range(levels + 1), repeat=dim)
            if sum(combo) == levels
        }
        lattice = simplex_lattice(dim, levels)
        assert len(lattice) == len(product)
        assert {tuple(int(v) for v in np.rint(row * levels)) for row in lattice} == product
        assert np.array_equal(lattice, np.array(sorted(product), dtype=float) / levels)


def test_G_regret_relabeling_invariance(rng):
    # swap the two actions everywhere: the measure's coordinates, the fields,
    # M, the direction and the subset masks
    locs = rng.uniform(-1, 1, (3, 2))
    w = rng.dirichlet(np.ones(3))
    mu = ms.SignedAtomicMeasure(2, locs, w, probability=True)
    mu_p = ms.SignedAtomicMeasure(2, locs[:, ::-1], w, probability=True)
    B = rng.standard_normal((2, 2))
    B = 0.5 * (B + B.T)
    P = np.array([[0.0, 1.0], [1.0, 0.0]])
    Bp = P @ B @ P
    q = lambda X: np.broadcast_to(B, (np.atleast_2d(X).shape[0], 2, 2))
    qp = lambda X: np.broadcast_to(Bp, (np.atleast_2d(X).shape[0], 2, 2))
    M = rng.standard_normal((2, 2))
    M = 0.5 * (M + M.T)
    lattice = simplex_lattice(4, 10)
    swapped = lattice[:, [0b00, 0b10, 0b01, 0b11]]
    sup = max(float(np.max(ham.K_regret(i, lattice, mu, q, M))) for i in (1, 2))
    sup_p = max(float(np.max(ham.K_regret(i, swapped, mu_p, qp, P @ M @ P))) for i in (1, 2))
    assert sup == pytest.approx(sup_p, rel=1e-12)


def test_regret_rejects_M_of_the_wrong_shape():
    mu = ms.dirac(np.zeros(2))
    q0 = lambda X: np.zeros((np.atleast_2d(X).shape[0], 2, 2))
    with pytest.raises(ValueError, match=r"\(3, 3\)"):
        ham.K_regret(1, ham.uniform_action(2).weights[None], mu, q0, np.eye(3))
    with pytest.raises(ValueError, match=r"\(3, 3\)"):
        ham.G_regret(mu, q0, np.eye(3))
    with pytest.raises(ValueError, match=r"\(2,\)"):
        ham.G_regret(mu, q0, np.ones(2))


def test_K_regret_validates_action_arrays():
    mu = ms.dirac(np.zeros(2))
    q0 = lambda X: np.zeros((np.atleast_2d(X).shape[0], 2, 2))
    for bad in ([[0.5, 0.5, 0.5, -0.5]], [[0.5, 0.5, 0.5, 0.5]], [[0.5, 0.5]], [0.25] * 4):
        with pytest.raises(ValueError):
            ham.K_regret(1, np.array(bad), mu, q0, np.eye(2))


def test_check_assumptions_regret_small_sample(rng):
    cfgs = {2: fm.default_config(2)}
    samples = ham.regret_samples(2, 25, rng)
    rep = ham.check_assumptions_regret(samples, cfgs)
    assert rep.passed, rep.failures[:3]
    assert rep.stats["max_sign_gap"] <= 1e-9
    assert rep.stats["max_lipschitz_ratio"] <= 1.0


def test_check_assumptions_regret_trivial_cases(rng):
    cfgs = {2: fm.default_config(2)}
    mu = random_probability_measure(rng, dim=2)
    B = np.eye(2)
    q = lambda X: np.broadcast_to(B, (np.atleast_2d(X).shape[0], 2, 2))
    sample = {
        "K": 2,
        "mu": mu,
        "nu": mu,  # identical measures: sign gap exactly zero
        "q1": q,
        "q2": q,
        "M1": np.eye(2),
        "M2": np.eye(2),
        "M": np.eye(2),
        "eps": 0.1,
        "i": 1,
        "a": ham.uniform_action(2),
    }
    rep = ham.check_assumptions_regret([sample], cfgs)
    assert rep.passed
    assert rep.stats["max_sign_gap"] == pytest.approx(0.0, abs=1e-15)


def test_simplex_action_validation():
    with pytest.raises(ValueError):
        ham.SimplexAction(2, [0.5, 0.5, 0.5, -0.5])
    with pytest.raises(ValueError):
        ham.SimplexAction(2, [0.5, 0.5, 0.5, 0.5])
    with pytest.raises(ValueError):
        ham.SimplexAction(2, [1.0, 0.0])
