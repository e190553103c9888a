import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (
    G_regret_segments,
    G_regret_three_actions,
    K_regret_conditional,
    V_vectors,
    filtering_gap_by_closures,
    filtering_record_by_two_passes,
    per_control_coefficient_stats,
    shifted_closure_G,
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
        rhs = shifted_closure_G(mu, m, jet.p, jet.q, jet.M, LQ, GRID)
        assert lhs == pytest.approx(rhs, rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.floats(-3.0, 3.0))
def test_Ge_extend_with_x_free_coefficients_is_G(cfg1d, seed, m):
    # lq1d coefficients do not depend on x and the jet is read at the atoms
    # themselves, so the translation changes no bit
    rng = np.random.default_rng(seed)
    mu = random_probability_measure(rng)
    jet = _kappa_jet(rng, cfg1d)
    grid = np.linspace(-2.0, 2.0, 41)
    assert ham.Ge_extend(mu, np.array([m]), jet, LQ, grid) == ham.G_filtering(mu, jet, LQ, grid)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.floats(-3.0, 3.0))
def test_Ge_extend_translation_with_x_dependent_coefficients(cfg1d, seed, m):
    # filter1d's drift, diffusion and running cost move with x: G^e is G at
    # the shifted measure with the jet composed with x -> x - m, up to the
    # rounding of (x + m) - m in that route
    rng = np.random.default_rng(seed)
    coeffs = ham.make_bounded_filter_coeffs()
    mu = random_probability_measure(rng)
    jet = _kappa_jet(rng, cfg1d)
    grid = np.linspace(-2.0, 2.0, 41)
    lhs = ham.Ge_extend(mu, np.array([m]), jet, coeffs, grid)
    rhs = shifted_closure_G(mu, np.array([m]), jet.p, jet.q, jet.M, coeffs, grid)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


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


def test_assumption_i_fails_on_a_gap_of_zero_scale(rng, monkeypatch):
    # jets differing in p only, with every jet distance read as 0: the gap
    # has no finite constant
    monkeypatch.setattr(ham, "linear_growth_norm", lambda f, dim, extra_points=None: 0.0)
    mu = random_probability_measure(rng)
    j1, j2 = _standard_jet(p_slope=1.0), _standard_jet(p_slope=2.0)
    lhs = abs(ham.Ge_extend(mu, np.zeros(1), j1, LQ, GRID) - ham.Ge_extend(mu, np.zeros(1), j2, LQ, GRID))
    rep = ham.check_assumption_i_filtering(LQ, [(mu, np.zeros(1), j1, j2)], GRID)
    assert not rep.passed and lhs > 1e-12
    assert rep.failures == [{"lhs": lhs, "scale": 0.0}]
    assert rep.stats["fitted_constant"] == 0.0


def test_assumption_i_fails_on_a_non_finite_ratio(rng):
    # a p field of NaNs makes both the gap and its scale NaN
    mu = random_probability_measure(rng)
    nan_jet = ham.JetArgs(lambda X: np.full(X.shape, np.nan), _standard_jet().q, np.ones((1, 1)))
    rep = ham.check_assumption_i_filtering(LQ, [(mu, np.zeros(1), _standard_jet(), nan_jet)], GRID)
    assert not rep.passed
    [failure] = rep.failures
    assert set(failure) == {"lhs", "scale"} and math.isnan(failure["lhs"]) and math.isnan(failure["scale"])


def test_filtering_coefficients_act_on_their_own_dimension(rng):
    # unchecked, numpy broadcast the 1-d closures over the atoms of a plane
    # measure and returned a value that belongs to no model
    mu2 = random_probability_measure(rng, dim=2)
    with pytest.raises(ValueError, match="dimension 1 got atoms of dimension 2"):
        ham.G_filtering(mu2, _standard_jet(), LQ, GRID)
    with pytest.raises(ValueError, match="dimension 1 got atoms of dimension 2"):
        ham.Ge_extend(mu2, np.zeros(2), _standard_jet(), LQ, GRID)
    th = ms.Theta(0.0, mu2, np.zeros(2))
    with pytest.raises(ValueError, match="dimension 1 got atoms of dimension 2"):
        ham.check_assumption_ii_filtering(LQ, th, th, 0.1, fm.default_config(2), GRID)
    mu = random_probability_measure(rng)
    with pytest.raises(ValueError, match=r"dimension 1 got atoms of dimension 1 and M of shape \(2, 2\)"):
        ham.K_filtering(GRID, mu, _standard_jet(M=np.eye(2)), LQ)


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


def test_checks_over_no_samples_are_input_errors():
    # each passed before: no failures over no samples
    with pytest.raises(ValueError, match="at least one"):
        ham.check_assumption_i_filtering(LQ, [], GRID)
    with pytest.raises(ValueError, match="at least one"):
        ham.verify_linear_modulus([], 1.0)
    with pytest.raises(ValueError, match="at least one"):
        ham.check_assumptions_regret([], {2: fm.default_config(2)})


RECORD_GRID = np.linspace(-2.0, 2.0, 41)


def _atoms(rng, d, n):
    """A probability measure with exactly n atoms on [-2, 2]^d."""
    return ms.SignedAtomicMeasure(d, rng.uniform(-2.0, 2.0, (n, d)), rng.dirichlet(np.ones(n)), True)


def _assert_record_matches_closures(coeffs, th, io, eps, cfg):
    rec = ham.check_assumption_ii_filtering(coeffs, th, io, eps, cfg, RECORD_GRID)
    difference, scale = filtering_gap_by_closures(coeffs, th, io, eps, cfg, RECORD_GRID)
    assert abs(rec.difference - difference) <= 1e-13 * scale
    assert rec.d_F == fm.d_F(th, io, cfg)


@pytest.mark.parametrize("n_atoms", [1, 2, 3])
@pytest.mark.parametrize("name", ["lq1d", "filter1d"])
def test_assumption_ii_record_matches_shifted_closures(cfg1d, name, n_atoms):
    # the one-pass record against the closure route: shifted measures, jets
    # composed with x -> x - m and one kappa_eval pass per order and side
    coeffs = ham.COEFFS_REGISTRY[name]()
    rng = np.random.default_rng(100 * n_atoms)
    for eps in (0.5, 0.1, 0.02):
        for _ in range(4):
            mu, nu = _atoms(rng, 1, n_atoms), _atoms(rng, 1, n_atoms)
            th = ms.Theta(0.0, mu, rng.uniform(-1, 1, 1))
            io = ms.Theta(0.0, nu, rng.uniform(-1, 1, 1))
            _assert_record_matches_closures(coeffs, th, io, eps, cfg1d)


def _filter2d() -> ham.FilteringCoeffs:
    """filter1d's shape in d = 2: x-dependent drift, diagonal diffusion and cost."""

    def b(X, a):
        return a[:, None] * (0.5 + 0.5 / (1.0 + X * X)) + 0.4 * np.sin(X)

    def sig(X, a):
        return (1.0 + 0.3 * np.sin(X))[:, :, None] * np.eye(2)

    def r(X, a):
        return 0.3 * np.cos(X[:, 0]) + a**2 * (1.0 + 0.2 * np.cos(X[:, 1])) / 1.2

    def sig_t(a):
        return np.full((len(a), 2, 1), 0.5)

    def l(X):
        return np.tanh(np.sum(X * X, axis=1))

    return ham.FilteringCoeffs(2, 2, 1, b, sig, sig_t, r, l)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    sizes=st.tuples(st.integers(1, 3), st.integers(1, 3)),
    eps=st.sampled_from([0.5, 0.1, 0.02]),
)
def test_assumption_ii_record_matches_shifted_closures_in_2d(seed, sizes, eps):
    rng = np.random.default_rng(seed)
    mu, nu = (_atoms(rng, 2, n) for n in sizes)
    th = ms.Theta(0.0, mu, rng.uniform(-1, 1, 2))
    io = ms.Theta(0.0, nu, rng.uniform(-1, 1, 2))
    _assert_record_matches_closures(_filter2d(), th, io, eps, fm.default_config(2))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.sampled_from([1, 2]),
    sizes=st.tuples(st.integers(1, 9), st.integers(1, 9)),
    eps=st.sampled_from([0.5, 0.1, 0.02]),
)
def test_assumption_ii_record_is_the_two_pass_record_bit_for_bit(seed, d, sizes, eps):
    # both sides in one control-grid pass against one pass per side
    rng = np.random.default_rng(seed)
    mu, nu = (_atoms(rng, d, n) for n in sizes)
    th = ms.Theta(0.0, mu, rng.uniform(-1, 1, d))
    io = ms.Theta(0.0, nu, rng.uniform(-1, 1, d))
    coeffs, cfg = (ham.make_bounded_filter_coeffs(), _filter2d())[d - 1], fm.default_config(d)
    rec = ham.check_assumption_ii_filtering(coeffs, th, io, eps, cfg, RECORD_GRID)
    assert rec == filtering_record_by_two_passes(coeffs, th, io, eps, cfg, RECORD_GRID)


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


# the sup bounds, Lipschitz constants (in x, uniform over controls) and least
# eigenvalue of sigma sigma^T that each shipped coefficient set keeps
SHIPPED_CONSTANTS = {
    "lq1d": (LQ, {"sigma": 1.0, "sigma_tilde": 1.0}, {"b": 0.0, "sigma": 0.0, "r": 0.0}, 1.0),
    "filter1d": (
        ham.make_bounded_filter_coeffs(),
        {"b": 4.4, "sigma": 1.3, "sigma_tilde": 0.5, "r": 16.5, "l": 1.0},
        {"b": 4.4, "sigma": 0.3, "r": 16.5, "l": 2.0},
        0.49,
    ),
}


@pytest.mark.parametrize("name", sorted(SHIPPED_CONSTANTS))
def test_shipped_coefficients_meet_their_constants(name):
    coeffs, bounds, lip, delta = SHIPPED_CONSTANTS[name]
    stats = per_control_coefficient_stats(coeffs, GRID[::40], np.random.default_rng(5))
    assert {key: stats[key] for key in bounds if stats[key] > bounds[key] * (1 + 1e-9)} == {}
    assert {key: stats["lip"][key] for key in lip if stats["lip"][key] > lip[key] * (1 + 1e-9)} == {}
    assert stats["ellipticity_min"] >= delta - 1e-12


# ---------------------------------------------------------------------------
# prediction side
# ---------------------------------------------------------------------------


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
            member = (masks >> (i - 1) & 1).astype(bool)
            hi = a.weights[member].sum()
            vi, vmi = V_vectors(a, i)
            assert np.linalg.norm(vi) <= 2.0 ** (K - 1) + 1e-12
            assert np.linalg.norm(vmi) <= 2.0 ** (K - 1) + 1e-12
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


@settings(max_examples=30, deadline=None)
@given(K=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_regret_sign_gap_is_the_two_pass_gap_bit_for_bit(K, seed):
    # one Hessian pass at the stacked atoms against one K_regret per side,
    # each with its own pass of the Hessian field, nu drawn with its own atom count
    rng = np.random.default_rng(seed)
    cfgs = {K: fm.default_config(K)}
    for s in ham.regret_samples(K, 3, rng):
        s["nu"] = random_probability_measure(rng, dim=K, max_atoms=4)
        hess = fm.kappa_hessian_field(fm.make_kappa(s["mu"], s["nu"], s["eps"], cfgs[K]))
        i, W = s["i"], s["a"].weights[None]
        k_mu, k_nu = (ham.K_regret(i, W, eta, hess, s["M"])[0] for eta in (s["mu"], s["nu"]))
        assert ham.check_assumptions_regret([s], cfgs).stats["max_sign_gap"] == float(k_mu - k_nu)


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


def _sign_and_lipschitz_sample(rng):
    """A sample of two equal measures, equal jets and the uniform action."""
    mu = random_probability_measure(rng, dim=2)
    q = lambda X: np.broadcast_to(np.eye(2), (np.atleast_2d(X).shape[0], 2, 2))
    return {"K": 2, "mu": mu, "nu": mu, "q1": q, "q2": q, "M1": np.eye(2), "M2": np.eye(2),
            "M": np.eye(2), "eps": 0.1, "i": 1, "a": ham.uniform_action(2)}


def test_check_assumptions_regret_fails_the_lipschitz_bound(rng, monkeypatch):
    # equal jets bound the gap by 0, and G_regret is made to answer 0 then 1
    values = iter([0.0, 1.0])
    monkeypatch.setattr(ham, "G_regret", lambda mu, q, M: next(values))
    rep = ham.check_assumptions_regret([_sign_and_lipschitz_sample(rng)], {2: fm.default_config(2)})
    assert not rep.passed
    assert rep.failures == [{"sample": 0, "check": "lipschitz", "lhs": 1.0, "bound": 0.0}]


def test_check_assumptions_regret_fails_the_sign_check(rng, monkeypatch):
    # a kernel Hessian of I at mu's atoms and 0 at nu's: with M = I the
    # pairing at mu exceeds the pairing at nu
    sample = _sign_and_lipschitz_sample(rng)
    n = sample["mu"].n_atoms

    def hessian_field(kernel):
        return lambda X: np.where((np.arange(len(X)) < n)[:, None, None], np.eye(2), 0.0)

    monkeypatch.setattr(fm, "kappa_hessian_field", hessian_field)
    rep = ham.check_assumptions_regret([sample], {2: fm.default_config(2)})
    W, mu = sample["a"].weights[None], sample["mu"]

    def constant(c):
        return lambda X: np.broadcast_to(c * np.eye(2), (len(X), 2, 2))

    k_mu, k_nu = (ham.K_regret(1, W, mu, constant(c), np.eye(2))[0] for c in (1.0, 0.0))
    gap = float(k_mu - k_nu)
    assert not rep.passed and gap > 1e-9
    assert rep.failures == [{"sample": 0, "check": "sign", "gap": gap}]


def test_subset_actions_need_at_most_sixteen_base_actions():
    # unchecked, each made 2^K entries whatever K was
    makers = [
        ham.subset_vectors,
        ham.uniform_action,
        lambda K: ham.vertex_action(K, 0),
        lambda K: ham.SimplexAction(K, [1.0]),
    ]
    for make in makers:
        with pytest.raises(ValueError, match="K <= 16"):
            make(17)
    assert ham.uniform_action(16).weights.size == 2**16


def test_simplex_action_validation():
    with pytest.raises(ValueError):
        ham.SimplexAction(2, [0.5, 0.5, 0.5, -0.5])
    with pytest.raises(ValueError):
        ham.SimplexAction(2, [0.5, 0.5, 0.5, 0.5])
    with pytest.raises(ValueError):
        ham.SimplexAction(2, [1.0, 0.0])


def test_simplex_action_needs_an_action():
    # unchecked, an action over no base actions was accepted with one weight
    with pytest.raises(ValueError, match="n_actions"):
        ham.SimplexAction(0, [1.0])


@pytest.mark.parametrize("mask", [-1, 4, 7])
def test_vertex_action_rejects_a_mask_outside_the_subsets(mask):
    # unchecked, mask -1 gave the mask-3 action through negative indexing,
    # and 4 or 7 a bare IndexError
    with pytest.raises(ValueError, match="mask"):
        ham.vertex_action(2, mask)
