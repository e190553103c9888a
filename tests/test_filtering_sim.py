import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import lq_total_value_dp, scalar_run_costs
from conftest import random_probability_measure
from fwlab import filtering_sim as fs
from fwlab import hamiltonians as ham
from fwlab import measures as ms
from fwlab._rng import mean_stderr, substream

LQ = fs.LQParams(sigma=1.0, sigma_tilde=0.5, horizon=1.0)
MU2 = ms.SignedAtomicMeasure(1, [[0.0], [0.6]], [0.5, 0.5], probability=True)


def _null_coeffs(sigma=0.0, sigma_tilde=0.0, r_const=0.0, l_const=0.0):
    return ham.FilteringCoeffs(
        1,
        1,
        1,
        b=lambda X, a: np.zeros((np.atleast_2d(X).shape[0], 1)),
        sigma=lambda X, a: np.full((np.atleast_2d(X).shape[0], 1, 1), sigma),
        sigma_tilde=lambda a: np.full((len(a), 1, 1), sigma_tilde),
        r=lambda X, a: np.full(np.atleast_2d(X).shape[0], r_const),
        l=lambda X: np.full(np.atleast_2d(X).shape[0], l_const),
    )


def simulate_conditional_law(
    t, mu, policy, coeffs, cfg, run=0, w_seed=None, init_seed=None, b_seed=None
):
    """Run ``run``'s empirical conditional-law path, as (time, measure) pairs.

    ``w_seed``, ``init_seed`` and ``b_seed`` draw the common, initial and
    idiosyncratic noise (substreams 0, 1 and 2) from that seed instead of
    ``cfg.seed``, which splits the three sources for variance and
    determinism studies.
    """
    seeds = (w_seed, init_seed, b_seed)

    def split(seed, run, source):
        return substream(seed if seeds[source] is None else seeds[source], run, source)

    w = np.full(cfg.n_particles, 1.0 / cfg.n_particles)
    with mock.patch.object(fs, "substream", split):
        return [
            (clock, ms.SignedAtomicMeasure(coeffs.d, X[0], w, True))
            for clock, X, _ in fs._run_paths(t, mu, policy, coeffs, cfg, [run])
        ]


def test_frozen_dynamics_keeps_measure():
    cfg = fs.SimConfig(dt=0.1, n_particles=8, horizon=0.5, seed=1)
    path = simulate_conditional_law(0.0, MU2, fs.constant_policy(0.0), _null_coeffs(), cfg)
    first = path[0][1]
    for _, m in path:
        assert np.array_equal(m.locations, first.locations)


def test_shared_noise_pure_translation():
    cfg = fs.SimConfig(dt=0.05, n_particles=6, horizon=0.4, seed=2)
    coeffs = _null_coeffs(sigma_tilde=1.0)
    path = simulate_conditional_law(0.0, MU2, fs.constant_policy(0.0), coeffs, cfg)
    x0 = path[0][1].locations
    for _, m in path:
        shift = m.locations - x0
        assert np.allclose(shift, shift[0], atol=1e-14)


def test_linear_drift_mean_matches_ode(rng):
    coeffs = ham.make_lq_coeffs(sigma=1.0, sigma_tilde=0.5)
    cfg = fs.SimConfig(dt=0.01, n_particles=1000, horizon=0.5, seed=5)
    means = []
    for run in range(24):
        path = simulate_conditional_law(
            0.0, MU2, fs.constant_policy(0.7), coeffs, cfg, run=run
        )
        means.append(float(path[-1][1].mean()[0]))
    est = np.mean(means)
    se = np.std(means, ddof=1) / np.sqrt(len(means))
    assert abs(est - (0.3 + 0.7 * 0.5)) <= 3 * se


def test_cost_trivial_cases():
    cfg = fs.SimConfig(dt=0.05, n_particles=10, horizon=0.5, runs=3, seed=0)
    est, err = fs.estimate_cost(
        0.0, MU2, fs.constant_policy(0.0), _null_coeffs(l_const=2.5), cfg
    )
    assert est == pytest.approx(2.5, abs=1e-14)
    assert err == pytest.approx(0.0, abs=1e-14)
    est, err = fs.estimate_cost(
        0.2, MU2, fs.constant_policy(0.0), _null_coeffs(r_const=1.0), cfg
    )
    assert est == pytest.approx(0.5 - 0.2, rel=1e-12)


def test_cost_reproducible_and_order_invariant():
    coeffs = ham.make_lq_coeffs(sigma=1.0, sigma_tilde=0.5)
    cfg = fs.SimConfig(dt=0.05, n_particles=50, horizon=0.5, runs=4, seed=9)
    a = fs.estimate_cost(0.0, MU2, fs.lqg_feedback_policy(LQ), coeffs, cfg)
    b = fs.estimate_cost(0.0, MU2, fs.lqg_feedback_policy(LQ), coeffs, cfg)
    assert a == b


def test_per_run_costs_do_not_depend_on_the_run_count():
    coeffs = ham.make_lq_coeffs(sigma=1.0, sigma_tilde=0.5)
    policy = fs.lqg_feedback_policy(LQ)
    few = fs.SimConfig(dt=0.05, n_particles=40, horizon=0.5, runs=3, seed=9)
    many = fs.SimConfig(dt=0.05, n_particles=40, horizon=0.5, runs=5, seed=9)
    costs3, rows3 = fs.sample_costs(0.0, MU2, policy, coeffs, few)
    costs5, rows5 = fs.sample_costs(0.0, MU2, policy, coeffs, many)
    assert costs3 == costs5[:3]
    assert rows3 == rows5


def _block_points(block, n_particles, coeffs):
    """The _BLOCK_POINTS that makes sample_costs step ``block`` runs at a time."""
    return block * n_particles * max(coeffs.d, coeffs.d1)


@settings(max_examples=25, deadline=None)
@given(
    runs=st.integers(1, 5),
    block=st.integers(1, 5),
    n_particles=st.integers(1, 30),
    n_steps=st.integers(0, 12),
    seed=st.integers(0, 2**32 - 1),
    coeffs_name=st.sampled_from(sorted(ham.COEFFS_REGISTRY)),
)
def test_sample_costs_match_the_scalar_run_loop(runs, block, n_particles, n_steps, seed, coeffs_name):
    coeffs = ham.COEFFS_REGISTRY[coeffs_name]()
    cfg = fs.SimConfig(dt=0.05, n_particles=n_particles, horizon=0.05 * max(n_steps, 1),
                       runs=runs, seed=seed)
    t = 0.05 if n_steps == 0 else 0.0
    policy = fs.lqg_feedback_policy(LQ)
    expected = scalar_run_costs(t, MU2, policy, coeffs, cfg, fs.LawSummary)
    # with a helper thread drawing the first half of each block's normals, and
    # inline on one CPU
    for cpus in ({0, 1}, {0}):
        with mock.patch.object(fs, "_BLOCK_POINTS", _block_points(block, n_particles, coeffs)), \
                _cpus(cpus), mock.patch.object(fs, "ThreadPoolExecutor", wraps=ThreadPoolExecutor) as pools:
            blocked = fs.sample_costs(t, MU2, policy, coeffs, cfg)
        assert pools.called == (len(cpus) > 1 and min(block, runs) > 1 and n_steps > 0)
        assert blocked == expected


def _cpus(cpus):
    """Let the simulation see only these CPUs as usable."""
    return mock.patch.object(fs.os, "sched_getaffinity", lambda pid: cpus, create=True)


def test_block_size_keeps_state_buffers_under_the_mmap_threshold():
    coeffs = ham.make_lq_coeffs(sigma=1.0, sigma_tilde=0.5)
    policy = fs.lqg_feedback_policy(LQ)
    cfg = fs.SimConfig(dt=0.5, n_particles=1000, horizon=1.0, runs=64, seed=3)
    with mock.patch.object(fs, "_run_paths", wraps=fs._run_paths) as run_paths:
        fs.sample_costs(0.0, MU2, policy, coeffs, cfg)
    # 16 runs of 1000 particles: 16 000 float64, 128 000 bytes per buffer
    assert [list(call.args[5]) for call in run_paths.call_args_list] == [
        list(range(lo, lo + 16)) for lo in range(0, 64, 16)
    ]
    # a particle count past the block budget still steps one run at a time
    big = fs.SimConfig(dt=0.5, n_particles=20_000, horizon=1.0, runs=2, seed=3)
    with mock.patch.object(fs, "_run_paths", wraps=fs._run_paths) as run_paths:
        fs.sample_costs(0.0, MU2, policy, coeffs, big)
    assert [list(call.args[5]) for call in run_paths.call_args_list] == [[0], [1]]


def test_run_zero_rows_match_the_simulated_path():
    coeffs = ham.make_lq_coeffs(sigma=1.0, sigma_tilde=0.5)
    policy = fs.lqg_feedback_policy(LQ)
    cfg = fs.SimConfig(dt=0.05, n_particles=40, horizon=0.5, runs=2, seed=9)
    costs, rows = fs.sample_costs(0.0, MU2, policy, coeffs, cfg)
    path = simulate_conditional_law(0.0, MU2, policy, coeffs, cfg)
    assert [r[0] for r in rows] == [clock for clock, _ in path]
    assert [r[1] for r in rows] == [float(m.locations.mean()) for _, m in path]
    assert rows[0][3] == 0.0
    # cost_to_date is nondecreasing for the nonnegative running cost a^2
    assert all(b[3] >= a[3] for a, b in zip(rows, rows[1:]))
    assert fs.estimate_cost(0.0, MU2, policy, coeffs, cfg) == mean_stderr(costs)


def test_particle_exchangeability(rng):
    cfg = fs.SimConfig(dt=0.1, n_particles=32, horizon=0.2, seed=3)
    coeffs = ham.make_lq_coeffs()
    path = simulate_conditional_law(0.0, MU2, fs.constant_policy(0.3), coeffs, cfg)
    _, last = path[-1]
    perm = rng.permutation(last.n_atoms)
    permuted = ms.SignedAtomicMeasure(
        1, last.locations[perm], last.weights[perm], probability=True
    )
    assert permuted.mean() == pytest.approx(last.mean())
    assert permuted.second_moment() == pytest.approx(last.second_moment())


def test_sigma_zero_paths_independent_of_b_seed():
    coeffs = _null_coeffs(sigma_tilde=0.7)
    cfg = fs.SimConfig(dt=0.05, n_particles=12, horizon=0.3, seed=4)
    p1 = simulate_conditional_law(0.0, MU2, fs.constant_policy(0.0), coeffs, cfg, b_seed=100)
    p2 = simulate_conditional_law(0.0, MU2, fs.constant_policy(0.0), coeffs, cfg, b_seed=200)
    for (_, a), (_, b) in zip(p1, p2):
        assert np.array_equal(a.locations, b.locations)


def test_variance_halves_with_particle_count():
    # conditional on one common path, the estimator variance scales like 1/N
    coeffs = ham.make_lq_coeffs(sigma=1.0, sigma_tilde=0.5)
    reps = 100

    def samples(n_particles):
        cfg = fs.SimConfig(dt=0.05, n_particles=n_particles, horizon=0.25, seed=0)
        out = []
        for rep in range(reps):
            path = simulate_conditional_law(
                0.0,
                MU2,
                fs.constant_policy(0.2),
                coeffs,
                cfg,
                w_seed=77,
                init_seed=1000 + rep,
                b_seed=2000 + rep,
            )
            _, m = path[-1]
            out.append(float(np.mean(np.tanh(m.locations))))
        return np.asarray(out)

    v1 = np.var(samples(200), ddof=1)
    v2 = np.var(samples(400), ddof=1)
    assert 0.4 <= v2 / v1 <= 0.6


def test_divergence_guard():
    blow = ham.FilteringCoeffs(
        1,
        1,
        1,
        b=lambda X, a: 1e7 * np.ones((np.atleast_2d(X).shape[0], 1)),
        sigma=lambda X, a: np.zeros((np.atleast_2d(X).shape[0], 1, 1)),
        sigma_tilde=lambda a: np.zeros((len(a), 1, 1)),
        r=lambda X, a: np.zeros(np.atleast_2d(X).shape[0]),
        l=lambda X: np.zeros(np.atleast_2d(X).shape[0]),
    )
    cfg = fs.SimConfig(dt=0.1, n_particles=4, horizon=0.3, seed=0)
    with pytest.raises(FloatingPointError):
        simulate_conditional_law(0.0, MU2, fs.constant_policy(0.0), blow, cfg)


def test_non_finite_coefficients_raise_floating_point_error():
    nan_drift = ham.FilteringCoeffs(
        1,
        1,
        1,
        b=lambda X, a: np.full((np.atleast_2d(X).shape[0], 1), np.nan),
        sigma=lambda X, a: np.zeros((np.atleast_2d(X).shape[0], 1, 1)),
        sigma_tilde=lambda a: np.zeros((len(a), 1, 1)),
        r=lambda X, a: np.zeros(np.atleast_2d(X).shape[0]),
        l=lambda X: np.zeros(np.atleast_2d(X).shape[0]),
    )
    cfg = fs.SimConfig(dt=0.1, n_particles=4, horizon=0.3, runs=2, seed=0)
    with pytest.raises(FloatingPointError):
        simulate_conditional_law(0.0, MU2, fs.constant_policy(0.0), nan_drift, cfg)
    with pytest.raises(FloatingPointError):
        fs.estimate_cost(0.0, MU2, fs.constant_policy(0.0), nan_drift, cfg)
    nan_cost = _null_coeffs(r_const=np.nan)
    with pytest.raises(FloatingPointError):
        fs.estimate_cost(0.0, MU2, fs.constant_policy(0.0), nan_cost, cfg)


def test_a_non_finite_cost_in_a_later_block_names_its_global_run():
    # one particle per run sits still on an atom of MU2, the policy plays the
    # run's mean, and the running cost is NaN only under the control 0.6
    frozen = _null_coeffs()
    nan_at_far_atom = ham.FilteringCoeffs(
        1, 1, 1, b=frozen.b, sigma=frozen.sigma, sigma_tilde=frozen.sigma_tilde,
        r=lambda X, a: np.where(a > 0.3, np.nan, 0.0), l=frozen.l,
    )
    policy = fs.ControlPolicy(lambda t, s: s.mean[:, 0])
    cfg = fs.SimConfig(dt=0.1, n_particles=1, horizon=0.2, runs=12, seed=16)
    far = [run for run in range(cfg.runs)
           if next(fs._run_paths(0.0, MU2, policy, frozen, cfg, [run]))[1][0, 0, 0] == 0.6]
    # blocks of two runs; the seed puts the first far atom past the first block
    assert far and far[0] >= 2
    with mock.patch.object(fs, "_BLOCK_POINTS", 2):
        with pytest.raises(FloatingPointError, match=f"^run {far[0]} has a non-finite cost"):
            fs.sample_costs(0.0, MU2, policy, nan_at_far_atom, cfg)


def test_no_thread_outlives_a_simulation():
    coeffs = ham.make_lq_coeffs(sigma=1.0, sigma_tilde=0.5)
    policy = fs.lqg_feedback_policy(LQ)
    cfg = fs.SimConfig(dt=0.1, n_particles=10, horizon=0.5, runs=6, seed=3)
    # as in the later-block cost test: one frozen particle per run, blocks of
    # two runs, and a drift past the divergence guard under the control 0.6
    frozen = _null_coeffs()
    blow_at_far_atom = ham.FilteringCoeffs(
        1, 1, 1, b=lambda X, a: np.where(a > 0.3, 1e8, 0.0)[:, None], sigma=frozen.sigma,
        sigma_tilde=frozen.sigma_tilde, r=frozen.r, l=frozen.l,
    )
    follow_mean = fs.ControlPolicy(lambda t, s: s.mean[:, 0])
    far_cfg = fs.SimConfig(dt=0.1, n_particles=1, horizon=0.2, runs=12, seed=16)
    before = threading.active_count()
    with _cpus({0, 1}), mock.patch.object(fs, "ThreadPoolExecutor", wraps=ThreadPoolExecutor) as pools:
        fs.sample_costs(0.0, MU2, policy, coeffs, cfg)
        assert pools.call_count == 1 and threading.active_count() == before

        with mock.patch.object(fs, "_BLOCK_POINTS", 2), \
                mock.patch.object(fs, "_run_paths", wraps=fs._run_paths) as run_paths, \
                pytest.raises(FloatingPointError, match="^particle state"):
            fs.sample_costs(0.0, MU2, follow_mean, blow_at_far_atom, far_cfg)
        assert run_paths.call_count > 1 and pools.call_count == run_paths.call_count + 1
        assert threading.active_count() == before

        paths = fs._run_paths(0.0, MU2, policy, coeffs, cfg, range(4))
        for _ in range(3):  # the start and two steps
            next(paths)
        assert threading.active_count() == before + 1
        paths.close()
        assert threading.active_count() == before


def test_euler_step_memory_stays_within_one_block_of_state_sized_arrays():
    # 64 runs of 1000 particles step in four blocks of 16 runs, so each
    # state-sized array takes 16 000 float64, 128 000 bytes.  The peak is one
    # step of one block.  The states, the running cost, the controls and
    # sigma's output live through a step; the running cost, the drift and the
    # noise term each add their temporaries in turn (arrays this small are
    # below NumPy's 256 KiB temporary elision).  lq1d's add two at most (a**2
    # and its product, b and b dt, dB and dB sqrt(dt)): six arrays, 768 000
    # bytes.  filter1d's running cost 0.3 cos x + a**2 (1 + 0.2 cos x) / 1.2
    # holds four at once (0.3 cos x, a**2, cos x and 0.2 cos x): eight arrays,
    # 1 024 000 bytes.  Each bound adds half an array, 64 000 bytes, for the
    # block's common noise, generators and rows (about 20 000 bytes), so one
    # more array, or a step or block left alive into the next one, fails.
    cases = {
        "lq1d": (ham.make_lq_coeffs(sigma=1.0, sigma_tilde=0.5), 0.832e6),
        "filter1d": (ham.make_bounded_filter_coeffs(), 1.088e6),
    }
    cfg = fs.SimConfig(dt=0.1, n_particles=1000, horizon=1.0, runs=64, seed=3)
    policy = fs.lqg_feedback_policy(LQ)
    # with the helper thread drawing half of each step's normals, on any box
    for name, (coeffs, bound) in cases.items():
        with _cpus({0, 1}):
            fs.estimate_cost(0.0, MU2, policy, coeffs, cfg)
            tracemalloc.start()
            try:
                fs.estimate_cost(0.0, MU2, policy, coeffs, cfg)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak <= bound, name


# ---------------------------------------------------------------------------
# reference value
# ---------------------------------------------------------------------------


def test_oracle_terminal_value(rng):
    mu = random_probability_measure(rng)
    assert fs.lqg_value_oracle(LQ.horizon, mu, LQ) == pytest.approx(
        mu.second_moment(), rel=1e-10
    )


def test_oracle_rejects_bad_inputs():
    with pytest.raises(TypeError):
        fs.lqg_value_oracle(0.0, MU2, {"sigma": 1.0})
    with pytest.raises(ValueError):
        fs.lqg_value_oracle(2.0, MU2, LQ)
    with pytest.raises(ValueError):
        fs.LQParams(control_weight=-1.0)


def test_oracle_high_control_penalty_matches_uncontrolled():
    stiff = fs.LQParams(sigma=1.0, sigma_tilde=0.5, horizon=1.0, control_weight=500.0)
    val = fs.lqg_value_oracle(0.0, MU2, stiff)
    # uncontrolled: E X_T^2 = secmom + (sigma^2 + sigma_tilde^2) T, plus the
    # tiny log correction from the near-zero optimal control
    uncontrolled = MU2.second_moment() + (1.0 + 0.25) * 1.0
    assert val == pytest.approx(uncontrolled, rel=5e-3)
    cfg = fs.SimConfig(dt=0.01, n_particles=2000, horizon=1.0, runs=16, seed=21)
    coeffs = ham.make_lq_coeffs(sigma=1.0, sigma_tilde=0.5)
    est, err = fs.estimate_cost(0.0, MU2, fs.constant_policy(0.0), coeffs, cfg)
    assert abs(est - uncontrolled) <= 3 * max(err, 1e-3) + 0.05


@settings(max_examples=200, deadline=None)
@given(
    rho=st.floats(0.05, 20.0),
    sigma_tilde=st.floats(0.0, 3.0),
    horizon=st.floats(0.05, 10.0),
    frac=st.floats(0.0, 1.0, exclude_max=True),
)
def test_lq_riccati_solves_the_riccati_pair(rho, sigma_tilde, horizon, frac):
    lq = fs.LQParams(sigma_tilde=sigma_tilde, horizon=horizon, control_weight=rho)
    assert fs.lq_riccati(horizon, lq) == (1.0, 0.0)
    t = frac * horizon
    P, _ = fs.lq_riccati(t, lq)
    # central differences with a step relative to rho + T - t, the scale of P
    h = 1e-4 * (rho + horizon - t)
    (P_hi, c_hi), (P_lo, c_lo) = fs.lq_riccati(t + h, lq), fs.lq_riccati(t - h, lq)
    assert (P_hi - P_lo) / (2 * h) == pytest.approx(P * P / rho, rel=1e-6)
    assert (c_hi - c_lo) / (2 * h) == pytest.approx(-(sigma_tilde**2) * P, rel=1e-6, abs=1e-12)


def test_oracle_matches_control_grid_dp():
    mean = float(MU2.mean()[0])
    var = MU2.second_moment() - mean * mean
    dp = lq_total_value_dp(0.0, mean, var, LQ)
    oracle = fs.lqg_value_oracle(0.0, MU2, LQ)
    assert dp == pytest.approx(oracle, rel=1e-3)


def test_mc_cost_matches_oracle_small():
    cfg = fs.SimConfig(dt=0.005, n_particles=2000, horizon=1.0, runs=32, seed=11)
    coeffs = ham.make_lq_coeffs(sigma=1.0, sigma_tilde=0.5)
    est, err = fs.estimate_cost(0.0, MU2, fs.lqg_feedback_policy(LQ), coeffs, cfg)
    oracle = fs.lqg_value_oracle(0.0, MU2, LQ)
    assert abs(est - oracle) <= 3 * err


# ---------------------------------------------------------------------------
# equation residual
# ---------------------------------------------------------------------------


def test_residual_constant_candidate():
    def const(t, mu):
        return (
            2.0,
            0.0,
            lambda X: np.zeros_like(np.atleast_2d(X)),
            lambda X: np.zeros((np.atleast_2d(X).shape[0], 1, 1)),
            np.zeros((1, 1)),
        )

    coeffs = ham.make_lq_coeffs()
    res = fs.viscosity_residual(const, 0.3, MU2, coeffs, np.linspace(-2, 2, 401))
    assert res == pytest.approx(0.0, abs=1e-14)  # -inf_a a^2 over a grid with 0


def _second_moment_jet(d, broken=None, dt=0.0):
    """The jet of the candidate int |x|^2 dmu in dimension d, with d/dt = ``dt``;
    ``broken`` names a field ("p", "q" or "hess_m") whose last axis is scaled by 1.5."""
    scale = {field: np.ones(d) for field in ("p", "q", "hess_m")}
    if broken:
        scale[broken][-1] = 1.5

    def jet(t, mu):
        return (
            mu.second_moment(),
            dt,
            lambda X: 2.0 * np.atleast_2d(X) * scale["p"],
            lambda X: np.broadcast_to(2.0 * np.diag(scale["q"]), (np.atleast_2d(X).shape[0], d, d)),
            2.0 * np.diag(scale["hess_m"]),
        )

    return jet


def test_residual_second_moment_hand_case():
    coeffs = _null_coeffs(sigma=1.0, sigma_tilde=1.0)
    res = fs.viscosity_residual(_second_moment_jet(1), 0.3, MU2, coeffs, np.linspace(-2, 2, 5))
    assert res == pytest.approx(-2.0, abs=1e-10)


def test_residual_shrinks_quadratically(rng):
    cand = fs.lq_candidate(LQ)
    coeffs = ham.make_lq_coeffs(sigma=1.0, sigma_tilde=0.5)
    for n in (101, 201, 401):
        h = 8.0 / (n - 1)
        grid = np.linspace(-4, 4, n)
        for _ in range(5):
            mu = random_probability_measure(rng)
            t = float(rng.uniform(0.0, 0.9))
            res = fs.viscosity_residual(cand, t, mu, coeffs, grid)
            assert abs(res) <= LQ.control_weight * h * h / 4.0 + 1e-12


def test_residual_rejects_inconsistent_closures():
    broken = _second_moment_jet(1, dt=5.0)  # the value does not depend on t
    coeffs = ham.make_lq_coeffs()
    with pytest.raises(ValueError, match="dt closure"):
        fs.viscosity_residual(broken, 0.3, MU2, coeffs, np.linspace(-2, 2, 5))


GRID = np.linspace(-4, 4, 101)
# atom 0 sits off every axis, so a wrong p shows in the first variation
_OFF_AXIS = {
    1: ms.SignedAtomicMeasure(1, [[0.6], [-0.2]], [0.5, 0.5], probability=True),
    2: ms.SignedAtomicMeasure(2, [[0.6, -0.4], [0.1, 0.3]], [0.5, 0.5], probability=True),
}


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize(
    "broken,name", [("p", "p closure"), ("q", "q closure"), ("hess_m", "translation Hessian")]
)
def test_spot_check_names_the_inconsistent_field(d, broken, name):
    # the consistent jet passes the spot check; breaking the last axis of one
    # field fails it there, naming that field
    mu, tol = _OFF_AXIS[d], fs._CONSISTENCY_TOL
    fs._consistency_check(_second_moment_jet(d), 0.3, mu, tol)
    with pytest.raises(ValueError, match=f"inconsistent {name} along (atom 0 )?axis {d - 1}:"):
        fs._consistency_check(_second_moment_jet(d, broken), 0.3, mu, tol)
    with pytest.raises(ValueError, match=name):
        fs.viscosity_residual(_second_moment_jet(d, broken), 0.3, mu, ham.make_lq_coeffs(), GRID)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), t=st.floats(0.0, 0.9))
def test_lq_candidate_value_is_the_oracle(seed, t):
    mu = random_probability_measure(np.random.default_rng(seed))
    assert fs.lq_candidate(LQ)(t, mu)[0] == fs.lqg_value_oracle(t, mu, LQ)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), t=st.floats(0.0, 0.9))
def test_residual_is_the_equation_at_the_lq_value_jet(seed, t):
    # -V_t - G_filtering at the jet built from lq_value directly
    mu = random_probability_measure(np.random.default_rng(seed))
    coeffs = ham.make_lq_coeffs(sigma=LQ.sigma, sigma_tilde=LQ.sigma_tilde)
    mean = float(mu.mean()[0])
    _, V_t, slope, curvature = fs.lq_value(t, mean, mu.second_moment() - mean * mean, LQ)
    p = lambda X: slope + 2.0 * (X - mean)
    jet = ham.JetArgs(p, lambda X: np.full((X.shape[0], 1, 1), 2.0), [[curvature]])
    expected = -float(V_t) - ham.G_filtering(mu, jet, coeffs, GRID)
    assert fs.viscosity_residual(fs.lq_candidate(LQ), t, mu, coeffs, GRID) == expected
