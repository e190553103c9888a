"""Acceptance gate: one test per criterion, each printing its verdict line.

Sizes and tolerances follow the stated criteria; independent oracles live in
_oracles.py.  Run with ``pytest tests/test_acceptance.py -v -s`` to see the
per-criterion lines and timings.
"""

import itertools
import time

import numpy as np

from _oracles import lq_total_value_dp, sequence_form_value, simplex_lattice
from conftest import random_probability_measure
from fwlab import comparison_harness as ch
from fwlab import filtering_sim as fs
from fwlab import fourier_metric as fm
from fwlab import hamiltonians as ham
from fwlab import measures as ms
from fwlab import prediction_game as pg
from fwlab import sobolev as sb
from fwlab._rng import substream


def _verdict(num, name, passed, started, detail=""):
    tag = "PASS" if passed else "FAIL"
    extra = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:02d} {name}: {tag} [{time.time() - started:.1f}s]{extra}")
    assert passed, f"criterion {num} ({name}) failed{extra}"


def test_criterion_01_lambda_table():
    t0 = time.time()
    table = [fm.lambda_for_dim(d) for d in range(1, 9)]
    _verdict(1, "integrability exponent table", table == [4, 4, 4, 6, 6, 6, 6, 8], t0)


def test_criterion_02_fourier_metric_suite():
    t0 = time.time()
    cfg = fm.default_config(1)
    rng = substream(2024, 2)
    ok = True
    detail = []

    for _ in range(100):
        a, b, c = (random_probability_measure(rng) for _ in range(3))
        if abs(fm.rho_F(a, b, cfg) - fm.rho_F(b, a, cfg)) > 1e-12:
            ok, _ = False, detail.append("symmetry")
        if fm.rho_F(a, c, cfg) > fm.rho_F(a, b, cfg) + fm.rho_F(b, c, cfg) + 1e-9:
            ok, _ = False, detail.append("triangle")

    for _ in range(100):
        mu, nu, mu_s, nu_s = (random_probability_measure(rng) for _ in range(4))
        if not fm.parallelogram_check(mu, nu, mu_s, nu_s, cfg).passed:
            ok, _ = False, detail.append("parallelogram")
    mu, nu = (random_probability_measure(rng) for _ in range(2))
    diag = fm.parallelogram_check(mu, nu, mu, nu, cfg)
    if abs(diag.stats["gap"]) > 1e-10:
        ok, _ = False, detail.append("diagonal equality")

    c1, c2 = fm.moment_constant(cfg, 2), fm.moment_constant(cfg, 4)
    for eps in (0.5, 0.1, 0.02):
        mu, nu = (random_probability_measure(rng) for _ in range(2))
        ker = fm.make_kappa(mu, nu, eps, cfg)
        for _ in range(20):
            x = rng.uniform(-6, 6, size=1)
            if np.linalg.norm(fm.kappa_eval(ker, x, 1)) > c1 * ker.rho / eps + 1e-12:
                ok, _ = False, detail.append("gradient bound")
            if np.linalg.norm(fm.kappa_eval(ker, x, 2)) > c2 * ker.rho / eps + 1e-12:
                ok, _ = False, detail.append("hessian bound")

    _verdict(2, "spectral metric suite", ok, t0, ",".join(sorted(set(detail))))


def test_criterion_03_sobolev_identities():
    t0 = time.time()
    box = sb.box1d(32.0, 512)
    rng = substream(2024, 3)
    ok = True
    worst_leibniz = 0.0
    for _ in range(50):
        f = sb.random_band_limited(box, 60, rng)
        h = sb.random_band_limited(box, 60, rng)
        back = sb.bessel_potential(sb.bessel_potential(f, 1.4), -1.4)
        ok &= np.max(np.abs(back.values - f.values)) <= 1e-9
        comp = sb.bessel_potential(sb.bessel_potential(f, 0.7), 0.9)
        ok &= np.max(np.abs(comp.values - sb.bessel_potential(f, 1.6).values)) <= 1e-9
        d1 = sb.spectral_derivative(sb.bessel_potential(f, -1.2), 0)
        d2 = sb.bessel_potential(sb.spectral_derivative(f, 0), -1.2)
        ok &= np.max(np.abs(d1.values - d2.values)) <= 1e-9
        lhs = sb.l2_inner(sb.bessel_potential(f, 0.8), sb.bessel_potential(h, 0.6))
        rhs = sb.l2_inner(sb.bessel_potential(f, 1.4), h)
        ok &= abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))
        rep = sb.leibniz_identity_check(f, h, tol=1e-8)
        worst_leibniz = max(worst_leibniz, rep.stats["max_residual"])
        ok &= rep.passed
    _verdict(3, "smoothing-scale identities", ok, t0, f"max leibniz residual {worst_leibniz:.2e}")


def test_criterion_04_commutator_estimate():
    t0 = time.time()
    box = sb.box1d(32.0, 512)
    rng = substream(2024, 4)
    ratios_coarse, ratios_fine = [], []
    for _ in range(200):
        f = sb.random_band_limited(box, box.nodes[0] // 4, rng)
        g = sb.random_band_limited(box, box.nodes[0] // 4, rng)
        r, b = sb.commutator_residual(f, g, 2)
        ratios_coarse.append(r / b)
        r2, b2 = sb.commutator_residual(sb.refine_grid(f), sb.refine_grid(g), 2)
        ratios_fine.append(r2 / b2)
    mc, mf = max(ratios_coarse), max(ratios_fine)
    ok = np.isfinite(mc) and mc > 0 and abs(mf - mc) <= 0.05 * mc
    _verdict(4, "commutator defect bound", ok, t0, f"max ratio {mc:.3e}, refined drift {abs(mf-mc)/mc:.2%}")


def test_criterion_05_dissipation_inequality():
    t0 = time.time()
    box = sb.box1d(32.0, 1024)
    xs = box.axes()[0]
    a = sb.GridFunction(box, (1.5 + 0.3 * np.sin(xs))[:, None, None])
    b = sb.GridFunction(box, (0.5 * np.cos(xs))[:, None])
    delta, lam = 1.2, 4
    eps_m = 4 * box.spacings()[0]

    def ratio_of(eta):
        rec = sb.dissipation_check(eta, a, b, lam, delta, eps_m)
        return (rec.lhs + 0.25 * delta * rec.norm_sq_loss) / rec.norm_sq_weak

    # 50-member fit design: lattice over separation/center/weight direction
    fit = []
    for sep in (0.05, 0.3, 1.0, 2.5, 6.0):
        for center in (-3.2, -1.6, 0.0, 1.6, 3.2):
            for ang in (np.pi / 4, 1.1):
                wts = np.array([np.cos(ang), -np.sin(ang)])
                locs = np.array([[center - sep / 2], [center + sep / 2]])
                fit.append(ratio_of(ms.SignedAtomicMeasure(1, locs, wts)))
    c_fit = max(fit)
    rng = substream(2024, 5)
    violations = 0
    for _ in range(50):
        locs = rng.uniform(-2.5, 2.5, size=(2, 1))
        wts = np.array([1.0, -rng.uniform(0.4, 1.6)])
        if ratio_of(ms.SignedAtomicMeasure(1, locs, wts)) > c_fit * (1 + 1e-9):
            violations += 1
    _verdict(
        5,
        "drift-diffusion dissipation bound",
        len(fit) == 50 and violations == 0,
        t0,
        f"fitted c {c_fit:.4f}, held-out violations {violations}",
    )


def _jet(p_slope, q_const, M):
    return ham.JetArgs(
        lambda X: p_slope * np.atleast_2d(X),
        lambda X: np.full((np.atleast_2d(X).shape[0], 1, 1), q_const),
        np.atleast_2d(M),
    )


def test_criterion_06_filtering_assumption_checks():
    t0 = time.time()
    lq = ham.make_lq_coeffs()
    grid = np.linspace(-2, 2, 101)
    rng = substream(2024, 6)

    # jet-Lipschitz constant, nested sample sizes 100 and 200
    samples = [(ms.dirac(0.0), np.zeros(1), _jet(1, 1, 0.0), _jet(1, 1, 1.0))]
    while len(samples) < 200:
        mu = random_probability_measure(rng)
        m = rng.uniform(-1.5, 1.5, 1)
        j1 = _jet(*rng.uniform(-1.5, 1.5, 3))
        j2 = _jet(*rng.uniform(-1.5, 1.5, 3))
        samples.append((mu, m, j1, j2))
    c_small = ham.check_assumption_i_filtering(lq, samples[:100], grid).stats["fitted_constant"]
    c_large = ham.check_assumption_i_filtering(lq, samples, grid).stats["fitted_constant"]
    stable = c_large >= c_small and abs(c_large - c_small) <= 0.10 * c_small

    # doubled-Hamiltonian modulus: directional fit design, random verification
    cfg = fm.default_config(1)
    coeffs = ham.make_bounded_filter_coeffs()
    cgrid = np.linspace(-2, 2, 41)
    eps_set = (0.5, 0.1, 0.02)

    fit_records = []
    bases = [
        ms.dirac(0.0),
        ms.dirac(1.5),
        ms.dirac(-1.5),
        ms.SignedAtomicMeasure(1, [[-1.0], [1.0]], [0.5, 0.5], True),
        ms.SignedAtomicMeasure(1, [[-2.0], [0.5]], [0.3, 0.7], True),
    ]
    for eps in eps_set:
        for mu in bases:
            for m0 in (-1.5, 0.0, 1.5):
                for h in (0.01, 0.1, 0.5):
                    for sgn in (1, -1):
                        th = ms.Theta(0.0, mu, np.array([m0]))
                        io = ms.Theta(0.0, mu, np.array([m0 + sgn * h]))
                        fit_records.append(
                            ham.check_assumption_ii_filtering(coeffs, th, io, eps, cfg, cgrid)
                        )
        for x0 in (-1.0, 0.0, 1.0):
            for h in (0.02, 0.2, 1.0):
                mu, nu = ms.dirac(x0), ms.dirac(x0 + h)
                for m in (0.0, 1.0):
                    th = ms.Theta(0.0, mu, np.array([m]))
                    io = ms.Theta(0.0, nu, np.array([m]))
                    fit_records.append(
                        ham.check_assumption_ii_filtering(coeffs, th, io, eps, cfg, cgrid)
                    )
                    fit_records.append(
                        ham.check_assumption_ii_filtering(coeffs, io, th, eps, cfg, cgrid)
                    )
    c_modulus = ham.fit_linear_modulus(fit_records)

    verify = []
    for eps in eps_set:
        for _ in range(17):
            mu, nu = (random_probability_measure(rng) for _ in range(2))
            th = ms.Theta(0.0, mu, rng.uniform(-1.5, 1.5, 1))
            io = ms.Theta(0.0, nu, rng.uniform(-1.5, 1.5, 1))
            verify.append(ham.check_assumption_ii_filtering(coeffs, th, io, eps, cfg, cgrid))
    modulus_rep = ham.verify_linear_modulus(verify, c_modulus)

    ok = stable and modulus_rep.passed and np.isfinite(c_modulus)
    _verdict(
        6,
        "filtering continuity constants",
        ok,
        t0,
        f"L={c_small:.4f}->{c_large:.4f}, modulus C={c_modulus:.4f}, "
        f"verified {len(verify)} samples",
    )


def test_criterion_07_regret_hamiltonian():
    t0 = time.time()
    cfgs = {2: fm.default_config(2), 3: fm.default_config(3)}
    rng = substream(2024, 7)
    samples = ham.regret_samples(2, 100, rng) + ham.regret_samples(3, 100, rng)
    rep = ham.check_assumptions_regret(samples, cfgs)

    mu = ms.dirac(np.zeros(2))
    q0 = lambda X: np.zeros((np.atleast_2d(X).shape[0], 2, 2))
    M = np.diag([1.0, 0.0])
    solver = ham.G_regret(mu, q0, M)
    lattice = simplex_lattice(4, 50)
    brute = max(float(np.max(ham.K_regret(i, lattice, mu, q0, M))) for i in (1, 2))
    grid_ok = abs(solver - 0.5) <= 1e-12 and brute <= solver + 1e-12
    ok = rep.passed and grid_ok
    _verdict(
        7,
        "prediction Hamiltonian bounds",
        ok,
        t0,
        f"max lipschitz ratio {rep.stats['max_lipschitz_ratio']:.3f}, "
        f"max sign gap {rep.stats['max_sign_gap']:.2e}, grid gap {abs(solver - brute):.2e}",
    )


def test_criterion_08_lqg_end_to_end():
    t0 = time.time()
    lq = fs.LQParams(sigma=1.0, sigma_tilde=0.5, horizon=1.0)
    mu = ms.SignedAtomicMeasure(1, [[0.0], [0.6]], [0.5, 0.5], probability=True)
    coeffs = ham.make_lq_coeffs(sigma=1.0, sigma_tilde=0.5)

    oracle = fs.lqg_value_oracle(0.0, mu, lq)
    cfg = fs.SimConfig(dt=0.005, n_particles=10_000, horizon=1.0, runs=64, seed=17)
    est, err = fs.estimate_cost(0.0, mu, fs.lqg_feedback_policy(lq), coeffs, cfg)
    mc_ok = abs(est - oracle) <= 3 * err

    mean = float(mu.mean()[0])
    var = mu.second_moment() - mean * mean
    dp = lq_total_value_dp(0.0, mean, var, lq)
    dp_ok = abs(dp - oracle) <= 1e-3 * abs(oracle)

    cand = fs.lq_candidate(lq)
    rng = substream(2024, 8)
    resid_ok = True
    worst = {}
    for n in (101, 201, 401):
        h = 8.0 / (n - 1)
        grid = np.linspace(-4, 4, n)
        worst[h] = 0.0
        for _ in range(20):
            mu_r = random_probability_measure(rng)
            t = float(rng.uniform(0.0, 0.9))
            res = abs(fs.viscosity_residual(cand, t, mu_r, coeffs, grid))
            worst[h] = max(worst[h], res)
            resid_ok &= res <= lq.control_weight * h * h / 4.0 + 1e-12
    hs = sorted(worst)
    resid_ok &= worst[hs[0]] <= 0.5 * worst[hs[-1]] + 1e-12

    ok = mc_ok and dp_ok and resid_ok
    _verdict(
        8,
        "filtering reference end-to-end",
        ok,
        t0,
        f"MC z={(est - oracle) / err:.2f}, DP rel {(dp - oracle) / oracle:.1e}, "
        f"residual maxima {[f'{worst[h]:.1e}' for h in hs]}",
    )


def test_criterion_09_game_engine():
    t0 = time.time()
    point = ms.dirac(np.array([0.7, -0.2]))
    frozen = [ham.vertex_action(2, 0b11)]
    frozen_ok = (
        pg.exact_value_small(0, point, frozen) == 0.7
        and pg.exact_value_small(4, point, frozen) == 0.7
    )

    zero = ms.dirac(np.zeros(2))
    grid = [ham.vertex_action(2, m) for m in range(4)]
    main = pg.exact_value_small(2, zero, grid)
    lp = sequence_form_value(2, np.zeros(2), [g.weights for g in grid])
    lp_ok = abs(main - lp) <= 5e-9

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
    mc_ok = abs(est - exact) <= 3 * err

    ok = frozen_ok and lp_ok and mc_ok
    _verdict(
        9,
        "prediction game engine",
        ok,
        t0,
        f"dp-vs-lp gap {abs(main - lp):.1e}, MC z={(est - exact) / err:.2f}",
    )


def test_criterion_10_doubling_harness():
    t0 = time.time()
    support = np.array([[-1.0], [0.0], [1.0]])
    lq = fs.LQParams(sigma=1.0, sigma_tilde=0.5, horizon=1.0)
    u = ch.lq_discretized_candidate(support, lq, slack=0.25, m_box=1.5, osc=0.25)
    v = ch.lq_discretized_candidate(support, lq, slack=0.0, m_box=1.5, osc=0.25)
    cfg = ch.DoublingConfig(horizon=1.0, m_box=1.5, n_starts=32, max_iters=150, seed=0)
    decay = ch.penalty_decay_check(u, v, 0.02, [0.5, 0.25, 0.1, 0.05, 0.02], cfg)
    pens = decay.stats["penalties"]
    decay_ok = decay.passed and pens[-1] <= 0.1 * pens[0] + 1e-6

    rng = substream(2024, 10)
    probes = [
        (float(rng.uniform(0, 1)), rng.dirichlet(np.ones(3)), rng.uniform(-1.5, 1.5, 1))
        for _ in range(100)
    ]
    base = ch.lq_discretized_candidate(support, lq, slack=0.0, m_box=1.5, osc=1.0)
    above = ch.lq_discretized_candidate(
        support, lq, slack=0.0, m_box=1.5, osc=1.0, shift_fn=lambda t: (0.3 * (1.0 - t), -0.3)
    )
    pair_ok = ch.ordering_check(base, above, probes, horizon=1.0).passed
    h = 0.12
    lowered = ch.lq_discretized_candidate(
        support, lq, slack=0.0, m_box=1.5, osc=1.0,
        shift_fn=lambda t: (-h * (1.0 - t + 1.0), h),
    )
    shift_rep = ch.ordering_check(lowered, base, probes, horizon=1.0)
    shift_ok = shift_rep.passed and shift_rep.stats["min_margin"] >= h - 1e-12

    ok = decay_ok and pair_ok and shift_ok
    _verdict(
        10,
        "doubling harness",
        ok,
        t0,
        f"penalties {pens[0]:.3e}->{pens[-1]:.3e}, ordering margin "
        f"{shift_rep.stats['min_margin']:.3f}",
    )
