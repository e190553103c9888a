"""The three benchmark workloads: inputs, unit of work and output checks.

Every workload draws a small pool of instances from its seed in set-up, and
the timed loop cycles through that pool in whole rounds.  A unit of work
calls fwlab's public functions through their module attribute, so that a
traced run can wrap them; ``check`` compares the result with the
independent references in ``references.py`` and returns a list of
problems, empty when every check holds.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from fwlab import comparison_harness as ch
from fwlab import filtering_sim as fs
from fwlab import fourier_metric as fm
from fwlab import hamiltonians as ham
from fwlab import measures as ms
from fwlab import prediction_game as pg
from fwlab import sobolev as sb

import references as ref

# ---------------------------------------------------------------------------
# doubling: penalty decay of the scalar LQ pair u = v + slack
# ---------------------------------------------------------------------------

DOUBLING_EPS = (0.5, 0.1, 0.02)
DOUBLING_DELTA = 0.02
DOUBLING_M_BOX = 1.5
DOUBLING_OSC = 0.25


@dataclass(frozen=True)
class DoublingInstance:
    lq: fs.LQParams
    u: ch.DiscretizedFunction
    v: ch.DiscretizedFunction
    slack: float
    cfg: ch.DoublingConfig


def doubling_instance(rng: np.random.Generator) -> DoublingInstance:
    support = np.array([[-rng.uniform(0.5, 1.5)], [0.0], [rng.uniform(0.5, 1.5)]])
    lq = fs.LQParams(sigma=1.0, sigma_tilde=float(rng.uniform(0.3, 0.7)), horizon=1.0)
    slack = float(rng.uniform(0.15, 0.35))
    kw = {"m_box": DOUBLING_M_BOX, "osc": DOUBLING_OSC}
    u = ch.lq_discretized_candidate(support, lq, slack=slack, **kw)
    v = ch.lq_discretized_candidate(support, lq, slack=0.0, **kw)
    # 18 starts: the 16 diagonal probes plus two off-diagonal starts
    cfg = ch.DoublingConfig(
        horizon=lq.horizon, m_box=DOUBLING_M_BOX, n_starts=18, max_iters=20, n_polish=2,
        seed=int(rng.integers(2**31)),
    )
    return DoublingInstance(lq, u, v, slack, cfg)


def doubling_solve(inst: DoublingInstance):
    return ch.penalty_decay_check(inst.u, inst.v, DOUBLING_DELTA, DOUBLING_EPS, inst.cfg)


def doubling_references(inst: DoublingInstance) -> dict:
    lq = inst.lq
    return {
        "floor": ref.doubling_floor(inst.slack, DOUBLING_DELTA),
        "slope": ref.doubling_excess_slope(
            inst.u.support[:, 0], DOUBLING_M_BOX, lq.sigma, lq.sigma_tilde,
            lq.control_weight, lq.horizon, DOUBLING_OSC,
        ),
    }


def check_doubling(report, refs: dict) -> list:
    problems = []
    floor, slope = refs["floor"], refs["slope"]
    for e, val in zip(DOUBLING_EPS, report.stats["values"]):
        if not val >= floor - 1e-12:
            problems.append(f"doubling value {val!r} at eps={e} below the diagonal floor {floor!r}")
        if not val - floor <= slope * e * (1 + 1e-6) + 1e-12:
            problems.append(
                f"excess {val - floor!r} over the floor at eps={e} exceeds {slope!r} * eps"
            )
    if not report.passed:
        problems.append(f"penalty-decay verdict failed: {report.failures}")
    return problems


def doubling_trace(inst: DoublingInstance, wrap) -> DoublingInstance:
    def traced(f):
        return dataclasses.replace(f, eval_fn=wrap("comparison_harness.candidate", f.eval_fn))

    return dataclasses.replace(inst, u=traced(inst.u), v=traced(inst.v))


# ---------------------------------------------------------------------------
# constants: fitted continuity constants and Hamiltonian suprema
# ---------------------------------------------------------------------------

FILTER_EPS = (0.5, 0.1, 0.02)
CONTROLS = np.linspace(-2.0, 2.0, 41)
DISSIPATION_LAMBDA = 4
DISSIPATION_DELTA = 1.2


# sizes (atom counts, sample counts) are fixed and only values come from the
# seed, so that the work per unit stays alike across seeds
def _random_probability_measure(rng, n_atoms=3, spread=2.0, dim=1):
    locs = rng.uniform(-spread, spread, size=(n_atoms, dim))
    return ms.SignedAtomicMeasure(dim, locs, rng.dirichlet(np.ones(n_atoms)), probability=True)


def _filter_design() -> list:
    """Deterministic fit design: small shifts and small atom moves at each eps."""
    bases = [
        ms.dirac(0.0),
        ms.dirac(1.5),
        ms.SignedAtomicMeasure(1, [[-1.0], [1.0]], [0.5, 0.5], True),
    ]
    design = []
    for eps in FILTER_EPS:
        for mu in bases:
            for m0 in (-1.5, 1.5):
                for h in (0.01, 0.5):
                    design.append((ms.Theta(0.0, mu, [m0]), ms.Theta(0.0, mu, [m0 + h]), eps))
        for x0 in (-1.0, 1.0):
            for h in (0.02, 1.0):
                th = ms.Theta(0.0, ms.dirac(x0), [0.0])
                io = ms.Theta(0.0, ms.dirac(x0 + h), [0.0])
                design += [(th, io, eps), (io, th, eps)]
    return design


def _dissipation_design() -> list:
    """The 50-member separation x center x weight-direction lattice, plus one dipole.

    For the held-out direction (1, -1) the ratio is largest in the dipole
    limit at x = -pi/2, where the diffusion 1.5 + 0.3 sin x is weakest and
    the drift vanishes: 0.4986393 there, against 0.4983319 at the best
    lattice member.  Without that member the lattice maximum is not the
    family's sup, and a held-out pair near that dipole exceeds it.
    """
    design = []
    for sep in (0.05, 0.3, 1.0, 2.5, 6.0):
        for center in (-3.2, -1.6, 0.0, 1.6, 3.2):
            for ang in (math.pi / 4, 1.1):
                locs = [[center - sep / 2], [center + sep / 2]]
                design.append(ms.SignedAtomicMeasure(1, locs, [math.cos(ang), -math.sin(ang)]))
    x0, sep = -math.pi / 2, 1e-5
    design.append(ms.SignedAtomicMeasure(1, [[x0 - sep / 2], [x0 + sep / 2]], [1.0, -1.0]))
    return design


def _regret_sample(K: int, rng, n_atoms=2) -> dict:
    w = rng.dirichlet(np.ones(n_atoms))
    mu = ms.SignedAtomicMeasure(K, rng.uniform(-2, 2, (n_atoms, K)), w, True)
    nu = ms.SignedAtomicMeasure(K, rng.uniform(-2, 2, (n_atoms, K)), w, True)

    def sym():
        A = rng.standard_normal((K, K))
        return 0.5 * (A + A.T)

    def field(c, B):
        return lambda X: np.sin(np.atleast_2d(X) @ c)[:, None, None] * B

    M1, M2 = sym(), sym()
    return {
        "K": K, "mu": mu, "nu": nu,
        "q1": field(rng.standard_normal(K), sym()),
        "q2": field(rng.standard_normal(K), sym()),
        "M1": M1, "M2": M2, "M": M1,
        "eps": float(rng.uniform(0.05, 0.5)),
        "i": int(rng.integers(1, K + 1)),
        "a": ham.SimplexAction(K, rng.dirichlet(np.ones(2**K))),
    }


@dataclass(frozen=True)
class ConstantsInstance:
    filter_design: list
    filter_held_out: list
    regret_samples: list
    regret_sup: list  # (mu, M, solver seed) with q = 0 and PSD M
    lq_jet: dict
    dissipation_design: list
    dissipation_held_out: list


def constants_instance(rng: np.random.Generator) -> ConstantsInstance:
    held_out = [
        (
            ms.Theta(0.0, _random_probability_measure(rng), rng.uniform(-1.5, 1.5, 1)),
            ms.Theta(0.0, _random_probability_measure(rng), rng.uniform(-1.5, 1.5, 1)),
            eps,
        )
        for eps in FILTER_EPS
        for _ in range(3)
    ]
    regret_samples = [_regret_sample(2, rng) for _ in range(6)] + [
        _regret_sample(3, rng) for _ in range(3)
    ]
    regret_sup = []
    for K in (2, 3):
        A = rng.standard_normal((K, K))
        regret_sup.append((ms.dirac(rng.uniform(-1, 1, K)), A @ A.T, int(rng.integers(2**31))))
    # the continuous minimizer -alpha mean / 2 stays inside the control grid
    lq_jet = {
        "sigma": float(rng.uniform(0.5, 1.5)),
        "sigma_tilde": float(rng.uniform(0.3, 1.0)),
        "mu": _random_probability_measure(rng, spread=1.0),
        "alpha": float(rng.uniform(-1.5, 1.5)),
        "beta": float(rng.uniform(-1.0, 1.0)),
        "M": float(rng.uniform(-1.0, 1.0)),
    }
    dissipation_held_out = [
        ms.SignedAtomicMeasure(1, rng.uniform(-3.0, 3.0, (2, 1)), [1.0, -1.0]) for _ in range(10)
    ]
    return ConstantsInstance(
        _filter_design(), held_out, regret_samples, regret_sup, lq_jet,
        _dissipation_design(), dissipation_held_out,
    )


def constants_tables() -> dict:
    return {K: fm.default_config(K) for K in (1, 2, 3)}


def _dissipation_fields():
    box = sb.box1d(32.0, 1024)
    xs = box.axes()[0]
    a = sb.GridFunction(box, (1.5 + 0.3 * np.sin(xs))[:, None, None])
    b = sb.GridFunction(box, (0.5 * np.cos(xs))[:, None])
    return a, b, 4 * box.spacings()[0]


def constants_solve(inst: ConstantsInstance) -> dict:
    cfgs = constants_tables()
    coeffs = ham.make_bounded_filter_coeffs()

    def record(th, io, eps):
        return ham.check_assumption_ii_filtering(coeffs, th, io, eps, cfgs[1], CONTROLS)

    modulus = ham.fit_linear_modulus([record(*pair) for pair in inst.filter_design])
    held_out = [record(*pair) for pair in inst.filter_held_out]

    regret_report = ham.check_assumptions_regret(inst.regret_samples, cfgs)

    sups = []
    for mu, M, seed in inst.regret_sup:
        K = mu.dim

        def q0(X, K=K):
            return np.zeros((np.atleast_2d(X).shape[0], K, K))

        cfg = ham.RegretSolverConfig(multistarts=4, seed=seed)
        sups.append(ham.G_regret(mu, q0, M, cfg))

    j = inst.lq_jet
    jet = ham.JetArgs(
        lambda X: j["alpha"] * np.atleast_2d(X),
        lambda X: np.full((np.atleast_2d(X).shape[0], 1, 1), j["beta"]),
        [[j["M"]]],
    )
    lq_coeffs = ham.make_lq_coeffs(sigma=j["sigma"], sigma_tilde=j["sigma_tilde"])
    g_lq = ham.G_filtering(j["mu"], jet, lq_coeffs, CONTROLS)

    a, b, eps_moll = _dissipation_fields()

    def ratio(eta):
        rec = sb.dissipation_check(eta, a, b, DISSIPATION_LAMBDA, DISSIPATION_DELTA, eps_moll)
        return (rec.lhs + 0.25 * DISSIPATION_DELTA * rec.norm_sq_loss) / rec.norm_sq_weak

    return {
        "filter_modulus": modulus,
        # (difference, z * moment factor): the modulus must bound their ratio
        "filter_held_out": [(r.difference, r.z * r.moment_factor) for r in held_out],
        "regret_stats": dict(regret_report.stats, passed=regret_report.passed),
        "regret_sups": sups,
        "g_lq": g_lq,
        "dissipation_constant": max(ratio(eta) for eta in inst.dissipation_design),
        "dissipation_held_out": [ratio(eta) for eta in inst.dissipation_held_out],
    }


def constants_references(inst: ConstantsInstance) -> dict:
    j = inst.lq_jet
    mean = float(j["mu"].mean()[0])
    h = float(CONTROLS[1] - CONTROLS[0])
    return {
        "lipschitz_ratio_limit": 1.0,  # the ratio is already divided by 2^{3K-2}
        "sign_gap_limit": 1e-9,
        "regret_sups": [ref.regret_sup_zero_q(M) for _, M, _ in inst.regret_sup],
        "g_lq_bounds": ref.filtering_grid_minimum_bounds(
            j["alpha"], j["beta"], mean, j["sigma"], j["sigma_tilde"], j["M"], h
        ),
    }


def check_constants(out: dict, refs: dict) -> list:
    problems = []
    c = out["filter_modulus"]
    bad = [(d, s) for d, s in out["filter_held_out"] if d > c * s * (1 + 1e-9) + 1e-12]
    if not math.isfinite(c) or bad:
        problems.append(f"filtering modulus {c!r} violated by held-out pairs {bad}")
    stats = out["regret_stats"]
    if not (
        stats["passed"]
        and stats["max_lipschitz_ratio"] <= refs["lipschitz_ratio_limit"]
        and stats["max_sign_gap"] <= refs["sign_gap_limit"]
    ):
        problems.append(f"regret assumption check failed: {stats}")
    for got, want in zip(out["regret_sups"], refs["regret_sups"]):
        if abs(got - want) > 1e-9 * max(1.0, abs(want)):
            problems.append(f"G_regret {got!r} != subset maximum {want!r}")
    lo, hi = refs["g_lq_bounds"]
    if not (lo - 1e-12 <= out["g_lq"] <= hi + 1e-12):
        problems.append(f"G_filtering {out['g_lq']!r} outside [{lo!r}, {hi!r}]")
    c = out["dissipation_constant"]
    bad = [r for r in out["dissipation_held_out"] if r > c * (1 + 1e-9) + 1e-12]
    if not math.isfinite(c) or bad:
        problems.append(f"dissipation constant {c!r} violated by held-out ratios {bad}")
    return problems


# ---------------------------------------------------------------------------
# simulation: particle filter, Monte Carlo regret, exact small game values
# ---------------------------------------------------------------------------

GAME_HORIZON = 20
GAME_RUNS = 100
DP_SIZES = ((2, 4), (3, 2))
# the Monte Carlo checks allow this many standard errors; the Euler and
# left-endpoint bias of the particle filter at dt = 0.01 measured
# -0.014 +- 0.012 over 400 runs, against about 0.12 for five standard
# errors of a 64-run estimate
Z_LIMIT = 5.0
DP_TOL = 5e-9


@dataclass(frozen=True)
class SimulationInstance:
    lq: fs.LQParams
    mu: ms.SignedAtomicMeasure
    coeffs: ham.FilteringCoeffs
    policy: fs.ControlPolicy
    sim: fs.SimConfig
    eta: float
    forecaster: pg.ForecasterStrategy
    game_seed: int
    dp_starts: tuple  # initial gap vectors, one per DP size


def simulation_instance(rng: np.random.Generator) -> SimulationInstance:
    lq = fs.LQParams(sigma=1.0, sigma_tilde=float(rng.uniform(0.3, 0.7)), horizon=1.0)
    mu = _random_probability_measure(rng, n_atoms=2, spread=1.0)
    eta = float(rng.uniform(0.3, 0.8))
    return SimulationInstance(
        lq=lq,
        mu=mu,
        coeffs=ham.make_lq_coeffs(sigma=lq.sigma, sigma_tilde=lq.sigma_tilde),
        policy=fs.lqg_feedback_policy(lq),
        sim=fs.SimConfig(dt=0.01, n_particles=1000, horizon=1.0, runs=64,
                         seed=int(rng.integers(2**31))),
        eta=eta,
        forecaster=pg.exp_weights_forecaster(2, eta),
        game_seed=int(rng.integers(2**31)),
        dp_starts=tuple(np.round(rng.uniform(-1.0, 1.0, K), 2) for K, _ in DP_SIZES),
    )


def _vertex_grid(K: int) -> list:
    return [ham.vertex_action(K, mask) for mask in range(2**K)]


def simulation_solve(inst: SimulationInstance) -> dict:
    cost = fs.estimate_cost(0.0, inst.mu, inst.policy, inst.coeffs, inst.sim)
    regret = pg.monte_carlo_regret(
        GAME_HORIZON, ms.dirac(np.zeros(2)), inst.forecaster,
        pg.ADVERSARY_REGISTRY["first-action"](2), GAME_RUNS, inst.game_seed,
    )
    values = [
        pg.exact_value_small(T, ms.dirac(g0), _vertex_grid(K))
        for (K, T), g0 in zip(DP_SIZES, inst.dp_starts)
    ]
    return {"cost": cost, "regret": regret, "dp_values": values}


def simulation_references(inst: SimulationInstance) -> dict:
    mean = float(inst.mu.mean()[0])
    var = inst.mu.second_moment() - mean * mean
    lq = inst.lq
    return {
        "cost": ref.lq_cost_closed_form(
            mean, var, lq.sigma, lq.sigma_tilde, lq.control_weight, lq.horizon
        ),
        "regret": ref.exp_weights_first_action_regret(inst.eta, GAME_HORIZON),
        "dp_values": [
            ref.game_value_lp(T, g0, [a.weights for a in _vertex_grid(K)])
            for (K, T), g0 in zip(DP_SIZES, inst.dp_starts)
        ],
    }


def check_simulation(out: dict, refs: dict) -> list:
    problems = []
    for key in ("cost", "regret"):
        est, err = out[key]
        if not (err > 0 and abs(est - refs[key]) <= Z_LIMIT * err):
            problems.append(f"{key} estimate {est!r} +- {err!r} misses reference {refs[key]!r}")
    for got, want in zip(out["dp_values"], refs["dp_values"]):
        if not abs(got - want) <= DP_TOL:
            problems.append(f"exact game value {got!r} != sequence-form LP {want!r}")
    return problems


def simulation_trace(inst: SimulationInstance, wrap) -> SimulationInstance:
    def count_particles(counts, args, result):
        counts["filtering_sim.particle_steps"] += np.atleast_2d(args[0]).shape[0]

    coeffs = dataclasses.replace(
        inst.coeffs, b=wrap("filtering_sim.drift", inst.coeffs.b, count_particles)
    )
    policy = dataclasses.replace(inst.policy, rule=wrap("filtering_sim.policy", inst.policy.rule))
    forecaster = dataclasses.replace(
        inst.forecaster, rule=wrap("prediction_game.forecaster", inst.forecaster.rule)
    )
    return dataclasses.replace(inst, coeffs=coeffs, policy=policy, forecaster=forecaster)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


def _untraced(inst, wrap):
    return inst


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    Set-up builds the spectral quadrature tables ``tables()`` names and
    ``pool`` instances from the seed.  ``solve(inst)`` is the timed unit of
    work; ``references(inst)`` is computed once per instance, outside the
    timing, and ``check(out, refs)`` lists the problems found.  ``trace(inst,
    wrap)`` returns the instance with the closures it carries wrapped.
    """

    name: str
    pool: int
    tables: object
    make_instance: object
    solve: object
    references: object
    check: object
    trace: object = _untraced


WORKLOADS = {
    w.name: w
    for w in (
        Workload("doubling", 4, lambda: {1: fm.default_config(1)}, doubling_instance,
                 doubling_solve, doubling_references, check_doubling, doubling_trace),
        Workload("constants", 4, constants_tables, constants_instance, constants_solve,
                 constants_references, check_constants),
        Workload("simulation", 2, dict, simulation_instance, simulation_solve,
                 simulation_references, check_simulation, simulation_trace),
    )
}
