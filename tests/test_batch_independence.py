"""Row independence of the batch kernels.

Row k of a B-row call must carry exactly the bits of a call on row k alone,
so that one point evaluated alone (by a report, by ``K_regret`` at the
maximizer ``G_regret`` found in a batch) gets the value its batch gave it,
and a polish run alone ends where it ends in a batch.  Each test compares
the raw bytes of every output.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import random_probability_measure
from fwlab import _optim
from fwlab import comparison_harness as ch
from fwlab import filtering_sim as fs
from fwlab import fourier_metric as fm
from fwlab import hamiltonians as ham
from fwlab import measures as ms

SEEDS = st.integers(0, 2**32 - 1)
ROWS = st.integers(2, 8)


def _assert_rows_alone(batched, alone_fn, n_rows):
    """Every output of ``batched`` at row k is bit for bit ``alone_fn(k)``'s row 0."""
    batched = batched if isinstance(batched, tuple) else (batched,)
    for k in range(n_rows):
        alone = alone_fn(k)
        alone = alone if isinstance(alone, tuple) else (alone,)
        for full, one in zip(batched, alone, strict=True):
            assert np.asarray(full)[k].tobytes() == np.asarray(one)[0].tobytes()


def _lq_pair(rng):
    n = int(rng.integers(2, 7))
    support = rng.uniform(-1.5, 1.5, (n, 1))
    lq = fs.LQParams(sigma=1.0, sigma_tilde=float(rng.uniform(0.2, 1.0)), horizon=1.0)
    kw = {"m_box": 1.5, "osc": 0.25}
    u = ch.lq_discretized_candidate(support, lq, slack=float(rng.uniform(0.0, 0.5)), **kw)
    return u, ch.lq_discretized_candidate(support, lq, **kw)


def _copies(rng, n, B):
    """B points (t, w, m) of one copy of the harness domain."""
    return rng.uniform(0.0, 1.0, B), rng.dirichlet(np.ones(n), B), rng.uniform(-1.5, 1.5, (B, 1))


@settings(max_examples=100, deadline=None)
@given(seed=SEEDS, B=ROWS)
def test_lq_candidate_rows_are_independent(seed, B):
    rng = np.random.default_rng(seed)
    u, _ = _lq_pair(rng)
    t, w, m = _copies(rng, u.n_atoms, B)
    _assert_rows_alone(
        u.eval_fn(t, w, m), lambda k: u.eval_fn(t[k : k + 1], w[k : k + 1], m[k : k + 1]), B
    )


@settings(max_examples=100, deadline=None)
@given(seed=SEEDS, B=ROWS, delta=st.floats(0.005, 0.2))
def test_doubled_objective_rows_are_independent(seed, B, delta):
    rng = np.random.default_rng(seed)
    u, v = _lq_pair(rng)
    gram = ch.FixedSupportMetric(u.support, fm.default_config(1)).gram
    value_and_grad = ch.doubled_objective(u, v, gram, delta)
    Z = np.hstack([np.column_stack(_copies(rng, u.n_atoms, B)) for _ in range(2)])
    Z = np.column_stack([Z, rng.uniform(0.01, 1.0, B)])
    _assert_rows_alone(value_and_grad(Z), lambda k: value_and_grad(Z[k : k + 1]), B)


@settings(max_examples=100, deadline=None)
@given(K=st.integers(1, 4), seed=SEEDS, B=ROWS)
def test_K_regret_rows_are_independent(K, seed, B):
    rng = np.random.default_rng(seed)
    mu = random_probability_measure(rng, dim=K, max_atoms=3)
    c, A = rng.standard_normal(K), rng.standard_normal((2, K, K))
    Bq, M = A + np.swapaxes(A, 1, 2)
    q = lambda X: np.sin(X @ c)[:, None, None] * Bq
    W = rng.dirichlet(np.ones(2**K), B)
    W[0] = np.eye(2**K)[rng.integers(2**K)]  # a vertex: one side has no mass
    for i in range(1, K + 1):
        batched = ham.K_regret(i, W, mu, q, M)
        _assert_rows_alone(batched, lambda k: ham.K_regret(i, W[k : k + 1], mu, q, M), B)


@settings(max_examples=60, deadline=None)
@given(d=st.integers(1, 4), seed=SEEDS, B=ROWS)
def test_kappa_eval_rows_are_independent(d, seed, B):
    # odd d builds the kernel in closed form, even d from the trapezoid rule
    rng = np.random.default_rng(seed)
    mu, nu = (random_probability_measure(rng, dim=d, max_atoms=5) for _ in range(2))
    kernel = fm.make_kappa(mu, nu, float(rng.uniform(0.05, 0.5)), fm.default_config(d))
    X = rng.uniform(-3.0, 3.0, (B, d))
    X[0] = kernel.atoms[0]  # on an atom, where the r = 0 limits apply
    for order in range(3):
        batched = fm.kappa_eval(kernel, X, order)
        _assert_rows_alone(batched, lambda k: fm.kappa_eval(kernel, X[k : k + 1], order), B)


@settings(max_examples=10, deadline=None)
@given(d=st.sampled_from([2, 4]), seed=SEEDS)
def test_kappa_eval_rows_are_independent_across_distance_blocks(d, seed):
    # even d sums the trapezoid nodes over fixed blocks of point-atom
    # distances: 300 points against 9 atoms fill two blocks, and the first
    # block ends inside a row
    rng = np.random.default_rng(seed)
    mu, nu = (
        ms.SignedAtomicMeasure(d, rng.uniform(-2.0, 2.0, (n, d)), np.full(n, 1.0 / n), True)
        for n in (5, 4)
    )
    kernel = fm.make_kappa(mu, nu, 0.3, fm.default_config(d))
    B = 300
    assert len(kernel.atoms) == 9 and fm._K_BLOCK < B * 9 and fm._K_BLOCK % 9
    X = rng.uniform(-3.0, 3.0, (B, d))
    for order in range(3):
        batched = fm.kappa_eval(kernel, X, order)
        _assert_rows_alone(batched, lambda k: fm.kappa_eval(kernel, X[k : k + 1], order), B)


@settings(max_examples=60, deadline=None)
@given(seed=SEEDS, B=ROWS, name=st.sampled_from(sorted(ham.COEFFS_REGISTRY)))
def test_K_filtering_rows_are_independent(seed, B, name):
    rng = np.random.default_rng(seed)
    mu = random_probability_measure(rng, max_atoms=6)
    kernel = fm.make_kappa(mu, ms.dirac(float(rng.uniform(-1.0, 1.0))), 0.3, fm.default_config(1))
    M = [[rng.uniform(-1.0, 1.0)]]
    jet = ham.JetArgs(fm.kappa_gradient_field(kernel), fm.kappa_hessian_field(kernel), M)
    controls = rng.uniform(-2.0, 2.0, B)
    coeffs = ham.COEFFS_REGISTRY[name]()
    batched = ham.K_filtering(controls, mu, jet, coeffs)
    _assert_rows_alone(batched, lambda k: ham.K_filtering(controls[k : k + 1], mu, jet, coeffs), B)


@settings(max_examples=60, deadline=None)
@given(
    seed=SEEDS,
    sizes=st.tuples(st.integers(1, 9), st.integers(1, 9)),
    name=st.sampled_from(sorted(ham.COEFFS_REGISTRY)),
)
def test_filtering_sides_are_independent(seed, sizes, name):
    # a side stacked beside a measure with another atom count, each at its own
    # shift, reads the bits of that side alone, per control and in Ge_extend
    rng = np.random.default_rng(seed)
    assume(sizes[0] != sizes[1])
    mus = [
        ms.SignedAtomicMeasure(1, rng.uniform(-2.0, 2.0, (n, 1)), rng.dirichlet(np.ones(n)), True)
        for n in sizes
    ]
    kernel = fm.make_kappa(*mus, 0.3, fm.default_config(1))
    M = np.array([[rng.uniform(-1.0, 1.0)]])
    jet = ham.JetArgs(fm.kappa_gradient_field(kernel), fm.kappa_hessian_field(kernel), M)
    shifts = rng.uniform(-1.0, 1.0, (2, 1))
    coeffs, grid = ham.COEFFS_REGISTRY[name](), np.linspace(-2.0, 2.0, 41)
    X = np.concatenate([mu.locations for mu in mus])
    stacked = ham._filtering_pairing(
        grid, np.concatenate([mu.locations + m for mu, m in zip(mus, shifts)]),
        [mu.weights for mu in mus], jet.p(X), jet.q(X), M, coeffs,
    )
    for row, mu, m in zip(stacked, mus, shifts):
        X = mu.locations
        alone = ham._filtering_pairing(grid, X + m, [mu.weights], jet.p(X), jet.q(X), M, coeffs)
        assert row.tobytes() == alone[0].tobytes()
        assert np.min(row).tobytes() == np.float64(ham.Ge_extend(mu, m, jet, coeffs, grid)).tobytes()


@settings(max_examples=40, deadline=None)
@given(seed=SEEDS, B=ROWS, delta=st.floats(0.005, 0.2))
def test_polish_rows_are_independent(seed, B, delta):
    # the doubled objective minimized over the box and both weight simplices
    # from B random feasible starts, each at its own scale
    rng = np.random.default_rng(seed)
    u, v = _lq_pair(rng)
    n = u.n_atoms
    gram = ch.FixedSupportMetric(u.support, fm.default_config(1)).gram
    value_and_grad = ch.doubled_objective(u, v, gram, delta)
    X0 = np.hstack([np.column_stack(_copies(rng, n, B)) for _ in range(2)])
    eps = rng.uniform(0.01, 1.0, B)
    lo = np.tile([0.0] + [0.0] * n + [-1.5], 2)
    hi = np.tile([1.0] + [np.inf] * n + [1.5], 2)
    sums = np.zeros((2, 2 * n + 4))
    sums[0, 1 : 1 + n] = sums[1, n + 3 : 2 * n + 3] = 1.0
    hessians = np.eye(2 * n + 4) / eps[:, None, None]

    def polish(runs):
        # the runs ``runs`` of the batch on their own; the objective's rows
        # name runs of that call
        def negated(Z, rows):
            val, grad = value_and_grad(np.column_stack([Z, eps[runs[rows]]]))
            return -val, -grad[:, :-1]

        return _optim.active_set_polish(negated, X0[runs], lo, hi, sums, hessians[runs], max_calls=60)

    _assert_rows_alone(polish(np.arange(B)), lambda k: polish(np.array([k])), B)
