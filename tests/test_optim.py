import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fwlab._optim import active_set_polish, project_simplex, projected_gradient_ascent, simplex_points

from _oracles import scalar_projected_gradient_ascent


def _concave(X):
    return -np.sum((X - 0.3) * (X - 0.3), axis=1), -2.0 * (X - 0.3)


def _downhill(X):
    # the concave value with the gradient pointing the wrong way
    value, grad = _concave(X)
    return value, -grad


def _identity(X):
    return np.asarray(X, dtype=float)


START = np.array([[2.0, -1.0]])
STARTS = np.array([[2.0, -1.0], [-0.5, 0.7], [0.3, 4.0]])


def test_ascent_converges_on_a_concave_quadratic():
    X, F, converged = projected_gradient_ascent(_concave, START, _identity, max_iters=300)
    assert converged
    assert np.allclose(X, 0.3, atol=1e-8)
    assert F[0] >= -1e-16


def test_ascent_with_a_downhill_gradient_reports_no_convergence():
    # every backtrack along the wrong direction lowers the objective, so the
    # ascent stalls at its start
    X, F, converged = projected_gradient_ascent(_downhill, START, _identity, max_iters=300)
    assert not converged
    assert np.array_equal(X, START)
    assert F[0] == _concave(START)[0][0]


def test_ascent_out_of_iterations_reports_no_convergence():
    _, _, converged = projected_gradient_ascent(_concave, START, _identity, max_iters=1)
    assert not converged


def test_ascent_converged_only_when_every_start_converged():
    # a start on the maximizer converges at once; the other runs out of iterations
    starts = np.array([[0.3, 0.3], [2.0, -1.0]])
    _, _, converged = projected_gradient_ascent(_concave, starts, _identity, max_iters=1)
    assert not converged
    _, _, converged = projected_gradient_ascent(_concave, starts[:1], _identity, max_iters=1)
    assert converged


@pytest.mark.parametrize("value_and_grad", [_concave, _downhill])
@pytest.mark.parametrize("max_iters", [1, 5, 300])
def test_ascent_evaluates_each_point_once(value_and_grad, max_iters):
    seen = []

    def counted(X):
        seen.extend(row.tobytes() for row in X)
        return value_and_grad(X)

    X, F, _ = projected_gradient_ascent(counted, STARTS, _identity, max_iters=max_iters)
    # every trial point differs from the accepted one, so a repeat would be a
    # re-evaluation of an accepted point
    assert len(seen) > len(STARTS)
    assert len(seen) == len(set(seen))
    # each returned row is a point that was evaluated, with its value
    for x, fx in zip(X, F):
        assert x.tobytes() in seen
        assert fx == value_and_grad(x[None])[0][0]


def _box_simplex_problem(seed, k, n, indefinite):
    """A random quadratic -x^T A x / 2 + b^T x over [-1, 1]^k x simplex^n, whose
    batched value and gradient treat each row alone."""
    rng = np.random.default_rng(seed)
    p = k + n
    Q = np.linalg.qr(rng.standard_normal((p, p)))[0]
    eig = rng.uniform(0.1, 5.0, p)
    if indefinite:
        eig[: max(1, p // 2)] *= -1.0
    A = (Q * eig) @ Q.T
    A = 0.5 * (A + A.T)
    b = rng.standard_normal(p)

    def value_and_grad(X):
        AX = np.sum(A * X[:, None, :], axis=2)
        return np.sum(X * (b - 0.5 * AX), axis=1), b - AX

    def project(X):
        out = np.array(X, dtype=float)
        out[..., :k] = np.clip(out[..., :k], -1.0, 1.0)
        out[..., k:] = project_simplex(out[..., k:])
        return out

    starts = np.concatenate(
        [rng.uniform(-2.0, 2.0, (6, k)), rng.normal(0.3, 1.0, (6, n))], axis=1
    )
    return value_and_grad, project, starts


PROBLEMS = dict(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(0, 3),
    n=st.integers(1, 4),
    indefinite=st.booleans(),
    max_iters=st.integers(0, 60),
)


@settings(max_examples=60, deadline=None)
@given(**PROBLEMS)
def test_each_row_of_a_batch_runs_as_if_alone(seed, k, n, indefinite, max_iters):
    value_and_grad, project, starts = _box_simplex_problem(seed, k, n, indefinite)
    X, F, converged = projected_gradient_ascent(
        value_and_grad, starts, project, max_iters=max_iters
    )
    alone_converged = []
    for row, x0 in enumerate(starts):
        x, fx, conv = projected_gradient_ascent(
            value_and_grad, x0[None], project, max_iters=max_iters
        )
        assert x.tobytes() == X[row : row + 1].tobytes()
        assert fx.tobytes() == F[row : row + 1].tobytes()
        alone_converged.append(conv)
    assert converged == all(alone_converged)


@settings(max_examples=60, deadline=None)
@given(**PROBLEMS)
def test_batched_ascent_matches_the_per_start_oracle(seed, k, n, indefinite, max_iters):
    value_and_grad, project, starts = _box_simplex_problem(seed, k, n, indefinite)
    X, F, converged = projected_gradient_ascent(
        value_and_grad, starts, project, max_iters=max_iters
    )

    def one_point(x):
        value, grad = value_and_grad(x[None])
        return value[0], grad[0]

    oracle_converged = []
    for row, x0 in enumerate(starts):
        x, fx, conv = scalar_projected_gradient_ascent(
            one_point, x0, project, max_iters=max_iters
        )
        assert np.max(np.abs(X[row] - x)) <= 1e-12
        assert abs(F[row] - fx) <= 1e-12
        oracle_converged.append(conv)
    assert converged == all(oracle_converged)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12), spread=st.floats(0.01, 10.0))
def test_project_simplex_is_the_nearest_feasible_point(seed, n, spread):
    rng = np.random.default_rng(seed)
    v = spread * rng.standard_normal(n)
    p = project_simplex(v)
    assert np.all(p >= 0.0)
    assert abs(float(np.sum(p)) - 1.0) <= 1e-12
    assert np.allclose(project_simplex(p), p, rtol=0.0, atol=1e-12)
    # variational inequality of the projection onto a convex set
    for q in rng.dirichlet(np.ones(n), size=20):
        assert float((v - p) @ (q - p)) <= 1e-12
    # on a 2-d input each row is projected alone
    V = spread * rng.standard_normal((5, n))
    V[0] = v
    P = project_simplex(V)
    for row, vec in zip(P, V):
        assert row.tobytes() == project_simplex(vec).tobytes()
    # on a (B, 2, n) block, as the doubling harness projects both copies'
    # weights at once, each (b, copy) row is projected alone, bit for bit
    W = spread * rng.standard_normal((4, 2, n))
    W[0, 1] = v
    Q = project_simplex(W)
    assert Q.shape == W.shape
    for block, vecs in zip(Q, W):
        for row, vec in zip(block, vecs):
            assert row.tobytes() == project_simplex(vec).tobytes()
    # a strided view is projected like its contiguous copy
    wide = spread * rng.standard_normal((4, 2 * n + 3))
    view = wide[:, 1 : 1 + n]
    assert project_simplex(view).tobytes() == project_simplex(view.copy()).tobytes()


def _face_problem(seed, n, exact):
    """A strictly convex quadratic (x - c)^T A (x - c) / 2 over t in [0, 1],
    w in the simplex and m in [-1, 1]^2, built from its KKT point: x* has t
    at its upper bound and the weights off a random support at 0, and c
    puts positive multipliers on those bounds, so x* is the one minimizer.
    Returns the polish's arguments, x* and the minimum."""
    rng = np.random.default_rng(seed)
    p = 3 + n
    Q = np.linalg.qr(rng.standard_normal((p, p)))[0]
    A = (Q * rng.uniform(0.5, 5.0, p)) @ Q.T
    A = 0.5 * (A + A.T)
    support = rng.permutation(n)[: rng.integers(1, n + 1)]
    x_star = np.zeros(p)
    x_star[0] = 1.0
    x_star[1 + support] = rng.dirichlet(np.ones(len(support)))
    x_star[1 + n :] = rng.uniform(-0.5, 0.5, 2)
    lo = np.array([0.0] + [0.0] * n + [-1.0, -1.0])
    hi = np.array([1.0] + [np.inf] * n + [1.0, 1.0])
    eq = np.zeros((1, p))
    eq[0, 1 : 1 + n] = 1.0
    # A (x* - c) + lambda eq - mu_lo + mu_hi = 0 with mu > 0 on the active bounds
    mu = np.zeros(p)
    mu[0] = -rng.uniform(0.1, 1.0)  # the upper bound on t
    off = np.setdiff1d(np.arange(n), support)
    mu[1 + off] = rng.uniform(0.1, 1.0, len(off))
    c = x_star + np.linalg.solve(A, rng.normal() * eq[0] - mu)

    def fun_and_grad(X, rows):
        r = X - c
        Ar = np.vecdot(A, r[:, None, :])
        return 0.5 * np.vecdot(r, Ar), Ar

    starts = np.column_stack(
        [rng.uniform(0.0, 1.0, 6), rng.dirichlet(np.ones(n), 6), rng.uniform(-1.0, 1.0, (6, 2))]
    )
    starts[0, 1 : 1 + n] = np.eye(n)[0]  # a vertex of the simplex, w = (1, 0, ...)
    starts[1, 0] = 1.0  # t on its upper bound
    hessians = np.tile(A if exact else np.eye(p), (6, 1, 1))
    return (fun_and_grad, starts, lo, hi, eq, hessians), x_star, fun_and_grad(x_star[None], None)[0][0]


FACES = dict(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4), exact=st.booleans())


@settings(max_examples=100, deadline=None)
@given(**FACES)
def test_polish_finds_the_kkt_point_of_a_convex_quadratic(seed, n, exact):
    args, x_star, f_star = _face_problem(seed, n, exact)
    X, F, converged = active_set_polish(*args, max_calls=200)
    assert converged.all()
    assert np.max(np.abs(X - x_star)) <= 1e-7
    assert np.all(np.abs(F - f_star) <= 1e-12)
    # every point stays feasible: in the box, weights summing to one
    assert np.all((X >= args[2]) & (X <= args[3]))
    assert np.allclose(X[:, 1 : 1 + n].sum(axis=1), 1.0, rtol=0.0, atol=1e-14)


@settings(max_examples=50, deadline=None)
@given(**FACES)
def test_polish_makes_one_call_per_round(seed, n, exact):
    # the runs share one objective call per round: a batch makes as many
    # calls as its longest run alone, each run's rows among them
    (fun_and_grad, starts, lo, hi, eq, hessians), _, _ = _face_problem(seed, n, exact)

    def calls(x0, H):
        sizes = []

        def counted(X, rows):
            sizes.append(len(X))
            return fun_and_grad(X, rows)

        active_set_polish(counted, x0, lo, hi, eq, H, max_calls=200)
        return sizes

    alone = [len(calls(starts[r : r + 1], hessians[r : r + 1])) for r in range(len(starts))]
    batch = calls(starts, hessians)
    assert len(batch) == max(alone)
    assert sum(batch) == sum(alone)


def test_polish_out_of_calls_reports_no_convergence():
    (fun_and_grad, starts, lo, hi, eq, _), _, _ = _face_problem(3, 3, False)
    hessians = np.tile(100.0 * np.eye(starts.shape[1]), (len(starts), 1, 1))  # short first steps
    _, _, converged = active_set_polish(fun_and_grad, starts, lo, hi, eq, hessians, max_calls=2)
    assert not converged.any()


@settings(max_examples=30, deadline=None)
@given(**FACES)
def test_a_singular_face_ends_only_its_own_run(seed, n, exact):
    # a zero model leaves run 0's KKT system singular on its face: that run
    # stops where it started, with no trial point and unconverged, and the
    # other runs get the bits they get without it
    fun_and_grad, starts, lo, hi, eq, hessians = _face_problem(seed, n, exact)[0]
    hessians[0] = 0.0
    seen = []

    def recorded(X, rows):
        seen.append(rows.copy())
        return fun_and_grad(X, rows)

    X, F, converged = active_set_polish(recorded, starts, lo, hi, eq, hessians, max_calls=200)
    rest = active_set_polish(fun_and_grad, starts[1:], lo, hi, eq, hessians[1:], max_calls=200)
    assert not converged[0] and not any(0 in rows for rows in seen[1:])
    assert X[0].tobytes() == np.clip(starts[0], lo, hi).tobytes()
    for got, alone in zip((X[1:], F[1:], converged[1:]), rest):
        assert got.tobytes() == alone.tobytes()


def test_simplex_points_of_an_all_singular_stack_are_empty():
    kept, points = simplex_points(np.zeros((4, 3, 3)), np.eye(3, 1), 2, 1e-9)
    assert kept.shape == (0,) and points.shape == (0, 2)


@pytest.mark.parametrize("tol, kept_rows", [(1e-9, [0]), (1e-12, [])])
def test_simplex_points_keeps_a_solution_just_outside_within_tol(tol, kept_rows):
    # the solution (1 + 1e-10, -1e-10) sits 1e-10 outside the simplex
    rhs = np.array([[[1.0 + 1e-10], [-1e-10], [7.0]]])
    kept, points = simplex_points(np.eye(3)[None], rhs, 2, tol)
    assert kept.tolist() == kept_rows
    if kept_rows:
        assert points.tolist() == [[1.0, 0.0]]  # clipped at 0, rescaled to sum 1


@pytest.mark.parametrize("shared_rhs", [False, True])
def test_simplex_points_index_the_input_stack_ascending(shared_rhs):
    rng = np.random.default_rng(7)
    S, m, k = 40, 4, 3
    A = rng.standard_normal((S, m, m))
    A[::5] = 0.0  # singular systems, skipped
    rhs = np.eye(m, 1) if shared_rhs else rng.uniform(0.0, 1.0, (S, m, 1))
    kept, points = simplex_points(A, rhs, k, 1e-9)
    assert np.all(np.diff(kept) > 0)
    alone = []
    for s in range(S):
        if np.linalg.det(A[s]) != 0.0:
            x = np.linalg.solve(A[s], rhs if shared_rhs else rhs[s])[:k, 0]
            if np.all(x >= -1e-9):
                alone.append(s)
                x = np.maximum(x, 0.0)
                assert points[len(alone) - 1].tobytes() == (x / x.sum()).tobytes()
    assert 0 < len(alone) < S and kept.tolist() == alone


SOURCES = Path(__file__).resolve().parent.parent / "src" / "fwlab"


def test_only_simplex_points_takes_a_determinant():
    # singular systems are screened in one place, so the regret supremum and
    # the stage games drop the same ones
    found = [
        f"{path.name}:{number}: {line.strip()}"
        for path in sorted(SOURCES.glob("*.py"))
        if path.name != "_optim.py"
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if re.search(r"np\.linalg\.det\b", line)
    ]
    assert "np.linalg.det(" in SOURCES.joinpath("_optim.py").read_text() and found == []
