import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fwlab._optim import project_simplex, projected_gradient_ascent


def _concave(x):
    return -float((x - 0.3) @ (x - 0.3))


def _identity(x):
    return np.asarray(x, dtype=float)


def test_ascent_converges_on_a_concave_quadratic():
    x, fx, converged = projected_gradient_ascent(
        _concave, np.array([2.0, -1.0]), _identity, gradient=lambda x: -2.0 * (x - 0.3)
    )
    assert converged
    assert np.allclose(x, 0.3, atol=1e-8)
    assert fx >= -1e-16


def test_ascent_with_a_downhill_gradient_reports_no_convergence():
    # every backtrack along the wrong direction lowers the objective, so the
    # ascent stalls at its start
    x0 = np.array([2.0, -1.0])
    x, fx, converged = projected_gradient_ascent(
        _concave, x0, _identity, gradient=lambda x: 2.0 * (x - 0.3)
    )
    assert not converged
    assert np.array_equal(x, x0)
    assert fx == _concave(x0)


def test_ascent_out_of_iterations_reports_no_convergence():
    _, _, converged = projected_gradient_ascent(
        _concave, np.array([2.0, -1.0]), _identity, gradient=lambda x: -2.0 * (x - 0.3),
        max_iters=1,
    )
    assert not converged


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
