import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fwlab._optim import project_simplex, projected_gradient_ascent


def _concave(x):
    return -float((x - 0.3) @ (x - 0.3)), -2.0 * (x - 0.3)


def _downhill(x):
    # the concave value with the gradient pointing the wrong way
    value, grad = _concave(x)
    return value, -grad


def _identity(x):
    return np.asarray(x, dtype=float)


def test_ascent_converges_on_a_concave_quadratic():
    x, fx, converged = projected_gradient_ascent(
        _concave, np.array([2.0, -1.0]), _identity, max_iters=300
    )
    assert converged
    assert np.allclose(x, 0.3, atol=1e-8)
    assert fx >= -1e-16


def test_ascent_with_a_downhill_gradient_reports_no_convergence():
    # every backtrack along the wrong direction lowers the objective, so the
    # ascent stalls at its start
    x0 = np.array([2.0, -1.0])
    x, fx, converged = projected_gradient_ascent(_downhill, x0, _identity, max_iters=300)
    assert not converged
    assert np.array_equal(x, x0)
    assert fx == _concave(x0)[0]


def test_ascent_out_of_iterations_reports_no_convergence():
    _, _, converged = projected_gradient_ascent(
        _concave, np.array([2.0, -1.0]), _identity, max_iters=1
    )
    assert not converged


@pytest.mark.parametrize("value_and_grad", [_concave, _downhill])
@pytest.mark.parametrize("max_iters", [1, 5, 300])
def test_ascent_evaluates_each_point_once(value_and_grad, max_iters):
    seen = []

    def counted(x):
        seen.append(x.tobytes())
        return value_and_grad(x)

    x, fx, _ = projected_gradient_ascent(
        counted, np.array([2.0, -1.0]), _identity, max_iters=max_iters
    )
    # every trial point differs from the accepted one, so a repeat would be a
    # re-evaluation of an accepted point
    assert len(seen) > 1
    assert len(seen) == len(set(seen))
    # the returned point is one that was evaluated, with its value
    assert x.tobytes() in seen
    assert fx == value_and_grad(x)[0]


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
