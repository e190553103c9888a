import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import char_fn_batch, pushforward_shift, total_mass, total_variation
from conftest import linear_combination, random_probability_measure
from fwlab import measures as ms

TWO_PI = 2.0 * np.pi


def measures_close(a, b) -> bool:
    """Equality up to atom permutation and merging: in the signed difference
    a - b, sorted, atoms within 1e-9 (relative) of the previous kept atom
    merge into it, and every merged weight must be within 1e-12 of zero."""
    if a.dim != b.dim:
        return False
    diff = linear_combination([1.0, -1.0], [a, b])
    order = np.lexsort(diff.locations.T[::-1])
    merged = []  # [location, weight] per kept atom
    for x, w in zip(diff.locations[order], diff.weights[order]):
        if merged and np.linalg.norm(x - merged[-1][0]) <= 1e-9 * (1.0 + np.linalg.norm(x)):
            merged[-1][1] += w
        else:
            merged.append([x, w])
    return all(abs(w) <= 1e-12 for _, w in merged)


def _char_fn(mu, k):
    """The spectral coefficient at one wave vector k, as a one-row node array,
    from the characteristic function the Gauss-Legendre oracle reads."""
    return char_fn_batch(mu, np.atleast_1d(np.asarray(k, dtype=float))[None])[0]


def test_char_fn_point_mass_any_k():
    d0 = ms.dirac(0.0)
    for k in (0.0, 1.0, -3.7, 12.0):
        assert _char_fn(d0, k) == pytest.approx(TWO_PI**-0.5, abs=1e-15)


def test_char_fn_unit_mass_at_zero_frequency(rng):
    for dim in (1, 2, 3):
        mu = random_probability_measure(rng, dim=dim)
        assert _char_fn(mu, np.zeros(dim)) == pytest.approx(
            TWO_PI ** (-dim / 2.0), abs=1e-14
        )


def test_char_fn_two_atom_cancellation():
    mu = ms.SignedAtomicMeasure(
        1, np.array([[0.0], [np.pi]]), np.array([0.5, 0.5]), probability=True
    )
    assert abs(_char_fn(mu, 1.0)) < 1e-15


def test_char_fn_dimension_mismatch():
    mu = ms.dirac(np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        char_fn_batch(mu, np.array([[1.0]]))


def test_char_fn_modulus_bound(rng):
    for _ in range(20):
        n = int(rng.integers(1, 5))
        mu = ms.SignedAtomicMeasure(
            1, rng.uniform(-3, 3, (n, 1)), rng.standard_normal(n)
        )
        k = rng.uniform(-5, 5)
        assert abs(_char_fn(mu, k)) <= TWO_PI**-0.5 * total_variation(mu) + 1e-14


def test_char_fn_conjugate_symmetry(rng):
    mu = random_probability_measure(rng, dim=2)
    for _ in range(10):
        k = rng.uniform(-4, 4, size=2)
        assert _char_fn(mu, -k) == pytest.approx(
            np.conj(_char_fn(mu, k)), abs=1e-14
        )


def test_char_fn_linearity(rng):
    mu = random_probability_measure(rng)
    nu = random_probability_measure(rng)
    alpha, beta = 0.7, -1.3
    combo = linear_combination([alpha, beta], [mu, nu])
    for _ in range(10):
        k = rng.uniform(-4, 4)
        lhs = _char_fn(combo, k)
        rhs = alpha * _char_fn(mu, k) + beta * _char_fn(nu, k)
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_pushforward_identity(rng):
    mu = random_probability_measure(rng)
    shifted = pushforward_shift(mu, np.zeros(1))
    assert np.array_equal(shifted.locations, mu.locations)
    assert np.array_equal(shifted.weights, mu.weights)


def test_pushforward_point_mass():
    out = pushforward_shift(ms.dirac(1.5), np.array([2.0]))
    assert out.locations[0, 0] == 3.5
    assert out.weights[0] == 1.0


def test_pushforward_second_moment_expansion(rng):
    # algebraic oracle: |x+m|^2 integrates to secmom + 2 m.mean + |m|^2 mass
    for _ in range(10):
        mu = random_probability_measure(rng, dim=2)
        m = rng.uniform(-2, 2, size=2)
        shifted = pushforward_shift(mu, m)
        expected = (
            mu.second_moment()
            + 2.0 * float(m @ mu.mean())
            + float(m @ m) * total_mass(mu)
        )
        assert shifted.second_moment() == pytest.approx(expected, rel=1e-12)


def test_pushforward_composition(rng):
    mu = random_probability_measure(rng)
    m, n = np.array([0.3]), np.array([-1.1])
    a = pushforward_shift(pushforward_shift(mu, m), n)
    b = pushforward_shift(mu, m + n)
    assert np.array_equal(a.locations, b.locations)


def vartheta(theta) -> float:
    """Moment penalty 1 + |m|^2 + int |x|^2 dmu; >= 1 for probability measures."""
    return 1.0 + float(theta.m @ theta.m) + theta.measure.second_moment()


def test_vartheta_examples():
    assert vartheta(ms.Theta(0.2, ms.dirac(0.0), np.zeros(1))) == 1.0
    m = np.array([1.0, 2.0])
    th = ms.Theta(0.2, ms.dirac(np.zeros(2)), m)
    assert vartheta(th) == pytest.approx(1.0 + 5.0)
    mu = ms.SignedAtomicMeasure(
        1, np.array([[-1.0], [1.0]]), np.array([0.5, 0.5]), probability=True
    )
    assert vartheta(ms.Theta(0.2, mu, np.array([2.0]))) == pytest.approx(6.0)


def test_vartheta_permutation_invariance(rng):
    locs = rng.uniform(-2, 2, (4, 1))
    w = rng.dirichlet(np.ones(4))
    mu = ms.SignedAtomicMeasure(1, locs, w, probability=True)
    perm = rng.permutation(4)
    nu = ms.SignedAtomicMeasure(1, locs[perm], w[perm], probability=True)
    m = np.array([0.4])
    assert vartheta(ms.Theta(0.1, mu, m)) == pytest.approx(
        vartheta(ms.Theta(0.1, nu, m)), rel=1e-15
    )


def test_probability_validation():
    with pytest.raises(ValueError):
        ms.SignedAtomicMeasure(1, [[0.0]], [-0.5], probability=True)
    with pytest.raises(ValueError):
        ms.SignedAtomicMeasure(1, [[0.0]], [0.9], probability=True)
    with pytest.raises(ValueError):
        ms.SignedAtomicMeasure(1, [[np.inf]], [1.0], probability=True)


def test_theta_validation():
    with pytest.raises(ValueError):
        ms.Theta(-0.1, ms.dirac(0.0), np.zeros(1))
    signed = ms.SignedAtomicMeasure(1, [[0.0]], [1.0], probability=False)
    with pytest.raises(ValueError):
        ms.Theta(0.1, signed, np.zeros(1))


def test_measure_immutability(rng):
    mu = random_probability_measure(rng)
    with pytest.raises(ValueError):
        mu.locations[0, 0] = 99.0


def test_json_round_trip(rng):
    mu = random_probability_measure(rng, dim=2)
    doc = ms.measure_to_json(mu)
    parsed = json.loads(doc)
    assert set(parsed) == {"dim", "atoms", "probability"}
    back = ms.measure_from_json(doc)
    assert measures_close(mu, back)
    assert back.probability


def test_atom_beyond_the_float_range_names_atoms():
    # before, an OverflowError from np.asarray
    with pytest.raises(ValueError, match="measure key 'atoms'"):
        ms.measure_from_json({"dim": 1, "atoms": [[10**400, 1.0]], "probability": True})


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_measure_json_round_trip_is_exact(data):
    dim = data.draw(st.integers(1, 3))
    n = data.draw(st.integers(0, 5))
    coord = st.floats(-1e6, 1e6)
    locs = np.array(
        data.draw(st.lists(st.lists(coord, min_size=dim, max_size=dim), min_size=n, max_size=n)),
        dtype=float,
    ).reshape(n, dim)
    probability = n > 0 and data.draw(st.booleans())
    if probability:
        raw = data.draw(
            st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n).filter(lambda w: sum(w) > 0)
        )
        weights = np.asarray(raw) / np.sum(raw)
    else:
        weights = np.array(data.draw(st.lists(coord, min_size=n, max_size=n)), dtype=float)
    mu = ms.SignedAtomicMeasure(dim, locs, weights, probability)
    back = ms.measure_from_json(ms.measure_to_json(mu))
    assert (back.dim, back.probability) == (dim, probability)
    assert np.array_equal(back.locations, mu.locations)
    assert np.array_equal(back.weights, mu.weights)


def test_measures_close_merging():
    a = ms.SignedAtomicMeasure(1, [[0.0], [0.0]], [0.5, 0.5], probability=True)
    b = ms.dirac(0.0)
    assert measures_close(a, b)
    c = ms.dirac(1e-6)
    assert not measures_close(b, c)
