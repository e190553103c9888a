import numpy as np
import pytest

from fwlab import fourier_metric as fm
from fwlab.measures import SignedAtomicMeasure


@pytest.fixture(scope="session")
def cfg1d():
    return fm.default_config(1)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


def random_probability_measure(rng, dim=1, max_atoms=4, spread=2.0):
    n = int(rng.integers(1, max_atoms + 1))
    locs = rng.uniform(-spread, spread, size=(n, dim))
    w = rng.dirichlet(np.ones(n))
    return SignedAtomicMeasure(dim, locs, w, probability=True)


def linear_combination(coeffs, measures):
    """The signed measure sum_k c_k * mu_k (atoms concatenated, not merged)."""
    locs = np.vstack([m.locations for m in measures])
    ws = np.concatenate([c * m.weights for c, m in zip(coeffs, measures)])
    return SignedAtomicMeasure(measures[0].dim, locs, ws, probability=False)
