"""Library input errors: each bad input raises its own type and names what is wrong."""

import numpy as np
import pytest

from fwlab import comparison_harness as ch
from fwlab import filtering_sim as fs
from fwlab import fourier_metric as fm
from fwlab import hamiltonians as ham
from fwlab import measures as ms
from fwlab import prediction_game as pg
from fwlab import sobolev as sb

LQ = ham.make_lq_coeffs()
GRID = np.linspace(-2.0, 2.0, 5)
JET = ham.JetArgs(lambda X: X, lambda X: np.ones((X.shape[0], 1, 1)), [[1.0]])
MU1 = ms.SignedAtomicMeasure(1, [[0.0], [1.0]], [0.5, 0.5], True)
SIGNED1 = ms.SignedAtomicMeasure(1, [[0.0], [1.0]], [1.0, -1.0])
MU2 = ms.SignedAtomicMeasure(2, [[0.0, 1.0]], [1.0], True)
SIGNED2 = ms.SignedAtomicMeasure(2, [[0.0, 1.0]], [-1.0])
Q2 = lambda X: np.ones((X.shape[0], 2, 2))
Q3 = lambda X: np.ones((X.shape[0], 3, 3))
UNIFORM2 = ham.uniform_action(2).weights[None]
BOX = sb.box1d(8.0, 16)
OTHER_BOX = sb.box1d(8.0, 32)


def _kernel():
    return fm.make_kappa(MU1, ms.dirac(0.5), 0.5, fm.default_config(1))


def _grid_function(box=BOX, trailing=()):
    return sb.GridFunction(box, np.ones(box.nodes + trailing))


def _dissipation_with_a_vector_diffusion():
    a = _grid_function(trailing=(1,))
    b = _grid_function(trailing=(1,))
    return sb.dissipation_check(ms.dirac(0.0), a, b, 4, 1.0, 0.5)


CASES = {
    "jet-non-square-M": (lambda: ham.JetArgs(JET.p, JET.q, np.zeros((2, 3))), ValueError, "M must be square"),
    "K-filtering-signed-mu": (
        lambda: ham.K_filtering(GRID, SIGNED1, JET, LQ),
        ValueError,
        "K_filtering expects a probability",
    ),
    "Ge-extend-shift-size": (
        lambda: ham.Ge_extend(MU1, [0.0, 0.0], JET, LQ, GRID),
        ValueError,
        "shift in R^1",
    ),
    "K-regret-index-past-K": (
        lambda: ham.K_regret(3, UNIFORM2, MU2, Q2, np.eye(2)),
        ValueError,
        "index 3 out of 1..2",
    ),
    "K-regret-q-shape": (
        lambda: ham.K_regret(1, UNIFORM2, MU2, Q3, np.eye(2)),
        ValueError,
        "q must take 2x2",
    ),
    "G-regret-signed-mu": (
        lambda: ham.G_regret(SIGNED2, Q2, np.eye(2)),
        ValueError,
        "regret pairing expects a probability",
    ),
    "kappa-point-dimension": (
        lambda: fm.kappa_eval(_kernel(), np.zeros((1, 2))),
        ValueError,
        "dimension mismatch",
    ),
    "kappa-nan-point": (lambda: fm.kappa_eval(_kernel(), np.array([[np.nan]])), ValueError, "must be finite"),
    "sim-dt-past-horizon": (
        lambda: fs.SimConfig(dt=2.0, n_particles=10, horizon=1.0),
        ValueError,
        "dt <= horizon",
    ),
    "lq-negative-sigma": (lambda: fs.LQParams(sigma=-1.0), ValueError, "nonnegative"),
    "lqg-oracle-2d-mu": (
        lambda: fs.lqg_value_oracle(0.0, MU2, fs.LQParams()),
        ValueError,
        "LQ reference is scalar",
    ),
    "lqg-oracle-signed-mu": (
        lambda: fs.lqg_value_oracle(0.0, SIGNED1, fs.LQParams()),
        ValueError,
        "initial condition must be a probability",
    ),
    "measure-dim-0": (
        lambda: ms.SignedAtomicMeasure(0, np.zeros((1, 0)), [1.0]),
        ValueError,
        "dim must be >= 1",
    ),
    "measure-nan-weight": (
        lambda: ms.SignedAtomicMeasure(1, [[0.0]], [np.nan]),
        ValueError,
        "weights must be finite",
    ),
    "theta-shift-size": (lambda: ms.Theta(0.0, MU1, [0.0, 0.0]), ValueError, "shift vector dimension"),
    "step-1d-gaps": (
        lambda: pg.step(np.zeros(2), np.full((1, 2), 0.5), ham.uniform_action(2), np.zeros((1, 2))),
        ValueError,
        "(R, K) array",
    ),
    "monte-carlo-signed-m0": (
        lambda: pg.monte_carlo_regret(1, SIGNED2, pg.FORECASTER_REGISTRY["uniform"](2), ham.uniform_action(2), 1, 0),
        ValueError,
        "initial condition must be a probability",
    ),
    "box-axes-of-unequal-length": (lambda: sb.Box((0.0, 0.0), (1.0,), (8,)), ValueError, "equal length"),
    "mollify-zero-eps": (lambda: sb.mollify(ms.dirac(0.0), 0.0, BOX), ValueError, "must be positive"),
    "mollify-2d-measure-on-1d-box": (lambda: sb.mollify(MU2, 0.1, BOX), ValueError, "dimension mismatch"),
    "l2-inner-grids": (
        lambda: sb.l2_inner(_grid_function(), _grid_function(OTHER_BOX)),
        ValueError,
        "grid mismatch",
    ),
    "leibniz-grids": (
        lambda: sb.leibniz_identity_check(_grid_function(), _grid_function(OTHER_BOX)),
        ValueError,
        "grid mismatch",
    ),
    "commutator-grids": (
        lambda: sb.commutator_residual(_grid_function(), _grid_function(OTHER_BOX), 1),
        ValueError,
        "grid mismatch",
    ),
    "sobolev-norm-vector-field": (
        lambda: sb.sobolev_norm(_grid_function(trailing=(1,)), 1.0),
        ValueError,
        "act on scalar",
    ),
    "dissipation-vector-diffusion": (_dissipation_with_a_vector_diffusion, ValueError, "nodes + (d, d)"),
    "metric-config-dimension": (
        lambda: ch.FixedSupportMetric(np.zeros((2, 1)), fm.default_config(2)),
        ValueError,
        "config dimension",
    ),
    "candidate-lq-type": (lambda: ch.lq_discretized_candidate(np.zeros((2, 1)), LQ), TypeError, "LQParams"),
    "complex-grid-function": (
        lambda: sb.GridFunction(BOX, np.ones(BOX.nodes, dtype=complex)),
        ValueError,
        "real and finite",
    ),
}


@pytest.mark.parametrize("build, error, fragment", CASES.values(), ids=CASES.keys())
def test_bad_input_raises_and_names_it(build, error, fragment):
    with pytest.raises(error) as caught:
        build()
    assert type(caught.value) is error and fragment in str(caught.value)
