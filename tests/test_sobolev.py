import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import integrate

from _oracles import dissipation_by_two_transforms, total_mass
from fwlab import measures as ms
from fwlab import sobolev as sb
from fwlab._rng import substream

BOX = sb.box1d(32.0, 512)
BOX2 = sb.Box((-8.0, -6.0), (16.0, 12.0), (64, 64))


def _pair(rng, band=60, box=BOX):
    return (
        sb.random_band_limited(box, band, rng),
        sb.random_band_limited(box, band, rng),
    )


def test_box_validation():
    with pytest.raises(ValueError):
        sb.Box((0.0,), (8.0,), (100,))  # not a power of two
    with pytest.raises(ValueError):
        sb.Box((0.0,), (-8.0,), (64,))


def test_grid_function_validation():
    with pytest.raises(ValueError):
        sb.GridFunction(BOX, np.zeros(100))
    with pytest.raises(ValueError):
        sb.GridFunction(BOX, np.full(BOX.nodes, np.nan))


def test_bessel_identity_at_zero_order(rng):
    f, _ = _pair(rng)
    out = sb.bessel_potential(f, 0.0)
    assert np.max(np.abs(out.values - f.values)) <= 1e-13


def test_bessel_round_trip(rng):
    f, _ = _pair(rng)
    back = sb.bessel_potential(sb.bessel_potential(f, 1.3), -1.3)
    assert np.max(np.abs(back.values - f.values)) <= 1e-10


def test_bessel_composition(rng):
    f, _ = _pair(rng)
    a = sb.bessel_potential(sb.bessel_potential(f, 0.9), 1.4)
    b = sb.bessel_potential(f, 2.3)
    assert np.max(np.abs(a.values - b.values)) <= 1e-10


def test_bessel_commutes_with_derivative(rng):
    f, _ = _pair(rng)
    a = sb.spectral_derivative(sb.bessel_potential(f, -1.1), 0)
    b = sb.bessel_potential(sb.spectral_derivative(f, 0), -1.1)
    assert np.max(np.abs(a.values - b.values)) <= 1e-9


def test_adjoint_identity(rng):
    for _ in range(10):
        f, g = _pair(rng)
        lhs = sb.l2_inner(sb.bessel_potential(f, 0.8), sb.bessel_potential(g, 1.1))
        rhs = sb.l2_inner(sb.bessel_potential(f, 1.9), g)
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


def test_linearity_superposition(rng):
    f, g = _pair(rng)
    combo = sb.GridFunction(BOX, 0.6 * f.values - 1.7 * g.values)
    a = sb.bessel_potential(combo, -2.0).values
    b = 0.6 * sb.bessel_potential(f, -2.0).values - 1.7 * sb.bessel_potential(g, -2.0).values
    assert np.max(np.abs(a - b)) <= 1e-12


def test_norm_zero_order_is_l2(rng):
    f, _ = _pair(rng)
    assert sb.sobolev_norm(f, 0.0) == pytest.approx(math.sqrt(sb.l2_inner(f, f)), rel=1e-13)


def test_norm_monotone_in_order(rng):
    f, _ = _pair(rng)
    orders = [-2.0, -0.5, 0.0, 1.0, 2.5]
    vals = [sb.sobolev_norm(f, s) for s in orders]
    assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))


def test_gaussian_norm_pinned():
    # oracle: closed-form transform of the unit Gaussian, integrated adaptively
    oracle = np.sqrt(
        integrate.quad(
            lambda x: (1 + x * x) * np.exp(-x * x) / (2 * np.pi), -np.inf, np.inf
        )[0]
    )
    big = sb.box1d(40.0, 512)
    gauss = sb.mollify(ms.dirac(0.0), 1.0, big)
    assert sb.sobolev_norm(gauss, 1.0) == pytest.approx(oracle, abs=1e-10)


def test_mollify_point_mass_profile():
    eps = 0.5
    out = sb.mollify(ms.dirac(0.0), eps, BOX)
    xs = BOX.axes()[0]
    expected = np.exp(-(xs**2) / (2 * eps * eps)) / np.sqrt(2 * np.pi * eps * eps)
    assert np.max(np.abs(out.values - expected)) <= 1e-12


def test_mollify_mass_preserved(rng):
    eta = ms.SignedAtomicMeasure(1, rng.uniform(-3, 3, (3, 1)), rng.standard_normal(3))
    out = sb.mollify(eta, 0.25, BOX)
    mass = float(np.sum(out.values)) * BOX.cell_volume()
    assert mass == pytest.approx(total_mass(eta), abs=1e-8)


def test_mollify_weak_convergence():
    eta = ms.SignedAtomicMeasure(1, [[0.7], [-1.2]], [1.0, -1.0])
    xs = BOX.axes()[0]
    target = float(np.cos(0.7) - np.cos(-1.2))
    errs = []
    for eps in (0.2, 0.1, 0.05):
        dens = sb.mollify(eta, eps, BOX)
        integral = float(np.sum(np.cos(xs) * dens.values)) * BOX.cell_volume()
        errs.append(abs(integral - target))
    assert errs[0] > errs[1] > errs[2]


def test_mollify_boundary_rejection():
    # the margin is 6 eps = 3 from each face: BOX spans [-16, 16), BOX2
    # [-8, 8) x [-6, 6)
    for x in (15.9, -15.9, 13.0 + 1e-9, -13.0 - 1e-9):
        with pytest.raises(ValueError):
            sb.mollify(ms.dirac(x), 0.5, BOX)
    for x in (13.0, -13.0):
        sb.mollify(ms.dirac(x), 0.5, BOX)
    for x in ((0.0, 3.0 + 1e-9), (-5.0 - 1e-9, 0.0)):
        with pytest.raises(ValueError):
            sb.mollify(ms.dirac(x), 0.5, BOX2)
    sb.mollify(ms.dirac((5.0, -3.0)), 0.5, BOX2)


def test_leibniz_identity(rng):
    for _ in range(10):
        f, h = _pair(rng)
        rep = sb.leibniz_identity_check(f, h)
        assert rep.passed
        assert rep.stats["max_residual"] <= 1e-8


def test_leibniz_constant_factor(rng):
    _, h = _pair(rng)
    const = sb.GridFunction(BOX, np.full(BOX.nodes, 3.7))
    rep = sb.leibniz_identity_check(const, h)
    assert rep.stats["max_residual"] <= 1e-11


def test_leibniz_unit_second_factor(rng):
    f, _ = _pair(rng)
    one = sb.GridFunction(BOX, np.ones(BOX.nodes))
    rep = sb.leibniz_identity_check(f, one)
    assert rep.passed


def test_commutator_trivial_cases(rng):
    _, g = _pair(rng)
    const = sb.GridFunction(BOX, np.full(BOX.nodes, 2.0))
    resid, _ = sb.commutator_residual(const, g, 2)
    assert resid <= 1e-20
    zero = sb.GridFunction(BOX, np.zeros(BOX.nodes))
    f, _ = _pair(rng)
    resid, bound = sb.commutator_residual(f, zero, 2)
    assert resid == 0.0 and bound == 0.0


def test_commutator_ratio_finite_and_refinement_stable(rng):
    ratios_c, ratios_f = [], []
    for _ in range(25):
        f, g = _pair(rng, band=BOX.nodes[0] // 4)
        r, b = sb.commutator_residual(f, g, 2)
        ratios_c.append(r / b)
        r2, b2 = sb.commutator_residual(sb.refine_grid(f), sb.refine_grid(g), 2)
        ratios_f.append(r2 / b2)
    mc, mf = max(ratios_c), max(ratios_f)
    assert np.isfinite(mc) and mc > 0
    assert abs(mf - mc) <= 0.05 * mc


def _elliptic_fields(box):
    xs = box.axes()[0]
    a = sb.GridFunction(box, (1.5 + 0.3 * np.sin(xs))[:, None, None])
    b = sb.GridFunction(box, (0.5 * np.cos(xs))[:, None])
    return a, b


def test_dissipation_zero_measure():
    box = sb.box1d(32.0, 1024)
    a, b = _elliptic_fields(box)
    eta = ms.SignedAtomicMeasure(1, [[0.0]], [0.0])
    rec = sb.dissipation_check(eta, a, b, 4, 1.2, 4 * box.spacings()[0])
    assert rec.lhs == pytest.approx(0.0, abs=1e-14)
    assert rec.norm_sq_loss == pytest.approx(0.0, abs=1e-14)
    assert rec.norm_sq_weak == pytest.approx(0.0, abs=1e-14)


def test_dissipation_identity_coefficients_negative():
    box = sb.box1d(32.0, 1024)
    a = sb.GridFunction(box, np.ones(box.nodes)[:, None, None])
    b = sb.GridFunction(box, np.zeros(box.nodes + (1,)))
    eta = ms.SignedAtomicMeasure(1, [[0.0], [0.5]], [1.0, -1.0])
    rec = sb.dissipation_check(eta, a, b, 4, 1.0, 4 * box.spacings()[0])
    assert rec.lhs < 0.0
    assert rec.ellipticity_min >= 1.0 - 1e-12


def test_dissipation_ellipticity_rejection():
    box = sb.box1d(32.0, 1024)
    a = sb.GridFunction(box, 0.5 * np.ones(box.nodes)[:, None, None])
    b = sb.GridFunction(box, np.zeros(box.nodes + (1,)))
    eta = ms.dirac(0.0)
    with pytest.raises(ValueError, match="elliptic"):
        sb.dissipation_check(eta, a, b, 4, 1.2, 4 * box.spacings()[0])


@pytest.mark.parametrize("delta", [0.0, -1.0])
def test_dissipation_rejects_a_non_positive_delta(delta):
    # with delta <= 0 any field would pass the ellipticity guard and the
    # (delta/4) |eta|^2_{1-lam} term would be subtracted, not added
    box = sb.box1d(32.0, 1024)
    a, b = _elliptic_fields(box)
    eta = ms.SignedAtomicMeasure(1, [[0.0], [0.5]], [1.0, -1.0])
    with pytest.raises(ValueError, match="delta"):
        sb.dissipation_check(eta, a, b, 4, delta, 4 * box.spacings()[0])
    with pytest.raises(ValueError, match="delta"):
        sb.dissipation_constant_check([eta], box, 4, delta, 4 * box.spacings()[0])


def test_dissipation_fitted_constant_family(rng):
    box = sb.box1d(32.0, 1024)
    a, b = _elliptic_fields(box)
    eps_m = 4 * box.spacings()[0]
    ratios = []
    for _ in range(20):
        locs = rng.uniform(-3, 3, (2, 1))
        eta = ms.SignedAtomicMeasure(1, locs, np.array([1.0, -1.0]))
        rec = sb.dissipation_check(eta, a, b, 4, 1.2, eps_m)
        ratios.append((rec.lhs + 0.3 * rec.norm_sq_loss) / rec.norm_sq_weak)
    assert np.isfinite(max(ratios))


def test_random_band_limited_rejects_a_negative_band(rng):
    # before, a negative band masked out every frequency and gave zero functions
    with pytest.raises(ValueError, match="band"):
        sb.random_band_limited(BOX, -1, rng)
    assert np.ptp(sb.random_band_limited(BOX, 0, rng).values) < 1e-12  # band 0: a constant


def test_refine_grid_preserves_band_limited(rng):
    f = sb.random_band_limited(BOX, 40, rng)
    fine = sb.refine_grid(f)
    assert fine.box.nodes == (1024,)
    assert np.max(np.abs(fine.values[::2] - f.values)) <= 1e-12


def _rotation(theta):
    return np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])


def _constant_matrix_field(box, mat):
    return sb.GridFunction(box, np.broadcast_to(mat, box.nodes + mat.shape))


def test_bessel_round_trip_and_derivative_commutation_2d(rng):
    f, _ = _pair(rng, band=12, box=BOX2)
    back = sb.bessel_potential(sb.bessel_potential(f, 1.3), -1.3)
    assert np.max(np.abs(back.values - f.values)) <= 1e-10
    for axis in range(2):
        a = sb.spectral_derivative(sb.bessel_potential(f, -1.1), axis)
        b = sb.bessel_potential(sb.spectral_derivative(f, axis), -1.1)
        assert np.max(np.abs(a.values - b.values)) <= 1e-9
    # the two axes have different lengths, so each derivative must pick its own
    xs, ys = np.meshgrid(*BOX2.axes(), indexing="ij")
    wave = sb.GridFunction(BOX2, np.sin(2 * np.pi * xs / 16.0) * np.cos(2 * np.pi * 3 * ys / 12.0))
    dx = np.cos(2 * np.pi * xs / 16.0) * np.cos(2 * np.pi * 3 * ys / 12.0) * 2 * np.pi / 16.0
    dy = -np.sin(2 * np.pi * xs / 16.0) * np.sin(2 * np.pi * 3 * ys / 12.0) * 2 * np.pi * 3 / 12.0
    assert np.max(np.abs(sb.spectral_derivative(wave, 0).values - dx)) <= 1e-12
    assert np.max(np.abs(sb.spectral_derivative(wave, 1).values - dy)) <= 1e-12


def test_leibniz_identity_2d(rng):
    for _ in range(3):
        f, h = _pair(rng, band=12, box=BOX2)
        rep = sb.leibniz_identity_check(f, h)
        assert rep.passed
        assert rep.stats["max_residual"] <= 1e-8


def test_refine_grid_preserves_band_limited_2d(rng):
    f = sb.random_band_limited(BOX2, 10, rng)
    fine = sb.refine_grid(f)
    assert fine.box.nodes == (128, 128)
    assert np.max(np.abs(fine.values[::2, ::2] - f.values)) <= 1e-12


def test_ellipticity_minimum_matches_dense_angle_scan(rng):
    box = sb.Box((0.0, 0.0), (4.0, 4.0), (8, 8))
    low = 0.5 + rng.uniform(0.0, 1.0, box.nodes)
    angle = rng.uniform(0.0, np.pi, box.nodes)
    rot = np.moveaxis(_rotation(angle), (0, 1), (-2, -1))
    spd = rot @ (np.stack([low, low + 2.0], axis=-1)[..., None] * np.swapaxes(rot, -1, -2))
    skew = rng.uniform(-1.0, 1.0, box.nodes)[..., None, None] * np.array([[0.0, 1.0], [-1.0, 0.0]])
    avals = spd + skew  # the skew part adds nothing to any quadratic form
    theta = np.linspace(0.0, np.pi, 20001)
    dirs = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    scan = float(np.min(np.einsum("kp,...pq,kq->...k", dirs, avals, dirs)))
    exact = sb._ellipticity_minimum(avals)
    assert exact <= scan + 1e-12
    assert scan - exact <= 1e-7
    assert exact == pytest.approx(float(np.min(low)), rel=1e-12)


def test_dissipation_rejects_off_axis_field_just_below_delta():
    eps = 0.5
    b = sb.GridFunction(BOX2, np.zeros(BOX2.nodes + (2,)))
    eta = ms.SignedAtomicMeasure(2, [[0.0, 0.0], [0.5, 0.3]], [1.0, -1.0])
    delta, rot = 1.0, _rotation(0.7)
    below = _constant_matrix_field(BOX2, rot @ np.diag([delta - 1e-4, 3.0]) @ rot.T)
    with pytest.raises(ValueError, match="elliptic"):
        sb.dissipation_check(eta, below, b, 4, delta, eps)
    above = _constant_matrix_field(BOX2, rot @ np.diag([delta + 1e-4, 3.0]) @ rot.T)
    rec = sb.dissipation_check(eta, above, b, 4, delta, eps)
    assert rec.ellipticity_min == pytest.approx(delta + 1e-4, rel=1e-12)


def _composed_dissipation(eta, a, b, lam, eps):
    """lhs and both squared norms of ``dissipation_check`` from the public operators."""
    box, d = a.box, a.dim
    dens = sb.mollify(eta, eps, box)
    smoothed = sb.bessel_potential(dens, -2.0 * lam)
    grads = [sb.spectral_derivative(smoothed, i) for i in range(d)]
    pair = sum(
        0.5 * a.values[..., i, j] * sb.spectral_derivative(grads[i], j).values
        for i in range(d)
        for j in range(d)
    ) + sum(b.values[..., i] * grads[i].values for i in range(d))
    lhs = float(np.sum(pair * dens.values) * box.cell_volume())
    return lhs, sb.sobolev_norm(dens, 1.0 - lam) ** 2, sb.sobolev_norm(dens, -float(lam)) ** 2


def _assert_matches_composed_chain(eta, a, b, lam, eps):
    rec = sb.dissipation_check(eta, a, b, lam, 1.0, eps)
    want = _composed_dissipation(eta, a, b, lam, eps)
    got = (rec.lhs, rec.norm_sq_loss, rec.norm_sq_weak)
    scale = max(abs(v) for v in want)
    for g, w in zip(got, want):
        assert abs(g - w) <= 1e-12 * scale


DISSIPATION_BOX = sb.box1d(32.0, 1024)


@settings(max_examples=40, deadline=None)
@given(
    x=st.floats(-3.0, 3.0),
    y=st.floats(-3.0, 3.0),
    lam=st.sampled_from([3, 4, 5]),
)
def test_dissipation_matches_composed_operator_chain(x, y, lam):
    # atoms a few ulps apart leave a mollified density of pure rounding
    # residue (|x - y| = 2.2e-16 gives a relative gap of 4.5e-12 between the two
    # computations; at 1e-14 and above it stays below 3e-14)
    assume(abs(x - y) >= 1e-12)
    a, b = _elliptic_fields(DISSIPATION_BOX)
    eta = ms.SignedAtomicMeasure(1, [[x], [y]], [1.0, -1.0])
    _assert_matches_composed_chain(eta, a, b, lam, 4 * DISSIPATION_BOX.spacings()[0])


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), lam=st.sampled_from([3, 4, 5]))
def test_dissipation_record_is_the_two_transform_record_bit_for_bit(seed, lam):
    # one inverse transform of the stacked gradient and Hessian, and one power
    # spectrum for both norms, against two transforms and a spectrum per norm
    a, b = _elliptic_fields(DISSIPATION_BOX)
    eps = 4 * DISSIPATION_BOX.spacings()[0]
    for eta in sb.random_dipoles(3, np.random.default_rng(seed)):
        rec = sb.dissipation_check(eta, a, b, lam, 1.0, eps)
        assert rec == dissipation_by_two_transforms(eta, a, b, lam, 1.0, eps)


def _fields_2d():
    xs, ys = np.meshgrid(*BOX2.axes(), indexing="ij")
    off = 0.3 * np.sin(xs) * np.cos(ys)
    rows = [np.stack([1.5 + 0.2 * np.cos(ys), off], -1), np.stack([off, 2.0 + 0.1 * np.sin(xs)], -1)]
    drift = np.stack([0.5 * np.cos(xs), -0.4 * np.sin(ys)], -1)
    return sb.GridFunction(BOX2, np.stack(rows, -2)), sb.GridFunction(BOX2, drift)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_atoms=st.integers(1, 4))
def test_dissipation_record_is_the_two_transform_record_bit_for_bit_2d(seed, n_atoms):
    rng = np.random.default_rng(seed)
    eta = ms.SignedAtomicMeasure(2, rng.uniform(-2.0, 2.0, (n_atoms, 2)), rng.uniform(-1.0, 1.0, n_atoms))
    a, b = _fields_2d()
    rec = sb.dissipation_check(eta, a, b, 4, 1.0, 0.5)
    assert rec == dissipation_by_two_transforms(eta, a, b, 4, 1.0, 0.5)


def test_dissipation_matches_composed_operator_chain_2d():
    a, b = _fields_2d()
    eta = ms.SignedAtomicMeasure(2, [[-0.6, 0.4], [0.8, -0.3], [0.1, 1.2]], [1.0, -0.7, -0.3])
    _assert_matches_composed_chain(eta, a, b, 4, 0.5)


def test_cached_multipliers_are_their_formulas_and_read_only():
    # dissipation_check and the norms read these per (box, s) and per box;
    # the derivative multiplier stacks i xi over -xi xi^T, cast to complex
    for box in (DISSIPATION_BOX, BOX2):
        xis, xi_sq = sb._wave_numbers(box)
        xi = np.stack(np.broadcast_arrays(*xis))
        hessian = (-xi[:, None] * xi[None]).reshape(-1, *box.nodes).astype(complex)
        stacked = np.concatenate([1j * xi, hessian])
        cached = [sb._weight(box, s) for s in (-4.0, -3.0, 0.5)] + [sb._derivative_multipliers(box)]
        formulas = [(1.0 + xi_sq) ** s for s in (-4.0, -3.0, 0.5)] + [stacked]
        for got, want in zip(cached, formulas):
            assert got.tobytes() == want.tobytes() and got.shape == want.shape
            assert not got.flags.writeable


def test_dissipation_constant_check_over_no_measures_is_an_input_error():
    with pytest.raises(ValueError, match="at least one"):
        sb.dissipation_constant_check([], sb.box1d(32.0, 1024), 4, 1.2, 0.125)


def test_dissipation_constant_check_fails_when_the_design_misses_the_sup(monkeypatch):
    # the design cut to its first member fits a negative constant, which 9 of
    # the 10 dipoles of the shipped dissipation scenario exceed
    first = sb._dissipation_design()[0]
    monkeypatch.setattr(sb, "_dissipation_design", lambda: [first])
    box = sb.box1d(32.0, 1024)
    held_out = sb.random_dipoles(10, substream(0, 0))
    rep = sb.dissipation_constant_check(held_out, box, 4, 1.2, 4 * box.spacings()[0])
    c = rep.stats["fitted_c"]
    assert not rep.passed and c == pytest.approx(-0.1667, abs=1e-4)
    assert len(rep.failures) == 9
    for failure in rep.failures:
        assert set(failure) == {"case", "ratio", "bound"} and failure["bound"] == c
        assert failure["ratio"] == rep.stats["ratios"][failure["case"]] > c
