"""Spectral Sobolev machinery on a periodic box.

The whole space is replaced by a large periodic box; functions and mollified
measures are confined to the central half of the box so boundary wrap stays
below tolerance.  Every operator is one Fourier multiplier built from the box
frequencies xi = 2*pi*integer/length: (1 + |xi|^2)^{s/2} realizes the
smoothing scale, i xi_j a derivative and -|xi|^2 the Laplacian, and Sobolev
norms follow from the same weights by Parseval.  They back the Leibniz,
commutator and dissipation checks; the dissipation pairing and both
of its norms come from one forward and one inverse transform of the
mollified density.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .measures import SignedAtomicMeasure
from .reports import CheckReport

__all__ = [
    "Box",
    "box1d",
    "GridFunction",
    "bessel_potential",
    "sobolev_norm",
    "spectral_derivative",
    "spectral_laplacian",
    "l2_inner",
    "mollify",
    "leibniz_identity_check",
    "commutator_residual",
    "DissipationRecord",
    "dissipation_check",
    "dissipation_constant_check",
    "random_dipoles",
    "random_band_limited",
    "refine_grid",
]


@dataclass(frozen=True)
class Box:
    """Periodic box: per-axis origin, length and node count (powers of two)."""

    origin: tuple
    lengths: tuple
    nodes: tuple

    def __post_init__(self):
        origin = tuple(float(o) for o in np.atleast_1d(self.origin))
        lengths = tuple(float(length) for length in np.atleast_1d(self.lengths))
        nodes = tuple(int(n) for n in np.atleast_1d(self.nodes))
        if not (len(origin) == len(lengths) == len(nodes)):
            raise ValueError("origin/lengths/nodes must have equal length")
        if min(lengths) <= 0:
            raise ValueError("box lengths must be positive")
        for n in nodes:
            if n < 2 or (n & (n - 1)) != 0:
                raise ValueError(f"node count {n} is not a power of two")
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "lengths", lengths)
        object.__setattr__(self, "nodes", nodes)

    @property
    def dim(self) -> int:
        return len(self.nodes)

    @functools.cached_property
    def corners(self) -> tuple:
        """The (d,) arrays origin and origin + lengths, built once per box (read-only)."""
        lo = np.array(self.origin)
        hi = lo + np.array(self.lengths)
        lo.setflags(write=False)
        hi.setflags(write=False)
        return lo, hi

    def spacings(self) -> np.ndarray:
        return np.array(self.lengths) / np.array(self.nodes)

    def cell_volume(self) -> float:
        return float(np.prod(self.spacings()))

    def axes(self) -> list:
        return [
            o + np.arange(n) * (length / n)
            for o, length, n in zip(self.origin, self.lengths, self.nodes)
        ]


def box1d(length: float = 32.0, n: int = 1024) -> Box:
    """The centred box [-length/2, length/2) with n nodes."""
    return Box((-length / 2.0,), (length,), (n,))


@dataclass(frozen=True)
class GridFunction:
    """Real values of a function on the box grid.

    Scalar fields have ``values.shape == box.nodes``; vector or matrix fields
    carry extra trailing component axes.  Spectral operators act on scalar
    fields only.
    """

    box: Box
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values)
        if vals.shape[: self.box.dim] != self.box.nodes:
            raise ValueError(f"values shape {vals.shape} != box nodes {self.box.nodes}")
        if np.iscomplexobj(vals) or not np.all(np.isfinite(vals)):
            raise ValueError("grid values must be real and finite")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def dim(self) -> int:
        return self.box.dim

    def is_scalar(self) -> bool:
        return self.values.shape == self.box.nodes


@functools.lru_cache(maxsize=8)
def _wave_numbers(box: Box) -> tuple:
    """Angular frequencies 2*pi*j/length in FFT order, one per axis shaped to
    broadcast over the grid, and |xi|^2 on the full grid (read-only, cached)."""
    xis = []
    for axis, (n, length) in enumerate(zip(box.nodes, box.lengths)):
        shape = [1] * box.dim
        shape[axis] = n
        xis.append(2.0 * np.pi * np.fft.fftfreq(n, d=length / n).reshape(shape))
    xi_sq = sum(xi * xi for xi in xis)
    for arr in (*xis, xi_sq):
        arr.setflags(write=False)
    return tuple(xis), xi_sq


@functools.lru_cache(maxsize=16)
def _weight(box: Box, s: float) -> np.ndarray:
    """(1 + |xi|^2)^s on the grid (read-only, cached)."""
    weight = (1.0 + _wave_numbers(box)[1]) ** s
    weight.setflags(write=False)
    return weight


@functools.lru_cache(maxsize=8)
def _derivative_multipliers(box: Box) -> np.ndarray:
    """i xi (d, *nodes) stacked over -xi xi^T (d * d, *nodes), the spectral
    gradient and Hessian as one (d + d^2, *nodes) complex array (read-only, cached)."""
    xi = np.stack(np.broadcast_arrays(*_wave_numbers(box)[0]))
    stacked = np.concatenate([1j * xi, (-xi[:, None] * xi[None]).reshape(-1, *box.nodes)])
    stacked.setflags(write=False)
    return stacked


def _spectrum(f: GridFunction) -> np.ndarray:
    if not f.is_scalar():
        raise ValueError("spectral operators act on scalar grid functions")
    return np.fft.fftn(f.values)


def _multiply(f: GridFunction, mult) -> GridFunction:
    """The real part of the Fourier multiplier ``mult`` applied to f."""
    return GridFunction(f.box, np.fft.ifftn(mult * _spectrum(f)).real)


def bessel_potential(f: GridFunction, s: float) -> GridFunction:
    """Multiplier (1 + |xi|^2)^{s/2} in frequency; s = 0 is the identity up to rounding.

    Positive s roughens, negative s smooths; composition adds orders and the
    map is invertible on the grid for every real s.
    """
    return _multiply(f, _weight(f.box, s / 2.0))


def spectral_derivative(f: GridFunction, axis: int) -> GridFunction:
    return _multiply(f, 1j * _wave_numbers(f.box)[0][axis])


def spectral_laplacian(f: GridFunction) -> GridFunction:
    return _multiply(f, -_wave_numbers(f.box)[1])


def l2_inner(f: GridFunction, g: GridFunction) -> float:
    if f.box != g.box:
        raise ValueError("grid mismatch")
    return float(np.vdot(f.values, g.values) * f.box.cell_volume())


def _norm_sq(power: np.ndarray, box: Box, s: float) -> float:
    """|f|_s^2 from the power spectrum |fhat|^2 of fhat = fftn(f) by Parseval
    on the grid: |J_{-s} f|_{L^2}^2 = cellvol/N * sum (1+|xi|^2)^s |fhat|^2."""
    total = float(np.sum(_weight(box, s) * power))
    return total * box.cell_volume() / float(np.prod(box.nodes))


def sobolev_norm(f: GridFunction, s: float) -> float:
    """|f|_s as the grid L^2 norm of the order-s multiplier applied to f."""
    fhat = _spectrum(f)
    return math.sqrt(max(_norm_sq(fhat.real**2 + fhat.imag**2, f.box, s), 0.0))


def mollify(eta: SignedAtomicMeasure, eps: float, box: Box) -> GridFunction:
    """Gaussian-mollified density of a signed atomic measure on the box grid.

    Atoms must sit at least 6*eps away from every box face so the periodic
    wrap cannot corrupt the moment structure of the density.
    """
    if eps <= 0:
        raise ValueError("mollification scale must be positive")
    if eta.dim != box.dim:
        raise ValueError("measure/box dimension mismatch")
    lo, hi = box.corners
    margin = 6.0 * eps
    if ((eta.locations < lo + margin) | (eta.locations > hi - margin)).any():
        raise ValueError(f"atoms must be at least {margin} inside the box")
    # one (atoms, *nodes) array of squared distances, summed over the atoms
    # in order along axis 0
    per_atom = (-1,) + (1,) * box.dim
    sq = sum((ax - x.reshape(per_atom)) ** 2 for ax, x in zip(np.ix_(*box.axes()), eta.locations.T))
    norm = (2.0 * np.pi * eps * eps) ** (-box.dim / 2.0)
    dens = (eta.weights * norm).reshape(per_atom) * np.exp(-sq / (2.0 * eps * eps))
    return GridFunction(box, np.sum(dens, axis=0))


def leibniz_identity_check(f: GridFunction, h: GridFunction, tol: float = 1e-11) -> CheckReport:
    """Pointwise check of (I - Lap)(f h) = f (I - Lap) h - 2 grad f . grad h - Lap f h.

    Passes when the largest residual is at most ``bound`` = tol * max(|lhs|, 1).
    """
    if f.box != h.box:
        raise ValueError("grid mismatch")
    lhs = GridFunction(f.box, f.values * h.values)
    lhs = GridFunction(f.box, lhs.values - spectral_laplacian(lhs).values)
    grad_dot = sum(
        spectral_derivative(f, axis).values * spectral_derivative(h, axis).values
        for axis in range(f.dim)
    )
    rhs = (
        f.values * (h.values - spectral_laplacian(h).values)
        - 2.0 * grad_dot
        - spectral_laplacian(f).values * h.values
    )
    resid = float(np.max(np.abs(lhs.values - rhs)))
    bound = tol * max(float(np.max(np.abs(lhs.values))), 1.0)
    passed = resid <= bound
    return CheckReport(
        "leibniz-k1",
        bool(passed),
        stats={"max_residual": resid, "bound": bound, "tol": tol},
        failures=[] if passed else [{"max_residual": resid}],
    )


def commutator_residual(f: GridFunction, g: GridFunction, k: int) -> tuple:
    """Squared commutator defect and its Sobolev-product bound.

    Returns (|J_{2k}(fg) - f J_{2k} g|_{L^2}^2, |f|_{2k+d/2+1}^2 |g|_{-2k-1/2}^2);
    the squared left side matches the chain of estimates that produces the
    bound, so the ratio of the two is the quantity to track.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    if f.box != g.box:
        raise ValueError("grid mismatch")
    d = f.dim
    smooth_g = bessel_potential(g, -2.0 * k)
    prod = GridFunction(f.box, f.values * g.values)
    lhs = bessel_potential(prod, -2.0 * k).values - f.values * smooth_g.values
    residual = float(np.sum(np.abs(lhs) ** 2) * f.box.cell_volume())
    bound = (
        sobolev_norm(f, 2.0 * k + d / 2.0 + 1.0) ** 2
        * sobolev_norm(g, -2.0 * k - 0.5) ** 2
    )
    return residual, bound


@dataclass
class DissipationRecord:
    """One evaluation of the smoothed-drift-diffusion pairing and its norms."""

    lhs: float
    norm_sq_loss: float  # |eta|_{1-lam}^2, the dissipated term
    norm_sq_weak: float  # |eta|_{-lam}^2, the absorbing term
    ellipticity_min: float


def dissipation_check(
    eta: SignedAtomicMeasure,
    a: GridFunction,
    b: GridFunction,
    lam: int,
    delta: float,
    eps_moll: float,
) -> DissipationRecord:
    """Pairing int (A + B)(J_{2 lam} eta_moll) d eta_moll with its two norms.

    A f = (1/2) Tr(a D^2 f) and B f = b^T D f; ``a`` carries grid values of a
    (d, d) matrix field, ``b`` of a (d,) vector field.  A single constant c
    fitted across a family must give
    lhs + (delta/4) |eta|_{1-lam}^2 <= c |eta|_{-lam}^2
    (see ``dissipation_constant_check``).  ``delta`` <= 0, or ``a`` whose least
    quadratic form falls below ``delta``, is rejected.  One forward transform
    of the mollified density, one inverse transform of its smoothed gradient
    and Hessian together, and one power spectrum for both norms.
    """
    box = a.box
    d = box.dim
    if a.values.shape != box.nodes + (d, d):
        raise ValueError("matrix field must have shape nodes + (d, d)")
    if b.values.shape != box.nodes + (d,):
        raise ValueError("vector field must have shape nodes + (d,)")
    if not delta > 0:
        raise ValueError(f"delta must be positive, got {delta!r}")
    ell = _field_ellipticity(a.values.shape, a.values.dtype.str, a.values.tobytes())
    if ell < delta - 1e-12:
        raise ValueError(f"matrix field not {delta}-elliptic (min quadratic form {ell})")

    dens = mollify(eta, eps_moll, box)
    dhat = np.fft.fftn(dens.values)
    # the gradient and the Hessian of J_{2 lam} dens along one leading
    # component axis, transformed back over the grid axes only
    smoothed = _weight(box, -float(lam)) * dhat
    jets = np.fft.ifftn(_derivative_multipliers(box) * smoothed, axes=tuple(range(1, d + 1))).real
    grad, hess = jets[:d], jets[d:].reshape((d, d) + box.nodes)
    a_term = 0.5 * np.einsum("...ij,ij...->...", a.values, hess)
    b_term = np.einsum("...i,i...->...", b.values, grad)

    lhs = float(np.sum((a_term + b_term) * dens.values) * box.cell_volume())
    power = dhat.real**2 + dhat.imag**2
    n_loss = _norm_sq(power, box, 1.0 - lam)
    n_weak = _norm_sq(power, box, -float(lam))
    return DissipationRecord(lhs, n_loss, n_weak, ell)


def _dissipation_design() -> list:
    """Separation x center x weight-direction lattice (50 members), plus one dipole.

    For the weights (1, -1) of ``random_dipoles`` the ratio is largest in
    the dipole limit at x = -pi/2, where the diffusion 1.5 + 0.3 sin x is
    weakest and the drift vanishes (0.4986393 at lambda 4, delta 1.2, against
    0.4983319 at the best lattice member); the dipole, atoms 1e-5 apart, makes
    the design maximum the family's sup.
    """
    seps, centers = (0.05, 0.3, 1.0, 2.5, 6.0), (-3.2, -1.6, 0.0, 1.6, 3.2)
    x0, sep = -np.pi / 2, 1e-5
    return [
        SignedAtomicMeasure(1, [[x - s / 2], [x + s / 2]], [np.cos(ang), -np.sin(ang)])
        for s, x, ang in itertools.product(seps, centers, (np.pi / 4, 1.1))
    ] + [SignedAtomicMeasure(1, [[x0 - sep / 2], [x0 + sep / 2]], [1.0, -1.0])]


def random_dipoles(count: int, rng: np.random.Generator) -> list:
    """Two atoms uniform on [-3, 3] with weights (1, -1), ``count`` times."""
    return [
        SignedAtomicMeasure(1, rng.uniform(-3.0, 3.0, size=(2, 1)), np.array([1.0, -1.0]))
        for _ in range(count)
    ]


def dissipation_constant_check(
    held_out: list, box: Box, lam: int, delta: float, eps_moll: float
) -> CheckReport:
    """Fit the dissipation constant on a design, then verify it on held-out measures.

    The model problem on a 1-d ``box`` has diffusion a = 1.5 + 0.3 sin x and
    drift b = 0.5 cos x.  The constant c is the largest ratio
    (lhs + (delta/4) |eta|_{1-lam}^2) / |eta|_{-lam}^2 over a deterministic
    design that covers the ``random_dipoles`` family, and no held-out ratio
    may exceed c (1 + 1e-9) + 1e-12.  ``stats`` carries c and each held-out
    record and ratio.  The design is the family's sup only at lam 4 (delta
    1.0-1.2); at lam 3 held-out dipoles at finite separation exceed it, so
    the check can fail there on a correct program.  At least one held-out
    measure is needed.
    """
    if not held_out:
        raise ValueError("dissipation_constant_check needs at least one held-out measure")
    xs = box.axes()[0]
    a = GridFunction(box, (1.5 + 0.3 * np.sin(xs))[:, None, None])
    b = GridFunction(box, (0.5 * np.cos(xs))[:, None])

    def ratio(eta):
        rec = dissipation_check(eta, a, b, lam, delta, eps_moll)
        return rec, (rec.lhs + 0.25 * delta * rec.norm_sq_loss) / rec.norm_sq_weak

    c_fit = max(ratio(eta)[1] for eta in _dissipation_design())
    records, ratios, failures = [], [], []
    for i, eta in enumerate(held_out):
        rec, r = ratio(eta)
        records.append(rec)
        ratios.append(r)
        if r > c_fit * (1 + 1e-9) + 1e-12:
            failures.append({"case": i, "ratio": r, "bound": c_fit})
    return CheckReport(
        "dissipation-constant",
        not failures,
        stats={"fitted_c": c_fit, "records": records, "ratios": ratios},
        failures=failures,
    )


def _ellipticity_minimum(avals: np.ndarray) -> float:
    """Minimum of xi^T a(x) xi / |xi|^2 over grid points and unit directions:
    the least eigenvalue of the symmetric part of the (d, d) field ``avals``."""
    sym = 0.5 * (avals + np.swapaxes(avals, -1, -2))
    return float(np.min(np.linalg.eigvalsh(sym)))


@functools.lru_cache(maxsize=8)
def _field_ellipticity(shape: tuple, dtype: str, data: bytes) -> float:
    """``_ellipticity_minimum`` of the field with these raw values, keyed by
    its bytes so that callers passing the same field run the guard once and
    a changed field never reads another's minimum."""
    return _ellipticity_minimum(np.frombuffer(data, dtype=dtype).reshape(shape))


def random_band_limited(box: Box, band: int, rng: np.random.Generator) -> GridFunction:
    """Real random function with spectrum supported on frequency indices <= band."""
    if band < 0:
        raise ValueError(f"band must be >= 0, got {band}")
    shape = box.nodes
    spec = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    low = [np.minimum(np.arange(n), n - np.arange(n)) <= band for n in shape]
    mask = np.logical_and.reduce(np.meshgrid(*low, indexing="ij"))
    spec = np.where(mask, spec, 0.0)
    vals = np.fft.ifftn(spec).real
    scale = max(float(np.max(np.abs(vals))), 1e-300)
    return GridFunction(box, vals / scale)


def refine_grid(f: GridFunction) -> GridFunction:
    """Resample a band-limited grid function on a grid twice as fine along each axis."""
    old = f.box.nodes
    # zero-pad the centred spectrum; the Nyquist bin lands on -n/2
    pad = [(n // 2,) * 2 for n in old]
    spec = np.fft.ifftshift(np.pad(np.fft.fftshift(_spectrum(f)), pad))
    vals = np.fft.ifftn(spec) * (2 ** len(old))
    box = Box(f.box.origin, f.box.lengths, tuple(2 * n for n in old))
    return GridFunction(box, vals.real)
