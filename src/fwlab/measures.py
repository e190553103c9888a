"""Finitely supported signed measures on R^d.

Probability measures are the nonnegative unit-mass special case of the same
type; signed measures (differences of probability measures, in particular)
are first-class values because the spectral penalization machinery consumes
them directly.  All values are immutable after construction and every
operation is pure.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
import numpy as np

__all__ = [
    "SignedAtomicMeasure",
    "Theta",
    "pushforward_shift",
    "dirac",
    "measure_to_json",
    "measure_from_json",
]

_PROB_MASS_TOL = 1e-12


@dataclass(frozen=True)
class SignedAtomicMeasure:
    """A finite signed measure sum_i w_i * delta_{x_i} on R^d.

    Parameters
    ----------
    dim : int
        Ambient dimension d >= 1.
    locations : ndarray, shape (n, d)
        Atom locations; must be finite.
    weights : ndarray, shape (n,)
        Atom weights; arbitrary signs unless ``probability`` is set.
    probability : bool
        When True, all weights must be >= 0 and the total mass must equal 1
        within 1e-12.
    """

    dim: int
    locations: np.ndarray
    weights: np.ndarray
    probability: bool = False

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        loc = np.atleast_2d(np.asarray(self.locations, dtype=float))
        w = np.asarray(self.weights, dtype=float).ravel()
        if loc.shape != (w.size, self.dim):
            raise ValueError(
                f"locations shape {loc.shape} inconsistent with "
                f"{w.size} weights in dimension {self.dim}"
            )
        if not np.all(np.isfinite(loc)):
            raise ValueError("atom locations must be finite")
        if not np.all(np.isfinite(w)):
            raise ValueError("atom weights must be finite")
        if self.probability:
            if np.any(w < 0):
                raise ValueError("probability measure has a negative weight")
            mass = float(np.sum(w))
            if abs(mass - 1.0) > _PROB_MASS_TOL:
                raise ValueError(f"probability measure has mass {mass!r} != 1")
        # second moment is finite for any finite atom list; assert anyway
        if not np.isfinite(float(np.sum(np.abs(w) * np.sum(loc * loc, axis=1)))):
            raise ValueError("second moment overflow")
        loc = loc.copy()
        w = w.copy()
        loc.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "locations", loc)
        object.__setattr__(self, "weights", w)

    @property
    def n_atoms(self) -> int:
        return self.weights.size

    def mean(self) -> np.ndarray:
        return self.weights @ self.locations

    def second_moment(self) -> float:
        """sum_i w_i |x_i|^2 (signed for signed measures)."""
        return float(self.weights @ np.sum(self.locations**2, axis=1))

    def abs_moment(self) -> float:
        """sum_i w_i |x_i| with Euclidean atom norms."""
        return float(self.weights @ np.linalg.norm(self.locations, axis=1))


def dirac(x, probability: bool = True) -> SignedAtomicMeasure:
    """Point mass at x (x may be a scalar for d=1)."""
    loc = np.atleast_1d(np.asarray(x, dtype=float))
    return SignedAtomicMeasure(loc.size, loc[None, :], np.array([1.0]), probability)


@dataclass(frozen=True)
class Theta:
    """A point (t, mu, m) in [0,T] x P_2(R^d) x R^d."""

    t: float
    measure: SignedAtomicMeasure
    m: np.ndarray

    def __post_init__(self):
        m = np.atleast_1d(np.asarray(self.m, dtype=float))
        if m.size != self.measure.dim:
            raise ValueError("shift vector dimension mismatch")
        if not self.measure.probability:
            raise ValueError("Theta requires a probability measure")
        if not (self.t >= 0.0):
            raise ValueError(f"time {self.t} out of [0, T]")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "m", m)


def pushforward_shift(measure: SignedAtomicMeasure, m) -> SignedAtomicMeasure:
    """Image of the measure under x -> x + m; weights unchanged."""
    m = np.atleast_1d(np.asarray(m, dtype=float))
    if m.size != measure.dim:
        raise ValueError("shift vector dimension mismatch")
    return SignedAtomicMeasure(
        measure.dim, measure.locations + m, measure.weights, measure.probability
    )


def measure_to_json(m: SignedAtomicMeasure) -> str:
    atoms = [list(map(float, x)) + [float(w)] for x, w in zip(m.locations, m.weights)]
    return json.dumps({"dim": m.dim, "atoms": atoms, "probability": m.probability})


def measure_from_json(doc: str | dict) -> SignedAtomicMeasure:
    data = json.loads(doc) if isinstance(doc, str) else doc
    dim = int(data["dim"])
    atoms = data["atoms"]
    if atoms:
        arr = np.asarray(atoms, dtype=float)
        locs, ws = arr[:, :dim], arr[:, dim]
    else:
        locs, ws = np.zeros((0, dim)), np.zeros(0)
    return SignedAtomicMeasure(dim, locs, ws, bool(data.get("probability", False)))
