"""Flat-torus geometry: embedding, metric check, trajectories, quadrants.

The two doubled phase shifts (phi, theta) live on a flat torus.  The unitary
scattering operator embeds the torus in R^4 through the real and imaginary
parts of its identity and exchange components; that embedding is isometric to
the flat line element ds^2 = (dphi^2 + dtheta^2)/2, which ``line_element_check``
verifies by finite differences.

A ``Trajectory`` stores the curve traced on the torus as the momentum runs
over a grid, keeping both the continuous (unwrapped) phases and their wrapped
representatives.  Quadrants are named by the signs of (sin phi, sin theta)
following the usual picture of the fundamental square: "bottom-left" means
both phases lie in (-pi, 0) mod 2pi.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from . import ere

__all__ = [
    "TorusPoint",
    "Embedding4",
    "Quadrant",
    "Trajectory",
    "wrap_angle",
    "embed_r4",
    "line_element_check",
    "quadrant",
    "sample_trajectory",
]

#: Points closer than this to a quadrant edge (in |sin| of either phase)
#: are labeled boundary rather than assigned a quadrant.
BOUNDARY_TOL = 1e-12


def wrap_angle(x):
    """Reduce an angle (or array) to the canonical interval [-pi, pi)."""
    return np.mod(np.asarray(x, dtype=float) + np.pi, 2.0 * np.pi)[()] - np.pi


@dataclass(frozen=True)
class TorusPoint:
    """A point on the flat torus, canonicalized to [-pi, pi) per coordinate."""

    phi: float
    theta: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "phi", float(wrap_angle(self.phi)))
        object.__setattr__(self, "theta", float(wrap_angle(self.theta)))


@dataclass(frozen=True)
class Embedding4:
    """Coordinates of a torus point on the unit sphere in R^4."""

    x: float
    y: float
    z: float
    w: float

    def norm(self) -> float:
        return math.sqrt(self.x**2 + self.y**2 + self.z**2 + self.w**2)


def embed_r4(point: TorusPoint) -> Embedding4:
    """Embed a torus point in R^4 via the scattering-operator components.

    x = (cos phi + cos theta)/2, y = (sin phi + sin theta)/2,
    z = (-cos phi + cos theta)/2, w = (-sin phi + sin theta)/2.
    The image always lies on the unit 3-sphere.
    """
    cp, sp = math.cos(point.phi), math.sin(point.phi)
    ct, st = math.cos(point.theta), math.sin(point.theta)
    return Embedding4(
        x=0.5 * (cp + ct),
        y=0.5 * (sp + st),
        z=0.5 * (-cp + ct),
        w=0.5 * (-sp + st),
    )


def line_element_check(point_a: TorusPoint, point_b: TorusPoint) -> float:
    """Ratio of the embedded squared distance to (dphi^2 + dtheta^2)/2.

    For infinitesimally separated points the ratio tends to 1, confirming the
    flat metric carried by the R^4 embedding.  Separations must be small
    (|dphi|, |dtheta| <= 1e-3) and not both zero.
    """
    dphi = wrap_angle(point_b.phi - point_a.phi)
    dtheta = wrap_angle(point_b.theta - point_a.theta)
    if abs(dphi) > 1e-3 or abs(dtheta) > 1e-3:
        raise ValueError("points must be separated by at most 1e-3 per coordinate")
    denom = 0.5 * (dphi * dphi + dtheta * dtheta)
    if denom == 0.0:
        raise ValueError("zero separation")
    ea, eb = embed_r4(point_a), embed_r4(point_b)
    num = (
        (eb.x - ea.x) ** 2
        + (eb.y - ea.y) ** 2
        + (eb.z - ea.z) ** 2
        + (eb.w - ea.w) ** 2
    )
    return num / denom


class Quadrant(enum.Enum):
    """Open quadrants of the fundamental square, named by position.

    I is top-right (both sines positive), II top-left, III bottom-left
    (both phases in (-pi, 0)), IV bottom-right.  BOUNDARY marks points on a
    quadrant edge (either phase a multiple of pi).
    """

    I = "top-right"
    II = "top-left"
    III = "bottom-left"
    IV = "bottom-right"
    BOUNDARY = "boundary"

    @property
    def position(self) -> str:
        return self.value


_BY_POSITION = {q.position: q for q in Quadrant}


def _positions(phi, theta) -> np.ndarray:
    """``Quadrant.position`` of each (phi, theta) by the signs of their sines;
    a sine below ``BOUNDARY_TOL`` in magnitude is an edge."""
    sp, st = np.sin(phi), np.sin(theta)
    return np.select(
        [
            (np.abs(sp) < BOUNDARY_TOL) | (np.abs(st) < BOUNDARY_TOL),
            (sp > 0) & (st > 0),
            (sp < 0) & (st > 0),
            (sp < 0) & (st < 0),
        ],
        [q.position for q in (Quadrant.BOUNDARY, Quadrant.I, Quadrant.II, Quadrant.III)],
        default=Quadrant.IV.position,
    )


def quadrant(point: TorusPoint) -> Quadrant:
    """Quadrant label of a torus point by the signs of (sin phi, sin theta)."""
    return _BY_POSITION[_positions(point.phi, point.theta).item()]


@dataclass(frozen=True)
class Trajectory:
    """An S-matrix curve sampled over a strictly increasing parameter grid.

    ``p`` holds the curve parameter.  Physically the phases are functions of
    the c.o.m. momentum; ``parameter_scale`` (Omega >= 1) records a Galilean
    relabeling p_param = Omega * p_momentum, so the physical momentum of
    sample i is ``p[i] / parameter_scale``.  ``phi`` and ``theta`` are the
    continuous (unwrapped) phases.
    """

    model: ere.TwoChannelModel
    p: np.ndarray
    phi: np.ndarray
    theta: np.ndarray
    parameter_scale: float = 1.0

    def __post_init__(self) -> None:
        for name in ("p", "phi", "theta"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if not (self.p.ndim == 1 and self.p.size >= 1):
            raise ValueError("p must be a 1D array with at least one sample")
        if self.phi.shape != self.p.shape or self.theta.shape != self.p.shape:
            raise ValueError("phi/theta must match the grid shape")
        if np.any(np.diff(self.p) <= 0):
            raise ValueError("parameter grid must be strictly increasing")

    @property
    def momenta(self) -> np.ndarray:
        """Physical momenta of the samples (undoing any Galilean relabeling)."""
        return self.p / self.parameter_scale

    @property
    def points(self) -> list[TorusPoint]:
        return [TorusPoint(f, t) for f, t in zip(self.phi, self.theta)]

    @property
    def wrapped(self) -> tuple[np.ndarray, np.ndarray]:
        return wrap_angle(self.phi), wrap_angle(self.theta)

    def quadrants(self) -> list[Quadrant]:
        """Quadrant of every sample: ``quadrant(pt)`` for each of ``points``."""
        return [_BY_POSITION[s] for s in self.positions().tolist()]

    def positions(self) -> np.ndarray:
        """``Quadrant.position`` of every sample's quadrant, as a string array."""
        return _positions(*self.wrapped)

    def tangents(self) -> tuple[np.ndarray, np.ndarray]:
        """d(phi)/dp and d(theta)/dp with respect to the stored parameter."""
        dphi, dtheta = ere.tangents(self.model, self.momenta)
        scale = self.parameter_scale
        return np.asarray(dphi) / scale, np.asarray(dtheta) / scale


def sample_trajectory(
    model: ere.TwoChannelModel, p_grid, parameter_scale: float = 1.0
) -> Trajectory:
    """Sample the model's phases over a sorted positive momentum grid.

    The phase formulas already produce the continuous branch; the sampled
    values are verified to be continuous at the grid resolution, and a grid
    whose adjacent samples jump by pi or more in either phase is rejected
    (refine the grid).
    """
    p_grid = np.asarray(p_grid, dtype=float)
    if p_grid.ndim != 1 or p_grid.size < 1:
        raise ValueError("p_grid must be a 1D array")
    if np.any(p_grid < 0) or np.any(np.diff(p_grid) <= 0):
        raise ValueError("p_grid must be sorted, strictly increasing and >= 0")
    phi, theta = ere.phases(model, p_grid / parameter_scale)
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    for name, vals in (("phi", phi), ("theta", theta)):
        jumps = np.abs(np.diff(vals))
        if jumps.size and np.max(jumps) >= np.pi:
            k = int(np.argmax(jumps))
            raise ValueError(
                f"grid too coarse for unwrapping: {name} jumps by "
                f"{jumps[k]:.3f} rad between p={p_grid[k]:.6g} and "
                f"p={p_grid[k + 1]:.6g}; refine the grid"
            )
    return Trajectory(
        model=model, p=p_grid, phi=phi, theta=theta, parameter_scale=parameter_scale
    )
