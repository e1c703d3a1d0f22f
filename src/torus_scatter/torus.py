"""Flat-torus trajectories and their quadrants.

The two doubled phase shifts (phi, theta) live on a flat torus.  A
``Trajectory`` stores the curve traced on the torus as the momentum runs
over a grid, keeping both the continuous (unwrapped) phases and their wrapped
representatives.  Quadrants are named by the signs of (sin phi, sin theta)
following the usual picture of the fundamental square: "bottom-left" means
both phases lie in (-pi, 0) mod 2pi.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import ere

__all__ = ["Quadrant", "Trajectory", "wrap_angle", "sample_trajectory"]

#: Points closer than this to a quadrant edge (in |sin| of either phase)
#: are labeled boundary rather than assigned a quadrant.
BOUNDARY_TOL = 1e-12


def wrap_angle(x):
    """Reduce an angle (or array) to the canonical interval [-pi, pi)."""
    return np.mod(np.asarray(x, dtype=float) + np.pi, 2.0 * np.pi)[()] - np.pi


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


@dataclass(frozen=True)
class Trajectory:
    """An S-matrix curve sampled over a strictly increasing momentum grid.

    ``p`` holds the c.o.m. momenta; ``phi`` and ``theta`` are the continuous
    (unwrapped) phases there.
    """

    model: ere.TwoChannelModel
    p: np.ndarray
    phi: np.ndarray
    theta: np.ndarray

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
    def wrapped(self) -> tuple[np.ndarray, np.ndarray]:
        return wrap_angle(self.phi), wrap_angle(self.theta)

    def quadrants(self) -> list[Quadrant]:
        """Quadrant of every sample, as ``Quadrant`` members (see ``positions``)."""
        return [_BY_POSITION[s] for s in self.positions().tolist()]

    def positions(self) -> np.ndarray:
        """``Quadrant.position`` of every sample's quadrant, as a string array."""
        return _positions(*self.wrapped)

    def tangents(self) -> tuple[np.ndarray, np.ndarray]:
        """d(phi)/dp and d(theta)/dp at the samples."""
        dphi, dtheta = ere.tangents(self.model, self.p)
        return np.asarray(dphi), np.asarray(dtheta)


def sample_trajectory(model: ere.TwoChannelModel, p_grid) -> Trajectory:
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
    phi, theta = ere.phases(model, p_grid)
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
    return Trajectory(model=model, p=p_grid, phi=phi, theta=theta)
