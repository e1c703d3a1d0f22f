"""Flat-torus trajectories and their quadrants.

The two doubled phase shifts (phi, theta) live on a flat torus.  A
``Trajectory`` is the curve traced on the torus as the momentum runs over a
grid, with the phases' first two momentum derivatives, from one evaluation of
each channel's ERE pair; every consumer of the curve reads it.  Quadrants are
named by the signs of (sin phi, sin theta) following the usual picture of the
fundamental square: "bottom-left" means both phases lie in (-pi, 0) mod 2pi.
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
    """An S-matrix curve sampled by ``sample_trajectory`` over a grid ``p``:
    the continuous (unwrapped) phases ``phi`` and ``theta``, their momentum
    derivatives ``dphi``/``dtheta`` and second derivatives ``d2phi``/``d2theta``.
    """

    model: ere.TwoChannelModel
    p: np.ndarray
    phi: np.ndarray
    theta: np.ndarray
    dphi: np.ndarray
    dtheta: np.ndarray
    d2phi: np.ndarray
    d2theta: np.ndarray

    def quadrants(self) -> list[Quadrant]:
        """Quadrant of every sample, as ``Quadrant`` members (see ``positions``)."""
        return [_BY_POSITION[s] for s in self.positions().tolist()]

    def positions(self) -> np.ndarray:
        """``Quadrant.position`` of every sample's quadrant, as a string array."""
        return _positions(wrap_angle(self.phi), wrap_angle(self.theta))

    def tangents(self) -> tuple[np.ndarray, np.ndarray]:
        """d(phi)/dp and d(theta)/dp at the samples."""
        return self.dphi, self.dtheta


def sample_trajectory(model: ere.TwoChannelModel, p_grid) -> Trajectory:
    """The model's curve over a non-empty, strictly increasing grid of p > 0,
    from one second-order evaluation of each channel's ERE pair, bit for bit
    ``ere``'s phases and derivatives.

    The phase formulas are analytic and on their continuous branch at every
    momentum, so any grid is accepted, however coarse.
    """
    p = np.asarray(p_grid, dtype=float)
    if not (p.ndim == 1 and p.size >= 1):
        raise ValueError("momentum grid must be a non-empty 1D array")
    if not (p[0] > 0 and np.all(np.diff(p) > 0)):
        raise ValueError("momentum grid must be strictly increasing with p > 0")
    (phi, dphi, d2phi), (theta, dtheta, d2theta) = (
        ere._from_pair(ch.pair(p, 2)) for ch in model.channels
    )
    return Trajectory(model, p, phi, theta, dphi, dtheta, d2phi, d2theta)
