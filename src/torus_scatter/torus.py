"""Flat-torus trajectories and their quadrants.

The two doubled phase shifts (phi, theta) live on a flat torus.  A
``Trajectory`` is the curve traced on the torus as the momentum runs over a
grid, with the phases' first two momentum derivatives, from one
``ere.derivatives`` call; every consumer of the curve reads it.  Quadrants are
named by position in the usual picture of the fundamental square, from the
signs of (sin phi, sin theta): "top-right" (both sines positive),
"top-left", "bottom-left" (both phases in (-pi, 0) mod 2pi) and
"bottom-right", or "boundary" on a quadrant edge, where either phase is a
multiple of pi.  ``Trajectory.quadrants`` is the one labeller; the ``traj``
CSV prints its labels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ere

__all__ = ["Trajectory", "wrap_angle", "sample_trajectory"]

#: Points closer than this to a quadrant edge (in |sin| of either phase)
#: are labeled boundary rather than assigned a quadrant.
BOUNDARY_TOL = 1e-12


def wrap_angle(x):
    """Reduce an angle (or array) to the canonical interval [-pi, pi)."""
    r = np.mod(np.asarray(x, dtype=float) + np.pi, 2.0 * np.pi)
    # np.mod rounds a remainder just below 2 pi up to 2 pi (x just below -pi).
    return np.where(r == 2.0 * np.pi, 0.0, r)[()] - np.pi


def _positions(phi, theta) -> np.ndarray:
    """The quadrant label of each (phi, theta) by the signs of their sines;
    a sine below ``BOUNDARY_TOL`` in magnitude is an edge."""
    sp, st = np.sin(phi), np.sin(theta)
    return np.select(
        [
            (np.abs(sp) < BOUNDARY_TOL) | (np.abs(st) < BOUNDARY_TOL),
            (sp > 0) & (st > 0),
            (sp < 0) & (st > 0),
            (sp < 0) & (st < 0),
        ],
        ["boundary", "top-right", "top-left", "bottom-left"],
        default="bottom-right",
    )


@dataclass(frozen=True, eq=False)
class Trajectory:
    """An S-matrix curve sampled by ``sample_trajectory`` over a grid ``p``:
    the continuous (unwrapped) phases ``phi`` and ``theta``, their momentum
    derivatives ``dphi``/``dtheta`` and second derivatives ``d2phi``/``d2theta``.
    Equal and hashed by identity (``eq=False``), as its array fields cannot be.
    """

    model: ere.TwoChannelModel
    p: np.ndarray
    phi: np.ndarray
    theta: np.ndarray
    dphi: np.ndarray
    dtheta: np.ndarray
    d2phi: np.ndarray
    d2theta: np.ndarray

    def quadrants(self) -> np.ndarray:
        """The quadrant label of every sample (see the module docstring), as a
        string array."""
        return _positions(wrap_angle(self.phi), wrap_angle(self.theta))

    def tangents(self) -> tuple[np.ndarray, np.ndarray]:
        """d(phi)/dp and d(theta)/dp at the samples."""
        return self.dphi, self.dtheta


def sample_trajectory(model: ere.TwoChannelModel, p_grid) -> Trajectory:
    """The model's curve over a non-empty, strictly increasing grid of p > 0,
    from one second-order ``ere.derivatives``, so bit for bit ``ere``'s
    phases and tangents.

    The phase formulas are analytic and on their continuous branch at every
    momentum, so any grid is accepted, however coarse.
    """
    p = np.asarray(p_grid, dtype=float)
    if not (p.ndim == 1 and p.size >= 1):
        raise ValueError("momentum grid must be a non-empty 1D array")
    # Neighbours compared directly, not by np.diff: its Python layer costs
    # more than the comparison on a grid of one to hundreds of points.
    if not (p[0] > 0 and (p[1:] > p[:-1]).all()):
        raise ValueError("momentum grid must be strictly increasing with p > 0")
    (phi, dphi, d2phi), (theta, dtheta, d2theta) = ere.derivatives(model, p, 2)
    return Trajectory(model, p, phi, theta, dphi, dtheta, d2phi, d2theta)
