"""Angle wrapping, quadrants, and sampled trajectories."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torus_scatter import ere, geometry, torus

from oracles import QUADRANT_LABELS, quadrant_oracle

ANGLES = st.floats(-50.0, 50.0, allow_nan=False)


@given(x=ANGLES)
@settings(max_examples=300, deadline=None)
def test_wrap_angle_idempotent_and_in_window(x):
    w = torus.wrap_angle(x)
    assert -math.pi <= w < math.pi
    assert torus.wrap_angle(w) == pytest.approx(w, abs=1e-12)
    # same point on the circle
    assert math.remainder(x - w, 2 * math.pi) == pytest.approx(0.0, abs=1e-9)


def test_wrap_angle_stays_below_pi_at_the_edges():
    """np.mod rounds the remainder of a phase just below -pi up to 2 pi; the
    wrapped phase is -pi, not pi."""
    edges = [np.nextafter(-math.pi, -4.0), -math.pi, math.pi, 3.0 * math.pi]
    for x in edges:
        w = torus.wrap_angle(x)
        assert isinstance(w, np.float64) and -math.pi <= w < math.pi, (x, w)
    assert torus.wrap_angle(np.nextafter(-math.pi, -4.0)) == -math.pi
    assert torus.wrap_angle(math.pi) == -math.pi
    wrapped = torus.wrap_angle(np.array(edges))
    assert wrapped.tolist() == [torus.wrap_angle(x) for x in edges]
    assert np.isnan(torus.wrap_angle(np.nan))


def test_quadrants_by_sign():
    cases = [
        ((0.5, 0.5), "top-right"),
        ((-0.5, 0.5), "top-left"),
        ((-0.5, -0.5), "bottom-left"),
        ((0.5, -0.5), "bottom-right"),
        ((0.0, 0.5), "boundary"),
        ((math.pi, 0.5), "boundary"),
    ]
    phi, theta = (np.array(x) for x in zip(*(pt for pt, _ in cases)))
    quads = _at_points(phi, theta).quadrants()
    assert isinstance(quads, np.ndarray)
    assert quads.tolist() == [label for _, label in cases]


def test_array_records_compare_and_hash_by_identity():
    """``Trajectory`` and ``AffineCurve`` hold arrays, so they are equal only
    to themselves and hash by identity; comparing two never raises."""
    grid = np.geomspace(0.1, 10.0, 5)
    a, b = (torus.sample_trajectory(_model(), grid) for _ in range(2))
    pot = geometry.potential_3d(1.0, 5.0)
    c, d = (geometry.integrate_affine(pot, (0.3, 0.2, 0.5, -0.4), 1.0, n_samples=5)
            for _ in range(2))
    for x, y in ((a, b), (c, d)):
        assert hash(x) == hash(x) and x == x and not x != x
        assert x != y and not x == y
        assert len({x, y}) == 2
def _model():
    return ere.TwoChannelModel(3, ere.Channel3D(1.0), ere.Channel3D(5.0))


def _at_points(phi, theta):
    """A trajectory through the given torus points (its derivatives are unused)."""
    zeros = np.zeros_like(phi)
    return torus.Trajectory(
        _model(), np.arange(1.0, phi.size + 1.0), phi, theta, zeros, zeros, zeros, zeros
    )


def test_sample_trajectory_is_continuous():
    grid = np.geomspace(1e-2, 1e2, 401)
    traj = torus.sample_trajectory(_model(), grid)
    assert traj.phi.shape == grid.shape
    assert np.max(np.abs(np.diff(traj.phi))) < math.pi
    # unwrapped phases agree with the direct computation modulo 2 pi
    phi_direct, theta_direct = ere.phases(_model(), grid)
    np.testing.assert_allclose(
        np.mod(traj.phi - phi_direct + math.pi, 2 * math.pi) - math.pi, 0.0, atol=1e-10
    )
    np.testing.assert_allclose(
        np.mod(traj.theta - theta_direct + math.pi, 2 * math.pi) - math.pi, 0.0, atol=1e-10
    )


def test_sample_trajectory_accepts_a_two_point_grid():
    """The singlet passes -pi at sqrt(2) between the samples; no grid is too coarse."""
    model = ere.make_symmetric_model("T2", 6, 1.0, 1.0, lam=0.5)
    grid = np.array([0.01, 100.0])
    traj = torus.sample_trajectory(model, grid)
    phi, theta = ere.phases(model, grid)
    assert abs(traj.phi[1] - traj.phi[0]) > math.pi
    np.testing.assert_array_equal(traj.p, grid)
    np.testing.assert_array_equal(traj.phi, phi)
    np.testing.assert_array_equal(traj.theta, theta)


def test_trajectory_validation():
    """The grid must be non-empty, 1D, strictly increasing and positive."""
    for grid in ([1.0, 0.5], [0.5, 0.5], [], [[0.5, 1.0]], [0.0, 1.0], [-1.0, 1.0], [np.nan]):
        for model in (_model(), ere.make_2d_model(1.0, 3.0)):
            with pytest.raises(ValueError, match="^momentum grid must be"):
                torus.sample_trajectory(model, grid)


def test_trajectory_tangents_are_the_ere_tangents():
    """One evaluation of each pair gives ``ere``'s phases and tangents bit for
    bit: 3D zero range, lambda = 1/4, a finite range, and 2D.  Its second
    derivatives are checked against oracles in ``test_ere``."""
    grid = np.geomspace(1e-1, 1e1, 201)
    for model in (
        _model(),
        ere.make_symmetric_model("T3", 6, -1.0, -5.0, lam=0.25),
        ere.TwoChannelModel(3, ere.Channel3D(1.5), ere.Channel3D(-2.0, r=-0.5)),
        ere.make_2d_model(1.0, 3.0),
    ):
        traj = torus.sample_trajectory(model, grid)
        for got, want in (
            ((traj.phi, traj.theta), ere.phases(model, grid)),
            (traj.tangents(), ere.tangents(model, grid)),
        ):
            for g, w in zip(got, want):
                assert g.shape == grid.shape
                np.testing.assert_array_equal(g, w)


def test_trajectory_quadrants_follow_wrapped_points():
    grid = np.geomspace(1e-2, 1e2, 101)
    traj = torus.sample_trajectory(_model(), grid)
    assert traj.quadrants().tolist() == [
        quadrant_oracle(f, t) for f, t in zip(traj.phi, traj.theta)
    ]


def test_trajectory_quadrants_match_pointwise_labels_at_edges():
    tol = torus.BOUNDARY_TOL
    edges = [0.0, math.pi, -math.pi, 2.0 * math.pi, 2.0 * tol, -2.0 * tol, 0.5 * tol,
             -0.5 * tol, math.pi - 2.0 * tol, math.pi - 0.5 * tol, 0.5, -0.5, 2.5, -2.5]
    phi, theta = (np.array(x) for x in zip(*((f, t) for f in edges for t in edges)))
    quads = _at_points(phi, theta).quadrants().tolist()
    assert quads == [quadrant_oracle(f, t) for f, t in zip(phi, theta)]
    assert set(quads) == set(QUADRANT_LABELS)
