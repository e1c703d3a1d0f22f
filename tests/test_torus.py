"""Torus points, quadrants, R^4 embedding, and sampled trajectories."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torus_scatter import ere, torus

ANGLES = st.floats(-50.0, 50.0, allow_nan=False)


@given(x=ANGLES)
@settings(max_examples=300, deadline=None)
def test_wrap_angle_idempotent_and_in_window(x):
    w = torus.wrap_angle(x)
    assert -math.pi <= w < math.pi
    assert torus.wrap_angle(w) == pytest.approx(w, abs=1e-12)
    # same point on the circle
    assert math.remainder(x - w, 2 * math.pi) == pytest.approx(0.0, abs=1e-9)


def test_torus_point_canonicalizes():
    pt = torus.TorusPoint(3 * math.pi, -5 * math.pi / 2)
    assert pt.phi == pytest.approx(-math.pi)
    assert pt.theta == pytest.approx(-math.pi / 2)


def test_embedding_fixed_points():
    origin = torus.embed_r4(torus.TorusPoint(0.0, 0.0))
    assert (origin.x, origin.y, origin.z, origin.w) == pytest.approx((1.0, 0.0, 0.0, 0.0))
    anti = torus.embed_r4(torus.TorusPoint(math.pi, 0.0))
    assert (anti.x, anti.y, anti.z, anti.w) == pytest.approx((0.0, 0.0, 1.0, 0.0))


@given(phi=ANGLES, theta=ANGLES)
@settings(max_examples=200, deadline=None)
def test_embedding_lies_on_unit_sphere_slice(phi, theta):
    """Both circle factors carry radius 1/sqrt(2): total norm is 1."""
    emb = torus.embed_r4(torus.TorusPoint(phi, theta))
    assert emb.norm() == pytest.approx(1.0, abs=1e-12)


@given(phi=ANGLES, theta=ANGLES, dphi=st.floats(-1e-4, 1e-4), dtheta=st.floats(-1e-4, 1e-4))
@settings(max_examples=200, deadline=None)
def test_line_element_is_flat_metric(phi, theta, dphi, dtheta):
    if abs(dphi) + abs(dtheta) < 1e-8:
        return
    a = torus.TorusPoint(phi, theta)
    b = torus.TorusPoint(phi + dphi, theta + dtheta)
    ratio = torus.line_element_check(a, b)
    assert ratio == pytest.approx(1.0, abs=1e-6)


def test_line_element_check_rejects_far_points():
    with pytest.raises(ValueError):
        torus.line_element_check(torus.TorusPoint(0.0, 0.0), torus.TorusPoint(0.5, 0.0))


def test_quadrants_by_sign():
    assert torus.quadrant(torus.TorusPoint(0.5, 0.5)) is torus.Quadrant.I
    assert torus.quadrant(torus.TorusPoint(-0.5, 0.5)) is torus.Quadrant.II
    assert torus.quadrant(torus.TorusPoint(-0.5, -0.5)) is torus.Quadrant.III
    assert torus.quadrant(torus.TorusPoint(0.5, -0.5)) is torus.Quadrant.IV
    assert torus.quadrant(torus.TorusPoint(0.0, 0.5)) is torus.Quadrant.BOUNDARY
    assert torus.quadrant(torus.TorusPoint(math.pi, 0.5)) is torus.Quadrant.BOUNDARY
    assert torus.Quadrant.I.position == "top-right"
    assert torus.Quadrant.III.position == "bottom-left"


def _model():
    return ere.TwoChannelModel(3, ere.Channel3D(1.0), ere.Channel3D(5.0))


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


def test_sample_trajectory_rejects_coarse_grid():
    model = ere.make_symmetric_model("T2", 6, 1.0, 1.0, lam=0.5)
    with pytest.raises(ValueError, match="refine"):
        torus.sample_trajectory(model, np.array([0.01, 100.0]))


def test_trajectory_validation():
    with pytest.raises(ValueError):
        torus.Trajectory(
            model=_model(),
            p=np.array([1.0, 0.5]),
            phi=np.zeros(2),
            theta=np.zeros(2),
        )


def test_trajectory_tangents_respect_parameter_scale():
    grid = np.geomspace(1e-1, 1e1, 201)
    traj = torus.sample_trajectory(_model(), grid)
    scaled = torus.Trajectory(
        model=traj.model,
        p=traj.p * 2.0,
        phi=traj.phi,
        theta=traj.theta,
        parameter_scale=2.0,
    )
    np.testing.assert_allclose(scaled.momenta, grid, rtol=1e-15)
    dphi, dtheta = traj.tangents()
    dphi_s, dtheta_s = scaled.tangents()
    np.testing.assert_allclose(dphi_s, dphi / 2.0, rtol=1e-13)
    np.testing.assert_allclose(dtheta_s, dtheta / 2.0, rtol=1e-13)


def test_trajectory_quadrants_follow_wrapped_points():
    grid = np.geomspace(1e-2, 1e2, 101)
    traj = torus.sample_trajectory(_model(), grid)
    quads = traj.quadrants()
    phi_w, theta_w = traj.wrapped
    for q, pw, tw in zip(quads, phi_w, theta_w):
        assert q is torus.quadrant(torus.TorusPoint(pw, tw))


def test_trajectory_quadrants_match_pointwise_labels_at_edges():
    tol = torus.BOUNDARY_TOL
    edges = [0.0, math.pi, -math.pi, 2.0 * math.pi, 2.0 * tol, -2.0 * tol, 0.5 * tol,
             -0.5 * tol, math.pi - 2.0 * tol, math.pi - 0.5 * tol, 0.5, -0.5, 2.5, -2.5]
    phi, theta = (np.array(x) for x in zip(*((f, t) for f in edges for t in edges)))
    traj = torus.Trajectory(_model(), np.arange(1.0, phi.size + 1.0), phi, theta)
    quads = traj.quadrants()
    assert quads == [torus.quadrant(pt) for pt in traj.points]
    assert set(quads) == set(torus.Quadrant)
