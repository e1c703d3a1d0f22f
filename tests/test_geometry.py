"""Potentials, lapse, trajectory equations, affine integration."""

import itertools
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from torus_scatter import ere, geometry, torus

import oracles
from oracles import polyline_distance_all_pairs

LENGTHS = st.floats(0.1, 10.0) | st.floats(-10.0, -0.1)


def _zero_range(a0, a1):
    return ere.TwoChannelModel(3, ere.Channel3D(a0), ere.Channel3D(a1))


# ---------------------------------------------------------------------------
# potentials
# ---------------------------------------------------------------------------


def test_epsilon_convention():
    assert geometry.epsilon_for(1.0, 5.0) == -1
    assert geometry.epsilon_for(-1.0, -5.0) == -1
    assert geometry.epsilon_for(1.0, -5.0) == +1


def test_potential_3d_amplitude():
    pot = geometry.potential_3d(1.0, 1.0)
    assert pot.amplitude == pytest.approx(0.25, abs=1e-15)
    assert pot.scale == 0.5 and pot.chi == 0.0
    # c1 rescaling divides the amplitude
    assert geometry.potential_3d(1.0, 1.0, c1=2.0).amplitude == pytest.approx(1.0 / 16.0)
    with pytest.raises(ValueError):
        geometry.potential_3d(0.0, 1.0)
    with pytest.raises(ValueError, match="c1 must be nonzero"):
        geometry.potential_3d(1.0, 1.0, c1=0.0)


def test_potential_lam14_amplitude_and_guard():
    pot = geometry.potential_lam14(1.0, 1.0)
    assert pot.amplitude == pytest.approx(0.125, abs=1e-15)
    assert pot.scale == 0.25
    with pytest.raises(ValueError):
        geometry.potential_lam14(0.0, 1.0)


def test_potential_2d_amplitude_and_guards():
    pot = geometry.potential_2d(1.0, math.e)
    assert pot.amplitude == pytest.approx(-math.pi**2 / 4.0, rel=1e-15)
    assert pot.chi == math.pi / 2
    with pytest.raises(ValueError, match="geodesic"):
        geometry.potential_2d(2.0, 2.0)
    with pytest.raises(ValueError):
        geometry.potential_2d(-1.0, 2.0)


@pytest.mark.parametrize(
    "fields,message",
    [
        ({"epsilon": 0}, "epsilon must be +1 or -1"),
        ({"epsilon": 2}, "epsilon must be +1 or -1"),
        ({"scale": 0.0}, "scale 0.0 is not positive and finite"),
        ({"scale": -0.5}, "scale -0.5 is not positive and finite"),
        ({"scale": math.nan}, "scale nan is not positive and finite"),
        ({"scale": math.inf}, "scale inf is not positive and finite"),
        ({"chi": math.nan}, "chi nan is not finite"),
        ({"chi": -math.inf}, "chi -inf is not finite"),
        ({"c1": 0.0}, "c1 must be nonzero"),
        ({"amplitude": 0.0}, "potential amplitude 0.0 at c1 = 1.0 is not a finite"),
        ({"amplitude": 1e-310}, "potential amplitude 1e-310 at c1 = 1.0 is not a finite"),
        ({"amplitude": math.inf}, "potential amplitude inf at c1 = 1.0 is not a finite"),
        ({"amplitude": math.nan}, "potential amplitude nan at c1 = 1.0 is not a finite"),
    ],
)
def test_geometric_potential_refuses_by_name(fields, message):
    """The constructor checks only the form: any positive scale and finite
    chi pass (``closed_form`` names the classes); each refusal names its field."""
    base = {"amplitude": 0.3, "epsilon": -1, "scale": 0.7, "chi": 1.2, "c1": 1.0}
    assert geometry.GeometricPotential(**base).scale == 0.7
    with pytest.raises(ValueError, match=re.escape(message)):
        geometry.GeometricPotential(**{**base, **fields})


@given(
    phi=st.floats(-3.0, 3.0),
    theta=st.floats(-3.0, 3.0),
    amp=st.floats(0.05, 2.0),
    eps=st.sampled_from([-1, 1]),
)
@settings(max_examples=200, deadline=None)
def test_gradient_matches_finite_difference(phi, theta, amp, eps):
    pot = geometry.GeometricPotential(amplitude=amp, epsilon=eps, scale=0.5, chi=0.0)
    if abs(math.cos(pot.argument(phi, theta))) < 1e-3:
        return
    h = 1e-6
    g_phi, g_theta = pot.gradient(phi, theta)
    fd_phi = (pot.value(phi + h, theta) - pot.value(phi - h, theta)) / (2 * h)
    fd_theta = (pot.value(phi, theta + h) - pot.value(phi, theta - h)) / (2 * h)
    assert g_phi == pytest.approx(fd_phi, rel=1e-5, abs=1e-7)
    assert g_theta == pytest.approx(fd_theta, rel=1e-5, abs=1e-7)
    # the potential depends on phi + eps * theta only
    assert g_theta == pytest.approx(eps * g_phi, rel=1e-12, abs=1e-15)


# ---------------------------------------------------------------------------
# lapse
# ---------------------------------------------------------------------------


def test_lapse_equal_channels_closed_form():
    m = _zero_range(1.0, 1.0)
    p = np.array([0.2, 1.0, 4.0])
    phi = ere.phases(m, p)[0]
    np.testing.assert_allclose(
        geometry.lapse(torus.sample_trajectory(m, p))[0], 2.0 * np.sin(phi) / p, rtol=1e-13
    )


@given(a0=LENGTHS, a1=LENGTHS, p=st.floats(0.05, 20.0))
@settings(max_examples=200, deadline=None)
def test_lapse_equals_tangent_combination_at_zero_range(a0, a1, p):
    """At r = 0, sin(phi)/p = phi'(p), so the sine-form lapse is
    c1 (phi' - eps theta')."""
    m = _zero_range(a0, a1)
    eps = geometry.epsilon_for(a0, a1)
    dphi, dtheta = ere.tangents(m, p)
    n_val = geometry.lapse(torus.sample_trajectory(m, [p]))[0][0]
    assert n_val == pytest.approx(dphi - eps * dtheta, rel=1e-10, abs=1e-12)


def test_inaffinity_singular_at_vanishing_lapse():
    """``lapse_inaffinity`` flags a vanishing lapse and leaves kappa NaN there."""
    # equal range-corrected channels: phi = theta = -pi at the denominator
    # zero p = sqrt(2), so N ~ 2 sin(phi)/p vanishes there
    m_r = ere.make_symmetric_model("T2", 6, 1.0, 1.0, lam=0.5)
    # 2D equal lengths: phi' = theta' identically, N = 0 everywhere
    m_2d = ere.make_2d_model(2.0, 2.0)
    for model, p in ((m_r, math.sqrt(2.0)), (m_2d, 1.0)):
        kappa, vanishing = geometry.lapse_inaffinity(torus.sample_trajectory(model, [p]))
        assert vanishing.tolist() == [True] and np.isnan(kappa).all()
    # generic case evaluates fine
    generic = torus.sample_trajectory(_zero_range(1.0, 1.0), [0.7])
    kappa, vanishing = geometry.lapse_inaffinity(generic)
    assert vanishing.tolist() == [False] and np.isfinite(kappa).all()


def test_lapse_does_not_depend_on_the_family_tag():
    """T2 rows 4 and 6 at a = (1, 1), lambda = 1/4 have the same channels, so
    the same record and the same lapse, bit for bit."""
    grid = np.geomspace(0.05, 20.0, 50)
    row4, row6 = (ere.make_symmetric_model("T2", row, 1.0, 1.0, lam=0.25) for row in (4, 6))
    assert row4.channels == row6.channels and row4.family != row6.family
    assert geometry.closed_form(row4) == geometry.closed_form(row6) is not None
    got, want = (geometry.lapse(torus.sample_trajectory(m, grid), c1=-2.5) for m in (row4, row6))
    assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))


def test_construction_lapse_is_the_model_lapse_of_its_own_potential():
    for m in (
        _zero_range(1.0, -5.0),
        ere.make_symmetric_model("T3", 6, -1.0, -5.0, lam=0.25),
        ere.make_2d_model(1.0, 3.0),
    ):
        grid = np.geomspace(0.05, 20.0, 50)
        pot = geometry.closed_form_potential(m, c1=-2.5)
        got = geometry.construction_lapse(m, pot, grid)
        want = geometry.lapse(torus.sample_trajectory(m, grid), c1=-2.5)
        assert all(np.array_equal(g, w) for g, w in zip(got, want)), m
    with pytest.raises(ValueError, match="closed-form potential"):
        geometry.construction_lapse(
            _zero_range(1.0, 5.0), geometry.potential_lam14(1.0, 5.0), 1.0
        )
    with pytest.raises(ValueError, match="closed-form potential"):
        acausal = ere.make_symmetric_model("T2", 6, 1.0, 5.0, lam=0.1)
        geometry.construction_lapse(acausal, geometry.potential_3d(1.0, 5.0), 1.0)


def test_each_affine_step_classifies_the_model_once(monkeypatch):
    """construction_lapse and affine_parameter_span each call closed_form once:
    the lapse takes the record that the potential check returns."""
    calls = []
    classify = geometry.closed_form
    monkeypatch.setattr(geometry, "closed_form", lambda m: calls.append(m) or classify(m))
    for m in (
        _zero_range(1.0, -5.0),
        ere.make_symmetric_model("T3", 6, -1.0, -5.0, lam=0.25),
        ere.make_2d_model(1.0, 3.0),
    ):
        pot = classify(m).potential(-2.5)
        calls.clear()
        geometry.construction_lapse(m, pot, np.geomspace(0.05, 20.0, 5))
        assert calls == [m]
        calls.clear()
        geometry.affine_parameter_span(m, pot, 0.1, 0.5)
        assert calls == [m]


# ---------------------------------------------------------------------------
# trajectory equations
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "a0,a1",
    [(1.0, 5.0), (-1.0, -5.0), (2.0, 3.0), (-0.3, -7.0), (1.0, 1.0)],
)
def test_eom_residual_zero_range(a0, a1):
    m = _zero_range(a0, a1)
    pot = geometry.potential_3d(a0, a1)
    grid = np.geomspace(1e-2, 1e2, 500)
    report = geometry.eom_residual(torus.sample_trajectory(m, grid), pot)
    assert report.max_deviation < 1e-8, report.detail["excluded"]


def test_eom_residual_c1_invariant():
    m = _zero_range(1.0, 5.0)
    grid = np.geomspace(1e-1, 1e1, 200)
    traj = torus.sample_trajectory(m, grid)
    r1 = geometry.eom_residual(traj, geometry.potential_3d(1.0, 5.0, c1=1.0))
    r2 = geometry.eom_residual(traj, geometry.potential_3d(1.0, 5.0, c1=4.2))
    assert r2.max_deviation < 1e-8
    assert r1.max_deviation == pytest.approx(r2.max_deviation, abs=1e-9)


@pytest.mark.parametrize("model", [_zero_range(1.0, 5.0), ere.make_2d_model(1.0, 5.0)],
                         ids=["3d", "2d"])
@pytest.mark.parametrize("c1", [1e-140, 1e140, -1e140])
def test_eom_residual_at_an_extreme_c1_equals_it_at_1(model, c1):
    """N^3 under- or overflows at these c1 when formed with N = c1 (...); the
    residual is evaluated c1-free, so the verdict is the one at c1 = 1."""
    traj = torus.sample_trajectory(model, np.geomspace(0.01, 100.0, 5))
    at_1 = geometry.eom_residual(traj, geometry.closed_form_potential(model, 1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        at_c1 = geometry.eom_residual(traj, geometry.closed_form_potential(model, c1))
    assert at_1.passed and at_c1.passed
    assert at_c1.max_deviation == pytest.approx(at_1.max_deviation, abs=at_1.tolerance)


@pytest.mark.parametrize("c1", [1e160, -1e160, 1e-160, 1e-200])
def test_potentials_refuse_an_amplitude_that_is_not_normal(c1):
    for build in (geometry.potential_3d, geometry.potential_lam14, geometry.potential_2d):
        with pytest.raises(ValueError, match=f"at c1 = {re.escape(repr(c1))} is not a finite"):
            build(1.0, 5.0, c1=c1)


def test_eom_residual_detects_wrong_model():
    """The residual is an actual diagnostic: a mismatched model fails loudly."""
    wrong = ere.make_symmetric_model("T2", 6, 1.0, 5.0, lam=0.1)
    pot = geometry.potential_3d(1.0, 5.0)
    grid = np.geomspace(1e-1, 1e1, 300)
    report = geometry.eom_residual(torus.sample_trajectory(wrong, grid), pot)
    assert report.max_deviation > 1e-3


@pytest.mark.parametrize(
    "table,row,a0,a1",
    [
        ("T3", 6, -1.0, -5.0),
        ("T2", 6, 2.0, 3.0),
        ("T2", 6, -0.4, -9.0),
        ("T2", 5, 1.5, -0.7),
        ("T2", 5, -2.0, 0.5),
    ],
)
def test_eom_residual_quarter_lambda_solvable(table, row, a0, a1):
    m = ere.make_symmetric_model(table, row, a0, a1, lam=0.25)
    pot = geometry.potential_lam14(a0, a1)
    assert geometry.closed_form(m).potential() == pot
    grid = np.geomspace(1e-2, 1e2, 500)
    report = geometry.eom_residual(torus.sample_trajectory(m, grid), pot)
    assert report.max_deviation < 1e-8, report.detail["excluded"]


def test_quarter_lambda_complementary_branch_has_no_single_potential():
    """r = -2 a lambda models do not satisfy the closed-form equations.

    The complementary orientation cannot be generated by any potential of
    the single-combination form; the residual against the closed-form
    candidate is O(1), documenting the obstruction rather than a tolerance
    issue.
    """
    m = ere.make_symmetric_model("T3", 5, 1.0, 5.0, lam=0.25)
    assert geometry.closed_form(m) is None
    pot = geometry.potential_lam14(1.0, 5.0)
    grid = np.geomspace(1e-1, 1e1, 300)
    report = geometry.eom_residual(torus.sample_trajectory(m, grid), pot)
    assert report.max_deviation > 1e-2


def _family_models():
    """Every valid 3D T1/T2/T3 row at lambda 0.1 and 0.25, for each sign pattern,
    with pairs of equal magnitude, where rows other than 5 and 6 reach the
    lambda = 1/4 class."""
    pairs = ((1.0, 5.0), (-1.0, 5.0), (1.0, -5.0), (-1.0, -5.0), (-15.0, -1.0),
             (2.0, 2.0), (-2.0, -2.0), (2.0, -2.0))
    for table, rows in (("T1", ere.T1_ROWS), ("T2", ere.T2_ROWS), ("T3", ere.T3_ROWS)):
        for row, lam, (a0, a1) in itertools.product(rows, (0.1, 0.25), pairs):
            try:
                yield ere.make_symmetric_model(table, row, a0, a1, lam=lam)
            except ValueError:
                continue  # the row's sign constraints exclude this pair


def test_closed_form_potential_follows_the_class_rule():
    """3D zero range, the lambda = 1/4 class with r = a/2 in both channels,
    whatever the row, and 2D with distinct lengths have a closed-form
    potential; no other model has one."""
    grid = np.geomspace(1e-2, 1e2, 300)
    c1 = 1.7
    classes = {"zero-range": 0, "lam14": 0, None: 0}
    for m in _family_models():
        a0, a1 = m.singlet.a, m.triplet.a
        if m.singlet.r == 0.0 and m.triplet.r == 0.0:
            kind, want = "zero-range", geometry.potential_3d(a0, a1, c1=c1)
        elif all(math.isclose(ch.r, 0.5 * ch.a, rel_tol=1e-12) for ch in m.channels):
            kind, want = "lam14", geometry.potential_lam14(a0, a1, c1=c1)
        else:
            kind, want = None, None
        classes[kind] += 1
        pot = geometry.closed_form_potential(m, c1=c1)
        assert pot == want, m
        traj = torus.sample_trajectory(m, grid)
        if pot is None:
            # Neither 3D closed form solves this model's trajectory equations.
            for wrong in (geometry.potential_3d(a0, a1), geometry.potential_lam14(a0, a1)):
                assert geometry.eom_residual(traj, wrong).max_deviation > 0.1, m
        else:
            assert geometry.eom_residual(traj, pot).max_deviation < 1e-8, m
    assert classes == {"zero-range": 16, "lam14": 15, None: 107}
    planar = ere.make_2d_model(1.0, 3.0)
    assert geometry.closed_form_potential(planar, c1=c1) == geometry.potential_2d(1.0, 3.0, c1=c1)
    assert geometry.closed_form_potential(ere.make_2d_model(2.0, 2.0)) is None
    assert geometry.closed_form_potential(_zero_range(1.0, -5.0)) == geometry.potential_3d(1.0, -5.0)
    # A zero length is a free channel, with no potential (potential_3d refuses it).
    assert geometry.closed_form_potential(_zero_range(0.0, 5.0)) is None
    assert geometry.closed_form_potential(_zero_range(-1.0, 0.0)) is None


def test_eom_residual_2d():
    m = ere.make_2d_model(1.0, 3.0)
    pot = geometry.potential_2d(1.0, 3.0)
    grid = np.geomspace(1e-2, 1e2, 500)
    report = geometry.eom_residual(torus.sample_trajectory(m, grid), pot)
    assert report.max_deviation < 1e-8, report.detail["excluded"]


def test_overdetermination_2d_consistency():
    # in 2D the two trajectory equations share one unknown, the amplitude:
    # both components must vanish with the same c1^2 * amplitude, over six
    # decades of p and with no grid point excluded
    m = ere.make_2d_model(1.0, math.e)
    pot = geometry.potential_2d(1.0, math.e)
    grid = np.geomspace(1e-3, 1e3, 800)
    report = geometry.eom_residual(torus.sample_trajectory(m, grid), pot)
    assert report.passed and report.max_deviation < 1e-8, report.detail["excluded"]
    assert report.detail["excluded"] == []
    assert np.max(np.abs(report.detail["res_phi"])) < 1e-8
    assert np.max(np.abs(report.detail["res_theta"])) < 1e-8


def test_eom_residual_excludes_2d_turning_point():
    # at the 2D inversion fixed point p = 1/sqrt(a2_0 a2_1) the trajectory
    # turns: phi' = theta' (zero lapse) exactly where the potential argument
    # reaches the tan^2 wall, so the grid point is excluded rather than
    # poisoning the max-norm
    a2_0, a2_1 = 1.0, 4.0
    m = ere.make_2d_model(a2_0, a2_1)
    pot = geometry.potential_2d(a2_0, a2_1)
    p_star = 1.0 / math.sqrt(a2_0 * a2_1)
    grid = np.unique(np.concatenate([np.geomspace(0.1, 10.0, 101), [p_star]]))
    report = geometry.eom_residual(torus.sample_trajectory(m, grid), pot)
    assert any(p == pytest.approx(p_star) for p, _reason in report.detail["excluded"])
    assert all(reason == "potential singularity" for _p, reason in report.detail["excluded"])
    assert report.max_deviation < 1e-8


def test_checks_with_no_grid_point_left_raise():
    # p* = 1/sqrt(a2_0 a2_1) alone: the eom residual excludes it (tan^2 wall).
    m = ere.make_2d_model(1.0, 4.0)
    with pytest.raises(ValueError, match=r"^eom_residual: all 1 grid points excluded"):
        geometry.eom_residual(torus.sample_trajectory(m, [0.5]), geometry.potential_2d(1.0, 4.0))


def test_eom_residual_keeps_vanishing_lapse():
    # equal range-corrected channels: both phases cross -pi at p = sqrt(2),
    # the sine-form lapse vanishes there while the potential stays regular;
    # the equations multiplied through by N stay regular, so nothing is excluded
    m = ere.make_symmetric_model("T2", 6, 1.0, 1.0, lam=0.5)
    pot = geometry.potential_3d(1.0, 1.0)
    grid = np.array([1.3, math.sqrt(2.0), 1.5])
    n_star = geometry.lapse(torus.sample_trajectory(m, [math.sqrt(2.0)]))[0][0]
    assert abs(n_star) < geometry.LAPSE_SINGULAR_TOL
    report = geometry.eom_residual(torus.sample_trajectory(m, grid), pot)
    assert report.detail["excluded"] == []
    assert report.detail["p"].tolist() == grid.tolist()
    assert np.all(np.isfinite(report.detail["res_phi"])) and np.all(
        np.isfinite(report.detail["res_theta"])
    )


def test_eom_residual_refuses_a_nan_derivative():
    # At a = 1e150 and p near 1e10, S^2 + C^2 and SS' overflow: the slope
    # takes its limit 0 and the second derivative is 0 * inf.  A NaN term
    # must not read as a zero residual (a passing check).
    m = ere.make_symmetric_model("T1", 4, 1e150, 1e150)
    traj = torus.sample_trajectory(m, np.geomspace(1e9, 1e10, 5))
    assert np.isnan(traj.d2phi).all()
    with pytest.raises(ValueError, match="^eom_residual: a residual is NaN"):
        geometry.eom_residual(traj, geometry.closed_form_potential(m))


def test_eom_residual_regular_beside_the_2d_lapse_zero():
    # The 2D lapse c1 (phi' - theta') vanishes at p* = 1/sqrt(a0 a1); dividing
    # the equations by it lost ~7 digits on grid points beside p*.
    grid = np.geomspace(1e-2, 1e2, 600)
    rng = np.random.default_rng(20210)
    pairs = [(0.9361, 5.8859)] + [
        (float(a0), float(a1))
        for a0, a1 in zip(rng.uniform(0.5, 2.0, 100), rng.uniform(3.0, 10.0, 100))
    ]
    for a0, a1 in pairs:
        traj = torus.sample_trajectory(ere.make_2d_model(a0, a1), grid)
        report = geometry.eom_residual(traj, geometry.potential_2d(a0, a1))
        assert report.max_deviation < 1e-8, (a0, a1, report.max_deviation)
        assert all(reason == "potential singularity" for _p, reason in report.detail["excluded"])


# ---------------------------------------------------------------------------
# affine integration
# ---------------------------------------------------------------------------


def _affine_setup(a0=1.0, a1=5.0, p_lo=0.05, p_hi=20.0, n=600):
    m = _zero_range(a0, a1)
    pot = geometry.potential_3d(a0, a1)
    grid = np.geomspace(p_lo, p_hi, n)
    phi, theta = ere.phases(m, grid)
    dphi, dtheta = ere.tangents(m, grid)
    n_val, _ = geometry.construction_lapse(m, pot, grid)
    return m, pot, grid, phi, theta, dphi, dtheta, np.asarray(n_val)


def test_integrated_curve_stays_on_closed_form():
    m, pot, grid, phi, theta, dphi, dtheta, n_val = _affine_setup()
    k = 300
    span = geometry.affine_parameter_span(m, pot, grid[k], grid[-1])
    init = (phi[k], theta[k], dphi[k] / n_val[k], dtheta[k] / n_val[k])
    curve = geometry.integrate_affine(pot, init, span, n_samples=500)
    assert not curve.truncated
    ref = np.column_stack([phi[k:], theta[k:]])
    dist = geometry.point_to_polyline_distance(curve.points, ref)
    assert dist.max() < 1e-4


def test_first_integral_conserved():
    m, pot, grid, phi, theta, dphi, dtheta, n_val = _affine_setup()
    k = 300
    span = geometry.affine_parameter_span(m, pot, grid[k], grid[-1])
    init = (phi[k], theta[k], dphi[k] / n_val[k], dtheta[k] / n_val[k])
    curve = geometry.integrate_affine(pot, init, span, n_samples=200)
    e0 = geometry.first_integral(pot, *init)
    e_t = geometry.first_integral(pot, curve.phi, curve.theta, curve.dphi, curve.dtheta)
    assert np.max(np.abs(e_t - e0)) < 1e-8


def test_integrate_affine_rejects_singular_start():
    pot = geometry.potential_3d(1.0, 1.0)
    # eps = -1: the argument (phi - theta)/2 hits pi/2 at (pi/2, -pi/2)
    with pytest.raises(ValueError, match="singular"):
        geometry.integrate_affine(pot, (math.pi / 2, -math.pi / 2, 1.0, 1.0), 1.0)


def test_integrate_affine_rejects_empty_spans_and_sample_counts():
    pot = geometry.potential_3d(1.0, -5.0)
    init = (0.1, 0.2, 0.3, 0.4)
    with pytest.raises(ValueError, match="tau_span must be finite and nonzero, got 0.0"):
        geometry.integrate_affine(pot, init, 0.0)
    for n in (0, -3):
        with pytest.raises(ValueError, match=f"n_samples must be at least 1, got {n}"):
            geometry.integrate_affine(pot, init, 1.0, n_samples=n)
    assert geometry.integrate_affine(pot, init, -0.5, n_samples=np.int64(1)).tau.tolist() == [0.0]


@pytest.mark.parametrize("span", [1.0, -1.0, 7.3e3, -2.9e-2, 5e-322, -5e-322])
@pytest.mark.parametrize("n", [1, 2, 3, 1200])
def test_integrate_affine_samples_are_linspace_bit_for_bit(span, n):
    """The samples are ``np.linspace(0, span, n)``: 0.0, not -0.0, at the
    start of a negative span, and arange / (n - 1) * span where the step
    underflows (5e-322 over 1199 steps)."""
    pot = geometry.potential_3d(1.0, -5.0)
    curve = geometry.integrate_affine(pot, (0.1, 0.2, 0.3, 0.4), span, n_samples=n)
    assert not curve.truncated
    assert curve.tau.tobytes() == np.linspace(0.0, span, n).tobytes()


@pytest.mark.parametrize(
    "init,span",
    [
        ((-1.788555314823298, 2.306698042129761, 791098718.9801114, 230586894.0668687),
         1.74351779446137e-08),
        ((0.024086894409579784, 2.6240588623738086, -1323380305.3809876, 852223367.7124512),
         5.1247992982101384e-08),
    ],
    ids=["w-below-minus-1", "w-above-1"],
)
def test_integrate_affine_clamps_w_to_the_walls(init, span):
    """At these speeds the orbit's amplitude rounds to 1, and the middle of
    three samples is its turning point, where w0 C + w0' S rounds beyond -1
    (first case) or 1 (second): clamped to the wall, the phases stay finite."""
    pot = geometry.potential_3d(1.0, -5.0)
    with np.errstate(divide="ignore"):  # u' = w' / cos u at the wall
        curve = geometry.integrate_affine(pot, init, span, n_samples=3)
    assert np.isfinite(curve.phi).all() and np.isfinite(curve.theta).all()


def test_affine_curve_points_are_column_stack_bit_for_bit():
    pot = geometry.potential_2d(1.0, 5.0)
    curve = geometry.integrate_affine(pot, (0.3, 0.2, 0.5, -0.4), 3.0, n_samples=1200)
    points = curve.points
    reference = np.column_stack([curve.phi, curve.theta])
    assert points.dtype == reference.dtype and points.shape == reference.shape
    assert points.flags.c_contiguous
    assert points.tobytes() == reference.tobytes()


def test_integrate_affine_rejects_non_finite_spans_without_hanging():
    """A non-finite span is refused before the integrator starts; should
    that guard go, an integrator that never returns is stopped by running
    this in a child process with a time limit."""
    code = (
        "from torus_scatter import geometry\n"
        "pot = geometry.potential_3d(1.0, -5.0)\n"
        "for span in (float('nan'), float('inf'), -float('inf')):\n"
        "    try:\n"
        "        geometry.integrate_affine(pot, (0.1, 0.2, 0.3, 0.4), span)\n"
        "    except ValueError as exc:\n"
        "        print(exc)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == [
        f"tau_span must be finite and nonzero, got {span}" for span in ("nan", "inf", "-inf")
    ]


def test_affine_rhs_is_the_gradient():
    """The LSODA oracle's right-hand side on Python floats gives
    ``gradient``'s forces bit for bit, for each closed-form class, at seeded
    points away from the tan poles."""
    rng = np.random.default_rng(14)
    pots = (
        geometry.potential_3d(1.3, -4.0),  # zero range, eps = +1
        geometry.potential_3d(-1.0, -5.0, c1=-2.5),  # zero range, eps = -1
        geometry.potential_lam14(-1.0, -5.0),
        geometry.potential_2d(1.0, 5.0),
    )
    assert [pot.epsilon for pot in pots[:2]] == [1, -1]
    for pot in pots:
        phi, theta = rng.uniform(-2 * math.pi, 2 * math.pi, size=(2, 400))
        keep = np.abs(np.cos(pot.argument(phi, theta))) > 0.05
        phi, theta = phi[keep], theta[keep]
        velocity = rng.normal(size=(phi.size, 2))
        last_u = [math.nan]
        rhs = oracles.affine_rhs(pot, last_u)
        got = np.array([
            rhs(0.0, np.array([a, b, u, v])) for a, b, (u, v) in zip(phi, theta, velocity)
        ])
        assert last_u[0] == pot.argument(phi[-1], theta[-1])
        g_phi, g_theta = pot.gradient(phi, theta)
        assert got[:, :2].tobytes() == velocity.tobytes()
        assert got[:, 2].tobytes() == (-g_phi).tobytes()
        assert got[:, 3].tobytes() == (-g_theta).tobytes()


def _closed_form_start(model, c1, p0):
    """(potential, init) of the affine motion through the model's curve at p0."""
    pot = geometry.closed_form_potential(model, c1=c1)
    (phi0,), (theta0,) = ere.phases(model, np.array([p0]))
    dphi, dtheta = ere.tangents(model, p0)
    n0, _ = geometry.construction_lapse(model, pot, p0)
    return pot, (phi0, theta0, float(dphi / n0), float(dtheta / n0))


@pytest.mark.parametrize(
    "model",
    [
        _zero_range(1.0, 5.0),
        _zero_range(-2.0, -7.0),
        ere.make_symmetric_model("T3", 6, -1.0, -5.0, lam=0.25),
        ere.make_2d_model(1.0, 5.0),
    ],
    ids=["zero-range", "zero-range-negative", "T3-6", "2D"],
)
@pytest.mark.parametrize("c1", [1.0, -2.5, 0.3])
@pytest.mark.parametrize("p0", [1e-2, 0.7, 30.0])
def test_affine_frequency_is_the_records(model, c1, p0):
    """At the construction start the harmonic frequency Omega^2 = u'^2 + 4 A
    s^2 / cos^2(u) of ``integrate_affine`` is s^2 / (k c1)^2 of the model's
    ``closed_form`` record, to 1e-13 (measured: at most 2.5e-14)."""
    form = geometry.closed_form(model)
    pot, (phi0, theta0, dphi0, dtheta0) = _closed_form_start(model, c1, p0)
    s = form.scale
    du0 = s * (dphi0 + form.epsilon * dtheta0)
    omega2 = du0 * du0 + 4.0 * pot.amplitude * s * s / math.cos(pot.argument(phi0, theta0)) ** 2
    assert omega2 == pytest.approx(s * s / (form.k * c1) ** 2, rel=1e-13, abs=0.0)


@pytest.mark.parametrize(
    "model,c1,interval",
    [
        (ere.make_symmetric_model("T1", 4, 0.6, 8.3), 1.0, (0.09, 9.0)),
        (_zero_range(1.3, -4.0), -2.5, (0.1, 10.0)),
        (ere.make_symmetric_model("T3", 6, -1.44, -4.08, lam=0.25), 1.0, (0.08, 8.0)),
        (ere.make_symmetric_model("T3", 6, -1.0, -5.0, lam=0.25), -2.5, (0.1, 30.0)),
        (ere.make_2d_model(1.0, 5.15), 1.0, (1.4e-3, 0.14)),
        (ere.make_2d_model(0.5, 4.0), -2.5, (1e-3, 0.3)),
    ],
    ids=["T1-4", "zero-range-eps+1", "T3-6", "T3-6-c1", "2D", "2D-c1"],
)
@pytest.mark.parametrize("backwards", [False, True], ids=["forwards", "backwards"])
def test_integrate_affine_matches_the_lsoda_oracle(model, c1, interval, backwards):
    """Over an interval of one lapse sign, from either end, so over spans of
    both signs, the closed-form motion and LSODA's agree to 5e-11 in every
    coordinate at every sample (measured: at most 6.7e-12)."""
    p0, p1 = interval[::-1] if backwards else interval
    pot, init = _closed_form_start(model, c1, p0)
    span = geometry.affine_parameter_span(model, pot, p0, p1)
    curve = geometry.integrate_affine(pot, init, span, n_samples=1200)
    ref = oracles.affine_lsoda(pot, init, np.linspace(0.0, span, 1200))
    assert not curve.truncated and not ref.truncated, (curve.diagnostic, ref.diagnostic)
    assert curve.tau.tobytes() == ref.tau.tobytes()
    assert (curve.phi[0], curve.theta[0], curve.dphi[0], curve.dtheta[0]) == init
    for name in ("phi", "theta", "dphi", "dtheta"):
        worst = np.max(np.abs(getattr(curve, name) - getattr(ref, name)))
        assert worst < 5e-11, (name, worst)


def _wall(curve) -> tuple[float, float]:
    """(tau of the wall, whole span) named by a cut curve's diagnostic."""
    match = re.fullmatch(
        r"the motion meets the wall \|sin u\| = 1 at tau = (\S+) of (\S+)", curve.diagnostic
    )
    assert curve.truncated and match, curve.diagnostic
    return float(match[1]), float(match[2])


@pytest.mark.parametrize(
    "init",
    [(0.3, 0.3, -1.0, -1.0), (0.3, 0.3, 1.0, 0.5), (1.0, -0.2, 0.2, -0.3), (-1.5, -1.6, 2.0, 1.0)],
    ids=["down", "down-2", "down-3", "oscillating"],
)
@pytest.mark.parametrize("span", [5.0, -5.0])
def test_integrate_affine_matches_the_lsoda_oracle_up_to_a_wall(init, span):
    """Started anywhere in the 2D potential, whose walls attract, the motion
    reaches a wall, straight or after turning back, with Omega^2 < 0 (down)
    or > 0 (oscillating).  The wall's tau is a 50-digit root's to 1e-14
    relative (measured: 1.2e-15).  LSODA stops in the same sample interval,
    and the two agree before it to 2e-10 in the phases and 1e-8 relative in
    the velocities, which grow without bound at the wall (measured: 4.9e-11
    and 2.4e-9, LSODA's error: the closed form is within 6e-15 of a 50-digit
    evaluation of the orbit at the last sample)."""
    pot = geometry.potential_2d(1.0, 5.0)
    curve = geometry.integrate_affine(pot, init, span, n_samples=1000)
    wall, whole = _wall(curve)
    want = oracles.affine_wall_time(pot, init, span)
    assert whole == span and abs(wall - want) <= 1e-14 * abs(want), (wall, want)
    ref = oracles.affine_lsoda(pot, init, np.linspace(0.0, span, 1000))
    assert ref.truncated
    assert curve.tau.tobytes() == ref.tau.tobytes()
    for name in ("phi", "theta"):
        assert np.max(np.abs(getattr(curve, name) - getattr(ref, name))) < 2e-10, name
    for name in ("dphi", "dtheta"):
        got, want = getattr(curve, name), getattr(ref, name)
        assert np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))) < 1e-8, name


@pytest.mark.parametrize(
    "potential",
    [
        geometry.potential_3d(1.0, 5.0),
        geometry.potential_lam14(1.0, 5.0),
        geometry.potential_2d(1.0, 5.0),
    ],
    ids=["zero-range", "lambda-1/4", "2D"],
)
@pytest.mark.parametrize("epsilon", [1, -1])
def test_affine_motion_is_a_harmonic_orbit_symbolically(potential, epsilon):
    """Certificate behind ``integrate_affine``: for each class's (scale, chi)
    and either epsilon, every solution of x'' = -grad V has v'' = 0, a
    conserved K and (sin u)'' = -(2K + 4 A s^2) sin u, as identities."""
    scale = sympy.nsimplify(potential.scale)
    chi = sympy.nsimplify(potential.chi / math.pi) * sympy.pi
    assert oracles.harmonic_orbit_residuals(scale, epsilon, chi) == [0, 0, 0]


@pytest.mark.parametrize(
    "model,c1,interval",
    [
        (_zero_range(1.0, 5.0), 1.0, (0.05, 20.0)),
        (_zero_range(-0.7, 3.0), -2.5, (0.1, 40.0)),
        (ere.make_symmetric_model("T1", 4, 2.0, 0.3), 1.0, (1e-2, 1e2)),
        # T3 row 6, lambda = 1/4: the singlet's ERE pole sqrt(2/(a r)) = 2 lies
        # inside the interval and phi passes through pi there.
        (ere.make_symmetric_model("T3", 6, -1.0, -5.0, lam=0.25), 1.0, (1.0, 4.0)),
        (ere.make_symmetric_model("T3", 6, -1.0, -5.0, lam=0.25), -2.5, (0.1, 30.0)),
        (ere.make_symmetric_model("T2", 6, 2.0, 3.0, lam=0.25), 1.0, (0.05, 5.0)),
        (ere.make_2d_model(1.0, 3.0), 1.0, (1e-3, 0.5)),
        (ere.make_2d_model(0.5, 4.0), -2.5, (1e-2, 1e2)),
    ],
)
def test_affine_span_matches_mpmath_quadrature(model, c1, interval):
    pot = geometry.closed_form_potential(model, c1=c1)
    p0, p1 = interval
    poles = sorted(filter(None, map(ere.channel_pole_momentum, model.channels)))
    want = oracles.lapse_span(model, c1, [p0, *(p for p in poles if p0 < p < p1), p1])
    got = geometry.affine_parameter_span(model, pot, p0, p1)
    assert abs(got - want) <= 1e-12 * abs(want), (got, want)
    assert geometry.affine_parameter_span(model, pot, p1, p0) == -got


def test_affine_span_rejects_a_potential_the_model_does_not_have():
    acausal = ere.make_symmetric_model("T2", 6, 1.0, 5.0, lam=0.1)
    with pytest.raises(ValueError, match="closed-form potential"):
        geometry.affine_parameter_span(acausal, geometry.potential_3d(1.0, 5.0), 0.1, 1.0)
    with pytest.raises(ValueError, match="closed-form potential"):
        geometry.affine_parameter_span(
            _zero_range(1.0, 5.0), geometry.potential_lam14(1.0, 5.0), 0.1, 1.0
        )


@pytest.mark.parametrize(
    "model,interval",
    [
        (_zero_range(1.0, 5.0), (0.2, 20.0)),
        (ere.make_symmetric_model("T2", 6, 2.0, 3.0, lam=0.25), (0.05, 5.0)),
        (ere.make_symmetric_model("T3", 6, -0.5, -3.0, lam=0.25), (0.2, 40.0)),
        # Below the 2D lapse zero 1/sqrt(a0 a1) = 0.707...
        (ere.make_2d_model(0.5, 4.0), (1e-3, 0.3)),
    ],
)
def test_affine_reconstruction_of_each_closed_form_class(model, interval, monkeypatch):
    """Integrated from the start of an interval of one lapse sign over the
    exact span, the curve stays on the closed form and ends at its end.  In
    either direction, one segment settles every point of the polyline
    distance: one evaluation of the pairs, and the all-pairs distances bit
    for bit."""
    pot = geometry.closed_form_potential(model)
    p0, p1 = interval
    grid = np.geomspace(p0, p1, 2000)
    phi, theta = ere.phases(model, grid)
    n_val, _ = geometry.construction_lapse(model, pot, grid)
    assert np.all(n_val > 0) or np.all(n_val < 0)
    dphi, dtheta = ere.tangents(model, p0)
    init = (phi[0], theta[0], dphi / n_val[0], dtheta / n_val[0])
    span = geometry.affine_parameter_span(model, pot, p0, p1)
    curve = geometry.integrate_affine(pot, init, span, n_samples=800)
    assert not curve.truncated and curve.tau.size == 800, curve.diagnostic
    e0 = geometry.first_integral(pot, *init)
    energy = geometry.first_integral(pot, curve.phi, curve.theta, curve.dphi, curve.dtheta)
    assert np.max(np.abs(energy - e0)) < 1e-8
    ref = np.column_stack([phi, theta])
    calls = []
    pair_d2 = geometry._pair_d2
    monkeypatch.setattr(geometry, "_pair_d2", lambda *args: calls.append(1) or pair_d2(*args))
    hausdorff = 0.0
    for points, polyline in ((curve.points, ref), (ref, curve.points)):
        calls.clear()
        dist = geometry.point_to_polyline_distance(points, polyline)
        assert len(calls) == 1
        assert dist.tobytes() == polyline_distance_all_pairs(points, polyline).tobytes()
        hausdorff = max(hausdorff, dist.max())
    assert hausdorff < 1e-5
    assert abs(curve.phi[-1] - phi[-1]) < 1e-8 and abs(curve.theta[-1] - theta[-1]) < 1e-8


@pytest.mark.parametrize(
    "model,interval",
    [
        # Two decades around 1/sqrt(|a0 a1|) in 3D and two decades below
        # it, the 2D lapse zero, in 2D, as in the affine benchmark.
        (ere.make_symmetric_model("T1", 4, 0.6, 8.3), (0.09, 9.0)),
        (ere.make_symmetric_model("T3", 6, -1.44, -4.08, lam=0.25), (0.08, 8.0)),
        (ere.make_2d_model(1.0, 5.15), (1.4e-3, 0.14)),
    ],
    ids=["T1-4", "T3-6", "2D"],
)
def test_affine_samples_lie_on_the_closed_form_at_their_own_momenta(model, interval):
    """Every 50th sample sits within 1e-14 of the closed-form point at the
    momentum whose exact affine span is the sample's tau, found by root
    finding on ``affine_parameter_span`` (measured: at most 2.2e-15)."""
    from scipy.optimize import brentq

    p0, p1 = interval
    pot, init = _closed_form_start(model, 1.0, p0)
    span = geometry.affine_parameter_span(model, pot, p0, p1)
    curve = geometry.integrate_affine(pot, init, span, n_samples=1200)
    assert not curve.truncated, curve.diagnostic
    worst = 0.0
    for k in range(0, 1200, 50):
        tau_k = curve.tau[k]
        p_k = brentq(
            lambda p: geometry.affine_parameter_span(model, pot, p0, p) - tau_k,
            p0, p1, xtol=1e-300, rtol=4 * np.finfo(float).eps,
        )
        phi_k, theta_k = ere.phases(model, np.array([p_k]))
        worst = max(worst, abs(phi_k[0] - curve.phi[k]), abs(theta_k[0] - curve.theta[k]))
    assert worst < 1e-14, worst


@pytest.mark.parametrize("span", [5.0, -5.0])
def test_integrate_affine_truncates_at_a_wall_quietly(span, capfd):
    """Started towards the 2D potential's attractive wall, forwards or
    backwards in tau, the motion reaches it: the curve is cut to the samples
    before it, all finite, the diagnostic says so, and nothing is warned or
    printed."""
    pot = geometry.potential_2d(1.0, 5.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        curve = geometry.integrate_affine(pot, (0.3, 0.3, -1.0, -1.0), span, n_samples=50)
    assert curve.truncated and curve.diagnostic
    n = curve.tau.size
    assert 1 <= n < 50
    assert curve.tau.tobytes() == np.linspace(0.0, span, 50)[:n].tobytes()
    for arr in (curve.phi, curve.theta, curve.dphi, curve.dtheta):
        assert arr.shape == (n,) and np.all(np.isfinite(arr))
    out, err = capfd.readouterr()
    assert out == "" and err == ""


@pytest.mark.parametrize("span,kept", [(5.0, 15), (-5.0, 27)])
def test_integrate_affine_diagnostic_names_where_it_stopped(span, kept):
    """The diagnostic of a cut curve names the tau of the wall |sin u| = 1,
    to 1e-14 relative of a 50-digit root of sin u(tau) = +/-1, and the
    curve keeps exactly the samples before it."""
    pot = geometry.potential_2d(1.0, 5.0)
    init = (0.3, 0.3, -1.0, -1.0)
    curve = geometry.integrate_affine(pot, init, span, n_samples=1000)
    assert curve.tau.size == kept
    wall, whole = _wall(curve)
    assert whole == span
    want = oracles.affine_wall_time(pot, init, span)
    assert abs(wall - want) <= 1e-14 * abs(want), (wall, want)
    next_sample = np.linspace(0.0, span, 1000)[kept]
    assert abs(curve.tau[-1]) < abs(want) < abs(next_sample)
    assert abs(curve.tau[-1]) < abs(wall) <= abs(next_sample)


@pytest.mark.parametrize("span", [2.0, -2.0])
def test_integrate_affine_with_omega_zero_is_the_linear_orbit(span):
    """V = -tan^2((phi + theta)/2 + pi/2) from u = 0 with u' = 1 has Omega^2 =
    u'^2 + 4 A s^2 = 0 exactly: sin u = tau, so phi = theta = -pi/2 +
    arcsin(tau) and phi' = 1/sqrt(1 - tau^2), up to the wall at |tau| = 1."""
    pot = geometry.GeometricPotential(amplitude=-1.0, epsilon=1, scale=0.5, chi=math.pi / 2)
    curve = geometry.integrate_affine(pot, (-math.pi / 2, -math.pi / 2, 1.0, 1.0), span, 201)
    assert _wall(curve) == (math.copysign(1.0, span), span) and curve.tau.size == 100
    assert curve.phi.tobytes() == curve.theta.tobytes()
    assert curve.dphi.tobytes() == curve.dtheta.tobytes()
    assert np.max(np.abs(curve.phi - (np.arcsin(curve.tau) - math.pi / 2))) < 1e-15
    assert np.max(np.abs(curve.dphi * np.sqrt(1.0 - curve.tau**2) - 1.0)) < 1e-14


def test_integrate_affine_over_one_long_output_interval():
    """Two samples over p in [1e-2, 1e2], four decades apart: the end point
    is still the closed form's."""
    model = _zero_range(1.0, 5.0)
    pot = geometry.potential_3d(1.0, 5.0)
    p0, p1 = 1e-2, 1e2
    phi, theta = ere.phases(model, np.array([p0, p1]))
    dphi, dtheta = ere.tangents(model, p0)
    n0, _ = geometry.construction_lapse(model, pot, p0)
    init = (phi[0], theta[0], float(dphi / n0), float(dtheta / n0))
    span = geometry.affine_parameter_span(model, pot, p0, p1)
    curve = geometry.integrate_affine(pot, init, span, n_samples=2)
    assert not curve.truncated and curve.tau.size == 2, curve.diagnostic
    assert abs(curve.phi[-1] - phi[1]) < 1e-10 and abs(curve.theta[-1] - theta[1]) < 1e-10


def test_point_to_polyline_distance_basic():
    poly = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
    pts = np.array([[0.5, 0.3], [2.0, 1.0], [-1.0, 0.0]])
    d = geometry.point_to_polyline_distance(pts, poly)
    np.testing.assert_allclose(d, [0.3, 1.0, 1.0], atol=1e-12)


def _random_walk(rng, m, step=1.0):
    return np.cumsum(rng.normal(scale=step, size=(m, 2)), axis=0)


def _polyline_cases(rng):
    """(points, polyline) pairs: random walks and the cases that stress pruning."""
    for m in (2, 3, 17, 40, 300):
        poly = _random_walk(rng, m)
        lo, hi = poly.min(axis=0) - 1.0, poly.max(axis=0) + 1.0
        yield rng.uniform(lo, hi, size=(301, 2)), poly
    # One segment about 1e4 times longer than the rest: every ball holds
    # every vertex.
    poly = _random_walk(rng, 200, step=1e-2)
    poly = np.vstack([poly, poly[-1] + [1e2, 0.0]])
    yield rng.uniform(-1.0, 1.0, size=(300, 2)), poly
    yield np.vstack([poly[-1] + [50.0, 3.0], poly[:20]]), poly
    # Zero-length and repeated segments, points on and next to the vertices.
    walk = _random_walk(rng, 30)
    poly = np.vstack([walk[:10], walk[9], walk[9], walk[10:], walk[::-1]])
    yield np.vstack([poly, poly + 1e-9, rng.uniform(-5, 5, size=(50, 2))]), poly
    # Points equidistant from two segments: the bisector of a symmetric
    # wedge, the mid-line between parallel segments, the centre of a square.
    wedge = np.array([[-1.0, 1.0], [0.0, 0.0], [1.0, 1.0]])
    yield np.column_stack([np.zeros(40), np.linspace(-1.0, 3.0, 40)]), wedge
    rails = np.array([[0.0, 0.0], [4.0, 0.0], [4.0, 1.0], [0.0, 1.0]])
    yield np.column_stack([np.linspace(-1.0, 5.0, 40), np.full(40, 0.5)]), rails
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.0, 0.0]])
    yield np.array([[0.5, 0.5], [0.25, 0.25], [0.5, 0.0]]), square
    # Points far outside the curve.
    poly = _random_walk(rng, 100, step=1e-3)
    yield rng.normal(scale=1e6, size=(20, 2)), poly
    # A smooth curve sampled on a geometric grid, as in affine reconstruction.
    s = np.geomspace(1e-3, 3.0, 2000)
    poly = np.column_stack([np.cos(s), np.sin(2 * s)])
    yield poly[::3] + rng.normal(scale=1e-4, size=(667, 2)), poly
    # A 2D-like phase curve against a sparser resampling of itself: the
    # balls hold 1-14 vertices, 110 of the 300 points 5 or more, so those
    # points are asked again for 16 neighbours.
    def curve(s):
        return np.column_stack([np.arctan(np.log(s)), np.arctan(np.log(5.0 * s))])

    yield curve(np.geomspace(5e-3, 1.0, 300)), curve(np.geomspace(5e-3, 1.0, 1000))
    # A polyline at one constant phi, and one that zig-zags back and forth
    # in phi: a sweep along phi would find every segment in every slice.
    poly = np.column_stack([np.full(60, 0.7), _random_walk(rng, 60)[:, 1]])
    yield rng.uniform(-3.0, 4.0, size=(200, 2)), poly
    zigzag = np.column_stack([np.arange(80) % 2, np.linspace(0.0, 0.8, 80)])
    yield rng.uniform(-0.5, 1.5, size=(200, 2)), zigzag
    # A scribble across the unit square and one segment long in both
    # coordinates: most slices hold most segments, in more than one chunk.
    yield rng.uniform(-0.5, 1.5, size=(300, 2)), rng.uniform(0.0, 1.0, size=(60, 2))
    poly = _random_walk(rng, 200, step=1e-2)
    poly = np.vstack([poly, poly[-1] + [1e2, 1e2]])
    yield rng.uniform(-1.0, 1.0, size=(300, 2)), poly
    # Runs of equal lower ends: a staircase, and a fan of segments from the
    # origin.  Points at (-d, 0) are d from the origin, so x + d is exactly
    # the fan's lower end, the edge of the slice before its margin.
    stairs = np.repeat(np.arange(12.0), 2)
    poly = np.column_stack([stairs[1:], stairs[:-1]])
    yield np.vstack([poly + 0.5, poly - [0.5, 0.0], rng.uniform(-1, 12, (50, 2))]), poly
    tips = np.column_stack([np.ones(8), np.arange(8.0)])
    fan = np.insert(tips, np.arange(1, 8), 0.0, axis=0)
    fan = np.vstack([[0.0, 0.0], fan])
    edge = np.column_stack([-np.arange(1.0, 6.0), np.zeros(5)])
    yield np.vstack([edge, -edge, [[-3.0, 4.0], [-0.5, 0.0]]]), fan
    # An early segment in the order of lower ends whose upper end lies past
    # every later lower end, with points beside that far end: only the
    # running maximum of upper ends keeps it in their slices.
    walk = np.column_stack([np.linspace(1.0, 5.0, 40), 3.0 + _random_walk(rng, 40, 0.1)[:, 1]])
    poly = np.vstack([[0.0, 0.0], [10.0, 0.0], walk])
    beside = np.column_stack([rng.uniform(8.0, 11.0, 30), rng.uniform(-0.5, 0.5, 30)])
    yield np.vstack([beside, [[10.0, 0.0], [10.0, 1e-9], [6.0, 1.5]]]), poly
    # A phase curve on a log grid whose segment widths in phi span four
    # decades, against points 1e-7 off a finer sampling of it: the shape
    # of the affine reconstruction.
    def phases(p):
        return np.column_stack([np.arctan(2.0 * p), np.arctan(0.3 * p)])

    poly = phases(np.geomspace(1e-4, 1.0, 1600))
    points = phases(np.geomspace(1e-4, 1.0, 1200)) + rng.normal(scale=1e-7, size=(1200, 2))
    yield points, poly
    # The same curve traversed backwards: its lower ends strictly descend,
    # so they are reversed rather than sorted.
    yield points[::-1], poly[::-1]
    # Every fourth vertex, and points 1e-8 beside it: 1e-10 below its phi
    # and off to the side of greater theta, or above it and off to the other
    # side.  Each is nearer the neighbouring segment than the segment below
    # its phi, which cannot settle it, so the slices are evaluated.
    offsets = np.array([[-1e-10, 1e-8], [1e-10, -1e-8], [0.0, 0.0]])
    yield (poly[::4, None, :] + offsets).reshape(-1, 2), poly
    # Points left and right of every segment, and beyond both ends, at two
    # and three vertices in both directions: windows clipped at both ends.
    for poly in (np.array([[0.0, 0.0], [1.0, 0.5]]),
                 np.array([[0.0, 0.0], [1.0, 0.5], [2.0, 0.0]])):
        phi = np.concatenate([[-1.0, -1e-9, 0.0], poly[:, 0] + 0.5, poly[-1, 0] + [1e-9, 1.0]])
        off = np.column_stack([np.repeat(phi, 3), np.tile([-0.3, 0.0, 0.3], phi.size)])
        yield np.vstack([off, rng.uniform(-1.0, 3.0, size=(20, 2))]), poly
        yield off, poly[::-1]
    # Lower ends ascending in runs of equal values, with signed zeros among
    # them: no sort is needed, and points at phi = +-0 search among the zeros.
    phi = np.array([-1.0, -0.0, 0.0, -0.0, 0.0, 0.0, 0.5, 0.5, 0.5, 1.0, 1.0, 2.0])
    theta = np.array([0.0, 0.0, 1.0, -0.0, 2.0, -1.0, -1.0, 0.5, 3.0, 0.0, -2.0, 0.0])
    poly = np.column_stack([phi, theta])
    zeros = np.column_stack([np.tile([0.0, -0.0], 8), np.linspace(-2.5, 3.5, 16)])
    yield np.vstack([zeros, poly, poly + 1e-9, rng.uniform(-1.5, 2.5, size=(60, 2))]), poly
    # Signed zeros in both arguments.
    signed = np.array([[0.0, -0.0], [-0.0, 1.0], [1.0, 0.0], [-0.0, -0.0], [0.0, 0.0]])
    yield np.vstack([signed, -signed, [[-1.0, -0.0], [0.5, -0.0]]]), signed
    # Points near 1e300, whose squared distances overflow to inf, among
    # ordinary ones and ones near 1e150.
    poly = _random_walk(rng, 50)
    far = rng.normal(size=(20, 2)) * np.repeat([1e300, 1e150, 1.0], [8, 6, 6])[:, None]
    yield far, poly
    # A polyline that leaves for 1e200: its far segment's projection is
    # inf / inf, NaN for every point, far outside the slices of the points
    # near the origin.
    poly = np.vstack([poly, [[1e200, -1e200], [2e200, -3e200]]])
    yield rng.uniform(-2.0, 2.0, size=(20, 2)), poly
    # Coordinates near 1e-170, whose squared distances underflow to 0 or to
    # subnormals: a point 4e-170 beyond a segment's end, and tiny points
    # around and on a tiny walk, between two ordinary points.
    yield np.array([[5e-170, 0.0]]), np.array([[0.0, 0.0], [1e-170, 0.0]])
    poly = _random_walk(rng, 40, step=1e-170)
    tiny = np.vstack([rng.uniform(-5e-169, 5e-169, size=(60, 2)), poly])
    yield np.vstack([[0.5, 0.5], tiny, [-0.5, 1e-170]]), poly
    # Non-finite points among finite ones: each gets every segment.
    poly = _random_walk(rng, 30)
    odd = np.array([[np.nan, 0.5], [0.5, np.nan], [np.inf, 0.0], [0.0, -np.inf]])
    yield np.vstack([odd, rng.uniform(-3.0, 3.0, size=(4, 2))])[[0, 4, 1, 5, 2, 6, 3, 7]], poly


def test_point_to_polyline_distance_matches_all_pairs_bitwise(rng):
    for points, poly in _polyline_cases(rng):
        # Only the cases with coordinates beyond 1e150, or not finite,
        # overflow or give NaN, in both evaluations.
        huge = "warn" if max(np.abs(points).max(), np.abs(poly).max()) <= 1e150 else "ignore"
        with np.errstate(over=huge, invalid=huge):
            got = geometry.point_to_polyline_distance(points, poly)
            want = polyline_distance_all_pairs(points, poly)
        assert got.tobytes() == want.tobytes()


@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(2, 80),
    n=st.integers(1, 80),
    step=st.sampled_from([1e-170, 1e-3, 1.0, 1e3]),
    phi_sorted=st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_point_to_polyline_distance_random_walks_bitwise(seed, m, n, step, phi_sorted):
    """Random walks, and walks whose vertices are sorted by phi: a curve
    monotone in phi, where the windows hold most slices."""
    rng = np.random.default_rng(seed)
    poly = _random_walk(rng, m, step)
    if phi_sorted:
        poly = poly[np.argsort(poly[:, 0], kind="stable")]
    lo, hi = poly.min(axis=0) - step, poly.max(axis=0) + step
    points = np.vstack([rng.uniform(lo, hi, size=(n, 2)), poly[rng.integers(0, m, n)]])
    got = geometry.point_to_polyline_distance(points, poly)
    assert got.tobytes() == polyline_distance_all_pairs(points, poly).tobytes()


def test_point_to_polyline_distance_settles_a_smooth_curve_in_one_pass(monkeypatch):
    """Near a curve monotone in phi, every point is settled by its one
    segment: one evaluation of the pairs, the early return, and the
    all-pairs distances bit for bit."""
    model = ere.make_symmetric_model("T1", 4, 1.0, 5.0)
    poly = np.column_stack(ere.phases(model, np.geomspace(0.1, 10.0, 1600)))
    points = 0.5 * (poly[1:] + poly[:-1]) + 1e-9
    calls = []
    pair_d2 = geometry._pair_d2
    monkeypatch.setattr(geometry, "_pair_d2", lambda *args: calls.append(1) or pair_d2(*args))
    got = geometry.point_to_polyline_distance(points, poly)
    assert len(calls) == 1
    assert got.tobytes() == polyline_distance_all_pairs(points, poly).tobytes()


def test_point_to_polyline_distance_edge_cases():
    poly = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
    assert geometry.point_to_polyline_distance(np.empty((0, 2)), poly).shape == (0,)
    for short in (poly[:1], poly[:0]):
        with pytest.raises(ValueError, match="m >= 2 vertices"):
            geometry.point_to_polyline_distance(poly, short)
    for shape in ((2,), (0,), (3, 3), (3, 1), (1, 3, 2)):
        message = f"points must be an (n, 2) array, got shape {shape}"
        with pytest.raises(ValueError, match=re.escape(message)):
            geometry.point_to_polyline_distance(np.zeros(shape), poly)
    # Non-finite inputs get what the all-pairs evaluation gives: NaN for a
    # NaN point, NaN everywhere for a polyline with a NaN or infinite vertex.
    pts = np.array([[0.5, 0.3], [np.nan, 0.0], [2.0, np.inf], [-1.0, 0.0]])
    with np.errstate(invalid="ignore"):
        got = geometry.point_to_polyline_distance(pts, poly)
        np.testing.assert_array_equal(got, polyline_distance_all_pairs(pts, poly))
        assert np.isnan(got[1]) and not np.isnan(got[[0, 3]]).any()
        for bad in (np.nan, np.inf):
            broken = poly.copy()
            broken[1, 0] = bad
            got = geometry.point_to_polyline_distance(pts, broken)
            np.testing.assert_array_equal(got, polyline_distance_all_pairs(pts, broken))
            assert np.isnan(got).all()


def test_point_to_polyline_distance_memory_within_all_pairs():
    """Even when every segment is a candidate (one very long segment), the
    pruned evaluation holds no more memory than the all-pairs one does for a
    chunk of 256 points."""
    rng = np.random.default_rng(5)
    poly = _random_walk(rng, 1000, step=1e-3)
    poly = np.vstack([poly, poly[-1] + [1e2, 0.0]])
    pts = rng.uniform(-0.1, 0.1, size=(300, 2))
    peaks = []
    for distance in (polyline_distance_all_pairs, geometry.point_to_polyline_distance):
        distance(pts[:1], poly)  # imports stay out of the measurement
        tracemalloc.start()
        try:
            distance(pts, poly)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0]


def test_affine_span_positive_for_negative_lapse_magnitude():
    """The span integrates the signed lapse; equal-sign lengths give N of
    one sign over the whole grid, so the magnitude is monotone in the
    endpoints."""
    m, pot, grid, *_ = _affine_setup()
    s1 = geometry.affine_parameter_span(m, pot, 0.1, 1.0)
    s2 = geometry.affine_parameter_span(m, pot, 0.1, 2.0)
    assert abs(s2) > abs(s1) > 0.0
