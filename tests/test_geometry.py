"""Potentials, lapse, trajectory equations, affine integration."""

import itertools
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torus_scatter import ere, geometry, torus

from conftest import polyline_distance_all_pairs

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


@given(
    phi=st.floats(-3.0, 3.0),
    theta=st.floats(-3.0, 3.0),
    amp=st.floats(0.05, 2.0),
    eps=st.sampled_from([-1, 1]),
)
@settings(max_examples=200, deadline=None)
def test_gradient_matches_finite_difference(phi, theta, amp, eps):
    pot = geometry.GeometricPotential(amplitude=amp, epsilon=eps, scale=0.5, chi=0.0)
    if bool(np.asarray(pot.singular_mask(phi, theta, tol=1e-3))):
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
    # equal range-corrected channels: phi = theta = -pi at the denominator
    # zero p = sqrt(2), so N ~ 2 sin(phi)/p vanishes there
    m_r = ere.make_symmetric_model("T2", 6, 1.0, 1.0, lam=0.5)
    with pytest.raises(ValueError, match="lapse"):
        geometry.inaffinity(torus.sample_trajectory(m_r, [math.sqrt(2.0)]))
    # 2D equal lengths: phi' = theta' identically, N = 0 everywhere
    m_2d = ere.make_2d_model(2.0, 2.0)
    with pytest.raises(ValueError, match="lapse"):
        geometry.inaffinity(torus.sample_trajectory(m_2d, [1.0]))
    # generic case evaluates fine
    generic = torus.sample_trajectory(_zero_range(1.0, 1.0), [0.7])
    assert np.isfinite(geometry.inaffinity(generic))


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
    assert report.max_norm < 1e-8, report.excluded


def test_eom_residual_c1_invariant():
    m = _zero_range(1.0, 5.0)
    grid = np.geomspace(1e-1, 1e1, 200)
    traj = torus.sample_trajectory(m, grid)
    r1 = geometry.eom_residual(traj, geometry.potential_3d(1.0, 5.0, c1=1.0))
    r2 = geometry.eom_residual(traj, geometry.potential_3d(1.0, 5.0, c1=4.2))
    assert r2.max_norm < 1e-8
    assert r1.max_norm == pytest.approx(r2.max_norm, abs=1e-9)


def test_eom_residual_detects_wrong_model():
    """The residual is an actual diagnostic: a mismatched model fails loudly."""
    wrong = ere.make_symmetric_model("T2", 6, 1.0, 5.0, lam=0.1)
    pot = geometry.potential_3d(1.0, 5.0)
    grid = np.geomspace(1e-1, 1e1, 300)
    report = geometry.eom_residual(torus.sample_trajectory(wrong, grid), pot)
    assert report.max_norm > 1e-3


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
    assert ere.quarter_lambda_branch(m) == "solvable"
    pot = geometry.potential_lam14(a0, a1)
    grid = np.geomspace(1e-2, 1e2, 500)
    report = geometry.eom_residual(torus.sample_trajectory(m, grid), pot)
    assert report.max_norm < 1e-8, report.excluded


def test_quarter_lambda_complementary_branch_has_no_single_potential():
    """r = -2 a lambda models do not satisfy the closed-form equations.

    The complementary orientation cannot be generated by any potential of
    the single-combination form; the residual against the closed-form
    candidate is O(1), documenting the obstruction rather than a tolerance
    issue.
    """
    m = ere.make_symmetric_model("T3", 5, 1.0, 5.0, lam=0.25)
    assert ere.quarter_lambda_branch(m) == "unsolvable"
    pot = geometry.potential_lam14(1.0, 5.0)
    grid = np.geomspace(1e-1, 1e1, 300)
    report = geometry.eom_residual(torus.sample_trajectory(m, grid), pot)
    assert report.max_norm > 1e-2


def _family_models():
    """Every valid 3D T1/T2/T3 row at lambda 0.1 and 0.25, for each sign pattern."""
    pairs = ((1.0, 5.0), (-1.0, 5.0), (1.0, -5.0), (-1.0, -5.0), (-15.0, -1.0))
    for table, rows in (("T1", ere.T1_ROWS), ("T2", ere.T2_ROWS), ("T3", ere.T3_ROWS)):
        for row, lam, (a0, a1) in itertools.product(rows, (0.1, 0.25), pairs):
            try:
                yield ere.make_symmetric_model(table, row, a0, a1, lam=lam)
            except ValueError:
                continue  # the row's sign constraints exclude this pair


def test_closed_form_potential_follows_the_class_rule():
    """3D zero range, the lambda = 1/4 branch with r = +2 a lambda, and 2D with
    distinct lengths have a closed-form potential; no other model has one."""
    grid = np.geomspace(1e-2, 1e2, 300)
    c1 = 1.7
    classes = {"zero-range": 0, "lam14": 0, None: 0}
    for m in _family_models():
        a0, a1, lam = m.singlet.a, m.triplet.a, m.family.lam
        if m.singlet.r == 0.0 and m.triplet.r == 0.0:
            kind, want = "zero-range", geometry.potential_3d(a0, a1, c1=c1)
        elif lam == 0.25 and all(
            math.isclose(ch.r, 2.0 * ch.a * lam, rel_tol=1e-12) for ch in m.channels
        ):
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
                assert geometry.eom_residual(traj, wrong).max_norm > 0.1, m
        else:
            assert geometry.eom_residual(traj, pot).max_norm < 1e-8, m
    assert classes == {"zero-range": 10, "lam14": 7, None: 69}
    planar = ere.make_2d_model(1.0, 3.0)
    assert geometry.closed_form_potential(planar, c1=c1) == geometry.potential_2d(1.0, 3.0, c1=c1)
    assert geometry.closed_form_potential(ere.make_2d_model(2.0, 2.0)) is None
    assert geometry.closed_form_potential(_zero_range(1.0, -5.0)) == geometry.potential_3d(1.0, -5.0)
    at_unitarity = ere.TwoChannelModel(
        3, ere.Channel3D(1.0, unitarity=True), ere.Channel3D(5.0)
    )
    assert geometry.closed_form_potential(at_unitarity) is None


def test_eom_residual_2d():
    m = ere.make_2d_model(1.0, 3.0)
    pot = geometry.potential_2d(1.0, 3.0)
    grid = np.geomspace(1e-2, 1e2, 500)
    report = geometry.eom_residual(torus.sample_trajectory(m, grid), pot)
    assert report.max_norm < 1e-8, report.excluded


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
    assert any(p == pytest.approx(p_star) for p, _reason in report.excluded)
    assert all(
        reason in ("potential singularity", "vanishing lapse")
        for _p, reason in report.excluded
    )
    assert report.max_norm < 1e-8


def test_checks_with_no_grid_point_left_raise():
    # p* = 1/sqrt(a2_0 a2_1) alone: the eom residual excludes it (tan^2 wall).
    # p = 0.10933059980159891 and 3.0488567147553383 put phi + theta at pi and
    # 3 pi, where the 2D shape gradient vanishes.
    m = ere.make_2d_model(1.0, 4.0)
    with pytest.raises(ValueError, match=r"^eom_residual: all 1 grid points excluded"):
        geometry.eom_residual(torus.sample_trajectory(m, [0.5]), geometry.potential_2d(1.0, 4.0))
    m = ere.make_2d_model(1.0, 3.0)
    grid = [0.10933059980159891, 3.0488567147553383]
    with pytest.raises(ValueError, match=r"^overdetermination_2d: all 2 grid points excluded"):
        geometry.overdetermination_2d(torus.sample_trajectory(m, grid))


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
    assert report.excluded == []
    assert report.p.tolist() == grid.tolist()
    assert np.all(np.isfinite(report.res_phi)) and np.all(np.isfinite(report.res_theta))


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
        assert report.max_norm < 1e-8, (a0, a1, report.max_norm)
        assert all(reason == "potential singularity" for _p, reason in report.excluded)


# ---------------------------------------------------------------------------
# 2D overdetermination
# ---------------------------------------------------------------------------


def test_overdetermination_2d_consistency():
    m = ere.make_2d_model(1.0, math.e)
    grid = np.geomspace(1e-3, 1e3, 800)
    report = geometry.overdetermination_2d(torus.sample_trajectory(m, grid))
    assert report.passed and report.max_relative_deviation < 1e-6, report.excluded
    # the shared ratio W / (phi' - theta')^2 equals c1^2 * amplitude
    pot = geometry.potential_2d(1.0, math.e)
    dphi, dtheta = ere.tangents(m, report.p)
    ratio = report.w / (dphi - dtheta) ** 2
    np.testing.assert_allclose(ratio, pot.amplitude, rtol=1e-6)


def test_overdetermination_rejects_equal_lengths():
    m = ere.make_2d_model(2.0, 2.0)
    with pytest.raises(ValueError):
        geometry.overdetermination_2d(torus.sample_trajectory(m, np.geomspace(0.1, 10, 50)))


def test_overdetermination_requires_2d():
    m = _zero_range(1.0, 5.0)
    with pytest.raises(ValueError):
        geometry.overdetermination_2d(torus.sample_trajectory(m, np.geomspace(0.1, 10, 50)))


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
    """The right-hand side on Python floats gives ``gradient``'s forces bit
    for bit, for each closed-form class, at seeded points away from the
    tan poles."""
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
        rhs = geometry._affine_rhs(pot, last_u)
        got = np.array([
            rhs(0.0, np.array([a, b, u, v])) for a, b, (u, v) in zip(phi, theta, velocity)
        ])
        assert last_u[0] == pot.argument(phi[-1], theta[-1])
        g_phi, g_theta = pot.gradient(phi, theta)
        assert got[:, :2].tobytes() == velocity.tobytes()
        assert got[:, 2].tobytes() == (-g_phi).tobytes()
        assert got[:, 3].tobytes() == (-g_theta).tobytes()


def _lapse_mp(model, c1):
    """The construction lapse at 30 digits, from the phases' closed forms:
    (c1/p)(sin phi - eps sin theta) for 3D zero range, sqrt(2) c1 (phi' - eps
    theta') on the lambda = 1/4 branch and c1 (phi' - theta') in 2D, with the
    derivatives taken by ``mpmath.diff``."""
    if model.dimension == 2:
        phases = [
            (lambda p, a=mp.mpf(ch.a2): mp.pi + 2 * mp.atan((2 / mp.pi) * mp.log(a * p)))
            for ch in model.channels
        ]
        return lambda p: c1 * (mp.diff(phases[0], p) - mp.diff(phases[1], p))
    phases = [
        (lambda p, a=mp.mpf(ch.a), r=mp.mpf(ch.r): -2 * mp.atan2(a * p, 1 - a * r * p * p / 2))
        for ch in model.channels
    ]
    eps = -1 if model.singlet.a * model.triplet.a > 0 else 1
    if model.singlet.r == 0.0:
        return lambda p: c1 / p * (mp.sin(phases[0](p)) - eps * mp.sin(phases[1](p)))
    return lambda p: mp.sqrt(2) * c1 * (mp.diff(phases[0], p) - eps * mp.diff(phases[1], p))


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
    mp.mp.dps = 30
    poles = sorted(filter(None, map(ere.channel_pole_momentum, model.channels)))
    nodes = [p0, *(p for p in poles if p0 < p < p1), p1]
    want = mp.quad(_lapse_mp(model, c1), [mp.mpf(p) for p in nodes])
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
def test_affine_reconstruction_of_each_closed_form_class(model, interval):
    """Integrated from the start of an interval of one lapse sign over the
    exact span, the curve stays on the closed form and ends at its end."""
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
    hausdorff = max(
        geometry.point_to_polyline_distance(curve.points, ref).max(),
        geometry.point_to_polyline_distance(ref, curve.points).max(),
    )
    oracle = max(
        polyline_distance_all_pairs(curve.points, ref).max(),
        polyline_distance_all_pairs(ref, curve.points).max(),
    )
    assert hausdorff == oracle and hausdorff < 1e-5
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
    """Every 50th sample sits within 1e-11 of the closed-form point at the
    momentum whose exact affine span is the sample's tau, found by root
    finding on ``affine_parameter_span``; no integrator enters the reference."""
    from scipy.optimize import brentq

    pot = geometry.closed_form_potential(model)
    p0, p1 = interval
    (phi0,), (theta0,) = ere.phases(model, np.array([p0]))
    dphi, dtheta = ere.tangents(model, p0)
    n0, _ = geometry.construction_lapse(model, pot, p0)
    init = (phi0, theta0, float(dphi / n0), float(dtheta / n0))
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
    assert worst < 1e-11, worst


@pytest.mark.parametrize("span", [5.0, -5.0])
def test_integrate_affine_truncates_at_a_wall_quietly(span, capfd):
    """Started towards the 2D potential's attractive wall, forwards or
    backwards in tau, the integrator fails: the curve is cut to the samples
    it reached, all finite, the message is kept, and nothing is warned or
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
    """The diagnostic of a cut curve names the tau reached, between the last
    kept sample and the next, and the potential argument there, at the tan^2
    wall; not scipy's guess at a Jacobian fault, as no Jacobian is passed."""
    pot = geometry.potential_2d(1.0, 5.0)
    curve = geometry.integrate_affine(pot, (0.3, 0.3, -1.0, -1.0), span, n_samples=1000)
    assert curve.truncated and curve.tau.size == kept
    match = re.fullmatch(
        r"integrator stopped at tau = (\S+) of (\S+), where the potential argument "
        r"was last u = (\S+): Excess work done on this call",
        curve.diagnostic,
    )
    assert match, curve.diagnostic
    reached, whole, u = (float(g) for g in match.groups())
    assert whole == span
    next_sample = np.linspace(0.0, span, 1000)[kept]
    assert abs(curve.tau[-1]) <= abs(reached) < abs(next_sample)
    assert abs(math.cos(u)) < 1e-2


def test_integrate_affine_over_one_long_output_interval():
    """Two samples over p in [1e-2, 1e2] put all the steps between two
    output times; the end point is still the closed form's."""
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


def test_point_to_polyline_distance_matches_all_pairs_bitwise(rng):
    for points, poly in _polyline_cases(rng):
        got = geometry.point_to_polyline_distance(points, poly)
        want = polyline_distance_all_pairs(points, poly)
        assert got.tobytes() == want.tobytes()


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
