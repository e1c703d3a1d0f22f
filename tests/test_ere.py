"""Effective-range phase shifts, channels, and range-correlated families."""

import math

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from torus_scatter import ere

LENGTHS = st.floats(0.05, 20.0).map(lambda x: x) | st.floats(-20.0, -0.05)
MOMENTA = st.floats(1e-3, 1e3)

#: Scattering-length sign domain on which each causal-family row is defined.
CAUSAL_SIGNS = {
    1: (1.0, 1.0),
    2: (1.0, -1.0),
    3: (-1.0, 1.0),
    4: (-1.0, -1.0),
    5: (1.0, 1.0),
    6: (-1.0, -1.0),
}


# ---------------------------------------------------------------------------
# channels and families
# ---------------------------------------------------------------------------


def test_channel_validation():
    with pytest.raises(ValueError):
        ere.Channel3D(a=math.inf)
    with pytest.raises(ValueError):
        ere.Channel3D(a=1.0, r=math.nan)
    ch = ere.Channel3D.at_unitarity()
    assert ch.unitarity and ch.r == 0.0
    with pytest.raises(ValueError):
        ere.Channel3D(a=1.0, r=0.5, unitarity=True)
    with pytest.raises(ValueError):
        ere.Channel2D(a2=-1.0)
    with pytest.raises(ValueError):
        ere.Channel2D(a2=0.0)


def test_family_tag_validation():
    with pytest.raises(ValueError):
        ere.FamilyTag("T1", 5)
    with pytest.raises(ValueError):
        ere.FamilyTag("T9", 1)
    with pytest.raises(ValueError):
        ere.FamilyTag("T2", 1, lam=-1.0)


def test_t2_row1_unit_lengths_range():
    model = ere.make_symmetric_model("T2", 1, 1.0, 1.0, lam=1.0)
    assert model.singlet.r == pytest.approx(-2.0, abs=1e-15)
    assert model.triplet.r == pytest.approx(-2.0, abs=1e-15)


def test_t3_row6_ranges():
    model = ere.make_symmetric_model("T3", 6, -2.0, -3.0, lam=0.1)
    assert model.singlet.r == pytest.approx(-0.4, abs=1e-15)
    assert model.triplet.r == pytest.approx(-0.6, abs=1e-15)


def test_t1_rows_are_zero_range_sign_constraints():
    model = ere.make_symmetric_model("T1", 1, 1.0, -5.0)
    assert model.singlet.r == 0.0 and model.triplet.r == 0.0
    with pytest.raises(ValueError, match=r"\(a0>0\)"):
        ere.make_symmetric_model("T1", 1, -1.0, -5.0)
    # row 4 needs both positive
    with pytest.raises(ValueError):
        ere.make_symmetric_model("T1", 4, 1.0, -5.0)


def test_t3_sign_constraints_cited_in_errors():
    with pytest.raises(ValueError, match=r"\(a0<0\)"):
        ere.make_symmetric_model("T3", 6, 2.0, -3.0, lam=0.1)
    with pytest.raises(ValueError, match=r"\(a1>0\)"):
        ere.make_symmetric_model("T3", 5, 2.0, -3.0, lam=0.1)


@given(
    row=st.sampled_from(ere.T3_ROWS),
    mag0=st.floats(0.1, 10.0),
    mag1=st.floats(0.1, 10.0),
    lam=st.floats(0.01, 2.0),
)
@settings(max_examples=150, deadline=None)
def test_t3_ranges_are_never_positive(row, mag0, mag1, lam):
    """Every causal-family row yields nonpositive effective ranges."""
    s0, s1 = CAUSAL_SIGNS[row]
    model = ere.make_symmetric_model("T3", row, s0 * mag0, s1 * mag1, lam=lam)
    assert model.singlet.r <= 0.0
    assert model.triplet.r <= 0.0


@given(
    row=st.sampled_from(ere.T2_ROWS),
    mag0=st.floats(0.1, 10.0),
    mag1=st.floats(0.1, 10.0),
    lam=st.floats(0.01, 2.0),
)
@settings(max_examples=150, deadline=None)
def test_t2_opposite_orientation_gives_a_positive_range(row, mag0, mag1, lam):
    """Flipping all signs away from the causal choice turns a range positive."""
    s0, s1 = CAUSAL_SIGNS[row]
    model = ere.make_symmetric_model("T2", row, -s0 * mag0, -s1 * mag1, lam=lam)
    assert max(model.singlet.r, model.triplet.r) > 0.0


def test_t2_t3_coincide_on_causal_domain():
    for row in ere.T3_ROWS:
        signs = CAUSAL_SIGNS[row]
        a0, a1 = signs[0] * 1.7, signs[1] * 0.4
        m2 = ere.make_symmetric_model("T2", row, a0, a1, lam=0.3)
        m3 = ere.make_symmetric_model("T3", row, a0, a1, lam=0.3)
        assert m2.singlet.r == pytest.approx(m3.singlet.r, rel=1e-14)
        assert m2.triplet.r == pytest.approx(m3.triplet.r, rel=1e-14)


def test_model_rejects_inconsistent_family_ranges():
    tag = ere.FamilyTag("T2", 1, lam=1.0)
    with pytest.raises(ValueError):
        ere.TwoChannelModel(
            dimension=3,
            singlet=ere.Channel3D(1.0, r=0.123),
            triplet=ere.Channel3D(1.0, r=-2.0),
            family=tag,
        )


# ---------------------------------------------------------------------------
# 3D phases
# ---------------------------------------------------------------------------


def test_phase_3d_fixed_points():
    m = ere.TwoChannelModel(3, ere.Channel3D(1.0), ere.Channel3D(5.0))
    phi, theta = ere.phases(m, 1.0)
    assert phi == pytest.approx(-math.pi / 2, abs=1e-15)
    theta_02 = ere.phases(m, 0.2)[1]
    assert theta_02 == pytest.approx(-math.pi / 2, abs=1e-15)


def test_phase_3d_threshold_and_sign():
    m = ere.TwoChannelModel(3, ere.Channel3D(1.0), ere.Channel3D(-1.0))
    phi, theta = ere.phases(m, 1e-9)
    assert phi == pytest.approx(-2e-9, rel=1e-6)
    assert theta == pytest.approx(2e-9, rel=1e-6)


def test_unitarity_channel():
    m = ere.TwoChannelModel(3, ere.Channel3D.at_unitarity(), ere.Channel3D(1.0))
    p = np.array([0.01, 1.0, 100.0])
    phi, _ = ere.phases(m, p)
    np.testing.assert_allclose(phi, math.pi, atol=0)
    dphi, _ = ere.tangents(m, p)
    np.testing.assert_allclose(dphi, 0.0, atol=0)
    np.testing.assert_allclose(ere.s_element(m, 0, p), -1.0, atol=0)


def test_phase_continuous_through_ere_pole():
    """With a r > 0 the denominator zero is crossed without a phase jump."""
    m = ere.make_symmetric_model("T2", 6, 1.0, 1.0, lam=0.5)
    assert m.singlet.r == pytest.approx(1.0)
    p_star = ere.channel_pole_momentum(m.singlet)
    assert p_star == pytest.approx(math.sqrt(2.0), rel=1e-15)
    grid = np.linspace(0.9 * p_star, 1.1 * p_star, 101)
    phi, _ = ere.phases(m, grid)
    assert np.max(np.abs(np.diff(phi))) < 0.1
    phi_at = ere.phases(m, p_star)[0]
    assert phi_at == pytest.approx(-math.pi, abs=1e-12)
    # branch stays inside (-2 pi, 0) for a > 0
    wide = ere.phases(m, np.geomspace(1e-3, 1e3, 301))[0]
    assert np.all(wide < 0.0) and np.all(wide > -2 * math.pi)


@given(a=LENGTHS, p=MOMENTA)
@settings(max_examples=200, deadline=None)
def test_zero_range_cot_identity(a, p):
    """p cot(delta) = -1/a exactly at zero range."""
    m = ere.TwoChannelModel(3, ere.Channel3D(a), ere.Channel3D(1.0))
    phi = ere.phases(m, p)[0]
    delta = phi / 2.0
    assert p / math.tan(delta) == pytest.approx(-1.0 / a, rel=1e-10, abs=1e-12)


@given(a=LENGTHS, r=st.floats(-3.0, 3.0), p=st.floats(0.01, 50.0))
@settings(max_examples=200, deadline=None)
def test_ere_cot_is_quadratic(a, r, p):
    """p cot(delta) = -1/a + r p^2 / 2 wherever cot is finite."""
    m = ere.TwoChannelModel(3, ere.Channel3D(a, r=r), ere.Channel3D(1.0))
    phi = ere.phases(m, p)[0]
    delta = phi / 2.0
    if abs(math.sin(delta)) < 1e-6:
        return
    expected = -1.0 / a + 0.5 * r * p * p
    assert p * math.cos(delta) / math.sin(delta) == pytest.approx(
        expected, rel=1e-8, abs=1e-8
    )


def _sympy_derivatives_3d(a_val, r_val, p_val):
    a, r, p = sympy.symbols("a r p", real=True)
    denom = 1 - sympy.Rational(1, 2) * a * r * p**2
    phi = -2 * sympy.atan2(a * p, denom)
    d1 = sympy.diff(phi, p)
    d2 = sympy.diff(phi, p, 2)
    subs = {a: sympy.Float(a_val, 30), r: sympy.Float(r_val, 30), p: sympy.Float(p_val, 30)}
    return float(d1.subs(subs).evalf(30)), float(d2.subs(subs).evalf(30))


@pytest.mark.parametrize(
    "a,r,p",
    [
        (1.0, 0.0, 0.7),
        (-2.5, -0.8, 1.3),
        (5.0, 1.0, 0.35),
        (0.3, -2.0, 4.0),
    ],
)
def test_tangent_and_curvature_match_symbolic_derivative(a, r, p):
    m = ere.TwoChannelModel(3, ere.Channel3D(a, r=r), ere.Channel3D(1.0))
    d1, d2 = _sympy_derivatives_3d(a, r, p)
    assert ere.tangents(m, p)[0] == pytest.approx(d1, rel=1e-12)
    assert ere.second_derivatives(m, p)[0] == pytest.approx(d2, rel=1e-10)


@given(a=LENGTHS, p=MOMENTA)
@settings(max_examples=100, deadline=None)
def test_s_element_unit_modulus(a, p):
    m = ere.TwoChannelModel(3, ere.Channel3D(a, r=-0.4), ere.Channel3D(a))
    for ch in (0, 1):
        assert abs(ere.s_element(m, ch, p)) == pytest.approx(1.0, abs=1e-12)


def test_s_element_matches_phase():
    m = ere.TwoChannelModel(3, ere.Channel3D(2.0, r=-0.4), ere.Channel3D(-1.0))
    p = np.array([0.3, 1.7])
    phi, theta = ere.phases(m, p)
    np.testing.assert_allclose(ere.s_element(m, 0, p), np.exp(1j * phi), atol=1e-13)
    np.testing.assert_allclose(ere.s_element(m, 1, p), np.exp(1j * theta), atol=1e-13)


def test_pole_momenta():
    m = ere.make_symmetric_model("T2", 6, 1.0, 1.0, lam=0.5)
    for ch in m.channels:
        assert ere.channel_pole_momentum(ch) == pytest.approx(math.sqrt(2.0))
    # r proportional to a makes a r = 2 a^2 lambda > 0: a denominator zero
    # exists for the causal row too (with a < 0 the phase rises through +pi there)
    causal = ere.make_symmetric_model("T3", 6, -1.0, -5.0, lam=0.25)
    assert [ere.channel_pole_momentum(ch) for ch in causal.channels] == pytest.approx([2.0, 0.4])
    # the opposite orientation r = -2 a lambda has a r < 0: no zero
    no_zero = ere.make_symmetric_model("T3", 5, 1.0, 5.0, lam=0.25)
    zero_range = ere.TwoChannelModel(3, ere.Channel3D(1.0), ere.Channel3D(-2.0))
    unitarity = ere.TwoChannelModel(3, ere.Channel3D.at_unitarity(), ere.Channel3D(1.0))
    for model in (no_zero, zero_range, unitarity):
        assert [ere.channel_pole_momentum(ch) for ch in model.channels] == [None, None]
    # a 2D phase passes pi where log(a2 p) = 0
    planar = ere.make_2d_model(0.5, 4.0)
    assert [ere.channel_pole_momentum(ch) for ch in planar.channels] == [2.0, 0.25]
    phi, theta = ere.phases(planar, np.array([2.0, 0.25]))
    assert (phi[0], theta[1]) == pytest.approx((math.pi, math.pi), abs=1e-15)


# ---------------------------------------------------------------------------
# 2D phases
# ---------------------------------------------------------------------------


def test_phase_2d_fixed_point_and_tangent():
    m = ere.make_2d_model(1.0, 2.0)
    phi = ere.phases(m, 1.0)[0]
    assert phi == pytest.approx(math.pi, abs=1e-15)
    dphi = ere.tangents(m, 1.0)[0]
    assert dphi == pytest.approx(4.0 / math.pi, rel=1e-15)


def test_phase_2d_threshold_and_window():
    m = ere.make_2d_model(1.0, 2.0)
    assert ere.phases(m, 0.0)[0] == 0.0
    grid = np.geomspace(1e-8, 1e8, 400)
    phi = ere.phases(m, grid)[0]
    assert np.all(phi > 0.0) and np.all(phi < 2 * math.pi)
    assert np.all(np.diff(phi) > 0.0)


def _sympy_derivatives_2d(a_val, p_val):
    a, p = sympy.symbols("a p", positive=True)
    phi = sympy.pi + 2 * sympy.atan((2 / sympy.pi) * sympy.log(a * p))
    d1 = sympy.diff(phi, p)
    d2 = sympy.diff(phi, p, 2)
    subs = {a: sympy.Float(a_val, 30), p: sympy.Float(p_val, 30)}
    return float(d1.subs(subs).evalf(30)), float(d2.subs(subs).evalf(30))


@pytest.mark.parametrize("a2,p", [(1.0, 0.5), (3.0, 2.0), (0.2, 10.0)])
def test_tangent_2d_matches_symbolic(a2, p):
    m = ere.make_2d_model(a2, 2 * a2)
    d1, d2 = _sympy_derivatives_2d(a2, p)
    assert ere.tangents(m, p)[0] == pytest.approx(d1, rel=1e-12)
    assert ere.second_derivatives(m, p)[0] == pytest.approx(d2, rel=1e-10)


def test_2d_rejects_nonzero_effective_area_in_phases():
    m = ere.TwoChannelModel(
        2, ere.Channel2D(1.0, sigma2=0.2), ere.Channel2D(2.0), family=None
    )
    with pytest.raises(ValueError, match="sigma2"):
        ere.phases(m, 1.0)


# ---------------------------------------------------------------------------
# quarter-lambda branch classification
# ---------------------------------------------------------------------------


def test_quarter_lambda_branches():
    solvable = [
        ere.make_symmetric_model("T3", 6, -1.0, -5.0, lam=0.25),
        ere.make_symmetric_model("T2", 6, 1.0, 5.0, lam=0.25),
        ere.make_symmetric_model("T2", 5, 1.0, -5.0, lam=0.25),
    ]
    for m in solvable:
        assert ere.quarter_lambda_branch(m) == "solvable"
    unsolvable = [
        ere.make_symmetric_model("T3", 5, 1.0, 5.0, lam=0.25),
        ere.make_symmetric_model("T2", 6, 1.0, -5.0, lam=0.25),
    ]
    for m in unsolvable:
        assert ere.quarter_lambda_branch(m) == "unsolvable"
    # wrong lambda or wrong row: not in the quarter-lambda family at all
    assert ere.quarter_lambda_branch(
        ere.make_symmetric_model("T3", 6, -1.0, -5.0, lam=0.3)
    ) is None
    assert ere.quarter_lambda_branch(
        ere.make_symmetric_model("T2", 1, 1.0, 5.0, lam=0.25)
    ) is None
