"""Effective-range phase shifts, channels, and range-correlated families."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torus_scatter import ere, geometry, torus

import oracles

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


#: Magnitudes and lambdas whose ranges 2 lambda |a| are normal floats.
MAGNITUDES = st.floats(1e-150, 1e150)
LAMBDAS = st.floats(1e-3, 1e3)


@given(row=st.sampled_from(ere.T3_ROWS), mag0=MAGNITUDES, mag1=MAGNITUDES, lam=LAMBDAS)
@settings(max_examples=300, deadline=None)
def test_t2_t3_coincide_on_causal_domain(row, mag0, mag1, lam):
    """On a T3 row's sign domain its ranges are the T2 row's, bit for bit."""
    s0, s1 = CAUSAL_SIGNS[row]
    m2, m3 = (ere.make_symmetric_model(t, row, s0 * mag0, s1 * mag1, lam=lam) for t in ("T2", "T3"))
    assert (m2.singlet.r, m2.triplet.r) == (m3.singlet.r, m3.triplet.r)


@given(
    table=st.sampled_from(("T2", "T3")),
    row=st.sampled_from(ere.T2_ROWS),
    signs=st.sampled_from([(1, 1), (1, -1), (-1, 1), (-1, -1)]),
    mag0=MAGNITUDES,
    mag1=MAGNITUDES,
    lam=LAMBDAS,
)
@settings(max_examples=300, deadline=None)
def test_family_ranges_are_the_exact_value_rounded_once(table, row, signs, mag0, mag1, lam):
    """Each T2 and T3 range is the float nearest its row's exact value,
    sign 2 lambda |a0 a1| / a_d computed in rationals."""
    s0, s1 = CAUSAL_SIGNS[row] if table == "T3" else signs
    a = (s0 * mag0, s1 * mag1)
    model = ere.make_symmetric_model(table, row, *a, lam=lam)
    eta = Fraction(lam) * abs(Fraction(a[0]) * Fraction(a[1]))
    for ch, (sign, d) in zip(model.channels, ere._RANGE_ROWS[row]):
        assert ch.r == float(sign * 2 * eta / Fraction(a[d]))


def test_t3_quarter_row_builds_where_2a_overflows():
    """r = 2 (lambda a) = -5e307 is finite where 2 a is not: T3 row 6 at
    a = -1e308, lambda = 1/4 builds and has the lambda = 1/4 closed form."""
    m = ere.make_symmetric_model("T3", 6, -1e308, -1e308, lam=0.25)
    assert (m.singlet.r, m.triplet.r) == (-5e307, -5e307)
    assert geometry.closed_form_potential(m) == geometry.potential_lam14(-1e308, -1e308)


@pytest.mark.parametrize("table", ["T1", "T2", "T3"])
def test_a_zero_length_under_a_family_tag_is_refused_by_name(table):
    with pytest.raises(ValueError, match="scattering lengths must be nonzero"):
        ere.TwoChannelModel(3, ere.Channel3D(0.0, r=-1.0), ere.Channel3D(2.0, r=-2.0),
                            ere.FamilyTag(table, 1, 1.0))
    with pytest.raises(ValueError, match="scattering lengths must be nonzero"):
        ere.make_symmetric_model(table, 1, 2.0, 0.0)


def test_model_rejects_inconsistent_family_ranges():
    tag = ere.FamilyTag("T2", 1, lam=1.0)
    with pytest.raises(ValueError):
        ere.TwoChannelModel(
            dimension=3,
            singlet=ere.Channel3D(1.0, r=0.123),
            triplet=ere.Channel3D(1.0, r=-2.0),
            family=tag,
        )


def test_a_range_never_matches_a_target_that_is_not_finite():
    """T3 row 6 at a = -1e308, lambda = 1 wants r = 2 a lambda = -inf: no
    finite range matches it, where |r - inf| <= 1e-12 |inf| would."""
    assert not ere._range_matches(-5.0, -math.inf)
    channels = (ere.Channel3D(-1e308, r=-5.0), ere.Channel3D(-1e308, r=-7.0))
    with pytest.raises(ValueError, match="do not match T3 row 6"):
        ere.TwoChannelModel(3, *channels, ere.FamilyTag("T3", 6, 1.0))
    assert not ere.ranges_follow(ere.TwoChannelModel(3, *channels), 1.0)


def test_ranges_follow_is_r_equal_to_2_a_lambda_at_the_given_lambda():
    """One predicate for the causal family at its tag's lambda and for the
    lambda = 1/4 class, r = a/2."""
    m = ere.make_symmetric_model("T3", 6, -1.0, -5.0, lam=0.3)
    assert ere.ranges_follow(m, 0.3) and not ere.ranges_follow(m, 0.25)
    quarter = ere.make_symmetric_model("T2", 4, 1.0, 1.0, lam=0.25)
    assert ere.ranges_follow(quarter, 0.25) and geometry.closed_form(quarter) is not None


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


@st.composite
def _pair_arguments(draw):
    """(a, r, p) with binary exponents within +-1000 and those of a p, r p,
    a r and a r p^2 too, so every product of the pair is a normal float; the
    lengths may be up to 2^2000 apart."""
    ea = draw(st.integers(-1000, 1000))
    er = draw(st.integers(max(-1000, -1000 - ea), min(1000, 1000 - ea)))
    ep = draw(st.integers(max(-1000 - ea, -1000 - er, -((1000 + ea + er) // 2)),
                          min(1000 - ea, 1000 - er, (1000 - ea - er) // 2)))
    a, r, p = (math.ldexp(draw(st.floats(1.0, 2.0, exclude_max=True)), e) for e in (ea, er, ep))
    return draw(st.sampled_from([a, -a])), draw(st.sampled_from([r, -r, 0.0])), p


@given(args=_pair_arguments())
@settings(max_examples=300, deadline=None)
def test_3d_pair_is_the_given_units_arithmetic(args):
    """The pair is formed from lengths scaled by a power of two, which is
    exact: where every product is a normal float, its bits are those of
    S = -a p, C = 1 - a r p^2/2 and their derivatives formed in the given
    unit, however far apart the lengths."""
    a, r, p = args
    want = [(-a * p, 1.0 - 0.5 * a * r * p * p), (-a, -a * r * p), (0.0, -a * r)]
    got = ere.Channel3D(a, r=r).pair(np.array([p]), 2)
    assert [tuple(float(np.ravel(x)[0]) for x in pair) for pair in got] == want


@pytest.mark.parametrize("a, p", [(1.0, 0.5), (0.5, 1.0)])
def test_an_underflowing_c_prime_is_below_rounding(a, p):
    """At r = 5e-324, C' = -a r p underflows to 0, and its term in the
    tangent, a r p^2 of the leading one, is far below rounding: the tangent
    is the zero-range one, not a refusal."""
    def tangent(r):
        return ere.tangents(ere.TwoChannelModel(3, ere.Channel3D(a, r=r), ere.Channel3D(1.0)), p)

    assert tangent(5e-324) == tangent(0.0)


def test_a_c_prime_that_overflows_is_refused():
    """At a = r = 1e160 and p = 1e-10, C = 1 - a r p^2/2 is finite but
    C' = -a r p overflows: the tangent is refused, not taken as a limit."""
    model = ere.TwoChannelModel(3, ere.Channel3D(1e160, r=1e160), ere.Channel3D(1.0))
    with pytest.raises(ValueError, match="phase derivatives"):
        ere.tangents(model, 1e-10)


@pytest.mark.parametrize("r", [1.0, 0.0])
def test_a_pair_whose_s_and_c_both_overflow_is_refused(r):
    """At a = 10 and p = 1e308, p in the lengths' unit overflows, so S and C
    are both infinite (or C is NaN at r = 0): their atan2 is no limit of the
    phase, and every evaluation refuses it, naming the grid."""
    model = ere.TwoChannelModel(3, ere.Channel3D(10.0, r=r), ere.Channel3D(1.0))
    message = r"^phases: S and C are both not finite on p in \[1e\+308, 1e\+308\]"
    for evaluate in (ere.phases, ere.tangents, torus.sample_trajectory):
        with pytest.raises(ValueError, match=message):
            evaluate(model, [1e308] if evaluate is torus.sample_trajectory else 1e308)


@pytest.mark.parametrize(
    "model", [ere.make_symmetric_model("T1", 4, 1.0, 5.0), ere.make_2d_model(1.0, 3.0)],
    ids=["3D", "2D"],
)
def test_each_evaluation_enters_one_errstate(model, monkeypatch):
    """The phase arithmetic states its floating-point policy once, in
    ``ere.derivatives``: one errstate per evaluation, whatever its order."""
    entered = []
    enter = np.errstate.__enter__
    monkeypatch.setattr(np.errstate, "__enter__", lambda self: entered.append(self) or enter(self))
    grid = np.geomspace(0.1, 10.0, 7)
    for evaluate, p in ((torus.sample_trajectory, grid), (ere.phases, 0.5), (ere.tangents, grid)):
        entered.clear()
        evaluate(model, p)
        assert len(entered) == 1, evaluate


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
    for model in (no_zero, zero_range):
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


def test_2d_rejects_nonzero_effective_area_in_phases():
    with pytest.raises(ValueError, match="sigma2"):
        m = ere.TwoChannelModel(
            2, ere.Channel2D(1.0, sigma2=0.2), ere.Channel2D(2.0), family=None
        )
        ere.phases(m, 1.0)
    # no 2D quantity may quietly drop sigma2: the channel itself is refused
    with pytest.raises(ValueError, match="sigma2=0.5"):
        ere.make_2d_model(1.0, 3.0, sigma2_0=0.5)


MOMENTUM_MODELS = {
    "3D": ere.make_symmetric_model("T2", 6, 1.0, 3.0, lam=0.5),
    "2D": ere.make_2d_model(1.0, 3.0),
}
MOMENTUM_FUNCTIONS = {"phases": ere.phases, "tangents": ere.tangents}


@pytest.mark.parametrize("kind", MOMENTUM_MODELS)
@pytest.mark.parametrize("name", MOMENTUM_FUNCTIONS)
def test_one_momentum_rule(name, kind):
    """p < 0 raises in both functions; p = 0 is refused only by the 2D
    tangents, whose log diverges there."""
    model, f = MOMENTUM_MODELS[kind], MOMENTUM_FUNCTIONS[name]
    for p in (-1.0, np.array([1.0, -1e-300])):
        with pytest.raises(ValueError, match="^momentum must be >= 0$"):
            f(model, p)
    if kind == "2D" and name == "tangents":
        with pytest.raises(ValueError, match="p > 0"):
            f(model, np.array([0.0, 1.0]))
    else:
        assert np.all(np.isfinite(f(model, np.array([0.0, 1.0]))))


def test_threshold_values():
    planar, spatial = MOMENTUM_MODELS["2D"], MOMENTUM_MODELS["3D"]
    assert ere.phases(planar, 0.0) == (0.0, 0.0) == ere.phases(spatial, 0.0)
    assert ere.tangents(spatial, 0.0) == (-2.0, -6.0)


# ---------------------------------------------------------------------------
# 50-digit oracle for the phases and their first two momentum derivatives
# ---------------------------------------------------------------------------

#: Channels of every kind: 3D zero range; a r < 0 with r of either sign (no
#: pole); a r > 0 with r of either sign, sampled across the real ERE pole
#: sqrt(2/(a r)); 2D at four lengths.
ORACLE_CHANNELS = [
    ere.Channel3D(1.0),
    ere.Channel3D(-2.5),
    ere.Channel3D(1.3, r=-0.8),
    ere.Channel3D(0.3, r=-2.0),
    ere.Channel3D(-0.7, r=0.4),
    ere.Channel3D(1.0, r=1.0),
    ere.Channel3D(5.0, r=1.0),
    ere.Channel3D(-2.0, r=-0.3),
    ere.Channel3D(-2.5, r=-0.8),
    ere.Channel3D(5.0, r=2e-3),
    ere.Channel2D(0.2),
    ere.Channel2D(0.5),
    ere.Channel2D(1.0),
    ere.Channel2D(3.0),
]


def _oracle_grid(ch):
    """Log grid over a p in [1e-8, 1e8], plus the ERE pole and its neighbours,
    each momentum once."""
    p = list(np.geomspace(1e-8, 1e8, 97) / abs(ch.length))
    p_star = ere.channel_pole_momentum(ch)
    if p_star is not None and isinstance(ch, ere.Channel3D):
        p += [p_star * (1 + s * 10.0**-k) for k in range(1, 9) for s in (-1, 1)] + [p_star]
    return np.unique(p)


@pytest.mark.parametrize("ch", ORACLE_CHANNELS, ids=repr)
def test_phases_tangents_curvatures_match_50_digit_oracle(ch):
    """Phases and tangents to 4e-15 relative; second derivatives to 4e-15 on
    the scale |x'|/p + |x''|."""
    other = ere.Channel2D(2.0) if isinstance(ch, ere.Channel2D) else ere.Channel3D(2.0)
    model = ere.TwoChannelModel(2 if isinstance(ch, ere.Channel2D) else 3, ch, other)
    p = _oracle_grid(ch)
    got = [
        ere.phases(model, p)[0], ere.tangents(model, p)[0], torus.sample_trajectory(model, p).d2phi
    ]
    want = np.array([[oracles.derivative(ch, pk, n) for pk in p] for n in range(3)])
    err = [np.abs(g - w) for g, w in zip(got, want)]
    assert np.all(err[0] <= 4e-15 * np.abs(want[0])), np.max(err[0] / np.abs(want[0]))
    assert np.all(err[1] <= 4e-15 * np.abs(want[1])), np.max(err[1] / np.abs(want[1]))
    scale = np.abs(want[1]) / p + np.abs(want[2])
    assert np.all(err[2] <= 4e-15 * scale), np.max(err[2] / scale)


@pytest.mark.parametrize("a,r,p", [(1.0, 0.0, 0.7)])
def test_tangent_and_curvature_match_symbolic_derivative(a, r, p):
    """The 50-digit tangent and curvature at one 3D momentum, to 1e-12 and 1e-10."""
    ch = ere.Channel3D(a, r=r)
    m = ere.TwoChannelModel(3, ch, ere.Channel3D(1.0))
    assert ere.tangents(m, p)[0] == pytest.approx(oracles.derivative(ch, p, 1), rel=1e-12)
    assert torus.sample_trajectory(m, [p]).d2phi[0] == pytest.approx(
        oracles.derivative(ch, p, 2), rel=1e-10
    )


@pytest.mark.parametrize("a2,p", [(1.0, 0.5), (3.0, 2.0)])
def test_tangent_2d_matches_symbolic(a2, p):
    """The 50-digit tangent and curvature at one 2D momentum of a ``make_2d_model``
    channel, to 1e-12 and 1e-10."""
    m = ere.make_2d_model(a2, 2 * a2)
    ch = m.channels[0]
    assert ere.tangents(m, p)[0] == pytest.approx(oracles.derivative(ch, p, 1), rel=1e-12)
    assert torus.sample_trajectory(m, [p]).d2phi[0] == pytest.approx(
        oracles.derivative(ch, p, 2), rel=1e-10
    )


# ---------------------------------------------------------------------------
# quarter-lambda class (geometry.closed_form)
# ---------------------------------------------------------------------------


def test_quarter_lambda_branches():
    solvable = [
        ere.make_symmetric_model("T3", 6, -1.0, -5.0, lam=0.25),
        ere.make_symmetric_model("T2", 6, 1.0, 5.0, lam=0.25),
        ere.make_symmetric_model("T2", 5, 1.0, -5.0, lam=0.25),
    ]
    for m in solvable:
        want = geometry.potential_lam14(m.singlet.a, m.triplet.a)
        assert geometry.closed_form(m).potential() == want
    unsolvable = [
        ere.make_symmetric_model("T3", 5, 1.0, 5.0, lam=0.25),
        ere.make_symmetric_model("T2", 6, 1.0, -5.0, lam=0.25),
    ]
    for m in unsolvable:
        assert geometry.closed_form(m) is None
    # r = a/2 fails in some channel: no closed form, whatever the row
    assert geometry.closed_form(ere.make_symmetric_model("T3", 6, -1.0, -5.0, lam=0.3)) is None
    assert geometry.closed_form(ere.make_symmetric_model("T2", 1, 1.0, 5.0, lam=0.25)) is None
