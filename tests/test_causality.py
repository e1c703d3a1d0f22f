"""Wigner bounds, tangent/exit audits, and S-matrix pole classification."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torus_scatter import causality, config, ere, torus

from conftest import family_models
import oracles


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------


def test_derivative_bound_values():
    assert causality.wigner_derivative_bound(1.0, 0.0, 0.0) == pytest.approx(0.0)
    assert causality.wigner_derivative_bound(1.0, math.pi / 4, 0.0) == pytest.approx(0.5)
    # R > 0 shifts by -R and the oscillation argument by 2 p R
    val = causality.wigner_derivative_bound(2.0, 0.3, 1.5)
    assert val == pytest.approx(-1.5 + math.sin(0.6 + 6.0) / 4.0, rel=1e-15)
    with pytest.raises(ValueError):
        causality.wigner_derivative_bound(0.0, 0.1, 0.0)
    with pytest.raises(ValueError):
        causality.wigner_derivative_bound(1.0, 0.1, -1.0)


def test_threshold_range_bound_3d_values():
    assert causality.threshold_range_bound_3d(0.0, -1.0) == 0.0
    assert causality.threshold_range_bound_3d(1.0, 1.0) == pytest.approx(2.0 / 3.0)
    assert causality.threshold_range_bound_3d(1.0, -1.0) == pytest.approx(14.0 / 3.0)
    a = 2.7
    assert causality.threshold_range_bound_3d(a, a) == pytest.approx(2.0 * a / 3.0)
    with pytest.raises(ValueError):
        causality.threshold_range_bound_3d(1.0, 0.0)


@given(a=st.floats(0.1, 10.0) | st.floats(-10.0, -0.1))
@settings(max_examples=100, deadline=None)
def test_zero_range_limit_forces_nonpositive_range(a):
    """R -> 0 collapses the allowed range to r <= 0."""
    assert causality.threshold_range_bound_3d(0.0, a) == 0.0
    assert causality.threshold_range_bound_3d(1e-12, a) == pytest.approx(0.0, abs=1e-10)


def test_effective_area_bound_2d():
    assert causality.effective_area_bound_2d(0.0, 1.0) == 0.0
    # the bracket minimizes at R = 2 a2 exp(1/2 - gamma): bound R^2/(4 pi)
    a2 = 1.3
    r_min = 2.0 * a2 * math.exp(0.5 - np.euler_gamma)
    assert causality.effective_area_bound_2d(r_min, a2) == pytest.approx(
        r_min**2 / (4 * math.pi), rel=1e-12
    )
    with pytest.raises(ValueError):
        causality.effective_area_bound_2d(1.0, -1.0)


@given(r=st.floats(1e-3, 1e3), a2=st.floats(1e-2, 1e2))
@settings(max_examples=200, deadline=None)
def test_area_bound_at_least_quarter_circle(r, a2):
    assert causality.effective_area_bound_2d(r, a2) >= r * r / (4 * math.pi) * (1 - 1e-12)


def test_area_bound_scales_as_r_squared_at_fixed_ratio():
    """Holding R/(2 a2) fixed, the bound is exactly quadratic in R."""
    ratio = 0.7
    values = []
    for r in (1e-3, 1e-2, 1e-1, 1.0):
        a2 = r / (2.0 * ratio)
        values.append(causality.effective_area_bound_2d(r, a2) / (r * r))
    np.testing.assert_allclose(values, values[0], rtol=1e-12)


# ---------------------------------------------------------------------------
# audits
# ---------------------------------------------------------------------------


def _traj(model, lo=1e-2, hi=1e2, n=1500):
    return torus.sample_trajectory(model, np.geomspace(lo, hi, n))


def test_tangent_audit_zero_range_saturates():
    m = ere.TwoChannelModel(3, ere.Channel3D(1.0), ere.Channel3D(-5.0))
    report = causality.tangent_vector_audit(_traj(m))
    assert report.passed and report.detail["checked"] == 2 * 1500


def test_tangent_audit_does_not_apply_to_2d():
    with pytest.raises(config.NotApplicable, match="3D models"):
        causality.tangent_vector_audit(_traj(ere.make_2d_model(1.0, 3.0)))


def test_tangent_audit_causal_family_strict():
    m = ere.make_symmetric_model("T3", 6, -1.0, -5.0, lam=0.1)
    report = causality.tangent_vector_audit(_traj(m))
    assert report.passed


def test_tangent_audit_flags_positive_range():
    m = ere.make_symmetric_model("T2", 6, 1.0, 5.0, lam=0.1)
    report = causality.tangent_vector_audit(_traj(m))
    assert not report.passed
    assert len(report.detail["violations"]) >= 1
    p0, channel, margin = report.detail["violations"][0]
    assert margin < 0 and channel in ("phi", "theta")


@given(
    a=st.floats(0.2, 5.0) | st.floats(-5.0, -0.2),
    r=st.floats(-2.0, 2.0),
    p=st.floats(0.05, 20.0),
)
@settings(max_examples=200, deadline=None)
def test_tangent_margin_closed_form(a, r, p):
    """phi' - sin(phi)/p = -2 a^2 r p^2 / Q exactly for the rational model."""
    m = ere.TwoChannelModel(3, ere.Channel3D(a, r=r), ere.Channel3D(1.0))
    phi = ere.phases(m, p)[0]
    dphi = ere.tangents(m, p)[0]
    denom = 1.0 - 0.5 * a * r * p * p
    q_val = denom * denom + a * a * p * p
    expected = -2.0 * a * a * r * p * p / q_val
    assert dphi - math.sin(phi) / p == pytest.approx(expected, rel=1e-9, abs=1e-12)


def test_exit_audit_causal_only_upper_right():
    m = ere.make_symmetric_model("T3", 6, -1.0, -5.0, lam=0.1)
    report = causality.quadrant_exit_audit(_traj(m))
    assert report.passed
    assert len(report.detail["crossings"]) == 2
    assert {c["edge"] for c in report.detail["crossings"]} == {"top", "right"}


def test_exit_audit_flags_acausal_exits():
    m = ere.make_symmetric_model("T2", 6, 1.0, 5.0, lam=0.1)
    report = causality.quadrant_exit_audit(_traj(m))
    assert not report.passed
    forbidden = [c for c in report.detail["crossings"] if not c["allowed"]]
    assert {c["edge"] for c in forbidden} <= {"left", "bottom"}
    assert len(forbidden) >= 1


def _oracle_crossings(model, grid):
    """(channel, edge, p_low, p_high) of every sign change of floor(x/pi).

    delta = arctan2(p, p cot delta) in (0, pi) is continuous in p > 0, and
    x = 2 delta differs from the model's phase by a constant multiple of 2 pi;
    p cot delta is -1/a + r p^2/2 in 3D and -(2/pi) p log(a2 p) in 2D.
    """
    out = []
    for ch, channel, edges in zip(
        model.channels, ("phi", "theta"), (("right", "left"), ("top", "bottom"))
    ):
        if model.dimension == 3:
            p_cot = -1.0 / ch.a + 0.5 * ch.r * grid**2
        else:
            p_cot = -(2.0 / math.pi) * grid * np.log(ch.a2 * grid)
        x = 2.0 * np.arctan2(grid, p_cot)
        for k in np.nonzero(np.diff(np.floor(x / math.pi)))[0]:
            out.append((channel, edges[0] if x[k + 1] > x[k] else edges[1], grid[k], grid[k + 1]))
    return out


def test_exit_crossings_match_a_sign_change_oracle():
    grid = np.geomspace(1e-3, 1e3, 200_001)
    models = family_models()
    kinds = set()
    for model in models:
        traj = torus.sample_trajectory(model, grid)
        got = causality.quadrant_exit_audit(traj).detail["crossings"]
        want = _oracle_crossings(model, grid)
        kinds |= {(c["channel"], c["edge"]) for c in got}
        assert sorted((c["channel"], c["edge"]) for c in got) == sorted(
            (channel, edge) for channel, edge, _lo, _hi in want
        ), model
        for channel, _edge, lo, hi in want:
            (p_star,) = (c["p"] for c in got if c["channel"] == channel)
            assert lo <= p_star <= hi, (model, channel)
    assert kinds == {("phi", "right"), ("phi", "left"), ("theta", "top"), ("theta", "bottom")}


def test_tangent_margins_match_mpmath():
    """Every violation margin of the acausal T2 row 6 against 50-digit p x' - sin x."""
    model = ere.make_symmetric_model("T2", 6, 1.0, 5.0, lam=0.1)
    report = causality.tangent_vector_audit(_traj(model, 1e-3, 1e3, 2001))
    assert len(report.detail["violations"]) > 3000
    channels = dict(zip(("phi", "theta"), model.channels))
    for p, channel, margin in report.detail["violations"]:
        exact = oracles.tangent_margin(channels[channel], p)
        assert abs(margin - exact) <= 1e-12 * abs(exact), (p, channel)


# ---------------------------------------------------------------------------
# poles
# ---------------------------------------------------------------------------


def test_poles_closed_form_three_cases():
    double = causality.poles_closed_form(-1.0, 0.25)
    assert double.classification == "double_virtual"
    assert double.poles == ((complex(0.0, -2.0), 2),)

    pair = causality.poles_closed_form(-1.0, 0.5)
    assert pair.classification == "resonance_pair"
    assert set(p for p, _ in pair.poles) == {1.0 - 1.0j, -1.0 - 1.0j}

    virt = causality.poles_closed_form(-1.0, 0.125)
    assert virt.classification == "two_virtual"
    expected = sorted([4.0 * (1.0 + 1.0 / math.sqrt(2.0)), 4.0 * (1.0 - 1.0 / math.sqrt(2.0))])
    assert sorted(-p.imag for p, _ in virt.poles) == pytest.approx(expected)


def test_quarter_lambda_is_a_double_pole_where_2a_overflows():
    """At a = -1e308, 2 a overflows but r = 2 (lambda a) = -5e307 does not, so
    lambda = 1/4 keeps its double virtual pole -i/(2|a|lambda)."""
    got = causality.poles_closed_form(-1e308, 0.25)
    assert got.classification == "double_virtual"
    assert got.poles == ((complex(0.0, -2e-308), 2),)


@pytest.mark.parametrize("lam", [0.1, 0.25, 4.0])
def test_verify_poles_on_the_causal_family(lam):
    """T3 row 6 (r = 2 a lambda, a < 0): the closed-form poles are the roots
    of each channel's denominator, and all lie in the lower half plane."""
    m = ere.make_symmetric_model("T3", 6, -1.3, -4.2, lam=lam)
    singlet, triplet, lower = causality.verify_poles(_traj(m, n=5))
    assert [c.name for c in (singlet, triplet, lower)] == [
        "pole_match_singlet", "pole_match_triplet", "pole_lower_half"
    ]
    closed = [causality.poles_closed_form(ch.a, lam) for ch in m.channels]
    for check, poleset in zip((singlet, triplet), closed):
        assert check.passed and check.tolerance == 1e-12
        assert check.extra == {"case": poleset.classification}
    assert lower.passed
    assert lower.max_deviation == max(p.imag for ps in closed for p, _m in ps.poles) < 0


@pytest.mark.parametrize(
    "model",
    [
        ere.make_symmetric_model("T3", 5, 1.3, 4.2, lam=0.25),  # r = -2 a lambda
        ere.make_symmetric_model("T2", 6, 1.3, 4.2, lam=0.1),  # r = 2 a lambda, a > 0
        ere.make_symmetric_model("T1", 3, -1.3, -4.2),  # zero range
        ere.TwoChannelModel(3, ere.Channel3D(-1.3, -0.65), ere.Channel3D(-4.2, -2.1)),
        ere.make_2d_model(1.0, 3.0),
    ],
    ids=["T3-5", "T2-6-acausal", "T1-3", "untagged", "2d"],
)
def test_verify_poles_does_not_apply_outside_the_causal_family(model):
    with pytest.raises(config.NotApplicable, match="causal family"):
        causality.verify_poles(_traj(model, n=5))


def test_poles_closed_form_guards():
    with pytest.raises(ValueError):
        causality.poles_closed_form(-1.0, -1.0)
    with pytest.raises(ValueError):
        causality.poles_closed_form(-1.0, 0.0)
    with pytest.raises(ValueError, match="causal"):
        causality.poles_closed_form(1.0, 0.5)


def test_poles_numeric_zero_range_scope():
    ps = causality.poles_numeric(2.0, 0.0)
    assert ps.classification == "single_pole"
    assert ps.poles == ((complex(0.0, 0.5), 1),)
    assert ps.scope_flag == "outside causal-model scope"
    assert not causality.verify_lower_half(ps)  # bound-state pole, upper half
    neg = causality.poles_numeric(-2.0, 0.0)
    assert causality.verify_lower_half(neg)  # virtual-state pole, lower half
    with pytest.raises(ValueError):
        causality.poles_numeric(0.0, 1.0)


@given(
    lam=st.sampled_from([0.125, 0.25, 0.5, 1.0, 10.0]),
    mag=st.sampled_from([0.1, 1.0, 10.0]),
)
@settings(max_examples=15, deadline=None)
def test_poles_closed_matches_numeric(lam, mag):
    a = -mag
    closed = causality.poles_closed_form(a, lam)
    numeric = causality.poles_numeric(a, 2.0 * a * lam)
    closed_flat = sorted(
        (p for p, m in closed.poles for _ in range(m)), key=lambda z: (z.real, z.imag)
    )
    numeric_flat = sorted(
        (p for p, m in numeric.poles for _ in range(m)), key=lambda z: (z.real, z.imag)
    )
    scale = max(abs(p) for p in closed_flat)
    for c, n in zip(closed_flat, numeric_flat):
        assert abs(c - n) < 1e-12 * max(scale, 1.0)
    assert causality.verify_lower_half(closed)
    assert causality.verify_lower_half(numeric)


QUARTER = (math.nextafter(0.25, 0.0), 0.25, math.nextafter(0.25, 1.0))


@pytest.mark.parametrize("lam", (1e-12, 0.1, *QUARTER, 0.5, 3.0, 1e12))
@pytest.mark.parametrize("a", (-1e-150, -0.3, -1.0, -7.5, -1e150))
def test_poles_closed_form_is_its_docstring_bit_for_bit(a, lam):
    """p_R = sqrt(4 lambda - 1)/(2|a|lambda) and p_I = 1/(2|a|lambda) above
    1/4; -i/(2|a|lambda) twice at 1/4; -i (1 + sqrt(1 - 4 lambda))/(2|a|lambda)
    and -2i/(|a|(1 + sqrt(1 - 4 lambda))) below, one ulp from 1/4 included."""
    den = 2.0 * abs(a) * lam
    if lam > 0.25:
        p_r, p_i = math.sqrt(4.0 * lam - 1.0) / den, 1.0 / den
        want = ((complex(p_r, -p_i), 1), (complex(-p_r, -p_i), 1)), "resonance_pair"
    elif lam == 0.25:
        want = ((complex(0.0, -1.0 / den), 2),), "double_virtual"
    else:
        root = math.sqrt(1.0 - 4.0 * lam)
        p_plus, p_minus = (1.0 + root) / den, 2.0 / (abs(a) * (1.0 + root))
        want = ((complex(0.0, -p_plus), 1), (complex(0.0, -p_minus), 1)), "two_virtual"
    got = causality.poles_closed_form(a, lam)
    # repr tells -0.0 from 0.0, which == does not
    assert [(repr(p), m) for p, m in got.poles] == [(repr(p), m) for p, m in want[0]]
    assert got.classification == want[1]


def _numeric_inputs(n=400):
    """(a, r) with binary exponents within +-600 and |2r/a - 1| >= 1e-4,
    each sign, then the inputs that once overflowed or divided by zero."""
    rng = np.random.default_rng(23)
    out = []
    while len(out) < n:
        a, r = (
            float(s * np.ldexp(m, e))
            for s, m, e in zip(rng.choice((-1, 1), 2), rng.uniform(0.5, 1, 2),
                               rng.integers(-600, 601, 2))
        )
        if abs(2 * (r / a) - 1) >= 1e-4:
            out.append((a, r))
    return out + [(-1e-170, -2e-170), (-1.0, 6e-171), (1e-300, 1e-300), (1e-320, 1.0),
                  (-1e170, -2e170), (2.0**-600, 2.0**600), (2.0**-600, -(2.0**600))]


def test_poles_numeric_matches_50_digit_roots():
    """Case, order (resonance poles by real part, virtual ones by imaginary
    part) and each pole to 1e-13 of its size, over 12 decades of lengths."""
    for a, r in _numeric_inputs():
        exact = oracles.pole_roots(a, r)
        case = "resonance_pair" if exact[0].real else "two_virtual"
        ps = causality.poles_numeric(a, r)
        assert ps.classification == case, (a, r)
        assert [m for _p, m in ps.poles] == [1, 1]
        if case == "two_virtual":
            assert all(p.real == 0.0 for p, _m in ps.poles)
        for (p, _m), want in zip(ps.poles, sorted(exact, key=lambda z: (z.real, z.imag))):
            assert abs(p - want) <= 1e-13 * abs(want), (a, r, p, want)


def test_pole_collision_is_continuous_at_quarter():
    """Either side of lambda = 1/4 the pole pair sits within 1e-2 of the
    double pole for a 1e-6 offset."""
    a = -1.0
    double = causality.poles_closed_form(a, 0.25).poles[0][0]
    for lam in (0.25 - 1e-6, 0.25 + 1e-6):
        ps = causality.poles_closed_form(a, lam)
        for p, _m in ps.poles:
            assert abs(p - double) < 1e-2


def test_poles_numeric_direct_root_check():
    """The reported poles annihilate the monic quadratic p^2 - (2i/r)p - 2/(ar)."""
    for a, r in [(-1.0, -0.5), (-3.0, -1.2), (2.0, 1.0), (1.0, -0.7)]:
        ps = causality.poles_numeric(a, r)
        for pole, _m in ps.poles:
            val = pole * pole - (2j / r) * pole - 2.0 / (a * r)
            assert abs(val) < 1e-10 * max(1.0, abs(pole) ** 2)


def test_poles_numeric_classifies_axis_pairs():
    # a = -1, r = -0.25 (lambda = 1/8): q = 2r/a - 1 = -0.5 < 0, both on the
    # axis; r = -0.5 (lambda = 1/4): q = 0 exactly, a double pole
    ps = causality.poles_numeric(-1.0, 2.0 * (-1.0) * 0.125)
    assert ps.classification == "two_virtual"
    assert all(p.real == 0.0 for p, _ in ps.poles)
    ps2 = causality.poles_numeric(-1.0, 2.0 * (-1.0) * 0.25)
    assert ps2.classification == "double_virtual"
    assert ps2.poles[0][1] == 2


@pytest.mark.parametrize("lam", [1e-6, 1e-8, 1e-10])
def test_small_virtual_pole_is_free_of_cancellation(lam):
    """The smaller virtual pole against 50-digit roots of the channel's
    denominator: at r = 2 a lambda exactly for the closed form, and at the
    float r for the numeric path."""
    a = -1.3
    r = 2.0 * a * lam
    for poleset, roots in (
        (causality.poles_closed_form(a, lam), oracles.pole_roots(a, lam=lam)),
        (causality.poles_numeric(a, r), oracles.pole_roots(a, r)),
    ):
        small = min(abs(p) for p, _m in poleset.poles)
        assert abs(small - abs(roots[1])) <= 1e-14 * abs(roots[1])
