"""Momentum-inversion symmetry maps: phases, density matrices, EP."""

import dataclasses
import itertools
import json
import math
import re

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from torus_scatter import cli, config, ere, spin, torus, uvir

import oracles


# ---------------------------------------------------------------------------
# inversion bookkeeping
# ---------------------------------------------------------------------------


def test_inverted_momentum_values():
    assert uvir.inverted_momentum(2.0, 1.0, 1.0, 1.0) == pytest.approx(0.5)
    assert uvir.inverted_momentum(1.0, 0.01, -15.0, -1.0) == pytest.approx(100.0 / 15.0)
    with pytest.raises(ValueError, match="threshold"):
        uvir.inverted_momentum(0.0, 1.0, 1.0, 1.0)


@pytest.mark.parametrize(
    "p,lam,a0,a1,product",
    [
        ([1.0, 1e160], 1.0, 1e150, 1.0, "inf"),  # lambda |a0 a1| p overflows
        (1e-300, 1e-10, 1e-10, 1.0, "1e-320"),  # its inverse overflows
        (1e-310, 1e-10, 1e-10, 1.0, "0.0"),  # it underflows to 0
    ],
)
def test_inverted_momentum_refuses_an_unrepresentable_image(p, lam, a0, a1, product):
    with pytest.raises(ValueError, match=rf"^momentum inversion: lambda \|a0 a1\| p = {product} "):
        uvir.inverted_momentum(p, lam, a0, a1)


@pytest.mark.parametrize(
    "lam,a0,a1,eta", [(1.0, 1e200, 1e200, "inf"), (1e-30, 1e-300, 1.0, "0.0")]
)
def test_inversion_strength_must_be_finite_and_nonzero(lam, a0, a1, eta):
    message = rf"^momentum inversion: lambda \|a0 a1\| = {eta} must be finite and nonzero$"
    for call in (
        lambda: uvir.inversion_fixed_point(lam, a0, a1),
        lambda: uvir.inverted_momentum(1.0, lam, a0, a1),
        lambda: uvir.make_paired_grid(a0, a1, lam=lam),
    ):
        with pytest.raises(ValueError, match=message):
            call()


@given(p=st.floats(1e-6, 1e6), lam=st.floats(0.01, 10.0), a0=st.floats(0.1, 10.0))
@settings(max_examples=200, deadline=None)
def test_inversion_is_an_involution(p, lam, a0):
    q = uvir.inverted_momentum(p, lam, a0, -2.0)
    back = uvir.inverted_momentum(q, lam, a0, -2.0)
    assert back == pytest.approx(p, rel=5e-16)


def test_fixed_point():
    star = uvir.inversion_fixed_point(0.01, -15.0, -1.0)
    assert star == pytest.approx(1.0 / math.sqrt(0.15), rel=1e-15)
    assert uvir.inverted_momentum(star, 0.01, -15.0, -1.0) == pytest.approx(star, rel=1e-15)


def test_model_inversion_strength():
    """A model inverts p -> 1/(eta p) with its family's eta = lambda |a0 a1|."""
    m = ere.make_symmetric_model("T2", 5, -15.0, -1.0, lam=0.01)
    assert uvir.model_inverted_momentum(m, 2.0) == pytest.approx(1.0 / (0.15 * 2.0), rel=1e-15)
    bare = ere.TwoChannelModel(3, ere.Channel3D(1.0), ere.Channel3D(2.0))
    with pytest.raises(ValueError):
        uvir.model_inverted_momentum(bare, 2.0)


def test_paired_grid_is_inversion_closed():
    grid = uvir.make_paired_grid(1.0, 5.0, lam=1.0, count=101)
    assert grid.size == 101
    assert np.all(np.diff(grid) > 0)
    eta = 5.0
    partners = 1.0 / (eta * grid)
    np.testing.assert_allclose(np.sort(partners), grid, rtol=1e-12)
    # odd count includes the self-paired fixed point
    assert np.min(np.abs(grid - 1.0 / math.sqrt(eta))) < 1e-12


# ---------------------------------------------------------------------------
# expected maps
# ---------------------------------------------------------------------------


def test_expected_map_t1_row4():
    mp = uvir.expected_map("T1", 4)
    phi, theta = mp.apply(0.3, 1.1)
    assert phi == pytest.approx(-math.pi - 1.1)
    assert theta == pytest.approx(-math.pi - 0.3)
    assert mp.rho_class is uvir.RhoClass.RHO


def test_expected_map_t2_rows():
    assert uvir.expected_map("T2", 1).rho_class is uvir.RhoClass.RHO
    assert uvir.expected_map("T2", 4).rho_class is uvir.RhoClass.RHO_BAR
    assert uvir.expected_map("T2", 5).rho_class is uvir.RhoClass.RHO_BAR
    assert uvir.expected_map("T2", 6).rho_class is uvir.RhoClass.RHO
    mixed = uvir.expected_map("T2", 2)
    assert mixed.rho_class is uvir.RhoClass.RHO_MINUS_RHOBAR_PLUS
    # T3 shares the maps row by row
    for row in range(1, 7):
        assert uvir.expected_map("T3", row) == uvir.expected_map("T2", row)


def test_expected_map_2d_swaps_and_negates():
    mp = uvir.expected_map("2D", 1)
    phi, theta = mp.apply(0.4, 2.2)
    assert phi == pytest.approx(-2.2)
    assert theta == pytest.approx(-0.4)


def _row_sign_pairs():
    """(table, row, (sign a0, sign a1)) for every sign pair each row accepts,
    read from ``ere``'s row tables: T2 rows accept any pair, T3 rows the one
    with sgn(a_d) = -sign in each entry, where both ranges are <= 0."""
    for row, signs in ere._T1_SIGNS.items():
        yield "T1", row, signs
    for row in ere.T2_ROWS:
        for signs in itertools.product((1, -1), repeat=2):
            yield "T2", row, signs
    for row, entries in ere._RANGE_ROWS.items():
        signs = {d: -sg for sg, d in entries}
        yield "T3", row, (signs[0], signs[1])
    yield "2D", 1, (1, 1)


@pytest.mark.parametrize("table,row,signs", list(_row_sign_pairs()), ids=str)
def test_each_map_is_a_rational_identity_of_the_ere_pairs(table, row, signs):
    """Certificate of the row's phase map x'(p') = s x(p) + shift mod 2 pi at
    p' = 1/(eta p): (C + iS)'(p') / ((C + i s S)(p) e^{i shift/2}) is real and
    nonzero as a function of the magnitudes |a0|, |a1|, lambda and p, with the
    ranges that ``ere``'s row tables give those signs."""
    mags = A0, A1, lam, p = sympy.symbols("A0 A1 lambda p", positive=True)
    a = [signs[0] * A0, signs[1] * A1]
    eta = (lam if table in ("T2", "T3") else 1) * A0 * A1
    if table in ("T2", "T3"):
        ranges = [sg * 2 * eta / a[d] for sg, d in ere._RANGE_ROWS[row]]
    else:
        ranges = [0, 0]
    dim = 2 if table == "2D" else 3
    sym = uvir.expected_map(table, row)
    images = ((sym.phi_source, sym.phi_sign, sym.phi_shift),
              (sym.theta_source, sym.theta_sign, sym.theta_shift))
    for k, (source, sign, shift) in enumerate(images):
        j = ("phi", "theta").index(source)
        s_img, c_img = oracles.symbolic_pair(dim, a[k], ranges[k], 1 / (eta * p))
        s_src, c_src = oracles.symbolic_pair(dim, a[j], ranges[j], p)
        half_turn = sympy.exp(sympy.I * sympy.pi * round(shift / math.pi) / 2)
        ratio = sympy.cancel(sympy.expand_log(
            (c_img + sympy.I * s_img) / ((c_src + sympy.I * sign * s_src) * half_turn), force=True
        ))
        assert ratio != 0 and ratio.free_symbols <= set(mags) and not ratio.has(sympy.I), ratio
        if (table, row, signs, k) == ("T2", 6, (1, 1), 0):
            assert ratio == -1 / (A1**2 * lam * p**2)


# ---------------------------------------------------------------------------
# verification oracles: independently computed phase relations
# ---------------------------------------------------------------------------


def test_t1_row4_relation_directly():
    """phi(1/(a0 a1 p)) = -pi - theta(p) for zero-range, both lengths > 0.

    Uses the arctan identity arctan(x) + arctan(1/x) = pi/2 (x > 0) on the
    raw phase formulas, independent of the SymmetryMap plumbing.
    """
    a0, a1 = 1.0, 5.0
    m = ere.TwoChannelModel(3, ere.Channel3D(a0), ere.Channel3D(a1))
    for p in (0.07, 0.5, 3.0, 40.0):
        q = 1.0 / (a0 * a1 * p)
        phi_q = ere.phases(m, q)[0]
        theta_p = ere.phases(m, p)[1]
        assert phi_q == pytest.approx(-math.pi - theta_p, abs=1e-12)
        theta_q = ere.phases(m, q)[1]
        phi_p = ere.phases(m, p)[0]
        assert theta_q == pytest.approx(-math.pi - phi_p, abs=1e-12)


def test_verify_phase_map_t1_row4():
    m = ere.make_symmetric_model("T1", 4, 1.0, 5.0)
    grid = uvir.make_paired_grid(1.0, 5.0)
    report = uvir.verify_phase_map(torus.sample_trajectory(m, grid))
    assert report.passed and report.max_deviation < 1e-10


@pytest.mark.parametrize("row,a0,a1", [(1, 1.0, -5.0), (2, -1.0, 5.0), (3, -2.0, -0.3)])
def test_verify_phase_map_t1_other_rows(row, a0, a1):
    m = ere.make_symmetric_model("T1", row, a0, a1)
    grid = uvir.make_paired_grid(a0, a1)
    report = uvir.verify_phase_map(torus.sample_trajectory(m, grid))
    assert report.passed, report.to_json()


@pytest.mark.parametrize(
    "table,row,a0,a1,lam",
    [
        ("T2", 1, 1.0, 2.0, 0.7),
        ("T2", 2, 1.0, 2.0, 0.7),
        ("T2", 3, 1.0, 2.0, 0.7),
        ("T2", 4, 1.0, 2.0, 0.7),
        ("T2", 5, -15.0, -1.0, 0.01),
        ("T2", 5, 15.0, 1.0, 0.01),
        ("T2", 6, 0.5, 3.0, 0.25),
        ("T3", 5, 2.0, 1.0, 0.4),
        ("T3", 6, -2.0, -1.0, 0.4),
    ],
)
def test_verify_phase_map_range_families(table, row, a0, a1, lam):
    m = ere.make_symmetric_model(table, row, a0, a1, lam=lam)
    grid = uvir.make_paired_grid(a0, a1, lam=lam)
    report = uvir.verify_phase_map(torus.sample_trajectory(m, grid))
    assert report.passed, report.to_json()


def test_verify_density_map_full_and_mixed_classes():
    for table, row, a0, a1, lam in [
        ("T2", 1, 1.0, 2.0, 0.7),   # rho
        ("T2", 4, 1.0, 2.0, 0.7),   # rho-bar
        ("T2", 2, 1.0, 2.0, 0.7),   # mixed sectors
        ("T2", 3, 1.0, 2.0, 0.7),   # mixed sectors
    ]:
        m = ere.make_symmetric_model(table, row, a0, a1, lam=lam)
        grid = uvir.make_paired_grid(a0, a1, lam=lam, count=21)
        report = uvir.verify_density_map(torus.sample_trajectory(m, grid))
        assert report.passed, report.to_json()


def test_default_in_states_are_those_verify_draws_without_a_seed(tmp_path):
    """``verify_density_map`` without in-states reports what ``verify`` does
    for a config without ``seed``: the same ten in-states, whose mixed-class
    report differs from that of the seed-7 states."""
    path, out = tmp_path / "cfg.json", tmp_path / "report.json"
    path.write_text(json.dumps({
        "dimension": 3, "a0": 1.0, "a1": 2.0, "family": {"table": "T2", "row": 2, "lambda": 0.7},
        "p_grid": {"min": 0.1, "max": 10.0, "count": 21},
    }))
    assert cli.main(["verify", "--suite", "symmetry", "--config", str(path), "--out", str(out)]) == 0
    (want,) = [c for c in json.loads(out.read_text())["checks"] if c["name"] == "density_map"]
    cfg = config.RunConfig.load(path)
    traj = torus.sample_trajectory(cfg.build_model(), cfg.build_grid())
    assert uvir.verify_density_map(traj).to_json() == want
    seeded = uvir.verify_density_map(traj, in_states=uvir._default_in_states(seed=7))
    assert seeded.to_json() != want


def test_density_map_oracle_by_hand():
    """Row-4 check without the SymmetryMap machinery: rho(p') == rho-bar(p).

    rho-bar is the output of the conjugated operator S* acting on the same
    in-state; for row 4 the phases at the inverted momentum are exactly
    negated, and S(-phi,-theta) = S(phi,theta)*.
    """
    m = ere.make_symmetric_model("T2", 4, 1.0, 2.0, lam=0.7)
    rng = np.random.default_rng(3)
    state = spin.haar_product_states(1, rng)[0]
    p = 0.37
    q = uvir.model_inverted_momentum(m, p)
    phi_p, theta_p = ere.phases(m, p)
    phi_q, theta_q = ere.phases(m, q)
    rho_q = spin.out_density_matrix(spin.build_s_operator(phi_q, theta_q), state)
    rho_bar_p = spin.out_density_matrix(
        spin.build_s_operator(phi_p, theta_p), state, conjugated=True
    )
    np.testing.assert_allclose(rho_q, rho_bar_p, atol=1e-12)


#: Sector signs (s_s, s_t) read off the mixed class names: "minus" is the
#: singlet sector, "plus" the triplet; "rho" keeps a sector's phase, "rhobar"
#: flips its sign.
MIXED_SIGNS = {
    uvir.RhoClass.RHO_MINUS_RHOBAR_PLUS: (+1, -1),
    uvir.RhoClass.RHO_PLUS_RHOBAR_MINUS: (-1, +1),
}


def _density_map_by_point(model, in_states, grid):
    """Reference oracle: the per-point loop over ``spin.out_density_matrix``."""
    sym = uvir.expected_map(model.family.table, model.family.row)
    phi, theta = ere.phases(model, grid)
    phi_inv, theta_inv = ere.phases(model, uvir.model_inverted_momentum(model, grid))
    p_s, p_t = spin.SINGLET_PROJECTOR, spin.TRIPLET_PROJECTOR
    max_dev = 0.0
    cross = []
    for k in range(grid.size):
        s_here = spin.build_s_operator(phi[k], theta[k])
        s_image = spin.build_s_operator(phi_inv[k], theta_inv[k])
        for psi in in_states:
            rho_image = spin.out_density_matrix(s_image, psi)
            rho_plain = spin.out_density_matrix(s_here, psi)
            if sym.rho_class is uvir.RhoClass.RHO:
                dev = np.max(np.abs(rho_image - rho_plain))
            elif sym.rho_class is uvir.RhoClass.RHO_BAR:
                rho_bar = spin.out_density_matrix(s_here, psi, conjugated=True)
                dev = np.max(np.abs(rho_image - rho_bar))
            else:
                s_s, s_t = MIXED_SIGNS[sym.rho_class]
                s_mixed = spin.build_s_operator(s_s * phi[k], s_t * theta[k])
                dev = np.max(np.abs(rho_image - spin.out_density_matrix(s_mixed, psi)))
                cross_image = p_s @ rho_image @ p_t
                cross_plain = p_s @ rho_plain @ p_t
                idx = np.unravel_index(np.argmax(np.abs(cross_plain)), cross_plain.shape)
                if abs(cross_plain[idx]) >= 1e-12:
                    cross.append(float(np.angle(cross_image[idx] / cross_plain[idx])))
            max_dev = max(max_dev, float(dev))
    details = {"rho_class": sym.rho_class.value, "table": model.family.table}
    if cross:
        details["cross_block_phase_vs_plain_rho"] = {"min": min(cross), "max": max(cross)}
    return config.Check(
        name="density_map",
        max_deviation=max_dev,
        tolerance=1e-10,
        extra={"row": model.family.row, "details": details},
    )


def _assert_matches_oracle(report, oracle):
    """Same verdict, keys and class; deviation to 1e-15, cross phases to 1e-14 mod 2pi."""
    assert report.keys() == oracle.keys()
    assert report["pass"] == oracle["pass"]
    assert report["details"].keys() == oracle["details"].keys()
    assert report["details"]["rho_class"] == oracle["details"]["rho_class"]
    assert abs(report["max_deviation"] - oracle["max_deviation"]) <= 1e-15
    if "cross_block_phase_vs_plain_rho" in oracle["details"]:
        got = report["details"]["cross_block_phase_vs_plain_rho"]
        want = oracle["details"]["cross_block_phase_vs_plain_rho"]
        for end in ("min", "max"):
            assert abs(torus.wrap_angle(got[end] - want[end])) <= 1e-14, (got, want)


@pytest.mark.parametrize(
    "table,row,a0,a1,lam,rho_class",
    [
        ("T2", 1, 1.0, 2.0, 0.7, "rho"),
        ("T2", 4, 1.0, 2.0, 0.7, "rho_bar"),
        ("T2", 2, 1.3, -4.0, 0.3, "rho_minus + rhobar_plus"),
        ("T2", 3, -0.8, 6.0, 0.2, "rho_plus + rhobar_minus"),
        ("T1", 4, 1.2, 5.0, 1.0, "rho"),
        ("T3", 6, -0.9, -4.0, 0.25, "rho"),
    ],
)
def test_batched_density_map_equals_point_loop(table, row, a0, a1, lam, rho_class):
    m = ere.make_symmetric_model(table, row, a0, a1, lam=lam)
    states = spin.haar_product_states(10, np.random.default_rng(11))
    # A nearly pure triplet in-state: its cross block stays below 1e-12 and
    # records no phase.
    near_triplet = np.kron([1.0, 0.0], [math.cos(1e-14), math.sin(1e-14)]).astype(complex)
    # 600 points is the verify-sweep grid size.
    for count in (1, 2, 157, 600):
        grid = np.geomspace(1e-2, 1e2, count)
        traj = torus.sample_trajectory(m, grid)
        report = uvir.verify_density_map(traj, in_states=states).to_json()
        assert report["details"]["rho_class"] == rho_class
        _assert_matches_oracle(report, _density_map_by_point(m, states, grid).to_json())
        if "+" in rho_class:
            assert "cross_block_phase_vs_plain_rho" in report["details"]
        report = uvir.verify_density_map(traj, in_states=[near_triplet]).to_json()
        _assert_matches_oracle(report, _density_map_by_point(m, [near_triplet], grid).to_json())
        assert "cross_block_phase_vs_plain_rho" not in report["details"]


@pytest.mark.parametrize(
    "table,row,a0,a1,lam",
    [
        ("T1", 1, 1.2, -5.0, 1.0),
        ("T1", 4, 1.2, 5.0, 1.0),
        ("T2", 1, 1.0, 2.0, 0.7),
        ("T2", 2, 1.3, -4.0, 0.3),
        ("T2", 3, -0.8, 6.0, 0.2),
        ("T2", 4, 1.0, 2.0, 0.7),
        ("T2", 5, -15.0, -1.0, 0.01),
        ("T3", 6, -0.9, -4.0, 0.25),
    ],
)
def test_density_map_fails_on_perturbed_image_phases(monkeypatch, table, row, a0, a1, lam):
    """Image phases off by about 1e-3 fail every class, by the 4x4 oracle's amount."""
    m = ere.make_symmetric_model(table, row, a0, a1, lam=lam)
    grid = np.geomspace(1e-2, 1e2, 7)
    image = uvir.model_inverted_momentum(m, grid)
    noise = 1e-3 * np.random.default_rng(5).standard_normal((2, grid.size))
    real_phases = ere.phases

    def perturbed_phases(model, p):
        phi, theta = real_phases(model, p)
        if np.array_equal(p, image):
            return phi + noise[0], theta + noise[1]
        return phi, theta

    monkeypatch.setattr(ere, "phases", perturbed_phases)
    states = spin.haar_product_states(4, np.random.default_rng(11))
    report = uvir.verify_density_map(torus.sample_trajectory(m, grid), in_states=states).to_json()
    oracle = _density_map_by_point(m, states, grid).to_json()
    assert not report["pass"] and report["max_deviation"] > 1e-5, report
    _assert_matches_oracle(report, oracle)


def test_density_map_rejects_missing_or_misshapen_in_states():
    m = ere.make_symmetric_model("T2", 2, 1.3, -4.0, lam=0.3)
    grid = np.geomspace(0.1, 10, 11)
    with pytest.raises(ValueError, match="^no in-states$"):
        uvir.verify_density_map(torus.sample_trajectory(m, grid), in_states=np.zeros((0, 4)))
    for bad, shape in ((np.array([]), "(0,)"), (np.ones((2, 3)), "(2, 3)"),
                       (np.ones((2, 1, 4)), "(2, 1, 4)")):
        with pytest.raises(ValueError, match=f"shape \\(k, 4\\), got {re.escape(shape)}$"):
            uvir.verify_density_map(torus.sample_trajectory(m, grid), in_states=bad)


@pytest.mark.parametrize(
    "values",
    [
        [[0.0, 1.0], [-0.0, 2.0]],
        [[-0.0, 1.0], [0.0, 2.0]],
        [[-1.0, 0.0], [-2.0, -0.0]],
        [[-1.0, -0.0], [-2.0, 0.0]],
        [[np.nan, np.nan], [np.nan, np.nan]],
        [[np.nan], [0.25], [np.nan]],
        [[0.5, np.nan, -0.0], [np.nan, 0.0, np.nan], [-3.0, np.nan, 3.0]],
    ],
)
def test_cross_phase_summary_matches_python_min_max(values):
    values = np.array(values, dtype=float)
    finite = [v for v in values.ravel().tolist() if not math.isnan(v)]
    summary = uvir._finite_range(values)
    if not finite:
        assert summary is None
        return
    want = {"min": min(finite), "max": max(finite)}
    # repr tells -0.0 from 0.0, which == does not.
    assert repr(summary) == repr(want)
    assert all(type(v) is float for v in summary.values())


def test_density_map_rejects_unnormalized_in_state():
    traj = torus.sample_trajectory(
        ere.make_symmetric_model("T2", 1, 1.0, 2.0, lam=0.7), np.geomspace(0.1, 10, 11)
    )
    states = spin.haar_product_states(3, np.random.default_rng(2))
    for bad in (states[1] * 1.001, np.full(4, np.nan)):
        states[1] = bad
        with pytest.raises(ValueError, match="normalized"):
            uvir.verify_density_map(traj, in_states=states)


def test_verifiers_reject_empty_grid():
    """The verifiers read a sampled trajectory, and an empty grid has none."""
    m = ere.make_symmetric_model("T2", 1, 1.0, 2.0, lam=0.7)
    with pytest.raises(ValueError, match="^momentum grid must be a non-empty 1D array$"):
        torus.sample_trajectory(m, np.array([]))


def test_density_map_rejects_non_unitary_operator():
    m = ere.make_symmetric_model("T2", 4, 1.0, 2.0, lam=0.7)
    traj = torus.sample_trajectory(m, np.geomspace(0.1, 10, 11))
    phi = traj.phi.copy()
    phi[4] = np.nan
    with pytest.raises(ValueError, match="scattering operator is not unitary"):
        uvir.verify_density_map(dataclasses.replace(traj, phi=phi))


def test_verify_ep_invariance_rows():
    for table, row, a0, a1, lam in [
        ("T1", 4, 1.0, 5.0, 1.0),
        ("T2", 5, -15.0, -1.0, 0.01),
        ("T2", 6, 0.5, 3.0, 0.25),
    ]:
        m = ere.make_symmetric_model(table, row, a0, a1, lam=lam)
        grid = uvir.make_paired_grid(a0, a1, lam=lam)
        report = uvir.verify_ep_invariance(torus.sample_trajectory(m, grid))
        assert report.passed and report.max_deviation < 1e-12, report.to_json()


def test_inversion_checks_do_not_apply_to_an_untagged_model():
    m = ere.TwoChannelModel(3, ere.Channel3D(1.0), ere.Channel3D(5.0))
    traj = torus.sample_trajectory(m, np.geomspace(0.1, 10, 11))
    for verify in (uvir.verify_phase_map, uvir.verify_density_map, uvir.verify_ep_invariance):
        with pytest.raises(config.NotApplicable, match="family tag"):
            verify(traj)


@pytest.mark.parametrize("row", [2, 3])
def test_ep_invariance_refuses_a_mixed_row_before_inverting(monkeypatch, row):
    """A row whose density map mixes the sectors does not preserve the
    power; it is refused without computing the inversion."""
    m = ere.make_symmetric_model("T2", row, 1.3, -4.2, lam=0.3)
    traj = torus.sample_trajectory(m, np.geomspace(0.1, 10, 11))

    def no_inversion(*args):
        raise AssertionError("the inversion was computed")

    monkeypatch.setattr(uvir, "model_inverted_momentum", no_inversion)
    for image in (None, uvir.InversionImage(traj)):
        with pytest.raises(config.NotApplicable, match="mixes sectors"):
            uvir.verify_ep_invariance(traj, image=image)


@pytest.mark.parametrize("table, row, a0, a1, lam", [("T1", 4, 1.0, 5.0, 1.0),
                                                     ("T2", 2, 1.3, -4.2, 0.3)])
def test_inversion_checks_share_one_image_evaluation(monkeypatch, table, row, a0, a1, lam):
    """One ``InversionImage`` evaluates the image phases once for every check
    that reads it, and each check reports what it reports on its own."""
    m = ere.make_symmetric_model(table, row, a0, a1, lam=lam)
    traj = torus.sample_trajectory(m, np.geomspace(0.1, 10, 11))
    verifiers = [uvir.verify_phase_map, uvir.verify_density_map]
    if row != 2:
        verifiers.append(uvir.verify_ep_invariance)
    alone = [verify(traj).to_json() for verify in verifiers]
    calls = []
    real_phases = ere.phases

    def counted_phases(model, p):
        calls.append(p)
        return real_phases(model, p)

    monkeypatch.setattr(ere, "phases", counted_phases)
    image = uvir.InversionImage(traj)
    assert [verify(traj, image=image).to_json() for verify in verifiers] == alone
    assert len(calls) == 1


def test_verify_phase_map_fails_for_wrong_claim():
    """A model whose ranges break the family correlation is detected."""
    m = ere.TwoChannelModel(
        3,
        ere.Channel3D(1.0, r=-0.5),
        ere.Channel3D(2.0, r=-1.7),
        family=None,
    )
    with pytest.raises(ValueError):
        uvir.verify_phase_map(torus.sample_trajectory(m, np.geomspace(0.1, 10, 11)))


def test_2d_model_phase_map():
    m = ere.make_2d_model(1.0, 3.0)
    grid = uvir.make_paired_grid(1.0, 3.0)
    report = uvir.verify_phase_map(torus.sample_trajectory(m, grid))
    assert report.passed, report.to_json()
    paired = uvir.make_paired_grid(1.0, 3.0, count=21)
    report_d = uvir.verify_density_map(torus.sample_trajectory(m, paired))
    assert report_d.passed
    report_e = uvir.verify_ep_invariance(torus.sample_trajectory(m, grid))
    assert report_e.passed
