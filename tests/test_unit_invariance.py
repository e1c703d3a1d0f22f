"""Only a*p, r*p and lambda enter the physics, so no decision may depend on the
unit of length: rescaling every length by s and the grid by 1/s must leave
every pass flag, blank row and label where it was.  Also the pole-match check
across the lambda = 1/4 collision and against wrong closed forms."""

import json
import math

import numpy as np
import pytest

from torus_scatter import causality, cli, ere, geometry

from conftest import refused

#: Powers of two, so every a*p and r*p of a rescaled run is bit-identical to
#: the unit run.
SCALES = (2.0**-43, 2.0**-13, 2.0**27)
SCALE_IDS = ("2^-43", "2^-13", "2^27")
#: Units at which |a0 a1| and (|a0| + |a1|)^2 of unit lengths leave float64,
#: and so does dN/dp, a length squared.
EXTREME_SCALES = (2.0**-660, 2.0**660)
EXTREME_IDS = ("2^-660", "2^660")

#: name -> (config without grid, whether the model has a closed-form potential)
MODELS = {
    "T1-4": ({"dimension": 3, "a0": 1.0, "a1": 5.0, "family": {"table": "T1", "row": 4}}, True),
    "T3-6-quarter": (
        {"dimension": 3, "a0": -1.0, "a1": -5.0,
         "family": {"table": "T3", "row": 6, "lambda": 0.25}}, True,
    ),
    "T3-6-0.3": (
        {"dimension": 3, "a0": -1.3, "a1": -4.0,
         "family": {"table": "T3", "row": 6, "lambda": 0.3}}, False,
    ),
    "2D": ({"dimension": 2, "a0": 0.9361, "a1": 5.8859}, True),
    "T2-6-acausal": (
        {"dimension": 3, "a0": 1.0, "a1": 5.0,
         "family": {"table": "T2", "row": 6, "lambda": 0.1}}, False,
    ),
    "T2-6-quarter-mixed": (
        {"dimension": 3, "a0": 1.0, "a1": -3.0,
         "family": {"table": "T2", "row": 6, "lambda": 0.25}}, False,
    ),
}


def _run(tmp_path, model, *argv, s=1.0, grid=(0.01, 10.0, 400, "linear")):
    """Exit code and output text of one command on ``model`` with its lengths
    times ``s`` and its grid times 1/s."""
    lo, hi, count, spacing = grid
    cfg = dict(
        model, a0=model["a0"] * s, a1=model["a1"] * s,
        p_grid={"min": lo / s, "max": hi / s, "count": count, "spacing": spacing},
    )
    path = tmp_path / f"cfg-{s!r}.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / f"out-{s!r}"
    code = cli.main([*argv, "--config", str(path), "--out", str(out)])
    return code, out.read_text()


def _traj_columns(text):
    rows = [line.split(",") for line in text.splitlines()[1:]]
    return [r[5] for r in rows], [r[6] for r in rows], [r[7] for r in rows]


@pytest.mark.parametrize("s", SCALES, ids=SCALE_IDS)
@pytest.mark.parametrize("name", MODELS)
def test_traj_does_not_depend_on_the_unit_of_length(tmp_path, name, s):
    model, closed_form = MODELS[name]
    code, unit = _run(tmp_path, model, "traj")
    code_s, scaled = _run(tmp_path, model, "traj", s=s)
    assert code == code_s == 0
    kappa, v_val, quadrant = _traj_columns(unit)
    kappa_s, v_val_s, quadrant_s = _traj_columns(scaled)
    assert all(kappa) if closed_form else not any(kappa)
    assert v_val_s == v_val and quadrant_s == quadrant
    # kappa = N'/N is a length: it scales with s, exactly for a power of two.
    assert [k == "" for k in kappa_s] == [k == "" for k in kappa]
    assert [float(k) for k in kappa_s if k] == [s * float(k) for k in kappa if k]


@pytest.mark.parametrize("s", SCALES + EXTREME_SCALES, ids=SCALE_IDS + EXTREME_IDS)
def test_potentials_do_not_depend_on_the_unit_of_length(s):
    """Each closed-form potential is a function of length ratios: the same
    bits at every power-of-two unit, however large or small."""
    for build, a0, a1 in (
        (geometry.potential_3d, 1.0, 5.0),
        (geometry.potential_3d, -1.3, 4.0),
        (geometry.potential_lam14, -1.0, -5.0),
        (geometry.potential_2d, 0.9361, 5.8859),
    ):
        assert build(a0 * s, a1 * s) == build(a0, a1)


@pytest.mark.parametrize("s", EXTREME_SCALES, ids=EXTREME_IDS)
def test_a_lapse_outside_float64_is_refused_by_name(tmp_path, capsys, s):
    """At these units traj and the eom suite exit 2 naming the lapse, whose
    derivative is a length squared, with nothing on stdout; ep, which reads
    only the phases, writes the unit run's phases."""
    model = MODELS["T1-4"][0]
    path = tmp_path / "scaled.json"
    path.write_text(json.dumps(dict(
        model, a0=model["a0"] * s, a1=model["a1"] * s,
        p_grid={"min": 0.01 / s, "max": 10.0 / s, "count": 400, "spacing": "linear"},
    )))
    for argv in (["traj"], ["verify", "--suite", "eom"]):
        assert refused(capsys, [*argv, "--config", str(path)]).startswith("lapse: ")
    code, unit = _run(tmp_path, model, "ep")
    code_s, scaled = _run(tmp_path, model, "ep", s=s)
    assert code == code_s == 0
    columns = [line.split(",")[1:] for line in unit.splitlines()]
    assert [line.split(",")[1:] for line in scaled.splitlines()] == columns


@pytest.mark.parametrize(
    "a0, p_min", [(1e110, 1e-111), (1e-110, 1e109)], ids=["1e110", "1e-110"]
)
def test_an_eom_term_outside_float64_is_refused_by_name(tmp_path, capsys, a0, p_min):
    """The residual's terms are lengths cubed: at a of 1e110 N^3 overflows,
    and at 1e-110 every term underflows to 0, where the check would pass
    without measuring anything.  The lapse itself is a normal float at both."""
    path = tmp_path / "eom.json"
    path.write_text(json.dumps({
        "dimension": 3, "a0": a0, "a1": 5 * a0,
        "p_grid": {"min": p_min, "max": 100 * p_min, "count": 201, "spacing": "log"},
    }))
    for suite in ("eom", "all"):
        message = refused(capsys, ["verify", "--suite", suite, "--config", str(path)])
        assert message.startswith("eom_residual: ") and "unit of length" in message


@pytest.mark.parametrize("s", (2.0**-330, 2.0**330), ids=("2^-330", "2^330"))
def test_eom_report_at_lengths_near_1e100_is_the_unit_report(tmp_path, s):
    """Each term scales by s^3 exactly, so the relative residual is the same bits."""
    model = MODELS["T1-4"][0]
    assert _run(tmp_path, model, "verify", "--suite", "eom", s=s) == _run(
        tmp_path, model, "verify", "--suite", "eom"
    )


def test_a_channel_at_the_largest_unit_is_the_unit_channel():
    """Lengths of 1.5 * 2^1023 scale by 2^1023, the largest finite power of
    two, so S and C are those of (1.5, -1.25) at p * 2^1023, bit for bit
    (p >= 2, so p / 2^1023 is a normal float)."""
    p = np.array([2.0, 7.3, 30.1])
    big = ere.Channel3D(math.ldexp(1.5, 1023), math.ldexp(-1.25, 1023))
    (s_big, c_big), = big.pair(np.ldexp(p, -1023), 0)
    (s_unit, c_unit), = ere.Channel3D(1.5, -1.25).pair(p, 0)
    assert s_big.tobytes() == s_unit.tobytes() and c_big.tobytes() == c_unit.tobytes()


def test_t2_ranges_near_the_largest_float_are_refused_by_name(tmp_path, capsys):
    """T2 row 5 at a = (1e308, 1): the range of channel 0 is -1e308, and
    channel 1's a r p^2 underflows on this grid; ep names a1."""
    path = tmp_path / "t2.json"
    path.write_text(json.dumps({
        "dimension": 3, "a0": 1e308, "a1": 1.0,
        "family": {"table": "T2", "row": 5, "lambda": 0.5},
        "p_grid": {"min": 1e-310, "max": 1e-309, "count": 5, "spacing": "log"},
    }))
    assert refused(capsys, ["ep", "--config", str(path)]).startswith("a1: ")


#: Units at which lambda |a0 a1| and a r of unit lengths leave float64.
RANGE_SCALES = (2.0**-560, 2.0**560)
RANGE_IDS = ("2^-560", "2^560")


@pytest.mark.parametrize("s", RANGE_SCALES, ids=RANGE_IDS)
@pytest.mark.parametrize("row", range(1, 7))
def test_t2_phases_do_not_depend_on_the_unit_of_length(tmp_path, row, s):
    """The T2 ranges 2 lambda |a0 a1| / a and the pair's a r p^2 are formed
    from lengths of order one, so ep writes the unit run's phases and power
    bit for bit where those products leave float64."""
    model = {"dimension": 3, "a0": 1.3, "a1": -4.0,
             "family": {"table": "T2", "row": row, "lambda": 0.3}}
    code, unit = _run(tmp_path, model, "ep")
    code_s, scaled = _run(tmp_path, model, "ep", s=s)
    assert code == code_s == 0
    columns = [line.split(",")[1:] for line in unit.splitlines()]
    assert [line.split(",")[1:] for line in scaled.splitlines()] == columns


@pytest.mark.parametrize("a0,a1", [(1e160, 1e-160), (1e170, 1e-170)])
@pytest.mark.parametrize("row", range(1, 5))
def test_t2_phases_of_lengths_far_apart_are_the_given_units(tmp_path, row, a0, a1):
    """a0 a1 = 1 and, in rows 1-4, a r = -/+ 2 lambda: every product fits in
    float64 although the lengths are 2^1000 or more apart, so ep writes the
    phases of the ranges 2 lambda |a0 a1| / a, formed as 2 (lambda |a_src|)
    with a_src the other length, and of S = -a p, C = 1 - a r p^2/2 formed in
    the given unit, bit for bit."""
    lam = 0.3
    model = {"dimension": 3, "a0": a0, "a1": a1,
             "family": {"table": "T2", "row": row, "lambda": lam}}
    code, text = _run(tmp_path, model, "ep", grid=(1e-100, 1e100, 201, "log"))
    assert code == 0
    rows = np.array([[float(x) for x in line.split(",")] for line in text.splitlines()[1:]])
    p, lengths = rows[:, 0], (a0, a1)
    for column, a, (sign, den) in zip((1, 2), lengths, ere._RANGE_ROWS[row]):
        r = math.copysign(2.0 * (lam * abs(lengths[1 - den])), sign * lengths[den])
        want = 2.0 * np.arctan2(-a * p, 1.0 - 0.5 * a * r * p * p)
        assert rows[:, column].tobytes() == want.tobytes()


@pytest.mark.parametrize("s", EXTREME_SCALES, ids=EXTREME_IDS)
@pytest.mark.parametrize("name", ["T3-6-quarter", "2D"])
def test_phase_derivatives_outside_float64_are_refused_by_name(tmp_path, capsys, name, s):
    """At these units a pair's C'' (a length squared: -a r in 3D, 2/(pi p^2)
    in 2D) overflows or underflows to 0: traj and verify exit 2 naming the
    phase derivatives, with nothing on stdout, where the lapse alone would
    not see it; ep, which reads only the phases, writes the unit run's."""
    model = MODELS[name][0]
    path = tmp_path / "scaled.json"
    path.write_text(json.dumps(dict(
        model, a0=model["a0"] * s, a1=model["a1"] * s,
        p_grid={"min": 0.01 / s, "max": 10.0 / s, "count": 400, "spacing": "linear"},
    )))
    for argv in (["traj"], ["verify", "--suite", "eom"], ["verify", "--suite", "all"]):
        assert refused(capsys, [*argv, "--config", str(path)]).startswith("phase derivatives: ")
    code, unit = _run(tmp_path, model, "ep")
    code_s, scaled = _run(tmp_path, model, "ep", s=s)
    assert code == code_s == 0
    columns = [line.split(",")[1:] for line in unit.splitlines()]
    assert [line.split(",")[1:] for line in scaled.splitlines()] == columns


def _verdict(code, text):
    report = json.loads(text)
    checks = [(c["name"], c["pass"]) for c in report["checks"]]
    return code, report["pass"], checks, report["skipped"]


@pytest.mark.parametrize("s", SCALES, ids=SCALE_IDS)
@pytest.mark.parametrize("name", MODELS)
def test_verify_does_not_depend_on_the_unit_of_length(tmp_path, name, s):
    model, _closed_form = MODELS[name]
    unit = _verdict(*_run(tmp_path, model, "verify", "--suite", "all"))
    assert unit == _verdict(*_run(tmp_path, model, "verify", "--suite", "all", s=s))


def _t3_row6(lam, a0=-1.3, a1=-7.0):
    return {"dimension": 3, "a0": a0, "a1": a1,
            "family": {"table": "T3", "row": 6, "lambda": lam}}


@pytest.mark.parametrize(
    "lam",
    [0.25 - 1e-10, 0.25 + 1e-10, math.nextafter(0.25, -1.0), math.nextafter(0.25, 1.0)],
)
def test_verify_passes_across_the_pole_collision(tmp_path, lam):
    """Beside lambda = 1/4 the two roots nearly collide and their positions are
    ill-conditioned; their sum and product are not."""
    code, text = _run(tmp_path, _t3_row6(lam), "verify", "--suite", "all",
                      grid=(0.01, 100.0, 400, "log"))
    assert code == 0, text


@pytest.mark.parametrize("lam", [1e-6, 1e-8, 1e-10])
def test_verify_poles_passes_at_small_lambda(tmp_path, lam):
    code, text = _run(tmp_path, _t3_row6(lam), "verify", "--suite", "poles")
    assert code == 0, text


def _mirrored(closed, a, lam):
    """The right poles, reflected into the upper half plane."""
    ps = closed(a, lam)
    return causality.PoleSet(tuple((p.conjugate(), m) for p, m in ps.poles), ps.classification)


def _collided(closed, a, lam):
    """The lambda = 1/4 double pole at every lambda."""
    return causality.PoleSet(((complex(0.0, -1.0 / (2.0 * abs(a) * lam)), 2),), "double_virtual")


def _other_branch(closed, a, lam):
    """The poles of the r = -2 a lambda channel."""
    return causality.poles_numeric(a, -2.0 * a * lam)


@pytest.mark.parametrize("lam", [0.1, 0.3])
@pytest.mark.parametrize("mutant", [_mirrored, _collided, _other_branch])
def test_pole_match_fails_a_wrong_closed_form(tmp_path, monkeypatch, mutant, lam):
    closed = causality.poles_closed_form
    monkeypatch.setattr(causality, "poles_closed_form", lambda a, lam: mutant(closed, a, lam))
    code, text = _run(tmp_path, _t3_row6(lam, a1=-4.0), "verify", "--suite", "poles")
    assert code == 1
    checks = {c["name"]: c for c in json.loads(text)["checks"]}
    for label in ("singlet", "triplet"):
        check = checks[f"pole_match_{label}"]
        assert check["pass"] is False and check["max_deviation"] > 0.1
