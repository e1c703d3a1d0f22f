"""Run configuration round-trip and the command-line contract."""

import json
import math
import os
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

from torus_scatter import causality, cli, ere, geometry, spin, torus
from torus_scatter.config import DEFAULT_TOLERANCES, MAX_GRID_COUNT, ConfigError, PGrid, RunConfig

from conftest import ROW_SIGNS, family_models, refusal, refused
import cli_cases
import oracles


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------


def test_pgrid_validation_and_build():
    grid = PGrid(0.1, 10.0, count=5, spacing="log")
    np.testing.assert_allclose(grid.build(), np.geomspace(0.1, 10.0, 5))
    assert PGrid(1.0, 2.0, count=3, spacing="linear").build().tolist() == [1.0, 1.5, 2.0]
    for bad in (
        dict(min=-1.0, max=2.0),
        dict(min=2.0, max=1.0),
        dict(min=1.0, max=2.0, count=1),
        dict(min=1.0, max=2.0, spacing="cubic"),
        dict(min=0.01, max=math.inf),
        dict(min=math.nan, max=2.0),
        dict(min=1.0, max=2.0, count=2.9),
        dict(min=1.0, max=2.0, count="7"),
        dict(min=1.0, max=2.0, count=True),
        dict(min=True, max=2.0),
        dict(min=1.0, max=2.0, count=MAX_GRID_COUNT + 1),
    ):
        with pytest.raises(ConfigError):
            PGrid(**bad)
    # An integral float is an integer count.
    assert PGrid(1.0, 2.0, count=3.0).count == 3


def _pgrid_cases() -> list:
    """(min, max, count) of the bitwise pins of ``PGrid.build``: random ends
    over 1e+-300 at counts 2, 3 and up to 24,000; neighbouring floats, whose
    log10 ends are equal; and denormal ends, where linspace's step underflows."""
    rng = np.random.default_rng(20261020)
    cases = []
    for _ in range(200):
        lo, hi = np.sort(10.0 ** rng.uniform(-300, 300, 2)).tolist()
        cases += [(lo, hi, count) for count in (2, 3, int(rng.integers(4, 24001)))]
    for _ in range(100):
        lo = float(10.0 ** rng.uniform(-300, 300))
        cases += [(lo, math.nextafter(lo, math.inf), count) for count in (2, 3, 1200)]
    return cases + [(5e-324, 1e-323, 1200), (5e-324, 1.5e-323, 3), (1e-310, 1e308, 600)]


@pytest.mark.parametrize("spacing,reference", [("log", np.geomspace), ("linear", np.linspace)])
def test_pgrid_build_is_the_numpy_grid_bit_for_bit(spacing, reference):
    for lo, hi, count in _pgrid_cases():
        grid = PGrid(lo, hi, count, spacing).build()
        assert grid.dtype == np.float64
        assert grid.tobytes() == reference(lo, hi, count).tobytes(), (lo, hi, count)


def test_runconfig_roundtrip_identity():
    cfg = RunConfig(
        dimension=3,
        a0=-15.0,
        a1=-1.0,
        family={"table": "T2", "row": 5, "lambda": 0.01},
        p_grid=PGrid(0.01, 100.0, count=41, spacing="log"),
        c1=2.0,
        tolerances={"phase_map": 1e-9},
        seed=7,
    )
    assert RunConfig.from_json(cfg.to_json()) == cfg


def test_runconfig_from_required_keys_takes_the_defaults():
    data = {"dimension": 3, "a0": 1.5, "a1": -2.0}
    assert RunConfig.from_json(data) == RunConfig(3, 1.5, -2.0)


def test_runconfig_validation():
    with pytest.raises(ConfigError):
        RunConfig(dimension=4, a0=1.0, a1=1.0)
    with pytest.raises(ConfigError):
        RunConfig(dimension=3, a0=1.0, a1=1.0, c1=0.0)
    with pytest.raises(ConfigError):
        RunConfig(dimension=3, a0=1.0, a1=1.0, family={"row": 4})
    with pytest.raises(ConfigError):
        RunConfig(dimension=3, a0=1.0, a1=1.0, tolerances={"nope": 1e-9})
    with pytest.raises(ConfigError):
        RunConfig(dimension=3, a0=1.0, a1=1.0, tolerances={"phase_map": -1e-9})
    with pytest.raises(ConfigError):
        RunConfig(dimension=3, a0=1.0, a1=1.0, seed=-1)
    for bad in (
        dict(dimension=3.7),
        dict(dimension=True),
        dict(a0=True),
        dict(a1="5"),
        dict(a0=math.nan),
        dict(c1=math.inf),
        dict(seed=True),
        dict(family={"table": "T1", "row": 4.5}),
        dict(family={"table": "T1", "row": 4, "lambda": math.nan}),
        dict(tolerances={"phase_map": True}),
    ):
        with pytest.raises(ConfigError):
            RunConfig(**{"dimension": 3, "a0": 1.0, "a1": 5.0, **bad})
    with pytest.raises(ConfigError):
        RunConfig.from_json({"dimension": 3, "a0": 1.0})
    with pytest.raises(ConfigError):
        RunConfig.from_json({"dimension": 3, "a0": 1.0, "a1": 2.0, "extra": 1})


def test_build_model_matches_family():
    cfg = RunConfig(
        dimension=3, a0=1.0, a1=5.0, family={"table": "T1", "row": 4}
    )
    model = cfg.build_model()
    assert model.family.table == "T1" and model.family.row == 4
    assert model.singlet.r == 0.0
    cfg2d = RunConfig(dimension=2, a0=1.0, a1=3.0)
    assert cfg2d.build_model().dimension == 2
    with pytest.raises(ConfigError):
        RunConfig(dimension=2, a0=1.0, a1=3.0, family={"table": "T1", "row": 1}).build_model()
    # family sign violation surfaces as a config error
    with pytest.raises(ConfigError):
        RunConfig(
            dimension=3, a0=-1.0, a1=5.0, family={"table": "T1", "row": 4}
        ).build_model()


# ---------------------------------------------------------------------------
# CLI helpers
# ---------------------------------------------------------------------------


def _write_config(tmp_path, name="cfg.json", **overrides):
    data = {
        "dimension": 3,
        "a0": 1.0,
        "a1": 5.0,
        "family": {"table": "T1", "row": 4},
        "p_grid": {"min": 0.01, "max": 100.0, "count": 41, "spacing": "log"},
        "seed": 3,
    }
    data.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def test_traj_header_and_determinism(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert cli.main(["traj", "--config", cfg, "--out", str(out1)]) == 0
    assert cli.main(["traj", "--config", cfg, "--out", str(out2)]) == 0
    text1, text2 = out1.read_bytes(), out2.read_bytes()
    assert text1 == text2  # bit-identical
    lines = text1.decode().splitlines()
    assert lines[0] == "p,phi,theta,dphi_dp,dtheta_dp,kappa,V,quadrant"
    assert len(lines) == 42
    first = lines[1].split(",")
    assert float(first[0]) == pytest.approx(0.01)
    # 17-significant-digit round trip: re-parsing and re-formatting is stable
    for field in first[:7]:
        if field:
            assert f"{float(field):.17g}" == field
    assert first[7] in {
        "top-right", "top-left", "bottom-left", "bottom-right", "boundary",
    }


def test_traj_minimal_two_row_grid(tmp_path):
    cfg = _write_config(
        tmp_path, p_grid={"min": 1.0, "max": 1.1, "count": 2, "spacing": "linear"}
    )
    out = tmp_path / "mini.csv"
    assert cli.main(["traj", "--config", cfg, "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 3  # header + 2 rows


def test_traj_phase_values_match_closed_form(tmp_path):
    cfg = _write_config(
        tmp_path, p_grid={"min": 1.0, "max": 2.0, "count": 2, "spacing": "linear"}
    )
    out = tmp_path / "check.csv"
    cli.main(["traj", "--config", cfg, "--out", str(out)])
    row = out.read_text().splitlines()[1].split(",")
    # phi = -2 arctan(a0 p), theta = -2 arctan(a1 p) at r = 0
    assert float(row[1]) == pytest.approx(-2.0 * math.atan(1.0), rel=1e-15)
    assert float(row[2]) == pytest.approx(-2.0 * math.atan(5.0), rel=1e-15)
    assert float(row[3]) == pytest.approx(-2.0 / (1.0 + 1.0), rel=1e-15)
    assert float(row[4]) == pytest.approx(-2.0 * 5.0 / (1.0 + 25.0), rel=1e-15)


def _traj_rows(path) -> list:
    return [line.split(",") for line in path.read_text().splitlines()[1:]]


def test_traj_leaves_v_and_kappa_empty_without_closed_form(tmp_path):
    # T2 row 6 at lambda = 0.1 has no closed-form potential.
    cfg = _write_config(tmp_path, family={"table": "T2", "row": 6, "lambda": 0.1})
    out = tmp_path / "t2r6.csv"
    assert cli.main(["traj", "--config", cfg, "--out", str(out)]) == 0
    rows = _traj_rows(out)
    assert len(rows) == 41
    assert all(r[5] == "" and r[6] == "" for r in rows)
    assert all(r[1] and r[2] for r in rows)
    # The zero-range row on the same grid fills them.
    out = tmp_path / "t1r4.csv"
    assert cli.main(["traj", "--config", _write_config(tmp_path), "--out", str(out)]) == 0
    assert all(r[5] and r[6] for r in _traj_rows(out))


#: The reason of the eom suite on a model with no closed-form potential.
NO_POTENTIAL = (
    "eom suite needs a closed-form potential (geometry.closed_form_potential); "
    "this model has none"
)


def test_2d_equal_lengths_skip_eom_and_export(tmp_path, capsys):
    path = tmp_path / "geodesic.json"
    path.write_text(json.dumps({"dimension": 2, "a0": 1, "a1": 1}))
    assert cli.main(["verify", "--config", str(path), "--suite", "all"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert [s["suite"] for s in report["skipped"]] == ["eom", "wigner", "poles"]
    assert _suites_run(report) == {"symmetry", "ep"}
    # Named on its own, the suite that does not apply is a usage error.
    assert refused(capsys, ["verify", "--config", str(path), "--suite", "eom"]) == NO_POTENTIAL
    out = tmp_path / "geodesic.csv"
    assert cli.main(["traj", "--config", str(path), "--out", str(out)]) == 0
    rows = _traj_rows(out)
    assert len(rows) == 101
    assert all(r[5] == "" and r[6] == "" and r[1] == r[2] for r in rows)


#: One config override per closed-form class.
_CLOSED_FORM_CLASSES = pytest.mark.parametrize(
    "overrides",
    [
        {},
        {"a0": -1.0, "a1": -5.0, "family": {"table": "T3", "row": 6, "lambda": 0.25}},
        {"dimension": 2, "a0": 0.9361, "a1": 5.8859, "family": None},
    ],
    ids=["zero-range", "lam14", "2d"],
)


@_CLOSED_FORM_CLASSES
def test_inaffinity_is_the_traj_kappa_column(tmp_path, overrides):
    """Each closed-form class: ``geometry.lapse_inaffinity`` reproduces the
    printed kappa of every regular row bit for bit, with no vanishing lapse."""
    cfg = _write_config(
        tmp_path, p_grid={"min": 0.01, "max": 100.0, "count": 600, "spacing": "log"}, **overrides
    )
    out = tmp_path / "traj.csv"
    assert cli.main(["traj", "--config", cfg, "--out", str(out)]) == 0
    kappa = [r[5] for r in _traj_rows(out)]
    regular = np.array([k != "" for k in kappa])
    assert regular.sum() > 500
    run = RunConfig.load(cfg)
    traj = torus.sample_trajectory(run.build_model(), run.build_grid()[regular])
    want, vanishing = geometry.lapse_inaffinity(traj)
    assert not vanishing.any()
    assert np.array_equal([float(k) for k in kappa if k], want)


@_CLOSED_FORM_CLASSES
def test_traj_kappa_does_not_depend_on_c1(tmp_path, overrides):
    """kappa = N'/N and the blank rows are the same bytes at every c1; V is c1 = 1's over c1^2."""
    columns = {}
    for c1 in (1.0, 2.5, -3.7, 1e-140):
        grid = {"min": 0.01, "max": 100.0, "count": 401, "spacing": "log"}
        cfg = _write_config(tmp_path, c1=c1, p_grid=grid, **overrides)
        assert cli.main(["traj", "--config", cfg, "--out", str(tmp_path / "traj.csv")]) == 0
        columns[c1] = list(zip(*_traj_rows(tmp_path / "traj.csv")))[5:7]
    for c1, (kappa, v) in columns.items():
        assert kappa == columns[1.0][0], c1
        v, v_1 = (np.array([float(x or "nan") for x in col]) for col in (v, columns[1.0][1]))
        np.testing.assert_allclose(v, v_1 / c1 / c1, rtol=1e-15, atol=0)


def test_verify_all_passes_beside_the_2d_lapse_zero(tmp_path, capsys):
    # 600 log points on [1e-2, 1e2] fall close to p* = 1/sqrt(a0 a1), where
    # the 2D lapse vanishes.
    cfg = _write_config(
        tmp_path,
        dimension=2, a0=0.9361, a1=5.8859, family=None,
        p_grid={"min": 0.01, "max": 100.0, "count": 600, "spacing": "log"},
    )
    assert cli.main(["verify", "--config", cfg, "--suite", "all"]) == 0
    checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    assert checks["eom_residual"]["pass"] is True
    assert checks["eom_residual"]["max_deviation"] < 1e-8


def test_verify_report_structure_and_determinism(tmp_path):
    cfg = _write_config(tmp_path)
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert cli.main(["verify", "--config", cfg, "--suite", "symmetry", "--out", str(out1)]) == 0
    assert cli.main(["verify", "--config", cfg, "--suite", "symmetry", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    report = json.loads(out1.read_text())
    assert report["suite"] == "symmetry"
    assert report["pass"] is True
    names = {c["name"] for c in report["checks"]}
    assert names == {"phase_map", "density_map"}
    for check in report["checks"]:
        assert set(check) >= {"name", "max_deviation", "tolerance", "pass"}
        assert check["max_deviation"] < check["tolerance"]


def test_verify_all_skips_inapplicable(tmp_path):
    cfg = _write_config(tmp_path)
    out = tmp_path / "all.json"
    assert cli.main(["verify", "--config", cfg, "--suite", "all", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    skipped = {s["suite"] for s in report["skipped"]}
    assert "poles" in skipped  # zero-range family: no causal pole structure
    assert {"symmetry", "ep", "wigner", "eom"} <= {c for c in _suites_run(report)}


#: The suite of each check name.
SUITE_OF = {
    "phase_map": "symmetry",
    "density_map": "symmetry",
    "eom_residual": "eom",
    "tangent_audit": "wigner",
    "quadrant_exit_audit": "wigner",
    "pole_match_singlet": "poles",
    "pole_match_triplet": "poles",
    "pole_lower_half": "poles",
    "ep_invariance": "ep",
}


def _suites_run(report):
    return {SUITE_OF[c["name"]] for c in report["checks"]}


def _family_config(model) -> dict:
    """The config of a ``family_models`` model; a 2D model's tag is implicit."""
    tag = model.family
    return {
        "dimension": model.dimension, "a0": model.singlet.length, "a1": model.triplet.length,
        "family": {"table": tag.table, "row": tag.row, "lambda": tag.lam}
        if model.dimension == 3 else None,
    }


#: Every family row, 2D with distinct and equal lengths, and untagged 3D
#: zero-range models (a free singlet among them).
APPLICABILITY_CONFIGS = [_family_config(m) for m in family_models(draws=1)] + [
    {"dimension": 2, "a0": 2.0, "a1": 2.0, "family": None},
    {"dimension": 3, "a0": 1.0, "a1": 5.0, "family": None},
    {"dimension": 3, "a0": -1.0, "a1": 5.0, "family": None},
    {"dimension": 3, "a0": 0.0, "a1": 5.0, "family": None},
]


@pytest.mark.parametrize("data", APPLICABILITY_CONFIGS, ids=lambda d: json.dumps(d))
def test_a_suite_alone_is_refused_iff_all_skips_it(tmp_path, capsys, data):
    """For each suite, ``--suite NAME`` exits 2 with message E exactly when
    ``all`` lists NAME as skipped with reason E; otherwise it reports the
    checks that ``all`` reports for NAME."""
    cfg = _write_config(tmp_path, p_grid={"min": 0.01, "max": 100.0, "count": 41}, **data)
    rc_all = cli.main(["verify", "--config", cfg, "--suite", "all"])
    whole = json.loads(capsys.readouterr().out)
    assert rc_all == (0 if whole["pass"] else 1)
    skipped = {s["suite"]: s["reason"] for s in whole["skipped"]}
    for suite in cli.SUITES[:-1]:
        argv = ["verify", "--config", cfg, "--suite", suite]
        if suite in skipped:
            assert refused(capsys, argv) == skipped[suite]
            continue
        rc = cli.main(argv)
        report = json.loads(capsys.readouterr().out)
        assert rc == (0 if report["pass"] else 1)
        assert report["checks"] == [c for c in whole["checks"] if SUITE_OF[c["name"]] == suite]
        assert report["checks"]


_BASE = ("phase_map", "density_map")
_WIGNER = ("tangent_audit", "quadrant_exit_audit")
_POLES = ("pole_match_singlet", "pole_match_triplet", "pole_lower_half")

#: The config classes of the benchmark's verify-sweep: (config, the pass flag
#: of every check of ``verify --suite all``, the suites it skips).
SWEEP_CLASSES = {
    **{
        f"T1-{row}": (
            {"a0": s0 * 1.3, "a1": s1 * 4.2, "family": {"table": "T1", "row": row}},
            dict.fromkeys(_BASE + ("eom_residual",) + _WIGNER + ("ep_invariance",), True),
            ["poles"],
        )
        for row, (s0, s1) in ROW_SIGNS["T1"].items()
    },
    "T3-6": (
        {"a0": -1.3, "a1": -4.2, "family": {"table": "T3", "row": 6, "lambda": 0.25}},
        dict.fromkeys(_BASE + ("eom_residual",) + _WIGNER + _POLES + ("ep_invariance",), True),
        [],
    ),
    "T2-2": (
        {"a0": 1.3, "a1": -4.2, "family": {"table": "T2", "row": 2, "lambda": 0.3}},
        dict.fromkeys(_BASE + _WIGNER, True),
        ["eom", "poles", "ep"],
    ),
    "T2-3": (
        {"a0": -1.3, "a1": 4.2, "family": {"table": "T2", "row": 3, "lambda": 0.3}},
        dict.fromkeys(_BASE + _WIGNER, True),
        ["eom", "poles", "ep"],
    ),
    "T2-6-acausal": (
        {"a0": 1.3, "a1": 4.2, "family": {"table": "T2", "row": 6, "lambda": 0.1}},
        {**dict.fromkeys(_BASE + ("ep_invariance",), True), **dict.fromkeys(_WIGNER, False)},
        ["eom", "poles"],
    ),
}


@pytest.mark.parametrize("name", SWEEP_CLASSES)
def test_verify_sweep_classes_report_their_check_sets(tmp_path, capsys, name):
    """``verify --suite all`` on each verify-sweep class reports exactly these
    checks with these verdicts, and skips exactly these suites."""
    data, checks, skipped = SWEEP_CLASSES[name]
    cfg = _write_config(tmp_path, p_grid={"min": 0.01, "max": 100.0, "count": 400}, **data)
    rc = cli.main(["verify", "--config", cfg, "--suite", "all"])
    report = json.loads(capsys.readouterr().out)
    assert rc == (0 if all(checks.values()) else 1)
    assert {c["name"]: c["pass"] for c in report["checks"]} == checks
    assert [s["suite"] for s in report["skipped"]] == skipped


def test_zero_scattering_length_has_no_potential(tmp_path, capsys):
    """An untagged zero-range model with a free singlet (a0 = 0) has no
    closed-form potential: traj leaves kappa and V empty, and verify skips eom."""
    cfg = _write_config(tmp_path, a0=0.0, a1=5.0, family=None)
    out = tmp_path / "zero.csv"
    assert cli.main(["traj", "--config", cfg, "--out", str(out)]) == 0
    rows = _traj_rows(out)
    assert len(rows) == 41 and all(r[5] == "" and r[6] == "" for r in rows)
    assert cli.main(["ep", "--config", cfg, "--out", str(tmp_path / "ep.csv")]) == 0
    assert cli.main(["verify", "--config", cfg, "--suite", "all"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert _suites_run(report) == {"wigner"}
    assert {s["suite"]: s["reason"] for s in report["skipped"]}["eom"] == NO_POTENTIAL
    assert refused(capsys, ["verify", "--config", cfg, "--suite", "eom"]) == NO_POTENTIAL


#: T3 row 6 at lambda = 1/4 with a = -1e150 on p in [1e-9, 1e-8]: every
#: magnitude is finite (a r p^2 = 5e281), but S'C and SC' overflow to -inf,
#: so the slope inf - inf is NaN on every row.
NAN_SLOPE = {"a0": -1e150, "a1": -1e150, "family": {"table": "T3", "row": 6, "lambda": 0.25},
             "p_grid": {"min": 1e-9, "max": 1e-8, "count": 3, "spacing": "log"}}


def test_traj_refuses_a_slope_that_is_not_finite(tmp_path, capsys):
    """traj and verify exit 2 with one JSON line and no warning; ep, whose
    phases and power are finite, writes them."""
    cfg = _write_config(tmp_path, **NAN_SLOPE)
    assert refused(capsys, ["traj", "--config", cfg]) == (
        "dphi_dp is not finite at p = 1e-09 (got nan); no output is written"
    )
    refused(capsys, ["verify", "--config", cfg, "--suite", "all"])
    assert cli.main(["ep", "--config", cfg]) == 0
    out = capsys.readouterr()
    assert out.err == "" and len(out.out.splitlines()) == 4
    assert all(math.isfinite(float(v)) for line in out.out.splitlines()[1:] for v in line.split(","))


def test_a_column_that_is_not_finite_is_refused(tmp_path, capsys, monkeypatch):
    """A non-finite value at the second grid point of a written column exits
    2 naming the column and the momentum, before any output."""
    power, inaffinity = spin.entanglement_power_closed, geometry.lapse_inaffinity

    def spoiled(values):
        values = np.array(values, dtype=float)
        values[1] = math.inf
        return values

    def spoiled_inaffinity(*args):
        kappa, vanishing = inaffinity(*args)
        return spoiled(kappa), vanishing

    monkeypatch.setattr(spin, "entanglement_power_closed", lambda *a: spoiled(power(*a)))
    monkeypatch.setattr(geometry, "lapse_inaffinity", spoiled_inaffinity)
    cfg = _write_config(tmp_path, p_grid={"min": 1.0, "max": 4.0, "count": 3})
    for command, column in (("ep", "ep"), ("traj", "kappa")):
        assert refused(capsys, [command, "--config", cfg]) == (
            f"{column} is not finite at p = 2.0 (got inf); no output is written"
        )


def test_exit_code_matrix(tmp_path, capsys):
    # 0: passing verification
    cfg_pass = _write_config(tmp_path, name="pass.json")
    assert cli.main(["verify", "--config", cfg_pass, "--suite", "symmetry"]) == 0
    capsys.readouterr()

    # 1: failing verification (positive-range family violates the bounds)
    cfg_fail = _write_config(
        tmp_path,
        name="fail.json",
        a0=1.0,
        a1=5.0,
        family={"table": "T2", "row": 6, "lambda": 0.1},
        p_grid={"min": 0.01, "max": 100.0, "count": 400, "spacing": "log"},
    )
    assert cli.main(["verify", "--config", cfg_fail, "--suite", "wigner"]) == 1
    out = capsys.readouterr()
    report = json.loads(out.out)
    assert report["pass"] is False

    # 2: config errors -> JSON diagnostic on stderr
    missing = tmp_path / "missing.json"
    assert refused(capsys, ["verify", "--config", str(missing), "--suite", "symmetry"])

    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    assert refused(capsys, ["traj", "--config", str(bad_json)])

    # An untagged zero-range model has the zero-range potential: eom applies.
    cfg_nofam = _write_config(tmp_path, name="nofam.json", family=None)
    assert cli.main(["verify", "--config", cfg_nofam, "--suite", "eom"]) == 0
    assert [c["name"] for c in json.loads(capsys.readouterr().out)["checks"]] == ["eom_residual"]

    # 2: a suite named on its own that does not apply (no closed-form potential)
    assert refused(capsys, ["verify", "--config", cfg_fail, "--suite", "eom"]) == NO_POTENTIAL

    # 2: poles with invalid lambda
    refused(capsys, ["poles", "--a", "-1", "--lam", "-1"])

    # 2: unknown tolerance key in config
    cfg_badtol = _write_config(tmp_path, name="badtol.json", tolerances={"zzz": 1e-9})
    refused(capsys, ["verify", "--config", cfg_badtol, "--suite", "symmetry"])


_MINIMAL = json.dumps({"dimension": 3, "a0": 1.0, "a1": 5.0})


@pytest.mark.parametrize(
    "content,message",
    [
        (_MINIMAL.encode("utf-16"), "is not valid UTF-8"),
        (_MINIMAL.replace("}", ', "family": {"table": "T1", "row": 4}}').encode()
         .replace(b"T1", b"T\xff1"), "is not valid UTF-8"),
        (b"\xef\xbb\xbf" + _MINIMAL.encode(), "config file is not valid JSON"),
    ],
    ids=["utf-16", "stray-0xff", "utf-8-bom"],
)
def test_a_config_file_that_is_not_utf8_json_is_refused(tmp_path, capsys, content, message):
    cfg = tmp_path / "encoded.json"
    cfg.write_bytes(content)
    for command in ("traj", "ep", "verify"):
        error = refused(capsys, [command, "--config", str(cfg)])
        assert message in error
        if "UTF-8" in message:
            assert error.startswith(f"config file {str(cfg)!r} is not valid UTF-8"), error


def test_a_config_path_that_is_a_directory_is_refused_naming_it(tmp_path, capsys):
    for command in ("traj", "ep", "verify"):
        error = refused(capsys, [command, "--config", str(tmp_path)])
        assert error == f"cannot read config file: [Errno 21] Is a directory: {str(tmp_path)!r}"


@pytest.mark.parametrize("newline", [b"\r\n", b"\r"], ids=["crlf", "cr"])
def test_a_json_error_has_the_same_position_whatever_the_newlines(tmp_path, capsys, newline):
    """A config is read with text mode's newlines: a JSON error after CR LF
    or CR line ends is reported at the line, column and character it has
    with LF line ends."""
    lines = [b'{"dimension": 3,', b' "a0": 1.0,', b' "a1": }', b""]
    errors = []
    for ending in (b"\n", newline):
        cfg = tmp_path / "lines.json"
        cfg.write_bytes(ending.join(lines))
        errors.append(refused(capsys, ["ep", "--config", str(cfg)]))
    assert errors[0] == errors[1] == (
        "config file is not valid JSON: Expecting value: line 3 column 8 (char 36)"
    )


@pytest.mark.parametrize(
    "overrides,key",
    [
        ({"p_grid": {"min": 0.01, "max": math.inf, "count": 3}}, "p_grid.max"),
        ({"p_grid": {"min": math.nan, "max": 1.0, "count": 3}}, "p_grid.min"),
        ({"p_grid": {"min": 0.01, "max": 1.0, "count": 2.9}}, "p_grid.count"),
        ({"p_grid": {"min": 0.01, "max": 1.0, "count": "7"}}, "p_grid.count"),
        ({"a0": True}, "a0"),
        ({"a1": math.nan}, "a1"),
        ({"seed": True}, "seed"),
        ({"dimension": 3.7}, "dimension"),
        ({"family": {"table": "T1", "row": 4.5}}, "family.row"),
        ({"family": 5}, "family"),
        ({"family": "T1"}, "family"),
        ({"tolerances": 5}, "tolerances must be a JSON object"),
        ({"tolerances": [["phase_map", 1e-9]]}, "tolerances must be a JSON object"),
        ({"tolerances": None}, "tolerances must be a JSON object"),
    ],
)
def test_invalid_config_values_exit_2_naming_the_key(tmp_path, capsys, overrides, key):
    cfg = _write_config(tmp_path, **overrides)
    for command in ("traj", "ep", "verify"):
        assert key in refused(capsys, [command, "--config", cfg])


#: Configs whose dimensionless magnitudes leave float64 on the grid: 2D
#: a0 p = 1e310 at p = 1e10, and 3D a0 p = 1e350 at p = 1e150.
UNREPRESENTABLE = {
    "2d-a2p": {"dimension": 2, "a0": 1e300, "a1": 2e-300, "family": None,
               "p_grid": {"min": 1e-10, "max": 1e10, "count": 5, "spacing": "log"}},
    "3d-ap": {"dimension": 3, "a0": 1e200, "a1": -3e200, "family": None,
              "p_grid": {"min": 1e150, "max": 1e200, "count": 5, "spacing": "log"}},
}


@pytest.mark.parametrize("name", UNREPRESENTABLE)
def test_unrepresentable_magnitudes_exit_2_before_any_output(tmp_path, capsys, name):
    """Each command refuses the config with one JSON line naming the key,
    instead of printing NaN or limit phases."""
    cfg = _write_config(tmp_path, **UNREPRESENTABLE[name])
    for command in ("traj", "ep", "verify"):
        message = refused(capsys, [command, "--config", cfg])
        assert message.startswith("a0: a") and "must be finite and nonzero over p_grid" in message


#: T1 row 4 at a = 1e150: lambda |a0 a1| p = 1e309 overflows on the whole grid.
ETA_OVERFLOW = {"a0": 1e150, "a1": 1e150,
                "p_grid": {"min": 1e9, "max": 1e10, "count": 5, "spacing": "log"}}


def test_inversion_overflow_exits_2_from_verify_only(tmp_path, capsys):
    """The phases are representable, so traj and ep write them; every verify
    suite that inverts the momentum refuses the config with one JSON line."""
    cfg = _write_config(tmp_path, **ETA_OVERFLOW)
    for command in ("traj", "ep"):
        assert cli.main([command, "--config", cfg]) == 0
        assert capsys.readouterr().err == ""
    for suite in ("symmetry", "ep", "all"):
        assert refused(capsys, ["verify", "--config", cfg, "--suite", suite]) == (
            "momentum inversion: lambda |a0 a1| p = inf at p = 1000000000.0; "
            "its image 1/(lambda |a0 a1| p) must be finite and nonzero"
        )


def test_magnitude_check_keeps_zero_ranges_and_rejects_underflow(tmp_path, capsys):
    """A zero range is exactly 0, not an underflow; a p that underflows to 0 is refused."""
    zero_range = _write_config(tmp_path, name="zr.json", family=None)
    assert cli.main(["ep", "--config", zero_range]) == 0
    tiny = _write_config(
        tmp_path, name="tiny.json", a0=1.0, a1=1e-200, family=None,
        p_grid={"min": 1e-150, "max": 1.0, "count": 3},
    )
    capsys.readouterr()
    assert refused(capsys, ["ep", "--config", tiny]) == (
        "a1: a p must be finite and nonzero over p_grid [1e-150, 1.0]; got 0.0 at p = 1e-150"
    )
    # a r p^2 = 5e-341 underflows to 0 although a p and r p are nonzero:
    # the range term would vanish from the pair, so the config is refused.
    tiny_range = _write_config(
        tmp_path, name="tiny_range.json", a0=-1.0, a1=-5.0,
        family={"table": "T3", "row": 6, "lambda": 0.25},
        p_grid={"min": 1e-170, "max": 1e-169, "count": 3},
    )
    message = refused(capsys, ["ep", "--config", tiny_range])
    assert "a0: a r p^2 must be finite and nonzero" in message


def _count_evaluations(monkeypatch, size: int) -> Counter:
    """Count, per channel, the ``pair`` calls on ``size`` momenta, and the
    ``geometry.closed_form_potential`` calls."""
    calls = Counter()
    for cls in (ere.Channel3D, ere.Channel2D):

        def pair(self, p, order, _pair=cls.pair):
            if np.size(p) == size:
                calls[self] += 1
            return _pair(self, p, order)

        monkeypatch.setattr(cls, "pair", pair)

    def closed_form_potential(*args, _resolve=geometry.closed_form_potential, **kwargs):
        calls["closed_form_potential"] += 1
        return _resolve(*args, **kwargs)

    monkeypatch.setattr(geometry, "closed_form_potential", closed_form_potential)
    return calls


@pytest.mark.parametrize(
    "overrides",
    [
        {"family": {"table": "T1", "row": 4}},
        {"a0": -1.0, "a1": -5.0, "family": {"table": "T3", "row": 6, "lambda": 0.25}},
        {"family": {"table": "T2", "row": 6, "lambda": 0.1}},
        {"dimension": 2, "a0": 1.0, "a1": 3.0, "family": None},
    ],
    ids=["zero-range", "lam14", "no-closed-form", "2d"],
)
def test_traj_evaluates_each_channel_once(tmp_path, monkeypatch, overrides):
    """One pair evaluation per channel feeds every column and the lapse."""
    grid = {"min": 0.01, "max": 100.0, "count": 601, "spacing": "log"}
    cfg = _write_config(tmp_path, p_grid=grid, **overrides)
    calls = _count_evaluations(monkeypatch, 601)
    assert cli.main(["traj", "--config", cfg, "--out", str(tmp_path / "t.csv")]) == 0
    channels = RunConfig.load(cfg).build_model().channels
    assert calls == Counter({channels[0]: 1, channels[1]: 1, "closed_form_potential": 1})


def test_verify_evaluates_the_grid_once_and_each_image_once(tmp_path, monkeypatch):
    """T3 row 6 at lambda = 1/4 runs every suite: the grid is evaluated once
    per channel, the inversion image once per channel for all three
    inversion checks together, and the closed-form potential is resolved once."""
    grid = {"min": 0.01, "max": 100.0, "count": 601, "spacing": "log"}
    cfg = _write_config(
        tmp_path, a0=-1.0, a1=-5.0, family={"table": "T3", "row": 6, "lambda": 0.25}, p_grid=grid
    )
    calls = _count_evaluations(monkeypatch, 601)
    report = tmp_path / "report.json"
    assert cli.main(["verify", "--suite", "all", "--config", cfg, "--out", str(report)]) == 0
    assert json.loads(report.read_text())["skipped"] == []
    channels = RunConfig.load(cfg).build_model().channels
    assert calls == Counter({channels[0]: 2, channels[1]: 2, "closed_form_potential": 1})


def test_poles_cli_json(tmp_path, capsys):
    assert cli.main(["poles", "--a", "-1", "--lam", "0.25"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["case"] == "double_virtual"
    assert report["poles"] == [{"im": -2.0, "mult": 2, "re": 0.0}]
    assert report["lower_half"] is True

    assert cli.main(["poles", "--a", "-1", "--lam", "0.5"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["case"] == "resonance_pair"
    res = sorted((p["re"], p["im"]) for p in report["poles"])
    assert res == [(-1.0, -1.0), (1.0, -1.0)]

    # r-mode reports the zero-range scope flag
    assert cli.main(["poles", "--a", "2.0", "--r", "0.0"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["case"] == "single_pole"
    assert report["scope"] == "outside causal-model scope"
    assert report["lower_half"] is False


@pytest.mark.parametrize(
    "argv, second",
    [
        (["--a", "nan", "--lam", "0.3"], "lambda"),
        (["--a", "-1", "--lam", "inf"], "lambda"),
        (["--a", "-1", "--r", "nan"], "r"),
        (["--a", "1", "--r", "1e-320"], "r"),
        (["--a", "-1", "--lam", "1e-320"], "lambda"),
        # a = -1e20 (as digits, which argparse takes for a number): p_I = 5e-329 underflows to 0
        (["--a", "-100000000000000000000", "--lam", "1e308"], "lambda"),
    ],
)
def test_poles_cli_rejects_non_finite_inputs_and_poles(capsys, argv, second):
    message = refused(capsys, ["poles", *argv])
    assert f"a = {float(argv[1])!r}" in message and f"{second} = {float(argv[3])!r}" in message


@pytest.mark.parametrize(
    "argv",
    [
        ["--a", "-2.5e-1", "--lam", "0.5"],
        ["--a", "-0.25", "--r", "-1e-3"],
        ["--a", "-.5E+3", "--r", "-2E-1"],
        ["--a", "-1.", "--lam", "-0.5e0"],
    ],
)
def test_poles_read_negative_numbers_in_exponent_notation(capsys, argv):
    """A negative number after a space is the option's value, whatever its
    notation: the report is the one of the ``--a=`` form."""
    spaced = cli.main(["poles", *argv]), capsys.readouterr()
    joined = cli.main(["poles", f"{argv[0]}={argv[1]}", f"{argv[2]}={argv[3]}"]), capsys.readouterr()
    assert spaced == joined
    code, (out, err) = spaced
    if code == 0:
        assert err == "" and json.loads(out)["poles"]
    else:
        assert refusal(code, out, err) == "lambda must be positive"


def test_poles_refuse_a_spaced_exponent_by_its_physics_not_its_usage(capsys):
    """At a = -1e20, lambda = 1e308 p_I underflows to 0: refused by name, as
    with ``--a=-1e20``, not as an option without its argument."""
    message = refused(capsys, ["poles", "--a", "-1e20", "--lam", "1e308"])
    assert "imaginary part underflows to 0" in message and "a = -1e+20" in message
    # Something that only starts like a number is still an option.
    assert refused(capsys, ["poles", "--a", "-e5", "--lam", "1"]) == (
        "torus-scatter poles: argument --a: expected one argument"
    )


@pytest.mark.parametrize("a, lam", [(-1.0, 1e308), (-1e10, 1e300)])
def test_poles_where_r_overflows_are_reported(capsys, a, lam):
    """r = 2 a lambda overflows, but the pair +/- p_R - i p_I is finite, p_I
    subnormal: ``poles --lam`` gives the 50-digit roots."""
    assert cli.main(["poles", f"--a={a!r}", f"--lam={lam!r}"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["case"] == "resonance_pair" and report["lower_half"] is True
    got = sorted((complex(p["re"], p["im"]) for p in report["poles"]), key=lambda z: z.real)
    for pole, want in zip(got, sorted(oracles.pole_roots(a, lam=lam), key=lambda z: z.real),
                          strict=True):
        assert math.isclose(pole.real, want.real, rel_tol=1e-15), (pole, want)
        assert math.isclose(pole.imag, want.imag, rel_tol=1e-15, abs_tol=1e-323), (pole, want)


def test_ep_command(tmp_path):
    cfg = _write_config(
        tmp_path, p_grid={"min": 0.5, "max": 2.0, "count": 4, "spacing": "log"}
    )
    out = tmp_path / "ep.csv"
    assert cli.main(["ep", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "p,phi,theta,ep"
    assert len(lines) == 5
    for line in lines[1:]:
        p, phi, theta, ep_val = (float(v) for v in line.split(","))
        assert ep_val == pytest.approx(math.sin(theta - phi) ** 2 / 6.0, rel=1e-12)


def test_verify_poles_suite_on_causal_family(tmp_path):
    cfg = _write_config(
        tmp_path,
        name="causal.json",
        a0=-1.0,
        a1=-5.0,
        family={"table": "T3", "row": 6, "lambda": 0.25},
        p_grid={"min": 0.01, "max": 100.0, "count": 200, "spacing": "log"},
    )
    assert cli.main(["verify", "--config", cfg, "--suite", "poles", "--out", "/dev/null"]) == 0


def test_coarse_grid_over_the_ere_poles_runs_every_command(tmp_path, capsys):
    """On 11 log points both phases of T3 row 6 at lambda = 4 jump by more than
    pi between samples; every command still runs on the exact phases."""
    cfg = _write_config(
        tmp_path,
        name="coarse.json",
        a0=-1.0,
        a1=-5.0,
        family={"table": "T3", "row": 6, "lambda": 4.0},
        p_grid={"min": 0.01, "max": 100.0, "count": 11, "spacing": "log"},
    )
    traj_out, ep_out = tmp_path / "coarse.csv", tmp_path / "coarse_ep.csv"
    assert cli.main(["traj", "--config", cfg, "--out", str(traj_out)]) == 0
    assert cli.main(["ep", "--config", cfg, "--out", str(ep_out)]) == 0
    assert cli.main(["verify", "--config", cfg, "--suite", "all"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["pass"] and len(report["checks"]) == 8
    exits = next(c for c in report["checks"] if c["name"] == "quadrant_exit_audit")
    assert exits["crossings"] == 2

    model = ere.make_symmetric_model("T3", 6, -1.0, -5.0, lam=4.0)
    grid = np.geomspace(0.01, 100.0, 11)
    rows = np.array([[float(v) for v in row[:3]] for row in _traj_rows(traj_out)])
    np.testing.assert_array_equal(rows[:, 0], grid)
    np.testing.assert_array_equal(rows[:, 1:].T, ere.phases(model, grid))
    traj = torus.sample_trajectory(model, grid)
    crossings = causality.quadrant_exit_audit(traj).detail["crossings"]
    assert [(c["p"], c["channel"], c["edge"]) for c in crossings] == [
        (pytest.approx(0.1, rel=1e-15), "theta", "top"),
        (pytest.approx(0.5, rel=1e-15), "phi", "right"),
    ]


def test_config_tolerances_can_force_failure(tmp_path, capsys):
    # machine-precision results cannot beat an absurd 1e-20 tolerance
    tight = {"phase_map": 1e-20, "density_map": 1e-20}
    cfg = _write_config(tmp_path, tolerances=tight)
    assert cli.main(["verify", "--config", cfg, "--suite", "symmetry"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert [(c["tolerance"], c["pass"]) for c in report["checks"]] == [(1e-20, False)] * 2
    # The config is the only source of a tolerance: there is no --tol option.
    assert refused(capsys, ["verify", "--config", cfg, "--tol", "1e-20"]) == (
        "torus-scatter: unrecognized arguments: --tol 1e-20"
    )


def test_every_check_passes_iff_its_deviation_is_below_its_tolerance(tmp_path, capsys):
    """Over the family models, every third with every tolerance at 1e-300."""
    verdicts = Counter()
    for k, model in enumerate(family_models()):
        tolerances = dict.fromkeys(DEFAULT_TOLERANCES, 1e-300) if k % 3 == 0 else {}
        cfg = _write_config(tmp_path, **_family_config(model), tolerances=tolerances)
        rc = cli.main(["verify", "--config", cfg, "--suite", "all"])
        report = json.loads(capsys.readouterr().out)
        for check in report["checks"]:
            assert check["pass"] == (check["max_deviation"] < check["tolerance"]), check
            verdicts[check["name"], check["pass"]] += 1
        assert report["pass"] == all(c["pass"] for c in report["checks"])
        assert rc == (0 if report["pass"] else 1)
    # Every check is seen to pass and, but for the fixed-tolerance pole
    # check of the causal family, to fail.
    names = {"phase_map", "density_map", "eom_residual", "tangent_audit", "quadrant_exit_audit",
             "ep_invariance", "pole_match_singlet", "pole_match_triplet", "pole_lower_half"}
    assert {name for name, verdict in verdicts if verdict} == names
    assert {name for name, verdict in verdicts if not verdict} == names - {"pole_lower_half"}


def test_arithmetic_error_exits_2_with_json(capsys, monkeypatch):
    def divide(a, r):
        return a / 0.0

    monkeypatch.setattr(causality, "poles_numeric", divide)
    assert refused(capsys, ["poles", "--a", "1e-300", "--r", "1e-300"]) == "float division by zero"


@pytest.mark.parametrize(
    "a, r, case",
    [
        (1e-300, 1e-300, "resonance_pair"),  # a r = 1e-600 once divided by zero
        (-1e-170, -2e-170, "resonance_pair"),
        (-1.0, 6e-171, "two_virtual"),
        (1e-320, 1.0, "resonance_pair"),  # 2/(a r) once overflowed: +/-1.4e160 + i
        (-1e170, -2e170, "resonance_pair"),  # 1/r^2 once underflowed: a double pole
    ],
)
def test_poles_whose_intermediates_leave_float64_are_reported(capsys, a, r, case):
    assert cli.main(["poles", f"--a={a!r}", f"--r={r!r}"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["case"] == case
    assert [p["mult"] for p in report["poles"]] == [1, 1]


@pytest.mark.parametrize("lam", [0.125, 0.25, 1.0])
@pytest.mark.parametrize("a", [-1e-170, -1.0, -1e170])
def test_poles_r_is_poles_lam_at_r_2_a_lambda(capsys, a, lam):
    """Both flags state the roots (i +/- sqrt(q))/r once: q = 2r/a - 1 is
    4 lambda - 1 exactly at r = 2 a lambda, so the pole sets are the same."""
    reports = []
    for flag, value in (("--lam", lam), ("--r", 2.0 * a * lam)):
        assert cli.main(["poles", f"--a={a!r}", f"{flag}={value!r}"]) == 0
        reports.append(json.loads(capsys.readouterr().out))
    by_lam, by_r = reports
    assert by_r["case"] == by_lam["case"]
    key = lambda p: (p["re"], p["im"])  # noqa: E731
    assert sorted(by_r["poles"], key=key) == sorted(by_lam["poles"], key=key)


@pytest.mark.parametrize("a, lam", [(-1e-300, 1e308), (-1e-300, 1.7976931348623157e308),
                                    (-1e-10, 4.5e307)])
def test_poles_where_4_lambda_overflows_are_reported(capsys, a, lam):
    """4 lambda - 1 overflows, but the poles +/- 2 sqrt(lambda)/|r| + i/r are
    finite: ``poles --lam`` and ``poles --r 2 a lambda`` both give the 50-digit
    roots, at r = 2 a lambda exactly and at the float r, to 1e-15."""
    r = 2.0 * a * lam
    for flag, value, roots in (("--lam", lam, oracles.pole_roots(a, lam=lam)),
                               ("--r", r, oracles.pole_roots(a, r))):
        assert cli.main(["poles", f"--a={a!r}", f"{flag}={value!r}"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["case"] == "resonance_pair" and report["lower_half"] is True
        got = sorted((complex(p["re"], p["im"]) for p in report["poles"]), key=lambda z: z.real)
        for pole, want in zip(got, sorted(roots, key=lambda z: z.real), strict=True):
            assert abs(pole - want) <= 1e-15 * abs(want), (flag, pole, want)


def test_potential_at_huge_lengths_is_the_unit_one(tmp_path, capsys):
    """|a0 a1| and (|a0| + |a1|)^2 overflow at a = (1e300, -1e300), but the
    amplitude is their ratio 1/4, as at a = (1, -1)."""
    assert geometry.potential_3d(1e300, -1e300) == geometry.potential_3d(1.0, -1.0)
    assert geometry.potential_3d(1e300, -1e300).amplitude == 0.25
    cfg = _write_config(tmp_path, name="huge.json", a0=1e300, a1=-1e300, family=None)
    assert cli.main(["traj", "--config", cfg]) == 0
    assert capsys.readouterr().err == ""


def test_library_and_cli_run_without_scipy():
    """scipy is a test dependency only: with every import of it blocked, the
    affine reconstruction and traj, ep and verify --suite all run
    (``tests/without_scipy.py``, with warnings as errors, as CI runs it)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    script = os.path.join(os.path.dirname(__file__), "without_scipy.py")
    run = subprocess.run(
        [sys.executable, "-W", "error", script], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.startswith("ran without scipy: "), run.stdout


@pytest.mark.parametrize(
    "argv,message",
    [
        ([], "torus-scatter: the following arguments are required: command"),
        (["verify"], "torus-scatter verify: the following arguments are required: --config"),
        (["verify", "--config", "cfg.json", "--tol", "1"],
         "torus-scatter: unrecognized arguments: --tol 1"),
        (["poles", "--a", "1"], "torus-scatter poles: one of the arguments --lam --r is required"),
        (["poles", "--a", "x", "--lam", "1"],
         "torus-scatter poles: argument --a: invalid float value: 'x'"),
        (["verify", "--config", "cfg.json", "--suite", "bogus"],
         "torus-scatter verify: argument --suite: invalid choice: 'bogus' (choose from "
         "'symmetry', 'eom', 'wigner', 'poles', 'ep', 'all')"),
    ],
)
def test_usage_errors_exit_2_with_one_json_line(argv, message, capsys):
    assert refused(capsys, argv) == message


def test_help_prints_help_and_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--help"])
    assert exc.value.code == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: torus-scatter verify") and captured.err == ""


def test_the_parser_is_built_once_and_carries_no_state(tmp_path, capsys, monkeypatch):
    """One parser serves every call of main: a command gives the same exit code
    and bytes after any other command, or a usage error, as on a fresh parser."""
    cfg = _write_config(tmp_path)
    commands = [
        ["verify", "--config", cfg, "--suite", "eom"],
        ["verify", "--config", cfg],
        ["verify", "--config", cfg, "--suite", "bogus"],
        ["poles", "--a", "-1", "--lam", "0.3"],
        ["traj", "--config", cfg],
    ]

    def run(argv):
        rc = cli.main(argv)
        captured = capsys.readouterr()
        return rc, captured.out, captured.err

    fresh = []
    for argv in commands:
        cli.build_parser.cache_clear()
        fresh.append(run(argv))
    assert json.loads(fresh[1][1])["suite"] == "all"
    assert [rc for rc, _, _ in fresh] == [0, 0, 2, 0, 0]

    built = []
    init = cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    cli.build_parser.cache_clear()
    shared = [run(argv) for argv in commands + commands[::-1]]
    assert shared == fresh + fresh[::-1]
    assert built.count("torus-scatter") == 1


def test_the_parser_is_not_built_at_import():
    code = "import torus_scatter.cli as c; assert c.build_parser.cache_info().currsize == 0"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


def test_verify_keeps_2d_points_where_the_potential_gradient_vanishes(tmp_path, capsys):
    # phi + theta is pi and 3 pi at the two grid points, where tan u and so
    # the potential's gradient vanish; the trajectory equations hold there and
    # the eom residual keeps both.
    grid = {"min": 0.10933059980159891, "max": 3.0488567147553383, "count": 2}
    cfg = _write_config(tmp_path, dimension=2, a0=1.0, a1=3.0, family=None, p_grid=grid)
    assert cli.main(["verify", "--config", cfg, "--suite", "all"]) == 0
    report = json.loads(capsys.readouterr().out)
    eom = [c for c in report["checks"] if c["name"] == "eom_residual"]
    assert [c["n_points"] for c in eom] == [2] and eom[0]["pass"]


@pytest.mark.parametrize("case", cli_cases.CASES, ids=lambda case: case.name)
def test_cli_case(case, tmp_path):
    """Each case of the contract table, in process; CI runs it in fresh processes."""
    assert cli_cases.problem(case, tmp_path, cli_cases.run_in_process) is None


def test_module_run_keeps_stderr_empty(tmp_path):
    """``python -m torus_scatter.cli`` prints its report and nothing else."""
    code, out, err = cli_cases.run_fresh(["verify", "--config", _write_config(tmp_path)])
    assert (code, err) == (0, "")
    assert json.loads(out)["pass"] is True
