"""Run configuration round-trip and the command-line contract."""

import json
import math
import os
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

from torus_scatter import causality, cli, ere, geometry, torus
from torus_scatter.config import MAX_GRID_COUNT, ConfigError, PGrid, RunConfig


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


def test_2d_equal_lengths_skip_eom_and_export(tmp_path, capsys):
    path = tmp_path / "geodesic.json"
    path.write_text(json.dumps({"dimension": 2, "a0": 1, "a1": 1}))
    assert cli.main(["verify", "--config", str(path), "--suite", "all"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert [s["suite"] for s in report["skipped"]] == ["eom", "wigner", "poles"]
    assert _suites_run(report) == {"symmetry", "ep"}
    # Named on its own, the suite that does not apply is a usage error.
    assert cli.main(["verify", "--config", str(path), "--suite", "eom"]) == 2
    assert "geodesic" in json.loads(capsys.readouterr().err)["error"]
    out = tmp_path / "geodesic.csv"
    assert cli.main(["traj", "--config", str(path), "--out", str(out)]) == 0
    rows = _traj_rows(out)
    assert len(rows) == 101
    assert all(r[5] == "" and r[6] == "" and r[1] == r[2] for r in rows)


@pytest.mark.parametrize(
    "overrides",
    [
        {},
        {"a0": -1.0, "a1": -5.0, "family": {"table": "T3", "row": 6, "lambda": 0.25}},
        {"dimension": 2, "a0": 0.9361, "a1": 5.8859, "family": None},
    ],
    ids=["zero-range", "lam14", "2d"],
)
def test_inaffinity_is_the_traj_kappa_column(tmp_path, overrides):
    """Each closed-form class: ``geometry.inaffinity`` reproduces the printed
    kappa of every regular row bit for bit."""
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
    assert np.array_equal([float(k) for k in kappa if k], geometry.inaffinity(traj))


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


def _suites_run(report):
    mapping = {
        "phase_map": "symmetry",
        "density_map": "symmetry",
        "eom_residual": "eom",
        "overdetermination_2d": "eom",
        "tangent_audit": "wigner",
        "quadrant_exit_audit": "wigner",
        "pole_match_singlet": "poles",
        "pole_match_triplet": "poles",
        "pole_lower_half": "poles",
        "ep_invariance": "ep",
    }
    return {mapping[c["name"]] for c in report["checks"]}


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
    assert cli.main(["verify", "--config", str(missing), "--suite", "symmetry"]) == 2
    err = capsys.readouterr().err
    assert json.loads(err.strip())["error"]

    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    assert cli.main(["traj", "--config", str(bad_json)]) == 2
    assert json.loads(capsys.readouterr().err.strip())["error"]

    cfg_nofam = _write_config(tmp_path, name="nofam.json", family=None)
    assert cli.main(["verify", "--config", cfg_nofam, "--suite", "eom"]) == 2
    capsys.readouterr()

    # 2: poles with invalid lambda
    assert cli.main(["poles", "--a", "-1", "--lam", "-1"]) == 2
    capsys.readouterr()

    # 2: unknown tolerance key in config
    cfg_badtol = _write_config(tmp_path, name="badtol.json", tolerances={"zzz": 1e-9})
    assert cli.main(["verify", "--config", cfg_badtol, "--suite", "symmetry"]) == 2
    capsys.readouterr()


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
    ],
)
def test_invalid_config_values_exit_2_naming_the_key(tmp_path, capsys, overrides, key):
    cfg = _write_config(tmp_path, **overrides)
    for command in ("traj", "ep", "verify"):
        assert cli.main([command, "--config", cfg]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert key in json.loads(out.err)["error"]


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
        assert cli.main([command, "--config", cfg]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        [line] = out.err.splitlines()
        message = json.loads(line)["error"]
        assert message.startswith("a0: a") and "must be finite and nonzero over p_grid" in message


def test_magnitude_check_keeps_zero_ranges_and_rejects_underflow(tmp_path, capsys):
    """A zero range is exactly 0, not an underflow; a p that underflows to 0 is refused."""
    zero_range = _write_config(tmp_path, name="zr.json", family=None)
    assert cli.main(["ep", "--config", zero_range]) == 0
    tiny = _write_config(
        tmp_path, name="tiny.json", a0=1.0, a1=1e-200, family=None,
        p_grid={"min": 1e-150, "max": 1.0, "count": 3},
    )
    capsys.readouterr()
    assert cli.main(["ep", "--config", tiny]) == 2
    message = json.loads(capsys.readouterr().err)["error"]
    assert message == (
        "a1: a p must be finite and nonzero over p_grid [1e-150, 1.0]; got 0.0 at p = 1e-150"
    )


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
    per channel, the inversion image once per channel in each of the three
    inversion checks, and the closed-form potential is resolved once."""
    grid = {"min": 0.01, "max": 100.0, "count": 601, "spacing": "log"}
    cfg = _write_config(
        tmp_path, a0=-1.0, a1=-5.0, family={"table": "T3", "row": 6, "lambda": 0.25}, p_grid=grid
    )
    calls = _count_evaluations(monkeypatch, 601)
    report = tmp_path / "report.json"
    assert cli.main(["verify", "--suite", "all", "--config", cfg, "--out", str(report)]) == 0
    assert json.loads(report.read_text())["skipped"] == []
    channels = RunConfig.load(cfg).build_model().channels
    assert calls == Counter({channels[0]: 4, channels[1]: 4, "closed_form_potential": 1})


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
        (["--a", "1e-320", "--r", "1"], "r"),
        (["--a", "-1", "--lam", "1e-320"], "lambda"),
    ],
)
def test_poles_cli_rejects_non_finite_inputs_and_poles(capsys, argv, second):
    assert cli.main(["poles", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    message = json.loads(captured.err)["error"]
    assert f"a = {float(argv[1])!r}" in message and f"{second} = {float(argv[3])!r}" in message


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
    crossings = causality.quadrant_exit_audit(torus.sample_trajectory(model, grid)).crossings
    assert [(c["p"], c["channel"], c["edge"]) for c in crossings] == [
        (pytest.approx(0.1, rel=1e-15), "theta", "top"),
        (pytest.approx(0.5, rel=1e-15), "phi", "right"),
    ]


def test_verify_tol_override_can_force_failure(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    # machine-precision results cannot beat an absurd 1e-20 tolerance
    assert cli.main(["verify", "--config", cfg, "--suite", "symmetry", "--tol", "1e-20"]) == 1
    capsys.readouterr()


def test_arithmetic_error_exits_2_with_json(tmp_path, capsys):
    cfg = _write_config(tmp_path, name="huge.json", a0=1e300, a1=-1e300, family=None)
    assert cli.main(["traj", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert json.loads(err.strip())["error"]


def test_overflowing_potential_names_the_lengths(tmp_path, capsys):
    cfg = _write_config(tmp_path, name="huge.json", a0=1e300, a1=-1e300, family=None)
    assert cli.main(["traj", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    message = json.loads(captured.err.strip())["error"]
    assert "a0 = 1e+300" in message and "a1 = -1e+300" in message and "c1" in message


def test_cli_import_does_not_load_scipy():
    """traj and verify never integrate, so importing the CLI leaves scipy out."""
    code = (
        "import sys, torus_scatter.cli; "
        "assert not any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


def test_verify_with_no_grid_point_left_exits_2(tmp_path, capsys):
    # phi + theta is pi and 3 pi at the two grid points, so the 2D
    # overdetermination check excludes both; no NaN may reach the report.
    grid = {"min": 0.10933059980159891, "max": 3.0488567147553383, "count": 2}
    cfg = _write_config(tmp_path, dimension=2, a0=1.0, a1=3.0, family=None, p_grid=grid)
    assert cli.main(["verify", "--config", cfg, "--suite", "all"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    message = json.loads(captured.err)["error"]
    assert message.startswith("overdetermination_2d: all 2 grid points excluded")


def test_module_run_keeps_stderr_empty(tmp_path):
    """``python -m torus_scatter.cli`` prints its report and nothing else."""
    cfg = _write_config(tmp_path)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    run = subprocess.run(
        [sys.executable, "-W", "error", "-m", "torus_scatter.cli", "verify", "--config", cfg],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert (run.returncode, run.stderr) == (0, "")
    assert json.loads(run.stdout)["pass"] is True
