"""Self-test of the benchmark: tiny runs pass, and every check catches a
corrupted output.

    python3 -m pytest bench/selftest -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run as bench  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from workloads import NO_CLOSED_FORM_FILLED, TINY, WORKLOADS  # noqa: E402

SEED = 5
WORKDIR = BENCH / "out" / "selftest"


def outputs(workload: str):
    """(spec, payload) of one tiny op per config class."""
    workdir = WORKDIR / workload
    workdir.mkdir(parents=True, exist_ok=True)
    specs = workloads.make_specs(workload, SEED, workdir, TINY)
    out = []
    for k, spec in enumerate(specs):
        op = workloads.make_op(workload, spec, str(workdir / f"op{k}.out"), TINY)
        out.append((spec, op.collect(op.run())[3]))
    return out


@pytest.fixture(scope="module")
def traj():
    return outputs("traj-export")


@pytest.fixture(scope="module")
def verify():
    return outputs("verify-sweep")


@pytest.fixture(scope="module")
def affine():
    return outputs("affine-reconstruct")


def kinds(problems) -> set:
    return {kind for kind, _ in problems}


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_is_correct(workload, trace):
    res = bench.run(workload, SEED, 0.0, trace, sizes=TINY, setup_runs=1)
    assert res["correct"]
    classes = len(workloads.SPEC_BUILDERS[workload](SEED, TINY))
    assert res["attempted"] % classes == 0
    # Only traj-export's no-closed-form class fails, once per round.
    want_failed = res["attempted"] // classes if workload == "traj-export" else 0
    assert res["failed"] == want_failed
    units = bench.LAYER_UNITS if trace else bench.E2E_UNITS
    assert set(res["metrics"]) == set(units)
    values = {name: m["value"] for name, m in res["metrics"].items()}
    if trace:
        assert values["trace.overhead_ms"] == pytest.approx(
            values["trace.op_ms"] - values["trace.untraced_op_ms"])
    else:
        assert all(v > 0 for v in values.values())


def test_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_probe_scale_is_one_at_reference_speed(workload):
    probe = speed.Probe(workloads.PROBE_PARTS[workload])
    ref = probe.reference_s
    assert probe.scale(ref, ref) == pytest.approx(1.0)
    # A probe twice as slow as the reference halves the reported time.
    assert probe.scale(2 * ref, 2 * ref) == pytest.approx(0.5)
    assert probe() > 0


def test_tail_has_ten_values_beyond_it():
    values = list(range(100))
    assert bench.tail(values) == 89
    assert bench.tail(values[:15]) == 7  # too few values: the median


# -- traj-export ---------------------------------------------------------------


def corrupt_csv(data: bytes, row: int, column: int, fn) -> bytes:
    lines = data.decode().split("\n")
    fields = lines[row + 1].split(",")
    fields[column] = fn(fields[column])
    lines[row + 1] = ",".join(fields)
    return "\n".join(lines).encode()


def test_traj_outputs_pass_except_no_closed_form(traj):
    for spec, (rc, data) in traj:
        problems = checks.check_traj(spec, rc, data, SEED)
        if spec.known_fault:
            assert kinds(problems) == {NO_CLOSED_FORM_FILLED}
        else:
            assert problems == []


@pytest.mark.parametrize("column, fn, kind", [
    (1, lambda s: repr(float(s) + 1e-9), "phase"),
    (3, lambda s: repr(float(s) * (1 + 1e-7)), "tangent"),
    (6, lambda s: repr(float(s) * (1 + 1e-6)), "potential"),
    (6, lambda s: "", "fields"),
    (7, lambda s: "top-left" if s != "top-left" else "top-right", "quadrant"),
])
def test_traj_check_catches_corruption(traj, column, fn, kind):
    spec, (rc, data) = traj[0]
    bad = corrupt_csv(data, spec.count // 3, column, fn)
    assert kind in kinds(checks.check_traj(spec, rc, bad, SEED))


def test_traj_check_catches_kappa_and_jump(traj):
    spec, (rc, data) = traj[1]
    row = checks._subsample(spec.count, SEED)[0]
    bad = corrupt_csv(data, row, 5, lambda s: repr(float(s) * (1 + 1e-5)))
    assert "kappa" in kinds(checks.check_traj(spec, rc, bad, SEED))
    bad = corrupt_csv(data, spec.count // 2, 1, lambda s: repr(float(s) + 2 * np.pi))
    assert "continuity" in kinds(checks.check_traj(spec, rc, bad, SEED))


def test_traj_check_catches_filled_v_without_closed_form(traj):
    spec, (rc, data) = traj[0]
    no_form = dataclasses.replace(spec, table="T2", row=6, lam=0.1, a0=1.0, a1=5.0)
    assert no_form.closed_form is None
    assert NO_CLOSED_FORM_FILLED in kinds(checks.check_traj(no_form, rc, data, SEED))


def test_traj_check_catches_missing_row_and_exit(traj):
    spec, (rc, data) = traj[0]
    lines = data.decode().split("\n")
    short = "\n".join(lines[:-2] + [""]).encode()
    assert kinds(checks.check_traj(spec, rc, short, SEED)) == {"format"}
    assert kinds(checks.check_traj(spec, 2, data, SEED)) == {"exit"}


# -- verify-sweep ----------------------------------------------------------------


def test_verify_outputs_match_the_physics(verify):
    for spec, (rc, data) in verify:
        assert checks.check_verify(spec, rc, data, SEED) == []


def edit_report(data: bytes, fn) -> bytes:
    report = json.loads(data)
    fn(report)
    return json.dumps(report).encode()


def test_verify_check_catches_corruption(verify):
    spec, (rc, data) = verify[0]
    assert "exit" in kinds(checks.check_verify(spec, 1, data, SEED))

    def flip(report):
        report["checks"][-1]["pass"] = not report["checks"][-1]["pass"]

    assert "checks" in kinds(checks.check_verify(spec, rc, edit_report(data, flip), SEED))

    def deviate(report):
        next(c for c in report["checks"] if c["name"] == "phase_map")["max_deviation"] = 1e-6

    assert "phase_map" in kinds(checks.check_verify(spec, rc, edit_report(data, deviate), SEED))


def test_verify_check_catches_an_acausal_pass(verify):
    spec, (rc, data) = verify[-1]
    assert spec.expect["exit"] == 1

    def passing(report):
        for c in report["checks"]:
            c["pass"] = True
        report["pass"] = True

    assert {"exit", "checks"} <= kinds(checks.check_verify(spec, 0, edit_report(data, passing), SEED))


# -- affine-reconstruct ----------------------------------------------------------


def test_affine_outputs_pass(affine):
    for spec, result in affine:
        assert checks.check_affine(spec, result, TINY["affine_samples"]) == []


def with_curve(result, **arrays):
    return {**result, "curve": dataclasses.replace(result["curve"], **arrays)}


def test_affine_check_catches_corruption(affine):
    spec, result = affine[0]
    c = result["curve"]
    n = TINY["affine_samples"]
    cut = with_curve(result, tau=c.tau[:-5], phi=c.phi[:-5], theta=c.theta[:-5],
                     dphi=c.dphi[:-5], dtheta=c.dtheta[:-5])
    assert "truncated" in kinds(checks.check_affine(spec, cut, n))
    longer = {**result, "span": result["span"] * (1 + 1e-6)}
    assert "span" in kinds(checks.check_affine(spec, with_curve(longer, tau=c.tau * (1 + 1e-6)), n))
    shifted = c.phi.copy()
    shifted[n // 2] += 1e-4
    assert "hausdorff" in kinds(checks.check_affine(spec, with_curve(result, phi=shifted), n))
    faster = c.dphi * (1 + np.linspace(0, 1e-6, n))
    assert "drift" in kinds(checks.check_affine(spec, with_curve(result, dphi=faster), n))


# -- the command ------------------------------------------------------------------


def test_fails_without_the_program():
    """With only BENCHMARK.json and bench/ present, it exits non-zero and prints no result."""
    lone = WORKDIR / "lone"
    shutil.rmtree(lone, ignore_errors=True)
    shutil.copytree(BENCH, lone / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", lone)
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "traj-export",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=lone, capture_output=True, text=True, timeout=180)
    shutil.rmtree(lone)
    assert out.returncode != 0
    assert out.stdout == ""
