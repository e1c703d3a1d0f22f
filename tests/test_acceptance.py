"""End-to-end acceptance criteria.

Each test exercises one acceptance criterion at its stated tolerance and
runtime cap, and records an ``ACCEPTANCE n PASS/FAIL`` line that the
conftest hook echoes in the terminal summary.
"""

import json
import math
import time

import numpy as np
import pytest

from torus_scatter import causality, cli, ere, geometry, spin, torus, uvir

import oracles
from conftest import record_acceptance

RNG_SEED = 20260819


def _elapsed(t0):
    return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# 1. unitarity & state validity
# ---------------------------------------------------------------------------


def _program_out_states(phi, theta, states) -> np.ndarray:
    """The out-state the program's density map reads, u u^+ + v v^+ +
    exp(i (phi - theta)) u v^+ + h.c. with u = P_s psi and v = P_t psi, at
    every (phase pair, in-state): shape (len(phi), len(states), 4, 4)."""
    u = states @ spin.SINGLET_PROJECTOR.T
    v = states @ spin.TRIPLET_PROJECTOR.T
    uu = np.einsum("ki,kj->kij", u, u.conj())
    vv = np.einsum("ki,kj->kij", v, v.conj())
    uv = np.einsum("ki,kj->kij", u, v.conj())
    cross = np.exp(1j * (phi - theta))[:, None, None, None] * uv
    return uu + vv + cross + cross.conj().swapaxes(-1, -2)


def test_acceptance_1_unitarity_and_state_validity():
    """The oracle S operator is unitary and its out-states are density
    matrices; so are the program's own out-states on ``ere.phases`` of three
    model classes."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(RNG_SEED)
    angles = rng.uniform(-math.pi, math.pi, size=(1000, 2))
    states = spin.haar_product_states(1000, rng)
    worst_unitarity = 0.0
    worst_trace = 0.0
    worst_herm = 0.0
    worst_eig = 0.0
    for (phi, theta), state in zip(angles, states):
        s = oracles.build_s_operator(phi, theta)
        worst_unitarity = max(
            worst_unitarity,
            float(np.linalg.norm(s @ s.conj().T - np.eye(4), ord=2)),
        )
        rho = oracles.out_density_matrix(s, state)
        worst_trace = max(worst_trace, abs(float(np.trace(rho).real) - 1.0))
        worst_herm = max(worst_herm, float(np.max(np.abs(rho - rho.conj().T))))
        worst_eig = max(worst_eig, float(-np.min(np.linalg.eigvalsh(rho))))
    grid = np.geomspace(1e-2, 1e2, 101)
    in_states = spin.haar_product_states(20, rng)
    own = {"trace": 0.0, "herm": 0.0, "eig": 0.0, "purity": 0.0}
    for model in (
        ere.make_symmetric_model("T1", 4, 1.0, 5.0),
        ere.make_symmetric_model("T3", 6, -1.0, -5.0, lam=0.25),
        ere.make_2d_model(1.0, 3.0),
    ):
        rho = _program_out_states(*ere.phases(model, grid), in_states)
        trace = np.trace(rho, axis1=-2, axis2=-1)
        purity = np.einsum("...ij,...ji->...", rho, rho)
        own["trace"] = max(own["trace"], float(np.max(np.abs(trace - 1.0))))
        own["herm"] = max(own["herm"], float(np.max(np.abs(rho - rho.conj().swapaxes(-1, -2)))))
        own["eig"] = max(own["eig"], float(-np.min(np.linalg.eigvalsh(rho))))
        own["purity"] = max(own["purity"], float(np.max(np.abs(purity - 1.0))))
    runtime = _elapsed(t0)
    ok = (
        worst_unitarity < 1e-12
        and worst_trace < 1e-10
        and worst_herm < 1e-10
        and worst_eig < 1e-10
        and own["trace"] < 1e-10
        and own["herm"] < 1e-10
        and own["eig"] < 1e-12
        and own["purity"] < 1e-10
        and runtime < 1.0
    )
    detail = (
        f"1000 random triples: ||S S^+ - 1|| max {worst_unitarity:.2e} (<1e-12), "
        f"trace dev {worst_trace:.2e}, hermiticity {worst_herm:.2e}, "
        f"negativity {worst_eig:.2e} (<1e-10); program out-states on 3 models x "
        f"101 momenta x 20 in-states: trace dev {own['trace']:.2e}, hermiticity "
        f"{own['herm']:.2e} (<1e-10), negativity {own['eig']:.2e} (<1e-12), purity dev "
        f"{own['purity']:.2e} (<1e-10); runtime {runtime:.2f}s (<1s)"
    )
    record_acceptance(1, ok, detail)
    assert ok, detail


# ---------------------------------------------------------------------------
# 2. entanglement power
# ---------------------------------------------------------------------------


def test_acceptance_2_entanglement_power_mc():
    t0 = time.perf_counter()
    rng = np.random.default_rng(RNG_SEED + 1)
    worst_sigma = 0.0
    for k in range(20):
        phi, theta = rng.uniform(-math.pi, math.pi, size=2)
        est, err = oracles.entanglement_power_mc(
            phi, theta, n_samples=100_000, seed=1000 + k
        )
        exact = spin.entanglement_power_closed(phi, theta)
        worst_sigma = max(worst_sigma, abs(est - exact) / err)
    max_dev = abs(spin.entanglement_power_closed(0.3, 0.3 + math.pi / 2) - 1.0 / 6.0)
    runtime = _elapsed(t0)
    ok = worst_sigma < 5.0 and max_dev < 1e-12 and runtime < 30.0
    detail = (
        f"20 angle pairs, 1e5 samples each: worst |MC - closed|/SE {worst_sigma:.2f} "
        f"(<5), max-at-pi/2 dev {max_dev:.2e} (<1e-12), runtime {runtime:.1f}s (<30s)"
    )
    record_acceptance(2, ok, detail)
    assert ok, detail


# ---------------------------------------------------------------------------
# 3. zero-range reflection symmetry (a1/a0 = 5)
# ---------------------------------------------------------------------------


def test_acceptance_3_zero_range_reflection_pair():
    t0 = time.perf_counter()
    model = ere.make_symmetric_model("T1", 4, 1.0, 5.0)
    traj = torus.sample_trajectory(model, oracles.make_paired_grid(1.0, 5.0, count=101))
    phase = uvir.verify_phase_map(traj, tol=1e-10)
    ep = uvir.verify_ep_invariance(traj, tol=1e-12)
    runtime = _elapsed(t0)
    ok = phase.passed and ep.passed and runtime < 1.0
    detail = (
        f"a0=1, a1=5, r=0 on inversion-paired grid: phase-map dev "
        f"{phase.max_deviation:.2e} (<1e-10), EP-invariance dev "
        f"{ep.max_deviation:.2e} (<1e-12), runtime {runtime:.2f}s (<1s)"
    )
    record_acceptance(3, ok, detail)
    assert ok, detail


# ---------------------------------------------------------------------------
# 4. range-corrected swap symmetry, both sign orientations
# ---------------------------------------------------------------------------


def test_acceptance_4_range_corrected_swap_pair():
    t0 = time.perf_counter()
    rng = np.random.default_rng(RNG_SEED + 2)
    states = spin.haar_product_states(5, rng)
    worst_phase = 0.0
    worst_rho = 0.0
    for a0, a1 in [(-15.0, -1.0), (15.0, 1.0)]:
        model = ere.make_symmetric_model("T2", 5, a0, a1, lam=0.01)
        grid = oracles.make_paired_grid(a0, a1, lam=0.01, count=101)
        traj = torus.sample_trajectory(model, grid)
        phase = uvir.verify_phase_map(traj, tol=1e-10)
        dens = uvir.verify_density_map(traj, in_states=states, tol=1e-10)
        worst_phase = max(worst_phase, phase.max_deviation)
        worst_rho = max(worst_rho, dens.max_deviation)
    runtime = _elapsed(t0)
    ok = worst_phase < 1e-10 and worst_rho < 1e-10 and runtime < 2.0
    detail = (
        f"|a0/a1|=15, lambda=0.01, both orientations: swapped-phase dev "
        f"{worst_phase:.2e} (<1e-10), rho(p') vs rho-bar(p) dev {worst_rho:.2e} "
        f"(<1e-10) over 5 product states, runtime {runtime:.2f}s (<2s)"
    )
    record_acceptance(4, ok, detail)
    assert ok, detail


# ---------------------------------------------------------------------------
# 5. closed-form solutions of the trajectory equations
# ---------------------------------------------------------------------------


def test_acceptance_5_exact_solutions():
    t0 = time.perf_counter()
    rng = np.random.default_rng(RNG_SEED + 3)
    grid = np.geomspace(1e-2, 1e2, 1000)

    worst_zero_range = 0.0
    for _ in range(20):
        a0, a1 = rng.uniform(0.1, 10.0, size=2) * rng.choice([-1.0, 1.0], size=2)
        model = ere.TwoChannelModel(3, ere.Channel3D(a0), ere.Channel3D(a1))
        traj = torus.sample_trajectory(model, grid)
        report = geometry.eom_residual(traj, geometry.potential_3d(a0, a1))
        worst_zero_range = max(worst_zero_range, report.max_deviation)

    worst_quarter = 0.0
    shapes = [("T3", 6, -1.0, -1.0), ("T2", 6, 1.0, 1.0), ("T2", 5, 1.0, -1.0),
              ("T2", 5, -1.0, 1.0)]
    for k in range(20):
        table, row, s0, s1 = shapes[k % len(shapes)]
        mag0, mag1 = rng.uniform(0.1, 10.0, size=2)
        a0, a1 = s0 * mag0, s1 * mag1
        model = ere.make_symmetric_model(table, row, a0, a1, lam=0.25)
        assert geometry.closed_form(model).potential() == geometry.potential_lam14(a0, a1)
        traj = torus.sample_trajectory(model, grid)
        report = geometry.eom_residual(traj, geometry.potential_lam14(a0, a1))
        worst_quarter = max(worst_quarter, report.max_deviation)

    worst_2d = 0.0
    for _ in range(5):
        a2 = rng.uniform(0.2, 5.0, size=2)
        if abs(a2[0] - a2[1]) < 1e-3:
            a2[1] *= 2.0
        model = ere.make_2d_model(a2[0], a2[1])
        traj = torus.sample_trajectory(model, grid)
        report = geometry.eom_residual(traj, geometry.potential_2d(a2[0], a2[1]))
        worst_2d = max(worst_2d, report.max_deviation)

    runtime = _elapsed(t0)
    ok = (
        worst_zero_range < 1e-8
        and worst_quarter < 1e-8
        and worst_2d < 1e-8
        and runtime < 10.0
    )
    detail = (
        f"trajectory-equation residuals on 1e3-pt grids: zero-range max "
        f"{worst_zero_range:.2e} (<1e-8, 20 models), lambda=1/4 max "
        f"{worst_quarter:.2e} (<1e-8, 20 models), 2D max "
        f"{worst_2d:.2e} (<1e-8, 5 models), runtime {runtime:.1f}s (<10s)"
    )
    record_acceptance(5, ok, detail)
    assert ok, detail


# ---------------------------------------------------------------------------
# 6. affine integration
# ---------------------------------------------------------------------------


def test_acceptance_6_affine_integration():
    t0 = time.perf_counter()
    a0, a1 = 1.0, 5.0
    model = ere.TwoChannelModel(3, ere.Channel3D(a0), ere.Channel3D(a1))
    pot = geometry.potential_3d(a0, a1)
    ref_grid = np.geomspace(0.2, 20.0, 6000)
    phi_ref, theta_ref = ere.phases(model, ref_grid)
    dphi, dtheta = ere.tangents(model, 0.2)
    n0, _ = geometry.construction_lapse(model, pot, 0.2)
    span = geometry.affine_parameter_span(model, pot, 0.2, 20.0)
    init = (phi_ref[0], theta_ref[0], float(dphi / n0), float(dtheta / n0))
    curve = geometry.integrate_affine(pot, init, span, n_samples=1500)
    ref_points = np.column_stack([phi_ref, theta_ref])
    d_fwd = geometry.point_to_polyline_distance(curve.points, ref_points)
    d_bwd = geometry.point_to_polyline_distance(ref_points, curve.points)
    hausdorff = max(float(d_fwd.max()), float(d_bwd.max()))
    e0 = geometry.first_integral(pot, *init)
    drift = float(
        np.max(
            np.abs(
                geometry.first_integral(
                    pot, curve.phi, curve.theta, curve.dphi, curve.dtheta
                )
                - e0
            )
        )
    )
    runtime = _elapsed(t0)
    oracle = max(
        float(oracles.polyline_distance_all_pairs(curve.points, ref_points).max()),
        float(oracles.polyline_distance_all_pairs(ref_points, curve.points).max()),
    )
    ok = (
        not curve.truncated
        and hausdorff == oracle
        and hausdorff < 1e-5
        and drift < 1e-8
        and runtime < 5.0
    )
    detail = (
        f"integrated vs closed-form curve: Hausdorff {hausdorff:.2e} (<1e-5, "
        f"all-pairs {oracle:.2e}), "
        f"first-integral drift {drift:.2e} (<1e-8), runtime {runtime:.1f}s (<5s)"
    )
    record_acceptance(6, ok, detail)
    assert ok, detail


# ---------------------------------------------------------------------------
# 7. causality audits
# ---------------------------------------------------------------------------


def test_acceptance_7_causality_audits():
    t0 = time.perf_counter()
    grid = np.geomspace(1e-2, 1e2, 1500)

    zero_range = ere.TwoChannelModel(3, ere.Channel3D(1.0), ere.Channel3D(-5.0))
    zr_report = causality.tangent_vector_audit(torus.sample_trajectory(zero_range, grid))

    causal = ere.make_symmetric_model("T3", 6, -1.0, -5.0, lam=0.1)
    causal_traj = torus.sample_trajectory(causal, grid)
    causal_tangent = causality.tangent_vector_audit(causal_traj)
    causal_exits = causality.quadrant_exit_audit(causal_traj)

    acausal = ere.make_symmetric_model("T2", 6, 1.0, 5.0, lam=0.1)
    acausal_report = causality.tangent_vector_audit(torus.sample_trajectory(acausal, grid))

    exits_ok = causal_exits.passed and all(
        c["edge"] in ("top", "right") for c in causal_exits.detail["crossings"]
    )
    runtime = _elapsed(t0)
    ok = (
        zr_report.passed
        and causal_tangent.passed
        and len(acausal_report.detail["violations"]) >= 1
        and exits_ok
        and runtime < 2.0
    )
    detail = (
        f"tangent audit: r=0 violations {len(zr_report.detail['violations'])} (=0), causal "
        f"family violations {len(causal_tangent.detail['violations'])} (=0), positive-range "
        f"violations {len(acausal_report.detail['violations'])} (>=1); causal exits "
        f"{sorted(set(c['edge'] for c in causal_exits.detail['crossings']))} (upper/right only), "
        f"runtime {runtime:.2f}s (<2s)"
    )
    record_acceptance(7, ok, detail)
    assert ok, detail


# ---------------------------------------------------------------------------
# 8. threshold bounds
# ---------------------------------------------------------------------------


def test_acceptance_8_threshold_bounds():
    t0 = time.perf_counter()
    rng = np.random.default_rng(RNG_SEED + 4)
    exact_zero = all(
        causality.threshold_range_bound_3d(0.0, a) == 0.0
        for a in rng.uniform(0.1, 10.0, 10) * rng.choice([-1.0, 1.0], 10)
    )
    ratio = 0.35
    radii = [1e-3, 1e-2, 1e-1, 1.0]
    scaled = [
        causality.effective_area_bound_2d(r, r / (2.0 * ratio)) / (r * r)
        for r in radii
    ]
    spread = max(scaled) - min(scaled)
    quadratic = spread < 1e-12 * max(scaled)
    vanishes = causality.effective_area_bound_2d(0.0, 1.0) == 0.0
    runtime = _elapsed(t0)
    ok = exact_zero and quadratic and vanishes and runtime < 1.0
    detail = (
        f"3D threshold bound exactly 0 at R=0: {exact_zero}; 2D bound vanishes at "
        f"R=0 and scales as R^2 over 3 decades at fixed R/(2a): relative spread "
        f"{spread / max(scaled):.2e}, runtime {runtime:.2f}s"
    )
    record_acceptance(8, ok, detail)
    assert ok, detail


# ---------------------------------------------------------------------------
# 9. pole closed forms
# ---------------------------------------------------------------------------


def test_acceptance_9_pole_closed_forms():
    t0 = time.perf_counter()
    worst = 0.0
    all_lower = True
    double_ok = True
    for lam in (0.125, 0.25, 0.5, 1.0, 10.0):
        for mag in (0.1, 1.0, 10.0):
            a = -mag
            closed = causality.poles_closed_form(a, lam)
            numeric = causality.poles_numeric(a, 2.0 * a * lam)
            c_flat = sorted(
                (p for p, m in closed.poles for _ in range(m)),
                key=lambda z: (z.real, z.imag),
            )
            n_flat = sorted(
                (p for p, m in numeric.poles for _ in range(m)),
                key=lambda z: (z.real, z.imag),
            )
            scale = max(1.0, max(abs(p) for p in c_flat))
            worst = max(worst, max(abs(c - n) for c, n in zip(c_flat, n_flat)) / scale)
            all_lower = all_lower and causality.verify_lower_half(closed)
            if lam == 0.25:
                expected = complex(0.0, -1.0 / (2.0 * mag * lam))
                double_ok = double_ok and closed.poles == ((expected, 2),)

    collision_ok = True
    double_pole = causality.poles_closed_form(-1.0, 0.25).poles[0][0]
    for lam in (0.25 - 1e-6, 0.25 + 1e-6):
        for p, _m in causality.poles_closed_form(-1.0, lam).poles:
            collision_ok = collision_ok and abs(p - double_pole) < 1e-2

    runtime = _elapsed(t0)
    ok = worst < 1e-12 and all_lower and double_ok and collision_ok and runtime < 1.0
    detail = (
        f"closed vs numeric poles over 5 lambdas x 3 magnitudes: max rel dev "
        f"{worst:.2e} (<1e-12), all lower-half {all_lower}, double pole at "
        f"-i/(2|a|lambda) {double_ok}, collision continuity at 1/4 +/- 1e-6 "
        f"{collision_ok}, runtime {runtime:.2f}s (<1s)"
    )
    record_acceptance(9, ok, detail)
    assert ok, detail


# ---------------------------------------------------------------------------
# 10. 2D inversion antisymmetry
# ---------------------------------------------------------------------------


def test_acceptance_10_2d_inversion_antisymmetry():
    t0 = time.perf_counter()
    rng = np.random.default_rng(RNG_SEED + 5)
    worst = 0.0
    for _ in range(10):
        a2_0, a2_1 = rng.uniform(0.2, 5.0, size=2)
        if a2_0 == a2_1:
            a2_1 *= 1.5
        model = ere.make_2d_model(a2_0, a2_1)
        p = rng.uniform(0.05, 20.0, size=7)
        q = 1.0 / (a2_0 * a2_1 * p)
        phi_q = ere.phases(model, q)[0]
        theta_p = ere.phases(model, p)[1]
        dev = np.abs(np.mod(phi_q + theta_p + math.pi, 2 * math.pi) - math.pi)
        worst = max(worst, float(np.max(dev)))
    try:
        geometry.potential_2d(3.0, 3.0)
        rejects_equal = False
    except ValueError:
        rejects_equal = True
    runtime = _elapsed(t0)
    ok = worst < 1e-10 and rejects_equal and runtime < 1.0
    detail = (
        f"phi(1/(a2_0 a2_1 p)) = -theta(p) mod 2pi over 10 random pairs: max dev "
        f"{worst:.2e} (<1e-10); equal-length potential rejected: {rejects_equal}; "
        f"runtime {runtime:.2f}s (<1s)"
    )
    record_acceptance(10, ok, detail)
    assert ok, detail


# ---------------------------------------------------------------------------
# 11. CLI contract
# ---------------------------------------------------------------------------


def test_acceptance_11_cli_contract(tmp_path, capsys):
    t0 = time.perf_counter()
    cfg_data = {
        "dimension": 3,
        "a0": 1.0,
        "a1": 5.0,
        "family": {"table": "T1", "row": 4},
        "p_grid": {"min": 0.01, "max": 100.0, "count": 41, "spacing": "log"},
        "seed": 3,
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(cfg_data))

    csv_a, csv_b = tmp_path / "a.csv", tmp_path / "b.csv"
    rc_a = cli.main(["traj", "--config", str(cfg), "--out", str(csv_a)])
    rc_b = cli.main(["traj", "--config", str(cfg), "--out", str(csv_b)])
    deterministic_csv = csv_a.read_bytes() == csv_b.read_bytes()

    json_a, json_b = tmp_path / "a.json", tmp_path / "b.json"
    rc_v = cli.main(
        ["verify", "--config", str(cfg), "--suite", "symmetry", "--out", str(json_a)]
    )
    cli.main(
        ["verify", "--config", str(cfg), "--suite", "symmetry", "--out", str(json_b)]
    )
    deterministic_json = json_a.read_bytes() == json_b.read_bytes()

    fail_cfg = tmp_path / "fail.json"
    fail_data = dict(cfg_data)
    fail_data["family"] = {"table": "T2", "row": 6, "lambda": 0.1}
    fail_data["p_grid"] = {"min": 0.01, "max": 100.0, "count": 400, "spacing": "log"}
    fail_cfg.write_text(json.dumps(fail_data))
    rc_fail = cli.main(["verify", "--config", str(fail_cfg), "--suite", "wigner"])

    rc_cfg_err = cli.main(["traj", "--config", str(tmp_path / "nope.json")])
    rc_suite_err = cli.main(["verify", "--config", str(cfg), "--suite", "poles"])
    rc_poles_err = cli.main(["poles", "--a", "-1", "--lam", "-1"])
    capsys.readouterr()

    header_ok = (
        csv_a.read_text().splitlines()[0]
        == "p,phi,theta,dphi_dp,dtheta_dp,kappa,V,quadrant"
    )
    runtime = _elapsed(t0)
    exit_codes_ok = (
        rc_a == 0 and rc_b == 0 and rc_v == 0
        and rc_fail == 1
        and rc_cfg_err == 2 and rc_suite_err == 2 and rc_poles_err == 2
    )
    ok = deterministic_csv and deterministic_json and header_ok and exit_codes_ok
    detail = (
        f"CSV bit-identical {deterministic_csv}, JSON bit-identical "
        f"{deterministic_json}, header exact {header_ok}, exit codes "
        f"(0 pass / 1 fail / 2 usage) covered {exit_codes_ok}, "
        f"runtime {runtime:.2f}s"
    )
    record_acceptance(11, ok, detail)
    assert ok, detail
