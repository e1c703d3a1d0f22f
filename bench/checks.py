"""Output checks, computed apart from the program.

Every check returns a list of ``(kind, message)`` problems; an empty list
means the output is correct.  The formulas here are written from the
paper's closed forms, not imported from ``torus_scatter``: phases and
tangents come from ``mpmath`` at 50 digits (tangents by ``mpmath.diff``)
at a seeded subsample, and from NumPy on every row.  The checks run after
the clock stops.
"""

from __future__ import annotations

import json
import math
import random

import mpmath as mp
import numpy as np

from workloads import NO_CLOSED_FORM_FILLED, Spec

TRAJ_HEADER = "p,phi,theta,dphi_dp,dtheta_dp,kappa,V,quadrant"
#: |sin| below this labels a point "boundary" (the CLI's documented rule).
BOUNDARY = 1e-12
SUBSAMPLE = 24


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def _channels(spec: Spec):
    r0, r1 = spec.ranges
    return (spec.a0, r0), (spec.a1, r1)


def phase_np(spec: Spec, p: np.ndarray):
    """(phi, theta) on the continuous branch, in NumPy."""
    out = []
    for a, r in _channels(spec):
        if spec.dimension == 2:
            out.append(np.pi + 2.0 * np.arctan((2.0 / np.pi) * np.log(a * p)))
        else:
            out.append(-2.0 * np.arctan2(a * p, 1.0 - 0.5 * a * r * p * p))
    return out


def tangent_np(spec: Spec, p: np.ndarray):
    """Analytic (phi', theta') in NumPy, derived apart from the program."""
    out = []
    for a, r in _channels(spec):
        if spec.dimension == 2:
            c = (2.0 / np.pi) * np.log(a * p)
            out.append((4.0 / np.pi) / (p * (1.0 + c * c)))
        else:
            # d/dp of -2 atan(x/y) with x = a p, y = 1 - a r p^2 / 2.
            x, y = a * p, 1.0 - 0.5 * a * r * p * p
            out.append(-2.0 * (a * y + a * r * p * x) / (x * x + y * y))
    return out


def phase_mp(spec: Spec, channel: int):
    a, r = _channels(spec)[channel]
    a, r = mp.mpf(a), mp.mpf(r)
    if spec.dimension == 2:
        return lambda p: mp.pi + 2 * mp.atan((2 / mp.pi) * mp.log(a * p))
    return lambda p: -2 * mp.atan2(a * p, 1 - a * r * p * p / 2)


def _epsilon(spec: Spec) -> int:
    if spec.dimension == 2:
        return 1
    return -1 if spec.a0 * spec.a1 > 0 else 1


def potential_np(spec: Spec, phi, theta):
    """(V, cos of the tan argument) of the model's closed-form potential."""
    eps = _epsilon(spec)
    if spec.closed_form == "2d":
        amp = -math.pi**2 / (4.0 * math.log(spec.a0 / spec.a1) ** 2)
        u = 0.5 * (phi + theta) + 0.5 * math.pi
    else:
        amp = abs(spec.a0 * spec.a1) / (abs(spec.a0) + abs(spec.a1)) ** 2
        scale = 0.5
        if spec.closed_form == "lam14":
            amp, scale = 0.5 * amp, 0.25
        u = scale * (phi + eps * theta)
    return amp * np.tan(u) ** 2, np.cos(u)


def lapse_np(spec: Spec, p, phi, theta, dphi, dtheta):
    """The construction lapse N(p) paired with the closed-form potential."""
    eps = _epsilon(spec)
    if spec.closed_form == "zero-range":
        return (np.sin(phi) - eps * np.sin(theta)) / p
    if spec.closed_form == "lam14":
        return math.sqrt(2.0) * (dphi - eps * dtheta)
    return dphi - dtheta


def lapse_mp(spec: Spec):
    f0, f1 = phase_mp(spec, 0), phase_mp(spec, 1)
    eps = _epsilon(spec)
    if spec.closed_form == "zero-range":
        return lambda p: (mp.sin(f0(p)) - eps * mp.sin(f1(p))) / p
    c = mp.sqrt(2) if spec.closed_form == "lam14" else 1
    return lambda p: c * (mp.diff(f0, p) - eps * mp.diff(f1, p))


def kappa_mp(spec: Spec, p) -> mp.mpf:
    """d ln|N| / dp by numerical differentiation at 50 digits."""
    f0, f1 = phase_mp(spec, 0), phase_mp(spec, 1)
    eps = _epsilon(spec)
    if spec.closed_form == "zero-range":
        n = lapse_mp(spec)
        return mp.diff(lambda q: mp.log(abs(n(q))), p)
    num = mp.diff(f0, p, 2) - eps * mp.diff(f1, p, 2)
    return num / (mp.diff(f0, p) - eps * mp.diff(f1, p))


def _rel(a, b) -> float:
    return abs(float(a) - float(b)) / max(abs(float(b)), 1e-300)


def _subsample(n: int, seed: int, k: int = SUBSAMPLE) -> list[int]:
    return sorted(random.Random(seed).sample(range(n), min(k, n)))


# ---------------------------------------------------------------------------
# traj-export
# ---------------------------------------------------------------------------


def check_traj(spec: Spec, rc: int, data: bytes, seed: int) -> list:
    mp.mp.dps = 50
    problems = []
    if rc != 0:
        return [("exit", f"traj exited {rc}")]
    lines = data.decode("utf-8").split("\n")
    if lines[-1] != "" or lines[0] != TRAJ_HEADER:
        return [("format", "header or final newline wrong")]
    rows = [ln.split(",") for ln in lines[1:-1]]
    if len(rows) != spec.count or any(len(r) != 8 for r in rows):
        return [("format", f"expected {spec.count} rows of 8 fields")]
    num = np.array([[float(x) for x in r[:5]] for r in rows])
    p, phi, theta, dphi, dtheta = num.T
    k = np.arange(spec.count)
    p_want = spec.p_min * (spec.p_max / spec.p_min) ** (k / (spec.count - 1))
    if np.max(np.abs(p / p_want - 1.0)) > 1e-13:
        problems.append(("grid", "p column is not the configured log grid"))

    # phases and tangents on every row (NumPy) and at a subsample (mpmath)
    phi_w, theta_w = phase_np(spec, p)
    if max(np.max(np.abs(phi - phi_w)), np.max(np.abs(theta - theta_w))) > 1e-12:
        problems.append(("phase", "phases differ from the closed form"))
    dphi_w, dtheta_w = tangent_np(spec, p)
    if max(np.max(np.abs(dphi / dphi_w - 1)), np.max(np.abs(dtheta / dtheta_w - 1))) > 1e-10:
        problems.append(("tangent", "tangents differ from the closed form"))
    sub = _subsample(spec.count, seed)
    for ch, col, dcol in ((0, phi, dphi), (1, theta, dtheta)):
        f = phase_mp(spec, ch)
        for i in sub:
            if abs(col[i] - float(f(mp.mpf(p[i])))) > 1e-12:
                problems.append(("phase", f"phase at row {i} differs from mpmath"))
                break
            if _rel(dcol[i], mp.diff(f, mp.mpf(p[i]))) > 1e-9:
                problems.append(("tangent", f"tangent at row {i} differs from mpmath.diff"))
                break

    if max(np.max(np.abs(np.diff(phi))), np.max(np.abs(np.diff(theta)))) > 1.0:
        problems.append(("continuity", "phase jumps between adjacent rows"))

    sp, st = np.sin(phi), np.sin(theta)
    want = np.where(sp > 0, np.where(st > 0, "top-right", "bottom-right"),
                    np.where(st > 0, "top-left", "bottom-left"))
    want = np.where((np.abs(sp) < BOUNDARY) | (np.abs(st) < BOUNDARY), "boundary", want)
    if any(r[7] != w for r, w in zip(rows, want)):
        problems.append(("quadrant", "a quadrant label breaks the sign rule"))

    kappa_s = [r[5] for r in rows]
    v_s = [r[6] for r in rows]
    filled = np.array([v != "" for v in v_s])
    if any((kv != "") != f for kv, f in zip(kappa_s, filled)):
        problems.append(("fields", "kappa and V are not filled on the same rows"))
    if spec.closed_form is None:
        if filled.any():
            problems.append((NO_CLOSED_FORM_FILLED,
                             f"V/kappa filled on {int(filled.sum())} rows of a model "
                             "with no closed-form potential"))
        return problems
    v_want, cos_u = potential_np(spec, phi, theta)
    lapse = lapse_np(spec, p, phi, theta, dphi, dtheta)
    near_singular = (np.abs(cos_u) < 1e-5) | (np.abs(lapse) < 1e-9)
    if np.any(~filled & ~near_singular):
        problems.append(("fields", "V/kappa empty at a regular point"))
    v = np.array([float(x) if x else np.nan for x in v_s])
    scale = np.maximum(np.abs(v_want), 1e-12)
    if np.any(np.abs(v - v_want)[filled] > 1e-9 * scale[filled]):
        problems.append(("potential", "V differs from the closed-form potential"))
    kappa = np.array([float(x) if x else np.nan for x in kappa_s])
    for i in [i for i in sub if filled[i] and abs(lapse[i]) > 1e-6][: SUBSAMPLE // 2]:
        if _rel(kappa[i], kappa_mp(spec, mp.mpf(p[i]))) > 1e-7:
            problems.append(("kappa", f"kappa at row {i} differs from d ln N/dp"))
            break
    return problems


# ---------------------------------------------------------------------------
# verify-sweep
# ---------------------------------------------------------------------------

#: Inversion maps of the family rows the workload uses, from the paper's
#: tables: (phi source, sign, shift, theta source, sign, shift).
_PI = math.pi
_MAPS = {
    ("T1", 1): ("theta", 1, -_PI, "phi", 1, _PI),
    ("T1", 2): ("theta", 1, _PI, "phi", 1, -_PI),
    ("T1", 3): ("theta", -1, _PI, "phi", -1, _PI),
    ("T1", 4): ("theta", -1, -_PI, "phi", -1, -_PI),
    ("T2", 2): ("phi", 1, 0.0, "theta", -1, 0.0),
    ("T2", 3): ("phi", -1, 0.0, "theta", 1, 0.0),
    ("T2", 6): ("theta", -1, 0.0, "phi", -1, 0.0),
    ("T3", 6): ("theta", -1, 0.0, "phi", -1, 0.0),
}


def phase_map_deviation_mp(spec: Spec, seed: int) -> float:
    """Max deviation of the inversion map at a subsample, at 50 digits."""
    mp.mp.dps = 50
    src_f, sg_f, sh_f, src_t, sg_t, sh_t = _MAPS[(spec.table, spec.row)]
    lam = 1.0 if spec.table == "T1" else spec.lam
    eta = mp.mpf(lam) * abs(mp.mpf(spec.a0) * mp.mpf(spec.a1))
    f = {"phi": phase_mp(spec, 0), "theta": phase_mp(spec, 1)}
    k = _subsample(spec.count, seed)
    worst = mp.mpf(0)
    for i in k:
        p = mp.mpf(spec.p_min) * (mp.mpf(spec.p_max) / spec.p_min) ** (mp.mpf(i) / (spec.count - 1))
        q = 1 / (eta * p)
        for got, src, sg, sh in ((f["phi"](q), src_f, sg_f, sh_f),
                                 (f["theta"](q), src_t, sg_t, sh_t)):
            d = got - (sg * f[src](p) + sh)
            d = d - 2 * mp.pi * mp.nint(d / (2 * mp.pi))
            worst = max(worst, abs(d))
    return float(worst)


def check_verify(spec: Spec, rc: int, data: bytes, seed: int) -> list:
    problems = []
    expect = spec.expect
    if rc != expect["exit"]:
        problems.append(("exit", f"verify exited {rc}, physics predicts {expect['exit']}"))
    try:
        report = json.loads(data)
    except ValueError:
        return problems + [("format", "report is not JSON")]
    got = {c["name"]: c["pass"] for c in report.get("checks", [])}
    if got != expect["checks"]:
        problems.append(("checks", f"checks {got} differ from the prediction {expect['checks']}"))
    if report.get("pass") is not (expect["exit"] == 0):
        problems.append(("checks", "overall pass disagrees with the exit code"))
    reported = next((c["max_deviation"] for c in report.get("checks", [])
                     if c["name"] == "phase_map"), None)
    if reported is None or abs(reported - phase_map_deviation_mp(spec, seed)) > 1e-12:
        problems.append(("phase_map", f"phase-map deviation {reported} differs from mpmath"))
    return problems


# ---------------------------------------------------------------------------
# affine-reconstruct
# ---------------------------------------------------------------------------


def _polyline_distance(points: np.ndarray, polyline: np.ndarray) -> np.ndarray:
    """Upper bound on each point's distance to a polyline.

    The nearest vertex is found with a k-d tree and the distance to its two
    adjacent segments taken; that is the exact distance wherever the
    polyline is sampled finely relative to its curvature, and never less.
    """
    from scipy.spatial import cKDTree

    _, idx = cKDTree(polyline).query(points)
    best = np.full(points.shape[0], np.inf)
    for lo in (idx - 1, idx):
        lo = np.clip(lo, 0, polyline.shape[0] - 2)
        a, b = polyline[lo], polyline[lo + 1]
        v = b - a
        t = np.clip(np.sum((points - a) * v, axis=1) / np.sum(v * v, axis=1), 0.0, 1.0)
        best = np.minimum(best, np.hypot(*(points - a - t[:, None] * v).T))
    return best


def check_affine(spec: Spec, result: dict, n_samples: int) -> list:
    problems = []
    curve = result["curve"]
    span = result["span"]
    if curve.truncated or curve.tau.size != n_samples or abs(curve.tau[-1] - span) > 1e-12 * abs(span):
        problems.append(("truncated", "integrated curve is truncated"))
        return problems

    mp.mp.dps = 30
    n_mp = lapse_mp(spec)
    span_mp = mp.quad(n_mp, [spec.p_min, math.sqrt(spec.p_min * spec.p_max), spec.p_max])
    if _rel(span, span_mp) > 1e-8:
        problems.append(("span", f"span {span} differs from mpmath.quad {float(span_mp)}"))

    p = np.geomspace(spec.p_min, spec.p_max, 20001)
    ref = np.column_stack(phase_np(spec, p))
    pts = curve.points
    hausdorff = max(_polyline_distance(pts, ref).max(), _polyline_distance(ref, pts).max())
    if not hausdorff < 1e-5:
        problems.append(("hausdorff", f"Hausdorff distance {hausdorff:.2e} to the closed form"))
    if not result["hausdorff"] < 1e-5:
        problems.append(("hausdorff", f"reported Hausdorff {result['hausdorff']:.2e}"))

    v, _ = potential_np(spec, curve.phi, curve.theta)
    energy = 0.5 * (curve.dphi**2 + curve.dtheta**2) + v
    drift = float(np.max(np.abs(energy - energy[0])))
    if not drift < 1e-8 or not result["drift"] < 1e-8:
        problems.append(("drift", f"first-integral drift {drift:.2e} / {result['drift']:.2e}"))
    return problems
