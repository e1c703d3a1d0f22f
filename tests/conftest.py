"""Shared fixtures and the acceptance-summary terminal hook."""

from __future__ import annotations

import numpy as np
import pytest

#: Per-criterion result lines recorded by tests/test_acceptance.py.
ACCEPTANCE_LINES: list[str] = []


def record_acceptance(number: int, passed: bool, detail: str) -> None:
    """Record one 'ACCEPTANCE n PASS/FAIL: detail' line for the summary."""
    verdict = "PASS" if passed else "FAIL"
    line = f"ACCEPTANCE {number} {verdict}: {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in sorted(ACCEPTANCE_LINES):
        terminalreporter.write_line(line)


def polyline_distance_all_pairs(points, polyline):
    """Reference oracle for ``geometry.point_to_polyline_distance``: every
    point against every segment, 256 points at a time."""
    points = np.asarray(points, dtype=float)
    polyline = np.asarray(polyline, dtype=float)
    seg_a = polyline[:-1]
    seg_v = polyline[1:] - seg_a
    seg_len2 = np.maximum(np.einsum("ij,ij->i", seg_v, seg_v), 1e-300)
    out = np.empty(points.shape[0])
    chunk = 256
    for start in range(0, points.shape[0], chunk):
        pts = points[start : start + chunk]
        diff = pts[:, None, :] - seg_a[None, :, :]
        t = np.clip(np.einsum("kij,ij->ki", diff, seg_v) / seg_len2, 0.0, 1.0)
        proj = seg_a[None, :, :] + t[:, :, None] * seg_v[None, :, :]
        d2 = np.sum((pts[:, None, :] - proj) ** 2, axis=2)
        out[start : start + chunk] = np.sqrt(np.min(d2, axis=1))
    return out


@pytest.fixture
def rng():
    return np.random.default_rng(20260819)
