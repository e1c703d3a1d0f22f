"""Shared fixtures, the family models, the refusal helper and the
acceptance-summary terminal hook; the reference oracles are in ``oracles``."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from torus_scatter import cli, ere

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


def refused(capsys, argv) -> str:
    """Run the CLI on ``argv`` and return the message of its refusal, which
    must be exit 2, nothing on stdout and one stderr line holding a JSON
    object whose only key is "error" (``refusal``)."""
    return refusal(cli.main(argv), *capsys.readouterr())


def refusal(code, out, err) -> str:
    """The message of a refusal by exit ``code`` with ``out`` and ``err``
    written, asserting the contract ``refused`` states."""
    assert code == 2, (code, err)
    assert out == ""
    assert err.endswith("\n") and err.count("\n") == 1, err
    error = json.loads(err)
    assert isinstance(error, dict) and error.keys() == {"error"}, error
    return error["error"]


@pytest.fixture
def rng():
    return np.random.default_rng(20260819)


#: Scattering-length signs that each table row accepts (T2 rows accept any).
ROW_SIGNS = {
    "T1": {1: (1, -1), 2: (-1, 1), 3: (-1, -1), 4: (1, 1)},
    "T3": {1: (1, 1), 2: (1, -1), 3: (-1, 1), 4: (-1, -1), 5: (1, 1), 6: (-1, -1)},
}


def family_models(seed=20261018, draws=2):
    """T1-T3 rows at lambda in {0.1, 1/4, 1, 4} and 2D pairs, lengths log-uniform in [0.2, 20]."""
    rng = np.random.default_rng(seed)
    models = []
    for _ in range(draws):
        for table, rows in (("T1", range(1, 5)), ("T2", range(1, 7)), ("T3", range(1, 7))):
            for row in rows:
                for lam in (0.1, 0.25, 1.0, 4.0) if table != "T1" else (1.0,):
                    mags = np.exp(rng.uniform(math.log(0.2), math.log(20.0), 2))
                    signs = ROW_SIGNS.get(table, {}).get(row) or rng.choice((-1, 1), 2)
                    a0, a1 = (float(s * m) for s, m in zip(signs, mags))
                    models.append(ere.make_symmetric_model(table, row, a0, a1, lam=lam))
        a0, a1 = np.exp(rng.uniform(math.log(0.2), math.log(20.0), 2))
        models.append(ere.make_2d_model(float(a0), float(a1)))
    return models
