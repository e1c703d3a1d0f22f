"""The block CSV writer behind ``traj`` and ``ep`` against the per-field oracle."""

import math
import tracemalloc

import numpy as np
import pytest

from torus_scatter import cli, torus
from torus_scatter.config import PGrid, RunConfig

from oracles import ep_csv_oracle, ep_rows_oracle, traj_csv_oracle, traj_rows_oracle

B = cli.CSV_BLOCK_ROWS

#: One model per closed-form class (``geometry.closed_form_potential``) and
#: one with no closed form, whose ``kappa``/``V`` are empty on every row.
MODELS = {
    "zero-range": dict(dimension=3, a0=1.0, a1=5.0, family={"table": "T1", "row": 4}),
    "lam14": dict(dimension=3, a0=-1.0, a1=-5.0, family={"table": "T3", "row": 6, "lambda": 0.25}),
    # The lapse vanishes at p* = 1/sqrt(a0 a1) = 0.5, the midpoint of the grid
    # below: on an odd count one singular row sits inside a block.
    "2d": dict(dimension=2, a0=1.0, a1=4.0),
    "no-closed-form": dict(dimension=3, a0=1.0, a1=5.0, family={"table": "T2", "row": 6, "lambda": 0.1}),
}


def _run(command, cfg, tmp_path, capsys) -> bytes:
    """The ``--out`` bytes of ``command``, checked equal to its stdout bytes."""
    path = tmp_path / "cfg.json"
    cfg.dump(str(path))
    out = tmp_path / f"{command}.csv"
    assert cli.main([command, "--config", str(path), "--out", str(out)]) == 0
    assert cli.main([command, "--config", str(path)]) == 0
    assert capsys.readouterr().out.encode() == out.read_bytes()
    return out.read_bytes()


@pytest.mark.parametrize("count", [2, B - 1, B, B + 1, 2 * B + 3])
@pytest.mark.parametrize("model", sorted(MODELS))
def test_traj_and_ep_bytes_match_oracle(model, count, tmp_path, capsys):
    cfg = RunConfig(**MODELS[model], p_grid=PGrid(0.25, 0.75, count, "linear"))
    traj = _run("traj", cfg, tmp_path, capsys)
    assert traj == traj_csv_oracle(cfg).encode()
    assert _run("ep", cfg, tmp_path, capsys) == ep_csv_oracle(cfg).encode()
    empty = [k for k, row in enumerate(traj.decode().splitlines()[1:]) if row.split(",")[5] == ""]
    if model == "2d" and count % 2:
        assert empty == [(count - 1) // 2]
    elif model == "no-closed-form":
        assert len(empty) == count


SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1.7976931348623157e308,
           0.1, -1e16, 123456789012345678.0]


def test_writer_matches_oracle_on_special_values():
    rng = np.random.default_rng(7)
    n = B + 5
    columns = [rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n) for _ in range(7)]
    for c in columns:
        where = rng.choice(n, len(SPECIAL) * 3, replace=False)
        c[where] = SPECIAL * 3
    regular = rng.random(n) < 0.7
    regular[[0, B - 1, B, n - 1]] = [False, True, False, True]
    positions = rng.choice([q.position for q in torus.Quadrant], n).tolist()
    blocks = list(cli._csv_blocks(cli.TRAJ_HEADER, cli._TRAJ_ROWS, (*columns, positions), regular))
    assert len(blocks) == 1 + math.ceil(n / B)
    assert "".join(blocks) == cli.TRAJ_HEADER + "\n" + traj_rows_oracle(*columns, regular, positions)
    ep = "".join(cli._csv_blocks(cli.EP_HEADER, (cli._EP_ROW,), columns[:4]))
    assert ep == cli.EP_HEADER + "\n" + ep_rows_oracle(*columns[:4])


def test_traj_export_peak_memory_is_a_few_blocks(tmp_path):
    """A 24k-row export keeps a few blocks of text, not the whole table, in
    memory (the table-at-once writer peaked at 14 MB)."""
    cfg = RunConfig(**MODELS["zero-range"], p_grid=PGrid(0.01, 100.0, 24000))
    out = str(tmp_path / "traj.csv")
    cli.cmd_traj(cfg, out)
    tracemalloc.start()
    try:
        cli.cmd_traj(cfg, out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6e6, f"peak {peak / 1e6:.1f} MB"
