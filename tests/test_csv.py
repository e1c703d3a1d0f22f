"""The block CSV writer behind ``traj`` and ``ep`` against the per-field oracle."""

import json
import math
import os
import stat
import sys
import tempfile
import tracemalloc
import warnings

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


def _assert_no_child_left() -> None:
    """No child process of this one, running or a zombie, is left."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _run(command, cfg, tmp_path, capsys) -> bytes:
    """The ``--out`` bytes of ``command``, checked equal to its stdout bytes;
    neither call leaves a child process."""
    path = tmp_path / "cfg.json"
    cfg.dump(str(path))
    out = tmp_path / f"{command}.csv"
    assert cli.main([command, "--config", str(path), "--out", str(out)]) == 0
    _assert_no_child_left()
    assert cli.main([command, "--config", str(path)]) == 0
    _assert_no_child_left()
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.encode() == out.read_bytes()
    return out.read_bytes()


def _set_cpus(monkeypatch, cpus) -> None:
    """Make ``os.sched_getaffinity`` report ``cpus`` CPUs, or remove it (None),
    as on platforms that lack it."""
    if cpus is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))


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


@pytest.mark.parametrize("count", [2 * B - 1, 2 * B, 2 * B + 1, 3 * B + 1, 4 * B + 3])
@pytest.mark.parametrize("model", sorted(MODELS))
def test_striped_writer_bytes_match_oracle_on_any_cpu_count(model, count, tmp_path, capsys,
                                                            monkeypatch):
    """Written in one stripe of whole blocks per CPU, by forked children after
    the first, the CSV is the oracle's bytes on this machine's CPUs, on one,
    two and four CPUs, and where ``os.sched_getaffinity`` is missing.  On
    2B + 1 rows the 2D model's singular row is row B, the first of the
    second stripe."""
    cfg = RunConfig(**MODELS[model], p_grid=PGrid(0.25, 0.75, count, "linear"))
    want = {"traj": traj_csv_oracle(cfg).encode(), "ep": ep_csv_oracle(cfg).encode()}
    if model == "2d" and count == 2 * B + 1:
        rows = want["traj"].decode().splitlines()[1:]
        assert [k for k, row in enumerate(rows) if row.split(",")[5] == ""] == [B]
    for cpus in ("machine", 1, 2, 4, None):
        if cpus != "machine":
            _set_cpus(monkeypatch, cpus)
        for command, text in want.items():
            assert _run(command, cfg, tmp_path, capsys) == text, (command, cpus)


@pytest.mark.parametrize("cpus, count, children", [
    (4, 4 * B, 3), (4, 3 * B + 1, 3), (4, 2 * B, 1), (2, 4 * B + 3, 1), (3, B, 0), (1, 4 * B, 0),
])
def test_one_stripe_per_cpu_of_whole_blocks(cpus, count, children, tmp_path, monkeypatch):
    """One child per stripe after the first: one stripe per CPU, at most one
    per block."""
    _set_cpus(monkeypatch, cpus)
    real_fork, forks = os.fork, []

    def counted_fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    path = tmp_path / "cfg.json"
    RunConfig(**MODELS["lam14"], p_grid=PGrid(0.25, 0.75, count, "linear")).dump(str(path))
    assert cli.main(["ep", "--config", str(path), "--out", str(tmp_path / "ep.csv")]) == 0
    _assert_no_child_left()
    assert len(forks) == children


def _assert_one_json_error(capsys, match: str) -> None:
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and match in json.loads(lines[0])["error"], lines


def _striped_config(tmp_path) -> str:
    path = tmp_path / "cfg.json"
    RunConfig(**MODELS["zero-range"], p_grid=PGrid(0.25, 0.75, 3 * B + 1, "linear")).dump(str(path))
    return str(path)


@pytest.mark.parametrize("command", ["traj", "ep"])
def test_unwritable_out_exits_2_before_forking(command, tmp_path, capsys, monkeypatch):
    _set_cpus(monkeypatch, 4)

    def no_fork():
        raise AssertionError("a child was started")

    monkeypatch.setattr(os, "fork", no_fork)
    out = tmp_path / "missing" / "out.csv"
    assert cli.main([command, "--config", _striped_config(tmp_path), "--out", str(out)]) == 2
    _assert_one_json_error(capsys, "i/o error: [Errno 2]")
    assert not out.parent.exists()


def _assert_out_as_it_was(tmp_path, out, old: bytes | None) -> None:
    """``out`` holds ``old``, or is absent when None, and no other file than
    it and the config is left in its directory."""
    if old is None:
        assert os.listdir(tmp_path) == ["cfg.json"]
    else:
        assert out.read_bytes() == old
        assert sorted(os.listdir(tmp_path)) == ["cfg.json", out.name]


@pytest.mark.parametrize("command", ["traj", "ep"])
def test_failing_child_exits_2_and_leaves_no_child(command, tmp_path, capsys, monkeypatch):
    """Only the children call ``os.write``; one that raises makes its child
    exit 1, which the parent reports as an i/o error after reaping every child.
    A new ``--out`` is not created, and an existing one keeps its bytes."""
    _set_cpus(monkeypatch, 4)

    def failing_write(fd, data):
        raise OSError("no space left")

    tempfile.gettempdir()  # its first call probes the directory with os.write
    config = _striped_config(tmp_path)
    out = tmp_path / "out.csv"
    for old in (None, b"an earlier result\n"):
        if old is not None:
            out.write_bytes(old)
        with monkeypatch.context() as patch:
            patch.setattr(os, "write", failing_write)
            assert cli.main([command, "--config", config, "--out", str(out)]) == 2
        _assert_no_child_left()
        _assert_one_json_error(capsys, "i/o error: CSV stripe writer exited with status 1")
        _assert_out_as_it_was(tmp_path, out, old)


@pytest.mark.parametrize("old", [None, b"an earlier result\n"], ids=["new", "existing"])
def test_failing_single_writer_leaves_out_as_it_was(old, tmp_path, capsys, monkeypatch):
    """With one stripe, a failure after the header is written leaves a new
    ``--out`` absent and an existing one as it was."""
    _set_cpus(monkeypatch, 1)

    def failing_blocks(header, *args, **kwargs):
        yield header + "\n"
        raise OSError("no space left")

    monkeypatch.setattr(cli, "_csv_blocks", failing_blocks)
    out = tmp_path / "out.csv"
    if old is not None:
        out.write_bytes(old)
    assert cli.main(["traj", "--config", _striped_config(tmp_path), "--out", str(out)]) == 2
    _assert_one_json_error(capsys, "i/o error: no space left")
    _assert_out_as_it_was(tmp_path, out, old)


def test_out_keeps_its_permissions_and_symlinks(tmp_path):
    """A replaced ``--out`` keeps its permission bits; a symlink stays a link
    and its target gets the output; a new file gets open()'s mode."""
    config = _striped_config(tmp_path)
    want = traj_csv_oracle(RunConfig.load(config)).encode()
    new = tmp_path / "new.csv"
    assert cli.main(["traj", "--config", config, "--out", str(new)]) == 0
    umask = os.umask(0)
    os.umask(umask)
    assert new.read_bytes() == want and new.stat().st_mode & 0o777 == 0o666 & ~umask
    target = tmp_path / "target.csv"
    target.write_bytes(b"old")
    target.chmod(0o640)
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    assert cli.main(["traj", "--config", config, "--out", str(link)]) == 0
    assert link.is_symlink() and target.read_bytes() == want
    assert target.stat().st_mode & 0o777 == 0o640
    assert sorted(os.listdir(tmp_path)) == ["cfg.json", "link.csv", "new.csv", "target.csv"]


def test_out_through_a_dangling_symlink_writes_its_target(tmp_path):
    config = _striped_config(tmp_path)
    target, link = tmp_path / "target.csv", tmp_path / "link.csv"
    link.symlink_to(target)
    assert cli.main(["traj", "--config", config, "--out", str(link)]) == 0
    assert link.is_symlink()
    assert target.read_bytes() == traj_csv_oracle(RunConfig.load(config)).encode()
    assert sorted(os.listdir(tmp_path)) == ["cfg.json", "link.csv", "target.csv"]


def test_out_to_the_null_device_is_written_in_place(tmp_path, monkeypatch):
    """``--out /dev/null`` is not a regular file: it is opened and written,
    never replaced, and no temporary file is left beside it."""
    real_replace = os.replace

    def replace(src, dst):
        assert os.path.realpath(dst) != os.devnull, (src, dst)
        return real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    config = _striped_config(tmp_path)
    for argv in (["traj"], ["ep"], ["verify", "--suite", "wigner"]):
        assert cli.main([*argv, "--config", config, "--out", os.devnull]) == 0
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)
    assert not [name for name in os.listdir(os.path.dirname(os.devnull)) if name.endswith(".tmp")]


def test_children_write_nothing_to_stdout_or_stderr(tmp_path, capfd, monkeypatch):
    """A child points descriptors 1 and 2 at the null device before it
    formats, so even a write of its own to them reaches neither."""
    _set_cpus(monkeypatch, 4)
    real_write = os.write

    def noisy_write(fd, data):
        real_write(1, b"out")
        real_write(2, b"err")
        return real_write(fd, data)

    tempfile.gettempdir()  # its first call probes the directory with os.write
    monkeypatch.setattr(os, "write", noisy_write)
    config = _striped_config(tmp_path)
    out = tmp_path / "out.csv"
    assert cli.main(["traj", "--config", config, "--out", str(out)]) == 0
    _assert_no_child_left()
    assert capfd.readouterr() == ("", "")
    assert out.read_bytes() == traj_csv_oracle(RunConfig.load(config)).encode()


def test_fork_warning_of_a_threaded_process_is_ignored(tmp_path, monkeypatch):
    """Python 3.12+ warns when a process with threads forks, which pytest and
    ``python -W error`` turn into an error; the writer ignores that warning
    around its fork.  Simulated here, for interpreters that do not warn."""
    _set_cpus(monkeypatch, 4)
    real_fork = os.fork

    def warning_fork():
        warnings.warn(
            f"This process (pid={os.getpid()}) is multi-threaded, use of fork() may lead "
            "to deadlocks in the child.", DeprecationWarning, stacklevel=2,
        )
        return real_fork()

    monkeypatch.setattr(os, "fork", warning_fork)
    config = _striped_config(tmp_path)
    out = tmp_path / "out.csv"
    assert cli.main(["traj", "--config", config, "--out", str(out)]) == 0
    _assert_no_child_left()
    assert out.read_bytes() == traj_csv_oracle(RunConfig.load(config)).encode()


def test_failing_parent_kills_and_reaps_its_children(tmp_path, capsys, monkeypatch):
    """A parent whose own write fails kills and reaps every child it started."""
    _set_cpus(monkeypatch, 4)

    class Closed:
        def writelines(self, lines):
            raise OSError("stdout is closed")

    monkeypatch.setattr(sys, "stdout", Closed())
    assert cli.main(["traj", "--config", _striped_config(tmp_path)]) == 2
    _assert_no_child_left()
    monkeypatch.undo()
    _assert_one_json_error(capsys, "i/o error: stdout is closed")


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
