#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of torus-scatter.

    python3 bench/run.py --workload traj-export --seed 1 --seconds 28 --trace 0

Runs one workload in this single process, with BLAS/OpenMP pinned to one
thread, against the package under ``src/`` of the checkout it sits in.
Set-up time is the median over fresh interpreters; then one untimed round
gives each config class its reference output, whole rounds run under the
clock for ``--seconds``, every op's output is compared byte for byte with
its class's reference, and the references are checked against
computations made apart from the program (``checks.py``).  Every time is
scaled by a machine-speed probe run around it (``speed.py``).

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and the metrics (end-to-end with ``--trace 0``,
per-layer with ``--trace 1``).  See README.md for what each metric means.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402
from typing import NamedTuple  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import speed  # noqa: E402
import workloads  # noqa: E402
from workloads import FULL, PROBE_PARTS, SETUP_MODULES, WORKLOADS  # noqa: E402

SETUP_RUNS = 7
IMPORTTIME_RUNS = 3

E2E_UNITS = {
    "setup_s": "s",
    "points_per_s": "points/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
LAYER_UNITS = {
    "torus.quadrants.self_ms": "ms",
    "torus.quadrants.points": "count",
    "cli.self_ms": "ms",
    "cli.bytes_out": "bytes",
    "uvir.density_map.self_ms": "ms",
    "spin.self_ms": "ms",
    "spin.out_density_matrix.calls": "count",
    "spin.is_unitary.calls": "count",
    "geometry.point_to_polyline_distance.self_ms": "ms",
    "geometry.point_to_polyline_distance.pairs": "count",
    "geometry.integrate_affine.self_ms": "ms",
    "geometry.gradient.calls": "count",
    "geometry.affine_parameter_span.self_ms": "ms",
    "geometry.construction_lapse.calls": "count",
    "geometry.eom_residual.self_ms": "ms",
    "causality.self_ms": "ms",
    "uvir.phase_map.self_ms": "ms",
    "ere.self_ms": "ms",
    "config.load_ms": "ms",
    "setup.import_scipy_ms": "ms",
    "setup.import_torus_scatter_ms": "ms",
    "trace.op_ms": "ms",
    "trace.untraced_op_ms": "ms",
    "trace.overhead_ms": "ms",
}


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), str(BENCH), env.get("PYTHONPATH"))))
    return env


# A fresh interpreter imports the workload's modules and loads its configs,
# then runs the probe (after the imports: it needs NumPy) to scale the time.
# Imports read files, unmarshal code and initialise extension modules, so
# their probe has every part.
_SETUP_CODE = """\
import importlib, sys, time
t0 = time.perf_counter()
for name in sys.argv[1].split(","):
    importlib.import_module(name)
from torus_scatter.config import RunConfig
for path in sys.argv[2:]:
    RunConfig.load(path)
t1 = time.perf_counter()
import speed
probe = speed.Probe(tuple(speed.PARTS))
probe()
print((t1 - t0) * probe.scale(probe(), probe()))
"""


def measure_setup(workload: str, specs, runs: int = SETUP_RUNS) -> float:
    """Median over fresh interpreters of importing the workload and loading
    its configs, in reference seconds."""
    times = []
    for _ in range(runs):
        out = subprocess.run(
            [sys.executable, "-c", _SETUP_CODE, ",".join(SETUP_MODULES[workload]),
             *(s.path for s in specs)],
            env=_child_env(), capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(out.stdout.split()[-1]))
    return statistics.median(times)


_IMPORTTIME_CODE = """\
import importlib, sys
for name in sys.argv[1].split(","):
    importlib.import_module(name)
import speed
probe = speed.Probe(tuple(speed.PARTS))
probe()
print(probe.scale(probe(), probe()))
"""


def measure_importtime(workload: str, runs: int = IMPORTTIME_RUNS) -> tuple[float, float]:
    """Medians of (self time of all scipy modules, cumulative time of the
    top-level ``torus_scatter`` imports) from ``-X importtime``, in reference ms."""
    scipy_ms, package_ms = [], []
    for _ in range(runs):
        out = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", _IMPORTTIME_CODE,
             ",".join(SETUP_MODULES[workload])],
            env=_child_env(), capture_output=True, text=True, timeout=120, check=True,
        )
        factor = float(out.stdout.split()[-1])
        scipy_us = package_us = 0
        for line in out.stderr.splitlines():
            fields = line.removeprefix("import time:").split("|")
            if len(fields) != 3 or not fields[0].strip().isdigit():
                continue
            name = fields[2].strip()
            if name == "scipy" or name.startswith("scipy."):
                scipy_us += int(fields[0])
            top_level = len(fields[2]) - len(fields[2].lstrip()) == 1
            if top_level and name.split(".")[0] == "torus_scatter":
                package_us += int(fields[1])
        scipy_ms.append(factor * scipy_us / 1e3)
        package_ms.append(factor * package_us / 1e3)
    return statistics.median(scipy_ms), statistics.median(package_ms)


def check_reference(workload: str, spec, payload, seed: int, sizes: dict) -> list:
    import checks

    if workload == "traj-export":
        return checks.check_traj(spec, *payload, seed)
    if workload == "verify-sweep":
        return checks.check_verify(spec, *payload, seed)
    return checks.check_affine(spec, payload, sizes["affine_samples"])


def tail(sorted_values: list) -> float:
    """Highest percentile with at least ten values beyond it (the median if
    there are too few values for that to be a tail)."""
    n = len(sorted_values)
    return sorted_values[max(n - 11, (n - 1) // 2)]


def run(workload: str, seed: int, seconds: float, trace: bool,
        sizes: dict = FULL, setup_runs: int = SETUP_RUNS) -> dict:
    if not (SRC / "torus_scatter" / "__init__.py").is_file():
        raise SystemExit(f"bench: no package at {SRC}; run from a repository checkout")
    workdir = OUT / f"{workload}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return _run(workload, seed, seconds, trace, sizes, setup_runs, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


class Sample(NamedTuple):
    """One timed op.  ``ms`` is in reference milliseconds (see speed.py)."""

    cls: int
    round: int
    ms: float
    wall_ms: float
    points: int
    bytes_out: int
    same: bool
    layers: dict | None


def _run(workload, seed, seconds, trace, sizes, setup_runs, workdir) -> dict:
    t_setup = perf_counter()
    specs = workloads.make_specs(workload, seed, workdir, sizes)
    if trace:
        import_scipy_ms, import_pkg_ms = measure_importtime(workload)
    else:
        setup_s = measure_setup(workload, specs, setup_runs)
    t_setup = perf_counter() - t_setup

    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in SETUP_MODULES[workload]:
        importlib.import_module(name)

    # Untimed reference round: warms caches and gives each class its output.
    refs = []
    for k, spec in enumerate(specs):
        op = workloads.make_op(workload, spec, str(workdir / f"ref{k}.out"), sizes)
        gc.collect()
        refs.append(op.collect(op.run()))

    from spans import Tracer

    tracer = Tracer()
    ops = [workloads.make_op(workload, s, str(workdir / f"op{k}.out"), sizes)
           for k, s in enumerate(specs)]
    samples: list[Sample] = []
    untraced: list[Sample] = []  # traced runs alternate with untraced rounds
    probe = speed.Probe(PROBE_PARTS[workload])
    probes = [probe()]
    start = perf_counter()
    for rnd, traced in enumerate(itertools.cycle((True, False) if trace else (False,))):
        with tracer.installed() if traced else nullcontext():
            for k, op in enumerate(ops):
                gc.collect()
                t0 = perf_counter()
                if traced:
                    result, layers = tracer.op(op.run)
                else:
                    result, layers = op.run(), None
                dt = perf_counter() - t0
                probes.append(probe())
                factor = probe.scale(probes[-2], probes[-1])
                if layers is not None:
                    # The root span, without the tracer's own bookkeeping.
                    dt = 1e-3 * layers["trace.op_ms"]
                    layers = {name: v * factor if name.endswith("_ms") else v
                              for name, v in layers.items()}
                ms = 1e3 * dt * factor
                digest, points, nbytes, _ = op.collect(result)
                (samples if not trace or traced else untraced).append(
                    Sample(k, rnd, ms, 1e3 * dt, points, nbytes, digest == refs[k][0], layers))
        if not traced and perf_counter() - start >= seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    t_check = perf_counter()
    problems = [check_reference(workload, s, ref[3], seed, sizes) for s, ref in zip(specs, refs)]
    t_check = perf_counter() - t_check
    known = [bool(p) and all(kind == s.known_fault for kind, _ in p)
             for s, p in zip(specs, problems)]
    all_ops = samples + untraced
    failed = [bool(problems[s.cls]) or not s.same for s in all_ops]
    correct = all(known[s.cls] and s.same for s, f in zip(all_ops, failed) if f)
    for spec, p in zip(specs, problems):
        for kind, msg in p:
            print(f"bench: {workload} {spec.label}: {kind}: {msg}", file=sys.stderr)
    if not all(s.same for s in all_ops):
        print(f"bench: {workload}: an op's output differs from its reference", file=sys.stderr)

    def ok(group):
        return [s for s in group if not problems[s.cls] and s.same] or group

    good = ok(samples)
    lat = sorted(s.ms for s in good)
    if trace:
        values = _layer_metrics(samples, len(specs))
        values["trace.op_ms"] = statistics.median(lat)
        values["trace.untraced_op_ms"] = statistics.median(s.ms for s in ok(untraced))
        values["trace.overhead_ms"] = values["trace.op_ms"] - values["trace.untraced_op_ms"]
        values["setup.import_scipy_ms"] = import_scipy_ms
        values["setup.import_torus_scatter_ms"] = import_pkg_ms
        units = LAYER_UNITS
        _write_trace(workload, seed, specs, samples)
    else:
        values = {
            "setup_s": setup_s,
            "points_per_s": _round_rate(good),
            "latency_p50_ms": statistics.median(lat),
            "latency_tail_ms": tail(lat),
            "peak_rss_mb": peak_rss_mb,
        }
        units = E2E_UNITS
    print(f"bench: {workload} seed {seed}: {len(all_ops)} ops in "
          f"{len(all_ops) // len(specs)} rounds of {[s.label for s in specs]}, "
          f"{sum(failed)} failed; latency over {len(lat)} ops, tail at index "
          f"{max(len(lat) - 11, (len(lat) - 1) // 2)}; median wall op "
          f"{statistics.median(s.wall_ms for s in good):.1f} ms, median probe "
          f"{1e3 * statistics.median(probes):.2f} ms; set-up children {t_setup:.1f} s, "
          f"checks {t_check:.1f} s", file=sys.stderr)
    return {
        "correct": bool(correct),
        "attempted": len(all_ops),
        "failed": int(sum(failed)),
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()},
    }


def _round_rate(good: list[Sample]) -> float:
    """Median over rounds of the points done per second in the round's good
    ops.  Classes differ in points per op, so a median over single ops
    would fall between two classes; a round holds one op of each."""
    rounds: dict[int, list[Sample]] = {}
    for s in good:
        rounds.setdefault(s.round, []).append(s)
    return statistics.median(1e3 * sum(s.points for s in r) / sum(s.ms for s in r)
                             for r in rounds.values())


def _layer_metrics(samples: list[Sample], per_round: int) -> dict:
    """Per-layer values: per-op means within each traced round, median over rounds."""
    for s in samples:
        if abs(s.layers["trace.self_sum_ms"] - s.ms) > 1e-6 * s.ms:
            raise RuntimeError("span self times do not sum to the traced op time")
    rounds = [samples[i:i + per_round] for i in range(0, len(samples), per_round)]
    out = {}
    for name in LAYER_UNITS:
        if name.startswith(("setup.", "trace.")):
            continue
        if name == "cli.bytes_out":
            per_round_means = [statistics.fmean(s.bytes_out for s in r) for r in rounds]
        else:
            per_round_means = [statistics.fmean(s.layers[name] for s in r) for r in rounds]
        out[name] = statistics.median(per_round_means)
    return out


def _write_trace(workload: str, seed: int, specs, samples: list[Sample]) -> None:
    """Keep the per-op layer table of a traced run under bench/out/."""
    rows = [{"class": specs[s.cls].label, "op_ms": s.ms, "wall_ms": s.wall_ms, **s.layers}
            for s in samples]
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"trace-{workload}-{seed}.json", "w", encoding="utf-8") as fh:
        json.dump(rows, fh, indent=1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
