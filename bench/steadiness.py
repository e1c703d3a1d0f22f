#!/usr/bin/env python3
"""Run the benchmark repeatedly and report how steady each metric is.

    python3 bench/steadiness.py [--workload NAME ...] [--runs 10] [--seed0 1]
                                [--seconds S] [--traced-runs 3]

For each workload, ``--runs`` untraced runs with seeds seed0, seed0+1, ...
give every end-to-end metric's median, quartiles and spread (quartile
distance over median, as ``statistics.quantiles(values, n=4)`` gives the
quartiles), next to its bound in BENCHMARK.json.  ``--traced-runs`` traced
runs on the first seeds give the tracing overhead: within each traced run,
the median traced op time minus the median untraced op time of the
alternating untraced rounds.  The report is printed and written
to bench/out/steadiness.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def one_run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def summarize(values: list, bound: float | None) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    spread = (q3 - q1) / med
    return {"median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
            "spread_over_bound": spread / bound if bound else None, "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--traced-runs", type=int, default=0)
    args = parser.parse_args(argv)

    report = {}
    for workload in args.workload or names:
        runs = [one_run(workload, args.seed0 + i, args.seconds, 0) for i in range(args.runs)]
        entry = {
            "correct": all(r["correct"] for r in runs),
            "failed_share": sorted({f"{r['failed']}/{r['attempted']}" for r in runs}),
            "metrics": {m: summarize([r["metrics"][m]["value"] for r in runs], bounds[m])
                        for m in bounds},
        }
        if args.traced_runs:
            traced = [one_run(workload, args.seed0 + i, args.seconds, 1)
                      for i in range(args.traced_runs)]
            entry["tracing"] = {
                name: statistics.median(t["metrics"][f"trace.{name}"]["value"] for t in traced)
                for name in ("op_ms", "untraced_op_ms", "overhead_ms")
            }
        report[workload] = entry
        print(f"{workload}: correct={entry['correct']} failed={entry['failed_share']}")
        for m, s in entry["metrics"].items():
            print(f"  {m:16s} median {s['median']:12.5g}  q1 {s['q1']:12.5g}  q3 {s['q3']:12.5g}"
                  f"  spread {s['spread']:.4f}  bound {s['bound']}  ({s['spread_over_bound']:.2f} of it)")
        if "tracing" in entry:
            t = entry["tracing"]
            print(f"  tracing overhead {t['overhead_ms']:.1f} ms per op "
                  f"({100 * t['overhead_ms'] / t['untraced_op_ms']:.1f}% of "
                  f"{t['untraced_op_ms']:.1f} ms)")
        sys.stdout.flush()
    (BENCH / "out").mkdir(exist_ok=True)
    (BENCH / "out" / "steadiness.json").write_text(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
