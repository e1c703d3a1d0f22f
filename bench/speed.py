"""Machine-speed probe: fixed work that the timings are scaled by.

The machine this benchmark was built on is a 2-core virtual machine shared
with other guests.  Its speed drifts by 15-25% over tens of seconds, and
plain wall-clock medians of two 20-second runs of the same operation
differed by 25%, more than a regression the benchmark should catch.

So every timed operation is bracketed by two runs of the probe, fixed work
that touches nothing of the program, and its time is reported as
``seconds * reference / probe_seconds``: the time the operation would take
on a machine on which the probe takes its reference time.  Interpreter
speed, small-array NumPy calls and memory bandwidth drift apart on that
machine, so the probe is made of parts that each do one of these, and a
workload's probe runs the parts its own operations spend their time in
(``workloads.PROBE_PARTS``):

* ``loop``: float formatting and dict traffic, like the CLI's CSV writer;
* ``small``: 4x4 complex products, like the density-map check;
* ``array``: a pass over an array larger than the caches, like the
  polyline distance.

With wall times the 15-second medians of one op class after another moved
by 15-38% in 60- to 150-second trials; scaled by the workload's probe they
moved by 2.5% (traj-export), 8-12% (verify-sweep) and 6.7%
(affine-reconstruct).  A probe with a part its workload does not use made
the scaled times drift more: ``array`` doubled traj-export's spread over
ten runs, and ``loop`` left the memory-bound affine op drifting more than
its wall time.
"""

from __future__ import annotations

from functools import cache
from time import perf_counter

import numpy as np

#: Each part's typical time on the reference machine (2 cores, Python 3.11,
#: NumPy 2.4), in seconds; scaled times read close to that machine's
#: wall-clock times.
REFERENCE_S = {"loop": 0.010, "small": 0.0075, "array": 0.012}

LOOP_ITERATIONS = 7000
SMALL_PRODUCTS = 600
ARRAY_SHAPE = (256, 1600, 2)


@cache
def _arrays() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    big = np.linspace(0.0, 1.0, int(np.prod(ARRAY_SHAPE))).reshape(ARRAY_SHAPE)
    return big, np.eye(4, dtype=complex) * np.exp(0.3j), np.full(4, 0.5, dtype=complex)


def _loop() -> float:
    acc = 0.0
    parts = []
    table: dict = {}
    for i in range(LOOP_ITERATIONS):
        x = (i * 0.6180339887498949) % 1.0
        parts.append(f"{x:.17g}")
        table[i & 255] = x
        acc += x * table.get((i * 7) & 255, 0.0)
    return acc + len(",".join(parts))


def _small() -> float:
    _, op, state = _arrays()
    acc = 0.0
    for _ in range(SMALL_PRODUCTS):
        out = op @ state
        acc += float(np.max(np.abs(np.outer(out, out.conj()) - op)))
    return acc


def _array() -> float:
    big = _arrays()[0]
    return float(np.sum((big - 0.5) ** 2, axis=2).min(axis=1).sum())


PARTS = {"loop": _loop, "small": _small, "array": _array}


class Probe:
    """The probe of one workload: the named parts, run one after another."""

    def __init__(self, parts: tuple[str, ...]):
        self.parts = [PARTS[name] for name in parts]
        self.reference_s = sum(REFERENCE_S[name] for name in parts)

    def __call__(self) -> float:
        """Seconds one run of the probe takes now."""
        t0 = perf_counter()
        for part in self.parts:
            part()
        return perf_counter() - t0

    def scale(self, before: float, after: float) -> float:
        """Factor that turns a time measured between two probe runs into
        reference time."""
        return self.reference_s / (0.5 * (before + after))
