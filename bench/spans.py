"""Span tracing from outside the program, for the per-layer metrics.

``Tracer.installed()`` replaces the public functions of each ``torus_scatter``
module (and a few public methods) with wrappers that record a span
``(parent, name, start, end)`` per call, keeps the spans of the current op
in memory, and restores the originals on exit.  A layer's self time is the
duration of its spans minus the part covered by their child spans, so the
self times of one op sum to the op's traced duration.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

MODULES = ("config", "ere", "torus", "spin", "uvir", "geometry", "causality", "cli")

#: Per-sample helpers called from inside ``Trajectory.quadrants``; their cost
#: belongs to the quadrant layer, and a span per sample would swamp it.
UNWRAPPED = {"torus.wrap_angle", "torus.quadrant"}

METHODS = {
    "config": {"RunConfig": ("load", "from_json", "build_model", "build_grid")},
    "torus": {"Trajectory": ("quadrants", "tangents")},
    "geometry": {"GeometricPotential": ("value", "gradient", "singular_mask")},
}

#: Work counted at a span boundary: name -> f(args, result).
COUNTERS = {
    "torus.Trajectory.quadrants": lambda args, res: len(res),
    "geometry.point_to_polyline_distance": lambda args, res: len(args[0]) * (len(args[1]) - 1),
}

#: Per-layer metric -> how it is read from an op's spans.
SELF_PREFIX = {
    "cli.self_ms": "cli.",
    "spin.self_ms": "spin.",
    "causality.self_ms": "causality.",
    "ere.self_ms": "ere.",
}
SELF_NAME = {
    "torus.quadrants.self_ms": "torus.Trajectory.quadrants",
    "uvir.density_map.self_ms": "uvir.verify_density_map",
    "uvir.phase_map.self_ms": "uvir.verify_phase_map",
    "geometry.point_to_polyline_distance.self_ms": "geometry.point_to_polyline_distance",
    "geometry.integrate_affine.self_ms": "geometry.integrate_affine",
    "geometry.affine_parameter_span.self_ms": "geometry.affine_parameter_span",
    "geometry.eom_residual.self_ms": "geometry.eom_residual",
}
CALLS = {
    "spin.out_density_matrix.calls": "spin.out_density_matrix",
    "spin.is_unitary.calls": "spin.is_unitary",
    "geometry.gradient.calls": "geometry.GeometricPotential.gradient",
    "geometry.construction_lapse.calls": "geometry.construction_lapse",
}
COUNTS = {
    "torus.quadrants.points": "torus.Trajectory.quadrants",
    "geometry.point_to_polyline_distance.pairs": "geometry.point_to_polyline_distance",
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    def reset(self) -> None:
        self.spans, self.stack, self.counts = [], [], Counter()

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.spans)
            self.spans.append(None)
            parent = self.stack[-1] if self.stack else -1
            self.stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self.stack.pop()
                self.spans[sid] = (parent, name, t0, t1)
            if counter is not None:
                self.counts[name] += counter(args, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every public function and the listed methods; undo on exit."""
        undo = []
        for mod_name in MODULES:
            mod = importlib.import_module(f"torus_scatter.{mod_name}")
            for attr in mod.__all__:
                obj = getattr(mod, attr)
                name = f"{mod_name}.{attr}"
                if inspect.isfunction(obj) and name not in UNWRAPPED:
                    undo.append((mod, attr, obj))
                    setattr(mod, attr, self.wrap(name, obj))
            for cls_name, methods in METHODS.get(mod_name, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    raw = cls.__dict__[meth]
                    name = f"{mod_name}.{cls_name}.{meth}"
                    undo.append((cls, meth, raw))
                    if isinstance(raw, classmethod):
                        setattr(cls, meth, classmethod(self.wrap(name, raw.__func__)))
                    else:
                        setattr(cls, meth, self.wrap(name, raw))
        try:
            yield self
        finally:
            for owner, attr, obj in reversed(undo):
                setattr(owner, attr, obj)

    def op(self, fn):
        """Run ``fn`` as the root span of one op; return (result, op layers)."""
        self.reset()
        result = self.wrap("op", fn)()
        return result, self.layers()

    def layers(self) -> dict:
        """Per-layer metrics of the recorded op, plus its traced duration."""
        self_s = [t1 - t0 for _parent, _name, t0, t1 in self.spans]
        for parent, _name, t0, t1 in self.spans:
            if parent >= 0:
                self_s[parent] -= t1 - t0
        by_name: Counter = Counter()
        calls: Counter = Counter()
        load_s = 0.0
        for (_parent, name, t0, t1), s in zip(self.spans, self_s):
            by_name[name] += s
            calls[name] += 1
            if name == "config.RunConfig.load":
                load_s += t1 - t0
        out = {}
        for metric, prefix in SELF_PREFIX.items():
            out[metric] = 1e3 * sum(v for k, v in by_name.items() if k.startswith(prefix))
        for metric, name in SELF_NAME.items():
            out[metric] = 1e3 * by_name[name]
        for metric, name in CALLS.items():
            out[metric] = calls[name]
        for metric, name in COUNTS.items():
            out[metric] = self.counts[name]
        out["config.load_ms"] = 1e3 * load_s
        root = self.spans[0]
        out["trace.op_ms"] = 1e3 * (root[3] - root[2])
        out["trace.self_sum_ms"] = 1e3 * sum(self_s)
        return out
