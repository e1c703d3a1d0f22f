"""The benchmark's span tracer (``bench/spans.py``) wraps every function and
method it lists, traces a ``verify`` op, and restores the originals."""

import importlib
import importlib.util
import json
from pathlib import Path

from torus_scatter import cli

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _listed_methods(spans) -> dict:
    """(class, method name) -> the class's own attribute, for every listed method."""
    out = {}
    for mod_name, classes in spans.METHODS.items():
        mod = importlib.import_module(f"torus_scatter.{mod_name}")
        for cls_name, methods in classes.items():
            cls = getattr(mod, cls_name)
            for meth in methods:
                out[(cls, meth)] = cls.__dict__[meth]
    return out


def test_tracer_wraps_every_listed_name_and_restores_it(tmp_path, capsys):
    spans = _spans_module()
    originals = _listed_methods(spans)
    cfg = tmp_path / "quarter.json"
    cfg.write_text(json.dumps({
        "dimension": 3, "a0": -1.0, "a1": -5.0,
        "family": {"table": "T3", "row": 6, "lambda": 0.25},
        "p_grid": {"min": 0.01, "max": 100.0, "count": 41, "spacing": "log"},
    }))
    tracer = spans.Tracer()
    with tracer.installed():
        assert all(cls.__dict__[meth] is not raw for (cls, meth), raw in originals.items())
        code, layers = tracer.op(
            lambda: cli.main(["verify", "--suite", "all", "--config", str(cfg)])
        )
    assert code == 0
    assert json.loads(capsys.readouterr().out)["pass"] is True
    names = {name for _parent, name, _t0, _t1 in tracer.spans}
    assert {
        "cli.main", "config.RunConfig.load", "torus.sample_trajectory", "uvir.verify_density_map",
        "geometry.eom_residual", "geometry.GeometricPotential.singular_mask",
    } <= names
    assert layers["uvir.density_map.self_ms"] > 0.0 and layers["trace.op_ms"] > 0.0
    assert _listed_methods(spans) == originals
    assert not hasattr(cli.main, "__wrapped__")


def test_tracer_sees_the_traj_labelling(tmp_path):
    """A traced ``traj`` op labels its quadrants through
    ``Trajectory.quadrants``, so the quadrant layer counts every grid point."""
    spans = _spans_module()
    cfg = tmp_path / "traj.json"
    cfg.write_text(json.dumps({
        "dimension": 3, "a0": 1.0, "a1": 5.0,
        "p_grid": {"min": 0.01, "max": 100.0, "count": 41, "spacing": "log"},
    }))
    out = tmp_path / "traj.csv"
    tracer = spans.Tracer()
    with tracer.installed():
        code, layers = tracer.op(
            lambda: cli.main(["traj", "--config", str(cfg), "--out", str(out)])
        )
    assert code == 0
    assert len(out.read_text(encoding="utf-8").splitlines()) == 1 + 41
    names = {name for _parent, name, _t0, _t1 in tracer.spans}
    assert {"cli.main", "torus.sample_trajectory", "torus.Trajectory.quadrants"} <= names
    assert layers["torus.quadrants.points"] == 41
    assert layers["torus.quadrants.self_ms"] > 0.0
