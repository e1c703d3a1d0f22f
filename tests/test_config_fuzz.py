"""Fuzz the configuration boundary: every JSON config ends in a result or in
exit 2 with one JSON error object on stderr, never in a traceback."""

import contextlib
import io
import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from torus_scatter import cli

#: Values of the wrong kind for any key.  Numbers stay within [-200, 200], so
#: a junk ``count`` that happens to be integral still builds a small grid.
JUNK = st.one_of(
    st.booleans(),
    st.none(),
    st.text(max_size=3),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0]),
    st.floats(-200.0, 200.0),
    st.integers(-3, 200),
    st.lists(st.integers(0, 3), max_size=2),
)

LENGTH = st.floats(0.2, 20.0) | st.floats(-20.0, -0.2)

BASE = st.fixed_dictionaries(
    {
        "dimension": st.sampled_from([2, 3]),
        "a0": LENGTH,
        "a1": LENGTH,
        "p_grid": st.fixed_dictionaries(
            {"min": st.floats(1e-3, 1.0), "max": st.floats(1.0, 1e3),
             "count": st.integers(2, 200)},
            optional={"spacing": st.sampled_from(["log", "linear"])},
        ),
    },
    optional={
        "seed": st.integers(0, 10),
        "family": st.fixed_dictionaries(
            {"table": st.sampled_from(["T1", "T2", "T3"]), "row": st.integers(1, 6)},
            optional={"lambda": st.sampled_from([0.1, 0.25, 1.0])},
        ),
    },
)

#: Keys a config may lose or have replaced by junk; dotted ones are nested.
KEYS = ("dimension", "a0", "a1", "seed", "family", "p_grid", "family.table", "family.row",
        "family.lambda", "p_grid.min", "p_grid.max", "p_grid.count", "p_grid.spacing")


@st.composite
def configs(draw):
    """A config drawn in range, with up to two keys dropped or set to junk."""
    data = draw(BASE)
    for key in draw(st.lists(st.sampled_from(KEYS), max_size=2, unique=True)):
        *outer, name = key.split(".")
        target = data[outer[0]] if outer and isinstance(data.get(outer[0]), dict) else data
        if outer and target is data:
            continue
        if draw(st.booleans()):
            target.pop(name, None)
        else:
            target[name] = draw(JUNK)
    return data


EXIT_CODES = {"traj": {0, 2}, "ep": {0, 2}, "verify": {0, 1, 2}}


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "cfg.json"


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=configs())
# Dimensionless magnitudes outside float64: 2D a0 p = 1e310, 3D a0 p = 1e350.
@example(data={"dimension": 2, "a0": 1e300, "a1": 2e-300,
               "p_grid": {"min": 1e-10, "max": 1e10, "count": 5, "spacing": "log"}})
@example(data={"dimension": 3, "a0": 1e200, "a1": -3e200,
               "p_grid": {"min": 1e150, "max": 1e200, "count": 5, "spacing": "log"}})
def test_any_config_ends_in_a_result_or_a_json_error(config_path, data):
    config_path.write_text(json.dumps(data))
    for command, allowed in EXIT_CODES.items():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main([command, "--config", str(config_path)])
        assert rc in allowed, (command, rc, err.getvalue())
        if rc == 2:
            assert out.getvalue() == ""
            lines = err.getvalue().splitlines()
            assert len(lines) == 1, err.getvalue()
            assert set(json.loads(lines[0])) == {"error"}
