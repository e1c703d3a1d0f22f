"""Fuzz the configuration boundary: every JSON config ends in a result or in
exit 2 with one JSON error object on stderr, never in a traceback, and a CSV
that ``traj`` or ``ep`` writes holds no value that is not finite."""

import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cli_cases import refusal, run_in_process

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
#: The lapse normalization, also at magnitudes where the amplitude 1/c1^2 of a
#: closed-form potential is not a normal float (+-1e160, 1e-160, 1e-200).
C1 = LENGTH | st.sampled_from([1e-140, 1e140, -1e160, 1e-160, 1e-200])

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
        "c1": C1,
        "family": st.fixed_dictionaries(
            {"table": st.sampled_from(["T1", "T2", "T3"]), "row": st.integers(1, 6)},
            optional={"lambda": st.sampled_from([0.1, 0.25, 1.0])},
        ),
    },
)

#: Keys a config may lose or have replaced by junk; dotted ones are nested.
KEYS = ("dimension", "a0", "a1", "c1", "seed", "family", "p_grid", "family.table", "family.row",
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
# The inversion strength lambda |a0 a1| p = 1e309 overflows on the grid.
@example(data={"dimension": 3, "a0": 1e150, "a1": 1e150, "family": {"table": "T1", "row": 4},
               "p_grid": {"min": 1e9, "max": 1e10, "count": 5, "spacing": "log"}})
# S'C and SC' overflow to -inf: the slope inf - inf is NaN on every row.
@example(data={"dimension": 3, "a0": -1e150, "a1": -1e150,
               "family": {"table": "T3", "row": 6, "lambda": 0.25},
               "p_grid": {"min": 1e-9, "max": 1e-8, "count": 3, "spacing": "log"}})
# c1 * c1 overflows or underflows: the potential's amplitude is refused by name.
@example(data={"dimension": 3, "a0": 1.0, "a1": 5.0, "c1": 1e160,
               "p_grid": {"min": 0.01, "max": 100.0, "count": 5, "spacing": "log"}})
@example(data={"dimension": 2, "a0": 1.0, "a1": 5.0, "c1": -1e160,
               "p_grid": {"min": 0.01, "max": 100.0, "count": 5, "spacing": "log"}})
@example(data={"dimension": 3, "a0": 1.0, "a1": 5.0, "c1": 1e-160,
               "p_grid": {"min": 0.01, "max": 100.0, "count": 5, "spacing": "log"}})
@example(data={"dimension": 3, "a0": 1.0, "a1": 5.0, "c1": 1e-200,
               "p_grid": {"min": 0.01, "max": 100.0, "count": 5, "spacing": "log"}})
def test_any_config_ends_in_a_result_or_a_json_error(config_path, data):
    config_path.write_text(json.dumps(data))
    for command, allowed in EXIT_CODES.items():
        rc, out, err = run_in_process([command, "--config", str(config_path)])
        assert rc in allowed, (command, rc, err)
        if rc == 0 and command in ("traj", "ep"):
            fields = set(out.replace("\n", ",").split(","))
            assert not fields & {"nan", "inf", "-inf"}, (command, data)
        if rc == 2:
            refusal(rc, out, err)
