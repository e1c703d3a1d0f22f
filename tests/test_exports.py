"""Every exported name resolves, and no export list repeats a name."""

import importlib
import pkgutil

import pytest

import torus_scatter

MODULES = tuple(m.name for m in pkgutil.iter_modules(torus_scatter.__path__))


@pytest.mark.parametrize("name", ("", *MODULES))
def test_all_resolves_without_duplicates(name):
    mod = importlib.import_module(f"torus_scatter.{name}" if name else "torus_scatter")
    exported = mod.__all__
    assert len(exported) == len(set(exported))
    missing = [attr for attr in exported if not hasattr(mod, attr)]
    assert missing == []
