"""Every exported name resolves, and none is listed twice."""

import importlib

import pytest

MODULES = ["analysis", "circulant", "graphs", "linalg", "svgplot", "synthesis", "verification"]


@pytest.mark.parametrize("module", ["lapsig"] + [f"lapsig.{m}" for m in MODULES])
def test_all_names_resolve_once(module):
    mod = importlib.import_module(module)
    names = mod.__all__
    assert len(names) == len(set(names)), [n for n in names if names.count(n) > 1]
    missing = [name for name in names if not hasattr(mod, name)]
    assert not missing
