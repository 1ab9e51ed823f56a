import ast
import importlib
from pathlib import Path

import pytest

import coxkl


@pytest.mark.parametrize(
    "name", ["coxkl", "coxkl.laurent", "coxkl.coxeter", "coxkl.hecke", "coxkl.blocks", "coxkl.lefschetz", "coxkl.cli"]
)
def test_star_import_binds_all(name):
    # A stale name in __all__ breaks `from name import *`; every listed name
    # must be bound, and listed once.
    namespace = {}
    exec(f"from {name} import *", namespace)
    exported = importlib.import_module(name).__all__
    assert len(set(exported)) == len(exported)
    assert set(exported) <= namespace.keys()


def test_package_has_no_assert():
    # `python -O` strips assert statements, so every guard in the package is
    # an explicit raise.
    src = Path(coxkl.__file__).parent
    modules = sorted(src.glob("*.py"))
    assert len(modules) >= 8
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not lines, f"{path.name} asserts on lines {lines}"
