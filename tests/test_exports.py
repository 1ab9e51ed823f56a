import importlib

import pytest


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
