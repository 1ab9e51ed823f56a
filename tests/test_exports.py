import ast
import importlib
import sys
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


def _scoped(node, scope=()):
    # (scope, node) for each node under node; the scope names the enclosing
    # classes and functions, or the target of a module-level assignment.
    for child in ast.iter_child_nodes(node):
        yield scope, child
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = (*scope, child.name)
        elif isinstance(child, ast.Assign) and not scope:
            inner = tuple(t.id for t in child.targets if isinstance(t, ast.Name))
        yield from _scoped(child, inner)


def test_package_has_one_json_encoder():
    # Every JSON byte the package writes comes from hecke._dumps: the cache,
    # DimTable.to_json and every printed line.  The fingerprint alone keeps
    # json.dumps, with the default separators its hash was taken over.
    src = Path(coxkl.__file__).parent
    found = set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        imports = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) and n.module == "json"]
        assert not imports, f"{path.name} imports names from json on lines {imports}"
        for scope, n in _scoped(tree):  # a call, or a reference passed on to be called
            if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id == "json":
                if n.attr in ("dumps", "JSONEncoder"):
                    found.add(".".join((path.stem, *scope)))
    assert found == {"hecke._dumps", "coxeter.CoxeterSystem.fingerprint"}


def test_laurent_constructor_adds_through_acc():
    # _acc is the package's one coefficient loop: LaurentPoly.__init__ checks
    # each pair's type and adds it through _acc, writing no entry itself.
    tree = ast.parse(Path(coxkl.laurent.__file__).read_text(encoding="utf-8"))
    (cls,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "LaurentPoly"]
    (init,) = [n for n in cls.body if isinstance(n, ast.FunctionDef) and n.name == "__init__"]
    called = {n.func.id for n in ast.walk(init) if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)}
    assert "_acc" in called
    writes = [n.lineno for n in ast.walk(init)
              if isinstance(n, ast.Delete) or isinstance(n, ast.Subscript) and not isinstance(n.ctx, ast.Load)]
    assert not writes, f"LaurentPoly.__init__ writes coefficients itself on lines {writes}"


def test_package_exports_its_modules_all():
    # Each module's __all__ is the one list of what it exports: the package
    # star-imports the layers and concatenates their lists, naming no public
    # name a second time.
    layers = [coxkl.laurent, coxkl.coxeter, coxkl.hecke, coxkl.blocks, coxkl.lefschetz]
    assert coxkl.__all__ == [name for module in layers for name in module.__all__]
    tree = ast.parse(Path(coxkl.__file__).read_text(encoding="utf-8"))
    named = [(n.lineno, a.name) for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names]
    assert all(name == "*" for _, name in named), f"__init__.py imports by name: {named}"


def test_package_imports_only_the_standard_library():
    # The engine is pure stdlib: every module imports the standard library or
    # its own package, so never the benchmark harness (perfbench), which patches it.
    src = Path(coxkl.__file__).parent
    modules = sorted(src.glob("*.py"))
    assert len(modules) >= 8
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found = [(n.lineno, a.name) for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names]
        found += [(n.lineno, n.module) for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) and not n.level]
        outside = [(line, name) for line, name in found if name.split(".")[0] not in {*sys.stdlib_module_names, "coxkl"}]
        assert not outside, f"{path.name} imports from outside the standard library: {outside}"
        # Nor by name at run time, which the check above cannot see.
        called = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Call)
                  and (getattr(n.func, "id", None) == "__import__" or getattr(n.func, "attr", None) == "import_module")]
        assert not called, f"{path.name} imports by name at run time on lines {called}"
