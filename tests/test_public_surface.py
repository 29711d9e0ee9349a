"""Each module's ``__all__`` lists exactly what the module defines in public."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import cumasim

# __main__ runs the CLI on import and defines nothing
MODULES = sorted(m.name for m in pkgutil.iter_modules(cumasim.__path__) if m.name != "__main__")


def public_definitions(path):
    """Top-level classes, functions and assigned names without a leading underscore."""
    names = set()
    for node in ast.parse(Path(path).read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return {n for n in names if not n.startswith("_")}


def test_every_module_is_checked():
    assert {"analytic", "approx", "cli", "geometry", "harness", "montecarlo", "specfun"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_lists_every_public_definition(name):
    mod = importlib.import_module(f"cumasim.{name}")
    exported = set(getattr(mod, "__all__", ()))
    assert public_definitions(mod.__file__) - exported == set()
    assert [n for n in exported if not hasattr(mod, n)] == []
