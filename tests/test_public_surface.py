"""Each module's ``__all__`` lists exactly what the module defines in public,
and the package namespace holds the README quick start's names and the two
error types."""

import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import cumasim

# __main__ runs the CLI only when run as a script, so it imports like the rest
MODULES = sorted(m.name for m in pkgutil.iter_modules(cumasim.__path__))


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


def test_package_namespace_is_the_quick_start():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    quick_start = re.search(r"^from cumasim import \((.*?)\)", readme, flags=re.DOTALL | re.MULTILINE).group(1)
    expected = {name.strip() for name in quick_start.split(",") if name.strip()}
    public = {n for n, v in vars(cumasim).items() if not n.startswith("_") and not inspect.ismodule(v)}
    assert public == expected | {"DomainError", "QuadratureError"}
