"""One definition per public name: each module exports only what it defines,
and the package itself re-exports nothing."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import hlslab

MODULES = sorted(m.name for m in pkgutil.iter_modules(hlslab.__path__))


def _top_level_definitions(path: Path) -> set[str]:
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


@pytest.mark.parametrize("name", MODULES)
def test_all_lists_only_names_defined_in_the_module(name):
    module = importlib.import_module(f"hlslab.{name}")
    defined = _top_level_definitions(Path(module.__file__))
    imported = [n for n in getattr(module, "__all__", ()) if n not in defined]
    assert imported == [], f"hlslab.{name}.__all__ lists names it does not define"


def test_package_binds_no_function_or_class():
    bound = [
        n for n, v in vars(hlslab).items() if inspect.isfunction(v) or inspect.isclass(v)
    ]
    assert bound == []


def test_package_has_no_assert_statement():
    # python -O strips asserts, so a check in the package must raise instead
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(hlslab.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
