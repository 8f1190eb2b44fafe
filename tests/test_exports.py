"""The package's exports: every name a module lists in ``__all__``, and
every name ``ultragrid/__init__.py`` imports, resolves."""

import ast
import importlib
import pathlib

import pytest

import ultragrid

INIT = pathlib.Path(ultragrid.__file__)
MODULES = ["calculus", "cli", "elements", "grid", "measure", "nets", "optimize",
           "problems", "solver"]


def _package_imports():
    tree = ast.parse(INIT.read_text(encoding="utf-8"))
    return [(node.module, alias.name) for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"ultragrid.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_every_package_import_resolves():
    imports = _package_imports()
    assert len(imports) > 50
    for module, name in imports:
        assert hasattr(importlib.import_module(f"ultragrid.{module}"), name), (module, name)
        assert hasattr(ultragrid, name), name


def test_the_module_list_is_complete():
    assert sorted(p.stem for p in INIT.parent.glob("*.py") if p.stem != "__init__") == MODULES
