"""The benchmark's tracer targets must all exist in the package.

``perfbench/tracing.py`` wraps functions and methods of ``ultragrid`` by
name; a rename in ``src/`` would make a traced benchmark run fail at start.
The tracing module is only loaded here, never installed.
"""

import importlib
import importlib.util
import pathlib

import pytest

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_function_targets_resolve(tracing):
    for mod_name, attr, _name, _attrs in tracing.FUNCTION_TARGETS:
        module = importlib.import_module(mod_name)
        assert callable(getattr(module, attr, None)), f"{mod_name}.{attr}"


def test_method_targets_resolve(tracing):
    for mod_name, cls_name, method, _name, _attrs in tracing.METHOD_TARGETS:
        cls = getattr(importlib.import_module(mod_name), cls_name, None)
        assert cls is not None, f"{mod_name}.{cls_name}"
        assert callable(getattr(cls, method, None)), f"{cls_name}.{method}"


def test_spec_factories_resolve(tracing):
    cli = importlib.import_module("ultragrid.cli")
    for factory in tracing.SPEC_FACTORIES:
        assert callable(getattr(cli, factory, None)), f"ultragrid.cli.{factory}"


def test_spsolve_target_resolves():
    # the tracer swaps ``ultragrid.optimize.spla`` for a copy whose
    # ``spsolve`` is wrapped; the harmonic start must go through it
    optimize = importlib.import_module("ultragrid.optimize")
    assert callable(getattr(optimize.spla, "spsolve", None))
