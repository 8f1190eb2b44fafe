"""The benchmark's tracer targets must all exist in the package.

``perfbench/tracing.py`` wraps functions and methods of ``ultragrid`` by
name; a rename in ``src/`` would make a traced benchmark run fail at start.
The tracing module is only loaded here, and installed only in the fresh
interpreter of the traced-workload test.
"""

import importlib
import importlib.util
import json
import os
import pathlib
import subprocess
import sys

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


_LAZY_SPLA = """
import sys
import ultragrid.optimize as optimize
print("scipy" in sys.modules)
import scipy.sparse.linalg
print(optimize.spla.spsolve is scipy.sparse.linalg.spsolve)
"""


def test_spsolve_target_loads_scipy_on_first_access():
    # ``spla`` is resolved lazily: importing the module loads no scipy, and
    # the first access gives scipy's own spsolve for the tracer to wrap
    src = str(pathlib.Path(importlib.import_module("ultragrid").__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", _LAZY_SPLA],
                          capture_output=True, text=True, check=True, env=env)
    assert proc.stdout.split() == ["False", "True"]


def test_minimize_quadratic_calls_the_module_spla(monkeypatch):
    # the tracer replaces the module global ``spla``; the harmonic start of
    # the singular study must look it up there at call time
    optimize = importlib.import_module("ultragrid.optimize")
    problems = importlib.import_module("ultragrid.problems")
    grid = importlib.import_module("ultragrid.grid")
    calls = []
    real = optimize.spla

    class Spy:
        def spsolve(self, *args):
            calls.append(args)
            return real.spsolve(*args)

    monkeypatch.setattr(optimize, "spla", Spy())
    spec = problems.singular_spec()
    spec.initial_guesses(grid.build_level(spec.domain, 3))
    # one solve per parity block with nonzero data: the odd-odd block of a
    # 2D level has none
    assert len(calls) == 3


_TRACED_WORKLOADS = """
import json
import pathlib
import sys

bench, out = pathlib.Path(sys.argv[1]), pathlib.Path(sys.argv[2])
sys.path.insert(0, str(bench))
import run
import tracing
import ultragrid.cli as cli

tracer = tracing.Tracer(1)
tracer.install()
report = {}
for name, spec in run.WORKLOADS.items():
    del tracer.spans[:]
    work = out / name
    work.mkdir()
    config = work / "config.json"
    config.write_text(json.dumps(spec["config"](1)), encoding="utf-8")
    argv = spec["args"] + ["--config", str(config), "--out", str(work / "out")]
    (work / "out").mkdir()
    code = tracer.wrap("cli.main", cli.main)(argv)
    counts = tracing.span_counts(tracer.spans)
    report[name] = {
        "exit": code,
        "never_fired": [n for n in spec["fires"] if not counts.get(n)],
        "fired": [n for n in spec["silent"] if counts.get(n)],
    }
print(json.dumps(report))
"""


def test_traced_workloads_fire_their_spans(tmp_path):
    # the benchmark's traced self-test, once per workload at seed 1, in one
    # fresh interpreter: every span a workload must fire fires and every span
    # it must not fire stays silent
    src = str(pathlib.Path(importlib.import_module("ultragrid").__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", _TRACED_WORKLOADS, str(TRACING.parent), str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report
    for name, got in report.items():
        assert got == {"exit": 0, "never_fired": [], "fired": []}, name
