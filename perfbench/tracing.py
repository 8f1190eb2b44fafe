"""Span tracing of ultragrid's layers from outside the package.

:meth:`Tracer.install` replaces each traced function at the name its caller
looks it up (``ultragrid.solver.lbfgs``, ``ultragrid.problems.apply_axis``,
``LevelObjective.value_and_grad`` on the class, ...) with a wrapper that
records a span.  Nothing under ``src/`` is edited, and a target that no
longer exists raises at install time instead of silently recording nothing.

A span is ``[name, start, end, parent, run_id, attrs]``: ``parent`` is the
index of the enclosing span (-1 for the root) and ``attrs`` carries the few
values a metric needs (the level of an objective evaluation, the bytes an
axis application reads and writes, ...).  Spans stay in memory until the
child process writes them out.  :func:`layer_metrics` turns the spans of one
run into the per-layer metrics; a layer's self time is its spans' durations
minus the durations of their child spans.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import statistics
import time
import types

#: The package's modules, one layer each; a span's layer is its name prefix.
LAYERS = (
    "grid", "calculus", "elements", "measure", "nets",
    "optimize", "solver", "problems", "cli",
)

#: Levels whose minimization time is reported as ``solver.level_s.L<n>``.
REPORTED_LEVELS = range(3, 13)


def _level_of(args, kwargs, out):
    level = kwargs["level"] if "level" in kwargs else args[1]
    return {"level": int(level.n)}


def _objective_level(args, kwargs, out):
    return {"level": int(args[0].level.n)}


def _axis_bytes(args, kwargs, out):
    # computed from array shapes: the operand read plus the result written
    return {"bytes": int(args[1].nbytes + out.nbytes)}


def _iterations(args, kwargs, out):
    return {"iterations": int(out.iterations)}


def _region(args, kwargs, out):
    return {"region": type(args[0]).__name__}


#: (module, attribute, span name, attrs) for module-level functions, wrapped
#: in the namespace of the module that calls them.
FUNCTION_TARGETS = (
    ("ultragrid.cli", "solve_net", "solver.solve_net", None),
    ("ultragrid.cli", "split", "solver.split", None),
    ("ultragrid.cli", "verify_euler_lagrange", "solver.verify_euler_lagrange", None),
    ("ultragrid.cli", "prolong", "solver.prolong", None),
    ("ultragrid.solver", "prolong", "solver.prolong", None),
    ("ultragrid.solver", "minimize_level", "solver.minimize_level", _level_of),
    ("ultragrid.solver", "lbfgs", "optimize.lbfgs", _iterations),
    ("ultragrid.solver", "newton", "optimize.newton", _iterations),
    ("ultragrid.solver", "build_level", "grid.build_level", None),
    ("ultragrid.cli", "build_level", "grid.build_level", None),
    ("ultragrid.solver", "classify", "nets.classify", None),
    ("ultragrid.cli", "classify", "nets.classify", None),
    ("ultragrid.solver", "pointwise_standard_part", "nets.pointwise_standard_part", None),
    ("ultragrid.problems", "apply_axis", "elements.apply_axis", _axis_bytes),
    ("ultragrid.problems", "perimeter", "measure.perimeter", None),
    ("ultragrid.cli", "perimeter", "measure.perimeter", None),
    ("ultragrid.cli", "density", "measure.density", _region),
    ("ultragrid.measure", "density", "measure.density", _region),
    ("ultragrid.cli", "gauss_check", "measure.gauss_check", None),
)

#: (module, class, method, span name, attrs) wrapped on the class and on
#: every subclass that overrides the method.
METHOD_TARGETS = (
    ("ultragrid.calculus", "DiffOp", "apply", "calculus.diffop_apply", None),
    ("ultragrid.calculus", "DiffOp", "apply_transpose", "calculus.diffop_apply", None),
    ("ultragrid.solver", "LevelObjective", "value_and_grad", "problems.vag", _objective_level),
    ("ultragrid.solver", "LevelObjective", "hessian", "problems.hessian", None),
)

#: Factories in ``ultragrid.cli`` whose ProblemSpec gets traced ``build`` and
#: ``diagnostics`` callables.
SPEC_FACTORIES = ("sawtooth_spec", "sign_perturbed_spec", "singular_spec")


class Tracer:
    """Records nested spans of one traced run in memory."""

    def __init__(self, run_id: int) -> None:
        self.run_id = run_id
        self.spans: list = []
        self._stack: list[int] = []

    def wrap(self, name, fn, attrs=None):
        """``fn`` with a span around each call.

        A call made directly inside a span of the same name (an override
        calling ``super()``) records no second span, so counts stay per call.
        """
        spans, stack, run_id = self.spans, self._stack, self.run_id

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            rec = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, run_id, {}]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if attrs is not None:
                rec[5] = attrs(args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        """Wrap every target; raises if one no longer exists."""
        for mod_name, attr, name, attrs in FUNCTION_TARGETS:
            mod = importlib.import_module(mod_name)
            setattr(mod, attr, self.wrap(name, getattr(mod, attr), attrs))

        importlib.import_module("ultragrid.problems")  # defines the objectives
        for mod_name, cls_name, method, name, attrs in METHOD_TARGETS:
            cls = getattr(importlib.import_module(mod_name), cls_name)
            for c in [cls] + _subclasses(cls):
                if method in vars(c):
                    setattr(c, method, self.wrap(name, vars(c)[method], attrs))

        # scipy's spsolve as ultragrid.optimize looks it up (``spla.spsolve``)
        optimize = importlib.import_module("ultragrid.optimize")
        spla = types.ModuleType(optimize.spla.__name__)
        spla.__dict__.update(vars(optimize.spla))
        spla.spsolve = self.wrap("optimize.spsolve", optimize.spla.spsolve)
        optimize.spla = spla

        cli = importlib.import_module("ultragrid.cli")
        for factory in SPEC_FACTORIES:
            setattr(cli, factory, self._traced_spec_factory(getattr(cli, factory)))

    def _traced_spec_factory(self, factory):
        @functools.wraps(factory)
        def make(*args, **kwargs):
            spec = factory(*args, **kwargs)
            changes = {"build": self.wrap("problems.build", spec.build)}
            if spec.diagnostics is not None:
                changes["diagnostics"] = self.wrap("problems.diagnostics", spec.diagnostics)
            return dataclasses.replace(spec, **changes)

        return make


def _subclasses(cls) -> list:
    out = []
    for sub in cls.__subclasses__():
        out += [sub] + _subclasses(sub)
    return out


# ---------------------------------------------------------------------------
# per-layer metrics of one traced run
# ---------------------------------------------------------------------------


def span_counts(spans) -> dict[str, int]:
    """Number of spans per name."""
    counts: dict[str, int] = {}
    for s in spans:
        counts[s[0]] = counts.get(s[0], 0) + 1
    return counts


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer counts and times of one traced run (see ``perfbench/README.md``)."""
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
    self_time = [d - c for d, c in zip(dur, child)]

    def named(*names):
        return [i for i, s in enumerate(spans) if s[0] in names]

    def total(idx):
        return sum(dur[i] for i in idx)

    m: dict[str, float] = {}
    vag = named("problems.vag")
    axis = named("elements.apply_axis")
    opt = named("optimize.lbfgs", "optimize.newton")
    opt_set = set(opt)
    m["problems.vag_calls"] = len(vag)
    m["problems.vag_s"] = total(vag)
    finest = max((spans[i][5]["level"] for i in vag), default=None)
    m["problems.vag_ms_finest"] = (
        1e3 * statistics.median(dur[i] for i in vag if spans[i][5]["level"] == finest)
        if vag else 0.0
    )
    m["elements.apply_axis_calls"] = len(axis)
    m["elements.apply_axis_s"] = total(axis)
    axis_bytes = sum(spans[i][5]["bytes"] for i in axis)
    m["elements.bytes_per_vag_computed"] = axis_bytes / len(vag) if vag else 0.0

    iterations = sum(spans[i][5]["iterations"] for i in opt)
    evals = sum(1 for i in vag if spans[i][3] in opt_set)
    m["optimize.runs"] = len(opt)
    m["optimize.iterations"] = iterations
    m["optimize.evals_per_iter"] = evals / iterations if iterations else 0.0
    spsolve = named("optimize.spsolve")
    m["optimize.spsolve_calls"] = len(spsolve)
    m["optimize.spsolve_s"] = total(spsolve)

    build = named("problems.build")
    m["problems.build_calls"] = len(build)
    m["problems.build_s"] = total(build)
    m["problems.diagnostics_s"] = total(named("problems.diagnostics"))
    m["grid.build_level_calls"] = len(named("grid.build_level"))

    diffop = named("calculus.diffop_apply")
    m["calculus.diffop_calls"] = len(diffop)
    m["calculus.diffop_s"] = total(diffop)

    density = named("measure.density")
    m["measure.density_calls"] = len(density)
    m["measure.nodemask_density_s"] = total(
        i for i in density if spans[i][5]["region"] == "NodeMask"
    )
    m["measure.perimeter_s"] = total(named("measure.perimeter"))
    m["measure.gauss_check_s"] = total(named("measure.gauss_check"))

    per_level = {n: 0.0 for n in REPORTED_LEVELS}
    for i in named("solver.minimize_level"):
        n = spans[i][5]["level"]
        per_level[n] = per_level.get(n, 0.0) + dur[i]
    for n in REPORTED_LEVELS:
        m[f"solver.level_s.L{n}"] = per_level[n]
    m["solver.prolong_s"] = total(named("solver.prolong"))
    m["solver.split_s"] = total(named("solver.split"))
    m["solver.verify_el_s"] = total(named("solver.verify_euler_lagrange"))

    m["nets.classify_calls"] = len(named("nets.classify"))
    m["nets.pointwise_s"] = total(named("nets.pointwise_standard_part"))

    layer_self = {layer: 0.0 for layer in LAYERS}
    for s, t in zip(spans, self_time):
        layer_self[s[0].split(".", 1)[0]] += t
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
    return m
