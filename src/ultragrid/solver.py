"""Level-net variational minimization, splitting, and residual verification.

A :class:`ProblemSpec` knows how to build a per-level objective (value and
gradient, optional Hessian, boundary pinning, feasibility) and how to
produce initial guesses.  :func:`solve_net` minimizes level by level with
dyadic warm-start prolongation, :func:`split` decomposes the minimizer net
into a coarse standard part ``w`` plus per-level remainders ``psi``, and
:func:`verify_euler_lagrange` reports strong- and weak-form residuals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

try:
    import resource
except ImportError:  # a platform without getrusage records no peak
    resource = None

import numpy as np

# numpy loads numpy.random on first access; every solve and every check draws
# from it, so it is loaded with the package rather than inside a request
import numpy.random  # noqa: F401

from .calculus import GridFunction, TestFunction, inner, norm, restrict
from .grid import Domain, GridLevel, NodeSet, build_level
from .nets import (
    Classification,
    Net,
    classify,
    coarse_values,
    pointwise_standard_part,
)
from .optimize import OptimizeResult, lbfgs, newton

__all__ = [
    "LevelObjective",
    "ProblemSpec",
    "StartRecord",
    "MinResult",
    "SolutionNet",
    "Splitting",
    "PairingReport",
    "ELReport",
    "prolong",
    "minimize_level",
    "solve_net",
    "split",
    "verify_euler_lagrange",
    "check_gradient",
]

#: Relative optimizer tolerance: converged when ||g||_* <= GTOL_FACTOR * (1 + |f|)
#: at the value ``f`` the optimizer returns.
GTOL_FACTOR = 1e-8
#: Iteration cap per level.
MAX_ITERATIONS = 10_000
#: A coarse node whose values grow strictly in magnitude over the last three
#: levels is singular once it reaches ``SINGULAR_SCALE * h**-SINGULAR_EXPONENT``
#: at the finest one (the finite-level blow-up criterion of :func:`split`).
SINGULAR_SCALE = 1.0
SINGULAR_EXPONENT = 0.5


class LevelObjective:
    """Base class for per-level objectives.

    Subclasses must set ``level`` and implement :meth:`value_and_grad`, and
    may override the Hessian, feasibility, step acceptance, normalization
    and metric hooks.  Gradients are full-length nodal arrays; entries at
    pinned dofs are ignored.  :meth:`precondition` works on free-dof vectors
    instead: it is the solve ``g -> P^-1 g`` of the SPD metric ``P`` that
    L-BFGS starts from, by default the L2 metric ``diag(d)`` of the free
    weights.
    """

    level: GridLevel
    has_hessian: bool = False

    def __init__(self, level: GridLevel) -> None:
        self.level = level
        self.fixed_mask = np.zeros(level.node_count, dtype=bool)
        self.fixed_values = np.zeros(level.node_count)

    # --- required -----------------------------------------------------
    def value_and_grad(self, u: np.ndarray) -> tuple[float, np.ndarray]:
        """``(J(u), grad J(u))``: the value and the full nodal gradient."""
        raise NotImplementedError

    # --- optional hooks -------------------------------------------------
    def hessian(self, u: np.ndarray) -> tuple[list, np.ndarray]:
        """``(blocks, c)``: the Hessian is ``K + diag(c)``, with ``K`` given
        by the upper bands of its uncoupled diagonal blocks on the free dofs,
        ``(nodes, band)`` pairs that do not depend on ``u`` (see
        :func:`~ultragrid.optimize.newton`)."""
        raise NotImplementedError

    def feasible(self, u: np.ndarray) -> bool:
        return True

    def accept_step(self, u_old: np.ndarray, u_new: np.ndarray) -> bool:
        return True

    def normalize(self, u: np.ndarray) -> np.ndarray:
        return u

    def precondition(self, g: np.ndarray) -> np.ndarray:
        return g / self.level.weights[self.free_mask]

    # --- helpers --------------------------------------------------------
    def pin(self, u: np.ndarray) -> np.ndarray:
        out = np.array(u, dtype=float, copy=True).ravel()
        out[self.fixed_mask] = self.fixed_values[self.fixed_mask]
        return out

    @property
    def free_mask(self) -> np.ndarray:
        return ~self.fixed_mask


@dataclass(frozen=True)
class ProblemSpec:
    """A variational problem: objective factory plus initialization policy."""

    name: str
    domain: Domain
    build: Callable[[GridLevel], LevelObjective]
    initial_guesses: Callable[[GridLevel, np.random.Generator, Optional[np.ndarray]], list]
    random_start: Optional[Callable[[GridLevel, np.random.Generator], np.ndarray]] = None
    lower_bound: Optional[float] = None
    battery: tuple[TestFunction, ...] = ()
    diagnostics: Optional[Callable[[LevelObjective, np.ndarray], dict]] = None
    #: Whether per-level values minimize one nested family of energies, so
    #: that warm-started values must be non-increasing.  Problems whose
    #: quadrature changes meaning across levels (e.g. a singular potential
    #: term) opt out: their value net is classified instead of asserted, and
    #: no level starts from the prolonged coarser minimizer.
    monotone_values: bool = True


@dataclass(frozen=True)
class StartRecord:
    """One start of a per-level minimization and where it ended."""

    kind: str  # "warm", "initializer" or "random"
    iterations: int
    value: float
    converged: bool


@dataclass
class MinResult:
    """Outcome of one per-level minimization."""

    level: GridLevel
    u: GridFunction
    value: float
    grad_norm: float
    iterations: int
    converged: bool
    diagnostics: dict = field(default_factory=dict)
    #: Every start in the order it ran; their iterations sum to ``iterations``.
    starts: tuple[StartRecord, ...] = ()
    #: The process's peak resident set size in MiB (``ru_maxrss``, which Linux
    #: counts in KiB) once the level is done: a high-water mark over the whole
    #: process so far, not the level's own use; 0 without ``resource``.
    peak_rss_mb: float = 0.0


def _refine_axis(arr: np.ndarray, axis: int) -> np.ndarray:
    moved = np.moveaxis(arr, axis, 0)
    m = moved.shape[0]
    out = np.empty((2 * m - 1,) + moved.shape[1:], dtype=arr.dtype)
    out[::2] = moved
    out[1::2] = 0.5 * (moved[:-1] + moved[1:])
    return np.moveaxis(out, 0, axis)


def prolong(u: GridFunction, fine: GridLevel) -> GridFunction:
    """Dyadic linear interpolation of ``u`` onto a finer level."""
    if fine.domain != u.level.domain:
        raise ValueError("levels live on different domains")
    steps = round(np.log2(u.level.h / fine.h))
    if steps < 0 or abs(u.level.h - fine.h * 2**steps) > 1e-12 * u.level.h:
        raise ValueError("target level is not a dyadic refinement")
    grid = u.grid_values
    for _ in range(steps):
        for axis in range(u.level.dimension):
            grid = _refine_axis(grid, axis)
    return GridFunction(fine, grid.ravel())


def _run_optimizer(
    obj: LevelObjective, start: np.ndarray, iter_budget: int
) -> OptimizeResult:
    """Run the appropriate optimizer with the self-scaling tolerance.

    The optimizer tests ``||g||_* <= GTOL_FACTOR * (1 + |f|)`` at its current
    value ``f``, so one call decides convergence at the value it returns.
    """
    def gtol(f: float) -> float:
        return GTOL_FACTOR * (1.0 + abs(f))

    x = obj.pin(start)
    weights = obj.level.weights
    free = obj.free_mask
    if obj.has_hessian:
        return newton(
            obj.value_and_grad, obj.hessian, x, weights, free,
            gtol=gtol, max_iter=min(iter_budget, 200), accept=obj.accept_step,
        )
    return lbfgs(
        obj.value_and_grad, x, weights, free,
        gtol=gtol, max_iter=iter_budget, accept=obj.accept_step,
        precondition=obj.precondition,
    )


def minimize_level(
    problem: ProblemSpec,
    level: GridLevel,
    init: GridFunction | np.ndarray | None = None,
    seed: int = 0,
    multistart: int = 3,
) -> MinResult:
    """Minimize the problem on one level from one or more starts.

    ``init`` (a warm start) must satisfy the boundary condition and the
    feasibility predicate; an infeasible explicit ``init`` is a usage error.
    Additional starts come from the problem's initializers and, if provided,
    its random-start generator (seeded, so results are deterministic).
    """
    obj = problem.build(level)
    rng = np.random.default_rng([seed, level.n])

    starts: list[tuple[str, np.ndarray]] = []
    warm = None
    if init is not None:
        warm = init.values if isinstance(init, GridFunction) else np.asarray(init, float)
        warm = obj.pin(warm)
        if not obj.feasible(warm):
            raise ValueError("initial guess violates the feasibility predicate")
        starts.append(("warm", warm))
    for guess in problem.initial_guesses(level, rng, warm):
        arr = obj.pin(np.asarray(guess, dtype=float))
        if obj.feasible(arr):
            starts.append(("initializer", arr))
    if problem.random_start is not None:
        while len(starts) < multistart:
            arr = obj.pin(problem.random_start(level, rng))
            if obj.feasible(arr):
                starts.append(("random", arr))
    if not starts:
        raise ValueError(f"problem {problem.name!r} produced no feasible start")

    best: OptimizeResult | None = None
    records = []
    for kind, start in starts:
        res = _run_optimizer(obj, start, MAX_ITERATIONS)
        records.append(StartRecord(kind, res.iterations, res.value, res.converged))
        if best is None or res.value < best.value:
            best = res

    x = obj.normalize(best.x)
    diagnostics = problem.diagnostics(obj, x) if problem.diagnostics else {}
    return MinResult(
        level=level,
        u=GridFunction(level, x),
        value=best.value,
        grad_norm=best.grad_norm,
        iterations=sum(r.iterations for r in records),
        converged=best.converged,
        diagnostics=diagnostics,
        starts=tuple(records),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if resource else 0.0,
    )


@dataclass
class SolutionNet:
    """Per-level minimization results with net views and health flags."""

    problem: ProblemSpec
    results: tuple[MinResult, ...]
    partial: bool
    monotone_violations: tuple[int, ...]

    def value_net(self) -> Net:
        return Net(tuple((r.level.n, r.value) for r in self.results))

    def minimizer_net(self) -> Net:
        return Net(tuple((r.level.n, r.u) for r in self.results))


def solve_net(
    problem: ProblemSpec,
    levels: Sequence[int],
    seed: int = 0,
    multistart: int = 3,
) -> SolutionNet:
    """Minimize over a chain of at least three levels with warm starting.

    For a nested family of energies (``ProblemSpec.monotone_values``), each
    level after the first also starts from the prolongation of the previous
    level's minimizer, unless it is infeasible there: that start bounds the
    level's value by the previous one.  Nested-space monotonicity
    (``m_{n+1} <= m_n + 1e-10``) is asserted for such a family; a violating
    level is recorded in ``monotone_violations`` and flagged as non-converged
    rather than silently accepted.  If the problem declares a certified lower
    bound, every level value is checked against it.
    """
    level_list = sorted(int(n) for n in levels)
    if len(level_list) < 3:
        raise ValueError("solve_net needs at least three levels")
    # every level up front: one over the node cap fails before any work
    chain = [build_level(problem.domain, n) for n in level_list]

    results: list[MinResult] = []
    violations: list[int] = []
    init: GridFunction | None = None
    for i, level in enumerate(chain):
        if init is not None:
            # a warm start that lost feasibility in prolongation is dropped,
            # not an error (explicit user inits still are)
            obj = problem.build(level)
            if not obj.feasible(obj.pin(init.values)):
                init = None
        res = minimize_level(
            problem, level, init=init, seed=seed, multistart=multistart
        )
        if problem.monotone_values and results and res.value > results[-1].value + 1e-10:
            violations.append(level.n)
            res.converged = False
        if problem.lower_bound is not None and res.value < problem.lower_bound - 1e-10:
            raise RuntimeError(
                f"level {level.n} value {res.value} violates the certified lower bound "
                f"{problem.lower_bound}"
            )
        results.append(res)
        warm = problem.monotone_values and i + 1 < len(chain)
        init = prolong(res.u, chain[i + 1]) if warm else None
    partial = any(not r.converged for r in results)
    return SolutionNet(
        problem=problem,
        results=tuple(results),
        partial=partial,
        monotone_violations=tuple(violations),
    )


@dataclass(frozen=True)
class PairingReport:
    """Pairings of the remainder net against one test function."""

    test_index: int
    values: tuple[float, ...]
    classification: Classification


@dataclass(frozen=True)
class Splitting:
    """Decomposition ``u_n = w + psi_n`` (exact at shared coarse nodes)."""

    w: GridFunction
    singular: NodeSet
    psi: Net
    psi_norms: tuple[tuple[int, float], ...]
    pairings: tuple[PairingReport, ...]


def split(
    solutions: SolutionNet | Net,
    battery: tuple[TestFunction, ...] | None = None,
    **classify_kwargs,
) -> Splitting:
    """Split a minimizer net into its standard part and remainders.

    ``w`` and the singular set come from the pointwise standard part; a node
    is additionally marked singular when its values grow strictly in
    magnitude beyond ``SINGULAR_SCALE * h**-SINGULAR_EXPONENT`` (the
    finite-level blow-up criterion).  ``psi_n = u_n - interp(w)`` with dyadic
    linear interpolation, so the reconstruction is exact at coarse nodes.
    """
    if isinstance(solutions, SolutionNet):
        u_net = solutions.minimizer_net()
        if battery is None:
            battery = solutions.problem.battery
    else:
        u_net = solutions
    battery = battery or ()

    w, singular = pointwise_standard_part(u_net, **classify_kwargs)
    coarse = w.level

    values = coarse_values(u_net)
    hs = np.array(u_net.spacings())
    mags = np.abs(values[-3:])
    blowup = (
        (mags[0] < mags[1])
        & (mags[1] < mags[2])
        & (mags[2] >= SINGULAR_SCALE * hs[-1] ** -SINGULAR_EXPONENT)
    )
    if blowup.any():
        # NodeSet sorts and drops duplicates: the union, without np.union1d
        singular = NodeSet(coarse, np.concatenate((singular.indices, np.flatnonzero(blowup))))
        w_vals = w.values.copy()
        w_vals[singular.indices] = 0.0
        w = GridFunction(coarse, w_vals)

    psi_entries = []
    psi_norms = []
    for n, u in u_net.entries:
        w_fine = prolong(w, u.level)
        psi = GridFunction(u.level, u.values - w_fine.values)
        psi_entries.append((n, psi))
        psi_norms.append((n, norm(psi)))
    psi_net = Net(tuple(psi_entries))

    pairings = []
    for j, phi in enumerate(battery):
        vals = []
        for _n, psi in psi_net.entries:
            phi_grid = restrict(phi.fn, psi.level)
            vals.append(inner(psi, phi_grid))
        number_net = Net(tuple(zip(psi_net.levels, vals)))
        pairings.append(
            PairingReport(
                test_index=j,
                values=tuple(vals),
                classification=classify(number_net, **classify_kwargs),
            )
        )
    return Splitting(
        w=w,
        singular=singular,
        psi=psi_net,
        psi_norms=tuple(psi_norms),
        pairings=tuple(pairings),
    )


@dataclass(frozen=True)
class ELReport:
    """Strong- and weak-form residuals of a result."""

    max_residual: float
    l2_residual: float
    weak_residuals: tuple[float, ...]


def verify_euler_lagrange(problem: ProblemSpec, result: MinResult) -> ELReport:
    """Residual report at a per-level result.

    The strong-form residual is the Riesz residual ``grad / d`` (for the
    singular study, ``-lap u + W'(u)``), evaluated at free nodes only.  Weak
    residuals pair the gradient with the battery.
    """
    obj = problem.build(result.level)
    free = obj.free_mask
    d = result.level.weights
    g = obj.value_and_grad(result.u.values)[1]
    r = (g / d)[free]
    max_res = float(np.max(np.abs(r))) if r.size else 0.0
    l2_res = float(np.sqrt(np.sum(r**2 * d[free])))

    g = np.where(free, g, 0.0)
    weak = []
    for phi in problem.battery:
        phi_grid = restrict(phi.fn, result.level)
        weak.append(float(g @ phi_grid.values))
    return ELReport(max_residual=max_res, l2_residual=l2_res, weak_residuals=tuple(weak))


def check_gradient(
    problem: ProblemSpec,
    level: GridLevel,
    seed: int = 0,
    directions: int = 5,
    eps: float = 1e-6,
) -> float:
    """Max relative error of the analytic gradient against central differences.

    Probes random directions supported on the free dofs around the problem's
    first initializer (nudged to stay feasible).  Used to enforce the
    gradient-consistency invariant of :class:`ProblemSpec`.
    """
    obj = problem.build(level)
    rng = np.random.default_rng([seed, 97, level.n])
    guesses = problem.initial_guesses(level, rng, None)
    u = obj.pin(np.asarray(guesses[-1], dtype=float))
    scale = max(1.0, float(np.max(np.abs(u))))
    # nudge off any symmetry point of the functional, staying feasible
    bumped = u.copy()
    bumped[obj.free_mask] += 0.05 * scale * rng.standard_normal(int(obj.free_mask.sum()))
    if obj.feasible(bumped):
        u = bumped

    worst = 0.0
    g = obj.value_and_grad(u)[1]
    for _ in range(directions):
        v = rng.standard_normal(u.size)
        v[obj.fixed_mask] = 0.0
        v /= max(np.linalg.norm(v), 1e-300)
        step = eps * scale
        up = u + step * v
        dn = u - step * v
        if not (obj.feasible(up) and obj.feasible(dn)):
            continue
        fd = (obj.value_and_grad(up)[0] - obj.value_and_grad(dn)[0]) / (2.0 * step)
        an = float(g @ v)
        denom = max(abs(fd), abs(an), 1e-10)
        worst = max(worst, abs(fd - an) / denom)
    return worst
