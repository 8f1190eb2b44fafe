"""Level-net variational minimization, splitting, and residual verification.

A :class:`ProblemSpec` knows how to build a per-level objective (value and
gradient, optional Hessian, boundary pinning, feasibility) and how to
produce initial guesses.  :func:`solve_net` minimizes level by level with
dyadic warm-start prolongation, :func:`split` decomposes the minimizer net
into a coarse standard part ``w`` plus per-level remainders ``psi``, of
which it reports norms and test-function pairings, and
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

from .calculus import GridFunction, inner, norm, restrict, standard_battery
from .grid import Domain, GridLevel, NodeSet, build_level
from .nets import Classification, Net, classify, pointwise_standard_part
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
]

#: Relative optimizer tolerance: converged when ||g||_* <= GTOL_FACTOR * (1 + |f|)
#: at the value ``f`` the optimizer returns.
GTOL_FACTOR = 1e-8
#: Iteration cap of each L-BFGS start (a level may run several starts).
MAX_ITERATIONS = 10_000
#: Iteration cap of each Newton start.
NEWTON_MAX_ITERATIONS = 200


class LevelObjective:
    """Base class for per-level objectives.

    ``boundary`` is the Dirichlet data of ``level``: ``None`` pins no node;
    otherwise every node of ``level.boundary_mask`` is pinned to it, a number
    or a node vector whose entries off the boundary are not read.
    ``fixed_mask`` is the level's own read-only mask, shared, not copied,
    and ``free_mask`` its complement, taken once.

    Subclasses implement :meth:`value_and_grad`, and may override the
    Hessian, feasibility, step acceptance, normalization and metric hooks.
    An objective with ``has_hessian`` set is minimized by Newton, which
    :meth:`accept_step` may veto steps of, on node vectors: it keeps the
    default maps below, and its gradients are full-length nodal arrays
    whose entries at pinned dofs are ignored.
    Any other is minimized by L-BFGS on the optimizer's vector, which
    :meth:`dofs` maps a node vector to and :meth:`nodes` maps back, pinned;
    :meth:`value_and_grad` then takes and returns that vector.  L-BFGS reads
    its entries where ``dof_free`` is set and weighs them by
    ``dof_weights`` in the dual norm.  By default the optimizer's vector is
    the node vector itself, with the level's weights and ``free_mask``.
    :meth:`precondition` works on its free entries: it is the solve
    ``g -> P^-1 g`` of the SPD metric ``P`` that L-BFGS starts from, by
    default the L2 metric ``diag(d)`` of the free weights.
    """

    has_hessian: bool = False

    def __init__(self, level: GridLevel, boundary: float | np.ndarray | None = None) -> None:
        self.level = level
        shape = (level.node_count,)
        # a free level's mask and constant data are zero-stride views: no
        # node vector is stored for them
        if boundary is None:
            self.fixed_mask, boundary = np.broadcast_to(False, shape), 0.0
        else:
            self.fixed_mask = level.boundary_mask
        self.fixed_values = np.broadcast_to(np.asarray(boundary, dtype=float), shape)
        self.free_mask = ~self.fixed_mask
        self.dof_weights, self.dof_free = level.weights, self.free_mask

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
        return g / self.dof_weights[self.dof_free]

    def dofs(self, u: np.ndarray) -> np.ndarray:
        """The optimizer's vector of the node vector ``u``."""
        return u

    def nodes(self, x: np.ndarray) -> np.ndarray:
        """The pinned node vector of the optimizer's vector ``x``."""
        return x

    # --- helpers --------------------------------------------------------
    def pin(self, u: np.ndarray) -> np.ndarray:
        out = np.array(u, dtype=float, copy=True).ravel()
        out[self.fixed_mask] = self.fixed_values[self.fixed_mask]
        return out


@dataclass(frozen=True)
class ProblemSpec:
    """A variational problem: objective factory plus initialization policy.
    Its results pair with ``standard_battery(domain)`` in :func:`split`
    and :func:`verify_euler_lagrange`.

    ``initial_guesses(level)`` lists the starts of a level that has no warm
    start: the first level of every study, and every level of a study whose
    values are not nested.  Every start, pinned, must satisfy the
    objective's feasibility predicate: :func:`minimize_level` raises
    ``ValueError`` at the first that does not."""

    name: str
    domain: Domain
    build: Callable[[GridLevel], LevelObjective]
    initial_guesses: Callable[[GridLevel], list]
    lower_bound: Optional[float] = None
    diagnostics: Optional[Callable[[LevelObjective, np.ndarray], dict]] = None
    #: Whether the levels nest: the prolonged coarser minimizer keeps its
    #: value on the finer level, so that it bounds the finer level's minimum
    #: and values must be non-increasing.  Only then does a level after the
    #: first run that warm start, and only it.  A study opts out when the
    #: prolongation does not keep the value (the sawtooth's grid-scale
    #: oscillation) or its quadrature changes meaning across levels (a
    #: singular potential term): its value net is classified instead of
    #: asserted, and every level runs the study's initializers.
    monotone_values: bool = True


@dataclass(frozen=True)
class StartRecord:
    """One start of a per-level minimization and where it ended."""

    kind: str  # "warm" or "initializer"
    iterations: int
    value: float
    converged: bool


@dataclass
class MinResult:
    """Outcome of one per-level minimization: the best start's minimizer
    ``u``, its value, gradient norm and ``converged``, the optimizer's
    verdict of the gradient test."""

    u: GridFunction
    value: float
    grad_norm: float
    converged: bool
    diagnostics: dict = field(default_factory=dict)
    #: Every start in the order it ran.
    starts: tuple[StartRecord, ...] = ()
    #: The process's peak resident set size in MiB (``ru_maxrss``, which Linux
    #: counts in KiB) once the level is done: a high-water mark over the whole
    #: process so far, not the level's own use; 0 without ``resource``.
    peak_rss_mb: float = 0.0

    @property
    def level(self) -> GridLevel:
        return self.u.level

    @property
    def iterations(self) -> int:
        """The iterations of every start of the level."""
        return sum(r.iterations for r in self.starts)


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


def _run_optimizer(obj: LevelObjective, x: np.ndarray) -> OptimizeResult:
    """Run the appropriate optimizer from the pinned start ``x`` with the
    self-scaling tolerance; the result's ``x`` is a node vector.

    The optimizer tests ``||g||_* <= GTOL_FACTOR * (1 + |f|)`` at its current
    value ``f``, so one call decides convergence at the value it returns.
    L-BFGS runs on the objective's optimizer vector: the start is mapped in
    by :meth:`LevelObjective.dofs` and released, unless the caller holds it,
    and the minimizer mapped out by :meth:`LevelObjective.nodes`.
    """
    def gtol(f: float) -> float:
        return GTOL_FACTOR * (1.0 + abs(f))

    if obj.has_hessian:
        return newton(
            obj.value_and_grad, obj.hessian, x, obj.level.weights, obj.free_mask,
            gtol=gtol, max_iter=NEWTON_MAX_ITERATIONS, accept=obj.accept_step,
        )
    x = obj.dofs(x)
    res = lbfgs(
        obj.value_and_grad, x, obj.dof_weights, obj.dof_free,
        gtol=gtol, max_iter=MAX_ITERATIONS, precondition=obj.precondition,
    )
    res.x = obj.nodes(res.x)
    return res


def minimize_level(
    problem: ProblemSpec,
    level: GridLevel,
    init: GridFunction | np.ndarray | None = None,
) -> MinResult:
    """Minimize the problem on one level from one kind of start.

    The starts are ``[init]`` when a warm start is given (or prolonged by
    :func:`solve_net`), and the problem's initializers otherwise.  Each is
    pinned and must then satisfy the feasibility predicate: an infeasible
    one is a usage error (``ValueError``), raised before the next start is
    made.  No other function tests whether a start is feasible.
    """
    obj = problem.build(level)
    if init is not None:
        kind, guesses = "warm", [init.values if isinstance(init, GridFunction) else init]
        init = None
    else:
        kind, guesses = "initializer", problem.initial_guesses(level)
    if not guesses:
        raise ValueError(f"problem {problem.name!r} produced no start")

    # one copy of each start: each guess, the caller's warm start too, is
    # released once pinned, and each pinned start once its run ends (a
    # level-7 start is 16 MB)
    starts = []
    while guesses:
        start = obj.pin(guesses.pop(0))
        if not obj.feasible(start):
            raise ValueError(f"{kind} start violates the feasibility predicate")
        starts.append(start)

    best: OptimizeResult | None = None
    records = []
    while starts:
        # passed, not held, so that the optimizer can release it
        res = _run_optimizer(obj, starts.pop(0))
        records.append(StartRecord(kind, res.iterations, res.value, res.converged))
        if best is None or res.value < best.value:
            best = res
        # the next run does not hold this result unless it is the best
        del res

    x = obj.normalize(best.x)
    diagnostics = problem.diagnostics(obj, x) if problem.diagnostics else {}
    return MinResult(
        u=GridFunction(level, x),
        value=best.value,
        grad_norm=best.grad_norm,
        converged=best.converged,
        diagnostics=diagnostics,
        starts=tuple(records),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if resource else 0.0,
    )


@dataclass
class SolutionNet:
    """Per-level minimization results with net views and health flags."""

    results: tuple[MinResult, ...]
    monotone_violations: tuple[int, ...]

    @property
    def partial(self) -> bool:
        """Whether some level missed the gradient test."""
        return any(not r.converged for r in self.results)

    def value_net(self) -> Net:
        return Net(tuple((r.level.n, r.value) for r in self.results))

    def minimizer_net(self) -> Net:
        return Net(tuple((r.level.n, r.u) for r in self.results))


def _warm_start(
    problem: ProblemSpec, level: GridLevel, results: Sequence[MinResult]
) -> Optional[GridFunction]:
    """The last result's minimizer prolonged onto ``level``, or ``None`` on
    the first level and for a problem whose values are not nested.  It only
    prolongs: :func:`minimize_level` pins the start and tests it."""
    if not (results and problem.monotone_values):
        return None
    return prolong(results[-1].u, level)


def solve_net(problem: ProblemSpec, levels: Sequence[int]) -> SolutionNet:
    """Minimize over a chain of at least three levels with warm starting.

    For nested levels (``ProblemSpec.monotone_values``), each level after the
    first starts from the prolongation of the previous level's minimizer
    alone: that start keeps the previous level's value, so the level's own
    cannot exceed it.  Every other level runs the study's initializers.  A
    prolongation that fails the feasibility predicate is a
    ``ValueError``, as an infeasible explicit start is.  Nested-space
    monotonicity (``m_{n+1} <= m_n + 1e-10``) is checked for such a family;
    a violating level is recorded in ``monotone_violations`` only: its
    ``converged`` stays the optimizer's verdict.  A certified lower bound,
    when the problem declares one, is judged by the ``solve`` command's
    ``certified_lower_bound`` verdict, not here: a violating level is
    returned like any other.
    """
    level_list = sorted(int(n) for n in levels)
    if len(level_list) < 3:
        raise ValueError("solve_net needs at least three levels")
    # every level up front: one over the node cap fails before any work
    chain = [build_level(problem.domain, n) for n in level_list]

    results: list[MinResult] = []
    violations: list[int] = []
    for level in chain:
        # the warm start is built in the call, so that only minimize_level
        # holds it and can release it once pinned
        res = minimize_level(problem, level, init=_warm_start(problem, level, results))
        if problem.monotone_values and results and res.value > results[-1].value + 1e-10:
            violations.append(level.n)
        results.append(res)
    return SolutionNet(tuple(results), tuple(violations))


@dataclass(frozen=True)
class PairingReport:
    """Pairings of the remainder net against one test function."""

    test_index: int
    values: tuple[float, ...]
    classification: Classification


@dataclass(frozen=True)
class Splitting:
    """Decomposition ``u_n = w + psi_n``: the standard part ``w`` with its
    singular nodes, and the norm and pairings of each remainder ``psi_n``
    (the remainders themselves are not kept)."""

    w: GridFunction
    singular: NodeSet
    psi_norms: tuple[tuple[int, float], ...]
    pairings: tuple[PairingReport, ...]


def split(u_net: Net) -> Splitting:
    """Split a minimizer net into its standard part and remainders.

    ``w`` and the singular set are :func:`~ultragrid.nets.pointwise_standard_part`
    of the net.  ``psi_n = u_n - interp(w)`` with dyadic linear
    interpolation, so the reconstruction is exact at coarse nodes.  Each
    ``psi_n`` is formed in turn, its norm taken and paired with every
    function of ``standard_battery`` of the net's domain, and released; each
    pairing net is then classified.  Every classification runs at the
    default tolerances of :mod:`~ultragrid.nets`.
    """
    w, singular = pointwise_standard_part(u_net)
    battery = standard_battery(w.level.domain)

    psi_norms = []
    vals = [[] for _ in battery]
    for n, u in u_net.entries:
        psi = GridFunction(u.level, u.values - prolong(w, u.level).values)
        psi_norms.append((n, norm(psi)))
        for row, phi in zip(vals, battery):
            row.append(inner(psi, restrict(phi, u.level)))
        del psi  # the next remainder is formed without this one held

    pairings = tuple(
        PairingReport(
            test_index=j,
            values=tuple(row),
            classification=classify(Net(tuple(zip(u_net.levels, row)))),
        )
        for j, row in enumerate(vals)
    )
    return Splitting(w=w, singular=singular, psi_norms=tuple(psi_norms), pairings=pairings)


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
    residuals pair the gradient at free nodes with each function of
    ``standard_battery`` of the level's domain.  Both are taken on the
    objective's optimizer vector (:meth:`LevelObjective.dofs`): a dof that
    stands for ``m`` nodes of equal Riesz residual carries ``m`` times
    their gradient and weight, so the residual is theirs, and it pairs with
    the mean of each test function over them.
    """
    obj = problem.build(result.level)
    free = obj.dof_free
    d = obj.dof_weights
    g = obj.value_and_grad(obj.dofs(result.u.values))[1]
    r = (g / d)[free]
    max_res = float(np.max(np.abs(r))) if r.size else 0.0
    l2_res = float(np.sqrt(np.sum(r**2 * d[free])))

    g = np.where(free, g, 0.0)
    weak = []
    for phi in standard_battery(result.level.domain):
        phi_grid = restrict(phi, result.level)
        weak.append(float(g @ obj.dofs(phi_grid.values)))
    return ELReport(max_residual=max_res, l2_residual=l2_res, weak_residuals=tuple(weak))
