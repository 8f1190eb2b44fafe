"""The three packaged variational studies.

* :func:`sawtooth_spec` — the 1D oscillation functional
  ``J(u) = int u^2 + int ((u')^2 - 1)^2`` whose infimum over each level is
  positive but vanishes along the level net (minimizers are fine sawteeth).
  Its objective gives L-BFGS the discrete H1 metric ``W + D^T W D``, under
  which the iteration count does not grow with the level.
* :func:`sign_perturbed_spec` — the critical Sobolev quotient
  ``(int |grad u|^2 + int a u^2) / (int |u|^{2*})^{2/2*}`` with homogeneous
  Dirichlet data.  The quotient is evaluated as the exact energy of the
  multilinear nodal interpolant (stiffness kron-sum numerator, per-cell Gauss
  denominator), so every discrete value is a true Sobolev quotient and stays
  above the sharp constant.
* :func:`singular_spec` — minimization of
  ``int (1/2 |grad u|^2 + W(u))`` with a singular potential (default
  ``W(t) = t**-2``), sign-changing boundary data, and the nodal constraint
  ``u != 0``; the minimizer splits the box into robustly positive / negative
  regions separated by a thin interface.

The Dirichlet term of the singular energy sums the squared derivative over
interior stencil rows only: the antisymmetric closure rows of the derivative
are not consistent for nonzero boundary values and would otherwise add a
spurious ``O(1/h)`` penalty.  Constants remain exactly harmonic under the
resulting masked stiffness.
"""

from __future__ import annotations

import json
import math
import numbers
import os
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache, reduce
from importlib import resources
from typing import Callable, Optional, Sequence

import numpy as np

from .calculus import GridFunction, diff_op, standard_battery
from .elements import Banded, apply_axes, apply_axis, gauss_interp, p1_matrices
from .grid import Domain, GridLevel, NodeSet
from .measure import NodeMask, perimeter
from .optimize import minimize_quadratic
from .solver import LevelObjective, ProblemSpec

__all__ = [
    "sobolev_constant",
    "sawtooth_spec",
    "sawtooth_pattern",
    "BubbleInitializer",
    "bubble",
    "QuadraticWell",
    "sign_perturbed_spec",
    "sweep_threads",
    "concentration_metric",
    "singular_spec",
    "BoundaryDataError",
    "InterfaceDecomposition",
    "extract_interface",
]


@lru_cache(maxsize=1)
def sobolev_constant(dimension: int = 3) -> float:
    """The sharp Sobolev constant, read from the pre-registered fixture.

    The fixture is produced independently by
    ``scripts/compute_sobolev_constant.py`` (radial quadrature of the
    Aubin-Talenti profile) before any acceptance run.
    """
    data = json.loads(
        resources.files("ultragrid.fixtures").joinpath("sobolev.json").read_text()
    )
    key = str(dimension)
    if key not in data:
        raise ValueError(f"no stored Sobolev constant for dimension {dimension}")
    return float(data[key]["value"])


# ---------------------------------------------------------------------------
# sawtooth
# ---------------------------------------------------------------------------


def _h1_chains(D: Banded, d: np.ndarray) -> list:
    """The 1D metric ``P = W + D^T W D`` (``W = diag(d)``) factored by parity chain.

    ``D`` is the SBP derivative, whose diagonal is zero, so ``D^T W D``
    couples node ``j`` only with ``j +- 2``: ``P[j, j + 1] = 0``, and ``P``
    splits into the chain of even nodes and the chain of odd nodes, each
    symmetric positive definite tridiagonal.  Each chain ``T = L diag(delta)
    L^T`` (``L`` unit lower bidiagonal with subdiagonal ``l``) is factored
    here, and both triangular solves are the linear recurrence
    ``y_k = c_k + r_k y_(k-1)``, whose solution is
    ``y_k = R_k sum_(i <= k) c_i / R_i`` with ``R = cumprod(r)``.  Returns
    ``(parity, R_forward, delta, R_backward)`` per chain.

    Every ``-l_k`` lies in ``(0, 1)``, so ``R`` falls from 1 without
    overflow: on ``[0, 1]`` the even chain's levels off near 0.65, and the
    odd chain's, whose first node carries a closure row, falls like
    ``1 / (2k + 1)`` (5e-5 at level 14), far from underflow at any level
    under the node cap.
    """
    lo, up = D.diagonals  # D[i, i - 1] and D[i, i + 1]
    diag = d.copy()
    diag[:-1] += d[1:] * lo[1:] * lo[1:]  # row j + 1 of D reads node j
    diag[1:] += d[:-1] * up[:-1] * up[:-1]  # row j - 1 of D reads node j
    off2 = d[1:-1] * lo[1:-1] * up[1:-1]  # P[j, j + 2], via row j + 1
    chains = []
    for parity in (0, 1):
        a, b = diag[parity::2], off2[parity::2]
        delta, neg_l = np.empty(a.size), np.empty(a.size - 1)
        delta[0] = pivot = float(a[0])
        # the pivot recurrence is scalar: run it on Python floats, a chunk at
        # a time, so that no whole chain is held as a list
        for k0 in range(0, a.size - 1, 4096):
            ls, ds = [], []
            for ak, bk in zip(a[k0 + 1 : k0 + 4097].tolist(), b[k0 : k0 + 4096].tolist()):
                lk = bk / pivot
                pivot = ak - lk * bk
                ls.append(-lk)
                ds.append(pivot)
            neg_l[k0 : k0 + len(ls)] = ls
            delta[k0 + 1 : k0 + 1 + len(ds)] = ds
        forward = np.cumprod(np.concatenate(([1.0], neg_l)))
        backward = np.cumprod(np.concatenate(([1.0], neg_l[::-1])))
        chains.append((parity, forward, delta, backward))
    return chains


class _SawtoothObjective(LevelObjective):
    """The oscillation functional, with the discrete H1 metric for L-BFGS.

    :meth:`precondition` solves with ``P = W + D^T W D`` (``W = diag(d)``,
    ``D`` the same SBP derivative as the functional), factored once per
    objective into its two tridiagonal parity chains (:func:`_h1_chains`).
    With it every start ends by the gradient test in a number of iterations
    that barely grows with the level; with the L2 metric ``W`` the prolonged
    warm start's iterations grow with the level and it stalls far above the
    tolerance.

    The metric is not the P1 ``K1 + M1``.  The central difference decouples
    the even and odd nodes, so the Hessian
    ``2 W + D^T W diag(4 (3 (Du)^2 - 1)) D`` matches ``D^T W D``, while
    ``K1`` puts its largest eigenvalue on the checkerboard mode, which the
    functional barely sees.  Under ``K1 + M1`` starts on the finest levels
    hit the iteration cap and end above the level's minimum.
    """

    def __init__(self, level: GridLevel) -> None:
        super().__init__(level)
        self._op = diff_op(level)
        self._d = level.weights
        self._chains = _h1_chains(self._op.matrices[0], self._d)

    def value_and_grad(self, u: np.ndarray) -> tuple[float, np.ndarray]:
        du = self._op.apply(u, 0)
        slack = du * du - 1.0
        value = float((u * u) @ self._d + (slack**2) @ self._d)
        inner_term = 4.0 * du * slack * self._d
        return value, 2.0 * u * self._d + self._op.apply_transpose(inner_term, 0)

    def precondition(self, g: np.ndarray) -> np.ndarray:
        y = np.empty_like(g)
        for parity, forward, delta, backward in self._chains:
            z = forward * np.cumsum(g[parity::2] / forward)  # L z = g
            w = (z / delta)[::-1]
            y[parity::2] = (backward * np.cumsum(w / backward))[::-1]  # L^T y = z / delta
        return y


def sawtooth_pattern(level: GridLevel) -> np.ndarray:
    """A period-4 nodal pattern with slope exactly +/-1 in every stencil row."""
    base = np.array([0.0, 1.0, 2.0, -1.0]) * level.h
    idx = np.arange(level.node_count) % 4
    return base[idx]


def sawtooth_spec() -> ProblemSpec:
    """The 1D oscillation study on [0, 1] (free boundary, lower bound 0)."""
    domain = Domain(bounds=((0.0, 1.0),))

    @lru_cache(maxsize=1)
    def build(level: GridLevel) -> LevelObjective:
        return _SawtoothObjective(level)

    def initial_guesses(level, rng, warm):
        return [np.zeros(level.node_count), sawtooth_pattern(level)]

    def random_start(level, rng):
        return rng.standard_normal(level.node_count) * level.h

    return ProblemSpec(
        name="sawtooth",
        domain=domain,
        build=build,
        initial_guesses=initial_guesses,
        random_start=random_start,
        lower_bound=0.0,
        battery=standard_battery(domain, 3),
    )


# ---------------------------------------------------------------------------
# critical Sobolev quotient
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BubbleInitializer:
    """Cutoff Aubin-Talenti profile ``U(r) = (1 + r^2)^{-(N-2)/2}``.

    The scaled profile ``U_eps(r) = eps^{(2-N)/2} U(r/eps)`` is kept for
    ``r <= delta``, continued linearly down to zero on
    ``delta < r <= delta * theta`` and vanishes beyond.
    """

    center: tuple[float, ...]
    epsilon: float
    delta: float = 0.25
    theta: float = 2.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))
        if self.epsilon <= 0 or self.delta <= 0 or self.theta <= 1:
            raise ValueError("epsilon, delta must be positive and theta > 1")


def _check_bubble(init: BubbleInitializer, domain: Domain) -> None:
    """Raise ``ValueError`` unless the profile's support fits in ``domain``."""
    if domain.dimension < 3:
        raise ValueError("the bubble profile needs dimension >= 3")
    if len(init.center) != domain.dimension:
        raise ValueError("the bubble center needs one coordinate per axis")
    support = init.delta * init.theta
    for c, (lo, hi) in zip(init.center, domain.bounds):
        if c - support < lo - 1e-12 or c + support > hi + 1e-12:
            raise ValueError("bubble support exceeds the domain box")


def bubble(init: BubbleInitializer, level: GridLevel) -> GridFunction:
    """Sample the cutoff profile at the nodes of ``level``."""
    _check_bubble(init, level.domain)
    dim = level.dimension
    support = init.delta * init.theta
    r = np.linalg.norm(level.coordinates - np.asarray(init.center), axis=1)
    power = (dim - 2) / 2.0
    u_eps = init.epsilon**-power * (1.0 + (r / init.epsilon) ** 2) ** -power
    edge = (
        init.epsilon**-power
        * (1.0 + (init.delta / init.epsilon) ** 2) ** -power
    )
    ramp = edge * (support - r) / (support - init.delta)
    values = np.where(r <= init.delta, u_eps, np.where(r <= support, ramp, 0.0))
    return GridFunction(level, values)


@dataclass(frozen=True)
class QuadraticWell:
    """The potential ``a(x) = strength * |x - center|^2`` (isolated minimum).

    ``a`` is separable, ``sum_i strength (x_i - center_i)^2``, so the
    quotient folds ``int a u^2`` into its 1D stiffness factors (see
    :class:`_QuotientObjective`).  A non-negative ``strength`` keeps the
    sharp Sobolev constant a lower bound of the quotient.  Raises
    ``ValueError`` unless every value is finite.
    """

    center: tuple[float, ...]
    strength: float = 50.0

    def __post_init__(self) -> None:
        if not all(_is_real(v) and math.isfinite(v) for v in (*self.center, self.strength)):
            raise ValueError(f"the well needs a finite center and strength, got {self!r}")
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))
        object.__setattr__(self, "strength", float(self.strength))


def _is_real(value) -> bool:
    """Whether ``value`` is a real number.  A bool or a str is not, though
    ``float`` takes both (a config's ``true`` or ``"500"``)."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


#: Gauss points of one quotient pass from which its sweep is split into
#: ranges.  A smaller pass (3D level 4 and coarser) runs slower split than
#: whole: the helper threads cost more than they save.
_SPLIT_MIN_POINTS = 1 << 20

#: The most columns of a cell's Gauss rows that the pointwise steps of a
#: quotient sweep take at a time, so that their buffers stay in a 2 MB cache:
#: 3D levels 5 and 6 ran faster with it than with half or twice as many.
_CHUNK = 1 << 13

_sweep_ranges: Optional[int] = None  # the cap of sweep_threads; None: _usable_cpus()
_pool = None  # the helper threads of split sweeps, made on the first split
_pool_workers = 0


def _usable_cpus() -> int:
    """The number of CPUs in this process's affinity mask."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without affinity masks
        return os.cpu_count() or 1


@contextmanager
def sweep_threads(threads: Optional[int] = None):
    """Split each quotient Gauss-point sweep into at most ``threads`` ranges.

    Holds inside the ``with`` block and yields the cap; ``None`` means one
    range per CPU in the process's affinity mask.  Results do not depend on
    it: a split sweep is bit-identical to a whole one (see
    :class:`_QuotientObjective`).
    """
    global _sweep_ranges
    if threads is None:
        threads = _usable_cpus()
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    prior, _sweep_ranges = _sweep_ranges, threads
    try:
        yield threads
    finally:
        _sweep_ranges = prior


def _helper_pool(workers: int):
    """An executor of at least ``workers`` helper threads, kept for the process.

    Made on the first split, so importing the package loads no
    ``concurrent.futures`` and starts no thread.
    """
    global _pool, _pool_workers
    if _pool_workers < workers:
        from concurrent.futures import ThreadPoolExecutor

        if _pool is not None:
            _pool.shutdown()
        _pool = ThreadPoolExecutor(workers, thread_name_prefix="ultragrid-sweep")
        _pool_workers = workers
    return _pool


def _dirichlet_eigenpairs(m: int, h: float) -> tuple[np.ndarray, np.ndarray]:
    """``(V, lam)`` with ``K1 V = M1 V diag(lam)`` and ``V^T M1 V = I``.

    ``K1`` and ``M1`` are the P1 stiffness and mass on the ``m - 2`` interior
    nodes of an axis (Dirichlet data).  Both are symmetric Toeplitz
    tridiagonal, so their generalized eigenvectors are the sine vectors
    ``sin(j k pi / (m - 1))`` with ``lam_k = 6 (1 - cos t_k) / (h^2 (2 + cos t_k))``,
    ``t_k = k pi / (m - 1)``; each is scaled to unit ``M1``-norm.
    """
    k = np.arange(1, m - 1)
    theta = k * np.pi / (m - 1)
    cos = np.cos(theta)
    lam = 6.0 * (1.0 - cos) / (h * h * (2.0 + cos))
    # ||sin||^2 = (m - 1) / 2 and M1 scales a sine vector by h (2 + cos) / 3
    norm = np.sqrt((m - 1) / 2.0 * h * (2.0 + cos) / 3.0)
    return np.sin(np.outer(k, theta)) / norm, lam


class _QuotientObjective(LevelObjective):
    """Exact multilinear-interpolant Sobolev quotient on one level.

    The numerator is the kron-sum ``sum_i M1 (x) .. K1_i .. (x) M1`` on the
    node grid, each 1D factor (the dense P1 ``K1``/``M1``) applied as one
    batched GEMM (:func:`~ultragrid.elements.apply_axis`).  A
    :class:`QuadraticWell` ``a = sum_i s (x_i - c_i)^2`` is separable, so
    ``int a u^2 = sum_i u . (M1 (x) .. A_i .. (x) M1) u`` with
    ``A_i = G_i^T diag(w_i s (x_i - c_i)^2) G_i`` (``G_i`` the axis's Gauss
    interpolation, ``w_i`` its Gauss weights): ``A_i`` is added to ``K1_i``
    once, at build, and the potential runs inside the stiffness GEMMs.  The
    sum is exact: ``M1`` is the exact P1 mass, and the 4-point rule
    integrates ``A_i``'s integrand, of degree 4, exactly.

    The denominator ``int |u|^p`` is ``<u, adj>``, with the adjoint
    ``adj = G^T W (u |u|^(p-2))`` (``G`` the Gauss interpolation, ``W`` the
    Gauss weights) taken in one streamed pass (:meth:`_gauss_pass`),
    sum-factorization style (Orszag, J. Comput. Phys. 37, 1980; Kronbichler
    & Kormann, Computers & Fluids 63, 2012): axis 0 is swept one cell at a
    time, each cell reading only its own two node rows, each row contracted
    onto its Gauss points of axes ``1 .. N-1`` when the sweep reaches it,
    into a ring of two rows.  On the uniform grid every cell has the same
    ``4 x 2`` block ``S = [1 - s, s]`` per axis, so a row's contraction
    (:meth:`_interp`) is one GEMM with ``S (x) .. (x) S`` (``4^(N-1) x
    2^(N-1)``) on the row's ``2^(N-1)`` corner slices, and its Gauss points
    are stored cell-major, ``(point in the cell, cell)``; the dense Gauss
    matrices, two nonzeros a row, are never applied.  Axis 0 and the power
    act point by point, so the order of the points in a row does not
    matter; they run on chunks of ``_CHUNK`` columns that stay in cache.  A
    node row's adjoint is back-projected (:meth:`_project`) as soon as both
    of its cells are swept: one GEMM with ``(B (x) .. (x) B)^T``,
    ``B = diag(w) S``, then one ``np.bincount`` that adds each corner's part
    onto its nodes.  So nothing the size of the Gauss grid, whole or
    contracted along axes ``1 .. N-1``, is stored: a sweep holds a few Gauss
    rows at a time.  ``|u|^p`` is formed as ``u * u (u^2)^((p-2)/2)``; for
    ``p = 6`` the power is a square, taken by ``np.square``, which rounds as
    ``np.power(y, 2.0)`` does.

    From ``_SPLIT_MIN_POINTS`` Gauss points on (3D level 5 and finer) the
    sweep runs on several threads: the axis-0 cells are cut into contiguous
    ranges, at most one per CPU (:func:`sweep_threads`),
    and a helper thread sweeps each range but the first, which the main
    thread sweeps.  The ranges share no buffer and call only numpy; each
    writes the adjoint node rows that only its own cells touch.  The result
    is bit-identical to the one-range sweep for any number of ranges: a
    row's contraction and back-projection are the same GEMMs and sums
    whichever range makes them; the node row where two ranges meet is
    finished after the join, the earlier range's partial row plus the later
    range's first contribution, which is again the one-sweep order; and
    ``den`` is read off the finished adjoint.  The stiffness stays on the
    main thread: running it beside the sweep gained no time.

    L-BFGS runs in the H1 metric of the numerator without the well:
    :meth:`precondition` is the exact inverse of the interior Dirichlet
    stiffness ``A = K1 (x) M1 (x) M1 + M1 (x) K1 (x) M1 + ...``, by fast
    diagonalization (Lynch, Rice & Thomas, Numer. Math. 6, 1964).  With the
    per-axis generalized eigenpairs ``K1 V = M1 V diag(lam)``,
    ``V^T M1 V = I``, ``A^-1 = (V (x) ... (x) V) diag(1 / (lam_i + lam_j + ...))
    (V (x) ... (x) V)^T``: one dense contraction per axis each way and a
    scaling.  Under the L2 metric ``diag(d)`` the finer starts stall above
    the tolerance.  Under ``A``, with the approximate Wolfe line search of
    :func:`~ultragrid.optimize.lbfgs` (without it, Armijo backtracks on
    rounding noise near the minimum), every start, with or without a well,
    meets it in a few dozen iterations at most.
    """

    def __init__(self, level: GridLevel, well: Optional[QuadraticWell]) -> None:
        super().__init__(level)
        dim = level.dimension
        self.p = 2.0 * dim / (dim - 2)  # critical exponent
        self.q = (dim - 2) / dim  # denominator power 2 / 2*
        self._half_exp = (self.p - 2.0) / 2.0  # |u|^(p-2) = (u^2)^half_exp
        self.fixed_mask = level.boundary_mask.copy()
        self.fixed_values = np.zeros(level.node_count)

        self._K1, self._M1 = [], []
        for axis, m in enumerate(level.shape):
            K, M = p1_matrices(m, level.h)
            if well is not None:  # + A_i, the well's part along this axis
                G, pts, w = gauss_interp(m, level.h, level.domain.bounds[axis][0])
                a = well.strength * (pts - well.center[axis]) ** 2
                K = K + (G * (w * a)[:, None]).T @ G
            self._K1.append(K)
            self._M1.append(M)
        # every cell's Gauss rows on its two nodes: the 4 x 2 block S, the
        # same on every axis, and its weighted transpose S^T diag(w); axis 0
        # takes cell c's block by ring slot (slot r % 2 holds node row r)
        S, _, w = gauss_interp(2, level.h, 0.0)
        self._S0, self._B0T = (S, S[:, ::-1]), (S * w[:, None]).T
        # axes 1 .. N-1: the Kronecker powers of both blocks, on the 2^(N-1)
        # corner slices of a node row, one per cell corner, in C order
        self._Sk = reduce(np.kron, [S] * (dim - 1))
        self._BkT = reduce(np.kron, [self._B0T] * (dim - 1))
        self._cell_shape = tuple(m - 1 for m in level.shape[1:])  # the cells of a node row
        self._corners = [tuple(slice(e, e + c) for e, c in zip(corner, self._cell_shape))
                         for corner in np.ndindex((2,) * (dim - 1))]
        # the node under each entry of the corner slices, corner by corner,
        # for the sum of _project (_interp copies the slices: from level 5
        # on that is faster than np.take)
        nodes = np.arange(math.prod(level.shape[1:])).reshape(level.shape[1:])
        self._gather = np.concatenate([nodes[corner].ravel() for corner in self._corners])

        eig = [_dirichlet_eigenpairs(m, level.h) for m in level.shape]
        self._V = [V for V, _ in eig]
        # the open mesh of np.ix_ sums to lam_i + lam_j + ... on the interior grid
        self._inv_lam = 1.0 / sum(np.ix_(*[lam for _, lam in eig]))

    # -- tensor helpers ---------------------------------------------------
    def _stiffness_apply(self, grid: np.ndarray) -> np.ndarray:
        """``sum_i (M1 (x) .. K1 (axis i) .. (x) M1) grid``, each term applied
        axis by axis from axis 0; the terms share the ``M1`` prefix."""
        dim = grid.ndim
        out = np.zeros_like(grid)
        prefix = grid  # M1 applied along axes 0 .. i - 1
        for i in range(dim):
            tmp = apply_axis(self._K1[i], prefix, i)
            for axis in range(i + 1, dim):
                tmp = apply_axis(self._M1[axis], tmp, axis)
            out += tmp
            if i + 1 < dim:
                prefix = apply_axis(self._M1[i], prefix, i)
        return out

    def _interp(self, row: np.ndarray, out: np.ndarray, buf: np.ndarray) -> None:
        """Contract the node row ``row`` onto its Gauss points of axes
        ``1 .. N-1``, cell-major, into ``out``: one GEMM with ``S (x) .. (x) S``
        on the corner slices of ``row``, gathered into ``buf``."""
        for part, corner in zip(buf, self._corners):
            part[...] = row[corner]
        np.matmul(self._Sk, buf.reshape(len(buf), -1), out=out.reshape(len(self._Sk), -1))

    def _project(self, row: np.ndarray, out: np.ndarray, buf: np.ndarray) -> None:
        """Back-project one cell-major Gauss row of axes ``1 .. N-1`` into the
        node row ``out``: one GEMM with ``(B (x) .. (x) B)^T`` into ``buf``,
        then each corner's part added onto its nodes, the corners in order
        (``np.bincount`` sums in the order of its input)."""
        np.matmul(self._BkT, row.reshape(len(self._Sk), -1), out=buf.reshape(len(buf), -1))
        out[...] = np.bincount(self._gather, weights=buf.reshape(-1)).reshape(out.shape)

    def _gauss_pass(self, grid: np.ndarray) -> tuple[float, np.ndarray]:
        """``(den, adj)`` of one streamed Gauss-point pass.

        The node grid ``adj`` holds the adjoint ``G^T W (u |u|^(p-2))``,
        ``G`` the Gauss interpolation and ``W`` the Gauss weights, and
        ``den = <u, adj> = int |u|^p``; :meth:`value_and_grad` scales
        ``adj`` into the gradient.

        From ``_SPLIT_MIN_POINTS`` Gauss points on, the axis-0 cells are
        split into contiguous ranges, one per thread (see
        :func:`sweep_threads`); the main thread sweeps the first range and
        always joins the helpers before it returns or raises.
        """
        cells = grid.shape[0] - 1
        ranges = 1
        if 4**grid.ndim * cells * math.prod(self._cell_shape) >= _SPLIT_MIN_POINTS:
            ranges = min(_sweep_ranges or _usable_cpus(), cells)
        starts = [cells * i // ranges for i in range(ranges)] + [cells]
        adj = np.empty(grid.shape)
        if ranges == 1:
            sweeps = [self._sweep(grid, 0, cells, adj)]
        else:
            from concurrent.futures import wait

            pool = _helper_pool(ranges - 1)
            jobs = [
                pool.submit(self._sweep, grid, starts[i], starts[i + 1], adj)
                for i in range(1, ranges)
            ]
            try:
                sweeps = [self._sweep(grid, 0, starts[1], adj)]
            finally:
                wait(jobs)
            sweeps += [job.result() for job in jobs]  # re-raises a helper's exception
        # the node rows that no range finishes: the first, the last, and each
        # row where two ranges meet, the earlier range's part first, as one
        # sweep adds them
        buf = np.empty((len(self._corners),) + self._cell_shape)
        self._project(sweeps[0][0], adj[0], buf)
        for c0, before, after in zip(starts[1:], sweeps, sweeps[1:]):
            self._project(before[1] + after[0], adj[c0], buf)
        self._project(sweeps[-1][1], adj[cells], buf)
        return float(np.vdot(grid, adj)), adj

    def _sweep(self, grid, c0, c1, adj) -> tuple:
        """Sweep the axis-0 cells ``c0 .. c1 - 1``: ``(head, tail)``.

        ``head`` holds the first cell's contribution to node row ``c0`` and
        ``tail`` the last cell's to node row ``c1`` of ``adj``; the node rows
        between them are finished here and written into ``adj``.  Only numpy
        is called, so a helper thread can sweep a range.
        """
        S0, B0T = self._S0, self._B0T
        rule, width = B0T.shape[1], len(self._Sk) * math.prod(self._cell_shape)
        # node rows contracted on the Gauss rows of axes 1 .. N-1, cell-major,
        # row r in slot r % 2: cell c reads the two slots
        ring = np.empty((2, width))
        # cell c's parts of node rows c and c + 1, in slot c % 2: the next
        # cell adds the second part to its first
        back = np.empty((2, 2, width))
        buf = np.empty((len(self._corners),) + self._cell_shape)  # a node row's corner slices
        # a cell's pointwise steps run on equal chunks of at most _CHUNK
        # columns, which stay in cache; their buffers are reused: fresh
        # temporaries would cost page faults
        step = math.gcd(width, _CHUNK)
        ug, y = np.empty((2, rule, step))
        chunks = [(ring[:, i : i + step], back[:, :, i : i + step]) for i in range(0, width, step)]

        self._interp(grid[c0], ring[c0 % 2], buf)
        for c in range(c0, c1):
            self._interp(grid[c + 1], ring[(c + 1) % 2], buf)
            for rows, backs in chunks:
                np.matmul(S0[c % 2], rows, out=ug)
                np.square(ug, out=y)
                if self._half_exp == 2.0:
                    np.square(y, out=y)  # p = 6: rounds as np.power(y, 2.0)
                else:
                    np.power(y, self._half_exp, out=y)
                np.multiply(y, ug, out=y)  # u |u|^(p-2)
                np.matmul(B0T, y, out=backs[c % 2])
            front = back[c % 2, 0]
            if c == c0:
                head = front.copy()
            else:
                front += back[(c - 1) % 2, 1]
                self._project(front, adj[c], buf)
        return head, back[(c1 - 1) % 2, 1]

    # -- energy -------------------------------------------------------------
    def value_and_grad(self, u: np.ndarray) -> tuple[float, np.ndarray]:
        grid = u.reshape(self.level.shape)
        ku = self._stiffness_apply(grid)
        num = float(np.vdot(grid, ku))
        den, adj = self._gauss_pass(grid)
        if den <= 0.0:
            return float("inf"), np.zeros(u.size)
        value = num / den**self.q
        scale = den**-self.q
        # d(num / den^q) = d_num / den^q - q num / den^(q+1) d_den, with
        # d_num = 2 K u (the well is part of K) and d_den = p G^T W (u |u|^(p-2))
        adj *= -self.p * self.q * num * scale / den
        return value, (2.0 * scale * ku + adj).ravel()

    def precondition(self, g: np.ndarray) -> np.ndarray:
        interior = g.reshape(self._inv_lam.shape)  # free dofs in C order
        t = apply_axes([V.T for V in self._V], interior)
        t *= self._inv_lam
        return apply_axes(self._V, t).ravel()

    def normalize(self, u: np.ndarray) -> np.ndarray:
        den = self._gauss_pass(u.reshape(self.level.shape))[0]
        if den <= 0.0:
            return u
        return u * den ** (-1.0 / self.p)


def concentration_metric(
    u: GridFunction, x_m: Sequence[float], r: float, exponent: Optional[float] = None
) -> float:
    """Fraction of the ``|u|^{2*}`` nodal mass inside the ball ``B_r(x_m)``."""
    if r <= 0:
        raise ValueError("radius must be positive")
    dim = u.level.dimension
    if exponent is None:
        if dim < 3:
            raise ValueError("default exponent needs dimension >= 3")
        exponent = 2.0 * dim / (dim - 2)
    mass = np.abs(u.values) ** exponent * u.level.weights
    total = float(mass.sum())
    if total == 0.0:
        return 0.0
    dist = np.linalg.norm(u.level.coordinates - np.asarray(x_m, dtype=float), axis=1)
    return float(mass[dist <= r].sum() / total)


def sign_perturbed_spec(
    a: Optional[QuadraticWell] = None,
    dimension: int = 3,
    delta: float = 0.25,
    theta: float = 2.0,
    center: Optional[Sequence[float]] = None,
    bubble_scales: Sequence[float] = (2.0, 4.0, 8.0),
    concentration_radius: float = 0.2,
) -> ProblemSpec:
    """Critical Sobolev quotient on the unit box with Dirichlet-zero data.

    ``a`` is an optional potential well, with one center coordinate per
    axis; in 3D the sharp constant is a certified lower bound without one
    and with a non-negative ``a.strength``.  Initial guesses are cutoff
    instanton bubbles at grid-proportional scales, centered at ``center``
    (default: box center).  A warm-started level adds one bubble, at the
    second scale (the first if there is only one).
    """
    if dimension < 3:
        raise ValueError("the critical-exponent study needs dimension >= 3")
    if a is not None and len(a.center) != dimension:
        raise ValueError(f"the well center needs {dimension} coordinates, got {a.center!r}")
    bubble_scales = tuple(bubble_scales)
    if not bubble_scales or not all(map(_is_real, bubble_scales)):
        raise ValueError(f"bubble_scales needs at least one scale, each real, got {bubble_scales!r}")
    domain = Domain(bounds=tuple(((0.0, 1.0),) * dimension))
    x_m = tuple(center) if center is not None else (0.5,) * dimension
    # every start's profile at unit scale (its support does not depend on
    # the level), so bad parameters fail before any level is built
    for s in bubble_scales:
        _check_bubble(BubbleInitializer(x_m, s, delta, theta), domain)
    if concentration_radius <= 0:
        raise ValueError("radius must be positive")

    lower = None
    if dimension == 3 and (a is None or a.strength >= 0.0):
        lower = sobolev_constant(3)

    @lru_cache(maxsize=1)
    def build(level: GridLevel) -> LevelObjective:
        return _QuotientObjective(level, a)

    def initial_guesses(level, rng, warm):
        scales = bubble_scales if warm is None else bubble_scales[1:2] or bubble_scales
        guesses = []
        for s in scales:
            init = BubbleInitializer(
                center=x_m, epsilon=s * level.h, delta=delta, theta=theta
            )
            guesses.append(bubble(init, level).values)
        return guesses

    def diagnostics(obj: LevelObjective, u: np.ndarray) -> dict:
        gf = GridFunction(obj.level, u)
        return {
            "concentration": concentration_metric(gf, x_m, concentration_radius),
            "linf": float(np.max(np.abs(u))),
        }

    return ProblemSpec(
        name="sign_perturbed",
        domain=domain,
        build=build,
        initial_guesses=initial_guesses,
        lower_bound=lower,
        battery=standard_battery(domain, 3),
        diagnostics=diagnostics,
    )


# ---------------------------------------------------------------------------
# singular potential problem
# ---------------------------------------------------------------------------


def _default_W(t: np.ndarray) -> np.ndarray:
    return 1.0 / (t * t)


def _default_Wp(t: np.ndarray) -> np.ndarray:
    return -2.0 / (t * t * t)


def _default_Wpp(t: np.ndarray) -> np.ndarray:
    return 6.0 / (t * t * t * t)


def _check_potential(W: Callable) -> None:
    """Sampled growth checks: blow-up at zero, subquadratic at infinity."""
    small = np.array([1e-1, 1e-2, 1e-3, 1e-4, 1e-5])
    vals = np.asarray(W(small), dtype=float)
    if not (np.all(np.diff(vals) > 0) and vals[-1] > 1e4):
        raise ValueError("potential must blow up as t -> 0")
    large = np.array([1e1, 1e2, 1e3, 1e4, 1e5, 1e6])
    ratio = np.asarray(W(large), dtype=float) / large**2
    if not (np.all(np.diff(ratio) < 0) and ratio[-1] < 1e-3):
        raise ValueError("potential must be subquadratic at infinity")


def _interior_row_mask(level: GridLevel, axis: int) -> np.ndarray:
    """Flat mask of nodes whose axis stencil row is a central difference."""
    idx = np.unravel_index(np.arange(level.node_count), level.shape)[axis]
    return (idx > 0) & (idx < level.shape[axis] - 1)


def _masked_stiffness(level: GridLevel):
    """Assemble ``sum_i D_i^T diag(d * mask_i) D_i`` as a scipy CSR matrix.

    scipy is imported here, on first use: only the singular study, whose
    Newton bands and harmonic start are sliced from it, loads it.
    """
    import scipy.sparse as sp

    def factor(axis: int, i: int):
        w = level.axis_weights[axis]
        if axis != i:
            return sp.diags(w, format="csr")
        lo, up = diff_op(level).matrices[axis].diagonals  # D[k, k - 1], D[k, k + 1]
        D = sp.diags([lo[1:], up[:-1]], [-1, 1], format="csr")
        masked = w.copy()
        masked[[0, -1]] = 0.0
        return sp.csr_matrix(D.T @ sp.diags(masked) @ D)

    terms = [
        reduce(lambda a, b: sp.kron(a, b, format="csr"),
               [factor(axis, i) for axis in range(level.dimension)])
        for i in range(level.dimension)
    ]
    return sum(terms[1:], terms[0]).tocsr()


def _upper_band(A):
    """The upper band of the symmetric sparse matrix ``A`` in the storage of
    ``scipy.linalg.solveh_banded`` (``A[i, j]`` at ``[-1 - (j - i), j]``),
    held as a CSC matrix: the band of a parity block is one diagonal of the
    block deep, but has at most ``dim + 1`` nonzeros per column."""
    import scipy.sparse as sp

    A = A.tocoo()
    upper = A.col >= A.row
    i, j = A.row[upper], A.col[upper]
    rows = int((j - i).max(initial=0)) + 1
    return sp.csc_matrix((A.data[upper], (rows - 1 - (j - i), j)), shape=(rows, A.shape[0]))


def _parity_blocks(level: GridLevel, K) -> list:
    """The free nodes of each parity class and the upper band of ``K`` on them.

    The masked central differences couple only nodes two apart, so ``K`` has
    no entry between nodes whose indices differ in parity along some axis:
    its free block splits into ``2**dim`` independent blocks.  Each block
    lists its nodes in wavefront order (by the sum of their indices, then by
    index).  Its bandwidth is one diagonal of the block (64 at 2D level 7),
    as in natural order, but LAPACK skips the zeros of its variable band
    profile: a 2D level-7 block factors in ~2.0 ms against ~2.7 ms.
    """
    idx = np.unravel_index(np.arange(level.node_count), level.shape)
    parity = sum((i % 2) << axis for axis, i in enumerate(idx))
    order = np.argsort(sum(idx), kind="stable")
    order = order[~level.boundary_mask[order]]
    blocks = (order[parity[order] == p] for p in range(2**level.dimension))
    return [(nodes, _upper_band(K[nodes][:, nodes])) for nodes in blocks if nodes.size]


class _SingularObjective(LevelObjective):
    def __init__(
        self,
        level: GridLevel,
        W: Callable,
        Wp: Callable,
        Wpp: Optional[Callable],
        g_values: np.ndarray,
    ) -> None:
        super().__init__(level)
        self._op = diff_op(level)
        self._d = level.weights
        self._W, self._Wp, self._Wpp = W, Wp, Wpp
        self.has_hessian = Wpp is not None
        self.fixed_mask = level.boundary_mask.copy()
        self.fixed_values = np.where(self.fixed_mask, g_values, 0.0)
        self._row_masks = [
            _interior_row_mask(level, axis) for axis in range(level.dimension)
        ]
        self._K = _masked_stiffness(level)
        self.blocks = _parity_blocks(level, self._K)

    def value_and_grad(self, u: np.ndarray) -> tuple[float, np.ndarray]:
        total = 0.0
        grad = self._d * self._Wp(u)
        for axis, mask in enumerate(self._row_masks):
            du = self._op.apply(u, axis)
            total += 0.5 * float((du * du * mask) @ self._d)
            grad = grad + self._op.apply_transpose(du * mask * self._d, axis)
        total += float(self._W(u) @ self._d)
        return total, grad

    def hessian(self, u: np.ndarray):
        return self.blocks, self._d * self._Wpp(u)

    def harmonic_extension(self) -> np.ndarray:
        """The fixed values extended to minimize the masked Dirichlet energy.

        One sparse LU solve per parity block of the masked stiffness (the
        blocks do not couple).  The block of nodes with every index odd never
        touches the boundary: its data is zero and its stiffness only
        semidefinite, so the extension is exactly 0 there, without a solve.
        """
        u = self.fixed_values.copy()
        for nodes, _band in self.blocks:
            # in index order, COLAMD orders each block as it did the whole
            # free matrix, and the extension rounds alike
            u = minimize_quadratic(self._K, u, np.sort(nodes))
        return u

    def feasible(self, u: np.ndarray) -> bool:
        return bool(np.all(u != 0.0))

    def accept_step(self, u_old: np.ndarray, u_new: np.ndarray) -> bool:
        free = self.free_mask
        return bool(np.all(u_new[free] * u_old[free] > 0.0))


class BoundaryDataError(ValueError):
    """Dirichlet data of the singular study that vanishes at a boundary node."""


def singular_spec(
    W: Optional[Callable] = None,
    Wp: Optional[Callable] = None,
    Wpp: Optional[Callable] = None,
    g: Optional[Callable] = None,
    domain: Optional[Domain] = None,
    init_floor: float = 0.1,
) -> ProblemSpec:
    """The singular-potential study (default ``W(t) = t**-2`` on [0,1]^2).

    ``g`` is sign-changing Dirichlet data, nonzero at every boundary node
    (default: +1 where the first coordinate is <= the axis midpoint, else -1;
    midline nodes get +1 by convention).  The initializer is the harmonic
    extension of ``g`` clipped away from zero (``|u| >= init_floor``).
    The values of the study do not minimize one nested family of energies
    (``monotone_values`` is false), so no level starts from the prolonged
    coarser minimizer.
    """
    if W is None:
        W, Wp, Wpp = _default_W, _default_Wp, _default_Wpp
    elif Wp is None:
        raise ValueError("a custom potential needs its derivative")
    if not (_is_real(init_floor) and init_floor > 0):
        raise ValueError(f"init_floor must be positive, got {init_floor!r}")
    _check_potential(W)
    if domain is None:
        domain = Domain(bounds=((0.0, 1.0), (0.0, 1.0)))
    mid = 0.5 * (domain.bounds[0][0] + domain.bounds[0][1])

    if g is None:
        def g(*coords):
            return np.where(np.asarray(coords[0]) <= mid, 1.0, -1.0)

    def _boundary_values(level: GridLevel) -> np.ndarray:
        coords = level.coordinates
        vals = np.asarray(
            g(*[coords[:, i] for i in range(level.dimension)]), dtype=float
        )
        on_boundary = level.boundary_mask
        zero = on_boundary & (vals == 0.0)
        if zero.any():
            node = int(np.flatnonzero(zero)[0])
            raise BoundaryDataError(f"boundary data vanishes at node {node}")
        return np.where(on_boundary, vals, 0.0)

    @lru_cache(maxsize=1)
    def build(level: GridLevel) -> LevelObjective:
        return _SingularObjective(level, W, Wp, Wpp, _boundary_values(level))

    def initial_guesses(level, rng, warm):
        """The harmonic extension of ``g``, clipped away from zero.

        The extension is exactly 0 on the parity block with every index odd
        (see :meth:`_SingularObjective.harmonic_extension`), so the start is
        ``+init_floor`` left of the midline and ``-init_floor`` right of it
        there.
        """
        u = build(level).harmonic_extension()
        x0 = level.coordinates[:, 0]
        sign = np.where(u > 0, 1.0, np.where(u < 0, -1.0, np.where(x0 <= mid, 1.0, -1.0)))
        return [sign * np.maximum(np.abs(u), init_floor)]

    def diagnostics(obj: LevelObjective, u: np.ndarray) -> dict:
        gf = GridFunction(obj.level, u)
        deco = extract_interface(gf)
        free = obj.free_mask
        return {
            "min_abs_u": float(np.min(np.abs(u[free]))) if free.any() else 0.0,
            "interface_measure": deco.interface_measure,
        }

    return ProblemSpec(
        name="singular",
        domain=domain,
        build=build,
        initial_guesses=initial_guesses,
        battery=standard_battery(domain, 3),
        diagnostics=diagnostics,
        monotone_values=False,
    )


# ---------------------------------------------------------------------------
# interface extraction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InterfaceDecomposition:
    """Disjoint cover of the nodes by sign robustness.

    ``omega1`` (``omega2``): nodes whose whole stencil neighborhood is
    strictly positive (negative); ``xi``: the remaining, mixed or touching
    zero.  ``interface_measure`` is the perimeter of the ``{u > 0}`` node
    mask (the nearest-node region extends past the box, so the measure counts
    only the internal interface).
    """

    omega1: NodeSet
    omega2: NodeSet
    xi: NodeSet
    interface_measure: float
    xi_max_distance: Optional[float] = None


def _filter3(grid: np.ndarray, reduce: Callable) -> np.ndarray:
    """``reduce`` (``np.minimum`` or ``np.maximum``) over the ``3^N`` block
    around every node, nodes past the box edge replaced by the edge node.

    One axis at a time, each node's left, centre and right neighbours in
    that order, as ``scipy.ndimage.minimum_filter(grid, 3, mode="nearest")``
    does, so the result matches it bit for bit, signed zeros included.
    """
    for axis, m in enumerate(grid.shape):
        pad = [(1, 1) if a == axis else (0, 0) for a in range(grid.ndim)]
        padded = np.pad(grid, pad, mode="edge")
        lead = (slice(None),) * axis
        left, centre, right = (padded[lead + (slice(k, k + m),)] for k in range(3))
        grid = reduce(reduce(left, centre), right)
    return grid


def extract_interface(
    u: GridFunction, reference_distance: Optional[Callable] = None
) -> InterfaceDecomposition:
    """Decompose the nodes of ``u`` by stencil-robust sign.

    ``reference_distance``, when given, maps an ``(k, N)`` coordinate array
    to distances from a reference surface; the maximum over the mixed set is
    reported (useful to check interface location).
    """
    level = u.level
    grid = u.grid_values
    nmin = _filter3(grid, np.minimum).ravel()
    nmax = _filter3(grid, np.maximum).ravel()
    omega1 = nmin > 0.0
    omega2 = nmax < 0.0
    xi = ~(omega1 | omega2)

    measure = perimeter(NodeMask(level, u.values > 0.0), level)
    xi_idx = np.flatnonzero(xi)
    xi_dist = None
    if reference_distance is not None and xi_idx.size:
        xi_dist = float(np.max(reference_distance(level.coordinates[xi_idx])))
    return InterfaceDecomposition(
        omega1=NodeSet(level, np.flatnonzero(omega1)),
        omega2=NodeSet(level, np.flatnonzero(omega2)),
        xi=NodeSet(level, xi_idx),
        interface_measure=measure,
        xi_max_distance=xi_dist,
    )
