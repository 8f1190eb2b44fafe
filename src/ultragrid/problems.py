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
  ``int (1/2 |grad u|^2 + W(u))`` with the singular potential
  ``W(t) = t**-2``, sign-changing boundary data, and the nodal constraint
  ``u != 0``; the minimizer splits the box into robustly positive / negative
  regions separated by a thin interface.

The Dirichlet term of the singular energy sums the squared derivative over
interior stencil rows only: the antisymmetric closure rows of the derivative
are not consistent for nonzero boundary values and would otherwise add a
spurious ``O(1/h)`` penalty.  Constants remain exactly harmonic under the
resulting masked stiffness.

No study starts a thread: the quotient's Gauss-point pass, the hottest code
of the package, is one sweep on the calling thread.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from functools import lru_cache, reduce
from importlib import resources
from typing import Optional, Sequence

import numpy as np

from .calculus import GridFunction, Stencil, diff_op
from .elements import apply_axes, apply_axis, gauss_interp, p1_matrices
from .grid import DEFAULT_NODE_CAP, Domain, GridLevel
from .measure import NodeMask, perimeter
from .optimize import minimize_quadratic
from .solver import LevelObjective, ProblemSpec

__all__ = [
    "sobolev_constant",
    "sawtooth_spec",
    "sawtooth_pattern",
    "bubble",
    "QuadraticWell",
    "sign_perturbed_spec",
    "concentration_metric",
    "singular_spec",
    "BoundaryDataError",
]


@lru_cache(maxsize=1)
def sobolev_constant(dimension: int) -> float:
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


def _h1_chains(D: Stencil, d: np.ndarray) -> list:
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
    lo, up = D  # D[i, i - 1] and D[i, i + 1]
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
    that barely grows with the level; with the L2 metric ``W`` a start
    prolonged from the coarser minimizer took iterations that grew with the
    level and stalled far above the tolerance.

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
    """The 1D oscillation study on [0, 1] (free boundary, lower bound 0).

    Every level starts from :func:`sawtooth_pattern` alone.  The levels do
    not nest (``monotone_values`` is false): the prolonged coarser minimizer
    oscillates at the coarser grid scale, and its value on levels 4..8 is
    2.77 / 2.65 / 2.58 / 2.54 / 2.52, against at most 0.0156 on the level
    it came from.
    """
    domain = Domain(bounds=((0.0, 1.0),))

    @lru_cache(maxsize=1)
    def build(level: GridLevel) -> LevelObjective:
        return _SawtoothObjective(level)

    def initial_guesses(level):
        return [sawtooth_pattern(level)]

    return ProblemSpec(
        name="sawtooth",
        domain=domain,
        build=build,
        initial_guesses=initial_guesses,
        lower_bound=0.0,
        monotone_values=False,
    )


# ---------------------------------------------------------------------------
# critical Sobolev quotient
# ---------------------------------------------------------------------------


#: the radius of the bubble's Aubin-Talenti profile
BUBBLE_DELTA = 0.25
#: the factor of the bubble's linear cutoff: its support has radius
#: ``BUBBLE_DELTA * BUBBLE_THETA``
BUBBLE_THETA = 2.0


def bubble(level: GridLevel, center: Sequence[float], epsilon: float) -> GridFunction:
    """The cutoff Aubin-Talenti profile ``U(r) = (1 + r^2)^{-(N-2)/2}`` at the
    nodes of ``level``.

    The scaled profile ``U_eps(r) = eps^{(2-N)/2} U(r/eps)`` around
    ``center`` is kept for ``r <= BUBBLE_DELTA``, continued linearly down to
    zero on ``BUBBLE_DELTA < r <= BUBBLE_DELTA * BUBBLE_THETA`` and vanishes
    beyond.  Raises ``ValueError`` unless ``epsilon`` is positive and the
    profile's support fits in the level's domain box.
    """
    dim = level.dimension
    if dim < 3:
        raise ValueError("the bubble profile needs dimension >= 3")
    center = tuple(float(c) for c in center)
    if len(center) != dim:
        raise ValueError("the bubble center needs one coordinate per axis")
    if epsilon <= 0:
        raise ValueError("the bubble's epsilon must be positive")
    support = BUBBLE_DELTA * BUBBLE_THETA
    for c, (lo, hi) in zip(center, level.domain.bounds):
        if c - support < lo - 1e-12 or c + support > hi + 1e-12:
            raise ValueError("bubble support exceeds the domain box")
    r = level.distance(center)
    power = (dim - 2) / 2.0
    u_eps = epsilon**-power * (1.0 + (r / epsilon) ** 2) ** -power
    edge = epsilon**-power * (1.0 + (BUBBLE_DELTA / epsilon) ** 2) ** -power
    ramp = edge * (support - r) / (support - BUBBLE_DELTA)
    values = np.where(r <= BUBBLE_DELTA, u_eps, np.where(r <= support, ramp, 0.0))
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
        if not all(map(_is_real, (*self.center, self.strength))):
            raise ValueError(f"the well needs a finite center and strength, got {self!r}")
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))
        object.__setattr__(self, "strength", float(self.strength))


def _is_real(value) -> bool:
    """Whether ``value`` is a finite real number.  A bool or a str is not,
    though ``float`` takes both (a config's ``true`` or ``"500"``), and
    neither is the ``NaN`` or ``Infinity`` a JSON config can hold."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


#: The most columns of a cell's Gauss rows that the pointwise steps of a
#: quotient sweep take at a time, so that their buffers stay in a 2 MB cache:
#: 3D levels 5 and 6 ran faster with it than with half or twice as many.
_CHUNK = 1 << 13


def _interior_eigenpairs(K: np.ndarray, M: np.ndarray, free: slice) -> tuple[np.ndarray, np.ndarray]:
    """``(V, lam)`` with ``K V = M V diag(lam)`` and ``V^T M V = I`` on the
    nodes ``free`` of an axis, the others Dirichlet (``slice(1, -1)``: both
    ends; ``slice(1, None)``: the first, the last natural), from
    ``numpy.linalg.eigh`` alone: ``M = U diag(mu) U^T`` gives
    ``S = U diag(mu)^-1/2`` with ``S^T M S = I``, then
    ``S^T K S = W diag(lam) W^T`` and ``V = S W``."""
    mu, U = np.linalg.eigh(M[free, free])
    S = U / np.sqrt(mu)
    lam, W = np.linalg.eigh(S.T @ K[free, free] @ S)
    return S @ W, lam


@lru_cache(maxsize=4)
def _mirror_indices(shape: tuple[int, ...]) -> tuple[tuple, tuple]:
    """The indices that fold a grid of odd lengths ``shape`` onto its low
    half and back, built once per shape: per axis, the low half and the
    mirrored high half of the grid already folded along the axes before it;
    and per orthant that is not empty, the pair (its nodes in the grid, its
    mirror in the low half)."""
    folds = tuple(
        ((slice(None),) * axis + (slice(m // 2 + 1),),
         (slice(None),) * axis + (slice(m - 1, m // 2 - 1 if m > 1 else None, -1),))
        for axis, m in enumerate(shape)
    )
    fills = tuple(
        (tuple(slice(m // 2 + 1, None) if hi else slice(m // 2 + 1)
               for hi, m in zip(corner, shape)),
         tuple(slice(-2, None, -1) if hi else slice(None) for hi in corner))
        for corner in np.ndindex((2,) * len(shape))
        if all(m > 1 for hi, m in zip(corner, shape) if hi)
    )
    return folds, fills


def _mirror_average(grid: np.ndarray) -> np.ndarray:
    """The low half of ``grid`` (odd lengths), midplane included, with each
    node the mean of its mirror images about every axis's midplane: the
    mirror pair is averaged axis by axis.  ``(x + x) * 0.5`` is ``x``, so on
    a grid symmetric about every midplane this is its low half, bit for bit."""
    for low, high in _mirror_indices(grid.shape)[0]:
        half = np.add(grid[low], grid[high])
        half *= 0.5
        grid = half
    return grid


def _mirror_fill(half: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """The grid of odd lengths ``shape`` symmetric about every midplane whose
    low half is ``half``: each orthant copied, mirrored, into one array."""
    out = np.empty(shape)
    for dst, src in _mirror_indices(shape)[1]:
        out[dst] = half[src]
    return out


def _scale_midplanes(half: np.ndarray, factor: float) -> None:
    """Scale the last slice of ``half`` along each axis, the midplane of the
    low half, by ``factor``: a node on ``k`` midplanes by ``factor**k``."""
    for axis in range(half.ndim):
        half[(slice(None),) * axis + (-1,)] *= factor


class BoundaryDataError(ValueError):
    """Dirichlet data a level cannot take: singular-study data that vanishes
    at a boundary node, or quotient data that fixes every node of a level."""


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
    ``np.power(y, 2.0)`` does.  The pass is one sweep on the calling thread:
    on a 2-vCPU machine, two ranges of cells on two threads ran slower per
    evaluation and per solve than one sweep.

    L-BFGS runs in the metric of the numerator itself:
    :meth:`precondition` is the exact inverse of its interior Dirichlet block
    ``A = K1_0 (x) M1 (x) M1 + M1 (x) K1_1 (x) M1 + ...``, with the same
    ``K1_i`` the numerator applies, the well's ``A_i`` included, by fast
    diagonalization (Lynch, Rice & Thomas, Numer. Math. 6, 1964).  With the
    per-axis generalized eigenpairs ``K1_i V_i = M1 V_i diag(lam_i)``,
    ``V_i^T M1 V_i = I`` (:func:`_interior_eigenpairs`), ``A^-1 = (V_0 (x)
    V_1 (x) ..) diag(1 / (lam_0 + lam_1 + ..)) (V_0 (x) V_1 (x) ..)^T``: one
    dense contraction per axis each way and a scaling.  A well of negative
    strength stays out of the metric: ``A_i`` is then indefinite, and the
    well-free ``K1_i`` keep ``A`` positive definite.  Under the L2 metric
    ``diag(d)`` the finer starts stall above the tolerance.  Under ``A``,
    with the approximate Wolfe line search of
    :func:`~ultragrid.optimize.lbfgs` (without it, Armijo backtracks on
    rounding noise near the minimum), every start, with or without a well,
    meets it in a few dozen iterations at most.

    Cube-symmetric data, no well or one centred at the box centre, take
    :class:`_OctantQuotient` (the rule is :func:`sign_perturbed_spec`'s):
    the kernels above run on the low octant ``[0, 1/2]^N``, the solver and
    every output stay on the full grid.  The midplanes are grid lines at
    every level >= 1, so no cell straddles them, and the octant's per-axis
    factors are the P1 ``K1``/``M1`` of ``[0, 1/2]`` on ``(m + 1) / 2``
    nodes, the well's ``A_i`` included: node 0 Dirichlet, the midplane node
    natural, so the metric's eigenpairs come from ``K[1:, 1:]``,
    ``M[1:, 1:]``.  The objective is ``Q(Sym u)``: ``u`` is folded onto the
    octant by averaging mirror images, axis by axis
    (:func:`_mirror_average`; ``(x + x) * 0.5`` is exact, so a symmetric
    ``u`` folds bit for bit), and ``num`` and ``den`` are ``2^N`` times the
    octant's.  A node of the octant stands for ``m_k`` nodes of the grid,
    ``2`` per axis off its midplane and ``1`` on it.  The gradient is the
    full grid's: the octant's gradient over ``m_k``, mirrored back
    (:func:`_mirror_fill`), so ``verify_euler_lagrange``'s residuals and
    pairings keep their meaning.  The metric solve folds its vector, scales
    it by ``m_k / 2^N``, applies the octant's inverse and mirrors it back;
    on symmetric vectors, which are all L-BFGS forms from symmetric
    gradients, that is the full metric's inverse.
    """

    def __init__(self, level: GridLevel, well: Optional[QuadraticWell]) -> None:
        if min(level.shape) < 3:
            # every start would pin to zero, and the quotient would be 0 / 0
            raise BoundaryDataError(f"level {level.n} has no interior node")
        super().__init__(level, boundary=0.0)
        dim = level.dimension
        self.p = 2.0 * dim / (dim - 2)  # critical exponent
        self.q = (dim - 2) / dim  # denominator power 2 / 2*
        self._half_exp = (self.p - 2.0) / 2.0  # |u|^(p-2) = (u^2)^half_exp

        self._K1, self._M1, eig, shape = [], [], [], []
        for axis, m in enumerate(level.shape):
            m, free = self._axis(m)
            shape.append(m)
            K, M = p1_matrices(m, level.h)
            metric = K
            if well is not None:  # + A_i, the well's part along this axis
                G, pts, w = gauss_interp(m, level.h, level.domain.bounds[axis][0])
                a = well.strength * (pts - well.center[axis]) ** 2
                K = K + (G * (w * a)[:, None]).T @ G
                if well.strength >= 0.0:  # A_i >= 0: the metric stays SPD
                    metric = K
            self._K1.append(K)
            self._M1.append(M)
            eig.append(_interior_eigenpairs(metric, M, free))
        self._V = [V for V, _ in eig]
        # the open mesh of np.ix_ sums to lam_i + lam_j + ... on the interior grid
        self._inv_lam = 1.0 / sum(np.ix_(*[lam for _, lam in eig]))
        # every cell's Gauss rows on its two nodes: the 4 x 2 block S, the
        # same on every axis, and its weighted transpose S^T diag(w); axis 0
        # takes cell c's block by ring slot (slot r % 2 holds node row r)
        S, _, w = gauss_interp(2, level.h, 0.0)
        self._S0, self._B0T = (S, S[:, ::-1]), (S * w[:, None]).T
        # axes 1 .. N-1: the Kronecker powers of both blocks, on the 2^(N-1)
        # corner slices of a node row, one per cell corner, in C order
        self._Sk = reduce(np.kron, [S] * (dim - 1))
        self._BkT = reduce(np.kron, [self._B0T] * (dim - 1))
        self._cell_shape = tuple(m - 1 for m in shape[1:])  # the cells of a node row
        self._corners = [tuple(slice(e, e + c) for e, c in zip(corner, self._cell_shape))
                         for corner in np.ndindex((2,) * (dim - 1))]
        # the node under each entry of the corner slices, corner by corner,
        # for the sum of _project (_interp copies the slices: from level 5
        # on that is faster than np.take)
        nodes = np.arange(math.prod(shape[1:])).reshape(shape[1:])
        self._gather = np.concatenate([nodes[corner].ravel() for corner in self._corners])

    #: the mirror copies of the kernel grid that make up the domain
    _copies = 1.0

    def _axis(self, m: int) -> tuple[int, slice]:
        """The kernel grid's nodes on a level axis of ``m`` nodes, and the
        slice of them the metric solves for: every node, both ends Dirichlet."""
        return m, slice(1, -1)

    def _kernel_grid(self, u: np.ndarray) -> np.ndarray:
        """The node vector ``u`` on the kernel grid."""
        return u.reshape(self.level.shape)

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
        ``adj`` into the gradient.  Node row ``c`` is finished right after
        cell ``c``: row 0 from cell 0's part alone, each later row from the
        previous cell's part plus cell ``c``'s, and the last row from the last
        cell's part after the sweep.
        """
        S0, B0T = self._S0, self._B0T
        rule, width = B0T.shape[1], len(self._Sk) * math.prod(self._cell_shape)
        cells = grid.shape[0] - 1
        adj = np.empty(grid.shape)
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

        self._interp(grid[0], ring[0], buf)
        for c in range(cells):
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
            if c > 0:
                front += back[(c - 1) % 2, 1]
            self._project(front, adj[c], buf)
        self._project(back[(cells - 1) % 2, 1], adj[cells], buf)
        return float(np.vdot(grid, adj)), adj

    # -- energy -------------------------------------------------------------
    def value_and_grad(self, u: np.ndarray) -> tuple[float, np.ndarray]:
        value, grad = self._energy(self._kernel_grid(u))
        return value, grad.ravel()

    def _energy(self, grid: np.ndarray) -> tuple[float, np.ndarray]:
        """``(value, grad)`` of the kernel grid ``grid`` taken ``_copies``
        times: ``num`` and ``den`` are ``_copies`` times ``grid``'s own, and
        ``grad`` is the gradient in ``grid``'s nodes over ``_copies``."""
        ku = self._stiffness_apply(grid)
        num = self._copies * float(np.vdot(grid, ku))
        den, adj = self._gauss_pass(grid)
        den *= self._copies
        if den <= 0.0:
            return float("inf"), np.zeros(grid.shape)
        value = num / den**self.q
        scale = den**-self.q
        # d(num / den^q) = d_num / den^q - q num / den^(q+1) d_den, with
        # d_num = 2 K u (the well is part of K) and d_den = p G^T W (u |u|^(p-2))
        adj *= -self.p * self.q * num * scale / den
        ku *= 2.0 * scale
        ku += adj
        return value, ku

    def precondition(self, g: np.ndarray) -> np.ndarray:
        return self._solve_metric(g.reshape(self._inv_lam.shape)).ravel()

    def _solve_metric(self, t: np.ndarray) -> np.ndarray:
        """The kernel grid's metric solve on its free dofs ``t``."""
        t = apply_axes([V.T for V in self._V], t)
        t *= self._inv_lam
        return apply_axes(self._V, t)

    def normalize(self, u: np.ndarray) -> np.ndarray:
        den = self._copies * self._gauss_pass(self._kernel_grid(u))[0]
        if den <= 0.0:
            return u
        return u * den ** (-1.0 / self.p)


class _OctantQuotient(_QuotientObjective):
    """The quotient of cube-symmetric data, its kernels on the octant
    ``[0, 1/2]^N`` (the last paragraph of :class:`_QuotientObjective`)."""

    def __init__(self, level: GridLevel, well: Optional[QuadraticWell]) -> None:
        super().__init__(level, well)
        self._copies = 2.0**level.dimension
        self._free_shape = tuple(m - 2 for m in level.shape)

    def _axis(self, m: int) -> tuple[int, slice]:
        # node 0 is Dirichlet, the midplane node (m - 1) / 2 natural
        return (m + 1) // 2, slice(1, None)

    def _kernel_grid(self, u: np.ndarray) -> np.ndarray:
        return _mirror_average(u.reshape(self.level.shape))

    def value_and_grad(self, u: np.ndarray) -> tuple[float, np.ndarray]:
        value, grad = self._energy(self._kernel_grid(u))
        # the octant gradient is _copies times grad, summed over each node's
        # m_k mirrors: each mirror takes _copies / m_k times grad, twice
        # grad per midplane the node lies on
        _scale_midplanes(grad, 2.0)
        return value, _mirror_fill(grad, self.level.shape).ravel()

    def precondition(self, g: np.ndarray) -> np.ndarray:
        t = _mirror_average(g.reshape(self._free_shape))
        _scale_midplanes(t, 0.5)  # m_k / _copies
        return _mirror_fill(self._solve_metric(t), self._free_shape).ravel()


def concentration_metric(u: GridFunction, x_m: Sequence[float], r: float) -> float:
    """Fraction of the ``|u|^{2*}`` nodal mass inside the ball ``B_r(x_m)``."""
    if r <= 0:
        raise ValueError("radius must be positive")
    dim = u.level.dimension
    if dim < 3:
        raise ValueError("the critical exponent needs dimension >= 3")
    mass = np.abs(u.values) ** (2.0 * dim / (dim - 2)) * u.level.weights
    total = float(mass.sum())
    if total == 0.0:
        return 0.0
    dist = u.level.distance(x_m)
    return float(mass[dist <= r].sum() / total)


#: the widths, in grid steps, of the first quotient level's bubble starts: on
#: a strength-500 well at (0.4, 0.5, 0.6) from level 4, scale 8 ends lower
#: than scales 2 and 4
BUBBLE_SCALES = (2.0, 4.0, 8.0)
#: the radius of the ball around the box center that ``concentration`` reads
CONCENTRATION_RADIUS = 0.2


def sign_perturbed_spec(a: Optional[QuadraticWell] = None, dimension: int = 3) -> ProblemSpec:
    """Critical Sobolev quotient on the unit box with Dirichlet-zero data.

    ``a`` is an optional potential well, with one center coordinate per
    axis; in 3D the sharp constant is a certified lower bound without one
    and with a non-negative ``a.strength``.  The first level starts from
    cutoff instanton bubbles at the box center, one per scale of
    ``BUBBLE_SCALES`` in grid steps; every later level from the prolonged
    coarser minimizer alone.  The ``concentration`` diagnostic is the
    ``|u|^{2*}`` mass within ``CONCENTRATION_RADIUS`` of the center.
    Without a well, or with one centred at the box center, the data are
    cube-symmetric, and the objective runs its kernels on one octant
    (:class:`_OctantQuotient`); any other well keeps the full grid.
    """
    if dimension < 3:
        raise ValueError("the critical-exponent study needs dimension >= 3")
    if dimension > DEFAULT_NODE_CAP.bit_length() - 1:
        # level 0 has 2**dimension nodes: refused before the bounds tuple is built
        raise ValueError(f"dimension {dimension}: level 0 has 2**{dimension} nodes, "
                         f"exceeding the cap of {DEFAULT_NODE_CAP}")
    if a is not None and len(a.center) != dimension:
        raise ValueError(f"the well center needs {dimension} coordinates, got {a.center!r}")
    domain = Domain(bounds=tuple(((0.0, 1.0),) * dimension))
    x_m = (0.5,) * dimension

    lower = None
    if dimension == 3 and (a is None or a.strength >= 0.0):
        lower = sobolev_constant(3)

    # cube-symmetric data: the kernels run on one octant
    objective = _OctantQuotient if a is None or a.center == x_m else _QuotientObjective

    @lru_cache(maxsize=1)
    def build(level: GridLevel) -> LevelObjective:
        return objective(level, a)

    def initial_guesses(level):
        return [bubble(level, x_m, s * level.h).values for s in BUBBLE_SCALES]

    def diagnostics(obj: LevelObjective, u: np.ndarray) -> dict:
        gf = GridFunction(obj.level, u)
        return {
            "concentration": concentration_metric(gf, x_m, CONCENTRATION_RADIUS),
            "linf": float(np.max(np.abs(u))),
        }

    return ProblemSpec(
        name="sign_perturbed",
        domain=domain,
        build=build,
        initial_guesses=initial_guesses,
        lower_bound=lower,
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
        lo, up = diff_op(level).matrices[axis]  # D[k, k - 1], D[k, k + 1]
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
    """The masked Dirichlet energy plus ``int W(u)``, ``W(t) = t**-2``,
    minimized by Newton: ``W'' > 0`` keeps the Hessian SPD."""

    has_hessian = True

    def __init__(self, level: GridLevel, g_values: np.ndarray) -> None:
        super().__init__(level, boundary=g_values)
        self._op = diff_op(level)
        self._d = level.weights
        self._K = _masked_stiffness(level)
        self.blocks = _parity_blocks(level, self._K)

    def value_and_grad(self, u: np.ndarray) -> tuple[float, np.ndarray]:
        total = 0.0
        grad = self._d * _default_Wp(u)
        for axis in range(self.level.dimension):
            du = self._op.apply(u, axis)
            # the energy leaves out the closure rows of D_i
            du.reshape(self.level.shape)[(slice(None),) * axis + ([0, -1],)] = 0.0
            total += 0.5 * float((du * du) @ self._d)
            du *= self._d
            grad += self._op.apply_transpose(du, axis)
        total += float(_default_W(u) @ self._d)
        return total, grad

    def hessian(self, u: np.ndarray):
        return self.blocks, self._d * _default_Wpp(u)

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


#: the least ``|u|`` of the singular study's start: the harmonic extension
#: is floored away from zero to it, with its signs kept
INIT_FLOOR = 0.1
#: a harmonic value within this fraction of ``max |g|`` of zero counts as
#: zero for the start's sign: at levels 4..7 the default data leaves 8 / 16 /
#: 32 / 64 values of at most 2.3e-15 off the odd-odd block, whose signs
#: follow the LU's rounding and would fix Newton's sign orthant
SIGN_ZERO_RTOL = 1e-12


def singular_spec(
    g_affine: Optional[Sequence[float]] = None, domain: Optional[Domain] = None
) -> ProblemSpec:
    """The singular-potential study, ``W(t) = t**-2`` (default on [0,1]^2).

    Every level is minimized by damped Newton.  The Dirichlet data ``g`` is
    sign-changing and must be nonzero at every boundary node.  By default
    ``g`` is +1 where the first coordinate is <= the axis midpoint, else -1
    (midline nodes get +1 by convention); ``g_affine``, finite reals
    ``(c_1, ..., c_N, c)``, one per axis and a constant, sets the affine
    ``g = c_1 x_1 + ... + c_N x_N + c`` instead, and raises ``ValueError``
    otherwise.  The initializer is the harmonic
    extension of ``g`` clipped away from zero (``|u| >= INIT_FLOOR``).
    The values of the study do not minimize one nested family of energies
    (``monotone_values`` is false), so no level starts from the prolonged
    coarser minimizer.
    """
    if domain is None:
        domain = Domain(bounds=((0.0, 1.0), (0.0, 1.0)))
    mid = 0.5 * (domain.bounds[0][0] + domain.bounds[0][1])

    if g_affine is None:
        def g(*coords):
            return np.where(np.asarray(coords[0]) <= mid, 1.0, -1.0)
    else:
        if not all(map(_is_real, g_affine)):
            raise ValueError(f"g_affine needs real coefficients, got {g_affine!r}")
        coeffs = tuple(float(c) for c in g_affine)
        if len(coeffs) != domain.dimension + 1:
            raise ValueError(
                f"g_affine needs {domain.dimension + 1} coefficients (one per axis "
                f"and a constant), got {g_affine!r}"
            )

        def g(*coords):
            slopes = zip(coeffs[:-1], coords)
            return sum(ci * np.asarray(x) for ci, x in slopes) + coeffs[-1]

    def _boundary_values(level: GridLevel) -> np.ndarray:
        vals = np.asarray(g(*np.ix_(*level.axes)), dtype=float)
        vals = np.broadcast_to(vals, level.shape).ravel()
        on_boundary = level.boundary_mask
        zero = on_boundary & (vals == 0.0)
        if zero.any():
            node = int(np.flatnonzero(zero)[0])
            raise BoundaryDataError(f"boundary data vanishes at node {node}")
        return np.where(on_boundary, vals, 0.0)

    @lru_cache(maxsize=1)
    def build(level: GridLevel) -> LevelObjective:
        return _SingularObjective(level, _boundary_values(level))

    def initial_guesses(level):
        """The harmonic extension of ``g``, clipped away from zero.

        A value within ``SIGN_ZERO_RTOL * max |g|`` of zero counts as zero:
        the start is ``+INIT_FLOOR`` left of the midline and ``-INIT_FLOOR``
        right of it there.  That covers the parity block with every index
        odd, where the extension is exactly 0 (see
        :meth:`_SingularObjective.harmonic_extension`), and the rounding
        noise that the sparse LU leaves where the extension vanishes.
        """
        obj = build(level)
        u = obj.harmonic_extension().reshape(level.shape)
        x0 = np.ix_(*level.axes)[0]
        zero = np.abs(u) <= SIGN_ZERO_RTOL * np.max(np.abs(obj.fixed_values))
        sign = np.where(zero, np.where(x0 <= mid, 1.0, -1.0), np.sign(u))
        return [(sign * np.maximum(np.abs(u), INIT_FLOOR)).ravel()]

    def diagnostics(obj: LevelObjective, u: np.ndarray) -> dict:
        free = obj.free_mask
        return {
            "min_abs_u": float(np.min(np.abs(u[free]))) if free.any() else 0.0,
            # the interface length: the perimeter of the {u > 0} node mask,
            # whose nearest-node region reaches past the box, so that only
            # the internal interface counts
            "interface_measure": perimeter(NodeMask(obj.level, u > 0.0), obj.level),
        }

    return ProblemSpec(
        name="singular",
        domain=domain,
        build=build,
        initial_guesses=initial_guesses,
        diagnostics=diagnostics,
        monotone_values=False,
    )

