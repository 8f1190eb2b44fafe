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
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from typing import Callable, Optional, Sequence

import numpy as np

from .calculus import GridFunction, diff_op, standard_battery
from .elements import Banded, apply_axis, gauss_interp, p1_matrices
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
    "quadratic_well",
    "sign_perturbed_spec",
    "concentration_metric",
    "singular_spec",
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
    objective into its two tridiagonal parity chains (:func:`_h1_chains`).  With it every start of levels 3..12 ends
    by the gradient test within ~50 iterations; with the L2 metric ``W`` the
    prolonged warm start grows from 47 to 3,695 iterations over levels 4..12
    and stalls at up to 1.5e5 times the tolerance.

    The metric is not the P1 ``K1 + M1``.  The central difference decouples
    the even and odd nodes, so the Hessian
    ``2 W + D^T W diag(4 (3 (Du)^2 - 1)) D`` matches ``D^T W D``, while
    ``K1`` puts its largest eigenvalue on the checkerboard mode, which the
    functional barely sees.  Under ``K1 + M1`` one start at each of levels
    10..12 hits the 10,000-iteration cap, and level 10 ends at 1.42e-6
    instead of its minimum 9.54e-7.
    """

    def __init__(self, level: GridLevel) -> None:
        super().__init__(level)
        self._op = diff_op(level)
        self._d = level.weights
        self._chains = _h1_chains(self._op.matrices[0], self._d)

    def value(self, u: np.ndarray) -> float:
        du = self._op.apply(u, 0)
        return float((u * u) @ self._d + ((du * du - 1.0) ** 2) @ self._d)

    def value_and_grad(self, u: np.ndarray) -> tuple[float, np.ndarray]:
        du = self._op.apply(u, 0)
        slack = du * du - 1.0
        value = float((u * u) @ self._d + (slack**2) @ self._d)
        inner_term = 4.0 * du * slack * self._d
        return value, 2.0 * u * self._d + self._op.apply_transpose(inner_term, 0)

    def gradient(self, u: np.ndarray) -> np.ndarray:
        return self.value_and_grad(u)[1]

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


def bubble(init: BubbleInitializer, level: GridLevel) -> GridFunction:
    """Sample the cutoff profile at the nodes of ``level``."""
    dim = level.dimension
    if dim < 3:
        raise ValueError("the bubble profile needs dimension >= 3")
    support = init.delta * init.theta
    for c, (lo, hi) in zip(init.center, level.domain.bounds):
        if c - support < lo - 1e-12 or c + support > hi + 1e-12:
            raise ValueError("bubble support exceeds the domain box")

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


def quadratic_well(center: Sequence[float], strength: float = 50.0) -> Callable:
    """Potential ``a(x) = strength * |x - center|^2`` (isolated minimum)."""
    c = tuple(float(x) for x in center)

    def a(*coords):
        return strength * sum((np.asarray(x) - ci) ** 2 for x, ci in zip(coords, c))

    return a


#: Axis-0 cells per slab of the streamed quotient pass.
_SLAB_CELLS = 1


def _apply_trailing(
    mats: Sequence[np.ndarray], t: np.ndarray, first: int = 1
) -> np.ndarray:
    """Apply the dense ``mats[k]`` along axis ``k`` of ``t``, every axis from ``first``.

    Each step is one (batched) GEMM on a C-contiguous operand: no axis is
    moved and no operand is copied.
    """
    for axis in range(t.ndim - 1, first - 1, -1):
        mat = mats[axis]
        head = t.shape[:axis]
        if axis == t.ndim - 1:
            t = (t.reshape(-1, t.shape[axis]) @ mat.T).reshape(head + (mat.shape[0],))
        else:
            tail = t.shape[axis + 1:]
            batched = t.reshape(int(np.prod(head)), t.shape[axis], -1)
            t = (mat @ batched).reshape(head + (mat.shape[0],) + tail)
    return t


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

    The numerator's Dirichlet part is the stiffness kron-sum on the node
    grid.  The Gauss-point terms (the denominator ``int |u|^p`` and the
    potential ``int a u^2``) and their adjoints come from one streamed pass
    (:meth:`_gauss_pass`): the node grid is contracted with the dense 1D
    Gauss matrices along axes ``1 .. N-1``, then axis 0 is swept in slabs of
    ``_SLAB_CELLS`` cells, each of which reads only the nodes of its own
    cells, so the full Gauss-point grid is never stored.  ``|u|^p`` is formed
    as ``u * u (u^2)^((p-2)/2)``; for ``p = 6`` numpy's power loop takes the
    exponent 2 without a general float ``pow``.

    L-BFGS runs in the H1 metric of the numerator: :meth:`precondition` is
    the exact inverse of the interior Dirichlet stiffness
    ``A = K1 (x) M1 (x) M1 + M1 (x) K1 (x) M1 + ...``, by fast
    diagonalization (Lynch, Rice & Thomas, Numer. Math. 6, 1964).  With the
    per-axis generalized eigenpairs ``K1 V = M1 V diag(lam)``,
    ``V^T M1 V = I``, ``A^-1 = (V (x) ... (x) V) diag(1 / (lam_i + lam_j + ...))
    (V (x) ... (x) V)^T``: one dense contraction per axis each way and a
    scaling.  Under the L2 metric ``diag(d)`` the level-5 starts stalled at
    31 and 179 times the tolerance.  Under ``A``, with the approximate Wolfe
    line search of :func:`~ultragrid.optimize.lbfgs` (without it, Armijo
    backtracks on rounding noise near the minimum), every start of levels
    3..6, with or without a well, meets it within about 25 iterations.
    """

    def __init__(self, level: GridLevel, potential: Optional[Callable]) -> None:
        super().__init__(level)
        dim = level.dimension
        self.p = 2.0 * dim / (dim - 2)  # critical exponent
        self.q = (dim - 2) / dim  # denominator power 2 / 2*
        self._half_exp = (self.p - 2.0) / 2.0  # |u|^(p-2) = (u^2)^half_exp
        self.fixed_mask = level.boundary_mask.copy()
        self.fixed_values = np.zeros(level.node_count)

        self._K1, self._M1 = [], []
        self._G, self._GWT, self._gw = [], [], []
        gauss_points = []
        for axis, m in enumerate(level.shape):
            K, M = p1_matrices(m, level.h)
            self._K1.append(K)
            self._M1.append(M)
            G, pts, w = gauss_interp(m, level.h, level.domain.bounds[axis][0])
            self._G.append(G)
            self._GWT.append((G * w[:, None]).T)  # G^T diag(w)
            self._gw.append(w)
            gauss_points.append(pts)

        eig = [_dirichlet_eigenpairs(m, level.h) for m in level.shape]
        self._V = [V for V, _ in eig]
        # the open mesh of np.ix_ sums to lam_i + lam_j + ... on the interior grid
        self._inv_lam = 1.0 / sum(np.ix_(*[lam for _, lam in eig]))

        self._a_gauss = None
        self._acc = None  # see _accumulators
        if potential is not None:
            mesh = np.meshgrid(*gauss_points, indexing="ij", sparse=True)
            a_vals = np.asarray(potential(*mesh), dtype=float)
            shape = tuple(p.size for p in gauss_points)
            self._a_gauss = np.broadcast_to(a_vals, shape)

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

    def _accumulators(self, shape: tuple) -> list:
        """The zeroed adjoint accumulators ``[acc, acc_a]`` of :meth:`_gauss_pass`.

        ``acc_a`` is ``None`` without a potential.  They are kept between
        calls and zeroed in place: fresh arrays this size (4 MiB at level 5
        in 3D, 32 MiB at level 6) would cost their page faults again on every
        evaluation.
        """
        if self._acc is None:
            self._acc = [np.empty(shape), None if self._a_gauss is None else np.empty(shape)]
        for buf in self._acc:
            if buf is not None:
                buf.fill(0.0)
        return self._acc

    def _weighted_sum(self, x: np.ndarray, w0: np.ndarray) -> float:
        """Gauss-weighted sum of a slab ``x`` whose axis-0 weights are ``w0``."""
        for w in reversed(self._gw[1:]):
            x = x.reshape(-1, w.size) @ w
        return float(w0 @ x)

    def _gauss_pass(self, grid: np.ndarray, adjoint: bool):
        """``(den, pot, acc, acc_a)`` of one streamed Gauss-point pass.

        ``den = int |u|^p`` and ``pot = int a u^2`` (0 without a potential).
        With ``adjoint``, ``acc`` and ``acc_a`` hold the axis-0 adjoints
        ``(diag(w_0) G_0)^T (u |u|^(p-2))`` and ``(diag(w_0) G_0)^T (a u)``
        over the Gauss grid of axes ``1 .. N-1``; :meth:`value_and_grad`
        finishes them with the weighted Gauss matrices of those axes.
        ``acc`` is ``None`` without ``adjoint``; ``acc_a`` is ``None``
        without ``adjoint`` or without a potential.
        """
        t = _apply_trailing(self._G, grid)
        t = t.reshape(t.shape[0], -1)
        G0, GWT0, w0 = self._G[0], self._GWT[0], self._gw[0]
        a_gauss = self._a_gauss
        acc, acc_a = self._accumulators(t.shape) if adjoint else (None, None)
        den = pot = 0.0
        cells = G0.shape[1] - 1
        rule = G0.shape[0] // cells  # Gauss rows per cell
        per_slab = min(cells, _SLAB_CELLS)
        # slab buffers, reused: fresh temporaries this size would cost page faults
        ug_buf, y_buf, z_buf = np.empty((3, rule * per_slab, t.shape[1]))
        back_buf = np.empty((per_slab + 1, t.shape[1]))

        def accumulate(into, rows, nodes, vals):
            back = back_buf[: nodes.stop - nodes.start]
            np.matmul(GWT0[nodes, rows], vals, out=back)
            into[nodes] += back

        for c0 in range(0, cells, per_slab):
            c1 = min(c0 + per_slab, cells)
            rows = slice(rule * c0, rule * c1)
            nodes = slice(c0, c1 + 1)  # the only nodes these Gauss rows read
            n = rows.stop - rows.start
            ug, y, z = ug_buf[:n], y_buf[:n], z_buf[:n]
            np.matmul(G0[rows, nodes], t[nodes], out=ug)
            np.multiply(ug, ug, out=y)
            np.power(y, self._half_exp, out=y)
            np.multiply(y, ug, out=y)  # u |u|^(p-2)
            den += self._weighted_sum(np.multiply(ug, y, out=z), w0[rows])
            if adjoint:
                accumulate(acc, rows, nodes, y)
            if a_gauss is not None:
                np.multiply(a_gauss[rows].reshape(ug.shape), ug, out=y)  # a u
                pot += self._weighted_sum(np.multiply(ug, y, out=z), w0[rows])
                if adjoint:
                    accumulate(acc_a, rows, nodes, y)
        return den, pot, acc, acc_a

    # -- energy -------------------------------------------------------------
    def _pieces(self, u: np.ndarray, adjoint: bool):
        grid = u.reshape(self.level.shape)
        ku = self._stiffness_apply(grid)
        num = float(np.vdot(grid, ku))
        den, pot, acc, acc_a = self._gauss_pass(grid, adjoint)
        num += pot
        value = num / den**self.q if den > 0.0 else float("inf")
        return value, ku, num, den, acc, acc_a

    def value(self, u: np.ndarray) -> float:
        return self._pieces(u, adjoint=False)[0]

    def value_and_grad(self, u: np.ndarray) -> tuple[float, np.ndarray]:
        value, ku, num, den, acc, acc_a = self._pieces(u, adjoint=True)
        if den <= 0.0:
            return value, np.zeros(u.size)
        scale = den**-self.q
        # d(num / den^q) = d_num / den^q - q num / den^(q+1) d_den, with
        # d_num = 2 K u + 2 G^T W (a u) and d_den = p G^T W (u |u|^(p-2))
        acc *= -self.p * self.q * num * scale / den
        if acc_a is not None:
            acc += (2.0 * scale) * acc_a
        shape = (acc.shape[0],) + tuple(w.size for w in self._gw[1:])
        adj = _apply_trailing(self._GWT, acc.reshape(shape))
        return value, (2.0 * scale * ku + adj).ravel()

    def gradient(self, u: np.ndarray) -> np.ndarray:
        return self.value_and_grad(u)[1]

    def precondition(self, g: np.ndarray) -> np.ndarray:
        interior = g.reshape(self._inv_lam.shape)  # free dofs in C order
        t = _apply_trailing([V.T for V in self._V], interior, first=0)
        t *= self._inv_lam
        return _apply_trailing(self._V, t, first=0).ravel()

    def normalize(self, u: np.ndarray) -> np.ndarray:
        den = self._gauss_pass(u.reshape(self.level.shape), adjoint=False)[0]
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
    a: Optional[Callable] = None,
    dimension: int = 3,
    delta: float = 0.25,
    theta: float = 2.0,
    center: Optional[Sequence[float]] = None,
    bubble_scales: Sequence[float] = (2.0, 4.0, 8.0),
    concentration_radius: float = 0.2,
) -> ProblemSpec:
    """Critical Sobolev quotient on the unit box with Dirichlet-zero data.

    ``a`` is an optional potential (``a >= 0`` keeps the sharp constant a
    certified lower bound); initial guesses are cutoff instanton bubbles at
    grid-proportional scales, centered at ``center`` (default: box center).
    """
    if dimension < 3:
        raise ValueError("the critical-exponent study needs dimension >= 3")
    domain = Domain(bounds=tuple(((0.0, 1.0),) * dimension))
    x_m = tuple(center) if center is not None else (0.5,) * dimension

    lower = None
    if dimension == 3:
        if a is None:
            lower = sobolev_constant(3)
        else:
            rng = np.random.default_rng(12345)
            probes = rng.random((1000, dimension))
            sampled = np.asarray(a(*[probes[:, i] for i in range(dimension)]))
            if np.all(sampled >= 0.0):
                lower = sobolev_constant(3)

    @lru_cache(maxsize=1)
    def build(level: GridLevel) -> LevelObjective:
        return _QuotientObjective(level, a)

    def initial_guesses(level, rng, warm):
        scales = [bubble_scales[1]] if warm is not None else list(bubble_scales)
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
    Newton solve and harmonic start need sparse matrices, loads it.
    """
    import scipy.sparse as sp

    mats = diff_op(level).matrices
    terms = []
    for i in range(level.dimension):
        pieces = []
        for axis, m in enumerate(level.shape):
            w = sp.diags(level.axis_weights[axis])
            if axis == i:
                lo, up = mats[axis].diagonals  # D[i, i - 1] and D[i, i + 1]
                D = sp.diags([lo[1:], up[:-1]], [-1, 1], format="csr")
                mask = np.ones(m)
                mask[0] = mask[-1] = 0.0
                pieces.append(sp.csr_matrix(D.T @ sp.diags(level.axis_weights[axis] * mask) @ D))
            else:
                pieces.append(sp.csr_matrix(w))
        term = pieces[0]
        for p in pieces[1:]:
            term = sp.kron(term, p, format="csr")
        terms.append(term)
    total = terms[0]
    for t in terms[1:]:
        total = total + t
    return total.tocsr()


class _SingularObjective(LevelObjective):
    has_hessian = True

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

    def value(self, u: np.ndarray) -> float:
        total = 0.0
        for axis, mask in enumerate(self._row_masks):
            du = self._op.apply(u, axis)
            total += 0.5 * float((du * du * mask) @ self._d)
        total += float(self._W(u) @ self._d)
        return total

    def value_and_grad(self, u: np.ndarray) -> tuple[float, np.ndarray]:
        total = 0.0
        grad = self._d * self._Wp(u)
        for axis, mask in enumerate(self._row_masks):
            du = self._op.apply(u, axis)
            total += 0.5 * float((du * du * mask) @ self._d)
            grad = grad + self._op.apply_transpose(du * mask * self._d, axis)
        total += float(self._W(u) @ self._d)
        return total, grad

    def gradient(self, u: np.ndarray) -> np.ndarray:
        return self.value_and_grad(u)[1]

    def hessian(self, u: np.ndarray):
        return self._K, self._d * self._Wpp(u)

    def strong_residual(self, u: np.ndarray) -> np.ndarray:
        lap = np.zeros_like(u)
        for axis, mask in enumerate(self._row_masks):
            du = self._op.apply(u, axis)
            lap -= self._op.apply_transpose(du * mask * self._d, axis) / self._d
        return -lap + self._Wp(u)

    def feasible(self, u: np.ndarray) -> bool:
        return bool(np.all(u != 0.0))

    def accept_step(self, u_old: np.ndarray, u_new: np.ndarray) -> bool:
        free = self.free_mask
        return bool(np.all(u_new[free] * u_old[free] > 0.0))


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
    """
    if W is None:
        W, Wp, Wpp = _default_W, _default_Wp, _default_Wpp
    elif Wp is None:
        raise ValueError("a custom potential needs its derivative")
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
            raise ValueError(f"boundary data vanishes at node {node}")
        return np.where(on_boundary, vals, 0.0)

    @lru_cache(maxsize=1)
    def build(level: GridLevel) -> LevelObjective:
        return _SingularObjective(level, W, Wp, Wpp, _boundary_values(level))

    def initial_guesses(level, rng, warm):
        """The harmonic extension of ``g``, clipped away from zero.

        The masked stiffness is only semidefinite on the free nodes: the
        central differences couple nodes two apart, and the block of nodes
        with every index odd never touches the boundary, so the extension
        (a sparse LU solve) is exactly 0 there and the start is
        ``+init_floor`` left of the midline and ``-init_floor`` right of it.
        """
        obj = build(level)
        u = minimize_quadratic(obj._K, obj.fixed_values, obj.free_mask)
        x0 = level.coordinates[:, 0]
        sign = np.where(u > 0, 1.0, np.where(u < 0, -1.0, np.where(x0 <= mid, 1.0, -1.0)))
        clipped = sign * np.maximum(np.abs(u), init_floor)
        return [clipped]

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
