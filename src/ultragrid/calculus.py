"""Grid-function calculus: pointwise integral, SBP derivatives, pairings.

The derivative is a summation-by-parts (SBP) operator: with the trapezoid
weight diagonal ``W`` of the level, the matrix ``W @ D`` is exactly
antisymmetric.  Interior rows are the second-order central difference; the
closure rows are ``(Du)_0 = u_1 / h`` and ``(Du)_M = -u_{M-1} / h``, which
keep ``W @ D`` antisymmetric for *all* pairs of grid functions (not only
interior-supported ones).  The price is that the closure rows are not
consistent for fields with nonzero boundary values; fields vanishing on the
boundary retain the full second-order accuracy.

Consequences used throughout the package:

* ``inner(D u, v) == -inner(u, D v)`` to rounding, always;
* the discrete Laplacian ``sum_i D_i (D_i u)`` satisfies
  ``inner(lap u, v) == -sum_i inner(D_i u, D_i v)`` exactly;
* the divergence-theorem identity in :mod:`ultragrid.measure` is algebraic.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .elements import Banded, apply_axis
from .grid import GridLevel, NodeSet

__all__ = [
    "GridFunction",
    "DiffOp",
    "TestFunction",
    "restrict",
    "integral",
    "sigma",
    "inner",
    "norm",
    "diff_op",
    "derivative",
    "gradient",
    "divergence",
    "laplacian",
    "pair_distribution",
    "derivative_kernel_dimension",
    "bump",
    "standard_battery",
    "grid_function_to_csv",
    "grid_function_from_csv",
    "grid_function_to_binary",
    "grid_function_from_binary",
]


@dataclass(frozen=True, eq=False)
class GridFunction:
    """One real value per node of a :class:`~ultragrid.grid.GridLevel`."""

    level: GridLevel
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.ascontiguousarray(self.values, dtype=float)
        if vals.shape == tuple(self.level.shape):
            vals = vals.ravel()
        if vals.shape != (self.level.node_count,):
            raise ValueError(
                f"value array of length {vals.size} does not match "
                f"{self.level.node_count} nodes"
            )
        if not np.all(np.isfinite(vals)):
            bad = int(np.flatnonzero(~np.isfinite(vals))[0])
            raise ValueError(f"non-finite value at node {bad}")
        object.__setattr__(self, "values", vals)

    @property
    def grid_values(self) -> np.ndarray:
        """Values reshaped to the lattice shape."""
        return self.values.reshape(self.level.shape)


def restrict(
    f: Callable[..., float | np.ndarray],
    level: GridLevel,
    region: Callable[..., np.ndarray] | None = None,
) -> GridFunction:
    """Sample ``f`` at the nodes; nodes outside ``region`` get value 0.

    ``f`` is called with one coordinate array per axis (vectorized); if that
    fails it is evaluated point by point.  ``region``, when given, is a
    vectorized predicate with the same calling convention; ``f`` is only
    evaluated where the predicate holds, matching the convention that a
    function defined on a subset extends by zero.
    """
    mesh = level.meshgrid()
    if region is not None:
        inside = np.asarray(region(*mesh), dtype=bool).ravel()
    else:
        inside = np.ones(level.node_count, dtype=bool)

    values = np.zeros(level.node_count)
    if inside.any():
        coords = level.coordinates[inside]
        args = [coords[:, i] for i in range(level.dimension)]
        try:
            sampled = np.asarray(f(*args), dtype=float)
            if sampled.shape != (coords.shape[0],):
                sampled = np.broadcast_to(sampled, (coords.shape[0],)).astype(float)
        except (TypeError, ValueError):
            sampled = np.array([float(f(*pt)) for pt in coords])
        if not np.all(np.isfinite(sampled)):
            bad = int(np.flatnonzero(inside)[np.flatnonzero(~np.isfinite(sampled))[0]])
            raise ValueError(
                f"function returned a non-finite value at node {bad} "
                f"(coordinates {tuple(level.coordinates[bad])})"
            )
        values[inside] = sampled
    return GridFunction(level, values)


def integral(u: GridFunction, over: NodeSet | None = None) -> float:
    """Weighted nodal sum ``sum_a u(a) d(a)``, optionally over a node subset."""
    if over is None:
        return float(u.values @ u.level.weights)
    if over.level != u.level:
        raise ValueError("node set belongs to a different level")
    idx = over.indices
    return float(u.values[idx] @ u.level.weights[idx])


def sigma(level: GridLevel, a: int) -> GridFunction:
    """Nodal indicator: 1 at node ``a``, 0 elsewhere."""
    if not 0 <= a < level.node_count:
        raise ValueError(f"node index {a} out of range")
    values = np.zeros(level.node_count)
    values[a] = 1.0
    return GridFunction(level, values)


def inner(u: GridFunction, v: GridFunction) -> float:
    """Weighted inner product ``sum_a u(a) v(a) d(a)``."""
    if u.level != v.level:
        raise ValueError("grid functions live on different levels")
    return float((u.values * v.values) @ u.level.weights)


def norm(u: GridFunction) -> float:
    """Weighted L2 norm ``inner(u, u) ** 0.5``."""
    return float(np.sqrt(max(inner(u, u), 0.0)))


# ---------------------------------------------------------------------------
# derivative operators
# ---------------------------------------------------------------------------


@lru_cache(maxsize=64)
def _d1_matrices(m: int, h: float) -> tuple[Banded, Banded]:
    """1D SBP derivative on ``m`` nodes with spacing ``h`` (see module docs)
    and its transpose, both banded with offsets ``-1`` and ``+1`` (read-only:
    the cache shares them)."""
    inv2h = 0.5 / h
    lo = np.full(m, -inv2h)  # D[i, i - 1]
    up = np.full(m, inv2h)  # D[i, i + 1]
    up[0] = 1.0 / h
    lo[-1] = -1.0 / h
    # D^T[i, i - 1] = D[i - 1, i] and D^T[i, i + 1] = D[i + 1, i]
    pair = (Banded((-1, 1), (lo, up)), Banded((-1, 1), (np.roll(up, 1), np.roll(lo, -1))))
    for op in pair:
        for diag in op.diagonals:
            diag.flags.writeable = False
    return pair


@dataclass(frozen=True, eq=False)
class DiffOp:
    """Per-axis banded SBP derivative matrices of one level and their
    transposes."""

    level: GridLevel
    matrices: tuple[Banded, ...]
    transposes: tuple[Banded, ...]

    def apply(self, values: np.ndarray, axis: int) -> np.ndarray:
        """Apply the axis derivative to a flat or lattice-shaped value array."""
        return apply_axis(self.matrices[axis], values.reshape(self.level.shape), axis).ravel()

    def apply_transpose(self, values: np.ndarray, axis: int) -> np.ndarray:
        """Apply the transposed axis derivative (used for adjoint assembly)."""
        return apply_axis(self.transposes[axis], values.reshape(self.level.shape), axis).ravel()


def diff_op(level: GridLevel) -> DiffOp:
    """The derivative operator of a level.

    Built per call and cheap: each axis' 1D matrix and its transpose come
    from a cache keyed by the axis' ``(node count, spacing)``, so no cache
    holds on to a level.
    """
    mats, transposes = zip(*(_d1_matrices(m, level.h) for m in level.shape))
    return DiffOp(level=level, matrices=mats, transposes=transposes)


def derivative(u: GridFunction, axis: int = 0) -> GridFunction:
    """SBP derivative of ``u`` along ``axis``."""
    op = diff_op(u.level)
    return GridFunction(u.level, op.apply(u.values, axis))


def gradient(u: GridFunction) -> tuple[GridFunction, ...]:
    """All axis derivatives of ``u``."""
    return tuple(derivative(u, axis) for axis in range(u.level.dimension))


def divergence(phi: Sequence[GridFunction]) -> GridFunction:
    """Sum of axis derivatives of a vector field's components."""
    if len(phi) != phi[0].level.dimension:
        raise ValueError("component count must equal the dimension")
    level = phi[0].level
    for comp in phi:
        if comp.level != level:
            raise ValueError("components live on different levels")
    op = diff_op(level)
    total = np.zeros(level.node_count)
    for axis, comp in enumerate(phi):
        total += op.apply(comp.values, axis)
    return GridFunction(level, total)


def laplacian(u: GridFunction) -> GridFunction:
    """Discrete Laplacian ``sum_i D_i (D_i u)``.

    Satisfies ``inner(laplacian(u), v) == -sum_i inner(D_i u, D_i v)`` exactly
    for every ``v``, by the antisymmetry of ``W @ D``.
    """
    op = diff_op(u.level)
    total = np.zeros(u.level.node_count)
    for axis in range(u.level.dimension):
        total += op.apply(op.apply(u.values, axis), axis)
    return GridFunction(u.level, total)


def derivative_kernel_dimension(level: GridLevel, axis: int = 0, tol: float = 1e-10) -> int:
    """Numerical kernel dimension of the 1D axis-derivative matrix.

    The closure rows pin the odd-index alternating mode, so the kernel is the
    even-index indicator (dimension 1) rather than the constants; constants
    are annihilated at interior rows only.  Reported for diagnostics.
    """
    m = level.shape[axis]
    if m > 4097:
        raise ValueError("kernel dimension report limited to <= 4097 nodes per axis")
    dense = apply_axis(_d1_matrices(m, level.h)[0], np.eye(m), 0)
    svals = np.linalg.svd(dense, compute_uv=False)
    return int(np.sum(svals <= tol * svals.max()))


# ---------------------------------------------------------------------------
# test functions and distribution pairing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TestFunction:
    """A smooth compactly supported function with its analytic gradient.

    ``fn`` and ``grad`` take one coordinate array per axis; ``grad`` returns a
    tuple of arrays (one per axis).  ``center`` and ``radius`` describe the
    support ball for bookkeeping.
    """

    fn: Callable[..., np.ndarray]
    grad: Callable[..., tuple[np.ndarray, ...]]
    center: tuple[float, ...]
    radius: float


def bump(center: Sequence[float], radius: float) -> TestFunction:
    """The standard smooth bump ``exp(1 - 1/(1 - s^2))`` on ``|x - c| < r``."""
    c = tuple(float(x) for x in center)
    r = float(radius)
    if r <= 0:
        raise ValueError("bump radius must be positive")

    def value(*coords: np.ndarray) -> np.ndarray:
        s2 = sum((np.asarray(x, dtype=float) - ci) ** 2 for x, ci in zip(coords, c))
        s2 = s2 / r**2
        inside = s2 < 1.0
        t = np.clip(s2, 0.0, 1.0 - 1e-12)
        vals = np.exp(1.0 - 1.0 / (1.0 - t))
        return np.where(inside, vals, 0.0)

    def grad(*coords: np.ndarray) -> tuple[np.ndarray, ...]:
        arrs = [np.asarray(x, dtype=float) - ci for x, ci in zip(coords, c)]
        s2 = sum(a**2 for a in arrs) / r**2
        inside = s2 < 1.0
        t = np.clip(s2, 0.0, 1.0 - 1e-12)
        base = np.exp(1.0 - 1.0 / (1.0 - t))
        factor = -2.0 * base / ((1.0 - t) ** 2 * r**2)
        comps = []
        for a in arrs:
            g = np.where(inside, factor * a, 0.0)
            comps.append(g)
        return tuple(comps)

    return TestFunction(fn=value, grad=grad, center=c, radius=r)


def standard_battery(domain, count: int = 3) -> tuple[TestFunction, ...]:
    """A deterministic battery of bumps strictly inside the domain box."""
    lo = np.array([b[0] for b in domain.bounds])
    hi = np.array([b[1] for b in domain.bounds])
    span = hi - lo
    centers = [0.5, 0.35, 0.65, 0.3, 0.7][:count]
    out = []
    for k, frac in enumerate(centers):
        center = lo + frac * span
        radius = float(0.25 * span.min() * (1.0 - 0.15 * k))
        out.append(bump(center, radius))
    return tuple(out)


def pair_distribution(u_net, phi: TestFunction, rtol: float = 1e-6, atol: float = 1e-9):
    """Classify the level net of pairings ``sum_a u_n(a) phi(a) d(a)``.

    ``u_net`` is a :class:`~ultragrid.nets.Net` of grid functions; the result
    is the :class:`~ultragrid.nets.Classification` of the number net, i.e. the
    standard part of the distributional pairing when it exists.
    """
    from .nets import Net, classify

    values = []
    for level_index, u in u_net.entries:
        phi_grid = restrict(phi.fn, u.level)
        values.append((level_index, inner(u, phi_grid)))
    return classify(Net(tuple(values)), rtol=rtol, atol=atol)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

_BINARY_MAGIC = b"UGF1"


def grid_function_to_csv(u: GridFunction, path) -> None:
    """Write ``node_index,value`` rows with a header."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("index,value\n")
        for i, v in enumerate(u.values):
            fh.write(f"{i},{v:.17g}\n")


def grid_function_from_csv(level: GridLevel, path) -> GridFunction:
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    values = np.zeros(level.node_count)
    values[data[:, 0].astype(int)] = data[:, 1]
    return GridFunction(level, values)


def grid_function_to_binary(u: GridFunction, path) -> None:
    """Little-endian block: magic ``UGF1``, level index (int32), count (int64),
    then the values as 64-bit floats."""
    with open(path, "wb") as fh:
        fh.write(_BINARY_MAGIC)
        fh.write(struct.pack("<iq", u.level.n, u.level.node_count))
        fh.write(u.values.astype("<f8").tobytes())


def grid_function_from_binary(level: GridLevel, path) -> GridFunction:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _BINARY_MAGIC:
            raise ValueError("not a grid-function binary block")
        n, count = struct.unpack("<iq", fh.read(12))
        if n != level.n or count != level.node_count:
            raise ValueError("binary block does not match the level")
        values = np.frombuffer(fh.read(8 * count), dtype="<f8")
    return GridFunction(level, values.copy())
