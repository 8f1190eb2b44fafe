"""Grid-function calculus: pointwise integral, SBP derivatives, pairings.

The derivative is a summation-by-parts (SBP) operator: with the trapezoid
weight diagonal ``W`` of the level, the matrix ``W @ D`` is exactly
antisymmetric.  Interior rows are the second-order central difference; the
closure rows are ``(Du)_0 = u_1 / h`` and ``(Du)_M = -u_{M-1} / h``, which
keep ``W @ D`` antisymmetric for *all* pairs of grid functions (not only
interior-supported ones).  The price is that the closure rows are not
consistent for fields with nonzero boundary values; fields vanishing on the
boundary retain the full second-order accuracy.

The derivative is applied along an axis as its own two-neighbour stencil,
``out[i] = D[i, i - 1] u[i - 1] + D[i, i + 1] u[i + 1]``, summed in that
order and closed by ``+= 0.0``: the order and the rounding in which a CSR
matrix-vector product sums a row from ``+0.0``, so the stencil and a CSR
``D`` (or ``D^T``) give bit-identical results, signed zeros included.

Consequences used throughout the package:

* ``inner(D u, v) == -inner(u, D v)`` to rounding, always;
* the divergence-theorem identity in :mod:`ultragrid.measure` is algebraic.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .grid import GridLevel

__all__ = [
    "GridFunction",
    "DiffOp",
    "TestFunction",
    "restrict",
    "integral",
    "inner",
    "norm",
    "diff_op",
    "derivative",
    "divergence",
    "derivative_kernel_dimension",
    "bump",
    "standard_battery",
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


def restrict(f: Callable[..., float | np.ndarray], level: GridLevel) -> GridFunction:
    """Sample ``f`` at the nodes.

    ``f`` is called once, on the open mesh ``np.ix_(*level.axes)``: one
    coordinate array per axis, laid along that axis, so the arrays broadcast
    against each other to the lattice shape (a vectorized, elementwise ``f``
    needs nothing more; a scalar-only ``f`` such as ``math.sin`` raises
    ``TypeError``).  A result of lower shape, a scalar included, is
    broadcast to every node.  A function defined on a subset extends by zero
    inside ``f``, e.g. with ``np.where``.
    """
    sampled = np.asarray(f(*np.ix_(*level.axes)), dtype=float)
    values = np.broadcast_to(sampled, level.shape).copy().ravel()
    if not np.all(np.isfinite(values)):
        bad = int(np.flatnonzero(~np.isfinite(values))[0])
        raise ValueError(
            f"function returned a non-finite value at node {bad} "
            f"(coordinates {tuple(level.coordinates_of(bad))})"
        )
    return GridFunction(level, values)


def integral(u: GridFunction) -> float:
    """Weighted nodal sum ``sum_a u(a) d(a)``."""
    return float(u.values @ u.level.weights)


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


#: One SBP derivative along an axis: ``(lo, up)`` with ``lo[i] = D[i, i - 1]``
#: and ``up[i] = D[i, i + 1]`` (``lo[0]`` and ``up[-1]`` are never read).
Stencil = tuple[np.ndarray, np.ndarray]


@lru_cache(maxsize=64)
def _d1_matrices(m: int, h: float) -> tuple[Stencil, Stencil]:
    """1D SBP derivative on ``m`` nodes with spacing ``h`` (see module docs)
    and its transpose, as ``(lo, up)`` stencils (read-only: the cache shares
    them)."""
    inv2h = 0.5 / h
    lo = np.full(m, -inv2h)  # D[i, i - 1]
    up = np.full(m, inv2h)  # D[i, i + 1]
    up[0] = 1.0 / h
    lo[-1] = -1.0 / h
    # D^T[i, i - 1] = D[i - 1, i] and D^T[i, i + 1] = D[i + 1, i]
    pair = ((lo, up), (np.roll(up, 1), np.roll(lo, -1)))
    for stencil in pair:
        for diag in stencil:
            diag.flags.writeable = False
    return pair


def _apply_stencil(stencil: Stencil, arr: np.ndarray, axis: int) -> np.ndarray:
    """``out[i] = lo[i] u[i - 1] + up[i] u[i + 1]`` along ``axis`` of ``arr``.

    The ``lo`` products are written in place and the ``up`` products added,
    row 0 onto ``+0.0``; the closing ``+= 0.0`` turns a ``-0.0`` sum into
    ``+0.0``, so every row is rounded as a CSR product sums it.
    """
    lo, up = stencil
    head = (slice(None),) * axis
    below, above = head + (slice(None, -1),), head + (slice(1, None),)
    tail = (1,) * (arr.ndim - axis - 1)
    out = np.zeros(arr.shape)
    np.multiply(lo[1:].reshape((-1,) + tail), arr[below], out=out[above])
    out[below] += up[:-1].reshape((-1,) + tail) * arr[above]
    out += 0.0
    return out


@dataclass(frozen=True, eq=False)
class DiffOp:
    """Per-axis SBP derivative stencils of one level and their transposes."""

    level: GridLevel
    matrices: tuple[Stencil, ...]
    transposes: tuple[Stencil, ...]

    def apply(self, values: np.ndarray, axis: int) -> np.ndarray:
        """Apply the axis derivative to a flat or lattice-shaped value array."""
        return _apply_stencil(self.matrices[axis], values.reshape(self.level.shape), axis).ravel()

    def apply_transpose(self, values: np.ndarray, axis: int) -> np.ndarray:
        """Apply the transposed axis derivative (used for adjoint assembly)."""
        return _apply_stencil(self.transposes[axis], values.reshape(self.level.shape), axis).ravel()


def diff_op(level: GridLevel) -> DiffOp:
    """The derivative operator of a level.

    Built per call and cheap: each axis' 1D matrix and its transpose come
    from a cache keyed by the axis' ``(node count, spacing)``, so no cache
    holds on to a level.
    """
    mats, transposes = zip(*(_d1_matrices(m, level.h) for m in level.shape))
    return DiffOp(level=level, matrices=mats, transposes=transposes)


def derivative(u: GridFunction, axis: int) -> GridFunction:
    """SBP derivative of ``u`` along ``axis``."""
    op = diff_op(u.level)
    return GridFunction(u.level, op.apply(u.values, axis))


def divergence(phi: Sequence[GridFunction]) -> GridFunction:
    """Sum of axis derivatives of a vector field's components."""
    if len(phi) != phi[0].level.dimension:
        raise ValueError("component count must equal the dimension")
    level = phi[0].level
    for comp in phi:
        if comp.level != level:
            raise ValueError("components live on different levels")
    op = diff_op(level)
    total = op.apply(phi[0].values, 0)
    total += 0.0  # the sum starts from +0.0
    for axis in range(1, level.dimension):
        total += op.apply(phi[axis].values, axis)
    return GridFunction(level, total)


#: Relative singular-value cutoff of :func:`derivative_kernel_dimension`.
KERNEL_TOL = 1e-10


def derivative_kernel_dimension(level: GridLevel) -> int:
    """Numerical kernel dimension of the level's first-axis 1D derivative
    matrix: its singular values at most ``KERNEL_TOL`` times the largest.

    The closure rows pin the odd-index alternating mode, so the kernel is the
    even-index indicator (dimension 1) rather than the constants; constants
    are annihilated at interior rows only.  Reported for diagnostics.
    """
    m = level.shape[0]
    if m > 4097:
        raise ValueError("kernel dimension report limited to <= 4097 nodes per axis")
    lo, up = _d1_matrices(m, level.h)[0]
    dense = np.diag(lo[1:], -1) + np.diag(up[:-1], 1)
    svals = np.linalg.svd(dense, compute_uv=False)
    return int(np.sum(svals <= KERNEL_TOL * svals.max()))


# ---------------------------------------------------------------------------
# test functions and distribution pairing
# ---------------------------------------------------------------------------


#: A test function: one coordinate array per axis in, its values out (a
#: smooth compactly supported bump, as :func:`bump` builds).
TestFunction = Callable[..., np.ndarray]


def bump(center: Sequence[float], radius: float) -> TestFunction:
    """The standard smooth bump ``exp(1 - 1/(1 - s^2))`` on ``|x - c| < r``,
    ``s = |x - c| / r``, and zero outside: the function itself."""
    c = tuple(float(x) for x in center)
    r = float(radius)
    if r <= 0:
        raise ValueError("bump radius must be positive")

    def fn(*coords: np.ndarray) -> np.ndarray:
        s2 = sum((np.asarray(x, dtype=float) - ci) ** 2 for x, ci in zip(coords, c))
        s2 = s2 / r**2
        inside = s2 < 1.0
        t = np.clip(s2, 0.0, 1.0 - 1e-12)
        vals = np.exp(1.0 - 1.0 / (1.0 - t))
        return np.where(inside, vals, 0.0)

    return fn


def standard_battery(domain) -> tuple[TestFunction, ...]:
    """The battery every pairing of the package uses: three bumps strictly
    inside the domain box, centred at 0.5, 0.35 and 0.65 of each axis, with
    radii 0.25, 0.2125 and 0.175 times the smallest extent."""
    lo = np.array([b[0] for b in domain.bounds])
    hi = np.array([b[1] for b in domain.bounds])
    span = hi - lo
    centers = [0.5, 0.35, 0.65]
    out = []
    for k, frac in enumerate(centers):
        center = lo + frac * span
        radius = float(0.25 * span.min() * (1.0 - 0.15 * k))
        out.append(bump(center, radius))
    return tuple(out)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

_BINARY_MAGIC = b"UGF1"


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
