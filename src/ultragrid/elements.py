"""Tensor-product 1D operators and the one axis-application primitive.

Every 1D operator of the package is small and structured.  The P1
stiffness/mass pair of :func:`p1_matrices` and the SBP derivative of
:mod:`ultragrid.calculus` are :class:`Banded`, applied along one axis of
an nd array by :func:`apply_axis`; the per-axis Gauss interpolation of
:func:`gauss_interp` is a dense ``4 (m - 1) x m`` array.

A banded product sums each output row in increasing column order, as if
from ``+0.0``.  That is the order in which a CSR matrix-vector product sums
a row, so a :class:`Banded` and a CSR matrix with the same entries give
bit-identical results, signed zeros included.

Used by the critical-exponent quotient: the quotient is evaluated as the
*exact* energy of the multilinear nodal interpolant, so the numerator uses
the 1D linear-element stiffness/mass matrices (kron-sum structure) applied
with :func:`apply_axis`, and the denominator uses 4-point Gauss quadrature per
cell per axis, which integrates the degree-6 interpolant power exactly.
The Gauss matrices are the dense 1D factors of the quotient's streamed
Gauss-point pass (``problems._QuotientObjective``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Banded", "p1_matrices", "gauss_interp", "apply_axis"]


@dataclass(frozen=True, eq=False)
class Banded:
    """A square matrix stored by diagonals.

    ``diagonals[k][i]`` is ``A[i, i + offsets[k]]``; the offsets increase,
    and the entries of a diagonal whose column falls outside the matrix are
    never read.
    """

    offsets: tuple[int, ...]
    diagonals: tuple[np.ndarray, ...]


def p1_matrices(m: int, h: float) -> tuple[Banded, Banded]:
    """1D linear-element stiffness ``K`` and consistent mass ``M`` on ``m`` nodes."""
    main_k = np.full(m, 2.0 / h)
    main_k[0] = main_k[-1] = 1.0 / h
    off_k = np.full(m, -1.0 / h)
    K = Banded((-1, 0, 1), (off_k, main_k, off_k))

    main_m = np.full(m, 4.0 * h / 6.0)
    main_m[0] = main_m[-1] = 2.0 * h / 6.0
    off_m = np.full(m, h / 6.0)
    M = Banded((-1, 0, 1), (off_m, main_m, off_m))
    return K, M


def gauss_interp(m: int, h: float, lo: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-axis 4-point Gauss evaluation of the linear interpolant.

    Returns ``(G, points, weights)`` where the dense ``G`` maps nodal values
    to values at the ``4 * (m - 1)`` Gauss points (rows ``4c .. 4c + 3``
    belong to cell ``c`` and read nodes ``c`` and ``c + 1`` only),
    ``points`` are the Gauss coordinates and ``weights`` the quadrature
    weights.
    """
    t, wt = np.polynomial.legendre.leggauss(4)
    cells = m - 1
    s = (t + 1.0) / 2.0  # barycentric position inside the cell
    rows = np.arange(4 * cells)
    cell_idx = np.repeat(np.arange(cells), 4)
    s_rep = np.tile(s, cells)

    G = np.zeros((4 * cells, m))
    G[rows, cell_idx] = 1.0 - s_rep
    G[rows, cell_idx + 1] = s_rep

    points = lo + (cell_idx + s_rep) * h
    weights = np.tile(wt, cells) * (h / 2.0)
    return G, points, weights


def apply_axis(op: Banded, arr: np.ndarray, axis: int) -> np.ndarray:
    """Apply a banded matrix along one axis of an nd array.

    Each output row sums its diagonals' products in offset order.  The first
    diagonal's products are written in place instead of added to ``+0.0``;
    that differs from a sum started at ``+0.0`` only where every product of
    a row is ``-0.0``, which the closing ``+= 0.0`` turns into ``+0.0``.
    """
    m = arr.shape[axis]
    out = np.zeros(arr.shape)
    lead = (slice(None),) * axis
    tail = (1,) * (arr.ndim - axis - 1)
    for k, diag in zip(op.offsets, op.diagonals):
        lo, hi = max(0, -k), m - max(0, k)  # the rows inside the matrix
        if lo < hi:
            rows = out[lead + (slice(lo, hi),)]
            coef = diag[lo:hi].reshape((-1,) + tail)
            src = arr[lead + (slice(lo + k, hi + k),)]
            if k == op.offsets[0]:
                np.multiply(coef, src, out=rows)
            else:
                rows += coef * src
    out += 0.0
    return out
