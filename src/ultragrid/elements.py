"""Tensor-product 1D dense operators and the one axis-application primitive.

The P1 stiffness/mass pair of :func:`p1_matrices` and the per-axis Gauss
interpolation of :func:`gauss_interp` are small dense arrays.
:func:`apply_axis` applies one along one axis of an nd array, as one GEMM
batched over the leading axes of a C-contiguous operand, so no axis is moved
and no operand is copied (sum factorization: Orszag, J. Comput. Phys. 37,
1980; Kronbichler & Kormann, Computers & Fluids 63, 2012); its rounding is
the BLAS kernel's.  :func:`apply_axes` applies one matrix along every axis
(only the quotient's fast-diagonalization metric uses it).  The SBP
derivative is not a dense operator: :mod:`ultragrid.calculus` applies it as
its own two-neighbour stencil.

Used by the critical-exponent quotient: the quotient is evaluated as the
*exact* energy of the multilinear nodal interpolant, so the numerator uses
the 1D linear-element stiffness/mass matrices (kron-sum structure) applied
with :func:`apply_axis`, and the denominator uses 4-point Gauss quadrature per
cell per axis, which integrates the degree-6 interpolant power exactly.
The quotient's streamed Gauss-point pass (``problems._QuotientObjective``)
takes only one cell's ``4 x 2`` block of :func:`gauss_interp`, the same in
every cell, and applies its Kronecker powers cell by cell; the dense
``4 (m - 1) x m`` matrix, two nonzeros a row, builds the potential well's
1D terms.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

__all__ = ["p1_matrices", "gauss_interp", "apply_axis", "apply_axes"]

# the 4-point Gauss-Legendre rule on [-1, 1]: the doubles
# numpy.polynomial.legendre.leggauss(4) returns, stored so that no request
# loads numpy.polynomial for them
_GAUSS_POINTS = np.array([-0.8611363115940526, -0.33998104358485626,
                          0.33998104358485626, 0.8611363115940526])
_GAUSS_WEIGHTS = np.array([0.34785484513745357, 0.6521451548625464,
                           0.6521451548625464, 0.34785484513745357])


def p1_matrices(m: int, h: float) -> tuple[np.ndarray, np.ndarray]:
    """1D linear-element stiffness ``K`` and consistent mass ``M`` on ``m``
    nodes, as dense ``m x m`` arrays."""

    def tridiagonal(main, end, off):
        A = np.diag(np.full(m, main))
        A[0, 0] = A[-1, -1] = end
        A[range(m - 1), range(1, m)] = A[range(1, m), range(m - 1)] = off
        return A

    K = tridiagonal(2.0 / h, 1.0 / h, -1.0 / h)
    M = tridiagonal(4.0 * h / 6.0, 2.0 * h / 6.0, h / 6.0)
    return K, M


def gauss_interp(m: int, h: float, lo: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-axis 4-point Gauss evaluation of the linear interpolant.

    Returns ``(G, points, weights)`` where the dense ``G`` maps nodal values
    to values at the ``4 * (m - 1)`` Gauss points (rows ``4c .. 4c + 3``
    belong to cell ``c`` and read nodes ``c`` and ``c + 1`` only),
    ``points`` are the Gauss coordinates and ``weights`` the quadrature
    weights.
    """
    cells = m - 1
    s = (_GAUSS_POINTS + 1.0) / 2.0  # barycentric position inside the cell
    rows = np.arange(4 * cells)
    cell_idx = np.repeat(np.arange(cells), 4)
    s_rep = np.tile(s, cells)

    G = np.zeros((4 * cells, m))
    G[rows, cell_idx] = 1.0 - s_rep
    G[rows, cell_idx + 1] = s_rep

    points = lo + (cell_idx + s_rep) * h
    weights = np.tile(_GAUSS_WEIGHTS, cells) * (h / 2.0)
    return G, points, weights


def apply_axis(op: np.ndarray, arr: np.ndarray, axis: int) -> np.ndarray:
    """Apply the dense ``(k, m)`` ``op`` along ``axis`` of ``arr``, as one GEMM.

    ``arr`` is viewed as ``(rows before, m, rows after)`` and ``op`` applied
    batched over the first index; along the last axis it is one plain GEMM
    with ``op`` transposed.  On a C-contiguous ``arr`` nothing is copied.
    """
    m = arr.shape[axis]
    head, tail = arr.shape[:axis], arr.shape[axis + 1:]
    shape = head + (op.shape[0],) + tail
    out = np.empty(shape)
    if tail:
        batched = arr.reshape(math.prod(head), m, -1)
        np.matmul(op, batched, out=out.reshape(batched.shape[0], op.shape[0], -1))
    else:
        np.matmul(arr.reshape(-1, m), op.T, out=out.reshape(-1, op.shape[0]))
    return out.reshape(shape)


def apply_axes(mats: Sequence[np.ndarray], arr: np.ndarray) -> np.ndarray:
    """Apply ``mats[k]`` along axis ``k`` of ``arr``, every axis from the last
    to the first (the quotient's fast-diagonalization metric,
    ``problems._QuotientObjective.precondition``)."""
    for axis in range(arr.ndim - 1, -1, -1):
        arr = apply_axis(mats[axis], arr, axis)
    return arr
