"""Tensor-product multilinear element helpers.

Used by the critical-exponent quotient: the quotient is evaluated as the
*exact* energy of the multilinear nodal interpolant, so the numerator uses
the 1D linear-element stiffness/mass matrices (kron-sum structure) applied
with :func:`apply_axis`, and the denominator uses 4-point Gauss quadrature per
cell per axis, which integrates the degree-6 interpolant power exactly.
The Gauss matrices of :func:`gauss_interp` are used as dense 1D factors by
the quotient's streamed Gauss-point pass (``problems._QuotientObjective``).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

__all__ = ["p1_matrices", "gauss_interp", "apply_axis"]


def p1_matrices(m: int, h: float) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """1D linear-element stiffness ``K`` and consistent mass ``M`` on ``m`` nodes."""
    main_k = np.full(m, 2.0 / h)
    main_k[0] = main_k[-1] = 1.0 / h
    off_k = np.full(m - 1, -1.0 / h)
    K = sp.diags([off_k, main_k, off_k], [-1, 0, 1], format="csr")

    main_m = np.full(m, 4.0 * h / 6.0)
    main_m[0] = main_m[-1] = 2.0 * h / 6.0
    off_m = np.full(m - 1, h / 6.0)
    M = sp.diags([off_m, main_m, off_m], [-1, 0, 1], format="csr")
    return K, M


def gauss_interp(
    m: int, h: float, lo: float
) -> tuple[sp.csr_matrix, np.ndarray, np.ndarray]:
    """Per-axis 4-point Gauss evaluation of the linear interpolant.

    Returns ``(G, points, weights)`` where ``G`` maps nodal values to values
    at the ``4 * (m - 1)`` Gauss points (rows ``4c .. 4c + 3`` belong to cell
    ``c`` and read nodes ``c`` and ``c + 1`` only), ``points`` are the Gauss
    coordinates and ``weights`` the quadrature weights.
    """
    t, wt = np.polynomial.legendre.leggauss(4)
    cells = m - 1
    s = (t + 1.0) / 2.0  # barycentric position inside the cell
    rows = np.arange(4 * cells)
    cell_idx = np.repeat(np.arange(cells), 4)
    s_rep = np.tile(s, cells)

    data = np.concatenate([1.0 - s_rep, s_rep])
    row_idx = np.concatenate([rows, rows])
    col_idx = np.concatenate([cell_idx, cell_idx + 1])
    G = sp.csr_matrix((data, (row_idx, col_idx)), shape=(4 * cells, m))

    points = lo + (cell_idx + s_rep) * h
    weights = np.tile(wt, cells) * (h / 2.0)
    return G, points, weights


def apply_axis(mat: sp.spmatrix, arr: np.ndarray, axis: int) -> np.ndarray:
    """Apply a sparse matrix along one axis of an nd array."""
    moved = np.moveaxis(arr, axis, 0)
    lead = moved.shape[0]
    flat = moved.reshape(lead, -1)
    out = mat @ flat
    return np.moveaxis(out.reshape((mat.shape[0],) + moved.shape[1:]), 0, axis)
