"""The former scipy forms of the package's numpy operators, kept as oracles.

The package applies its SBP derivative as a two-neighbour stencil and its
other 1D operators as dense arrays, and evaluates its mask correlation and
3x3 min/max filters with shifted slices; these are the compressed-sparse-row
matrices and ``scipy.ndimage`` calls they replaced.  The tests compare the
two bit for bit, signed zeros included.
"""

import numpy as np
import scipy.ndimage as ndi
import scipy.sparse as sp

from measure_oracles import unit_ball_samples


def p1_matrices(m, h):
    """1D P1 stiffness ``K`` and consistent mass ``M`` as CSR matrices."""
    main_k = np.full(m, 2.0 / h)
    main_k[0] = main_k[-1] = 1.0 / h
    off_k = np.full(m - 1, -1.0 / h)
    K = sp.diags([off_k, main_k, off_k], [-1, 0, 1], format="csr")
    main_m = np.full(m, 4.0 * h / 6.0)
    main_m[0] = main_m[-1] = 2.0 * h / 6.0
    off_m = np.full(m - 1, h / 6.0)
    M = sp.diags([off_m, main_m, off_m], [-1, 0, 1], format="csr")
    return K, M


def gauss_interp(m, h):
    """The per-axis 4-point Gauss interpolation matrix as CSR."""
    t, _wt = np.polynomial.legendre.leggauss(4)
    cells = m - 1
    s = (t + 1.0) / 2.0
    rows = np.arange(4 * cells)
    cell_idx = np.repeat(np.arange(cells), 4)
    s_rep = np.tile(s, cells)
    data = np.concatenate([1.0 - s_rep, s_rep])
    return sp.csr_matrix(
        (data, (np.concatenate([rows, rows]), np.concatenate([cell_idx, cell_idx + 1]))),
        shape=(4 * cells, m),
    )


def d1_matrix(m, h):
    """The 1D SBP derivative as CSR, assembled row by row."""
    rows, cols, data = [], [], []
    inv2h = 0.5 / h
    for i in range(1, m - 1):
        rows += [i, i]
        cols += [i - 1, i + 1]
        data += [-inv2h, inv2h]
    rows += [0, m - 1]
    cols += [1, m - 2]
    data += [1.0 / h, -1.0 / h]
    return sp.csr_matrix((data, (rows, cols)), shape=(m, m))


def apply_axis(mat, arr, axis):
    """A sparse matrix applied along one axis, by moving the axis to the front."""
    moved = np.moveaxis(arr, axis, 0)
    flat = moved.reshape(moved.shape[0], -1)
    out = mat @ flat
    return np.moveaxis(out.reshape((mat.shape[0],) + moved.shape[1:]), 0, axis)


def mask_fraction(region):
    """Node-mask density as one ``ndimage.correlate`` of the mask with the
    count of unit-ball samples per index shift, ``mode="nearest"`` clipping."""
    level = region.level
    reach = np.array(level.shape) - 1
    shifts = np.rint(unit_ball_samples(level.dimension))
    shifts = np.clip(shifts, -reach, reach).astype(np.int64)
    radius = np.abs(shifts).max(axis=0)
    counts = np.zeros(tuple(2 * radius + 1))
    np.add.at(counts, tuple((shifts + radius).T), 1.0)
    mask = region.mask.reshape(level.shape).astype(float)
    return ndi.correlate(mask, counts, mode="nearest").ravel() / len(shifts)


def min_filter3(grid):
    return ndi.minimum_filter(grid, size=3, mode="nearest")


def max_filter3(grid):
    return ndi.maximum_filter(grid, size=3, mode="nearest")
