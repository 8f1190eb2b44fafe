"""Tensor-product element helpers: the one axis-application primitive."""

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from ultragrid.elements import apply_axis, gauss_interp


def _kron_reference(mat: np.ndarray, arr: np.ndarray, axis: int) -> np.ndarray:
    """``(I_before (x) mat (x) I_after) @ arr.ravel()`` as a dense product."""
    before = int(np.prod(arr.shape[:axis]))
    after = int(np.prod(arr.shape[axis + 1:]))
    full = np.kron(np.kron(np.eye(before), mat), np.eye(after))
    out_shape = arr.shape[:axis] + (mat.shape[0],) + arr.shape[axis + 1:]
    return (full @ arr.ravel()).reshape(out_shape)


@settings(max_examples=60, deadline=None)
@given(
    shape=st.lists(st.integers(1, 5), min_size=1, max_size=4),
    rows=st.integers(1, 6),
    data=st.data(),
)
def test_apply_axis_matches_kronecker_reference(shape, rows, data):
    axis = data.draw(st.integers(0, len(shape) - 1))
    seed = data.draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    arr = rng.standard_normal(shape)
    dense = rng.standard_normal((rows, shape[axis]))
    dense[rng.random(dense.shape) < 0.5] = 0.0
    out = apply_axis(sp.csr_matrix(dense), arr, axis)
    ref = _kron_reference(dense, arr, axis)
    assert out.shape == ref.shape
    np.testing.assert_allclose(out, ref, rtol=1e-12, atol=1e-12)


def test_gauss_interp_integrates_degree_seven_exactly():
    # 4-point Gauss is exact to degree 7 per cell: the degree-6 power of the
    # linear interpolant, which the Sobolev quotient's lower bound rests on
    m, h, lo = 5, 0.25, 0.0
    G, points, weights = gauss_interp(m, h, lo)
    assert G.shape == (4 * (m - 1), m)
    nodes = lo + h * np.arange(m)
    u = np.sin(3.0 * nodes)
    exact = 0.0
    for c in range(m - 1):
        a, b = u[c], u[c + 1]
        # int_0^h (a + (b - a) x / h)^6 dx
        exact += h * (b**7 - a**7) / (7.0 * (b - a))
    assert abs(weights @ (G @ u) ** 6 - exact) <= 1e-14
    assert np.allclose(points.reshape(-1, 4).mean(axis=1), nodes[:-1] + h / 2)
