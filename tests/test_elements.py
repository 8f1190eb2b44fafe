"""Tensor-product element helpers: the one axis-application primitive."""

import csr_oracles as oracles
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ultragrid.elements import Banded, apply_axis, gauss_interp, p1_matrices


def _kron_reference(mat: np.ndarray, arr: np.ndarray, axis: int) -> np.ndarray:
    """``(I_before (x) mat (x) I_after) @ arr.ravel()`` as a dense product."""
    before = int(np.prod(arr.shape[:axis]))
    after = int(np.prod(arr.shape[axis + 1:]))
    full = np.kron(np.kron(np.eye(before), mat), np.eye(after))
    out_shape = arr.shape[:axis] + (mat.shape[0],) + arr.shape[axis + 1:]
    return (full @ arr.ravel()).reshape(out_shape)


def _dense(band: Banded, m: int) -> np.ndarray:
    """The ``m x m`` matrix of a banded operator, entry by entry."""
    out = np.zeros((m, m))
    for k, diag in zip(band.offsets, band.diagonals):
        for i in range(max(0, -k), m - max(0, k)):
            out[i, i + k] = diag[i]
    return out


def _signed_random(rng, shape):
    """Normal samples with a fifth of them +0.0 and a fifth -0.0."""
    u = rng.standard_normal(shape)
    pick = rng.random(shape)
    u[pick < 0.2] = 0.0
    u[pick > 0.8] = -0.0
    return u


@settings(max_examples=60, deadline=None)
@given(
    shape=st.lists(st.integers(1, 5), min_size=1, max_size=4),
    data=st.data(),
)
def test_apply_axis_matches_kronecker_reference(shape, data):
    # a random banded matrix, diagonals inside, partly outside and wholly
    # outside the matrix
    axis = data.draw(st.integers(0, len(shape) - 1))
    m = shape[axis]
    offsets = sorted(data.draw(st.sets(st.integers(-m, m), min_size=1, max_size=4)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    arr = rng.standard_normal(shape)
    band = Banded(tuple(offsets), tuple(rng.standard_normal(m) for _ in offsets))
    out = apply_axis(band, arr, axis)
    ref = _kron_reference(_dense(band, m), arr, axis)
    assert out.shape == ref.shape
    np.testing.assert_allclose(out, ref, rtol=1e-12, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    shape=st.lists(st.integers(2, 9), min_size=1, max_size=3),
    h=st.sampled_from([1.0, 0.5, 0.1, 3.0 / 16.0]),
    data=st.data(),
)
def test_p1_matrices_bit_identical_to_csr(shape, h, data):
    # K and M applied along an axis, against the former CSR matrices,
    # signed zeros included
    axis = data.draw(st.integers(0, len(shape) - 1))
    arr = _signed_random(np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))), shape)
    for band, csr in zip(p1_matrices(shape[axis], h), oracles.p1_matrices(shape[axis], h)):
        np.testing.assert_array_equal(_dense(band, shape[axis]), csr.toarray())
        got = apply_axis(band, arr, axis)
        expected = oracles.apply_axis(csr, arr, axis)
        np.testing.assert_array_equal(got, expected)
        np.testing.assert_array_equal(np.signbit(got), np.signbit(expected))


@settings(max_examples=30, deadline=None)
@given(m=st.integers(2, 40), h=st.floats(1e-3, 4.0), lo=st.floats(-3.0, 3.0))
def test_gauss_interp_dense_equals_csr(m, h, lo):
    G, _points, _weights = gauss_interp(m, h, lo)
    expected = oracles.gauss_interp(m, h).toarray()
    np.testing.assert_array_equal(G, expected)
    np.testing.assert_array_equal(np.signbit(G), np.signbit(expected))


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
