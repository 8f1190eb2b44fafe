"""Tensor-product element helpers: the one axis-application primitive."""

import csr_oracles as oracles
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss

from ultragrid import elements
from ultragrid.elements import apply_axes, apply_axis, gauss_interp, p1_matrices


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
    k=st.integers(1, 6),
    data=st.data(),
)
def test_dense_apply_axis_matches_tensordot(shape, k, data):
    # a dense (k, m) matrix along every axis of a 1D..4D array, k != m
    # included, as one (batched) GEMM; apply_axes applies one along each axis
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    arr = rng.standard_normal(shape)
    for axis, m in enumerate(shape):
        mat = rng.standard_normal((k, m))
        ref = np.moveaxis(np.tensordot(mat, arr, axes=(1, axis)), 0, axis)
        out = apply_axis(mat, arr, axis)
        assert out.shape == ref.shape
        np.testing.assert_allclose(out, ref, rtol=1e-12, atol=1e-12)
    mats = [rng.standard_normal((k + axis, m)) for axis, m in enumerate(shape)]
    ref = arr
    for axis, mat in enumerate(mats):
        ref = np.moveaxis(np.tensordot(mat, ref, axes=(1, axis)), 0, axis)
    out = apply_axes(mats, arr)
    assert out.shape == ref.shape
    np.testing.assert_allclose(out, ref, rtol=1e-12, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    shape=st.lists(st.integers(2, 9), min_size=1, max_size=3),
    h=st.sampled_from([1.0, 0.5, 0.1, 3.0 / 16.0]),
    data=st.data(),
)
def test_p1_matrices_bit_identical_to_csr(shape, h, data):
    # the dense K and M equal the former CSR matrices entry for entry,
    # signed zeros included; applied along an axis, a GEMM sums each row in
    # its own order, so the products agree with the CSR ones to rounding
    # (each within 1e-15 of the sum of the absolute terms)
    axis = data.draw(st.integers(0, len(shape) - 1))
    arr = _signed_random(np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))), shape)
    for mat, csr in zip(p1_matrices(shape[axis], h), oracles.p1_matrices(shape[axis], h)):
        np.testing.assert_array_equal(mat, csr.toarray())
        np.testing.assert_array_equal(np.signbit(mat), np.signbit(csr.toarray()))
        got = apply_axis(mat, arr, axis)
        expected = oracles.apply_axis(csr, arr, axis)
        bound = 1e-15 * oracles.apply_axis(abs(csr), np.abs(arr), axis)
        assert np.all(np.abs(got - expected) <= bound)


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


def test_gauss_rule_is_leggauss_bit_for_bit():
    points, weights = leggauss(4)
    assert elements._GAUSS_POINTS.tobytes() == points.tobytes()
    assert elements._GAUSS_WEIGHTS.tobytes() == weights.tobytes()
