"""Grid functions, the summation-by-parts derivative, and quadrature."""

import gc
import weakref

import csr_oracles as oracles
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ultragrid import (
    Domain,
    GridFunction,
    NodeSet,
    bump,
    build_level,
    derivative,
    derivative_kernel_dimension,
    diff_op,
    divergence,
    gradient,
    grid_function_from_binary,
    grid_function_from_csv,
    grid_function_to_binary,
    grid_function_to_csv,
    inner,
    integral,
    laplacian,
    norm,
    restrict,
    sigma,
    standard_battery,
)

DOM1 = Domain(((0.0, 1.0),))
DOM2 = Domain(((0.0, 1.0), (0.0, 1.0)))


def test_grid_function_rejects_non_finite():
    level = build_level(DOM1, 3)
    values = np.zeros(level.node_count)
    values[2] = np.nan
    with pytest.raises(ValueError):
        GridFunction(level, values)


def test_restrict_vectorized_and_region():
    level = build_level(DOM1, 4)
    u = restrict(lambda x: x**2, level)
    assert np.allclose(u.values, level.coordinates[:, 0] ** 2)
    v = restrict(lambda x: 1.0, level, region=lambda x: x < 0.5)
    assert v.values[0] == 1.0 and v.values[-1] == 0.0


def test_restrict_reports_non_finite_node():
    level = build_level(DOM1, 3)
    with pytest.raises(ValueError, match="node"):
        restrict(lambda x: np.where(x == 0.5, np.inf, 1.0), level)


def test_integral_is_trapezoid_exact_for_linear():
    level = build_level(DOM1, 4)
    u = restrict(lambda x: 3.0 * x + 1.0, level)
    assert np.isclose(integral(u), 2.5, atol=1e-14)


def test_sigma_and_inner():
    level = build_level(DOM1, 3)
    s = sigma(level, 4)
    u = restrict(lambda x: x, level)
    # pairing with a nodal indicator extracts value times weight
    assert np.isclose(inner(u, s), u.values[4] * level.weights[4])


def test_equal_levels_mix():
    # two levels built separately from the same (domain, n) are one level
    a, b = build_level(DOM2, 3), build_level(DOM2, 3)
    u = restrict(lambda x, y: x + y, a)
    v = restrict(lambda x, y: x * y, b)
    assert inner(u, v) == inner(u, restrict(lambda x, y: x * y, a))
    over = NodeSet(b, np.arange(0, b.node_count, 2))
    assert integral(u, over) == integral(u, NodeSet(a, over.indices))
    np.testing.assert_array_equal(
        divergence((u, v)).values, derivative(u, 0).values + derivative(v, 1).values
    )


def test_mixing_different_levels_still_raises():
    u = restrict(lambda x: x, build_level(DOM1, 3))
    v = restrict(lambda x: x, build_level(DOM1, 4))
    w = restrict(lambda x, y: x, build_level(DOM2, 3))
    with pytest.raises(ValueError, match="different levels"):
        inner(u, v)
    with pytest.raises(ValueError, match="different level"):
        integral(u, NodeSet(v.level, [0]))
    with pytest.raises(ValueError, match="different levels"):
        divergence((w, restrict(lambda x, y: y, build_level(DOM2, 4))))


def test_diff_op_keeps_no_level_alive():
    refs = []
    for _ in range(35):
        level = build_level(DOM2, 6)
        diff_op(level)
        refs.append(weakref.ref(level))
        del level
    gc.collect()
    assert sum(ref() is not None for ref in refs) == 0


def test_sbp_antisymmetry_random(subtests=None):
    rng = np.random.default_rng(7)
    for dom in (DOM1, DOM2):
        for n in (3, 4, 5):
            level = build_level(dom, n)
            op = diff_op(level)
            d = level.weights
            for _ in range(20):
                u = rng.standard_normal(level.node_count)
                v = rng.standard_normal(level.node_count)
                for axis in range(level.dimension):
                    lhs = (op.apply(u, axis) * v) @ d
                    rhs = (u * op.apply(v, axis)) @ d
                    assert abs(lhs + rhs) <= 1e-12 * max(abs(lhs), abs(rhs), 1.0)


def test_apply_transpose_matches_matrix():
    level = build_level(DOM2, 3)
    op = diff_op(level)
    rng = np.random.default_rng(3)
    u = rng.standard_normal(level.node_count)
    v = rng.standard_normal(level.node_count)
    for axis in range(2):
        assert np.isclose(op.apply(u, axis) @ v, u @ op.apply_transpose(v, axis))


def test_derivative_second_order_interior():
    errs = []
    hs = []
    for n in (4, 5, 6, 7):
        level = build_level(DOM1, n)
        x = level.coordinates[:, 0]
        u = GridFunction(level, np.sin(2 * np.pi * x))
        du = derivative(u).values
        exact = 2 * np.pi * np.cos(2 * np.pi * x)
        interior = ~level.boundary_mask
        errs.append(np.max(np.abs(du[interior] - exact[interior])))
        hs.append(level.h)
    slope, _ = np.polyfit(np.log(hs), np.log(errs), 1)
    assert abs(slope - 2.0) < 0.2


def test_weak_laplacian_identity():
    # sum (lap u) v d == -sum Du . Dv d for all u, v (algebraic identity)
    rng = np.random.default_rng(5)
    level = build_level(DOM2, 4)
    d = level.weights
    u = GridFunction(level, rng.standard_normal(level.node_count))
    v = GridFunction(level, rng.standard_normal(level.node_count))
    lhs = (laplacian(u).values * v.values) @ d
    rhs = -sum(
        (gradient(u)[i].values * gradient(v)[i].values) @ d for i in range(2)
    )
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)


def test_divergence_matches_component_sum():
    level = build_level(DOM2, 4)
    rng = np.random.default_rng(11)
    phi = tuple(
        GridFunction(level, rng.standard_normal(level.node_count)) for _ in range(2)
    )
    expected = derivative(phi[0], 0).values + derivative(phi[1], 1).values
    assert np.allclose(divergence(phi).values, expected)


def test_derivative_kernel_dimension_is_one():
    for n in (3, 4, 5):
        assert derivative_kernel_dimension(build_level(DOM1, n)) == 1


def test_bump_is_smooth_compact_and_positive():
    phi = bump((0.5,), 0.25)
    level = build_level(DOM1, 6)
    g = restrict(phi.fn, level)
    x = level.coordinates[:, 0]
    assert np.all(g.values[np.abs(x - 0.5) >= 0.25] == 0.0)
    assert g.values[np.argmin(np.abs(x - 0.5))] == pytest.approx(1.0)
    assert np.all(g.values >= 0.0)


def test_standard_battery_inside_domain():
    battery = standard_battery(DOM2)
    level = build_level(DOM2, 5)
    for phi in battery:
        g = restrict(phi.fn, level)
        assert np.all(g.values[level.boundary_mask] == 0.0)
        assert norm(g) > 0.0


def test_csv_round_trip(tmp_path):
    level = build_level(DOM1, 4)
    u = restrict(lambda x: np.sin(x), level)
    path = tmp_path / "u.csv"
    grid_function_to_csv(u, path)
    v = grid_function_from_csv(level, path)
    assert np.array_equal(u.values, v.values)


def test_binary_round_trip(tmp_path):
    level = build_level(DOM2, 3)
    rng = np.random.default_rng(0)
    u = GridFunction(level, rng.standard_normal(level.node_count))
    path = tmp_path / "u.ugf"
    grid_function_to_binary(u, path)
    v = grid_function_from_binary(level, path)
    assert np.array_equal(u.values, v.values)


def _signed_random(rng, size):
    """Normal samples with a fifth of them +0.0 and a fifth -0.0."""
    u = rng.standard_normal(size)
    pick = rng.random(size)
    u[pick < 0.2] = 0.0
    u[pick > 0.8] = -0.0
    return u


@settings(max_examples=40, deadline=None)
@given(
    extents=st.lists(st.integers(1, 2), min_size=1, max_size=3),
    n=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_diffop_bit_identical_to_moveaxis_formula(extents, n, seed):
    # the banded D and D^T against the former CSR matrices applied by moving
    # the axis to the front, signed zeros included
    level = build_level(Domain(tuple((0.0, float(e)) for e in extents)), n)
    op = diff_op(level)
    u = _signed_random(np.random.default_rng(seed), level.node_count)
    grid = u.reshape(level.shape)
    for axis, m in enumerate(level.shape):
        D = oracles.d1_matrix(m, level.h)
        for got, mat in ((op.apply(u, axis), D), (op.apply_transpose(u, axis), D.T.tocsr())):
            expected = oracles.apply_axis(mat, grid, axis).ravel()
            np.testing.assert_array_equal(got, expected)
            np.testing.assert_array_equal(np.signbit(got), np.signbit(expected))


@settings(max_examples=40, deadline=None)
@given(
    corner=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=3),
    unit=st.floats(0.25, 3.0),
    data=st.data(),
    n=st.integers(0, 3),
)
def test_sbp_antisymmetry_on_random_levels(corner, unit, data, n):
    # W D + (W D)^T is exactly zero on the rows and columns of nodes that are
    # interior along the derivative's axis, and zero to rounding elsewhere
    extents = data.draw(st.lists(st.integers(1, 2), min_size=len(corner), max_size=len(corner)))
    bounds = tuple((lo, lo + k * unit) for lo, k in zip(corner, extents))
    level = build_level(Domain(bounds), n)
    assume(level.node_count <= 300)
    op = diff_op(level)
    eye = np.eye(level.node_count)
    for axis, m in enumerate(level.shape):
        WD = level.weights[:, None] * np.stack([op.apply(e, axis) for e in eye], axis=1)
        S = WD + WD.T
        idx = level.multi_index(np.arange(level.node_count))[axis]
        inner = (idx > 0) & (idx < m - 1)
        assert np.all(S[np.ix_(inner, inner)] == 0.0)
        assert np.abs(S).max() <= 4 * np.finfo(float).eps * np.abs(WD).max()

