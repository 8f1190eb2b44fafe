"""Grid functions, the summation-by-parts derivative, and quadrature."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ultragrid import (
    Domain,
    GridFunction,
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


def _moveaxis_apply(mat, values, shape, axis):
    """The former per-call formula of ``DiffOp.apply`` (kept as the oracle)."""
    moved = np.moveaxis(values.reshape(shape), axis, 0)
    flat = moved.reshape(moved.shape[0], -1)
    out = np.moveaxis((mat @ flat).reshape(moved.shape), 0, axis)
    return np.ascontiguousarray(out).ravel()


@settings(max_examples=40, deadline=None)
@given(
    extents=st.lists(st.integers(1, 2), min_size=1, max_size=3),
    n=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_diffop_bit_identical_to_moveaxis_formula(extents, n, seed):
    level = build_level(Domain(tuple((0.0, float(e)) for e in extents)), n)
    op = diff_op(level)
    u = np.random.default_rng(seed).standard_normal(level.node_count)
    for axis, mat in enumerate(op.matrices):
        np.testing.assert_array_equal(
            op.apply(u, axis), _moveaxis_apply(mat, u, level.shape, axis)
        )
        np.testing.assert_array_equal(
            op.apply_transpose(u, axis), _moveaxis_apply(mat.T, u, level.shape, axis)
        )
