"""The three packaged studies: objectives, initializers, diagnostics."""

import functools
import sys
import threading
import tracemalloc

import csr_oracles as oracles
import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import ultragrid.optimize as optimize
import ultragrid.problems as problems
from ultragrid import (
    BubbleInitializer,
    Domain,
    GridFunction,
    QuadraticWell,
    bubble,
    build_level,
    check_gradient,
    concentration_metric,
    extract_interface,
    minimize_level,
    monad_neighbors,
    solve_net,
    restrict,
    sawtooth_pattern,
    sawtooth_spec,
    sign_perturbed_spec,
    singular_spec,
    sobolev_constant,
)
from ultragrid.elements import apply_axes, gauss_interp
from ultragrid.optimize import minimize_quadratic
from ultragrid.solver import MinResult, verify_euler_lagrange

DOM1 = Domain(((0.0, 1.0),))
DOM3 = Domain(((0.0, 1.0), (0.0, 1.0), (0.0, 1.0)))


# --- sawtooth --------------------------------------------------------------


def test_sawtooth_objective_values():
    spec = sawtooth_spec()
    level = build_level(spec.domain, 4)
    obj = spec.build(level)
    # J(0) = volume (the (0 - 1)^2 term), J(pattern) small
    assert obj.value_and_grad(np.zeros(level.node_count))[0] == pytest.approx(1.0)
    pattern = sawtooth_pattern(level)
    assert obj.value_and_grad(pattern)[0] < 0.05


def test_sawtooth_pattern_has_unit_operator_slope():
    # the pattern is built for the central-difference stencil: |Du| = 1 at
    # every interior node (a nodal +/-1 zigzag would sit in the stencil's
    # checkerboard kernel instead)
    from ultragrid import derivative

    level = build_level(sawtooth_spec().domain, 5)
    u = GridFunction(level, sawtooth_pattern(level))
    du = derivative(u).values
    interior = ~level.boundary_mask
    assert np.allclose(np.abs(du[interior]), 1.0, atol=1e-12)


def test_sawtooth_fused_value_and_grad_is_bit_identical():
    spec = sawtooth_spec()
    level = build_level(spec.domain, 5)
    obj = spec.build(level)
    rng = np.random.default_rng(5)
    for u in (rng.standard_normal(level.node_count), sawtooth_pattern(level),
              obj.pin(rng.standard_normal(level.node_count))):
        value, grad = obj.value_and_grad(u)
        # the former separate value and gradient
        du = obj._op.apply(u, 0)
        assert value == float((u * u) @ obj._d + ((du * du - 1.0) ** 2) @ obj._d)
        inner_term = 4.0 * du * (du * du - 1.0) * obj._d
        np.testing.assert_array_equal(
            grad, 2.0 * u * obj._d + obj._op.apply_transpose(inner_term, 0)
        )


def test_sawtooth_gradient_consistency():
    level = build_level(sawtooth_spec().domain, 4)
    assert check_gradient(sawtooth_spec(), level) < 1e-5


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(0, 9),
    box=st.sampled_from([(0.0, 1.0), (-0.75, 2.25)]),
    seed=st.integers(0, 2**32 - 1),
)
def test_sawtooth_metric_solves_dense_h1(n, box, seed):
    # P = W + D^T W D assembled densely from the functional's own derivative.
    # Compared relative to the solution's norm: P's condition number grows
    # like h^-2, so its small entries carry the round-off of both solves
    level = build_level(Domain((box,)), n)
    obj = problems._SawtoothObjective(level)
    D = oracles.d1_matrix(level.node_count, level.h).toarray()
    W = np.diag(level.weights)
    g = np.random.default_rng(seed).standard_normal(level.node_count)
    got = obj.precondition(g)
    expected = np.linalg.solve(W + D.T @ W @ D, g)
    assert np.linalg.norm(got - expected) <= 1e-10 * np.linalg.norm(expected)
    assert g @ got > 0.0


def _h1_apply(level, y):
    """``P y`` for ``P = W + D^T W D``, and ``||P||_inf``, without a dense ``P``."""
    D = oracles.d1_matrix(level.node_count, level.h)
    d = level.weights
    P = sp.diags(d) + D.T @ sp.diags(d) @ D
    return P @ y, float(abs(P).sum(axis=1).max())


@pytest.mark.parametrize("n", range(3, 15))
def test_sawtooth_metric_backward_error(n):
    # normwise backward error ||g - P y|| / (||P|| ||y|| + ||g||) of the
    # parity-chain recurrences, against the assembled P (LAPACK's banded
    # Cholesky reached 1.5e-16 on these levels)
    level = build_level(sawtooth_spec().domain, n)
    obj = problems._SawtoothObjective(level)
    rng = np.random.default_rng(n)
    for g in (rng.standard_normal(level.node_count), np.ones(level.node_count),
              obj.value_and_grad(rng.standard_normal(level.node_count) * level.h)[1]):
        y = obj.precondition(g)
        Py, norm_P = _h1_apply(level, y)
        inf = np.inf
        eta = np.linalg.norm(g - Py, inf) / (
            norm_P * np.linalg.norm(y, inf) + np.linalg.norm(g, inf))
        assert eta <= 1e-15


#: ``(iterations, value)`` per level of ``solve_net(sawtooth, 3..12)`` as the
#: metric's former banded Cholesky (LAPACK ``pbtrf``/``pbtrs``) produced them
_SAWTOOTH_CHOLESKY_RUNS = {
    1: (23, 32, 31, 32, 33, 38, 41, 45, 47, 51),
    7919: (32, 32, 31, 32, 33, 38, 41, 45, 47, 51),
}
_SAWTOOTH_CHOLESKY_VALUES = (
    0.015563964843750007, 0.0039024353027343746, 0.0009763240814208984,
    0.00024412572383880615, 6.1034224927425385e-05, 1.5258730854839087e-05,
    3.814693627646193e-06, 9.536740890325746e-07, 2.3841856489070778e-07,
    5.960464388721445e-08,
)


@pytest.mark.parametrize("seed", sorted(_SAWTOOTH_CHOLESKY_RUNS))
def test_sawtooth_metric_runs_as_under_banded_cholesky(seed):
    # the recurrence solve rounds differently from LAPACK, but every level
    # takes the same iterations, converges alike and ends within 1e-12
    net = solve_net(sawtooth_spec(), range(3, 13), seed=seed)
    assert tuple(r.iterations for r in net.results) == _SAWTOOTH_CHOLESKY_RUNS[seed]
    assert all(r.converged for r in net.results)
    np.testing.assert_allclose([r.value for r in net.results], _SAWTOOTH_CHOLESKY_VALUES,
                               rtol=1e-12, atol=0.0)


# --- critical Sobolev quotient ----------------------------------------------


def test_sobolev_constant_fixture():
    s3 = sobolev_constant(3)
    # the fixture equals the closed-form radial value 3 * (pi/2)^(4/3)
    assert s3 == pytest.approx(3.0 * (np.pi / 2.0) ** (4.0 / 3.0), abs=1e-12)


def test_bubble_support_and_continuity():
    level = build_level(DOM3, 4)
    init = BubbleInitializer(
        epsilon=0.1, delta=0.2, theta=2.0, center=(0.5, 0.5, 0.5)
    )
    u = bubble(init, level).values
    r = np.linalg.norm(level.coordinates - 0.5, axis=1)
    assert np.all(u[r > init.delta * init.theta + 1e-12] == 0.0)
    assert np.all(u >= 0.0)
    assert u[r.argmin()] == u.max()


def test_bubble_support_must_fit_domain():
    level = build_level(DOM3, 4)
    init = BubbleInitializer(epsilon=0.1, delta=0.5, theta=2.0, center=(0.5,) * 3)
    with pytest.raises(ValueError):
        bubble(init, level)


@pytest.mark.parametrize("m", [3, 4, 9, 17])
def test_dirichlet_eigenpairs_match_eigh(m):
    # the closed-form sine eigenpairs against the generalized eigensolver
    h = 1.0 / (m - 1)
    K, M = (A.toarray()[1:-1, 1:-1] for A in oracles.p1_matrices(m, h))
    V, lam = problems._dirichlet_eigenpairs(m, h)
    ref_lam, ref_V = scipy.linalg.eigh(K, M)
    np.testing.assert_allclose(lam, ref_lam, rtol=1e-12)
    # eigenvectors agree up to sign (the eigenvalues are simple)
    signs = np.sign(np.sum(V * ref_V, axis=0))
    np.testing.assert_allclose(V, ref_V * signs, atol=1e-10 * np.abs(V).max())
    np.testing.assert_allclose(V.T @ M @ V, np.eye(m - 2), atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(
    dim_n=st.sampled_from([(3, 1), (3, 2), (3, 3), (4, 1), (4, 2), (5, 2)]),
    lo=st.sampled_from([0.0, -0.75]),
    stretched=st.integers(-1, 4),
    well=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_quotient_metric_solves_dense_stiffness(dim_n, lo, stretched, well, seed):
    # P = sum_i M1 (x) .. K1 (at axis i) .. (x) M1, the interior Dirichlet
    # stiffness, assembled densely in 3D, 4D and 5D on a cube or on a box
    # twice as long along one axis; the potential does not enter the metric
    dim, n = dim_n
    bounds = tuple((lo, lo + (2.0 if axis == stretched else 1.0)) for axis in range(dim))
    level = build_level(Domain(bounds), n)
    a = QuadraticWell((0.5,) * dim) if well else None
    obj = problems._QuotientObjective(level, a)
    K, M = zip(*((A.toarray()[1:-1, 1:-1] for A in oracles.p1_matrices(m, level.h))
                 for m in level.shape))
    P = sum(
        functools.reduce(np.kron, [K[axis] if axis == i else M[axis] for axis in range(dim)])
        for i in range(dim)
    )
    g = np.random.default_rng(seed).standard_normal(int(obj.free_mask.sum()))
    got = obj.precondition(g)
    expected = np.linalg.solve(P, g)
    assert np.linalg.norm(got - expected) <= 1e-10 * np.linalg.norm(expected)
    assert g @ got > 0.0


def test_quotient_scale_invariance():
    spec = sign_perturbed_spec()
    level = build_level(spec.domain, 3)
    obj = spec.build(level)
    rng = np.random.default_rng(2)
    u = obj.pin(rng.standard_normal(level.node_count))
    q = obj.value_and_grad(u)[0]
    for alpha in (0.5, -3.0, 17.0):
        assert abs(obj.value_and_grad(alpha * u)[0] - q) <= 1e-12 * abs(q)


def test_quotient_gradient_consistency():
    spec = sign_perturbed_spec()
    level = build_level(spec.domain, 3)
    assert check_gradient(spec, level) < 1e-5


def _gauss_potential(level, well):
    """The well's values on the full Gauss-point grid; ``None`` without a well."""
    if well is None:
        return None
    points = [gauss_interp(m, level.h, level.domain.bounds[axis][0])[1]
              for axis, m in enumerate(level.shape)]
    mesh = np.meshgrid(*points, indexing="ij", sparse=True)
    return well.strength * sum((x - c) ** 2 for x, c in zip(mesh, well.center, strict=True))


def _old_quotient(obj, u, well):
    """The former quotient evaluation, kept as the oracle of the streamed pass.

    Sparse per-axis Gauss matrices applied along each axis over the full
    Gauss-point grid, ``|u|^p`` by float power, the potential term summed on
    that grid, and the weighted transposes ``G^T diag(w)`` for the adjoint.
    """
    level = obj.level
    grid = u.reshape(level.shape)
    G, GTW, weights = [], [], []
    for axis, m in enumerate(level.shape):
        _dense, _points, w = gauss_interp(m, level.h, level.domain.bounds[axis][0])
        g = oracles.gauss_interp(m, level.h)
        G.append(g)
        GTW.append(g.T @ np.diag(w))
        weights.append(w)

    def chain(mats, arr):
        for axis, mat in enumerate(mats):
            arr = oracles.apply_axis(mat, arr, axis)
        return arr

    def gauss_sum(arr):
        for w in weights:
            arr = np.tensordot(w, arr, axes=(0, 0))
        return float(arr)

    ku = np.zeros_like(grid)
    for i in range(grid.ndim):
        mats = [oracles.p1_matrices(m, level.h)[0 if a == i else 1]
                for a, m in enumerate(level.shape)]
        ku += chain(mats, grid)
    num = float(np.vdot(grid, ku))
    ug = chain(G, grid)
    a = _gauss_potential(level, well)
    if a is not None:
        num += gauss_sum(a * ug * ug)
    den = gauss_sum(np.abs(ug) ** obj.p)
    d_num = 2.0 * ku
    if a is not None:
        d_num = d_num + 2.0 * chain(GTW, a * ug)
    d_den = obj.p * chain(GTW, np.sign(ug) * np.abs(ug) ** (obj.p - 1.0))
    grad = d_num / den**obj.q - (obj.q * num / den ** (obj.q + 1.0)) * d_den
    return num / den**obj.q, grad.ravel()


@pytest.mark.parametrize(
    "dimension, n, well",
    [(3, 3, False), (3, 4, False), (3, 3, True), (3, 4, True),
     (4, 2, False), (4, 2, True), (5, 2, False)],
)
def test_quotient_kernel_matches_former_formula(dimension, n, well):
    # p = 6, 4 and 10/3: the last needs a non-integer power
    a = QuadraticWell((0.4,) * dimension) if well else None
    spec = sign_perturbed_spec(a=a, dimension=dimension)
    level = build_level(spec.domain, n)
    obj = spec.build(level)
    u = obj.pin(np.random.default_rng(n + dimension).standard_normal(level.node_count))
    value, grad = obj.value_and_grad(u)
    ref_value, ref_grad = _old_quotient(obj, u, a)
    assert value == pytest.approx(ref_value, rel=1e-12)
    np.testing.assert_allclose(grad, ref_grad, rtol=1e-12, atol=1e-12 * np.abs(ref_grad).max())
    # the former per-cell weighted sums against <u, adj>: the same exact
    # Gauss sums, summed in another order
    assert _whole_array_value_and_grad(obj, u, a)[0] == pytest.approx(value, rel=1e-15, abs=0.0)


def _whole_array_value_and_grad(obj, u, well):
    """The former whole-array evaluation, kept as the oracle of the streamed pass.

    The node grid is contracted along axes 1 .. N-1 in whole (batched)
    GEMMs, axis 0 is swept cell by cell into adjoint accumulators the size
    of that contraction, and the scaled accumulators are back-projected at
    the end: the one-range Gauss pass as it was before it was streamed.
    ``den`` and ``pot`` are each cell's Gauss-weighted sum, added in cell
    order, as the pass took them before they were read off the adjoint.
    The dense Gauss matrices ``G``, ``G^T diag(w)`` and the weights ``w``
    come from :func:`gauss_interp`.  The potential is ``well`` on the Gauss
    grid, and the stiffness that of a well-free objective, since ``obj``'s
    stiffness holds the well.
    """
    level = obj.level
    G, GWT, gw = [], [], []
    for axis, m in enumerate(level.shape):
        g, _points, w = gauss_interp(m, level.h, level.domain.bounds[axis][0])
        G.append(g)
        GWT.append((g * w[:, None]).T)
        gw.append(w)

    def weighted_sum(x, w0):  # one cell's rows x, axis-0 weights w0
        for w in reversed(gw[1:]):
            x = x.reshape(-1, w.size) @ w
        return float(w0 @ x)

    def apply_trailing(mats, t):
        for axis in range(t.ndim - 1, 0, -1):
            mat, head = mats[axis], t.shape[:axis]
            if axis == t.ndim - 1:
                t = (t.reshape(-1, t.shape[axis]) @ mat.T).reshape(head + (mat.shape[0],))
            else:
                batched = t.reshape(int(np.prod(head)), t.shape[axis], -1)
                t = (mat @ batched).reshape(head + (mat.shape[0],) + t.shape[axis + 1:])
        return t

    grid = u.reshape(obj.level.shape)
    t = apply_trailing(G, grid)
    t = t.reshape(t.shape[0], -1)
    a_gauss = _gauss_potential(obj.level, well)
    acc = np.zeros(t.shape)
    acc_a = None if a_gauss is None else np.zeros(t.shape)
    G0, GWT0, w0 = G[0], GWT[0], gw[0]
    rule = G0.shape[0] // (G0.shape[1] - 1)
    den = pot = 0.0
    for c in range(G0.shape[1] - 1):
        rows, nodes = slice(rule * c, rule * (c + 1)), slice(c, c + 2)
        ug = G0[rows, nodes] @ t[nodes]
        if a_gauss is not None:
            y = a_gauss[rows].reshape(ug.shape) * ug
            acc_a[nodes] += GWT0[nodes, rows] @ y
            pot += weighted_sum(ug * y, w0[rows])
        y = np.power(ug * ug, obj._half_exp) * ug
        den += weighted_sum(ug * y, w0[rows])
        acc[nodes] += GWT0[nodes, rows] @ y
    ku = problems._QuotientObjective(obj.level, None)._stiffness_apply(grid)
    num = float(np.vdot(grid, ku)) + pot
    scale = den**-obj.q
    acc *= -obj.p * obj.q * num * scale / den
    if acc_a is not None:
        acc += (2.0 * scale) * acc_a
    adj = apply_trailing(GWT, acc.reshape([acc.shape[0]] + [w.size for w in gw[1:]]))
    return num / den**obj.q, (2.0 * scale * ku + adj).ravel()


def _assert_matches_whole_array_oracle(obj, u, well):
    # den = <u, adj> against the former per-cell weighted sums (the same
    # exact Gauss sum), and the well folded into the stiffness against its
    # Gauss sum, to 1e-15 relative; the gradient, scaled after the
    # back-projection instead of before it, to rounding
    with problems.sweep_threads(1):
        value, grad = obj.value_and_grad(u)
    ref_value, ref_grad = _whole_array_value_and_grad(obj, u, well)
    assert value == pytest.approx(ref_value, rel=1e-15, abs=0.0)
    assert np.max(np.abs(grad - ref_grad)) <= 1e-14 * np.max(np.abs(ref_grad))


_KERNEL_LEVELS = [(3, n) for n in (1, 2, 3, 4, 5)] + [(4, 2), (4, 3), (5, 2)]


def _row_kernel(dimension, n, seed):
    """A free quotient objective, a random node row and the kernel buffers:
    ``(obj, row, gauss_row, corners)``."""
    level = build_level(Domain(((0.0, 1.0),) * dimension), n)
    obj = problems._QuotientObjective(level, None)
    row = np.random.default_rng(seed).standard_normal(level.shape[1:])
    cells = tuple(m - 1 for m in level.shape[1:])
    gauss_row = np.empty((4 ** row.ndim, int(np.prod(cells))))
    return obj, row, gauss_row, np.empty((2 ** row.ndim,) + cells)


@pytest.mark.parametrize("dimension, n", _KERNEL_LEVELS)
def test_interp_is_the_dense_gauss_contraction_in_cell_major_order(dimension, n):
    # the dense Gauss matrices of axes 1 .. N-1 give the row in axis order,
    # (cell 1, point 1, cell 2, point 2, ...); the per-cell Kronecker factor
    # gives it in cell-major order, (point 1, point 2, ..., cell 1, cell 2, ...)
    obj, row, got, buf = _row_kernel(dimension, n, 40 + n)
    level, k = obj.level, row.ndim
    dense = apply_axes([gauss_interp(m, level.h, 0.0)[0] for m in level.shape[1:]], row)
    split = dense.reshape([x for m in level.shape[1:] for x in (m - 1, 4)])
    expected = split.transpose([*range(1, 2 * k, 2), *range(0, 2 * k, 2)]).reshape(got.shape)
    obj._interp(row, got, buf)
    assert np.max(np.abs(got - expected)) <= 1e-15 * np.max(np.abs(expected))


@pytest.mark.parametrize("dimension, n", _KERNEL_LEVELS)
def test_project_is_the_weighted_adjoint_of_interp(dimension, n):
    # <interp x, W y> = <x, project y>, W the Gauss weights of axes 1 .. N-1
    # in cell-major order, to rounding of the sum of the absolute terms
    obj, x, ix, buf = _row_kernel(dimension, n, 50 + n)
    y = np.random.default_rng(60 + n).standard_normal(ix.shape)
    w = gauss_interp(2, obj.level.h, 0.0)[2]
    wy = functools.reduce(np.kron, [w] * x.ndim)[:, None] * y
    obj._interp(x, ix, buf)
    px = np.full(x.shape, np.nan)  # every node is written
    obj._project(y, px, buf)
    assert abs(np.vdot(ix, wy) - np.vdot(x, px)) <= 1e-14 * np.vdot(np.abs(ix), np.abs(wy))


@pytest.mark.parametrize(
    "n, well", [(n, well) for n in (3, 4, 5, 6) for well in (False, True)]
)
def test_streamed_pass_matches_whole_array_oracle(n, well):
    # u is a sign-changing random field
    level = build_level(DOM3, n)
    a = QuadraticWell((0.4, 0.5, 0.6)) if well else None
    obj = problems._QuotientObjective(level, a)
    u = obj.pin(np.random.default_rng(30 + n).standard_normal(level.node_count))
    _assert_matches_whole_array_oracle(obj, u, a)


@pytest.mark.parametrize(
    "dimension, n, well", [(4, 2, False), (4, 3, True), (5, 2, False), (5, 2, True)]
)
def test_streamed_pass_matches_whole_array_oracle_in_4d_and_5d(dimension, n, well):
    # p = 4 and 10/3: the sweep takes np.power
    level = build_level(Domain(((0.0, 1.0),) * dimension), n)
    a = QuadraticWell((0.4, 0.5, 0.6, 0.45, 0.55)[:dimension]) if well else None
    obj = problems._QuotientObjective(level, a)
    u = obj.pin(np.random.default_rng(10 * dimension + n).standard_normal(level.node_count))
    _assert_matches_whole_array_oracle(obj, u, a)


@pytest.mark.parametrize("well", [False, True])
def test_quotient_evaluation_stores_no_gauss_grid(well):
    # a 3D level-5 Gauss pass contracted along axes 1..2 is 33 x 128 x 128
    # doubles (4.3 MB), and the whole Gauss grid 128^3 (16.8 MB); the
    # streamed pass holds a few Gauss rows (128 KB each) and node-sized
    # arrays (287 KB each), and the well is a 33 x 33 term of each axis's
    # stiffness factor.  Bounded: the build and first evaluation together,
    # and the evaluation alone, beyond what the built objective holds
    level = build_level(DOM3, 5)
    u = np.random.default_rng(5).standard_normal(level.node_count)
    tracemalloc.start()
    try:
        obj = problems._QuotientObjective(level, QuadraticWell((0.4, 0.5, 0.6)) if well else None)
        u = obj.pin(u)
        held, build_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        with problems.sweep_threads(1):
            obj.value_and_grad(u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert max(build_peak, peak) <= 6_000_000
    assert peak - held <= 4_000_000


def test_quotient_well_gradient_consistency():
    spec = sign_perturbed_spec(a=QuadraticWell((0.5, 0.5, 0.5)))
    level = build_level(spec.domain, 3)
    assert check_gradient(spec, level) < 1e-5


def _assert_bit_identical(expected, got):
    for x, y in zip(expected, got, strict=True):
        np.testing.assert_array_equal(y, x)
        np.testing.assert_array_equal(np.signbit(y), np.signbit(x))


@pytest.mark.parametrize("n", [3, 4])
def test_strength_zero_well_is_the_free_quotient(n):
    # the well's stiffness terms are exact zeros, so adding them changes no bit
    level = build_level(DOM3, n)
    free = problems._QuotientObjective(level, None)
    zero = problems._QuotientObjective(level, QuadraticWell((0.4, 0.5, 0.6), strength=0.0))
    u = free.pin(np.random.default_rng(n).standard_normal(level.node_count))
    _assert_bit_identical(
        (*free.value_and_grad(u), free.normalize(u)),
        (*zero.value_and_grad(u), zero.normalize(u)),
    )


def test_quotient_lower_bound_needs_a_non_negative_well():
    assert sign_perturbed_spec().lower_bound == sobolev_constant(3)
    assert sign_perturbed_spec(a=QuadraticWell((0.5,) * 3, 0.0)).lower_bound == sobolev_constant(3)
    assert sign_perturbed_spec(a=QuadraticWell((0.5,) * 3, -1.0)).lower_bound is None
    # no bound is certified outside 3D
    assert sign_perturbed_spec(a=QuadraticWell((0.5,) * 4), dimension=4).lower_bound is None
    with pytest.raises(ValueError, match="the well center needs 3 coordinates"):
        sign_perturbed_spec(a=QuadraticWell((0.5, 0.5)))


@pytest.mark.parametrize(
    "dimension, n, well",
    [(3, n, well) for n in (1, 3, 4, 5, 6) for well in (False, True)]
    + [(4, 2, False), (4, 3, True), (5, 2, False), (5, 2, True)],
)
def test_quotient_split_sweep_is_bit_identical(monkeypatch, dimension, n, well):
    # every level is split (no threshold) into 1, 2 and 3 ranges; 3D level 1
    # has 2 cells for 3 ranges; 4D and 5D (p = 4 and 10/3) take np.power
    monkeypatch.setattr(problems, "_SPLIT_MIN_POINTS", 0)
    starts = []
    sweep = problems._QuotientObjective._sweep

    def recording(self, grid, c0, *args):
        starts.append(c0)
        return sweep(self, grid, c0, *args)

    monkeypatch.setattr(problems._QuotientObjective, "_sweep", recording)
    a = QuadraticWell((0.4,) * dimension) if well else None
    level = build_level(Domain(((0.0, 1.0),) * dimension), n)
    obj = problems._QuotientObjective(level, a)
    u = obj.pin(np.random.default_rng(10 * dimension + n).standard_normal(level.node_count))
    results = []
    for ranges in (1, 2, 3):
        with problems.sweep_threads(ranges):
            del starts[:]
            normalized = obj.normalize(u)
            assert len(starts) == min(ranges, level.shape[0] - 1)
            results.append((*obj.value_and_grad(u), normalized))
    for got in results[1:]:
        _assert_bit_identical(results[0], got)


@pytest.mark.parametrize("dimension, n, well", [(3, 3, False), (3, 5, True), (4, 3, False)])
def test_quotient_chunked_sweep_is_bit_identical(monkeypatch, dimension, n, well):
    # the pointwise steps of a cell act column by column, so cutting them
    # into chunks of 64 columns changes no bit
    a = QuadraticWell((0.4,) * dimension) if well else None
    level = build_level(Domain(((0.0, 1.0),) * dimension), n)
    obj = problems._QuotientObjective(level, a)
    u = obj.pin(np.random.default_rng(70 + n).standard_normal(level.node_count))
    with problems.sweep_threads(1):
        expected = (*obj.value_and_grad(u), obj.normalize(u))
        monkeypatch.setattr(problems, "_CHUNK", 64)
        _assert_bit_identical(expected, (*obj.value_and_grad(u), obj.normalize(u)))


def test_split_sweep_stress_more_ranges_than_cores(monkeypatch):
    # more ranges than cores, threads switched every microsecond: a lost or
    # reordered update of the shared accumulators breaks the bit identity
    monkeypatch.setattr(problems, "_SPLIT_MIN_POINTS", 0)
    level = build_level(DOM3, 4)
    obj = problems._QuotientObjective(level, QuadraticWell((0.4, 0.5, 0.6)))
    u = obj.pin(np.random.default_rng(44).standard_normal(level.node_count))
    with problems.sweep_threads(1):
        expected = obj.value_and_grad(u)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with problems.sweep_threads(2 * problems._usable_cpus() + 3):
            for _ in range(20):
                _assert_bit_identical(expected, obj.value_and_grad(u))
    finally:
        sys.setswitchinterval(interval)


def test_quotient_square_rounds_as_numpy_power():
    # p = 6 squares u^2 with np.square where the sweep used np.power(y, 2.0),
    # and then np.multiply(y, y)
    rng = np.random.default_rng(6)
    y = rng.standard_normal(200_000) * 10.0 ** rng.integers(-170, 170, 200_000)
    y = np.concatenate((y, [0.0, -0.0, 5e-324, 1e154, 1e155, np.inf, -np.inf, np.nan]))
    with np.errstate(over="ignore", under="ignore"):
        _assert_bit_identical([np.power(y, 2.0)] * 2, [np.multiply(y, y), np.square(y)])


def test_split_sweep_calls_traced_functions_on_the_main_thread(monkeypatch):
    # a span tracer keeps one stack per process, so during a split level-5
    # solve apply_axis and value_and_grad must run on the main thread only,
    # while a helper thread sweeps the second range
    calls = {"apply_axis": set(), "value_and_grad": set(), "_sweep": set()}

    def recording(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name].add(threading.get_ident())
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(problems, "apply_axis", recording("apply_axis", problems.apply_axis))
    for name in ("value_and_grad", "_sweep"):
        method = getattr(problems._QuotientObjective, name)
        monkeypatch.setattr(problems._QuotientObjective, name, recording(name, method))
    with problems.sweep_threads(2):
        net = solve_net(sign_perturbed_spec(), [3, 4, 5], seed=1)
    assert net.results[-1].level.n == 5
    main = threading.get_ident()
    assert calls["apply_axis"] == {main}
    assert calls["value_and_grad"] == {main}
    assert main in calls["_sweep"] and calls["_sweep"] - {main}  # a helper swept too


def test_sweep_threads_rejects_fewer_than_one():
    with pytest.raises(ValueError, match="at least 1"):
        with problems.sweep_threads(0):
            pass
    with problems.sweep_threads() as threads:
        assert threads == problems._usable_cpus() >= 1


def test_quotient_above_sobolev_constant():
    spec = sign_perturbed_spec()
    level = build_level(spec.domain, 3)
    res = minimize_level(spec, level, seed=0, multistart=3)
    assert res.value > sobolev_constant(3)
    assert res.converged


def test_quadratic_well_and_concentration_metric():
    a = QuadraticWell([0.5, 0.5, 1], strength=10)
    assert a == QuadraticWell((0.5, 0.5, 1.0), 10.0)
    assert QuadraticWell((0.5,) * 3).strength == 50.0
    # every value finite, or no well
    for center, strength in (((0.5, float("nan"), 0.5), 1.0), ((0.5,) * 3, float("inf")),
                             ((0.5,) * 3, "nan")):
        with pytest.raises(ValueError, match="finite"):
            QuadraticWell(center, strength)

    level = build_level(DOM3, 3)
    peak = restrict(
        lambda x, y, z: np.exp(-50 * ((x - 0.5) ** 2 + (y - 0.5) ** 2 + (z - 0.5) ** 2)),
        level,
    )
    assert concentration_metric(peak, (0.5, 0.5, 0.5), 0.2) > 0.5
    with pytest.raises(ValueError):
        concentration_metric(peak, (0.5, 0.5, 0.5), -1.0)


# --- objective caching ------------------------------------------------------


@pytest.mark.parametrize("factory, n", [(sign_perturbed_spec, 2), (singular_spec, 3)])
def test_spec_build_is_keyed_by_level_value(factory, n):
    spec = factory()
    obj = spec.build(build_level(spec.domain, n))
    # an equal level, built separately, gets the same objective
    assert spec.build(build_level(spec.domain, n)) is obj
    other = spec.build(build_level(spec.domain, n + 1))
    assert other is not obj and other.level.n == n + 1


# --- singular problem --------------------------------------------------------


def test_singular_boundary_data_never_zero():
    spec = singular_spec()
    level = build_level(spec.domain, 4)
    obj = spec.build(level)
    boundary = level.boundary_mask
    assert np.all(obj.fixed_mask == boundary)
    assert np.all(np.abs(obj.fixed_values[boundary]) == 1.0)


def test_singular_rejects_zero_boundary_data():
    spec = singular_spec(g=lambda x, y: x - 0.25)  # vanishes on the boundary
    level = build_level(spec.domain, 3)
    with pytest.raises(ValueError, match="node"):
        spec.build(level)


def test_singular_feasibility_and_sign_preservation():
    spec = singular_spec()
    level = build_level(spec.domain, 3)
    obj = spec.build(level)
    u = obj.pin(np.ones(level.node_count))
    assert obj.feasible(u)
    z = u.copy()
    z[obj.free_mask.argmax()] = 0.0
    assert not obj.feasible(z)
    flipped = u.copy()
    flipped[np.flatnonzero(obj.free_mask)[0]] *= -1.0
    assert not obj.accept_step(u, flipped)


def test_singular_energy_of_harmonic_constant():
    # masked Dirichlet term vanishes on constants even with nonzero boundary
    spec = singular_spec(g=lambda x, y: np.ones_like(x))
    level = build_level(spec.domain, 4)
    obj = spec.build(level)
    u = obj.pin(np.ones(level.node_count))
    # E(1) = int W(1) = 1 for W(t) = t^-2
    assert obj.value_and_grad(u)[0] == pytest.approx(1.0, abs=1e-12)


def test_singular_gradient_and_hessian():
    spec = singular_spec()
    level = build_level(spec.domain, 3)
    assert check_gradient(spec, level) < 1e-5
    obj = spec.build(level)
    rng = np.random.default_rng(4)
    u = obj.pin(np.where(level.coordinates[:, 0] <= 0.5, 1.0, -1.0) + 0.0)
    blocks, c = obj.hessian(u)
    # Hessian-vector product matches finite differences of the gradient
    v = rng.standard_normal(level.node_count)
    v[obj.fixed_mask] = 0.0
    eps = 1e-6
    fd = (obj.value_and_grad(u + eps * v)[1] - obj.value_and_grad(u - eps * v)[1]) / (2 * eps)
    hv = c * v
    for nodes, band in blocks:
        hv[nodes] += _symmetric_from_band(band) @ v[nodes]
    free = obj.free_mask
    assert np.max(np.abs(fd[free] - hv[free])) < 1e-4 * max(np.max(np.abs(hv)), 1.0)


def _symmetric_from_band(band) -> np.ndarray:
    """The symmetric matrix whose upper band ``band`` holds, in the storage
    of ``scipy.linalg.solveh_banded``."""
    band = band.toarray()
    u = band.shape[0] - 1
    upper = sum(np.diag(band[u - k, k:], k) for k in range(u + 1))
    return upper + np.triu(upper, 1).T


@pytest.mark.parametrize("dom,n", [(DOM1, 3), (DOM1, 5), (None, 1), (None, 3),
                                   (None, 5), (DOM3, 2), (DOM3, 3)])
def test_singular_parity_blocks_are_the_free_stiffness(dom, n):
    # the blocks partition the free nodes, one per parity class with free
    # nodes, each in wavefront order (by index sum, then by index), and their
    # bands hold K_ff bit for bit: K couples no two parity classes
    spec = singular_spec(domain=dom)
    level = build_level(spec.domain, n)
    obj = spec.build(level)
    idx = np.array(np.unravel_index(np.arange(level.node_count), level.shape))
    free = np.flatnonzero(obj.free_mask)
    nodes = [b for b, _band in obj.blocks]
    assert len(nodes) == min(2**level.dimension, free.size)
    np.testing.assert_array_equal(np.sort(np.concatenate(nodes)), free)
    assembled = np.zeros((level.node_count, level.node_count))
    for b, band in obj.blocks:
        assert len({tuple(p) for p in idx[:, b].T % 2}) == 1
        np.testing.assert_array_equal(b, sorted(b, key=lambda k: (idx[:, k].sum(), k)))
        assembled[np.ix_(b, b)] = _symmetric_from_band(band)
    K = obj._K.toarray()
    np.testing.assert_array_equal(assembled[np.ix_(free, free)], K[np.ix_(free, free)])


def test_singular_fused_value_and_grad_is_bit_identical():
    spec = singular_spec()
    level = build_level(spec.domain, 4)
    obj = spec.build(level)
    rng = np.random.default_rng(6)
    for _ in range(3):
        # boundary-pinned points, away from the singularity at zero
        u = obj.pin(np.sign(rng.standard_normal(level.node_count)) + 0.5 * rng.random(level.node_count))
        value, grad = obj.value_and_grad(u)
        # the former separate value and gradient
        ref_value = 0.0
        for axis, mask in enumerate(obj._row_masks):
            du = obj._op.apply(u, axis)
            ref_value += 0.5 * float((du * du * mask) @ obj._d)
        assert value == ref_value + float(obj._W(u) @ obj._d)
        ref = obj._d * obj._Wp(u)
        for axis, mask in enumerate(obj._row_masks):
            du = obj._op.apply(u, axis)
            ref = ref + obj._op.apply_transpose(du * mask * obj._d, axis)
        np.testing.assert_array_equal(grad, ref)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_singular_riesz_residual_is_the_former_strong_residual(n):
    # verify_euler_lagrange's Riesz residual grad / d against the former
    # strong form -lap u + W'(u) of the masked Dirichlet term, at the
    # harmonic start, on the free nodes
    spec = singular_spec()
    level = build_level(spec.domain, n)
    obj = spec.build(level)
    u = spec.initial_guesses(level, None, None)[0]
    lap = np.zeros_like(u)
    for axis, mask in enumerate(obj._row_masks):
        du = obj._op.apply(u, axis)
        lap -= obj._op.apply_transpose(du * mask * obj._d, axis) / obj._d
    former = (-lap + obj._Wp(u))[obj.free_mask]
    value, grad = obj.value_and_grad(u)
    riesz = (grad / level.weights)[obj.free_mask]
    scale = np.max(np.abs(former))
    assert np.max(np.abs(riesz - former)) <= 1e-13 * scale
    result = MinResult(level, GridFunction(level, u), value, 0.0, 0, False)
    assert verify_euler_lagrange(spec, result).max_residual == np.max(np.abs(riesz))


@pytest.mark.parametrize("n", [4, 5])
def test_singular_harmonic_start_is_zero_on_the_odd_odd_block(n):
    # the masked stiffness couples nodes two apart, so the nodes with both
    # indices odd form a block that never touches the boundary: K_ff is only
    # semidefinite there and the harmonic extension must be exactly 0
    spec = singular_spec()
    level = build_level(spec.domain, n)
    obj = spec.build(level)
    u = obj.harmonic_extension()
    assert np.all(np.isfinite(u))
    np.testing.assert_array_equal(u[obj.fixed_mask], obj.fixed_values[obj.fixed_mask])
    i, j = np.unravel_index(np.arange(level.node_count), level.shape)
    odd = (i % 2 == 1) & (j % 2 == 1)
    assert np.all(u[odd] == 0.0)
    free = obj.free_mask
    # harmonic: the free rows of K u vanish (the entries of K are at most 1)
    assert np.max(np.abs((obj._K @ u)[free])) < 1e-12
    start = spec.initial_guesses(level, None, None)[0]
    left = level.coordinates[:, 0] <= 0.5
    np.testing.assert_array_equal(start[odd], np.where(left[odd], 0.1, -0.1))
    assert np.all(np.abs(start[free]) >= 0.1)


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("g", [None, lambda x, y: 1.0 - 2.5 * x + 0.5 * y])
def test_singular_harmonic_start_is_the_former_clip(n, g):
    # the shared floor leaves the harmonic start as it was, bit for bit,
    # including the midline sign rule at its exact zeros
    spec = singular_spec(g=g)
    level = build_level(spec.domain, n)
    obj = spec.build(level)
    u = obj.harmonic_extension()
    assert np.any(u == 0.0)
    x0 = level.coordinates[:, 0]
    sign = np.where(u > 0, 1.0, np.where(u < 0, -1.0, np.where(x0 <= 0.5, 1.0, -1.0)))
    former = sign * np.maximum(np.abs(u), 0.1)
    np.testing.assert_array_equal(spec.initial_guesses(level, None, None)[0], former)


def test_singular_minimizer_and_interface():
    spec = singular_spec()
    level = build_level(spec.domain, 5)
    res = minimize_level(spec, level, seed=0)
    assert res.converged
    u = res.u.values
    assert np.min(np.abs(u)) > 0.0

    dec = extract_interface(res.u, reference_distance=lambda P: np.abs(P[:, 0] - 0.5))
    m1, m2, mi = dec.omega1.mask(), dec.omega2.mask(), dec.xi.mask()
    assert not np.any(m1 & m2) and not np.any(m1 & mi) and not np.any(m2 & mi)
    assert np.all(m1 | m2 | mi)
    # monad positivity: the whole stencil neighborhood keeps the sign
    rng = np.random.default_rng(0)
    for idx in rng.choice(dec.omega1.indices, size=5, replace=False):
        nb = monad_neighbors(level, int(idx))
        assert np.all(u[nb.indices] > 0.0)
    for idx in rng.choice(dec.omega2.indices, size=5, replace=False):
        nb = monad_neighbors(level, int(idx))
        assert np.all(u[nb.indices] < 0.0)
    assert dec.xi_max_distance <= 2 * level.h
    assert abs(dec.interface_measure - 1.0) <= 0.1


def test_singular_potential_validation():
    # W must blow up at zero: a bounded W is rejected
    with pytest.raises(ValueError):
        singular_spec(
            W=lambda t: t * 0.0 + 1.0,
            Wp=lambda t: t * 0.0,
            Wpp=lambda t: t * 0.0,
        )


@settings(max_examples=60, deadline=None)
@given(
    shape=st.lists(st.integers(1, 7), min_size=1, max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
def test_interface_filters_bit_identical_to_ndimage(shape, seed):
    # the 3x3 min/max filters of extract_interface against scipy.ndimage,
    # on values with many ties, signed zeros among them
    rng = np.random.default_rng(seed)
    grid = rng.choice([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0], size=shape)
    grid[rng.random(shape) < 0.3] = rng.standard_normal()
    for reduce, oracle in ((np.minimum, oracles.min_filter3), (np.maximum, oracles.max_filter3)):
        got, expected = problems._filter3(grid, reduce), oracle(grid)
        np.testing.assert_array_equal(got, expected)
        np.testing.assert_array_equal(np.signbit(got), np.signbit(expected))


def test_singular_harmonic_start_at_level_one():
    # the one free node at level 1, the odd-odd centre, is read by no
    # interior stencil row: its row of the masked stiffness is zero, and so
    # is the data of its block, so its harmonic value is 0 (SuperLU met an
    # exactly singular 1x1 block and returned NaN)
    spec = singular_spec()
    level = build_level(spec.domain, 1)
    obj = spec.build(level)
    u = obj.harmonic_extension()
    assert u[obj.free_mask].tolist() == [0.0]
    np.testing.assert_array_equal(u[~obj.free_mask], obj.fixed_values[~obj.free_mask])
    # the start is +init_floor at the centre, which lies on the midline
    assert spec.initial_guesses(level, None, None)[0][obj.free_mask].tolist() == [0.1]


def _former_harmonic_extension(K, x, free):
    """The former harmonic start: one SuperLU solve of the whole free block;
    a free node whose row of ``K`` is zero gets 0 without entering it."""
    import scipy.sparse.linalg as spla

    K = sp.csr_matrix(K)
    free_idx = np.flatnonzero(free & (abs(K).sum(axis=1).A1 > 0.0))
    fixed_idx = np.flatnonzero(~free)
    y = np.zeros(x.size)
    y[fixed_idx] = x[fixed_idx]
    rhs = -K[free_idx][:, fixed_idx] @ y[fixed_idx]
    y[free_idx] = spla.spsolve(K[free_idx][:, free_idx].tocsc(), rhs)
    return y


@pytest.mark.filterwarnings("ignore::scipy.sparse.linalg.MatrixRankWarning")
@pytest.mark.parametrize("n", range(1, 8))
def test_singular_harmonic_extension_matches_the_former_whole_solve(n):
    # one SuperLU solve per parity block against the former solve of all
    # blocks at once: the same to the last bit (signs of zero aside, which
    # differ at levels 4 and 5) except at level 3, where six entries move by
    # 1.1e-16; the start's signs are the same at every level
    spec = singular_spec()
    level = build_level(spec.domain, n)
    obj = spec.build(level)
    u = obj.harmonic_extension()
    former = _former_harmonic_extension(obj._K, obj.fixed_values, obj.free_mask)
    if n == 3:
        np.testing.assert_allclose(u, former, rtol=0.0, atol=1.2e-16)
    else:
        np.testing.assert_array_equal(u, former)
    x0 = level.coordinates[:, 0]
    sign = np.where(former > 0, 1.0,
                    np.where(former < 0, -1.0, np.where(x0 <= 0.5, 1.0, -1.0)))
    start = spec.initial_guesses(level, None, None)[0]
    np.testing.assert_array_equal(np.sign(start), sign)
    np.testing.assert_allclose(start, sign * np.maximum(np.abs(former), 0.1), rtol=0.0,
                               atol=1.2e-16)


def test_minimize_quadratic_skips_a_block_with_zero_data(monkeypatch):
    # the odd-odd block of the singular study never touches the boundary:
    # its data is zero, so it gets 0 without a solve; the other three blocks
    # of a 2D level each take one solve
    spec = singular_spec()
    level = build_level(spec.domain, 4)
    obj = spec.build(level)
    calls = []
    real = optimize.spla

    class Spy:
        def spsolve(self, A, b):
            calls.append(A.shape[0])
            return real.spsolve(A, b)

    monkeypatch.setattr(optimize, "spla", Spy())
    u = obj.harmonic_extension()
    odd = np.all(np.array(np.unravel_index(np.arange(level.node_count), level.shape)) % 2 == 1,
                 axis=0)
    assert sorted(calls) == [49, 56, 56]
    assert np.all(u[odd] == 0.0) and not np.any(np.signbit(u[odd]))
    y = minimize_quadratic(obj._K, obj.fixed_values, np.flatnonzero(odd))
    np.testing.assert_array_equal(y, obj.fixed_values)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_singular_solves_in_1d(n):
    # the whole-matrix SuperLU start met the exactly singular odd block of a
    # 1D level and returned NaN, so no 1D level past the first started
    spec = singular_spec(domain=DOM1)
    res = minimize_level(spec, build_level(DOM1, n))
    assert res.converged and res.iterations == 11
    assert np.all(np.isfinite(res.u.values)) and np.min(np.abs(res.u.values)) > 0.0


@pytest.mark.parametrize("n,value", [(2, 4.649142912812672), (3, 6.45447261813992),
                                     (4, 8.266020177426904)])
def test_singular_solves_in_3d(n, value):
    # the values of the former whole-matrix start and Newton steps
    spec = singular_spec(domain=DOM3)
    res = minimize_level(spec, build_level(DOM3, n))
    assert res.converged and res.iterations == 11
    assert res.value == pytest.approx(value, rel=1e-12)


def test_sawtooth_builds_one_objective_per_level(monkeypatch):
    # the feasibility probe of solve_net and minimize_level share the build
    count = []
    init = problems._SawtoothObjective.__init__

    def counting(self, level):
        count.append(level.n)
        init(self, level)

    monkeypatch.setattr(problems._SawtoothObjective, "__init__", counting)
    solve_net(sawtooth_spec(), [3, 4, 5, 6], seed=1)
    assert count == [3, 4, 5, 6]


def test_quotient_single_bubble_scale_warm_starts_with_it():
    # one scale serves every start; none left is an error of the parameters
    spec = sign_perturbed_spec(bubble_scales=[2.0])
    level = build_level(spec.domain, 4)
    warm = np.zeros(level.node_count)
    (cold,) = spec.initial_guesses(level, None, None)
    (guess,) = spec.initial_guesses(level, None, warm)
    np.testing.assert_array_equal(guess, cold)
    with pytest.raises(ValueError, match="at least one scale"):
        sign_perturbed_spec(bubble_scales=[])
