"""The three packaged studies: objectives, initializers, diagnostics."""

import dataclasses
import functools
import threading
import tracemalloc

import csr_oracles as oracles
import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from grid_oracles import coordinate_table, interface, monad
from hypothesis import given, settings
from hypothesis import strategies as st
from solver_oracles import check_gradient, mirror_counts, node_gradient, node_value_and_grad

import ultragrid.optimize as optimize
import ultragrid.problems as problems
from ultragrid import (
    Domain,
    GridFunction,
    QuadraticWell,
    bubble,
    build_level,
    concentration_metric,
    minimize_level,
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
from ultragrid.problems import _default_W, _default_Wp
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
    du = derivative(u, 0).values
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


#: The iterations and the values per level of ``solve_net(sawtooth, 3..12)``
#: as the metric's former banded Cholesky (LAPACK ``pbtrf``/``pbtrs``)
#: produced them, less the iterations of the warm starts that the study ran
#: then and that never won.  They were recorded with the global random state
#: seeded at each of ``_SAWTOOTH_SEEDS``, which no start reads
_SAWTOOTH_SEEDS = (1, 7919)
_SAWTOOTH_CHOLESKY_ITERATIONS = (5, 5, 5, 4, 4, 4, 4, 3, 3, 2)
_SAWTOOTH_CHOLESKY_VALUES = (
    0.015563964843750007, 0.0039024353027343746, 0.0009763240814208984,
    0.00024412572383880615, 6.1034224927425385e-05, 1.5258730854839087e-05,
    3.814693627646193e-06, 9.536740890325746e-07, 2.3841856489070778e-07,
    5.960464388721445e-08,
)


@pytest.mark.parametrize("seed", _SAWTOOTH_SEEDS)
def test_sawtooth_metric_runs_as_under_banded_cholesky(seed):
    # the recurrence solve rounds differently from LAPACK, but every level
    # takes the same iterations, converges alike and ends within 1e-12, under
    # either seed of the global random state.  The levels do not nest, so no
    # verdict of the study checks that the values fall: this test does
    state = np.random.get_state()
    np.random.seed(seed)
    try:
        net = solve_net(sawtooth_spec(), range(3, 13))
    finally:
        np.random.set_state(state)
    values = [r.value for r in net.results]
    assert tuple(r.iterations for r in net.results) == _SAWTOOTH_CHOLESKY_ITERATIONS
    assert all(r.converged for r in net.results)
    np.testing.assert_allclose(values, _SAWTOOTH_CHOLESKY_VALUES, rtol=1e-12, atol=0.0)
    assert all(fine < coarse for coarse, fine in zip(values, values[1:]))


# --- critical Sobolev quotient ----------------------------------------------


def test_sobolev_constant_fixture():
    s3 = sobolev_constant(3)
    # the fixture equals the closed-form radial value 3 * (pi/2)^(4/3)
    assert s3 == pytest.approx(3.0 * (np.pi / 2.0) ** (4.0 / 3.0), abs=1e-12)


#: a box that holds an off-centre bubble's support, of radius 0.5
BIG3 = Domain(((-0.5, 1.5),) * 3)


def test_bubble_support_and_continuity():
    level = build_level(BIG3, 5)
    center = (0.4, 0.5, 0.6)
    u = bubble(level, center, 0.1).values
    r = np.linalg.norm(coordinate_table(level) - np.asarray(center), axis=1)
    support = problems.BUBBLE_DELTA * problems.BUBBLE_THETA
    assert np.all(u[r > support + 1e-12] == 0.0)
    assert np.any(u[r <= support] > 0.0)
    assert np.all(u >= 0.0)
    assert u[r.argmin()] == u.max()


def test_bubble_support_must_fit_domain():
    level = build_level(DOM3, 4)
    bubble(level, (0.5,) * 3, 0.1)  # the support touches every face
    with pytest.raises(ValueError, match="support"):
        bubble(level, (0.4, 0.5, 0.5), 0.1)
    with pytest.raises(ValueError, match="epsilon"):
        bubble(level, (0.5,) * 3, 0.0)
    with pytest.raises(ValueError, match="one coordinate per axis"):
        bubble(level, (0.5,) * 2, 0.1)
    with pytest.raises(ValueError, match="dimension"):
        bubble(build_level(Domain(((0.0, 1.0),) * 2), 4), (0.5,) * 2, 0.1)


def _dense_well(m, h, lo, center, strength):
    """``int s (x - c)^2 phi_j phi_k`` over the ``m`` P1 hats of one axis, by
    an 8-point Gauss rule per cell (exact for the degree-4 integrand)."""
    t, w = np.polynomial.legendre.leggauss(8)
    s = (t + 1.0) / 2.0
    hats = np.stack([1.0 - s, s])  # a cell's two hat functions at its points
    A = np.zeros((m, m))
    for cell in range(m - 1):
        a = strength * (lo + (cell + s) * h - center) ** 2
        A[cell : cell + 2, cell : cell + 2] += (hats * (w * h / 2.0 * a)) @ hats.T
    return A


@pytest.mark.parametrize("m", [3, 4, 9, 17])
def test_dirichlet_eigenpairs_match_eigh(m):
    # the metric's per-axis eigenpairs, free and with a strength-500 well,
    # against the generalized eigensolver: on the interior nodes (both ends
    # Dirichlet), and on all but the first (the octant's half axis, whose
    # last node, the midplane, is natural)
    h = 1.0 / (m - 1)
    K, M = (A.toarray() for A in oracles.p1_matrices(m, h))
    for stiffness in (K, K + _dense_well(m, h, 0.0, 0.4, 500.0)):
        for free in (slice(1, -1), slice(1, None)):
            V, lam = problems._interior_eigenpairs(stiffness, M, free)
            Ki, Mi = stiffness[free, free], M[free, free]
            np.testing.assert_allclose(
                lam, scipy.linalg.eigh(Ki, Mi, eigvals_only=True), rtol=1e-12
            )
            np.testing.assert_allclose(V.T @ Mi @ V, np.eye(len(Mi)), atol=1e-12)
            np.testing.assert_allclose(Ki @ V, Mi @ V * lam, atol=1e-10 * lam.max())


@settings(max_examples=30, deadline=None)
@given(
    dim_n=st.sampled_from([(3, 1), (3, 2), (3, 3), (4, 1), (4, 2), (5, 2)]),
    lo=st.sampled_from([0.0, -0.75]),
    stretched=st.integers(-1, 4),
    strength=st.sampled_from([None, 500.0, -200.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_quotient_metric_solves_dense_stiffness(dim_n, lo, stretched, strength, seed):
    # P = sum_i M1 (x) .. (K1 + A_i) (at axis i) .. (x) M1, the numerator's
    # interior Dirichlet block with the well's A_i, assembled densely in 3D,
    # 4D and 5D on a cube or on a box twice as long along one axis; a well of
    # negative strength stays out of the metric
    dim, n = dim_n
    bounds = tuple((lo, lo + (2.0 if axis == stretched else 1.0)) for axis in range(dim))
    level = build_level(Domain(bounds), n)
    center = tuple(np.linspace(0.4, 0.6, dim))
    a = None if strength is None else QuadraticWell(center, strength)
    obj = problems._QuotientObjective(level, a, ())
    K, M = [], []
    for axis, m in enumerate(level.shape):
        Ka, Ma = (A.toarray() for A in oracles.p1_matrices(m, level.h))
        if strength is not None and strength >= 0.0:
            Ka = Ka + _dense_well(m, level.h, bounds[axis][0], center[axis], strength)
        K.append(Ka[1:-1, 1:-1])
        M.append(Ma[1:-1, 1:-1])
    P = sum(
        functools.reduce(np.kron, [K[axis] if axis == i else M[axis] for axis in range(dim)])
        for i in range(dim)
    )
    g = np.random.default_rng(seed).standard_normal(int(obj.free_mask.sum()))
    got = obj.precondition(g)
    expected = np.linalg.solve(P, g)
    assert np.linalg.norm(got - expected) <= 1e-10 * np.linalg.norm(expected)
    assert g @ got > 0.0


def test_negative_well_converges_in_the_well_free_metric():
    # strength -200 makes each A_i indefinite: the metric keeps the well-free
    # factors, stays positive definite, and every level meets its tolerance
    spec = sign_perturbed_spec(a=QuadraticWell((0.5, 0.5, 0.5), -200.0))
    net = solve_net(spec, range(2, 5))
    assert all(r.converged for r in net.results)
    rng = np.random.default_rng(0)
    for r in net.results:
        obj = spec.build(r.level)
        g = rng.standard_normal(obj.dof_weights.size)
        assert g @ obj.precondition(g) > 0.0


def test_quotient_scale_invariance():
    spec = sign_perturbed_spec()
    level = build_level(spec.domain, 3)
    obj = spec.build(level)
    rng = np.random.default_rng(2)
    x = obj.dofs(obj.pin(rng.standard_normal(level.node_count)))
    q = obj.value_and_grad(x)[0]
    for alpha in (0.5, -3.0, 17.0):
        assert abs(obj.value_and_grad(alpha * x)[0] - q) <= 1e-12 * abs(q)


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
    # p = 6, 4 and 10/3: the last needs a non-integer power.  The full-grid
    # objective: the folded objectives are checked against it, and against
    # this oracle at the mirror average, in the folding tests
    a = QuadraticWell((0.4,) * dimension) if well else None
    level = build_level(Domain(((0.0, 1.0),) * dimension), n)
    obj = problems._QuotientObjective(level, a, ())
    u = obj.pin(np.random.default_rng(n + dimension).standard_normal(level.node_count))
    value, grad = node_value_and_grad(obj, u)
    ref_value, ref_grad = _old_quotient(obj, u, a)
    assert value == pytest.approx(ref_value, rel=1e-12)
    # L-BFGS reads the gradient on the free nodes only
    free = obj.free_mask
    assert not grad[~free].any()
    np.testing.assert_allclose(grad[free], ref_grad[free], rtol=1e-12,
                               atol=1e-12 * np.abs(ref_grad).max())
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
    ku = problems._QuotientObjective(obj.level, None, ())._stiffness_apply(grid)
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
    # Gauss sum, to 1e-15 relative; the gradient on the free nodes, scaled
    # after the back-projection instead of before it, to rounding
    value, grad = node_value_and_grad(obj, u)
    ref_value, ref_grad = _whole_array_value_and_grad(obj, u, well)
    free = obj.free_mask
    assert value == pytest.approx(ref_value, rel=1e-15, abs=0.0)
    assert np.max(np.abs(grad - ref_grad)[free]) <= 1e-14 * np.max(np.abs(ref_grad))


_KERNEL_LEVELS = [(3, n) for n in (1, 2, 3, 4, 5)] + [(4, 2), (4, 3), (5, 2)]


def _row_kernel(dimension, n, seed):
    """A free quotient objective, a random node row and the kernel buffers:
    ``(obj, row, gauss_row, corners)``."""
    level = build_level(Domain(((0.0, 1.0),) * dimension), n)
    obj = problems._QuotientObjective(level, None, ())
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
    "n, well", [(n, well) for n in (1, 2, 3, 4, 5, 6) for well in (False, True)]
)
def test_streamed_pass_matches_whole_array_oracle(n, well):
    # u is a sign-changing random field; levels 1 and 2 have 2 and 4 cells
    # along axis 0, where the first and last node rows of the sweep meet
    level = build_level(DOM3, n)
    a = QuadraticWell((0.4, 0.5, 0.6)) if well else None
    obj = problems._QuotientObjective(level, a, ())
    u = obj.pin(np.random.default_rng(30 + n).standard_normal(level.node_count))
    _assert_matches_whole_array_oracle(obj, u, a)


@pytest.mark.parametrize(
    "dimension, n, well", [(4, 2, False), (4, 3, True), (5, 2, False), (5, 2, True)]
)
def test_streamed_pass_matches_whole_array_oracle_in_4d_and_5d(dimension, n, well):
    # p = 4 and 10/3: the sweep takes np.power
    level = build_level(Domain(((0.0, 1.0),) * dimension), n)
    a = QuadraticWell((0.4, 0.5, 0.6, 0.45, 0.55)[:dimension]) if well else None
    obj = problems._QuotientObjective(level, a, ())
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
        a = QuadraticWell((0.4, 0.5, 0.6)) if well else None
        obj = problems._QuotientObjective(level, a, ())
        x = obj.dofs(obj.pin(u))
        held, build_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        obj.value_and_grad(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert max(build_peak, peak) <= 6_000_000
    assert peak - held <= 4_000_000


def test_one_quotient_start_holds_the_history_and_a_few_vectors():
    # one 3D level-5 start, from the bubble at scale 4: the peak above what
    # the level and the objective hold is bounded by the L-BFGS history, 2 *
    # memory free-dof vectors, plus 16 node vectors: the start, x and the
    # trial point, four free-dof work vectors, the gradient and the Gauss
    # pass (about 6 at level 5, where its fixed-size chunk buffers are large
    # against a node vector).  The former list-based L-BFGS, with a fresh
    # array for every temporary and the start pinned twice, peaked at 37.6
    # node vectors, against 30.6 here and a bound of 32.6
    spec = sign_perturbed_spec()
    level = build_level(spec.domain, 5)
    node = 8 * level.node_count
    history = 2 * 10 * 8 * (level.shape[0] - 2) ** 3
    tracemalloc.start()
    try:
        spec.build(level)
        level.weights, level.boundary_mask
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        # passed, not held: the start is released once pinned
        res = minimize_level(
            spec, level, init=bubble(level, (0.5,) * 3, 4.0 * level.h)
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(res.starts) == 1 and res.converged
    assert peak - held <= history + 16 * node



def test_one_folded_quotient_start_holds_the_folded_history_and_a_few_vectors():
    # L-BFGS runs on the octant's dofs: one free 3D level-5 start holds a
    # history of 2 * memory vectors of 16^3 dofs (655 KB, 2.28 node
    # vectors), 8x fewer than the full grid's 31^3 free nodes.  Above what
    # the level and the objective hold, the peak is that history plus 4.0
    # node vectors (the start, the Gauss pass's chunk buffers, the unfolded
    # minimizer), against 24.2 when L-BFGS ran on the full grid; the bubble
    # built in the call peaks at 5.1 node vectors and the diagnostics at 5.5,
    # both without the history.  Bounded by the history plus 5 node vectors
    spec = sign_perturbed_spec()
    level = build_level(spec.domain, 5)
    node = 8 * level.node_count
    history = 2 * 10 * 8 * 16**3
    tracemalloc.start()
    try:
        spec.build(level)
        level.weights, level.boundary_mask
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        res = minimize_level(
            spec, level, init=bubble(level, (0.5,) * 3, 4.0 * level.h)
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(res.starts) == 1 and res.converged
    assert peak - held <= history + 5 * node


@pytest.mark.parametrize("well", [False, True])
def test_quotient_fixed_data_holds_no_node_vector(well):
    # the zero Dirichlet data is a read-only zero-stride view of one 0.0, not
    # a vector of zeros (287 KB at 3D level 5, 17 MB at level 7); pinning
    # still writes +0.0 on every boundary node
    level = build_level(DOM3, 5)
    a = QuadraticWell((0.4, 0.5, 0.6)) if well else None
    obj = problems._QuotientObjective(level, a, ())
    fixed = obj.fixed_values
    assert fixed.shape == (level.node_count,) and fixed.strides == (0,)
    while fixed.base is not None:
        fixed = fixed.base
    assert fixed.nbytes == 8
    u = obj.pin(np.full(level.node_count, -1.0))
    boundary = u[level.boundary_mask]
    assert np.all(boundary == 0.0) and not np.signbit(boundary).any()
    assert np.all(u[~level.boundary_mask] == -1.0)

def _former_bubble(level, center, epsilon):
    """``bubble`` on the radius from the ``(node_count, N)`` coordinate table."""
    dim = level.dimension
    delta = problems.BUBBLE_DELTA
    support = delta * problems.BUBBLE_THETA
    r = np.linalg.norm(coordinate_table(level) - np.asarray(center), axis=1)
    power = (dim - 2) / 2.0
    u_eps = epsilon**-power * (1.0 + (r / epsilon) ** 2) ** -power
    edge = epsilon**-power * (1.0 + (delta / epsilon) ** 2) ** -power
    ramp = edge * (support - r) / (support - delta)
    return np.where(r <= delta, u_eps, np.where(r <= support, ramp, 0.0))


@pytest.mark.parametrize("dim, n", [(3, 1), (3, 2), (3, 3), (3, 4), (3, 5), (3, 6), (4, 3)])
def test_radius_from_axes_bit_identical_to_coordinate_norm(dim, n):
    # the radius broadcast from level.axes sums the squares in axis order,
    # as np.linalg.norm(..., axis=1) does: the starts and the concentration
    # are bit-identical, and no coordinate table is built
    center = (0.4, 0.5, 0.6, 0.5)[:dim]
    level = build_level(Domain(((-0.5, 1.5),) * dim), n)  # holds the support
    epsilons = [scale * level.h for scale in (2.0, 4.0, 8.0)]
    starts = [bubble(level, center, epsilon).values for epsilon in epsilons]
    rng = np.random.default_rng(n)
    u = GridFunction(level, starts[-1] * rng.uniform(0.5, 1.5, level.node_count))
    measured = concentration_metric(u, center, 0.2)
    assert not hasattr(level, "coordinates")

    for start, epsilon in zip(starts, epsilons):
        np.testing.assert_array_equal(start, _former_bubble(level, center, epsilon))
    dist = np.linalg.norm(coordinate_table(level) - np.asarray(center), axis=1)
    np.testing.assert_array_equal(level.distance(center), dist)
    mass = np.abs(u.values) ** (2.0 * dim / (dim - 2)) * level.weights
    assert measured == float(mass[dist <= 0.2].sum() / float(mass.sum()))


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
    free = problems._QuotientObjective(level, None, ())
    zero = problems._QuotientObjective(level, QuadraticWell((0.4, 0.5, 0.6), strength=0.0), ())
    u = free.pin(np.random.default_rng(n).standard_normal(level.node_count))
    x = free.dofs(u)
    _assert_bit_identical(
        (*free.value_and_grad(x), free.precondition(x), free.normalize(u)),
        (*zero.value_and_grad(x), zero.precondition(x), zero.normalize(u)),
    )


def test_quotient_lower_bound_needs_a_non_negative_well():
    assert sign_perturbed_spec().lower_bound == sobolev_constant(3)
    assert sign_perturbed_spec(a=QuadraticWell((0.5,) * 3, 0.0)).lower_bound == sobolev_constant(3)
    assert sign_perturbed_spec(a=QuadraticWell((0.5,) * 3, -1.0)).lower_bound is None
    # no bound is certified outside 3D
    assert sign_perturbed_spec(a=QuadraticWell((0.5,) * 4), dimension=4).lower_bound is None
    with pytest.raises(ValueError, match="the well center needs 3 coordinates"):
        sign_perturbed_spec(a=QuadraticWell((0.5, 0.5)))


@pytest.mark.parametrize("dimension, n, well", [(3, 3, False), (3, 5, True), (4, 3, False)])
def test_quotient_chunked_sweep_is_bit_identical(monkeypatch, dimension, n, well):
    # the pointwise steps of a cell act column by column, so cutting them
    # into chunks of 64 columns changes no bit
    a = QuadraticWell((0.4,) * dimension) if well else None
    level = build_level(Domain(((0.0, 1.0),) * dimension), n)
    obj = problems._QuotientObjective(level, a, ())
    u = obj.pin(np.random.default_rng(70 + n).standard_normal(level.node_count))
    x = obj.dofs(u)
    expected = (*obj.value_and_grad(x), obj.normalize(u))
    monkeypatch.setattr(problems, "_CHUNK", 64)
    _assert_bit_identical(expected, (*obj.value_and_grad(x), obj.normalize(u)))


def test_quotient_square_rounds_as_numpy_power():
    # p = 6 squares u^2 with np.square where the sweep used np.power(y, 2.0),
    # and then np.multiply(y, y)
    rng = np.random.default_rng(6)
    y = rng.standard_normal(200_000) * 10.0 ** rng.integers(-170, 170, 200_000)
    y = np.concatenate((y, [0.0, -0.0, 5e-324, 1e154, 1e155, np.inf, -np.inf, np.nan]))
    with np.errstate(over="ignore", under="ignore"):
        _assert_bit_identical([np.power(y, 2.0)] * 2, [np.multiply(y, y), np.square(y)])


def test_quotient_solve_starts_no_thread():
    # the Gauss pass sweeps every level, level 5 too, on the calling thread
    before = set(threading.enumerate())
    net = solve_net(sign_perturbed_spec(), [3, 4, 5])
    assert net.results[-1].level.n == 5
    assert set(threading.enumerate()) <= before


def test_quotient_above_sobolev_constant():
    spec = sign_perturbed_spec()
    level = build_level(spec.domain, 3)
    res = minimize_level(spec, level)
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


# --- the quotient folded about the axes its data are symmetric about --------


def _fold_well(dimension, well):
    """The strength-500 well a folding test names: none for ``False``, at
    the box centre for ``True``, else at the center ``well``."""
    if isinstance(well, bool):
        return QuadraticWell((0.5,) * dimension, 500.0) if well else None
    return QuadraticWell(well, 500.0)


def _well_id(well):
    return str(well).replace(" ", "") if isinstance(well, tuple) else None


#: wells centred in some axes but not all: each folds the axes it is
#: centred in
_PARTLY_CENTRED = {3: [(0.4, 0.5, 0.6), (0.5, 0.5, 0.4)], 4: [(0.5, 0.5, 0.5, 0.6)]}


def _mirror_mean(u, shape, folds):
    """The mean of ``u`` over the ``2^F`` reflections of the box about the
    midplanes of the axes ``folds``: every subset of them flipped."""
    grid = u.reshape(shape)
    images = [np.flip(grid, [axis for axis, hi in zip(folds, corner) if hi])
              for corner in np.ndindex((2,) * len(folds))]
    return (sum(images) / len(images)).ravel()


def _assert_close(got, expected, rtol=1e-12):
    got, expected = np.asarray(got), np.asarray(expected)
    assert np.max(np.abs(got - expected)) <= rtol * np.max(np.abs(expected))


@pytest.mark.parametrize(
    "dimension, n, well",
    [(3, n, well) for n in (3, 4, 5) for well in [False, True] + _PARTLY_CENTRED[3]]
    + [(4, n, well) for n in (2, 3) for well in [False, True] + _PARTLY_CENTRED[4]],
    ids=_well_id,
)
def test_octant_matches_the_full_grid_at_the_bubble_starts(dimension, n, well):
    # the starts are cube-symmetric: the folded objective's value, gradient,
    # metric solve and normalization are the full grid's, summed in another
    # order, whichever axes it folds
    a = _fold_well(dimension, well)
    spec = sign_perturbed_spec(a=a, dimension=dimension)
    level = build_level(spec.domain, n)
    folded, full = spec.build(level), problems._QuotientObjective(level, a, ())
    assert folded.folds
    for start in spec.initial_guesses(level):
        u = folded.pin(start)
        value, g = folded.value_and_grad(folded.dofs(u))
        ref_value, ref_g = full.value_and_grad(full.dofs(u))
        assert value == pytest.approx(ref_value, rel=1e-12, abs=0.0)
        _assert_close(node_gradient(folded, g), node_gradient(full, ref_g))
        _assert_close(folded.nodes(folded.precondition(g)), full.nodes(full.precondition(ref_g)))
        _assert_close(folded.normalize(u), full.normalize(u))


@pytest.mark.parametrize(
    "dimension, n, well",
    [(3, 3, False), (3, 4, True), (4, 2, True),
     (3, 3, (0.4, 0.5, 0.6)), (3, 4, (0.5, 0.5, 0.4)), (4, 2, (0.5, 0.5, 0.5, 0.6))],
    ids=_well_id,
)
def test_octant_evaluates_the_mirror_average(dimension, n, well):
    # at a field that is not symmetric, the folded objective is the quotient
    # of its mean over the reflections of the box about the folded axes, and
    # its gradient that quotient's full-grid gradient there (the gradient of
    # a symmetric field is symmetric); on a symmetric vector its metric solve
    # is the full one's
    a = _fold_well(dimension, well)
    spec = sign_perturbed_spec(a=a, dimension=dimension)
    level = build_level(spec.domain, n)
    folded, full = spec.build(level), problems._QuotientObjective(level, a, ())
    rng = np.random.default_rng(90 + n)
    u = folded.pin(rng.standard_normal(level.node_count))
    mean = _mirror_mean(u, level.shape, folded.folds)
    value, grad = node_value_and_grad(folded, u)
    ref_value, ref_grad = node_value_and_grad(full, mean)
    assert value == pytest.approx(ref_value, rel=1e-12, abs=0.0)
    assert value != pytest.approx(full.value_and_grad(full.dofs(u))[0], rel=1e-3)
    _assert_close(grad, ref_grad)
    # and the former formula, evaluated at the mean, on the free nodes
    free = folded.free_mask
    _assert_close(grad[free], _old_quotient(full, mean, a)[1][free])
    # a symmetric full-grid gradient g, whose dof gradient sums each dof's
    # mirror images
    interior = tuple(m - 2 for m in level.shape)
    g = _mirror_mean(rng.standard_normal(int(free.sum())), interior, folded.folds)
    folded_g = folded.dofs(full.nodes(g)) * mirror_counts(folded)
    _assert_close(folded.nodes(folded.precondition(folded_g)), full.nodes(full.precondition(g)))


@pytest.mark.parametrize(
    "well", [False, True] + _PARTLY_CENTRED[3] + _PARTLY_CENTRED[4], ids=_well_id
)
def test_octant_solves_as_the_full_grid(well):
    dimension = 3 if isinstance(well, bool) else len(well)
    _assert_solves_as_the_full_grid(dimension, _fold_well(dimension, well))


def test_octant_solves_as_the_full_grid_in_4d():
    _assert_solves_as_the_full_grid(4, None)


def _assert_solves_as_the_full_grid(dimension, a):
    # L-BFGS on the folded dofs against L-BFGS on the full grid's interior
    # nodes: the same iterations of every start and the same verdicts on
    # every level, the values to rounding
    spec = sign_perturbed_spec(a=a, dimension=dimension)
    full_spec = dataclasses.replace(spec, build=functools.lru_cache(maxsize=1)(
        lambda level: problems._QuotientObjective(level, a, ())))
    levels = range(3, 6) if dimension == 3 else range(2, 5)
    nets = [solve_net(s, levels) for s in (spec, full_spec)]
    assert spec.build(nets[0].results[-1].level).folds
    for got, expected in zip(*(net.results for net in nets), strict=True):
        assert [s.iterations for s in got.starts] == [s.iterations for s in expected.starts]
        assert got.converged == expected.converged
        assert got.value == pytest.approx(expected.value, rel=1e-12, abs=0.0)


_MAP_CASES = [(3, 3, False), (3, 4, True), (4, 2, False), (3, 3, (0.4, 0.5, 0.6)),
              (3, 4, (0.5, 0.5, 0.4)), (4, 2, (0.5, 0.5, 0.5, 0.6)), (3, 3, (0.4, 0.45, 0.6))]


@pytest.mark.parametrize("dimension, n, well", _MAP_CASES, ids=_well_id)
def test_dofs_and_nodes_fold_and_unfold(dimension, n, well):
    # nodes(dofs(u)) is the mirror average of u, zero on the boundary, and
    # bit for bit u itself at the (symmetric) bubble starts; dofs(nodes(x))
    # is x, whatever the folds (none for the well at (0.4, 0.45, 0.6))
    a = _fold_well(dimension, well)
    spec = sign_perturbed_spec(a=a, dimension=dimension)
    level = build_level(spec.domain, n)
    obj = spec.build(level)
    rng = np.random.default_rng(20 + n)
    u = obj.pin(rng.standard_normal(level.node_count))
    _assert_close(obj.nodes(obj.dofs(u)), _mirror_mean(u, level.shape, obj.folds), rtol=1e-15)
    for start in spec.initial_guesses(level):
        u = obj.pin(start)
        _assert_bit_identical([u], [obj.nodes(obj.dofs(u))])
    x = rng.standard_normal(obj.dof_weights.size)
    _assert_bit_identical([x], [obj.dofs(obj.nodes(x))])
    assert obj.dof_free.all() and obj.dof_free.shape == x.shape


@pytest.mark.parametrize("dimension, n, well", _MAP_CASES[:-1], ids=_well_id)
def test_dual_norm_and_pairings_on_dofs_are_the_full_grids(dimension, n, well):
    # at the bubble starts and at a random symmetric field, the dual norm of
    # the folded gradient in the weights m_k d_k, and its pairing with a
    # random symmetric step, are the full grid's on its interior nodes
    a = _fold_well(dimension, well)
    spec = sign_perturbed_spec(a=a, dimension=dimension)
    level = build_level(spec.domain, n)
    folded, full = spec.build(level), problems._QuotientObjective(level, a, ())
    rng = np.random.default_rng(30 + n)
    fields = [folded.pin(start) for start in spec.initial_guesses(level)]
    fields.append(folded.nodes(rng.standard_normal(folded.dof_weights.size)))
    step = folded.nodes(rng.standard_normal(folded.dof_weights.size))
    for u in fields:
        g = folded.value_and_grad(folded.dofs(u))[1]
        ref = full.value_and_grad(full.dofs(u))[1]
        assert optimize._dual_norm(g, folded.dof_weights) == pytest.approx(
            optimize._dual_norm(ref, full.dof_weights), rel=1e-13, abs=0.0)
        pairing = full.dofs(step) @ ref
        assert abs(folded.dofs(step) @ g - pairing) <= 1e-13 * (np.abs(full.dofs(step)) @ np.abs(ref))


def test_each_axis_the_data_are_symmetric_about_is_folded():
    # an axis folds when there is no well or the well is centred in it
    level3, level4 = build_level(DOM3, 3), build_level(Domain(((0.0, 1.0),) * 4), 2)
    cases = [
        (sign_perturbed_spec(), level3, (0, 1, 2)),
        (sign_perturbed_spec(a=QuadraticWell((0.5,) * 3, -200.0)), level3, (0, 1, 2)),
        (sign_perturbed_spec(a=QuadraticWell((0.5, 0.5, 0.4), 500.0)), level3, (0, 1)),
        (sign_perturbed_spec(a=QuadraticWell((0.4, 0.5, 0.6), 500.0)), level3, (1,)),
        (sign_perturbed_spec(a=QuadraticWell((0.4, 0.45, 0.6), 500.0)), level3, ()),
        (sign_perturbed_spec(dimension=4), level4, (0, 1, 2, 3)),
        (sign_perturbed_spec(a=QuadraticWell((0.5, 0.5, 0.5, 0.6)), dimension=4), level4,
         (0, 1, 2)),
    ]
    for spec, level, folds in cases:
        obj = spec.build(level)
        assert obj.folds == folds
        assert obj._copies == 2.0 ** len(folds)


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


@pytest.mark.parametrize("factory", [sign_perturbed_spec, singular_spec])
def test_pinned_objective_holds_the_level_mask(factory):
    # the objective pins the level's own boundary mask, not a copy, and
    # takes its complement once
    spec = factory()
    level = build_level(spec.domain, 3)
    obj = spec.build(level)
    assert np.shares_memory(obj.fixed_mask, level.boundary_mask)
    assert obj.free_mask is obj.free_mask
    np.testing.assert_array_equal(obj.free_mask, ~level.boundary_mask)


def test_singular_rejects_zero_boundary_data():
    spec = singular_spec(g_affine=(1.0, 0.0, -0.25))  # vanishes on the boundary
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
    spec = singular_spec(g_affine=(0.0, 0.0, 1.0))
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
    u = obj.pin(np.where(coordinate_table(level)[:, 0] <= 0.5, 1.0, -1.0) + 0.0)
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


def _interior_row_masks(level):
    """Per axis, the flat mask of nodes whose axis stencil row is a central
    difference (the energy leaves out the closure rows)."""
    idx = np.unravel_index(np.arange(level.node_count), level.shape)
    return [(i > 0) & (i < m - 1) for i, m in zip(idx, level.shape)]


def test_singular_fused_value_and_grad_is_bit_identical():
    spec = singular_spec()
    level = build_level(spec.domain, 4)
    obj = spec.build(level)
    rng = np.random.default_rng(6)
    for _ in range(3):
        # boundary-pinned points, away from the singularity at zero
        u = obj.pin(np.sign(rng.standard_normal(level.node_count)) + 0.5 * rng.random(level.node_count))
        value, grad = obj.value_and_grad(u)
        # the former separate value and gradient, with the closure rows
        # masked out
        ref_value = 0.0
        for axis, mask in enumerate(_interior_row_masks(level)):
            du = obj._op.apply(u, axis)
            ref_value += 0.5 * float((du * du * mask) @ obj._d)
        assert value == ref_value + float(_default_W(u) @ obj._d)
        ref = obj._d * _default_Wp(u)
        for axis, mask in enumerate(_interior_row_masks(level)):
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
    u = spec.initial_guesses(level)[0]
    lap = np.zeros_like(u)
    for axis, mask in enumerate(_interior_row_masks(level)):
        du = obj._op.apply(u, axis)
        lap -= obj._op.apply_transpose(du * mask * obj._d, axis) / obj._d
    former = (-lap + _default_Wp(u))[obj.free_mask]
    value, grad = obj.value_and_grad(u)
    riesz = (grad / level.weights)[obj.free_mask]
    scale = np.max(np.abs(former))
    assert np.max(np.abs(riesz - former)) <= 1e-13 * scale
    result = MinResult(GridFunction(level, u), value, 0.0, False)
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
    start = spec.initial_guesses(level)[0]
    left = coordinate_table(level)[:, 0] <= 0.5
    np.testing.assert_array_equal(start[odd], np.where(left[odd], 0.1, -0.1))
    assert np.all(np.abs(start[free]) >= 0.1)


def _affine(*coeffs):
    """The boundary data ``g_affine`` sets, as ``singular_spec`` builds it."""
    def g(*coords):
        return sum(c * np.asarray(x) for c, x in zip(coeffs[:-1], coords)) + coeffs[-1]
    return g


# the ids are those of the callables these data were once given as
@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
@pytest.mark.parametrize("g_affine", [None, pytest.param((-2.5, 0.5, 1.0), id="<lambda>"),
                                      pytest.param((1.0, -2.5, 0.5), id="g")])
def test_singular_harmonic_start_is_the_former_clip(n, g_affine):
    # the shared floor leaves the harmonic start as it was, bit for bit,
    # except for its sign rule: a value within 1e-12 max |g| of zero, and
    # not only an exact zero, takes the midline sign; g and the rule read
    # the open mesh of the axes, and the boundary values and the start are
    # those taken on the columns of the former coordinate table
    spec = singular_spec(g_affine=g_affine)
    level = build_level(spec.domain, n)
    obj = spec.build(level)
    x0, x1 = coordinate_table(level).T
    data = np.where(x0 <= 0.5, 1.0, -1.0) if g_affine is None else _affine(*g_affine)(x0, x1)
    np.testing.assert_array_equal(obj.fixed_values, np.where(level.boundary_mask, data, 0.0))
    u = obj.harmonic_extension()
    assert np.any(u == 0.0)
    zero = np.abs(u) <= 1e-12 * np.max(np.abs(data[level.boundary_mask]))
    sign = np.where(zero, np.where(x0 <= 0.5, 1.0, -1.0), np.sign(u))
    np.testing.assert_array_equal(spec.initial_guesses(level)[0],
                                  sign * np.maximum(np.abs(u), 0.1))


def test_singular_minimizer_and_interface():
    spec = singular_spec()
    level = build_level(spec.domain, 5)
    res = minimize_level(spec, level)
    assert res.converged
    u = res.u.values
    assert np.min(np.abs(u)) > 0.0

    def distance(points):
        return np.abs(points[:, 0] - 0.5)

    dec = interface(res.u, distance)
    m1, m2, mi = dec.omega1, dec.omega2, dec.xi
    assert not np.any(m1 & m2) and not np.any(m1 & mi) and not np.any(m2 & mi)
    assert np.all(m1 | m2 | mi)
    # monad positivity: the whole stencil neighborhood keeps the sign
    rng = np.random.default_rng(0)
    for idx in rng.choice(np.flatnonzero(m1), size=5, replace=False):
        assert np.all(u[monad(level, int(idx))] > 0.0)
    for idx in rng.choice(np.flatnonzero(m2), size=5, replace=False):
        assert np.all(u[monad(level, int(idx))] < 0.0)
    assert dec.xi_max_distance <= 2 * level.h
    # read from the mixed nodes' rows of the former coordinate table
    xi_rows = coordinate_table(level)[mi]
    assert dec.xi_max_distance == float(np.max(distance(xi_rows)))
    assert abs(dec.measure - 1.0) <= 0.1
    # the diagnostics take the same perimeter
    assert res.diagnostics["interface_measure"] == dec.measure


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
    assert spec.initial_guesses(level)[0][obj.free_mask].tolist() == [0.1]


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
    # 1.1e-16; the start's signs, with values within 1e-12 max |g| = 1e-12
    # of zero on the midline rule, are the same at every level
    spec = singular_spec()
    level = build_level(spec.domain, n)
    obj = spec.build(level)
    u = obj.harmonic_extension()
    former = _former_harmonic_extension(obj._K, obj.fixed_values, obj.free_mask)
    if n == 3:
        np.testing.assert_allclose(u, former, rtol=0.0, atol=1.2e-16)
    else:
        np.testing.assert_array_equal(u, former)
    x0 = coordinate_table(level)[:, 0]
    sign = np.where(np.abs(former) <= 1e-12, np.where(x0 <= 0.5, 1.0, -1.0), np.sign(former))
    start = spec.initial_guesses(level)[0]
    np.testing.assert_array_equal(np.sign(start), sign)
    np.testing.assert_allclose(start, sign * np.maximum(np.abs(former), 0.1), rtol=0.0,
                               atol=1.2e-16)


@pytest.mark.parametrize("g_affine", [None, pytest.param((1.0, -2.5, 0.5), id="g")])
def test_singular_start_signs_do_not_depend_on_the_lu_ordering(monkeypatch, g_affine):
    # where the harmonic extension vanishes the LU leaves rounding noise, up
    # to 2.3e-15, whose signs follow its column ordering; the start counts
    # it as zero, so another ordering gives the same signs (the default
    # data's level-4 value moved from 7.5130851 to 7.3520083 under it)
    def starts():
        spec = singular_spec(g_affine=g_affine)
        return [spec.initial_guesses(build_level(spec.domain, n))[0] for n in range(4, 8)]

    default = starts()
    real = optimize.spla

    class Ordered:
        @staticmethod
        def spsolve(A, b):
            return real.spsolve(A, b, permc_spec="MMD_AT_PLUS_A")

    monkeypatch.setattr(optimize, "spla", Ordered)
    for a, b in zip(default, starts(), strict=True):
        np.testing.assert_array_equal(np.sign(a), np.sign(b))


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


@pytest.mark.parametrize("n,value", [(2, 4.649142912812672), (3, 6.41323479577167),
                                     (4, 8.239439773227023)])
def test_singular_solves_in_3d(n, value):
    # level 2 keeps the value of the former whole-matrix start; at levels 3
    # and 4 the start's zero tolerance moves it from 6.45447261813992 and
    # 8.266020177426904, where rounding noise fixed some signs
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
    solve_net(sawtooth_spec(), [3, 4, 5, 6])
    assert count == [3, 4, 5, 6]


def test_every_bubble_scale_can_end_lowest():
    # the first level's starts are load-bearing: on a strength-500 well at
    # (0.4, 0.5, 0.6), with level 4 as the first level, scales 2 and 4 end
    # on one minimum and scale 8 on a lower one, which the level takes
    spec = sign_perturbed_spec(a=QuadraticWell((0.4, 0.5, 0.6), 500.0))
    level = build_level(spec.domain, 4)
    ends = [minimize_level(spec, level, init=u).value for u in spec.initial_guesses(level)]
    assert ends == [pytest.approx(6.9661110142040, abs=1e-12)] * 2 + [
        pytest.approx(6.8009048399328, abs=1e-12)]
    assert minimize_level(spec, level).value == min(ends)
