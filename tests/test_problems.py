"""The three packaged studies: objectives, initializers, diagnostics."""

import functools

import csr_oracles as oracles
import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import ultragrid.problems as problems
from ultragrid import (
    BubbleInitializer,
    Domain,
    GridFunction,
    bubble,
    build_level,
    check_gradient,
    concentration_metric,
    extract_interface,
    minimize_level,
    monad_neighbors,
    solve_net,
    quadratic_well,
    restrict,
    sawtooth_pattern,
    sawtooth_spec,
    sign_perturbed_spec,
    singular_spec,
    sobolev_constant,
)
from ultragrid.elements import gauss_interp
from ultragrid.optimize import minimize_quadratic

DOM3 = Domain(((0.0, 1.0), (0.0, 1.0), (0.0, 1.0)))


# --- sawtooth --------------------------------------------------------------


def test_sawtooth_objective_values():
    spec = sawtooth_spec()
    level = build_level(spec.domain, 4)
    obj = spec.build(level)
    # J(0) = volume (the (0 - 1)^2 term), J(pattern) small
    assert obj.value(np.zeros(level.node_count)) == pytest.approx(1.0)
    pattern = sawtooth_pattern(level)
    assert obj.value(pattern) < 0.05


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
        assert value == obj.value(u)
        # the former separate gradient
        du = obj._op.apply(u, 0)
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
              obj.gradient(rng.standard_normal(level.node_count) * level.h)):
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
    a = quadratic_well((0.5,) * dim) if well else None
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
    q = obj.value(u)
    for alpha in (0.5, -3.0, 17.0):
        assert abs(obj.value(alpha * u) - q) <= 1e-12 * abs(q)


def test_quotient_gradient_consistency():
    spec = sign_perturbed_spec()
    level = build_level(spec.domain, 3)
    assert check_gradient(spec, level) < 1e-5


def _old_quotient(obj, u):
    """The former quotient evaluation, kept as the oracle of the streamed pass.

    Sparse per-axis Gauss matrices applied along each axis over the full
    Gauss-point grid, ``|u|^p`` by float power, and the weighted transposes
    ``G^T diag(w)`` for the adjoint.
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
    a = obj._a_gauss
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
    a = quadratic_well((0.4,) * dimension) if well else None
    spec = sign_perturbed_spec(a=a, dimension=dimension)
    level = build_level(spec.domain, n)
    obj = spec.build(level)
    u = obj.pin(np.random.default_rng(n + dimension).standard_normal(level.node_count))
    value, grad = obj.value_and_grad(u)
    ref_value, ref_grad = _old_quotient(obj, u)
    assert value == pytest.approx(ref_value, rel=1e-12)
    np.testing.assert_allclose(grad, ref_grad, rtol=1e-12, atol=1e-12 * np.abs(ref_grad).max())
    assert obj.value(u) == value
    np.testing.assert_array_equal(obj.gradient(u), grad)


def test_quotient_well_gradient_consistency():
    spec = sign_perturbed_spec(a=quadratic_well((0.5, 0.5, 0.5)))
    level = build_level(spec.domain, 3)
    assert check_gradient(spec, level) < 1e-5


@pytest.mark.parametrize("well", [False, True])
def test_quotient_slab_size_does_not_change_result(monkeypatch, well):
    a = quadratic_well((0.5, 0.5, 0.5)) if well else None
    spec = sign_perturbed_spec(a=a)
    level = build_level(spec.domain, 4)
    u = np.random.default_rng(8).standard_normal(level.node_count)
    results = []
    # one axis-0 cell per slab, then the whole axis in one slab
    for cells in (1, level.shape[0] - 1):
        monkeypatch.setattr(problems, "_SLAB_CELLS", cells)
        obj = problems._QuotientObjective(level, a)
        u = obj.pin(u)
        results.append((obj.value_and_grad(u), obj.normalize(u)))
    (v1, g1), n1 = results[0]
    (v2, g2), n2 = results[1]
    assert v1 == pytest.approx(v2, rel=1e-13)
    np.testing.assert_allclose(g1, g2, rtol=1e-13, atol=1e-13 * np.abs(g2).max())
    np.testing.assert_allclose(n1, n2, rtol=1e-13)


def test_quotient_above_sobolev_constant():
    spec = sign_perturbed_spec()
    level = build_level(spec.domain, 3)
    res = minimize_level(spec, level, seed=0, multistart=3)
    assert res.value > sobolev_constant(3)
    assert res.converged


def test_quadratic_well_and_concentration_metric():
    a = quadratic_well((0.5, 0.5, 0.5), strength=10.0)
    assert a(0.5, 0.5, 0.5) == 0.0
    assert a(1.0, 0.5, 0.5) == pytest.approx(2.5)

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
    assert obj.value(u) == pytest.approx(1.0, abs=1e-12)


def test_singular_gradient_and_hessian():
    spec = singular_spec()
    level = build_level(spec.domain, 3)
    assert check_gradient(spec, level) < 1e-5
    obj = spec.build(level)
    rng = np.random.default_rng(4)
    u = obj.pin(np.where(level.coordinates[:, 0] <= 0.5, 1.0, -1.0) + 0.0)
    K, c = obj.hessian(u)
    # Hessian-vector product matches finite differences of the gradient
    v = rng.standard_normal(level.node_count)
    v[obj.fixed_mask] = 0.0
    eps = 1e-6
    fd = (obj.gradient(u + eps * v) - obj.gradient(u - eps * v)) / (2 * eps)
    hv = K @ v + c * v
    free = obj.free_mask
    assert np.max(np.abs(fd[free] - hv[free])) < 1e-4 * max(np.max(np.abs(hv)), 1.0)


def test_singular_fused_value_and_grad_is_bit_identical():
    spec = singular_spec()
    level = build_level(spec.domain, 4)
    obj = spec.build(level)
    rng = np.random.default_rng(6)
    for _ in range(3):
        # boundary-pinned points, away from the singularity at zero
        u = obj.pin(np.sign(rng.standard_normal(level.node_count)) + 0.5 * rng.random(level.node_count))
        value, grad = obj.value_and_grad(u)
        assert value == obj.value(u)
        # the former separate gradient
        ref = obj._d * obj._Wp(u)
        for axis, mask in enumerate(obj._row_masks):
            du = obj._op.apply(u, axis)
            ref = ref + obj._op.apply_transpose(du * mask * obj._d, axis)
        np.testing.assert_array_equal(grad, ref)


@pytest.mark.parametrize("n", [4, 5])
def test_singular_harmonic_start_is_zero_on_the_odd_odd_block(n):
    # the masked stiffness couples nodes two apart, so the nodes with both
    # indices odd form a block that never touches the boundary: K_ff is only
    # semidefinite there and the harmonic extension must be exactly 0
    spec = singular_spec()
    level = build_level(spec.domain, n)
    obj = spec.build(level)
    u = minimize_quadratic(obj._K, obj.fixed_values, obj.free_mask)
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
