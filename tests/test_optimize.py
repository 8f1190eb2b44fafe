"""L-BFGS default-metric parity and its line search below the rounding of f;
damped Newton: banded Cholesky steps block by block, the indefinite
fallback, SuperLU parity."""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import ultragrid.optimize as optimize
from ultragrid import build_level
from ultragrid.optimize import OptimizeResult, lbfgs, newton
from ultragrid.problems import (
    _masked_stiffness,
    _upper_band,
    sawtooth_spec,
    sign_perturbed_spec,
    singular_spec,
)
from ultragrid.solver import GTOL_FACTOR, LevelObjective


@pytest.fixture
def rng():
    return np.random.default_rng(20)


def _diag_metric_lbfgs(
    value_and_grad, x0, weights, free, gtol, max_iter=10_000, memory=10,
    accept=None, ftol=1e-12, patience=10, wolfe=False,
):
    """The former L-BFGS, with ``H0 = gamma * diag(1/d)`` written out.

    Armijo-only line search and a fixed ``gtol``; a stall reports
    ``converged`` only if the gradient test passes, and an iteration counts
    as stalled only if ``||g||_*`` also made no new low, as in ``lbfgs``.
    ``wolfe=True`` also takes a trial point that fails Armijo but meets
    ``lbfgs``'s approximate Wolfe conditions, with the same value slack
    ``ftol max(|f|, 1)``.
    """
    x = x0.copy()
    d = weights[free]
    f, g_full = value_and_grad(x)
    g = g_full[free]
    s_list, y_list = [], []
    gamma = 1.0
    gnorm = best = float(np.sqrt(np.sum(g * g / d)))
    it = 0
    stalled = 0
    while it < max_iter:
        if gnorm <= gtol:
            return OptimizeResult(x, f, gnorm, it, True)
        if stalled >= patience:
            return OptimizeResult(x, f, gnorm, it, gnorm <= gtol)
        q = g.copy()
        alphas = []
        for s, y in zip(reversed(s_list), reversed(y_list)):
            rho = 1.0 / (y @ s)
            a = rho * (s @ q)
            q -= a * y
            alphas.append((a, rho))
        r = gamma * (q / d)
        for (a, rho), (s, y) in zip(reversed(alphas), zip(s_list, y_list)):
            b = rho * (y @ r)
            r += (a - b) * s
        p = -r
        if p @ g >= 0.0:
            s_list.clear()
            y_list.clear()
            p = -g / d
        slope = p @ g
        slack = ftol * max(abs(f), 1.0)
        step = 1.0
        accepted = False
        for _bt in range(60):
            x_new = x.copy()
            x_new[free] = x[free] + step * p
            if accept is not None and not accept(x, x_new):
                step *= 0.5
                continue
            f_new, g_new_full = value_and_grad(x_new)
            wolfe_ok = wolfe and (
                f_new <= f + slack and 0.9 * slope <= g_new_full[free] @ p <= -0.8 * slope
            )
            if np.isfinite(f_new) and (f_new <= f + 1e-4 * step * slope or wolfe_ok):
                accepted = True
                break
            step *= 0.5
        if not accepted:
            return OptimizeResult(x, f, gnorm, it, gnorm <= gtol)
        g_new = g_new_full[free]
        s = step * p
        y = g_new - g
        sy = s @ y
        if sy > 1e-14 * float(np.linalg.norm(s) * np.linalg.norm(y) + 1e-300):
            s_list.append(s)
            y_list.append(y)
            if len(s_list) > memory:
                s_list.pop(0)
                y_list.pop(0)
            gamma = sy / (y @ (y / d))
        flat = f - f_new <= ftol * max(abs(f), abs(f_new), 1.0)
        x, f, g = x_new, f_new, g_new
        gnorm = float(np.sqrt(np.sum(g * g / d)))
        stalled = stalled + 1 if flat and gnorm >= best else 0
        best = min(best, gnorm)
        it += 1
    return OptimizeResult(x, f, gnorm, it, gnorm <= gtol)


def _assert_same_run(got, expected):
    assert expected.iterations > 0
    np.testing.assert_array_equal(got.x, expected.x)
    assert got.value == expected.value
    assert got.grad_norm == expected.grad_norm
    assert got.iterations == expected.iterations
    assert got.converged == expected.converged


def test_lbfgs_default_metric_bit_identical_on_quotient():
    # 3D level 3 from the middle bubble start, boundary pinned: the
    # optimizer's own default metric and the default hook of LevelObjective
    # (the quotient overrides it with its H1 metric) both reproduce the
    # diag(1/d) L-BFGS bit for bit.  The oracle takes lbfgs's approximate
    # Wolfe acceptance too: at the last step Armijo rejects the trial point
    # on rounding noise, which lbfgs takes by design
    spec = sign_perturbed_spec()
    level = build_level(spec.domain, 3)
    obj = spec.build(level)
    x0 = obj.pin(spec.initial_guesses(level, None, None)[1])
    gtol = GTOL_FACTOR * (1.0 + abs(obj.value_and_grad(x0)[0]))
    args = (obj.value_and_grad, x0, level.weights, obj.free_mask)
    expected = _diag_metric_lbfgs(*args, gtol=gtol, wolfe=True)
    _assert_same_run(lbfgs(*args, gtol=gtol), expected)

    def default_hook(g):
        return LevelObjective.precondition(obj, g)

    _assert_same_run(lbfgs(*args, gtol=gtol, precondition=default_hook), expected)


def test_lbfgs_default_metric_bit_identical_on_sawtooth_chain():
    # one parity chain of the sawtooth brute force: the odd nodes pinned at
    # 0, the even ones started on a unit-slope polyline
    spec = sawtooth_spec()
    level = build_level(spec.domain, 4)
    obj = spec.build(level)
    free = np.arange(level.node_count) % 2 == 0
    signs = np.array([2.0, 2.0, -2.0, 2.0, -2.0, -2.0, 2.0, -2.0])
    x0 = np.zeros(level.node_count)
    x0[free] = level.h * np.concatenate(([0.0], np.cumsum(signs)))
    args = (obj.value_and_grad, x0, level.weights, free)
    # the first 36 iterations all take Armijo steps, so the approximate Wolfe
    # test of lbfgs does not enter; the run is not yet at its tolerance
    expected = _diag_metric_lbfgs(*args, gtol=1e-12, max_iter=36)
    got = lbfgs(*args, gtol=1e-12, max_iter=36)
    _assert_same_run(got, expected)
    assert got.grad_norm > 1e-12 and not got.converged
    # from iteration ~20 on f decreases by less than ftol while ||g||_* still
    # falls from 6e-6 to 1e-10: the run converges, where a stall guard on
    # the decrease of f alone stopped it after 30 iterations at 7e-8
    full = lbfgs(*args, gtol=1e-12, max_iter=500)
    assert full.converged and full.iterations <= 60


def test_lbfgs_reaches_gtol_below_the_rounding_of_a_large_constant(rng):
    # f = 1/2 |Bx - b|^2 = c + 1/2 (x - x*)^T A (x - x*), A = B^T B, with a
    # large residual c ~ 1.6e7 that the sum of squares rounds with a noise of
    # ~1e-9, not monotone in x.  Near x* the Armijo decrease 1e-4 t g.p
    # falls below that noise, so Armijo alone backtracks on it and never
    # reaches gtol; the approximate Wolfe test decides from the gradient,
    # which is still accurate there.  The stall guard is off (patience =
    # max_iter), so that only the line search decides.
    n, m = 20, 60
    U = np.linalg.qr(rng.standard_normal((m, n)))[0]
    V = np.linalg.qr(rng.standard_normal((n, n)))[0]
    B = (U * np.geomspace(1.0, 3.0, n)) @ V.T
    b = 1e3 * rng.standard_normal(m)

    def vag(x):
        r = B @ x - b
        return 0.5 * float(r @ r), B.T @ r

    x0 = rng.standard_normal(n)
    d = np.ones(n)
    free = np.ones(n, dtype=bool)
    kwargs = dict(gtol=1e-8, max_iter=200, patience=200)
    armijo_only = _diag_metric_lbfgs(vag, x0, d, free, **kwargs)
    assert armijo_only.value > 1e7
    assert armijo_only.iterations == 200 and not armijo_only.converged
    result = lbfgs(vag, x0, d, free, **kwargs)
    assert result.converged and result.grad_norm <= 1e-8
    assert result.iterations <= 60
    # a tolerance given as a function is evaluated at the current value
    rel = lbfgs(vag, x0, d, free, gtol=lambda f: 1e-16 * (1.0 + abs(f)),
                max_iter=200, patience=200)
    assert rel.converged and rel.grad_norm <= 1e-16 * (1.0 + abs(rel.value))
    # the stall guard at its default patience: near the minimum every
    # decrease falls below ftol max(|f|, 1), but ||g||_* keeps falling, so
    # the run is not stalled (a guard on the decrease of f alone stopped it
    # after 30 iterations at ||g||_* = 2.6e-6)
    default = lbfgs(vag, x0, d, free, gtol=1e-8, max_iter=200)
    assert default.converged and default.grad_norm <= 1e-8
    assert default.iterations <= 60


@pytest.mark.parametrize("metric", ["h1", "diag"])
def test_lbfgs_stall_guard_stops_a_flat_direction_quotient(metric):
    # the scale-invariant quotient with an unreachable tolerance: ||g||_*
    # reaches its rounding floor and the run stops as stalled, unconverged,
    # long before the iteration cap
    spec = sign_perturbed_spec()
    level = build_level(spec.domain, 3)
    obj = spec.build(level)
    x0 = obj.pin(spec.initial_guesses(level, None, None)[1])
    result = lbfgs(
        obj.value_and_grad, x0, level.weights, obj.free_mask, gtol=0.0,
        precondition=obj.precondition if metric == "h1" else None,
    )
    assert not result.converged
    assert result.iterations <= 100
    assert result.grad_norm <= 1e-12


@pytest.mark.filterwarnings("error")
def test_lbfgs_skips_curvature_pairs_near_underflow():
    # the Rayleigh quotient of diag(1..30) with an unreachable tolerance:
    # the components off the lowest eigenvector fall geometrically, so
    # ||g||_* keeps making new lows (the run is not stalled) down to ~1e-160,
    # where y.s is subnormal and 1 / (y.s) would overflow; such pairs are
    # skipped, and the run ends at the eigenvector without a float warning
    a = np.arange(1.0, 31.0)

    def vag(x):
        xx = x @ x
        f = float((x * a) @ x / xx)
        return f, 2.0 * (a * x - f * x) / xx

    n = a.size
    result = lbfgs(vag, np.ones(n), np.ones(n), np.ones(n, dtype=bool), gtol=0.0)
    assert result.iterations < 10_000
    assert np.all(np.isfinite(result.x))
    assert result.value == pytest.approx(1.0, abs=1e-15)
    assert result.grad_norm <= 1e-150


def _random_spd_on(pattern: sp.spmatrix, rng) -> sp.csr_matrix:
    """Random symmetric, strictly diagonally dominant matrix on ``pattern``."""
    P = sp.triu(sp.csr_matrix(pattern), k=1).tocoo()
    off = sp.coo_matrix((rng.uniform(-1.0, 1.0, P.nnz), (P.row, P.col)), shape=P.shape)
    off = (off + off.T).tocsr()
    dominance = np.asarray(abs(off).sum(axis=1)).ravel()
    diag = dominance + rng.uniform(0.5, 2.0, P.shape[0])
    return (off + sp.diags(diag)).tocsr()


def _blocks_of(A, blocks):
    """``newton``'s block form of ``A``: each node list with its upper band."""
    return [(nodes, _upper_band(A[nodes][:, nodes])) for nodes in blocks]


def _one_newton_step(A, blocks, free, rng, monkeypatch):
    """One Newton step on 1/2 x^T A x - b^T x, ``A`` given on ``blocks``;
    returns it, its oracle and the band rows of each solve."""
    n = A.shape[0]
    b = rng.standard_normal(n)
    x0 = rng.standard_normal(n)
    d = rng.uniform(0.5, 2.0, n)

    def vag(x):
        Ax = A @ x
        return 0.5 * float(x @ Ax) - float(b @ x), Ax - b

    rows = []
    real = scipy.linalg.solveh_banded

    def spy(ab, rhs, **kwargs):
        rows.append(ab.shape[0])
        return real(ab, rhs, **kwargs)

    # newton imports it from scipy.linalg when called
    monkeypatch.setattr(scipy.linalg, "solveh_banded", spy)
    hessian = _blocks_of(A, blocks), np.zeros(n)
    result = newton(vag, lambda x: hessian, x0, d, free, gtol=0.0, max_iter=1)
    fi = np.flatnonzero(free)
    g = vag(x0)[1][fi]
    expected = x0.copy()
    expected[fi] += np.linalg.solve(A[fi][:, fi].toarray(), -g)
    return result, expected, rows


def test_banded_step_parity_split_tridiagonal(rng, monkeypatch):
    # 1D: nodes couple only to i +- 2, so the odd and the even nodes are two
    # uncoupled paths, each with a band of 2 rows (the ptsv branch)
    n = 41
    pattern = sp.diags([1.0, 1.0, 1.0], [-2, 0, 2], shape=(n, n))
    A = _random_spd_on(pattern, rng)
    free = np.ones(n, dtype=bool)
    free[[0, -1]] = False
    blocks = [np.arange(1, n - 1, 2), np.arange(2, n - 1, 2)]
    result, expected, rows = _one_newton_step(A, blocks, free, rng, monkeypatch)
    assert rows == [2, 2]
    np.testing.assert_allclose(result.x, expected, rtol=1e-10, atol=1e-12)


def test_banded_step_singular_pattern(rng, monkeypatch):
    level = build_level(singular_spec().domain, 4)
    obj = singular_spec().build(level)
    A = _random_spd_on(_masked_stiffness(level), rng)
    free = ~level.boundary_mask
    blocks = [nodes for nodes, _band in obj.blocks]
    result, expected, rows = _one_newton_step(A, blocks, free, rng, monkeypatch)
    # 4 parity blocks of a 15 x 15 free grid, 7 or 8 nodes a side: in
    # wavefront order the bandwidth is at most the longest block diagonal,
    # where the natural order of the whole free grid has 30
    assert rows == [8, 8, 9, 9]
    np.testing.assert_allclose(result.x, expected, rtol=1e-10, atol=1e-12)


def test_banded_step_single_free_dof(rng, monkeypatch):
    A = _random_spd_on(np.ones((5, 5)), rng)
    free = np.zeros(5, dtype=bool)
    free[2] = True
    result, expected, rows = _one_newton_step(A, [np.array([2])], free, rng, monkeypatch)
    assert rows == [1]
    np.testing.assert_allclose(result.x, expected, rtol=1e-10, atol=1e-12)


def test_indefinite_hessian_takes_gradient_step():
    # f = sum (x^2 - 1)^2 has f'' = 12 x^2 - 4 < 0 near 0: Cholesky fails.
    # At this x0 the exact Newton direction is still a descent direction
    # (it heads for the maximum at 0 along the second free entry), so only
    # the failed factorization can select -g/d
    def vag(x):
        return float(np.sum((x * x - 1.0) ** 2)), 4.0 * x * (x * x - 1.0)

    x0 = np.array([0.0, 0.9, 0.1, 1.2, 0.0])
    free = np.array([False, True, True, True, False])
    d = np.array([1.0, 0.5, 1.0, 2.0, 1.0])
    blocks = _blocks_of(sp.csr_matrix((x0.size, x0.size)), [np.flatnonzero(free)])

    def hess(x):
        return blocks, 12.0 * x * x - 4.0

    result = newton(vag, hess, x0, d, free, gtol=0.0, max_iter=1)
    f0, g0 = vag(x0)
    newton_dir = -g0[free] / (12.0 * x0[free] ** 2 - 4.0)
    assert newton_dir @ g0[free] < 0.0
    assert result.value < f0
    step = (result.x - x0)[free] / (-g0[free] / d[free])
    assert np.all(step > 0.0)
    np.testing.assert_allclose(step, step[0], rtol=1e-12)
    assert np.array_equal(result.x[~free], x0[~free])


def _former_band(K, c, nodes):
    """The former per-step band: ``H = K + diag(c)`` summed as sparse
    matrices, its upper band on ``nodes`` scattered into a dense array."""
    H = sp.csr_matrix(K + sp.diags(c))
    H.sum_duplicates()
    H = H[nodes][:, nodes].tocoo()
    upper = H.col >= H.row
    i, j = H.row[upper], H.col[upper]
    rows = int((j - i).max(initial=0)) + 1
    band = np.zeros((rows, nodes.size), order="F")
    band[rows - 1 - (j - i), j] = H.data[upper]
    return band


@pytest.mark.parametrize("n", [4, 6])
def test_newton_band_equals_former_sparse_assembly(n, monkeypatch):
    # each block's band copied from the objective plus the diagonal, on
    # every step of a singular solve, against the former sparse sum
    # K + diag(c) of the whole matrix restricted to the block
    spec = singular_spec()
    level = build_level(spec.domain, n)
    obj = spec.build(level)
    points, bands = [], []

    def hessian(x):
        points.append(x.copy())
        return obj.hessian(x)

    real = scipy.linalg.solveh_banded

    def spy(ab, rhs, **kwargs):
        bands.append(ab.copy())
        return real(ab, rhs, **kwargs)

    monkeypatch.setattr(scipy.linalg, "solveh_banded", spy)
    x0 = spec.initial_guesses(level, None, None)[0]
    gtol = GTOL_FACTOR * (1.0 + abs(obj.value_and_grad(x0)[0]))
    newton(obj.value_and_grad, hessian, x0, level.weights, obj.free_mask,
           gtol=gtol, accept=obj.accept_step)
    K = _masked_stiffness(level)
    assert len(bands) == 4 * len(points) and len(points) > 1
    expected = [_former_band(K, obj.hessian(x)[1], nodes)
                for x in points for nodes, _band in obj.blocks]
    for band, former in zip(bands, expected):
        np.testing.assert_array_equal(band, former)
        np.testing.assert_array_equal(np.signbit(band), np.signbit(former))


def _superlu_newton(value_and_grad, hessian, x0, weights, free, gtol, max_iter=200, accept=None):
    """The former Newton, one SuperLU factorization of the free block per step."""
    x = x0.copy()
    d = weights[free]
    f, g_full = value_and_grad(x)
    g = g_full[free]
    gnorm = float(np.sqrt(np.sum(g * g / d)))
    free_idx = np.flatnonzero(free)
    for it in range(max_iter):
        if gnorm <= gtol:
            return OptimizeResult(x, f, gnorm, it, True)
        K, c = hessian(x)
        H = (K + sp.diags(c)).tocsr()[free_idx][:, free_idx].tocsc()
        try:
            p = spla.spsolve(H, -g)
            if not np.all(np.isfinite(p)) or p @ g >= 0.0:
                p = -g / d
        except RuntimeError:
            p = -g / d
        step = 1.0
        accepted = False
        for _bt in range(60):
            x_new = x.copy()
            x_new[free] = x[free] + step * p
            if accept is not None and not accept(x, x_new):
                step *= 0.5
                continue
            f_new, g_new_full = value_and_grad(x_new)
            if np.isfinite(f_new) and f_new <= f + 1e-4 * step * (p @ g):
                accepted = True
                break
            step *= 0.5
        if not accepted:
            return OptimizeResult(x, f, gnorm, it, gnorm <= gtol)
        x, f, g = x_new, f_new, g_new_full[free]
        gnorm = float(np.sqrt(np.sum(g * g / d)))
    return OptimizeResult(x, f, gnorm, max_iter, gnorm <= gtol)


@pytest.mark.parametrize("n", [4, 5])
def test_newton_matches_superlu_reference_on_singular(n):
    spec = singular_spec()
    level = build_level(spec.domain, n)
    obj = spec.build(level)
    x0 = spec.initial_guesses(level, None, None)[0]
    gtol = GTOL_FACTOR * (1.0 + abs(obj.value_and_grad(x0)[0]))
    args = (x0, level.weights, obj.free_mask)
    kwargs = dict(gtol=gtol, accept=obj.accept_step)
    banded = newton(obj.value_and_grad, obj.hessian, *args, **kwargs)
    # the former Hessian form: the whole masked stiffness and the diagonal
    K = _masked_stiffness(level)
    reference = _superlu_newton(obj.value_and_grad, lambda x: (K, obj.hessian(x)[1]),
                                *args, **kwargs)
    assert banded.converged and reference.converged
    assert banded.iterations == reference.iterations > 0
    np.testing.assert_allclose(banded.x, reference.x, rtol=1e-10)
    assert banded.value == pytest.approx(reference.value, rel=1e-10)
