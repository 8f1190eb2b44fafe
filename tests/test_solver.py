"""Level-net minimization, splitting, and residual verification."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ultragrid.solver as solver
from ultragrid import (
    Domain,
    GridFunction,
    LevelObjective,
    Kind,
    Net,
    ProblemSpec,
    build_level,
    check_gradient,
    classify,
    minimize_level,
    prolong,
    restrict,
    solve_net,
    split,
    standard_battery,
    verify_euler_lagrange,
)

DOM1 = Domain(((0.0, 1.0),))


class _Quadratic(LevelObjective):
    """J(u) = sum (u - target)^2 d with target x(1-x); minimum 0."""

    def __init__(self, level):
        super().__init__(level)
        x = level.coordinates[:, 0]
        self.target = x * (1.0 - x)
        self.d = level.weights

    def value(self, u):
        return float(((u - self.target) ** 2) @ self.d)

    def gradient(self, u):
        return 2.0 * (u - self.target) * self.d


def quadratic_problem():
    return ProblemSpec(
        name="quadratic",
        domain=DOM1,
        build=_Quadratic,
        initial_guesses=lambda level, rng, warm: [np.zeros(level.node_count)],
        lower_bound=0.0,
        battery=standard_battery(DOM1),
    )


def test_prolong_linear_exact():
    coarse = build_level(DOM1, 3)
    fine = build_level(DOM1, 5)
    u = restrict(lambda x: 2.0 * x + 1.0, coarse)
    v = prolong(u, fine)
    assert np.allclose(v.values, 2.0 * fine.coordinates[:, 0] + 1.0, atol=1e-14)


@settings(max_examples=40, deadline=None)
@given(
    extents=st.lists(st.integers(1, 2), min_size=1, max_size=3),
    lo=st.floats(-2.0, 2.0),
    coarse_n=st.integers(0, 2),
    steps=st.integers(0, 2),
    seed=st.integers(0, 2**32 - 1),
)
def test_prolong_exact_on_multilinear_data(extents, lo, coarse_n, steps, seed):
    # f = sum over axis subsets S of c_S * prod_{i in S} x_i is affine in each
    # axis, so axis-by-axis linear interpolation reproduces it
    dim = len(extents)
    coeffs = np.random.default_rng(seed).uniform(-1.0, 1.0, 2**dim)
    subsets = list(itertools.product((0, 1), repeat=dim))

    def f(*x):
        return sum(c * np.prod([xi for xi, on in zip(x, s) if on], axis=0)
                   for c, s in zip(coeffs, subsets))

    def box():
        return Domain(tuple((lo, lo + float(e)) for e in extents))

    coarse = build_level(box(), coarse_n)
    fine = build_level(box(), coarse_n + steps)  # separately built, equal domain
    v = prolong(restrict(f, coarse), fine)
    assert v.level is fine
    exact = restrict(f, fine).values
    scale = max(1.0, float(np.abs(exact).max()))
    np.testing.assert_allclose(v.values, exact, rtol=0.0, atol=1e-13 * scale)


def test_prolong_rejects_non_refinement():
    fine = build_level(DOM1, 5)
    u = restrict(lambda x: x, fine)
    with pytest.raises(ValueError):
        prolong(u, build_level(DOM1, 3))


def test_check_gradient_quadratic():
    level = build_level(DOM1, 4)
    assert check_gradient(quadratic_problem(), level) < 1e-6


def test_minimize_level_reaches_zero():
    level = build_level(DOM1, 4)
    res = minimize_level(quadratic_problem(), level)
    assert res.converged
    assert res.value == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(res.u.values, level.coordinates[:, 0] * (1 - level.coordinates[:, 0]))


def test_solve_net_quadratic_standard_limit():
    problem = quadratic_problem()
    net = solve_net(problem, levels=range(3, 7))
    assert not net.partial
    assert not net.monotone_violations
    c = classify(net.value_net())
    assert c.kind is Kind.STANDARD and c.value == 0.0

    sp = split(net)
    # the minimizers converge to the representable target: w equals it and
    # the remainders vanish at coarse nodes
    coarse_x = sp.w.level.coordinates[:, 0]
    assert np.allclose(sp.w.values, coarse_x * (1 - coarse_x), atol=1e-8)
    assert len(sp.singular) == 0
    # psi carries only the piecewise-linear interpolation error of the
    # coarse w (O(h^2) of the coarsest level); it vanishes at coarse nodes
    for _n, psi_norm in sp.psi_norms:
        assert psi_norm < 5e-3
    coarse_nodes = sp.psi.entries[-1][1].values[:: 2 ** (len(sp.psi.entries) - 1)]
    assert np.max(np.abs(sp.psi.entries[0][1].values)) < 5e-3
    assert np.max(np.abs(coarse_nodes)) < 1e-8


def test_solve_net_builds_each_level_once(monkeypatch):
    built, solved = [], []

    def counting_build_level(domain, n, *args, **kwargs):
        built.append(n)
        return build_level(domain, n, *args, **kwargs)

    def recording_minimize_level(problem, level, init=None, **kwargs):
        solved.append((level, init))
        return minimize_level(problem, level, init=init, **kwargs)

    monkeypatch.setattr(solver, "build_level", counting_build_level)
    monkeypatch.setattr(solver, "minimize_level", recording_minimize_level)
    solve_net(quadratic_problem(), levels=[5, 3, 4])
    assert built == [3, 4, 5]
    assert [level.n for level, _ in solved] == [3, 4, 5]
    # each warm start was prolonged onto the level object that is solved next
    assert solved[0][1] is None
    assert all(init.level is level for level, init in solved[1:])


def test_solve_net_requires_three_levels():
    with pytest.raises(ValueError):
        solve_net(quadratic_problem(), levels=[3, 4])


def test_split_reconstruction_exact_at_coarse_nodes():
    net = solve_net(quadratic_problem(), levels=range(3, 6))
    sp = split(net)
    for (n, _), (_, psi_n) in zip(sp.psi_norms, sp.psi.entries):
        res = next(r for r in net.results if r.level.n == n)
        w_fine = prolong(sp.w, res.level)
        gap = np.max(np.abs(res.u.values - w_fine.values - psi_n.values))
        assert gap <= 1e-13


def test_split_constant_net_keeps_value():
    # a constant net of grid functions splits into w = f, psi = 0
    levels = [build_level(DOM1, n) for n in (3, 4, 5)]
    fns = [restrict(lambda x: np.sin(3 * x), lvl) for lvl in levels]
    net = Net(tuple((lvl.n, f) for lvl, f in zip(levels, fns)))
    sp = split(net)
    assert len(sp.singular) == 0
    assert np.allclose(sp.w.values, fns[0].values, atol=1e-12)


def test_pairings_of_vanishing_remainder():
    net = solve_net(quadratic_problem(), levels=range(3, 6))
    sp = split(net)
    for rep in sp.pairings:
        assert rep.classification.kind is Kind.STANDARD
        assert abs(rep.classification.value) <= 1e-8


def test_verify_euler_lagrange_at_minimizer_and_elsewhere():
    problem = quadratic_problem()
    level = build_level(DOM1, 4)
    res = minimize_level(problem, level)
    el = verify_euler_lagrange(problem, res)
    assert el.max_residual <= 1e-10
    assert all(abs(v) <= 1e-10 for v in el.weak_residuals)

    # a generic point is not critical
    bad = res
    bad.u = GridFunction(level, level.coordinates[:, 0])
    bad_el = verify_euler_lagrange(problem, bad)
    assert bad_el.max_residual > 1e-3


def test_lower_bound_violation_raises():
    base = quadratic_problem()
    bad = ProblemSpec(
        name="impossible",
        domain=base.domain,
        build=base.build,
        initial_guesses=base.initial_guesses,
        lower_bound=1.0,  # the true minimum 0 violates this certificate
    )
    with pytest.raises(RuntimeError):
        solve_net(bad, levels=range(3, 6))


def test_warm_start_feasibility_is_a_usage_error():
    class Positive(_Quadratic):
        def feasible(self, u):
            return bool(np.all(u > -0.5))

    problem = ProblemSpec(
        name="positive",
        domain=DOM1,
        build=Positive,
        initial_guesses=lambda level, rng, warm: [np.zeros(level.node_count)],
    )
    level = build_level(DOM1, 3)
    with pytest.raises(ValueError):
        minimize_level(problem, level, init=np.full(level.node_count, -1.0))
