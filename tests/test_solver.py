"""Level-net minimization, splitting, and residual verification."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from grid_oracles import coordinate_table
from hypothesis import given, settings
from hypothesis import strategies as st
from solver_oracles import check_gradient, remainders

import ultragrid.solver as solver
from ultragrid import cli
from ultragrid import (
    Domain,
    GridFunction,
    LevelObjective,
    Kind,
    Net,
    ProblemSpec,
    QuadraticWell,
    build_level,
    classify,
    inner,
    minimize_level,
    norm,
    prolong,
    restrict,
    sawtooth_spec,
    sign_perturbed_spec,
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
        x = coordinate_table(level)[:, 0]
        self.target = x * (1.0 - x)
        self.d = level.weights

    def value_and_grad(self, u):
        r = u - self.target
        return float((r**2) @ self.d), 2.0 * r * self.d


def quadratic_problem():
    return ProblemSpec(
        name="quadratic",
        domain=DOM1,
        build=_Quadratic,
        initial_guesses=lambda level: [np.zeros(level.node_count)],
        lower_bound=0.0,
    )


def test_prolong_linear_exact():
    coarse = build_level(DOM1, 3)
    fine = build_level(DOM1, 5)
    u = restrict(lambda x: 2.0 * x + 1.0, coarse)
    v = prolong(u, fine)
    assert np.allclose(v.values, 2.0 * coordinate_table(fine)[:, 0] + 1.0, atol=1e-14)


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
        return sum(c * math.prod(xi for xi, on in zip(x, s) if on)
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
    x = coordinate_table(level)[:, 0]
    assert np.allclose(res.u.values, x * (1 - x))


def test_solve_net_quadratic_standard_limit():
    problem = quadratic_problem()
    net = solve_net(problem, levels=range(3, 7))
    assert not net.partial
    assert not net.monotone_violations
    c = classify(net.value_net())
    assert c.kind is Kind.STANDARD and c.value == 0.0

    sp = split(net.minimizer_net())
    # the minimizers converge to the representable target: w equals it and
    # the remainders vanish at coarse nodes
    coarse_x = coordinate_table(sp.w.level)[:, 0]
    assert np.allclose(sp.w.values, coarse_x * (1 - coarse_x), atol=1e-8)
    assert len(sp.singular) == 0
    # psi carries only the piecewise-linear interpolation error of the
    # coarse w (O(h^2) of the coarsest level); it vanishes at coarse nodes
    for _n, psi_norm in sp.psi_norms:
        assert psi_norm < 5e-3
    psi = remainders(net.minimizer_net(), sp.w)
    coarse_nodes = psi[-1][1].values[:: 2 ** (len(psi) - 1)]
    assert np.max(np.abs(psi[0][1].values)) < 5e-3
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


def test_sawtooth_starts_converge_in_level_independent_iterations(monkeypatch):
    # under the H1 metric every level's one start, the sawtooth pattern,
    # meets its tolerance by the gradient test in a bounded number of
    # iterations; under diag(d) the former warm start, the prolonged coarser
    # minimizer, stalled from level 4 on, at level 10 after 1,129 iterations
    # at 3e4 times its tolerance
    runs = []
    real_lbfgs = solver.lbfgs

    def recording_lbfgs(*args, gtol, **kwargs):
        result = real_lbfgs(*args, gtol=gtol, **kwargs)
        runs.append((gtol, result))
        return result

    monkeypatch.setattr(solver, "lbfgs", recording_lbfgs)
    solve_net(sawtooth_spec(), range(3, 11))
    assert len(runs) == 8  # the pattern start alone on each level
    for gtol, result in runs:
        assert result.grad_norm <= gtol(result.value)
        assert result.iterations <= 100


@pytest.mark.parametrize("well", [False, True])
def test_quotient_starts_converge_in_level_independent_iterations(monkeypatch, well):
    # under the exact H1 metric with the approximate Wolfe line search every
    # start meets its tolerance by the gradient test; under diag(d) with
    # Armijo alone the level-5 starts stopped after up to 102 iterations at
    # up to 179 times their tolerance
    runs = []
    real_lbfgs = solver.lbfgs

    def recording_lbfgs(*args, gtol, **kwargs):
        result = real_lbfgs(*args, gtol=gtol, **kwargs)
        runs.append((gtol, result))
        return result

    monkeypatch.setattr(solver, "lbfgs", recording_lbfgs)
    a = QuadraticWell((0.5, 0.5, 0.5)) if well else None
    net = solve_net(sign_perturbed_spec(a=a), range(3, 6))
    assert len(runs) == 3 + 1 + 1  # three bubbles, then the warm start alone
    for gtol, result in runs:
        assert result.converged
        assert result.grad_norm <= gtol(result.value)
        assert result.iterations <= 40
    assert all(r.converged for r in net.results)
    if not well:
        # the warm start won on every level before it ran alone; the values of
        # L-BFGS run on the octant's dofs
        assert [r.value for r in net.results] == [
            6.837690287401986, 6.3805703624488705, 6.1212613083864378]


def test_well_warm_starts_run_in_the_metric_of_the_well(monkeypatch):
    # the metric inverts the numerator with the well's A_i: a strength-500
    # well's warm starts take 10 and 12 iterations at levels 4 and 5, and 18
    # and 18 in a metric without the well
    runs = []
    real_lbfgs = solver.lbfgs

    def recording_lbfgs(*args, **kwargs):
        runs.append(real_lbfgs(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(solver, "lbfgs", recording_lbfgs)
    net = solve_net(sign_perturbed_spec(a=QuadraticWell((0.4, 0.5, 0.6), 500.0)), range(3, 6))
    assert all(r.converged for r in net.results)
    warm = runs[3:]  # after level 3's three bubble starts
    assert len(warm) == 2
    assert all(result.iterations <= 14 for result in warm)


def test_solve_net_requires_three_levels():
    with pytest.raises(ValueError):
        solve_net(quadratic_problem(), levels=[3, 4])


def test_split_reconstruction_exact_at_coarse_nodes():
    # split reports the norms of u_n - prolong(w), and at the coarse nodes
    # that remainder is exactly u_n - w
    net = solve_net(quadratic_problem(), levels=range(3, 6))
    u_net = net.minimizer_net()
    sp = split(u_net)
    psi = remainders(u_net, sp.w)
    assert sp.psi_norms == tuple((n, norm(psi_n)) for n, psi_n in psi)
    for k, ((_n, u), (_, psi_n)) in enumerate(zip(u_net.entries, psi)):
        coarse = slice(None, None, 2**k)
        assert np.array_equal(psi_n.values[coarse], u.values[coarse] - sp.w.values)


def test_split_constant_net_keeps_value():
    # a constant net of grid functions splits into w = f, psi = 0
    levels = [build_level(DOM1, n) for n in (3, 4, 5)]
    fns = [restrict(lambda x: np.sin(3 * x), lvl) for lvl in levels]
    net = Net(tuple((lvl.n, f) for lvl, f in zip(levels, fns)))
    sp = split(net)
    assert len(sp.singular) == 0
    assert np.allclose(sp.w.values, fns[0].values, atol=1e-12)


def test_split_pairs_against_the_standard_battery_of_the_domain():
    # a solved minimizer net and a bare Net alike get three pairings, one per
    # function of standard_battery of the net's domain
    net = solve_net(quadratic_problem(), levels=range(3, 6))
    dom = Domain(((0.0, 2.0),))
    levels = [build_level(dom, n) for n in (3, 4, 5)]
    bare = Net(tuple((lvl.n, restrict(lambda x: np.sin(3 * x) + x, lvl)) for lvl in levels))
    for u_net, domain in ((net.minimizer_net(), DOM1), (bare, dom)):
        sp = split(u_net)
        psi = remainders(u_net, sp.w)
        assert sp.psi_norms == tuple((n, norm(psi_n)) for n, psi_n in psi)
        battery = standard_battery(domain)
        assert [rep.test_index for rep in sp.pairings] == [0, 1, 2]
        for rep, phi in zip(sp.pairings, battery, strict=True):
            assert rep.values == tuple(
                inner(psi_n, restrict(phi, psi_n.level)) for _n, psi_n in psi
            )


def test_solve_report_writes_nothing_and_reads_no_clock(tmp_path, monkeypatch):
    # the tables and report of a solve, computed in an empty working
    # directory with no clock in reach, leave the directory empty
    problem = quadratic_problem()
    net = solve_net(problem, levels=range(3, 6))
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "time", None)
    tables, report = cli._solve_report(problem, net, "0123456789ab")
    assert list(tmp_path.iterdir()) == []
    assert {name: header for name, (header, _rows) in tables.items()} == {
        "levels.csv": ["config_hash", "level", "h", "dim", "value", "grad_norm",
                       "iterations", "converged"],
        "plot_convergence.csv": ["config_hash", "level", "h", "value", "psi_l2"],
        "splitting.csv": ["config_hash", "node", "w", "singular"],
        "psi.csv": ["config_hash", "level", "psi_l2", "pairing_max"],
    }
    assert [len(rows) for _header, rows in tables.values()] == [3, 3, 9, 3]
    assert list(report["invariants"]) == [
        "all_levels_converged", "nested_monotonicity", "certified_lower_bound",
        "weak_euler_lagrange",
    ]
    assert all(v["passed"] for v in report["invariants"].values())
    assert report["config_hash"] == "0123456789ab" and report["problem"] == "quadratic"
    assert "config" not in report and "timings" not in report


def test_pairings_of_vanishing_remainder():
    net = solve_net(quadratic_problem(), levels=range(3, 6))
    sp = split(net.minimizer_net())
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
    bad.u = GridFunction(level, coordinate_table(level)[:, 0])
    bad_el = verify_euler_lagrange(problem, bad)
    assert bad_el.max_residual > 1e-3


def test_lower_bound_violation_returns_every_level():
    # the certified bound is the solve command's verdict: solve_net returns
    # a violating level like any other, and the next level after it
    base = quadratic_problem()
    bad = ProblemSpec(
        name="impossible",
        domain=base.domain,
        build=base.build,
        initial_guesses=base.initial_guesses,
        lower_bound=1.0,  # the true minimum 0 violates this certificate
    )
    net = solve_net(bad, levels=range(3, 6))
    assert [r.level.n for r in net.results] == [3, 4, 5]
    assert all(r.converged and r.value < bad.lower_bound for r in net.results)


def test_warm_start_feasibility_is_a_usage_error():
    class Positive(_Quadratic):
        def feasible(self, u):
            return bool(np.all(u > -0.5))

    problem = ProblemSpec(
        name="positive",
        domain=DOM1,
        build=Positive,
        initial_guesses=lambda level: [np.zeros(level.node_count)],
    )
    level = build_level(DOM1, 3)
    with pytest.raises(ValueError):
        minimize_level(problem, level, init=np.full(level.node_count, -1.0))


def test_infeasible_prolongation_is_a_usage_error():
    # the level-3 minimizer x(1 - x) reaches 0.25 at x = 1/2, so its
    # prolongation fails the predicate u <= 0.2 on level 4; minimize_level
    # rejects it as it rejects an infeasible explicit start
    class Capped(_Quadratic):
        def feasible(self, u):
            return bool(np.all(u <= 0.2))

    problem = ProblemSpec(
        name="capped",
        domain=DOM1,
        build=Capped,
        initial_guesses=lambda level: [np.zeros(level.node_count)],
    )
    with pytest.raises(ValueError, match="feasibility"):
        solve_net(problem, levels=range(3, 6))


class _Positive(_Quadratic):
    def feasible(self, u):
        return bool(np.all(u > 0.0))


def test_infeasible_initializer_is_a_usage_error():
    # the zero initializer fails u > 0: a usage error, not a dropped start
    problem = ProblemSpec(
        name="positive",
        domain=DOM1,
        build=_Positive,
        initial_guesses=lambda level: [np.zeros(level.node_count)],
    )
    with pytest.raises(ValueError, match="initializer start violates the feasibility"):
        minimize_level(problem, build_level(DOM1, 3))


def test_free_objective_stores_no_mask():
    obj = _Quadratic(build_level(DOM1, 4))
    assert obj.fixed_mask.strides == (0,) and not obj.fixed_mask.any()
    assert obj.free_mask is obj.free_mask and obj.free_mask.all()


def test_each_start_of_a_cold_quotient_level_runs_without_the_one_before(monkeypatch):
    # a cold 3D level-4 quotient level runs three bubble starts.  When a run
    # begins, the run before it has dropped its start and kept at most its
    # result's x: the memory traced then is what it was when the run before
    # began, give or take a few small objects.  Were a start held through
    # the later runs, it would be one node vector more
    spec = sign_perturbed_spec()
    level = build_level(spec.domain, 4)
    spec.build(level)
    level.weights, level.boundary_mask
    held = []
    run = solver._run_optimizer

    def traced_run(obj, x):
        held.append(tracemalloc.get_traced_memory()[0])
        return run(obj, x)

    monkeypatch.setattr(solver, "_run_optimizer", traced_run)
    tracemalloc.start()
    try:
        res = minimize_level(spec, level)
    finally:
        tracemalloc.stop()
    assert [r.kind for r in res.starts] == ["initializer"] * 3
    assert max(b - a for a, b in zip(held, held[1:])) < 4 * level.node_count  # half a node vector
