"""The eight acceptance criteria, one test and one pass/fail line each.

Each test prints ``ACCEPTANCE n (<name>): PASS`` or ``... FAIL`` directly to
the terminal (capture disabled) so the verdicts are visible in any pytest
run.  Tolerances are pinned; the long net studies are computed once in
module-scoped fixtures.
"""

import itertools
import json
import warnings

import numpy as np
import pytest
from grid_oracles import coordinate_table, interface, monad

from ultragrid import (
    Ball,
    Box,
    Domain,
    GridFunction,
    HalfSpace,
    Net,
    NodeMask,
    QuadraticWell,
    build_level,
    bump,
    density,
    derivative,
    gauss_check,
    integral,
    minimize_level,
    perimeter,
    pointwise_standard_part,
    restrict,
    sawtooth_spec,
    sign_perturbed_spec,
    singular_spec,
    sobolev_constant,
    solve_net,
    split,
    verify_euler_lagrange,
)
from ultragrid.calculus import diff_op
from ultragrid.cli import main as cli_main
from ultragrid.nets import Kind, classify
from ultragrid.optimize import lbfgs


def _report(capsys, number, name, failures):
    verdict = "PASS" if not failures else "FAIL"
    with capsys.disabled():
        print(f"\nACCEPTANCE {number} ({name}): {verdict}")
        for line in failures:
            print(f"  - {line}")
    assert not failures, f"ACCEPTANCE {number} ({name}): {failures}"


def _fit_order(hs, errs):
    slope, _ = np.polyfit(np.log(hs), np.log(np.maximum(errs, 1e-300)), 1)
    return float(slope)


# --- expensive shared studies -------------------------------------------------


@pytest.fixture(scope="module")
def sawtooth_net():
    return solve_net(sawtooth_spec(), levels=range(3, 9))


@pytest.fixture(scope="module")
def quotient_net_free():
    return solve_net(sign_perturbed_spec(), levels=range(3, 7))


@pytest.fixture(scope="module")
def quotient_net_well():
    # strength 500 concentrates the bubble fast enough that the coarse-node
    # tails decay as a clean power law over four levels; a weak well leaves
    # them preasymptotic and the extrapolated limits stall above zero
    spec = sign_perturbed_spec(a=QuadraticWell((0.5, 0.5, 0.5), strength=500.0))
    return solve_net(spec, levels=range(3, 7))


@pytest.fixture(scope="module")
def singular_net():
    return solve_net(singular_spec(), levels=range(4, 7))


# --- criterion 1 ---------------------------------------------------------------


def test_acceptance_1_exact_identities(capsys):
    failures = []
    rng = np.random.default_rng(20240801)
    for dim in (1, 2):
        domain = Domain(tuple((0.0, 1.0) for _ in range(dim)))
        for n in range(3, 8):
            level = build_level(domain, n)
            op = diff_op(level)
            d = level.weights
            worst_sbp = 0.0
            worst_gauss = 0.0
            for _ in range(100):
                u = rng.standard_normal(level.node_count)
                v = rng.standard_normal(level.node_count)
                for axis in range(dim):
                    lhs = float((op.apply(u, axis) * v) @ d)
                    rhs = float((u * op.apply(v, axis)) @ d)
                    scale = max(abs(lhs), abs(rhs), 1.0)
                    worst_sbp = max(worst_sbp, abs(lhs + rhs) / scale)
                mask = rng.random(level.node_count) > 0.5
                phi = tuple(
                    GridFunction(level, rng.standard_normal(level.node_count))
                    for _ in range(dim)
                )
                res = gauss_check(phi, NodeMask(level, mask))
                scale = max(abs(res.lhs), abs(res.rhs), 1.0)
                worst_gauss = max(worst_gauss, res.gap / scale)
            if worst_sbp > 1e-12:
                failures.append(f"antisymmetry {dim}D level {n}: {worst_sbp:.3e}")
            if worst_gauss > 1e-12:
                failures.append(f"gauss {dim}D level {n}: {worst_gauss:.3e}")
    _report(capsys, 1, "exact identities", failures)


# --- criterion 2 ---------------------------------------------------------------


def test_acceptance_2_calculus_convergence(capsys):
    failures = []
    domain = Domain(((0.0, 1.0),))
    hs, derr, qerr, herr = [], [], [], []
    phi = bump((0.3,), 0.25)
    for n in range(3, 9):
        level = build_level(domain, n)
        x = coordinate_table(level)[:, 0]
        u = GridFunction(level, np.sin(2 * np.pi * x))
        exact = 2 * np.pi * np.cos(2 * np.pi * x)
        interior = ~level.boundary_mask
        derr.append(np.max(np.abs(derivative(u, 0).values[interior] - exact[interior])))
        qerr.append(abs(integral(GridFunction(level, np.sin(np.pi * x))) - 2 / np.pi))
        heav = GridFunction(level, (x >= 0.5).astype(float))
        phi_g = restrict(phi, level)
        pairing = float((derivative(heav, 0).values * phi_g.values) @ level.weights)
        herr.append(abs(pairing - float(phi(0.5))))
        hs.append(level.h)
    d_order = _fit_order(hs, derr)
    q_order = _fit_order(hs, qerr)
    h_order = _fit_order(hs, herr)
    if abs(d_order - 2.0) > 0.2:
        failures.append(f"derivative order {d_order:.3f} not within 2.0 +/- 0.2")
    if q_order < 1.8:
        failures.append(f"quadrature order {q_order:.3f} below 2")
    if h_order < 0.8:
        failures.append(f"Heaviside pairing order {h_order:.3f} below 0.8")
    _report(capsys, 2, "calculus convergence", failures)


# --- criterion 3 ---------------------------------------------------------------


def test_acceptance_3_density_perimeter(capsys):
    failures = []
    dom2 = Domain(((0.0, 1.0), (0.0, 1.0)))
    level = build_level(dom2, 7)  # h = 1/128
    theta = density(HalfSpace(0, 0.5), level).grid_values
    mid = level.shape[0] // 2
    probes = {
        "deep inside": (theta[2, mid], 1.0),
        "flat boundary": (theta[mid, mid], 0.5),
        "deep outside": (theta[-1, mid], 0.0),
    }
    for name, (got, want) in probes.items():
        if got != want:
            failures.append(f"theta {name}: {got} != {want}")

    # unit square on a 2x2 box, h = 1/128 at level 8
    dom_big = Domain(((0.0, 2.0), (0.0, 2.0)))
    big = build_level(dom_big, 8)
    assert big.h == 1.0 / 128.0
    sq = perimeter(Box(((0.5, 1.5), (0.5, 1.5))), big)
    if abs(sq - 4.0) / 4.0 > 0.05:
        failures.append(f"unit square perimeter {sq:.4f} not 4 +/- 5%")
    r = 0.25
    dk = perimeter(Ball((0.5, 0.5), r), level)
    if abs(dk - 2 * np.pi * r) / (2 * np.pi * r) > 0.05:
        failures.append(f"disk perimeter {dk:.4f} not 2*pi*r +/- 5%")
    _report(capsys, 3, "density and perimeter", failures)


# --- criterion 4 ---------------------------------------------------------------


def _sawtooth_bruteforce(level_n):
    """Global level minimum by exhaustive enumeration over slope patterns.

    The energy decouples over the even and odd node sublattices: the nodal
    term at node i belongs to the parity of i while the derivative penalty at
    node i only reads the opposite-parity chain.  So the global minimum is
    the sum of the two chain minima (minus the double-counted constant from
    pinning the other chain at zero), and each chain is small enough to
    enumerate every unit-slope polyline start exhaustively.
    """
    spec = sawtooth_spec()
    level = build_level(spec.domain, level_n)
    obj = spec.build(level)
    h = level.h
    weights = level.weights
    parity = np.arange(level.node_count) % 2

    chain_minima = []
    for p in (0, 1):
        free = parity == p
        steps = int(free.sum()) - 1
        best = np.inf
        for signs in itertools.product((-2.0, 2.0), repeat=steps):
            start = np.zeros(level.node_count)
            start[free] = h * np.concatenate(([0.0], np.cumsum(signs)))
            res = lbfgs(
                obj.value_and_grad, start, weights, free, gtol=lambda f: 1e-12, max_iter=500
            )
            best = min(best, res.value)
        chain_minima.append(best)
    # each chain run pays the other chain's flat penalty sum(d) once; the
    # weights sum to the domain volume 1
    return chain_minima[0] + chain_minima[1] - float(weights.sum())


def test_acceptance_4_sawtooth(capsys, sawtooth_net):
    failures = []
    net = sawtooth_net
    vals = [r.value for r in net.results]
    hs = [r.level.h for r in net.results]
    if not all(b < a for a, b in zip(vals, vals[1:])):
        failures.append(f"values not strictly decreasing: {vals}")
    c = classify(net.value_net())
    if not (c.kind is Kind.STANDARD and c.value == 0.0):
        failures.append(f"classification not Standard(0): {c.as_dict()}")
    slope = _fit_order(hs, vals)
    if abs(slope - 2.0) > 0.3:
        failures.append(f"decay exponent {slope:.3f} not 2.0 +/- 0.3")

    sp = split(net.minimizer_net())
    w_max = float(np.max(np.abs(sp.w.values)))
    if w_max > 1e-6:
        failures.append(f"|w| max {w_max:.3e} above 1e-6")
    norms = dict(sp.psi_norms)
    finest = max(norms)
    if norms[finest] >= 1e-2:
        failures.append(f"finest psi norm {norms[finest]:.3e} not below 1e-2")
    ordered = [norms[n] for n in sorted(norms)]
    if not all(b < a for a, b in zip(ordered, ordered[1:])):
        failures.append(f"psi norms not decreasing: {ordered}")

    for n in (3, 4):
        oracle = _sawtooth_bruteforce(n)
        got = vals[n - 3]
        if abs(got - oracle) > 1e-8:
            failures.append(f"level {n} value {got!r} vs brute force {oracle!r}")
    _report(capsys, 4, "sawtooth study", failures)


# --- criterion 5 ---------------------------------------------------------------


def test_acceptance_5_sign_perturbed(capsys, quotient_net_free, quotient_net_well):
    failures = []
    s3 = sobolev_constant(3)

    vals = [r.value for r in quotient_net_free.results]
    if not all(v > s3 for v in vals):
        failures.append(f"values not above S_3={s3}: {vals}")
    if not all(b <= a for a, b in zip(vals, vals[1:])):
        failures.append(f"values not non-increasing: {vals}")
    gap0, gap1 = vals[0] - s3, vals[-1] - s3
    if not gap1 <= 0.7 * gap0:
        failures.append(f"gap shrink {(1 - gap1 / gap0) * 100:.1f}% below 30%")

    conc = [r.diagnostics["concentration"] for r in quotient_net_well.results]
    if conc[-1] < 0.9:
        failures.append(f"finest concentration {conc[-1]:.3f} below 0.9")
    if not all(b >= a - 1e-12 for a, b in zip(conc, conc[1:])):
        failures.append(f"concentration not non-decreasing: {conc}")

    sp = split(quotient_net_well.minimizer_net())
    w_max = float(np.max(np.abs(sp.w.values)))
    u_max = float(np.max(np.abs(quotient_net_well.results[-1].u.values)))
    if w_max > 1e-3 * u_max:
        failures.append(f"splitting |w| {w_max:.3e} above 1e-3 * |u| {u_max:.3e}")
    _report(capsys, 5, "sign-perturbed quotient", failures)


# --- criterion 6 ---------------------------------------------------------------


def test_acceptance_6_singular_problem(capsys, singular_net):
    failures = []
    res = singular_net.results[-1]
    level = res.level
    u = res.u.values
    if not res.converged:
        failures.append("finest level did not converge")
    min_abs = float(np.min(np.abs(u)))
    if not min_abs > 0.0:
        failures.append("minimizer touches zero")

    el = verify_euler_lagrange(singular_spec(), res)
    scale = max(1.0, abs(res.value))
    weak = max((abs(v) for v in el.weak_residuals), default=0.0)
    if weak > 1e-6 * scale:
        failures.append(f"weak EL residual {weak:.3e} above 1e-6 * {scale:.3e}")

    dec = interface(res.u, lambda P: np.abs(P[:, 0] - 0.5))
    m1, m2, mi = dec.omega1, dec.omega2, dec.xi
    if np.any(m1 & m2) or np.any(m1 & mi) or np.any(m2 & mi):
        failures.append("interface decomposition overlaps")
    if not np.all(m1 | m2 | mi):
        failures.append("interface decomposition does not cover")
    rng = np.random.default_rng(6)
    for idx in rng.choice(np.flatnonzero(m1), size=10, replace=False):
        if not np.all(u[monad(level, int(idx))] > 0):
            failures.append(f"monad positivity fails at node {int(idx)}")
            break
    for idx in rng.choice(np.flatnonzero(m2), size=10, replace=False):
        if not np.all(u[monad(level, int(idx))] < 0):
            failures.append(f"monad negativity fails at node {int(idx)}")
            break
    if dec.xi_max_distance > 2 * level.h:
        failures.append(
            f"interface node distance {dec.xi_max_distance:.4f} above 2h={2 * level.h}"
        )
    if abs(dec.measure - 1.0) > 0.1:
        # conjecture check only: a warning, not a failure
        warnings.warn(
            f"interface measure {dec.measure:.4f} outside 1.0 +/- 10%",
            stacklevel=1,
        )
    _report(capsys, 6, "singular problem", failures)


# --- criterion 7 ---------------------------------------------------------------


def test_acceptance_7_splitting_fidelity(capsys):
    failures = []
    dom = Domain(((-1.0, 1.0),))
    levels = [build_level(dom, n) for n in range(3, 9)]
    fns = [
        restrict(lambda x, h=lvl.h: np.log(x**2 + h**2), lvl) for lvl in levels
    ]
    net = Net(tuple((lvl.n, f) for lvl, f in zip(levels, fns)))
    w, singular = pointwise_standard_part(net)
    coarse = levels[0]
    coords = coordinate_table(coarse)[singular.indices][:, 0]
    if coords.tolist() != [0.0]:
        failures.append(f"singular set {coords.tolist()} != [0.0]")
    x = coordinate_table(coarse)[:, 0]
    off = np.abs(x) >= 0.1
    err = float(np.max(np.abs(w.values[off] - 2 * np.log(np.abs(x[off])))))
    if err > 0.05:
        failures.append(f"off-singular error {err:.4f} above 0.05")
    _report(capsys, 7, "splitting fidelity", failures)


# --- criterion 8 ---------------------------------------------------------------


def test_acceptance_8_determinism(capsys, tmp_path):
    failures = []
    cfg = tmp_path / "config.json"
    cfg.write_text(
        json.dumps({"problem": "sawtooth", "levels": "3..5", "seed": 0}),
        encoding="utf-8",
    )
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        out.mkdir()
        code = cli_main(["solve", "--config", str(cfg), "--out", str(out)])
        if code != 0:
            failures.append(f"solve run {tag} exited {code}")
        outs.append(out)
    for name in ("levels.csv", "splitting.csv", "psi.csv", "plot_convergence.csv"):
        if (outs[0] / name).read_bytes() != (outs[1] / name).read_bytes():
            failures.append(f"{name} differs between identical runs")

    for tag in ("ca", "cb"):
        out = tmp_path / tag
        out.mkdir()
        code = cli_main(["calculus-check", "--levels", "3..7", "--out", str(out)])
        if code != 0:
            failures.append(f"calculus-check run {tag} exited {code}")
    if (tmp_path / "ca" / "checks.csv").read_bytes() != (
        tmp_path / "cb" / "checks.csv"
    ).read_bytes():
        failures.append("checks.csv differs between identical runs")
    _report(capsys, 8, "determinism", failures)
