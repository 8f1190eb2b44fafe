"""Batch front end: config ingestion, runs, and result persistence.

Three subcommands:

``solve``
    Run one packaged study (``sawtooth``, ``sign_perturbed`` or
    ``singular``) over a level chain, split the minimizer net, verify the
    solver invariants and write ``levels.csv``, ``splitting.csv``,
    ``psi.csv``, ``plot_convergence.csv``, per-level solution dumps,
    ``config.json`` and ``report.json`` into the output directory.

``sweep``
    Run ``solve`` over a list of config overrides, one subdirectory per run,
    aggregating a ``summary.csv``.

``calculus-check``
    Run the exact-identity and convergence suites of the discrete calculus
    and measure layers, print a pass/fail table, and write ``checks.csv``.

Every CSV starts with a header row and carries a ``config_hash`` column (the
first 12 hex digits of the SHA-256 of the canonical JSON config).  Floats are
written with ``%.17g`` and no timestamps appear in any CSV, so re-running
with the same config and seed reproduces every CSV byte for byte.  Wall-clock
timings live only in ``report.json``.

Exit codes: 0 success, 1 invariant failure, 2 configuration error,
3 partial result (report still written).

``--threads`` is accepted and echoed into the report for provenance, but
execution is single-threaded: warm-started levels are sequential by the
solver contract, and single-threaded runs are the reproducibility baseline.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import pathlib
import sys
import time
from typing import Optional, Sequence

import numpy as np

from .calculus import (
    GridFunction,
    bump,
    derivative,
    derivative_kernel_dimension,
    diff_op,
    grid_function_to_binary,
    integral,
    restrict,
)
from .grid import Domain, ResourceLimitError, build_level
from .measure import Ball, Box, HalfSpace, NodeMask, density, gauss_check, perimeter
from .nets import classify
from .problems import (
    quadratic_well,
    sawtooth_spec,
    sign_perturbed_spec,
    singular_spec,
)
from .solver import prolong, solve_net, split, verify_euler_lagrange

__all__ = ["main"]

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_CONFIG = 2
EXIT_PARTIAL = 3


class ConfigError(Exception):
    """A problem with the run configuration (exit code 2)."""


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------


def _canonical(config: dict) -> str:
    return json.dumps(config, sort_keys=True, separators=(",", ":"))


def config_hash(config: dict) -> str:
    """First 12 hex digits of the SHA-256 of the canonical JSON config."""
    return hashlib.sha256(_canonical(config).encode("utf-8")).hexdigest()[:12]


def _parse_levels(text) -> list[int]:
    """Accept ``"A..B"`` (inclusive) or a JSON list of level indices."""
    if isinstance(text, (list, tuple)):
        levels = [int(n) for n in text]
    else:
        parts = str(text).split("..")
        if len(parts) != 2:
            raise ConfigError(f"levels must be 'A..B' or a list, got {text!r}")
        try:
            lo, hi = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ConfigError(f"bad level range {text!r}") from exc
        levels = list(range(lo, hi + 1))
    if len(levels) < 3:
        raise ConfigError("the level range must contain at least three levels")
    if any(n < 0 for n in levels):
        raise ConfigError("levels must be non-negative")
    return levels


def _load_config(args) -> dict:
    config: dict = {}
    if args.config is not None:
        path = pathlib.Path(args.config)
        if not path.is_file():
            raise ConfigError(f"config file not found: {path}")
        try:
            config = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(config, dict):
            raise ConfigError("the top-level config must be a JSON object")
    if getattr(args, "levels", None) is not None:
        config["levels"] = args.levels
    if getattr(args, "seed", None) is not None:
        config["seed"] = args.seed
    if getattr(args, "format", None) is not None:
        config["format"] = args.format
    if getattr(args, "threads", None) is not None:
        config["threads"] = args.threads
    config.setdefault("seed", 0)
    config.setdefault("format", "csv")
    config.setdefault("threads", 1)
    config.setdefault("multistart", 3)
    if config["format"] not in ("csv", "json"):
        raise ConfigError(f"format must be 'csv' or 'json', got {config['format']!r}")
    return config


def _out_dir(args) -> pathlib.Path:
    if args.out is None:
        raise ConfigError("an output directory is required (--out DIR)")
    out = pathlib.Path(args.out)
    parent = out if out.is_dir() else out.parent
    if not parent.is_dir():
        raise ConfigError(f"output location does not exist: {parent}")
    out.mkdir(exist_ok=True)
    return out


def _build_problem(config: dict):
    kind = config.get("problem")
    params = dict(config.get("params", {}))
    try:
        if kind == "sawtooth":
            return sawtooth_spec()
        if kind == "sign_perturbed":
            a = None
            well = params.pop("well", None)
            if well is not None:
                a = quadratic_well(
                    well["center"], strength=float(well.get("strength", 50.0))
                )
            return sign_perturbed_spec(a=a, **params)
        if kind == "singular":
            g_coeffs = params.pop("g_affine", None)
            if g_coeffs is not None:
                coeffs = [float(c) for c in g_coeffs]

                def g(*coords, _c=tuple(coeffs)):
                    return sum(ci * np.asarray(x) for ci, x in zip(_c, coords)) + _c[-1]

                params["g"] = g
            return singular_spec(**params)
    except (TypeError, KeyError, ValueError) as exc:
        raise ConfigError(f"bad parameters for problem {kind!r}: {exc}") from exc
    raise ConfigError(
        f"unknown problem {kind!r} (expected sawtooth | sign_perturbed | singular)"
    )


# ---------------------------------------------------------------------------
# deterministic table output
# ---------------------------------------------------------------------------


def _fmt(value):
    if isinstance(value, bool) or isinstance(value, (np.bool_,)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return "%.17g" % float(value)
    return str(value)


def _write_table(path: pathlib.Path, header: Sequence[str], rows, fmt: str) -> None:
    """Write rows either as CSV (default) or as a canonical JSON array."""
    if fmt == "json":
        records = [
            {k: (v if isinstance(v, str) else _json_safe(v)) for k, v in zip(header, row)}
            for row in rows
        ]
        path.with_suffix(".json").write_text(
            json.dumps(records, sort_keys=True, indent=2) + "\n", encoding="utf-8"
        )
        return
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _json_safe(value):
    if isinstance(value, (np.bool_, bool)):
        return bool(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, (np.floating, float)):
        return float(value)
    if isinstance(value, (tuple, list)):
        return [_json_safe(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    return value


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def cmd_solve(config: dict, out: pathlib.Path) -> int:
    problem = _build_problem(config)
    levels = _parse_levels(config.get("levels", "3..5"))
    seed = int(config["seed"])
    fmt = config["format"]
    chash = config_hash(config)
    tol = dict(config.get("tolerances", {}))
    classify_kwargs = {
        k: float(tol[k]) for k in ("rtol", "atol", "kappa") if k in tol
    }

    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    try:
        net = solve_net(
            problem,
            levels,
            seed=seed,
            multistart=int(config["multistart"]),
        )
    except ResourceLimitError as exc:
        # a level over the node cap is a bad level range
        raise ConfigError(str(exc)) from exc
    except RuntimeError as exc:
        # certified-lower-bound violation: an invariant failure, not a crash
        print(f"invariant failure: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    timings["solve_s"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    splitting = split(net, **classify_kwargs)
    value_class = classify(net.value_net(), **classify_kwargs)
    el = verify_euler_lagrange(problem, net.results[-1])
    timings["analysis_s"] = time.perf_counter() - t0

    diag_keys = sorted(
        {k for r in net.results for k in r.diagnostics},
    )

    # levels.csv
    rows = [
        [chash, r.level.n, r.level.h, r.level.dimension, r.value, r.grad_norm,
         r.iterations, r.converged]
        + [r.diagnostics.get(k, float("nan")) for k in diag_keys]
        for r in net.results
    ]
    _write_table(
        out / "levels.csv",
        ["config_hash", "level", "h", "dim", "value", "grad_norm", "iterations",
         "converged"] + diag_keys,
        rows,
        fmt,
    )

    # splitting.csv (coarsest-level nodes)
    singular_mask = splitting.singular.mask()
    _write_table(
        out / "splitting.csv",
        ["config_hash", "node", "w", "singular"],
        [
            [chash, i, splitting.w.values[i], bool(singular_mask[i])]
            for i in range(splitting.w.level.node_count)
        ],
        fmt,
    )

    # psi.csv
    pairing_max = {
        n: max(
            (abs(rep.values[i]) for rep in splitting.pairings),
            default=0.0,
        )
        for i, (n, _norm) in enumerate(splitting.psi_norms)
    }
    _write_table(
        out / "psi.csv",
        ["config_hash", "level", "psi_l2", "pairing_max"],
        [[chash, n, norm, pairing_max[n]] for n, norm in splitting.psi_norms],
        fmt,
    )

    # plot_convergence.csv: x = level/h, y = value, psi norm, diagnostics
    psi_by_level = dict(splitting.psi_norms)
    _write_table(
        out / "plot_convergence.csv",
        ["config_hash", "level", "h", "value", "psi_l2"] + diag_keys,
        [
            [chash, r.level.n, r.level.h, r.value,
             psi_by_level.get(r.level.n, float("nan"))]
            + [r.diagnostics.get(k, float("nan")) for k in diag_keys]
            for r in net.results
        ],
        fmt,
    )

    # solution dumps (binary grid-function format; level index is embedded)
    for r in net.results:
        grid_function_to_binary(r.u, out / f"solution_level{r.level.n:02d}.ugf")

    # invariant verdicts
    recon_gap = 0.0
    coarse = net.results[0].level
    for (n, _), entry in zip(splitting.psi_norms, splitting.psi.entries):
        psi_n = entry[1]
        u_n = next(r.u for r in net.results if r.level.n == n)
        w_fine = prolong(splitting.w, u_n.level)
        gap = np.max(np.abs(u_n.values - w_fine.values - psi_n.values))
        recon_gap = max(recon_gap, float(gap))
    scale = max(1.0, max(abs(r.value) for r in net.results))
    verdicts = {
        "reconstruction_exact": {
            "measured": recon_gap,
            "threshold": 1e-14 * scale,
            "passed": recon_gap <= 1e-14 * scale,
        },
        "all_levels_converged": {
            "measured": sum(1 for r in net.results if not r.converged),
            "threshold": 0,
            "passed": all(r.converged for r in net.results),
        },
    }
    if problem.monotone_values:
        verdicts["nested_monotonicity"] = {
            "measured": list(net.monotone_violations),
            "threshold": "m_{n+1} <= m_n + 1e-10",
            "passed": not net.monotone_violations,
        }
    if problem.lower_bound is not None:
        worst = min(r.value - problem.lower_bound for r in net.results)
        verdicts["certified_lower_bound"] = {
            "measured": worst,
            "threshold": 0.0,
            "passed": worst >= 0.0,
        }
    el_scale = max(1.0, abs(net.results[-1].value))
    verdicts["weak_euler_lagrange"] = {
        "measured": max((abs(v) for v in el.weak_residuals), default=0.0),
        "threshold": 1e-6 * el_scale,
        "passed": max((abs(v) for v in el.weak_residuals), default=0.0)
        <= 1e-6 * el_scale,
    }

    report = {
        "config": config,
        "config_hash": chash,
        "problem": problem.name,
        "levels": [
            {
                "level": r.level.n,
                "h": r.level.h,
                "value": r.value,
                "grad_norm": r.grad_norm,
                "iterations": r.iterations,
                "converged": r.converged,
                "diagnostics": _json_safe(r.diagnostics),
            }
            for r in net.results
        ],
        "classification": {
            "value_net": _json_safe(value_class.as_dict()),
            "singular_nodes": _json_safe(splitting.singular.indices.tolist()),
            "singular_coordinates": _json_safe(
                coarse.coordinates[splitting.singular.indices].tolist()
            ),
            "pairings": [
                {
                    "test_index": rep.test_index,
                    "values": _json_safe(list(rep.values)),
                    "classification": _json_safe(rep.classification.as_dict()),
                }
                for rep in splitting.pairings
            ],
        },
        "euler_lagrange": {
            "max_residual": el.max_residual,
            "l2_residual": el.l2_residual,
            "weak_residuals": _json_safe(list(el.weak_residuals)),
        },
        "invariants": _json_safe(verdicts),
        "partial": net.partial,
        "timings": timings,
        "threads": int(config["threads"]),
    }
    (out / "report.json").write_text(
        json.dumps(report, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    (out / "config.json").write_text(
        json.dumps({"config": config, "config_hash": chash}, sort_keys=True, indent=2)
        + "\n",
        encoding="utf-8",
    )

    if not all(v["passed"] for v in verdicts.values()):
        return EXIT_INVARIANT
    if net.partial or not all(r.converged for r in net.results):
        return EXIT_PARTIAL
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def _merge(base: dict, override: dict) -> dict:
    merged = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(merged.get(key), dict):
            merged[key] = _merge(merged[key], value)
        else:
            merged[key] = value
    return merged


def cmd_sweep(config: dict, out: pathlib.Path) -> int:
    overrides = config.get("sweep")
    if not isinstance(overrides, list) or not overrides:
        raise ConfigError("a sweep config needs a non-empty 'sweep' list")
    base = {k: v for k, v in config.items() if k != "sweep"}
    chash = config_hash(config)

    rows = []
    worst = EXIT_OK
    for i, override in enumerate(overrides):
        if not isinstance(override, dict):
            raise ConfigError(f"sweep entry {i} is not an object")
        run_config = _merge(base, override)
        run_dir = out / f"run_{i:03d}"
        run_dir.mkdir(exist_ok=True)
        try:
            status = cmd_solve(run_config, run_dir)
        except ConfigError as exc:
            print(f"run {i}: config error: {exc}", file=sys.stderr)
            status = EXIT_CONFIG
        value = float("nan")
        report_path = run_dir / "report.json"
        if report_path.is_file():
            report = json.loads(report_path.read_text(encoding="utf-8"))
            value = report["levels"][-1]["value"]
        rows.append(
            [chash, i, config_hash(run_config), run_config.get("problem", ""),
             status, value]
        )
        if status != EXIT_OK:
            worst = EXIT_PARTIAL
    _write_table(
        out / "summary.csv",
        ["config_hash", "run", "run_hash", "problem", "status", "final_value"],
        rows,
        config["format"],
    )
    return worst


# ---------------------------------------------------------------------------
# calculus-check
# ---------------------------------------------------------------------------


def _fit_order(hs: Sequence[float], errs: Sequence[float]) -> float:
    hs = np.asarray(hs, dtype=float)
    errs = np.maximum(np.asarray(errs, dtype=float), 1e-300)
    slope, _ = np.polyfit(np.log(hs), np.log(errs), 1)
    return float(slope)


def _check_sbp_gauss(levels: Sequence[int], instances: int, seed: int):
    """Worst relative antisymmetry / Gauss gaps over random instances."""
    worst_sbp = 0.0
    worst_gauss = 0.0
    rng = np.random.default_rng(seed)
    for dim in (1, 2):
        domain = Domain(tuple((0.0, 1.0) for _ in range(dim)))
        for n in levels:
            level = build_level(domain, n)
            op = diff_op(level)
            d = level.weights
            for _ in range(instances):
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
    return worst_sbp, worst_gauss


def _check_orders(levels: Sequence[int]):
    """Fitted derivative / quadrature / Heaviside-pairing orders in 1D."""
    domain = Domain(((0.0, 1.0),))
    hs, derr, qerr, herr = [], [], [], []
    for n in levels:
        level = build_level(domain, n)
        x = level.coordinates[:, 0]
        u = GridFunction(level, np.sin(2.0 * np.pi * x))
        du = derivative(u, 0)
        exact = 2.0 * np.pi * np.cos(2.0 * np.pi * x)
        interior = ~level.boundary_mask
        derr.append(float(np.max(np.abs(du.values[interior] - exact[interior]))))
        qerr.append(abs(integral(GridFunction(level, np.sin(np.pi * x))) - 2.0 / np.pi))
        # Heaviside derivative paired with a bump: the delta-pairing oracle
        # phi(jump) obtained from integration by parts in the continuum
        heav = GridFunction(level, (x >= 0.5).astype(float))
        phi = bump((0.3,), 0.25)
        phi_g = restrict(phi.fn, level)
        pairing = float((derivative(heav, 0).values * phi_g.values) @ level.weights)
        herr.append(abs(pairing - float(phi.fn(0.5))) + 1e-300)
        hs.append(level.h)
    return _fit_order(hs, derr), _fit_order(hs, qerr), hs, herr


def cmd_calculus_check(config: dict, out: Optional[pathlib.Path]) -> int:
    levels = _parse_levels(config.get("levels", "3..7"))
    instances = int(config.get("instances", 20))
    seed = int(config["seed"])
    chash = config_hash(config)

    checks: list[tuple[str, float, float, bool]] = []

    worst_sbp, worst_gauss = _check_sbp_gauss(levels, instances, seed)
    checks.append(("sbp_antisymmetry", worst_sbp, 1e-12, worst_sbp <= 1e-12))
    checks.append(("gauss_identity", worst_gauss, 1e-12, worst_gauss <= 1e-12))

    d_order, q_order, hs, herr = _check_orders(levels)
    checks.append(("derivative_order", d_order, 0.2, abs(d_order - 2.0) <= 0.2))
    checks.append(("quadrature_order", q_order, 2.0, q_order >= 2.0 - 0.2))
    h_order = _fit_order(hs, herr)
    checks.append(("heaviside_pairing_order", h_order, 0.8, h_order >= 0.8))

    # density probes and perimeter oracles at h = 1/128 in 2D
    domain2 = Domain(((0.0, 1.0), (0.0, 1.0)))
    lvl = build_level(domain2, 7)
    ball = Ball((0.5, 0.5), 0.25)
    theta = density(ball, lvl)
    grid = theta.grid_values
    probes = (
        abs(grid[64, 64] - 1.0),
        abs(density(HalfSpace(0, 0.5), lvl).grid_values[64, 64] - 0.5),
        abs(grid[0, 0]),
    )
    worst_theta = max(probes)
    checks.append(("theta_probes", worst_theta, 0.0, worst_theta == 0.0))
    sq = perimeter(Box(((0.25, 0.75), (0.25, 0.75))), lvl) / 2.0
    checks.append(("square_perimeter", abs(sq - 1.0), 0.05, abs(sq - 1.0) <= 0.05))
    dk = perimeter(ball, lvl) / (2.0 * np.pi * 0.25)
    checks.append(("disk_perimeter", abs(dk - 1.0), 0.05, abs(dk - 1.0) <= 0.05))

    kdim = derivative_kernel_dimension(build_level(Domain(((0.0, 1.0),)), levels[0]))
    checks.append(("derivative_kernel_dimension", float(kdim), 1.0, kdim == 1))

    width = max(len(name) for name, *_ in checks)
    for name, measured, threshold, passed in checks:
        verdict = "PASS" if passed else "FAIL"
        print(f"{name:<{width}}  measured={measured:.6g}  bound={threshold:.6g}  {verdict}")

    if out is not None:
        _write_table(
            out / "checks.csv",
            ["config_hash", "check", "measured", "threshold", "passed"],
            [[chash, name, m, t, p] for name, m, t, p in checks],
            config["format"],
        )
        report = {
            "config": config,
            "config_hash": chash,
            "checks": [
                {
                    "name": name,
                    "measured": _json_safe(m),
                    "threshold": _json_safe(t),
                    "passed": bool(p),
                }
                for name, m, t, p in checks
            ],
        }
        (out / "report.json").write_text(
            json.dumps(report, sort_keys=True, indent=2) + "\n", encoding="utf-8"
        )

    return EXIT_OK if all(p for *_x, p in checks) else EXIT_INVARIANT


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ultragrid",
        description="Batch runner for the nested-grid variational studies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("solve", "run one study and write its reports"),
        ("sweep", "run a list of config overrides and aggregate a summary"),
        ("calculus-check", "run the exact-identity and convergence suites"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", help="output directory")
        p.add_argument("--levels", help="level range A..B (overrides config)")
        p.add_argument("--seed", type=int, help="base RNG seed")
        p.add_argument(
            "--threads", type=int,
            help="recorded in the report; execution is single-threaded",
        )
        p.add_argument("--format", choices=("csv", "json"), help="table format")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _load_config(args)
        if args.command == "solve":
            return cmd_solve(config, _out_dir(args))
        if args.command == "sweep":
            return cmd_sweep(config, _out_dir(args))
        out = _out_dir(args) if args.out is not None else None
        return cmd_calculus_check(config, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
