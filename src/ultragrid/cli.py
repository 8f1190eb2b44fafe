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
    aggregating a ``summary.csv``; exits 3 when any run's status is not 0.

``calculus-check``
    Run the exact-identity and convergence suites of the discrete calculus
    and measure layers, print a pass/fail table, and write ``checks.csv``.

Every CSV starts with a header row and carries a ``config_hash`` column (the
first 12 hex digits of the SHA-256 of the canonical JSON config).  Floats are
written with ``%.17g`` and no timestamps appear in any CSV, so re-running
with the same config and seed reproduces every CSV byte for byte.
Wall-clock timings live only in ``report.json``.

Exit codes: 0 success, 1 invariant failure or internal error,
2 configuration error, 3 partial result.  A ``solve`` whose verdicts all pass
but ``all_levels_converged`` is a partial result; a failed verdict of any
other kind, the ``certified_lower_bound`` one included, exits 1.  Either way
every level is solved and every file written first.  A finest level that
missed the gradient test also fails ``weak_euler_lagrange``, so it exits 1.
The config is checked before any work, so only a :class:`ConfigError` exits
2; any other ``ValueError`` or ``RuntimeError`` is a fault of the program and
exits 1 as an internal error.  A top-level config key that the command does
not read is a configuration error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import pathlib
import sys
import time
from typing import Optional, Sequence

import numpy as np

# CPython's own SHA-256 (_sha2 from 3.12, _sha256 before): hashlib would load
# OpenSSL's libcrypto, ~3.6 MB resident, for ~60 bytes of config JSON; a
# CPython built without its own hash modules still has hashlib's
try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

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
from .grid import Domain, GridLevel, ResourceLimitError, build_level, check_level_index
from .measure import Ball, Box, HalfSpace, NodeMask, density, gauss_check, perimeter
from .nets import classify
from .problems import (
    BoundaryDataError,
    QuadraticWell,
    sawtooth_spec,
    sign_perturbed_spec,
    singular_spec,
)
# prolong is not called here; perfbench/tracing.py wraps it (test_function_targets_resolve)
from .solver import SolutionNet, prolong, solve_net, split, verify_euler_lagrange

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
    return sha256(_canonical(config).encode("utf-8")).hexdigest()[:12]


def _integer(config: dict, key: str, minimum: int) -> int:
    """``config[key]``, which must be an integer of at least ``minimum``."""
    value = config[key]
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ConfigError(f"{key} must be an integer >= {minimum}, got {value!r}")
    return value


_SOLVE_KEYS = ("problem", "params", "levels", "seed", "format")
#: the top-level config keys each command reads; a sweep entry is merged
#: into a solve config
_CONFIG_KEYS = {
    "solve": _SOLVE_KEYS,
    "sweep": _SOLVE_KEYS + ("sweep",),
    "calculus-check": ("levels", "seed", "format"),
}


def _validate(config: dict, command: str) -> None:
    """Raise :class:`ConfigError` for a top-level key that ``command`` does
    not read, or for a bad value of one it reads."""
    unknown = sorted(set(config) - set(_CONFIG_KEYS[command]))
    if unknown:
        raise ConfigError(f"unknown config key {unknown[0]!r}")
    if config["format"] not in ("csv", "json"):
        raise ConfigError(f"format must be 'csv' or 'json', got {config['format']!r}")
    _integer(config, "seed", 0)


def _parse_levels(text) -> list[int]:
    """Accept ``"A..B"`` (inclusive) or a JSON list of level indices."""
    if isinstance(text, (list, tuple)):
        if not all(isinstance(n, int) and not isinstance(n, bool) for n in text):
            raise ConfigError(f"a level list must hold integers, got {text!r}")
        levels = list(text)
    else:
        parts = str(text).split("..")
        if len(parts) != 2:
            raise ConfigError(f"levels must be 'A..B' or a list, got {text!r}")
        try:
            lo, hi = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ConfigError(f"bad level range {text!r}") from exc
        # both ends are checked before the list is built; the top by
        # build_level's own rule for a level over the cap in any domain
        if lo < 0:
            raise ConfigError("levels must be non-negative")
        try:
            check_level_index(hi)
        except ResourceLimitError as exc:
            raise ConfigError(str(exc)) from exc
        levels = list(range(lo, hi + 1))
    if len(set(levels)) != len(levels):
        raise ConfigError(f"levels must be distinct, got {text!r}")
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
    for key in ("levels", "seed", "format"):
        if getattr(args, key) is not None:
            config[key] = getattr(args, key)
    config.setdefault("seed", 0)
    config.setdefault("format", "csv")
    _validate(config, args.command)
    return config


def _out_dir(args) -> pathlib.Path:
    """The ``--out`` directory, which must exist or have a parent that does.

    A missing one is not made here: each command makes it once its config
    has passed the command's own checks, so a bad config leaves none behind.
    """
    if args.out is None:
        raise ConfigError("an output directory is required (--out DIR)")
    out = pathlib.Path(args.out)
    if not out.is_dir():
        if out.exists():
            raise ConfigError(f"output location is not a directory: {out}")
        if not out.parent.is_dir():
            raise ConfigError(f"output location does not exist: {out.parent}")
    return out


def _check_params(kind: str, params: dict, accepted: Sequence[str]) -> None:
    """Raise :class:`ConfigError` naming the first key of ``params`` that the
    problem ``kind`` does not accept."""
    unknown = sorted(set(params) - set(accepted))
    if unknown:
        raise ConfigError(f"unknown parameter {unknown[0]!r} for problem {kind!r}")


def _build_problem(config: dict):
    kind = config.get("problem")
    try:
        params = config.get("params", {})
        if not isinstance(params, dict):
            raise ValueError("params must be a JSON object")
        params = dict(params)  # a copy: the well is popped, the config hashed later
        if kind == "sawtooth":
            _check_params(kind, params, ())
            return sawtooth_spec()
        if kind == "sign_perturbed":
            _check_params(kind, params, ("dimension", "well"))
            well = params.pop("well", None)
            a = None if well is None else QuadraticWell(**well)
            return sign_perturbed_spec(a=a, **params)
        if kind == "singular":
            # singular_spec's domain is not a JSON value
            _check_params(kind, params, ("g_affine",))
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


def _write_json(path: pathlib.Path, obj) -> None:
    """Write ``obj`` as indented JSON with sorted keys.

    ``np.float64`` is a ``float`` and prints as one; any other numpy scalar
    is written as the Python value its ``.item()`` gives.
    """
    text = json.dumps(obj, sort_keys=True, indent=2, default=lambda v: v.item())
    path.write_text(text + "\n", encoding="utf-8")


def _write_table(path: pathlib.Path, header: Sequence[str], rows, fmt: str) -> None:
    """Write rows either as CSV (default) or as a canonical JSON array."""
    if fmt == "json":
        _write_json(path.with_suffix(".json"), [dict(zip(header, row)) for row in rows])
        return
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _verdict(measured, threshold, passed=None) -> dict:
    """One check's verdict; by default it passes when ``measured <= threshold``."""
    return {
        "measured": measured,
        "threshold": threshold,
        "passed": measured <= threshold if passed is None else passed,
    }


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def _solve_report(problem, net: SolutionNet, chash: str) -> tuple[dict, dict]:
    """The tables and the report of a solved net; reads no clock, touches no
    file.

    ``tables`` maps each table's file name to its ``(header, rows)``, in
    the order they are written; ``report`` is ``report.json`` without the
    config echo and the timings.  ``split``, ``classify`` and
    ``verify_euler_lagrange`` are looked up in this module, where the
    benchmark's tracer wraps them.
    """
    splitting = split(net.minimizer_net())
    value_class = classify(net.value_net())
    el = verify_euler_lagrange(problem, net.results[-1])

    diag_keys = sorted({k for r in net.results for k in r.diagnostics})
    # one row per level: levels.csv, plot_convergence.csv and report.json
    # each take their columns from it
    per_level = [
        {"config_hash": chash, "level": r.level.n, "h": r.level.h,
         "dim": r.level.dimension, "value": r.value, "grad_norm": r.grad_norm,
         "iterations": r.iterations, "converged": r.converged, "psi_l2": psi_l2,
         **{k: r.diagnostics.get(k, math.nan) for k in diag_keys}}
        for r, (_n, psi_l2) in zip(net.results, splitting.psi_norms)
    ]
    tables = {}
    for name, header in (
        ("levels.csv", ["config_hash", "level", "h", "dim", "value", "grad_norm",
                        "iterations", "converged"]),
        ("plot_convergence.csv", ["config_hash", "level", "h", "value", "psi_l2"]),
    ):
        header += diag_keys
        tables[name] = (header, [[row[k] for k in header] for row in per_level])
    # the coarsest level's nodes
    tables["splitting.csv"] = (
        ["config_hash", "node", "w", "singular"],
        [[chash, i, w, bool(s)]
         for i, (w, s) in enumerate(zip(splitting.w.values, splitting.singular.mask()))],
    )
    # the remainder norms and the worst test-function pairing
    tables["psi.csv"] = (
        ["config_hash", "level", "psi_l2", "pairing_max"],
        [[chash, n, norm, max((abs(rep.values[i]) for rep in splitting.pairings), default=0.0)]
         for i, (n, norm) in enumerate(splitting.psi_norms)],
    )

    verdicts = {
        "all_levels_converged": _verdict(sum(not r.converged for r in net.results), 0),
    }
    if problem.monotone_values:
        verdicts["nested_monotonicity"] = _verdict(
            list(net.monotone_violations), "m_{n+1} <= m_n + 1e-10",
            passed=not net.monotone_violations,
        )
    if problem.lower_bound is not None:
        worst = min(r.value - problem.lower_bound for r in net.results)
        verdicts["certified_lower_bound"] = _verdict(worst, 0.0, passed=worst >= 0.0)
    el_worst = max((abs(v) for v in el.weak_residuals), default=0.0)
    verdicts["weak_euler_lagrange"] = _verdict(
        el_worst, 1e-6 * max(1.0, abs(net.results[-1].value))
    )

    singular = splitting.singular.indices
    report = {
        "config_hash": chash,
        "problem": problem.name,
        "levels": [
            {**{k: row[k] for k in ("level", "h", "value", "grad_norm", "iterations",
                                    "converged")},
             "diagnostics": r.diagnostics, "starts": [vars(s) for s in r.starts],
             "peak_rss_mb": r.peak_rss_mb}
            for r, row in zip(net.results, per_level)
        ],
        "classification": {
            "value_net": value_class.as_dict(),
            "singular_nodes": singular.tolist(),
            "singular_coordinates": splitting.w.level.coordinates_of(singular).tolist(),
            "pairings": [
                {
                    "test_index": rep.test_index,
                    "values": rep.values,
                    "classification": rep.classification.as_dict(),
                }
                for rep in splitting.pairings
            ],
        },
        "euler_lagrange": {
            "max_residual": el.max_residual,
            "l2_residual": el.l2_residual,
            "weak_residuals": el.weak_residuals,
        },
        "invariants": verdicts,
        "partial": net.partial,
    }
    return tables, report


def cmd_solve(config: dict, out: pathlib.Path) -> int:
    problem = _build_problem(config)
    levels = _parse_levels(config.get("levels", "3..5"))
    fmt = config["format"]
    chash = config_hash(config)

    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    try:
        net = solve_net(problem, levels)
    except (ResourceLimitError, BoundaryDataError) as exc:
        # a level over the node cap is a bad level range, and boundary
        # data that vanishes at some level's node, or covers every node of
        # a level, is bad data
        raise ConfigError(str(exc)) from exc
    timings["solve_s"] = time.perf_counter() - t0
    # made once solve_net has built every level under the node cap and the
    # boundary data has passed: a config error leaves no directory
    out.mkdir(exist_ok=True)

    t0 = time.perf_counter()
    tables, report = _solve_report(problem, net, chash)
    timings["analysis_s"] = time.perf_counter() - t0

    for name, (header, rows) in tables.items():
        _write_table(out / name, header, rows, fmt)
    # solution dumps (binary grid-function format; level index is embedded)
    for r in net.results:
        grid_function_to_binary(r.u, out / f"solution_level{r.level.n:02d}.ugf")
    _write_json(out / "report.json", {**report, "config": config, "timings": timings})
    _write_json(out / "config.json", {"config": config, "config_hash": chash})

    # a level that missed the gradient test, and nothing else, is a partial
    # result; any other failed verdict is an invariant failure
    verdicts = report["invariants"]
    if any(not v["passed"] for k, v in verdicts.items() if k != "all_levels_converged"):
        return EXIT_INVARIANT
    return EXIT_PARTIAL if report["partial"] else EXIT_OK


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
    run_dirs = [out / f"run_{i:03d}" for i in range(len(overrides))]
    for i, (override, run_dir) in enumerate(zip(overrides, run_dirs)):
        if not isinstance(override, dict):
            raise ConfigError(f"sweep entry {i} is not an object")
        if run_dir.exists() and not run_dir.is_dir():
            raise ConfigError(f"output location is not a directory: {run_dir}")
    out.mkdir(exist_ok=True)

    rows = []
    worst = EXIT_OK
    for i, (override, run_dir) in enumerate(zip(overrides, run_dirs)):
        run_config = _merge(base, override)
        value = float("nan")  # not an earlier run's, left in run_dir
        try:
            _validate(run_config, "solve")
            status = cmd_solve(run_config, run_dir)
        except ConfigError as exc:
            print(f"run {i}: config error: {exc}", file=sys.stderr)
            status = EXIT_CONFIG
        except (ValueError, RuntimeError) as exc:
            # a fault of the program, as in main, but in this run alone
            print(f"run {i}: internal error: {exc}", file=sys.stderr)
            status = EXIT_INVARIANT
        else:
            report = json.loads((run_dir / "report.json").read_text(encoding="utf-8"))
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


#: the random instances that calculus-check draws per level
CHECK_INSTANCES = 20


def _check_sbp_gauss(chains: Sequence[Sequence[GridLevel]], seed: int):
    """Worst relative antisymmetry / Gauss gaps over ``CHECK_INSTANCES``
    random instances per level."""
    worst_sbp = 0.0
    worst_gauss = 0.0
    rng = np.random.default_rng(seed)
    for chain in chains:
        for level in chain:
            dim = level.dimension
            op = diff_op(level)
            d = level.weights
            for _ in range(CHECK_INSTANCES):
                u = rng.standard_normal(level.node_count)
                v = rng.standard_normal(level.node_count)
                for axis in range(dim):
                    row = op.apply(u, axis)
                    lhs = float(np.multiply(row, v, out=row) @ d)
                    row = op.apply(v, axis)
                    rhs = float(np.multiply(u, row, out=row) @ d)
                    scale = max(abs(lhs), abs(rhs), 1.0)
                    worst_sbp = max(worst_sbp, abs(lhs + rhs) / scale)
                del u, v, row  # not read again: freed before the Gauss check
                mask = rng.random(level.node_count) > 0.5
                phi = tuple(
                    GridFunction(level, rng.standard_normal(level.node_count))
                    for _ in range(dim)
                )
                res = gauss_check(phi, NodeMask(level, mask))
                scale = max(abs(res.lhs), abs(res.rhs), 1.0)
                worst_gauss = max(worst_gauss, res.gap / scale)
    return worst_sbp, worst_gauss


def _check_orders(chain: Sequence[GridLevel]):
    """Fitted derivative / quadrature / Heaviside-pairing orders in 1D."""
    hs, derr, qerr, herr = [], [], [], []
    for level in chain:
        (x,) = level.axes
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
        phi_g = restrict(phi, level)
        pairing = float((derivative(heav, 0).values * phi_g.values) @ level.weights)
        herr.append(abs(pairing - float(phi(0.5))) + 1e-300)
        hs.append(level.h)
    return _fit_order(hs, derr), _fit_order(hs, qerr), hs, herr


def cmd_calculus_check(config: dict, out: Optional[pathlib.Path]) -> int:
    levels = _parse_levels(config.get("levels", "3..7"))
    seed = config["seed"]
    chash = config_hash(config)

    domain1 = Domain(((0.0, 1.0),))
    domain2 = Domain(((0.0, 1.0), (0.0, 1.0)))
    try:
        # every level is built before the first check, so a level over the
        # node cap is a bad level range and nothing is checked
        lines = [build_level(domain1, n) for n in levels]
        squares = [build_level(domain2, n) for n in levels]
        lvl = build_level(domain2, 7)
    except ResourceLimitError as exc:
        raise ConfigError(str(exc)) from exc
    if len(levels) < 4 or min(levels) < 3:
        # on correct code, three levels (3..5) fit the Heaviside pairing
        # order at ~0.74 against its bound of 0.8, a level below 3 at ~0.51
        # (1..8), and level 0 has no interior node for the derivative error
        raise ConfigError(
            "calculus-check needs at least four levels, from level 3 up, for its order fits"
        )

    worst_sbp, worst_gauss = _check_sbp_gauss((lines, squares), seed)
    d_order, q_order, hs, herr = _check_orders(lines)
    h_order = _fit_order(hs, herr)
    # density probes and perimeter oracles at h = 1/128 in 2D
    ball = Ball((0.5, 0.5), 0.25)
    grid = density(ball, lvl).grid_values
    worst_theta = max(
        abs(grid[64, 64] - 1.0),
        abs(density(HalfSpace(0, 0.5), lvl).grid_values[64, 64] - 0.5),
        abs(grid[0, 0]),
    )
    sq = perimeter(Box(((0.25, 0.75), (0.25, 0.75))), lvl) / 2.0
    dk = perimeter(ball, lvl) / (2.0 * np.pi * 0.25)
    kdim = derivative_kernel_dimension(lines[0])
    checks = {
        "sbp_antisymmetry": _verdict(worst_sbp, 1e-12),
        "gauss_identity": _verdict(worst_gauss, 1e-12),
        "derivative_order": _verdict(d_order, 0.2, passed=abs(d_order - 2.0) <= 0.2),
        "quadrature_order": _verdict(q_order, 2.0, passed=q_order >= 2.0 - 0.2),
        "heaviside_pairing_order": _verdict(h_order, 0.8, passed=h_order >= 0.8),
        "theta_probes": _verdict(worst_theta, 0.0),
        "square_perimeter": _verdict(abs(sq - 1.0), 0.05),
        "disk_perimeter": _verdict(abs(dk - 1.0), 0.05),
        "derivative_kernel_dimension": _verdict(float(kdim), 1.0, passed=kdim == 1),
    }

    width = max(map(len, checks))
    for name, v in checks.items():
        verdict = "PASS" if v["passed"] else "FAIL"
        print(f"{name:<{width}}  measured={v['measured']:.6g}  "
              f"bound={v['threshold']:.6g}  {verdict}")

    if out is not None:
        out.mkdir(exist_ok=True)
        rows = [[chash, name, v["measured"], v["threshold"], v["passed"]]
                for name, v in checks.items()]
        _write_table(out / "checks.csv",
                     ["config_hash", "check", "measured", "threshold", "passed"],
                     rows, config["format"])
        _write_json(out / "report.json", {
            "config": config,
            "config_hash": chash,
            "checks": [{"name": name, **v} for name, v in checks.items()],
        })

    return EXIT_OK if all(v["passed"] for v in checks.values()) else EXIT_INVARIANT


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
        p.add_argument("--seed", type=int, help="RNG seed of calculus-check's random instances")
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
    except (ValueError, RuntimeError) as exc:
        # the config was checked up front: this is a fault of the program
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
