"""The ultragrid benchmark: closed-loop ``ultragrid`` CLI runs, one at a time.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload quotient3d --seed 1 --seconds 20 --trace 0

One client sends one request at a time: each request is a fresh interpreter
(``perfbench/child.py``) that imports ``ultragrid.cli`` from ``src/`` and
calls ``cli.main`` on a config generated from ``--seed``; the next request
starts when the previous one has exited.  Requests repeat until
``--seconds`` have passed, at least once.  Every request is checked (see
:meth:`Bench.check`), its outputs byte for byte against the first
request's; a failed check makes the result ``"correct": false`` and the
exit code 1.

``--trace 0`` reports the end-to-end metrics, each a median over requests:
``run_s`` (wall time of the ``cli.main`` call), ``setup_s`` (interpreter
start until ``ultragrid.cli`` is imported, over at least five fresh
interpreters), ``peak_rss_mb`` and ``levels_at_gtol``.  The fail rate is
``failed / attempted`` of the result line.  ``--trace 1`` alternates
untraced and traced requests and reports the per-layer metrics of
``tracing.layer_metrics`` plus ``cli.bytes_written`` and the ``trace.*``
accounting.  The last stdout line is the JSON result; the lines before it
are a human-readable report and the machine metadata.

Seeds 1 to 21 were used while building the benchmark; a claimed gain must
also hold on the held-out seed 7919, which was used for nothing else.
"""

from __future__ import annotations

import argparse
import csv
import importlib.metadata
import json
import os
import pathlib
import platform
import shutil
import statistics
import subprocess
import sys
import time

from tracing import LAYERS, layer_metrics, span_counts

ROOT = pathlib.Path.cwd()
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"
CHILD = pathlib.Path(__file__).resolve().parent / "child.py"

#: BLAS/OpenMP threads per request: the CLI runs single-threaded, and one
#: thread keeps a request from contending with itself on a small machine.
THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: The benchmark's own gradient tolerance: ||g||_* <= GTOL * (1 + |value|).
GTOL = 1e-8
#: Tolerance of the exact discrete identities checked by ``calculus-check``.
EXACT_TOL = 1e-12
SETUP_SAMPLES = 5
#: Wall-clock budget of one benchmark process, below the 180 s limit.
DEADLINE_S = 170.0

#: Spans every ``solve`` request fires and ``calculus-check`` must not.
SOLVE_SPANS = (
    "solver.solve_net", "solver.minimize_level", "solver.prolong", "solver.split",
    "solver.verify_euler_lagrange", "nets.classify", "nets.pointwise_standard_part",
    "problems.build", "problems.vag", "grid.build_level",
)

#: Each workload's request and the spans its traced runs must fire or must
#: not fire (a self-test: a rename in ``src/`` cannot silently zero a layer).
WORKLOADS = {
    "quotient3d": {
        "args": ["solve"],
        "config": lambda seed: {"problem": "sign_perturbed", "levels": "3..5", "seed": seed},
        "fires": SOLVE_SPANS + ("elements.apply_axis", "optimize.lbfgs",
                                "problems.diagnostics"),
        "silent": ("optimize.newton", "optimize.spsolve", "problems.hessian",
                   "calculus.diffop_apply", "measure.density"),
    },
    "sawtooth1d": {
        "args": ["solve"],
        "config": lambda seed: {"problem": "sawtooth", "levels": "3..12", "seed": seed},
        "fires": SOLVE_SPANS + ("calculus.diffop_apply", "optimize.lbfgs"),
        "silent": ("elements.apply_axis", "optimize.newton", "optimize.spsolve",
                   "problems.hessian", "problems.diagnostics", "measure.density"),
    },
    "singular2d": {
        "args": ["solve"],
        "config": lambda seed: {"problem": "singular", "levels": "4..7", "seed": seed},
        "fires": SOLVE_SPANS + ("optimize.newton", "optimize.spsolve", "problems.hessian",
                                "problems.diagnostics", "calculus.diffop_apply",
                                "measure.density", "measure.perimeter"),
        "silent": ("elements.apply_axis", "optimize.lbfgs", "measure.gauss_check"),
    },
    "calculus_check": {
        "args": ["calculus-check"],
        "config": lambda seed: {"levels": "3..8", "seed": seed},
        "fires": ("calculus.diffop_apply", "measure.density", "measure.gauss_check",
                  "measure.perimeter", "grid.build_level"),
        "silent": tuple(n for n in SOLVE_SPANS if n != "grid.build_level") + (
            "optimize.lbfgs", "optimize.newton", "optimize.spsolve",
            "elements.apply_axis"),
    },
}

END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "levels_at_gtol": "count"}

#: Per-layer metrics that must repeat exactly across requests of one seed.
DETERMINISTIC = {
    "problems.vag_calls", "elements.apply_axis_calls", "elements.bytes_per_vag_computed",
    "optimize.runs", "optimize.iterations", "optimize.evals_per_iter",
    "optimize.spsolve_calls", "problems.build_calls", "grid.build_level_calls",
    "calculus.diffop_calls", "measure.density_calls", "nets.classify_calls",
    "cli.bytes_written",
}
RATIO_UNITS = {"optimize.evals_per_iter": "evals/iter",
               "elements.bytes_per_vag_computed": "bytes/eval"}


def per_layer_unit(name: str) -> str:
    if name in RATIO_UNITS:
        return RATIO_UNITS[name]
    if name == "cli.bytes_written":
        return "bytes"
    if name in DETERMINISTIC:
        return "count"
    return "ms" if name.endswith("_ms_finest") else "s"


def machine_metadata() -> dict:
    import numpy as np
    import scipy

    def blas(config):
        info = config.get("Build Dependencies", {}).get("blas", {})
        return f"{info.get('name')} {info.get('version')}"

    caches = {}
    for level in ("LEVEL1_DCACHE_SIZE", "LEVEL2_CACHE_SIZE", "LEVEL3_CACHE_SIZE"):
        try:  # getconf asks the C library, which asks the CPU
            size = subprocess.run(["getconf", level], capture_output=True, text=True,
                                  timeout=10).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            size = ""
        caches[level.split("_")[0].replace("LEVEL", "L")] = int(size) if size.isdigit() else None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "numpy_blas": blas(np.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "threads": {k: str(THREADS) for k in THREAD_VARS},
        "caches": caches,
        "bytes_note": "bytes are computed from array shapes, not measured traffic",
    }


def read_csv(path: pathlib.Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


class Bench:
    """The requests of one benchmark process and their checks."""

    def __init__(self, workload: str, seed: int, seconds: float) -> None:
        self.name = workload
        self.spec = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.start = time.monotonic()
        self.work = RUNS / f"{workload}-{seed}-{os.getpid()}"
        self.work.mkdir(parents=True)
        config = self.spec["config"](seed)
        self.config_path = self.work / "config.json"
        self.config_path.write_text(json.dumps(config), encoding="utf-8")
        self.lower_bound = {
            "sawtooth": 0.0,
            "sign_perturbed": json.loads(
                (SRC / "ultragrid" / "fixtures" / "sobolev.json").read_text()
            )["3"]["value"],
        }.get(config.get("problem"))
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        self.env.update({k: str(THREADS) for k in THREAD_VARS})
        self.count = 0
        self.reference: dict | None = None  # first good request's outputs
        self.count_reference: dict | None = None  # first traced request's counts
        self.requests: list[dict] = []  # every attempted request
        self.setup_samples: list[float] = []
        self.setup_failures = 0

    def elapsed(self) -> float:
        return time.monotonic() - self.start

    def _spawn(self, args: list[str]) -> tuple[subprocess.CompletedProcess | None, dict]:
        self.count += 1
        result = self.work / f"result{self.count}.json"
        cmd = [sys.executable, str(CHILD), str(result), str(self.count)] + args
        spawned = time.time()
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=self.env, capture_output=True, text=True,
                timeout=max(1.0, DEADLINE_S - self.elapsed()),
            )
        except subprocess.TimeoutExpired:
            return None, {}
        record = json.loads(result.read_text()) if result.is_file() else {}
        if "imported_at" in record:
            self.setup_samples.append(record["imported_at"] - spawned)
        return proc, record

    def setup_only(self) -> None:
        proc, record = self._spawn(["setup"])
        if proc is None or proc.returncode != 0 or not record:
            self.setup_failures += 1

    def request(self, traced: bool) -> None:
        out = self.work / f"out{self.count + 1}"
        out.mkdir()
        cli_args = self.spec["args"] + ["--config", str(self.config_path), "--out", str(out)]
        proc, record = self._spawn(["1" if traced else "0", "--"] + cli_args)
        req = {"traced": traced, "failures": []}
        self.requests.append(req)
        if proc is None:
            req["failures"].append("timed out")
            return
        if proc.returncode != 0 or "exit" not in record:
            req["failures"].append(f"crashed: {proc.stderr.strip()[-400:]}")
            return
        req.update(record)
        try:
            req["failures"] += self.check(req, proc.stdout, out)
        except (OSError, KeyError, ValueError) as exc:
            req["failures"].append(f"unreadable outputs: {exc!r}")
            return
        if traced:
            counts = span_counts(record["spans"])
            req["failures"] += [f"self-test: span {n} never fired"
                                for n in self.spec["fires"] if not counts.get(n)]
            req["failures"] += [f"self-test: span {n} fired {counts[n]} times"
                                for n in self.spec["silent"] if counts.get(n)]
            req["layers"] = layer_metrics(record["spans"])
            req["layers"]["cli.bytes_written"] = req["bytes_written"]
            if self.count_reference is None:
                self.count_reference = {k: req["layers"][k] for k in DETERMINISTIC}
                (RUNS / f"spans-{self.name}.json").write_text(json.dumps(record["spans"]))
            for k, v in self.count_reference.items():
                if req["layers"][k] != v:
                    req["failures"].append(f"count {k} = {req['layers'][k]}, first run {v}")

    def check(self, req: dict, stdout: str, out: pathlib.Path) -> list[str]:
        """Failed checks of one request; sets its ``levels_at_gtol``."""
        failures = []
        code = req["exit"]
        solve = self.spec["args"][0] == "solve"
        # exit 3 (partial result) is not a failure: levels_at_gtol shows it
        if code not in ((0, 3) if solve else (0,)):
            failures.append(f"exit code {code}")
            return failures
        if solve:
            report = json.loads((out / "report.json").read_text())
            # all_levels_converged is the partial-result verdict (exit 3)
            failures += [f"invariant {k} failed" for k, v in report["invariants"].items()
                         if k != "all_levels_converged" and not v["passed"]]
            levels = read_csv(out / "levels.csv")
            values = [float(r["value"]) for r in levels]
            if self.lower_bound is not None and min(values) < self.lower_bound:
                failures.append(f"value {min(values)} below the certified bound")
            req["levels_at_gtol"] = sum(
                1 for r in levels
                if float(r["grad_norm"]) <= GTOL * (1.0 + abs(float(r["value"])))
            )
        else:
            lines = [ln for ln in stdout.splitlines() if ln.strip()]
            if not lines or not all(ln.rstrip().endswith("PASS") for ln in lines):
                failures.append("calculus-check did not print all PASS")
            checks = {r["check"]: float(r["measured"]) for r in read_csv(out / "checks.csv")}
            exact = all(checks[k] <= EXACT_TOL for k in ("sbp_antisymmetry", "gauss_identity"))
            lo, hi = self.spec["config"](self.seed)["levels"].split("..")
            req["levels_at_gtol"] = int(hi) - int(lo) + 1 if exact else 0

        # report.json alone holds wall-clock timings; all else must repeat
        outputs = {p.name: p.read_bytes() for p in sorted(out.iterdir())
                   if p.name != "report.json"}
        req["bytes_written"] = sum(len(b) for b in outputs.values())
        if self.reference is None:
            self.reference = {"outputs": outputs, "levels_at_gtol": req["levels_at_gtol"]}
        else:
            if outputs != self.reference["outputs"]:
                differ = sorted(k for k in outputs.keys() | self.reference["outputs"].keys()
                                if outputs.get(k) != self.reference["outputs"].get(k))
                failures.append(f"outputs differ from the first run: {differ}")
            if req["levels_at_gtol"] != self.reference["levels_at_gtol"]:
                failures.append("levels_at_gtol differs from the first run")
        return failures

    def run(self, trace: bool) -> None:
        # tracing: untraced, traced, traced, then alternate; overhead = difference
        pattern = [False, True, True] if trace else [False]
        i = 0
        while i < len(pattern) or self.elapsed() < self.seconds:
            traced = pattern[i] if i < len(pattern) else (trace and i % 2 == 0)
            self.request(traced)
            i += 1
            if self.elapsed() > DEADLINE_S - 5:
                break
        if not trace:
            while len(self.setup_samples) < SETUP_SAMPLES and self.elapsed() < DEADLINE_S - 5:
                self.setup_only()

    def metrics(self, trace: bool) -> dict[str, tuple[float, str]]:
        good = [r for r in self.requests if "run_s" in r and not r["failures"]]
        plain = [r for r in good if not r["traced"]]
        if not trace:
            values = {
                "run_s": statistics.median(r["run_s"] for r in plain),
                "setup_s": statistics.median(self.setup_samples),
                "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
                "levels_at_gtol": plain[0]["levels_at_gtol"],
            }
            return {k: (v, END_TO_END[k]) for k, v in values.items()}
        traced = [r for r in good if r["traced"]]
        out = {}
        for name in traced[0]["layers"]:
            values = [r["layers"][name] for r in traced]
            value = values[0] if name in DETERMINISTIC else statistics.median(values)
            out[name] = (value, per_layer_unit(name))
        run_traced = statistics.median(r["run_s"] for r in traced)
        out["trace.run_s"] = (run_traced, "s")
        out["trace.overhead_s"] = (
            run_traced - statistics.median(r["run_s"] for r in plain), "s")
        out["trace.unaccounted_s"] = (statistics.median(
            r["run_s"] - sum(r["layers"][f"{layer}.self_s"] for layer in LAYERS)
            for r in traced), "s")
        return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ultragrid" / "cli.py").is_file():
        print(f"no ultragrid sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    if THREADS > (os.cpu_count() or 1):
        print(f"THREADS={THREADS} exceeds the {os.cpu_count()} processors", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    print("# machine " + json.dumps(machine_metadata(), sort_keys=True))
    bench = Bench(args.workload, args.seed, args.seconds)
    try:
        bench.run(trace)
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)

    attempted = len(bench.requests)
    failed = sum(1 for r in bench.requests if r["failures"])
    for i, r in enumerate(bench.requests):
        for f in r["failures"]:
            print(f"# request {i + 1} failed: {f}")
    if bench.setup_failures:
        print(f"# {bench.setup_failures} set-up-only interpreters failed")
    good = [r for r in bench.requests if "run_s" in r and not r["failures"]]
    if not any(not r["traced"] for r in good) or (trace and not any(r["traced"] for r in good)):
        print("no request succeeded; no metrics", file=sys.stderr)
        return 1
    metrics = bench.metrics(trace)

    print(f"# workload {args.workload} seed {args.seed}: {len(good)} good requests in "
          f"{bench.elapsed():.1f} s; medians over requests")
    for traced in (False, True):
        runs = [round(r["run_s"], 4) for r in good if r["traced"] == traced]
        if runs:
            print(f"# run_s of each {'traced' if traced else 'untraced'} request: {runs}")
    width = max(len(k) for k in metrics)
    for name, (value, unit) in metrics.items():
        print(f"{name:<{width}}  {value:.6g} {unit}")
    print(f"{'fail_rate':<{width}}  {failed / attempted:.6g} ({failed}/{attempted})")
    print(json.dumps({
        "correct": failed == 0 and not bench.setup_failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 and not bench.setup_failures else 1


if __name__ == "__main__":
    sys.exit(main())
