"""The batch front end: exits, outputs, and byte-level determinism."""

import functools
import json
import os
import pathlib
import subprocess
import sys

import pytest

from ultragrid import cli, grid, solver
from ultragrid.cli import main

SAW = {"problem": "sawtooth", "levels": "3..5", "seed": 0}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def test_solve_sawtooth_outputs(tmp_path):
    cfg = write_config(tmp_path, SAW)
    out = tmp_path / "out"
    out.mkdir()
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    for name in (
        "levels.csv",
        "splitting.csv",
        "psi.csv",
        "plot_convergence.csv",
        "report.json",
        "config.json",
    ):
        assert (out / name).is_file(), name
    report = json.loads((out / "report.json").read_text())
    assert report["classification"]["value_net"]["kind"] == "standard"
    assert report["classification"]["value_net"]["value"] == 0.0
    assert all(v["passed"] for v in report["invariants"].values())
    # every CSV has a header and a config-hash column
    for name in ("levels.csv", "splitting.csv", "psi.csv", "plot_convergence.csv"):
        first = (out / name).read_text().splitlines()[0]
        assert first.split(",")[0] == "config_hash"


def test_solve_missing_problem_exits_2(tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    cfg = write_config(tmp_path, {"levels": "3..5"})
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 2


def test_solve_short_level_range_exits_2(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    cfg = write_config(tmp_path, {"problem": "sawtooth", "levels": "3..4"})
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 2


def test_solve_missing_out_dir_exits_2(tmp_path):
    cfg = write_config(tmp_path, SAW)
    missing = tmp_path / "no" / "such" / "dir"
    assert main(["solve", "--config", cfg, "--out", str(missing)]) == 2


def test_solve_zero_boundary_data_exits_2(tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    # g(x, y) = x - 0.25 vanishes at boundary nodes on the line x = 0.25
    bad = write_config(
        tmp_path,
        {
            "problem": "singular",
            "levels": "3..5",
            "params": {"g_affine": [1.0, 0.0, -0.25]},
        },
        name="bad.json",
    )
    assert main(["solve", "--config", bad, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "node" in err


def test_csv_determinism(tmp_path):
    cfg = write_config(tmp_path, SAW)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    out1.mkdir()
    out2.mkdir()
    assert main(["solve", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["solve", "--config", cfg, "--out", str(out2)]) == 0
    for name in ("levels.csv", "splitting.csv", "psi.csv", "plot_convergence.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_json_format(tmp_path):
    cfg = write_config(tmp_path, dict(SAW, format="json"))
    out = tmp_path / "out"
    out.mkdir()
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    records = json.loads((out / "levels.json").read_text())
    assert len(records) == 3
    assert all("config_hash" in rec for rec in records)


def test_sweep_summary(tmp_path):
    cfg = write_config(
        tmp_path, dict(SAW, sweep=[{"seed": 0}, {"seed": 1}])
    )
    out = tmp_path / "out"
    out.mkdir()
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "summary.csv").read_text().splitlines()
    assert len(lines) == 3
    assert (out / "run_000" / "report.json").is_file()
    assert (out / "run_001" / "report.json").is_file()


def test_sweep_empty_exits_2(tmp_path):
    cfg = write_config(tmp_path, dict(SAW, sweep=[]))
    out = tmp_path / "out"
    out.mkdir()
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 2


def test_calculus_check_passes(tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    code = main(["calculus-check", "--levels", "3..6", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert "FAIL" not in captured.out
    assert (out / "checks.csv").is_file()


def test_calculus_check_without_out_dir(capsys):
    assert main(["calculus-check", "--levels", "3..6"]) == 0


def test_unknown_problem_exits_2(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    cfg = write_config(tmp_path, {"problem": "mystery", "levels": "3..5"})
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 2


def test_bad_json_exits_2(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(["solve", "--config", str(path), "--out", str(out)]) == 2


def test_solve_level_over_node_cap_exits_2_before_solving(tmp_path, capsys, monkeypatch):
    # level 24 of the unit interval has 2**24 + 1 nodes, one over the cap;
    # every level is built before the first solve, so nothing may run
    def no_solve(*args, **kwargs):
        raise AssertionError("a level was solved before the cap was checked")

    monkeypatch.setattr(solver, "minimize_level", no_solve)
    out = tmp_path / "out"
    out.mkdir()
    cfg = write_config(tmp_path, {"problem": "sawtooth", "levels": "22..24"})
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 2
    assert "config error: level 24 requires" in capsys.readouterr().err
    assert not (out / "report.json").exists()


def test_calculus_check_level_over_node_cap_exits_2_before_checking(tmp_path, capsys, monkeypatch):
    # with a cap of 100 nodes the 2D level 4 (289 nodes) is over it; every
    # level is built before the first check, so no level may be checked
    def no_check(*args, **kwargs):
        raise AssertionError("a level was checked before the cap was checked")

    monkeypatch.setattr(cli, "build_level", functools.partial(grid.build_level, node_cap=100))
    monkeypatch.setattr(cli, "diff_op", no_check)
    monkeypatch.setattr(cli, "derivative", no_check)
    out = tmp_path / "out"
    out.mkdir()
    assert main(["calculus-check", "--levels", "3..5", "--out", str(out)]) == 2
    assert "config error: level 4 requires 289 nodes" in capsys.readouterr().err
    assert not (out / "checks.csv").exists()


_STARTUP_GUARD = """
import json, pathlib, sys
from ultragrid import cli

root = pathlib.Path(sys.argv[1])
runs = [
    ("calculus-check", ["calculus-check", "--levels", "3..6"]),
    ("sawtooth", ["solve", "--levels", "3..5"], {"problem": "sawtooth"}),
    ("sign_perturbed", ["solve", "--levels", "3..5"], {"problem": "sign_perturbed"}),
    ("singular", ["solve", "--levels", "3..5"], {"problem": "singular"}),
]
for name, argv, *config in runs:
    out = root / name
    out.mkdir()
    if config:
        cfg = root / (name + ".json")
        cfg.write_text(json.dumps(config[0]))
        argv = argv + ["--config", str(cfg)]
    code = cli.main(argv + ["--out", str(out)])
    print(name, code, "scipy" in sys.modules)
"""


def test_only_the_singular_solve_loads_scipy(tmp_path):
    # a fresh interpreter: importing the CLI, a calculus check and the
    # sawtooth and quotient solves leave scipy unloaded; the singular solve,
    # whose Newton steps and harmonic start need it, loads it and still runs
    # (three levels each: both commands reject shorter ranges)
    src = str(pathlib.Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", _STARTUP_GUARD, str(tmp_path)],
        capture_output=True, text=True, check=True, env=env,
    )
    lines = [line.split() for line in proc.stdout.splitlines()[-4:]]
    assert lines == [
        ["calculus-check", "0", "False"],
        ["sawtooth", "0", "False"],
        ["sign_perturbed", "0", "False"],
        ["singular", "0", "True"],
    ], proc.stdout
