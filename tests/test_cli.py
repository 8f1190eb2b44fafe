"""The batch front end: exits, outputs, and byte-level determinism."""

import csv
import functools
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from ultragrid import cli, grid, problems, solver
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


def test_sweep_run_failing_its_config_check_reports_no_stale_value(tmp_path):
    # run_001 of a reused output directory holds an earlier run's report
    out = tmp_path / "out"
    out.mkdir()
    cfg = write_config(tmp_path, dict(SAW, sweep=[{"seed": 0}, {"seed": 1}]))
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "run_001" / "report.json").is_file()
    cfg = write_config(tmp_path, dict(SAW, sweep=[{"seed": 1}, {"problem": "nope"}]))
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 3
    with open(out / "summary.csv", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["status"] for r in rows] == ["0", "2"]
    assert np.isfinite(float(rows[0]["final_value"]))
    assert np.isnan(float(rows[1]["final_value"]))


def test_sweep_run_dir_naming_a_file_exits_2_before_any_run(tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    taken = out / "run_001"
    taken.write_text("not a directory\n", encoding="utf-8")
    cfg = write_config(tmp_path, dict(SAW, sweep=[{"seed": 0}, {"seed": 1}]))
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 2
    assert f"output location is not a directory: {taken}" in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == ["run_001"]
    assert taken.read_text(encoding="utf-8") == "not a directory\n"


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

print("import", "concurrent.futures" in sys.modules, "numpy.ma" in sys.modules)
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
    print(name, code, "scipy" in sys.modules, "numpy.ma" in sys.modules,
          "scipy.sparse.csgraph" in sys.modules)
"""


def test_only_the_singular_solve_loads_scipy(tmp_path):
    # a fresh interpreter: importing the CLI, a calculus check and the
    # sawtooth and quotient solves leave scipy unloaded; the singular solve,
    # whose Newton steps and harmonic start need it, loads it and still runs
    # (three levels each: both commands reject shorter ranges), without
    # scipy.sparse.csgraph: its parity blocks need no graph ordering.  The
    # import starts no thread pool, and nothing before the singular solve
    # loads numpy.ma (np.unique would, ~13 ms)
    src = str(pathlib.Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", _STARTUP_GUARD, str(tmp_path)],
        capture_output=True, text=True, check=True, env=env,
    )
    out = proc.stdout.splitlines()
    lines = [out[0].split()] + [line.split() for line in out[-4:]]
    assert lines[:4] == [
        ["import", "False", "False"],
        ["calculus-check", "0", "False", "False", "False"],
        ["sawtooth", "0", "False", "False", "False"],
        ["sign_perturbed", "0", "False", "False", "False"],
    ], proc.stdout
    assert lines[4][:3] + lines[4][4:] == ["singular", "0", "True", "False"], proc.stdout


def test_threads_change_no_output_and_no_hash(tmp_path, monkeypatch):
    # --threads 2 splits the level-5 quotient sweep in two, --threads 1 not at
    # all; every output but report.json, which records the count, is the same
    pools = []
    helper_pool = problems._helper_pool
    monkeypatch.setattr(problems, "_helper_pool", lambda n: pools.append(n) or helper_pool(n))
    payload = {"problem": "sign_perturbed", "levels": "3..5", "seed": 1}
    cfg = write_config(tmp_path, payload)
    outputs = []
    for threads in (1, 2):
        out = tmp_path / f"out{threads}"
        out.mkdir()
        argv = ["solve", "--config", cfg, "--out", str(out), "--threads", str(threads)]
        assert main(argv) == 0
        # helper threads asked for: none with one thread, one with two
        assert set(pools) == ({1} if threads == 2 else set())
        report = json.loads((out / "report.json").read_text())
        assert report["threads"] == threads
        outputs.append({p.name: p.read_bytes() for p in out.iterdir() if p.name != "report.json"})
    assert outputs[0] == outputs[1]
    written = json.loads(outputs[0]["config.json"])
    assert "threads" not in written["config"]
    assert written["config_hash"] == cli.config_hash({**written["config"], "threads": 7})


@pytest.mark.parametrize("threads", [0, -1, 1.5, "2", True])
def test_threads_below_one_or_not_an_integer_exits_2(tmp_path, capsys, threads):
    cfg = write_config(tmp_path, {**SAW, "threads": threads})
    out = tmp_path / "out"
    out.mkdir()
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 2
    assert "threads must be an integer >= 1" in capsys.readouterr().err
    assert not any(out.iterdir())
    assert main(["calculus-check", "--levels", "3..5", "--threads", "0"]) == 2


def test_report_traces_every_start(tmp_path):
    # report.json lists each start of a level in the order it ran; their
    # iterations sum to the level's, the only figure levels.csv keeps of them
    for payload, kinds in (
        # the singular study's values are not monotone: no level starts warm
        ({"problem": "singular", "levels": "4..6", "seed": 1}, [["initializer"]] * 3),
        (SAW, [["initializer", "initializer", "random"]]
         + [["warm", "initializer", "initializer"]] * 2),
    ):
        cfg = write_config(tmp_path, payload)
        out = tmp_path / payload["problem"]
        out.mkdir()
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        with open(out / "levels.csv", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert "starts" not in rows[0]
        assert [[s["kind"] for s in lv["starts"]] for lv in report["levels"]] == kinds
        for lv, row in zip(report["levels"], rows):
            assert sum(s["iterations"] for s in lv["starts"]) == lv["iterations"]
            assert lv["iterations"] == int(row["iterations"])
            assert all(s["converged"] for s in lv["starts"])
            assert lv["value"] == min(s["value"] for s in lv["starts"])


def test_report_records_peak_rss_per_level(tmp_path):
    # each level's entry records the process's high-water mark after it:
    # present, positive and non-decreasing, and in report.json only
    cfg = write_config(tmp_path, SAW)
    out = tmp_path / "out"
    out.mkdir()
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    peaks = [lv["peak_rss_mb"] for lv in report["levels"]]
    assert len(peaks) == 3 and all(isinstance(p, float) and p > 0.0 for p in peaks)
    assert peaks == sorted(peaks)
    for path in out.glob("*.csv"):
        assert "peak_rss" not in path.read_text(), path.name


def test_calculus_check_three_levels_exits_2(tmp_path, capsys):
    # three coarse levels fit the Heaviside pairing order below its bound on
    # correct code, so a range too short for the fits is a config error
    out = tmp_path / "out"
    out.mkdir()
    assert main(["calculus-check", "--levels", "3..5", "--out", str(out)]) == 2
    assert "at least four levels" in capsys.readouterr().err
    assert not any(out.iterdir())
    cfg = write_config(tmp_path, {"levels": [3, 4, 5]})
    assert main(["calculus-check", "--config", cfg]) == 2


@pytest.mark.parametrize("payload, message", [
    ({"seed": -1}, "seed must be an integer >= 0"),
    ({"seed": "3"}, "seed must be an integer >= 0"),
    ({"multistart": 0}, "multistart must be an integer >= 1"),
    ({"multistart": 2.5}, "multistart must be an integer >= 1"),
    ({"tolerances": [1e-4]}, "tolerances must be an object"),
    ({"tolerances": {"rtol": "tight"}}, "tolerance rtol must be a finite number > 0"),
    ({"tolerances": {"atol": 0.0}}, "tolerance atol must be a finite number > 0"),
    ({"tolerances": {"kappa": -1.0}}, "tolerance kappa must be a finite number >= 0"),
    ({"tolerances": {"gtol": 1e-8}}, "unknown tolerance 'gtol'"),
    ({"levels": [3, "4", 5]}, "a level list must hold integers"),
    ({"levels": [3, 4, 4, 5]}, "levels must be distinct"),
    ({"problem": "singular", "params": {"init_floor": 0.0}}, "init_floor must be positive"),
    ({"params": "none"}, "bad parameters"),
    ({"problem": "sign_perturbed", "params": {"center": [0.1, 0.5, 0.5]}},
     "bubble support exceeds the domain box"),
    ({"problem": "sign_perturbed", "params": {"concentration_radius": 0.0}},
     "radius must be positive"),
    ({"problem": "sign_perturbed", "params": {"well": {"center": [0.5, 0.5]}}},
     "the well center needs 3 coordinates"),
    ({"problem": "sign_perturbed", "params": {"well": {"center": [0.5, 0.5, 0.5, 0.9]}}},
     "the well center needs 3 coordinates"),
    ({"problem": "singular", "params": {"g_affine": [1.0, 0.3, 5.0, -0.6337]}},
     "g_affine needs 3 coefficients"),
    ({"problem": "singular", "params": {"g_affine": [0.5]}}, "g_affine needs 3 coefficients"),
    ({"problem": "sign_perturbed", "params": {"bubble_scales": []}},
     "bubble_scales needs at least one scale"),
    ({"problem": "sign_perturbed", "params": {"well": {"center": [0.5] * 3, "strength": "nan"}}},
     "the well needs a finite center and strength"),
    ({"problem": "sign_perturbed", "params": {"well": {"center": [0.5] * 3, "strength": "inf"}}},
     "the well needs a finite center and strength"),
    ({"problem": "sign_perturbed", "params": {"well": {"center": [0.5, float("nan"), 0.5]}}},
     "the well needs a finite center and strength"),
    ({"problem": "sign_perturbed", "params": {"well": {"center": [0.5] * 3, "strenght": 500}}},
     "unexpected keyword argument 'strenght'"),
    # float() takes a bool or a numeric string, the config does not
    ({"problem": "sign_perturbed", "params": {"well": {"center": [0.5] * 3, "strength": True}}},
     "the well needs a finite center and strength"),
    ({"problem": "sign_perturbed", "params": {"well": {"center": [0.5] * 3, "strength": "500"}}},
     "the well needs a finite center and strength"),
    ({"problem": "sign_perturbed", "params": {"well": {"center": [0.5, True, 0.5]}}},
     "the well needs a finite center and strength"),
    ({"problem": "sign_perturbed", "params": {"well": {"center": ["0.4", 0.5, 0.6]}}},
     "the well needs a finite center and strength"),
    ({"problem": "sign_perturbed", "params": {"bubble_scales": [True, 2.0]}},
     "bubble_scales needs at least one scale, each real"),
    ({"problem": "singular", "params": {"g_affine": [True, 0.0, "1"]}},
     "g_affine needs real coefficients"),
    ({"problem": "singular", "params": {"init_floor": True}}, "init_floor must be positive"),
])
def test_bad_config_values_exit_2_before_solving(tmp_path, capsys, monkeypatch, payload, message):
    def no_solve(*args, **kwargs):
        raise AssertionError("a level was solved before the config was checked")

    monkeypatch.setattr(solver, "minimize_level", no_solve)
    cfg = write_config(tmp_path, {**SAW, **payload})
    out = tmp_path / "out"
    out.mkdir()
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not any(out.iterdir())


def test_negative_well_solves_without_a_certified_bound(tmp_path):
    # a negative strength is a valid well, but the sharp constant no longer
    # bounds its quotient from below, so the verdict is left out
    well = {"center": [0.5, 0.5, 0.5], "strength": -5.0}
    cfg = write_config(tmp_path, {"problem": "sign_perturbed", "levels": "2..4", "seed": 1,
                                  "params": {"well": well}})
    out = tmp_path / "out"
    out.mkdir()
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    invariants = json.loads((out / "report.json").read_text())["invariants"]
    assert "certified_lower_bound" not in invariants
    assert invariants["all_levels_converged"]["passed"]


@pytest.mark.parametrize("instances", [0, "20", None])
def test_calculus_check_bad_instances_exits_2(tmp_path, capsys, instances):
    cfg = write_config(tmp_path, {"levels": "3..6", "instances": instances})
    assert main(["calculus-check", "--config", cfg]) == 2
    assert "instances must be an integer >= 1" in capsys.readouterr().err


def test_sweep_run_with_a_bad_value_rolls_up_to_exit_3(tmp_path, capsys):
    cfg = write_config(tmp_path, dict(SAW, sweep=[{"seed": 0}, {"seed": -2}]))
    out = tmp_path / "out"
    out.mkdir()
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 3
    assert "run 1: config error: seed must be an integer >= 0" in capsys.readouterr().err
    with open(out / "summary.csv", encoding="utf-8") as fh:
        assert [r["status"] for r in csv.DictReader(fh)] == ["0", "2"]


def test_solver_value_error_is_an_internal_error(tmp_path, capsys, monkeypatch):
    # only a ConfigError exits 2: a ValueError raised inside the solver is a
    # fault of the program, exit 1
    def broken(*args, **kwargs):
        raise ValueError("injected solver fault")

    monkeypatch.setattr(solver, "minimize_level", broken)
    cfg = write_config(tmp_path, SAW)
    out = tmp_path / "out"
    out.mkdir()
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "internal error: injected solver fault" in err
    assert "config error" not in err


@pytest.mark.parametrize("command", ["solve", "calculus-check"])
def test_out_naming_a_file_exits_2(tmp_path, capsys, command):
    cfg = write_config(tmp_path, dict(SAW, levels="3..6"))
    target = tmp_path / "taken"
    target.write_text("not a directory\n", encoding="utf-8")
    assert main([command, "--config", cfg, "--out", str(target)]) == 2
    assert f"output location is not a directory: {target}" in capsys.readouterr().err
    assert target.read_text(encoding="utf-8") == "not a directory\n"


def test_write_json_numpy_scalars_as_python_values(tmp_path):
    # numpy scalars, bare or nested in lists, tuples and dicts, are written
    # as the equal Python values are
    def payload(f, i, b):
        return {"f": f, "i": i, "b": b, "seq": [f, (i, b), {"x": [f, i]}],
                "pair": (b, f), "nan": f * float("nan"), "neg0": -0.0 * f}

    numpy_path, python_path = tmp_path / "numpy.json", tmp_path / "python.json"
    for f in (0.1, 1.0 / 3.0, 2.5e-300, -1e17):
        cli._write_json(numpy_path, payload(np.float64(f), np.int64(-7), np.bool_(True)))
        cli._write_json(python_path, payload(f, -7, True))
        assert numpy_path.read_bytes() == python_path.read_bytes()
    cli._write_json(numpy_path, [np.float32(0.5), np.int32(3), np.bool_(False)])
    assert numpy_path.read_text(encoding="utf-8") == "[\n  0.5,\n  3,\n  false\n]\n"


@pytest.mark.parametrize("levels", ["0..2", "1..3"])
def test_singular_solve_below_level_two(tmp_path, levels):
    # the level-1 harmonic start used to be NaN (an exactly singular 1x1
    # block), which ended the solve with exit 1
    cfg = write_config(tmp_path, {"problem": "singular", "levels": levels})
    out = tmp_path / "out"
    out.mkdir()
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    with open(out / "levels.csv", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["level"] for r in rows] == [str(n) for n in range(int(levels[0]), int(levels[0]) + 3)]
    assert all(np.isfinite(float(r["value"])) for r in rows)
