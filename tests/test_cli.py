"""The batch front end: exits, outputs, and byte-level determinism."""

import csv
import hashlib
import json
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

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


def _rows_without_hash(path):
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    col = rows[0].index("config_hash")
    return [row[:col] + row[col + 1:] for row in rows]


def test_sawtooth_solve_does_not_depend_on_the_seed(tmp_path):
    # the seed feeds only calculus-check: a solve at two seeds writes the
    # same tables, the config hash aside
    outs = []
    for seed in (1, 7919):
        out = tmp_path / str(seed)
        out.mkdir()
        cfg = write_config(tmp_path, dict(SAW, levels="3..6", seed=seed))
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        outs.append(out)
    names = sorted(p.name for p in outs[0].glob("*.csv"))
    assert names == ["levels.csv", "plot_convergence.csv", "psi.csv", "splitting.csv"]
    for name in names:
        assert _rows_without_hash(outs[0] / name) == _rows_without_hash(outs[1] / name), name


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


def test_unknown_top_level_key_exits_2_and_writes_nothing(tmp_path, capsys, monkeypatch):
    # a misplaced problem parameter (g_affine belongs in params) would
    # otherwise solve the default data and exit 0
    def no_solve(*args, **kwargs):
        raise AssertionError("a level was solved before the config was checked")

    payload = {"problem": "singular", "levels": "4..6", "g_affine": [1, -2.5, 0.5]}
    out = tmp_path / "out"
    with monkeypatch.context() as patch:
        patch.setattr(solver, "minimize_level", no_solve)
        for command in ("solve", "sweep", "calculus-check"):
            cfg = write_config(tmp_path, dict(payload, sweep=[{}]) if command == "sweep" else payload)
            assert main([command, "--config", cfg, "--out", str(out)]) == 2
            assert "unknown config key 'g_affine'" in capsys.readouterr().err
            assert not out.exists()
    # a sweep entry's unknown key fails that run alone
    out.mkdir()
    cfg = write_config(tmp_path, dict(SAW, sweep=[{"seed": 1}, {"g_affine": [1, -2.5, 0.5]}]))
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 3
    assert "run 1: config error: unknown config key 'g_affine'" in capsys.readouterr().err
    with open(out / "summary.csv", encoding="utf-8") as fh:
        assert [r["status"] for r in csv.DictReader(fh)] == ["0", "2"]
    assert not (out / "run_001").exists()
    # a key another command reads is unknown to this one: solve runs no sweep
    # list, calculus-check solves no problem, and a sweep entry is read as a
    # solve config
    out = tmp_path / "out2"
    for command, config, key in (
        ("solve", dict(SAW, sweep=[{}, {"seed": 1}]), "sweep"),
        ("calculus-check", {"problem": "sawtooth", "params": {}}, "params"),
        ("calculus-check", {"levels": "3..6", "problem": "sawtooth"}, "problem"),
    ):
        cfg = write_config(tmp_path, config)
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert f"config error: unknown config key {key!r}" in capsys.readouterr().err
        assert not out.exists()
    cfg = write_config(tmp_path, dict(SAW, sweep=[{"seed": 1}, {"sweep": [{}]}]))
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 3
    assert "run 1: config error: unknown config key 'sweep'" in capsys.readouterr().err
    with open(out / "summary.csv", encoding="utf-8") as fh:
        assert [r["status"] for r in csv.DictReader(fh)] == ["0", "2"]
    assert not (out / "run_001").exists()


@pytest.mark.parametrize("command, payload, extra", [
    # a bad study parameter, caught by _build_problem
    ("solve", {"problem": "singular", "params": {"g_affine": [1, 2]}}, []),
    # a level range too short for the order fits, caught by calculus-check
    ("calculus-check", {}, ["--levels", "3..4"]),
    # a sweep config without its list, and one with an entry that is no object
    ("sweep", {"problem": "sawtooth"}, []),
    ("sweep", {"problem": "sawtooth", "sweep": [{}, 5]}, []),
], ids=["solve-params", "calculus-check-levels", "sweep-no-list", "sweep-bad-entry"])
def test_bad_config_makes_no_out_dir(tmp_path, capsys, monkeypatch, command, payload, extra):
    # the missing --out is made only once the command's config has passed
    # its checks: a config error leaves no empty directory behind
    def no_solve(*args, **kwargs):
        raise AssertionError("a level was solved before the config was checked")

    monkeypatch.setattr(solver, "minimize_level", no_solve)
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out), *extra]) == 2
    assert "config error:" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_run_with_an_internal_error_fails_alone(tmp_path, capsys, monkeypatch):
    # run 0 raises inside the solve: the sweep reports it, runs the next
    # entry, writes both rows and exits 3; run_000 holds an earlier sweep's
    # report, whose value is not taken
    out = tmp_path / "out"
    cfg = write_config(tmp_path, dict(SAW, sweep=[{"seed": 0}, {"seed": 1}]))
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    real_solve_net, calls = cli.solve_net, []

    def failing_first(*args, **kwargs):
        calls.append(args)
        if len(calls) == 1:
            raise RuntimeError("boom")
        return real_solve_net(*args, **kwargs)

    monkeypatch.setattr(cli, "solve_net", failing_first)
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 3
    assert "run 0: internal error: boom" in capsys.readouterr().err
    with open(out / "summary.csv", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["run"], r["status"]) for r in rows] == [("0", "1"), ("1", "0")]
    assert np.isnan(float(rows[0]["final_value"]))
    assert np.isfinite(float(rows[1]["final_value"]))
    assert len(calls) == 2


def test_sweep_run_over_the_node_cap_makes_no_run_dir(tmp_path, capsys):
    # the run's levels pass _parse_levels, but level 9 of the 3D cube is over
    # the node cap: that run fails alone, and leaves no run directory
    out = tmp_path / "out"
    cfg = write_config(tmp_path, dict(SAW, sweep=[{}, {"problem": "sign_perturbed",
                                                        "levels": "9..11"}]))
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 3
    assert "run 1: config error: level 9 requires 135005697 nodes" in capsys.readouterr().err
    with open(out / "summary.csv", encoding="utf-8") as fh:
        assert [r["status"] for r in csv.DictReader(fh)] == ["0", "2"]
    assert (out / "run_000" / "report.json").is_file()
    assert not (out / "run_001").exists()


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=8,
)


@given(st.dictionaries(st.text(), _JSON, max_size=6))
def test_config_hash_is_hashlib_sha256(config):
    # CPython's own SHA-256 gives hashlib's digest
    expected = hashlib.sha256(cli._canonical(config).encode("utf-8")).hexdigest()[:12]
    assert cli.config_hash(config) == expected


def test_config_hash_pinned():
    # the digest of SAW's resolved config, as hashlib gave it
    assert cli.config_hash(dict(SAW, format="csv")) == "141e122767ae"


_OPENSSL_GUARD = """
import json, pathlib, sys
from ultragrid import cli

print("import", "_hashlib" in sys.modules)
root = pathlib.Path(sys.argv[1])
for name in ("sawtooth", "sign_perturbed"):
    cfg = root / (name + ".json")
    cfg.write_text(json.dumps({"problem": name}))
    code = cli.main(["solve", "--levels", "3..5", "--config", str(cfg),
                     "--out", str(root / name)])
    print(name, code, "_hashlib" in sys.modules)
"""


def test_cli_and_the_numpy_only_solves_load_no_openssl(tmp_path):
    # a fresh interpreter: importing the CLI, and a sawtooth and a quotient
    # solve after it, leave OpenSSL's _hashlib unloaded (config_hash takes
    # CPython's own SHA-256); scipy's import and numpy.random load it, so
    # the singular solve and calculus-check are not checked here
    src = str(pathlib.Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", _OPENSSL_GUARD, str(tmp_path)],
        capture_output=True, text=True, check=True, env=env,
    )
    lines = [line.split() for line in proc.stdout.splitlines()[-3:]]
    assert lines == [["import", "False"], ["sawtooth", "0", "False"],
                     ["sign_perturbed", "0", "False"]], proc.stdout


def test_readme_names_exactly_the_config_keys():
    # the README's list of the top-level keys each command reads, one item
    # per command: a key dropped from the config cannot linger in the docs
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text(encoding="utf-8")
    listed = dict(re.findall(r"^- `([a-z-]+)` reads (.*?)\.$", text, re.M | re.S))
    assert sorted(listed) == sorted(cli._CONFIG_KEYS)
    for command, keys in cli._CONFIG_KEYS.items():
        assert sorted(re.findall(r"`([^`]+)`", listed[command])) == sorted(keys), command


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


@pytest.mark.parametrize("levels, message", [
    ("0..1000000000000000", "level 1000000000000000 requires more than 16777216 nodes"),
    ("-1000000000000000..5", "levels must be non-negative"),
    ([3, 4, 1100], "level 1100 requires more than 16777216 nodes"),
], ids=["top", "start", "list"])
@pytest.mark.parametrize("command", ["solve", "calculus-check", "sweep-entry"])
def test_level_far_over_the_node_cap_exits_2_and_writes_nothing(
    tmp_path, capsys, monkeypatch, command, levels, message
):
    # a range is checked at both ends before its list is built, and
    # build_level refuses a level whose smallest axis alone is over the cap
    # before it computes 2.0**-n, which underflows to 0 at level 1100
    def no_solve(*args, **kwargs):
        raise AssertionError("a level was solved before the cap was checked")

    monkeypatch.setattr(solver, "minimize_level", no_solve)
    out = tmp_path / "out"
    if command == "sweep-entry":
        cfg = write_config(tmp_path, dict(SAW, sweep=[{"levels": levels}]))
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 3
        assert f"run 0: config error: {message}" in capsys.readouterr().err
        assert [p.name for p in out.iterdir()] == ["summary.csv"]
    else:
        cfg = write_config(tmp_path, dict(SAW, levels=levels) if command == "solve"
                           else {"levels": levels})
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert not out.exists()


def test_the_level_range_reads_the_node_cap_at_call_time(monkeypatch):
    # the top of a range is refused by build_level's own rule, on the cap as
    # it is when the config is read: with a cap of 100 nodes, level 7's axis
    # alone has 129
    monkeypatch.setattr(grid, "DEFAULT_NODE_CAP", 100)
    with pytest.raises(cli.ConfigError,
                       match="^level 7 requires more than 100 nodes, exceeding the cap$"):
        cli._parse_levels("3..7")
    assert cli._parse_levels("3..6") == [3, 4, 5, 6]


def test_calculus_check_level_over_node_cap_exits_2_before_checking(tmp_path, capsys, monkeypatch):
    # with a cap of 100 nodes the 2D level 4 (289 nodes) is over it; every
    # level is built before the first check, so no level may be checked
    def no_check(*args, **kwargs):
        raise AssertionError("a level was checked before the cap was checked")

    monkeypatch.setattr(grid, "DEFAULT_NODE_CAP", 100)
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

print("import", "concurrent.futures" in sys.modules, "numpy.ma" in sys.modules,
      "numpy.polynomial" in sys.modules)
root = pathlib.Path(sys.argv[1])
runs = [
    ("calculus-check", ["calculus-check", "--levels", "3..6"]),
    ("sawtooth", ["solve", "--levels", "3..5"], {"problem": "sawtooth"}),
    ("sign_perturbed", ["solve", "--levels", "3..5"], {"problem": "sign_perturbed"}),
    ("well", ["solve", "--levels", "3..5"], {"problem": "sign_perturbed", "params": {
        "well": {"center": [0.4, 0.5, 0.6], "strength": 500}}}),
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
          "scipy.sparse.csgraph" in sys.modules, "numpy.polynomial" in sys.modules)
"""


def test_only_the_singular_solve_loads_scipy(tmp_path):
    # a fresh interpreter: importing the CLI, a calculus check and the
    # sawtooth and quotient solves, free and with a well (whose metric takes
    # its eigenpairs from numpy.linalg), leave scipy unloaded; the singular solve,
    # whose Newton steps and harmonic start need it, loads it and still runs
    # (three levels each: both commands reject shorter ranges), without
    # scipy.sparse.csgraph: its parity blocks need no graph ordering.  The
    # import starts no thread pool, and nothing before the singular solve
    # loads numpy.ma (np.unique would, ~13 ms) or numpy.polynomial (the
    # quotient's Gauss rule is stored, not computed by leggauss; scipy
    # loads it)
    src = str(pathlib.Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", _STARTUP_GUARD, str(tmp_path)],
        capture_output=True, text=True, check=True, env=env,
    )
    out = proc.stdout.splitlines()
    lines = [out[0].split()] + [line.split() for line in out[-5:]]
    assert lines[:5] == [
        ["import", "False", "False", "False"],
        ["calculus-check", "0", "False", "False", "False", "False"],
        ["sawtooth", "0", "False", "False", "False", "False"],
        ["sign_perturbed", "0", "False", "False", "False", "False"],
        ["well", "0", "False", "False", "False", "False"],
    ], proc.stdout
    assert lines[5][:3] + lines[5][4:5] == ["singular", "0", "True", "False"], proc.stdout



_RANDOM_GUARD = """
import json, pathlib, sys
from ultragrid import cli

print("import", "numpy.random" in sys.modules, "scipy" in sys.modules)
root = pathlib.Path(sys.argv[1])
for name in sys.argv[2:]:
    out = root / name
    out.mkdir()
    argv = ["calculus-check", "--levels", "3..6"]
    if name != "calculus-check":
        cfg = root / (name + ".json")
        cfg.write_text(json.dumps({"problem": name}))
        argv = ["solve", "--levels", "3..5", "--config", str(cfg)]
    code = cli.main(argv + ["--out", str(out)])
    print(name, code, "numpy.random" in sys.modules)
"""


@pytest.mark.parametrize("requests, loaded", [
    (["sign_perturbed", "sawtooth"], ["False", "False"]),
    (["calculus-check"], ["True"]),
])
def test_only_requests_that_draw_load_numpy_random(tmp_path, requests, loaded):
    # a fresh interpreter: importing the CLI loads neither numpy.random nor
    # scipy, no solve draws and each leaves numpy.random unloaded, and
    # calculus-check's random instances load it on their first draw
    src = str(pathlib.Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", _RANDOM_GUARD, str(tmp_path), *requests],
        capture_output=True, text=True, check=True, env=env,
    )
    out = proc.stdout.splitlines()
    lines = [out[0].split()] + [line.split() for line in out[-len(requests):]]
    assert lines == [["import", "False", "False"]] + [
        [name, "0", flag] for name, flag in zip(requests, loaded)
    ], proc.stdout

def test_threads_flag_is_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--levels", "3..5", "--threads", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --threads 2" in capsys.readouterr().err


def test_report_traces_every_start(tmp_path):
    # report.json lists each start of a level in the order it ran; their
    # iterations sum to the level's, the only figure levels.csv keeps of them
    for payload, kinds in (
        # the singular study's values are not monotone: no level starts warm
        ({"problem": "singular", "levels": "4..6", "seed": 1}, [["initializer"]] * 3),
        # nor the sawtooth's, whose levels do not nest
        (SAW, [["initializer"]] * 3),
        # the quotient's levels nest: after the first, each runs its warm start alone
        ({"problem": "sign_perturbed", "levels": "3..5", "seed": 1},
         [["initializer"] * 3, ["warm"], ["warm"]]),
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


@pytest.mark.parametrize("levels", ["0..3", "1..8"])
def test_calculus_check_below_level_three_exits_2_before_checking(
    tmp_path, capsys, monkeypatch, levels
):
    # below level 3 the fits fail on correct code (1..8 fits the Heaviside
    # pairing order at ~0.51, and level 0 has no interior node), so the
    # range is a config error, found before any check runs
    def no_check(*args, **kwargs):
        raise AssertionError("a level was checked before the range was checked")

    monkeypatch.setattr(cli, "diff_op", no_check)
    monkeypatch.setattr(cli, "derivative", no_check)
    out = tmp_path / "out"
    out.mkdir()
    assert main(["calculus-check", "--levels", levels, "--out", str(out)]) == 2
    assert "from level 3 up" in capsys.readouterr().err
    assert not any(out.iterdir())


def test_sign_perturbed_level_without_interior_exits_2_before_solving(
    tmp_path, capsys, monkeypatch
):
    # level 0 of the unit cube has no interior node: every start pins to
    # zero and the quotient is 0 / 0, so the range is bad data, found when
    # the level's objective is built, before any optimizer runs
    def no_run(*args, **kwargs):
        raise AssertionError("a level was solved before its interior was checked")

    monkeypatch.setattr(solver, "_run_optimizer", no_run)
    cfg = write_config(tmp_path, {"problem": "sign_perturbed", "levels": "0..2"})
    out = tmp_path / "out"
    out.mkdir()
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 2
    assert "config error: level 0 has no interior node" in capsys.readouterr().err
    assert not any(out.iterdir())

    monkeypatch.undo()
    cfg = write_config(tmp_path, {"problem": "sign_perturbed", "levels": "1..3"})
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0


@pytest.mark.parametrize("payload, message", [
    ({"seed": -1}, "seed must be an integer >= 0"),
    ({"seed": "3"}, "seed must be an integer >= 0"),
    ({"seed": 2.5}, "seed must be an integer >= 0"),
    ({"seed": True}, "seed must be an integer >= 0"),
    ({"tolerances": [1e-4]}, "unknown config key 'tolerances'"),
    ({"tolerances": {"rtol": "tight"}}, "unknown config key 'tolerances'"),
    ({"tolerances": {"atol": 0.0}}, "unknown config key 'tolerances'"),
    ({"tolerances": {"kappa": -1.0}}, "unknown config key 'tolerances'"),
    ({"tolerances": {"gtol": 1e-8}}, "unknown config key 'tolerances'"),
    ({"levels": [3, "4", 5]}, "a level list must hold integers"),
    ({"levels": [3, 4, 4, 5]}, "levels must be distinct"),
    ({"problem": "singular", "params": {"init_floor": 0.0}},
     "unknown parameter 'init_floor' for problem 'singular'"),
    ({"params": "none"}, "bad parameters"),
    ({"problem": "sign_perturbed", "params": {"center": [0.1, 0.5, 0.5]}},
     "unknown parameter 'center' for problem 'sign_perturbed'"),
    ({"problem": "sign_perturbed", "params": {"concentration_radius": 0.0}},
     "unknown parameter 'concentration_radius' for problem 'sign_perturbed'"),
    ({"problem": "sign_perturbed", "params": {"well": {"center": [0.5, 0.5]}}},
     "the well center needs 3 coordinates"),
    ({"problem": "sign_perturbed", "params": {"well": {"center": [0.5, 0.5, 0.5, 0.9]}}},
     "the well center needs 3 coordinates"),
    ({"problem": "singular", "params": {"g_affine": [1.0, 0.3, 5.0, -0.6337]}},
     "g_affine needs 3 coefficients"),
    ({"problem": "singular", "params": {"g_affine": [0.5]}}, "g_affine needs 3 coefficients"),
    ({"problem": "sign_perturbed", "params": {"bubble_scales": []}},
     "unknown parameter 'bubble_scales' for problem 'sign_perturbed'"),
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
     "unknown parameter 'bubble_scales' for problem 'sign_perturbed'"),
    ({"problem": "singular", "params": {"g_affine": [True, 0.0, "1"]}},
     "g_affine needs real coefficients"),
    ({"problem": "singular", "params": {"init_floor": True}},
     "unknown parameter 'init_floor' for problem 'singular'"),
    # singular_spec's other arguments are callables or a Domain, and the
    # sawtooth study takes none
    ({"problem": "singular", "params": {"domain": [[0, 1], [0, 1]]}},
     "unknown parameter 'domain' for problem 'singular'"),
    ({"problem": "singular", "params": {"g": 1}}, "unknown parameter 'g' for problem 'singular'"),
    ({"problem": "singular", "params": {"Wpp": 1}}, "unknown parameter 'Wpp'"),
    ({"params": {"seed": 3}}, "unknown parameter 'seed' for problem 'sawtooth'"),
    ({"problem": "sign_perturbed", "params": {"concentration_radius": True}},
     "unknown parameter 'concentration_radius' for problem 'sign_perturbed'"),
    ({"problem": "sign_perturbed", "params": {"center": ["0.5", "0.5", "0.5"]}},
     "unknown parameter 'center' for problem 'sign_perturbed'"),
    ({"problem": "sign_perturbed", "params": {"delta": "0.25"}},
     "unknown parameter 'delta' for problem 'sign_perturbed'"),
    ({"problem": "sign_perturbed", "params": {"theta": False}},
     "unknown parameter 'theta' for problem 'sign_perturbed'"),
    # json reads NaN and Infinity, which no parameter takes; a key that set a
    # study value, now a constant, exits 2 whatever its value
    ({"problem": "singular", "params": {"init_floor": float("inf")}},
     "unknown parameter 'init_floor' for problem 'singular'"),
    ({"problem": "singular", "params": {"g_affine": [float("inf"), 0.0, 1.0]}},
     "g_affine needs real coefficients"),
    ({"problem": "sign_perturbed", "params": {"bubble_scales": [float("inf")]}},
     "unknown parameter 'bubble_scales' for problem 'sign_perturbed'"),
    ({"problem": "sign_perturbed", "params": {"center": [0.5, 0.5, float("nan")]}},
     "unknown parameter 'center' for problem 'sign_perturbed'"),
    ({"problem": "sign_perturbed", "params": {"delta": float("nan")}},
     "unknown parameter 'delta' for problem 'sign_perturbed'"),
    ({"problem": "sign_perturbed", "params": {"theta": float("nan")}},
     "unknown parameter 'theta' for problem 'sign_perturbed'"),
    # params is a JSON object: dict() would take a list of pairs
    ({"problem": "sign_perturbed", "params": [["dimension", 3]]},
     "bad parameters for problem 'sign_perturbed': params must be a JSON object"),
    ({"params": None}, "bad parameters for problem 'sawtooth': params must be a JSON object"),
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


def test_overflowing_number_exits_2_before_solving(tmp_path, capsys, monkeypatch):
    # json reads 1e400 as inf
    def no_solve(*args, **kwargs):
        raise AssertionError("a level was solved before the config was checked")

    monkeypatch.setattr(solver, "minimize_level", no_solve)
    cfg = tmp_path / "config.json"
    cfg.write_text('{"problem": "singular", "levels": "4..5", '
                   '"params": {"g_affine": [1e400, 0, 1]}}', encoding="utf-8")
    out = tmp_path / "out"
    out.mkdir()
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 2
    assert "g_affine needs real coefficients, got [inf, 0, 1]" in capsys.readouterr().err
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
    # calculus-check always draws CHECK_INSTANCES instances: a config that
    # sets the count, to any value, names the key and writes nothing
    cfg = write_config(tmp_path, {"levels": "3..6", "instances": instances})
    out = tmp_path / "out"
    out.mkdir()
    assert main(["calculus-check", "--config", cfg, "--out", str(out)]) == 2
    assert "config error: unknown config key 'instances'" in capsys.readouterr().err
    assert not any(out.iterdir())


@pytest.mark.parametrize("key, params", [
    ("tolerances", None), ("instances", None), ("delta", "sign_perturbed"),
    ("theta", "sign_perturbed"), ("center", "sign_perturbed"),
    ("bubble_scales", "sign_perturbed"), ("concentration_radius", "sign_perturbed"),
    ("init_floor", "singular"),
])
def test_removed_keys_exit_2_and_write_nothing(tmp_path, capsys, monkeypatch, key, params):
    # each value that is now a module constant, set at its former default,
    # is an unknown key: solve (and calculus-check, for a top-level key)
    # exits 2 naming it, and a sweep entry that sets it fails its run
    # without a run directory
    former = {"tolerances": {"rtol": 1e-6}, "instances": 20, "delta": 0.25, "theta": 2.0,
              "center": [0.5, 0.5, 0.5], "bubble_scales": [2.0, 4.0, 8.0],
              "concentration_radius": 0.2, "init_floor": 0.1}[key]
    if params is None:
        setting, message = {key: former}, f"unknown config key '{key}'"
        base = {"problem": "sign_perturbed", "levels": "3..5"}
    else:
        setting, message = {"params": {key: former}}, f"unknown parameter '{key}' for problem"
        base = {"problem": params, "levels": "4..6"}

    def no_solve(*args, **kwargs):
        raise AssertionError("a level was solved before the config was checked")

    commands = ["solve", "calculus-check"] if params is None else ["solve"]
    with monkeypatch.context() as patch:
        patch.setattr(solver, "minimize_level", no_solve)
        for command in commands:
            out = tmp_path / command
            out.mkdir()
            config = {**base, **setting}
            if command == "calculus-check":
                del config["problem"]  # it reads no problem
            cfg = write_config(tmp_path, config)
            assert main([command, "--config", cfg, "--out", str(out)]) == 2
            assert message in capsys.readouterr().err
            assert not any(out.iterdir())
    out = tmp_path / "sweep"
    out.mkdir()
    cfg = write_config(tmp_path, dict(SAW, sweep=[{"seed": 1}, {**base, **setting}]))
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 3
    assert f"run 1: config error: {message}" in capsys.readouterr().err
    with open(out / "summary.csv", encoding="utf-8") as fh:
        assert [r["status"] for r in csv.DictReader(fh)] == ["0", "2"]
    assert (out / "run_000").is_dir() and not (out / "run_001").exists()


def test_sweep_run_with_a_bad_value_rolls_up_to_exit_3(tmp_path, capsys):
    cfg = write_config(tmp_path, dict(SAW, sweep=[{"seed": 0}, {"seed": -2}]))
    out = tmp_path / "out"
    out.mkdir()
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 3
    assert "run 1: config error: seed must be an integer >= 0" in capsys.readouterr().err
    with open(out / "summary.csv", encoding="utf-8") as fh:
        assert [r["status"] for r in csv.DictReader(fh)] == ["0", "2"]


class _Rising(solver.LevelObjective):
    """``J(u) = sum (u - x)^2 d + n`` on level ``n``: the minimum of each
    level is its index, so the value net rises."""

    def value_and_grad(self, u):
        r = u - self.level.axes[0]
        d = self.level.weights
        return float((r * r) @ d) + self.level.n, 2.0 * r * d


def test_rising_values_fail_monotonicity_not_convergence(tmp_path, monkeypatch):
    # converged is the optimizer's gradient verdict on every row; the
    # violation is recorded in nested_monotonicity alone, which exits 1
    def rising_spec():
        return solver.ProblemSpec(
            name="rising",
            domain=grid.Domain(((0.0, 1.0),)),
            build=_Rising,
            initial_guesses=lambda level: [np.zeros(level.node_count)],
        )

    monkeypatch.setattr(cli, "sawtooth_spec", rising_spec)
    cfg = write_config(tmp_path, SAW)
    out = tmp_path / "out"
    out.mkdir()
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 1
    with open(out / "levels.csv", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["level"] for r in rows] == ["3", "4", "5"]
    for r in rows:
        met = float(r["grad_norm"]) <= 1e-8 * (1.0 + abs(float(r["value"])))
        assert r["converged"] == ("1" if met else "0")
    report = json.loads((out / "report.json").read_text())
    verdicts = report["invariants"]
    assert [k for k, v in verdicts.items() if not v["passed"]] == ["nested_monotonicity"]
    assert verdicts["nested_monotonicity"]["measured"] == [4, 5]
    assert report["partial"] is False


def test_certified_bound_violation_writes_its_report(tmp_path, monkeypatch):
    # levels 3 and 4 sit below the bound, and stop nothing: every level is
    # solved and written, and certified_lower_bound alone fails, exit 1
    monkeypatch.setattr(cli, "sawtooth_spec", lambda: solver.ProblemSpec(
        name="bounded", domain=grid.Domain(((0.0, 1.0),)), build=_Rising,
        initial_guesses=lambda level: [np.zeros(level.node_count)],
        lower_bound=4.5, monotone_values=False,
    ))
    cfg = write_config(tmp_path, SAW)
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 1
    verdicts = json.loads((out / "report.json").read_text())["invariants"]
    assert [k for k, v in verdicts.items() if not v["passed"]] == ["certified_lower_bound"]
    assert verdicts["certified_lower_bound"]["measured"] < 0.0
    with open(out / "levels.csv", encoding="utf-8") as fh:
        assert [r["level"] for r in csv.DictReader(fh)] == ["3", "4", "5"]


def test_unconverged_level_alone_exits_3(tmp_path, monkeypatch):
    # a level that missed the gradient test, every other verdict passing, is
    # a partial result: exit 3 with every file written; a sweep lists the
    # run with status 3
    minimize = solver.minimize_level

    def stalled_at_level_4(problem, level, init=None):
        res = minimize(problem, level, init)
        res.converged = level.n != 4
        return res

    monkeypatch.setattr(solver, "minimize_level", stalled_at_level_4)
    cfg = write_config(tmp_path, SAW)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert [k for k, v in report["invariants"].items() if not v["passed"]] == [
        "all_levels_converged"
    ]
    assert report["partial"] is True
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
        "config.json", "levels.csv", "plot_convergence.csv", "psi.csv", "report.json",
        "solution_level03.ugf", "solution_level04.ugf", "solution_level05.ugf", "splitting.csv"]
    cfg = write_config(tmp_path, dict(SAW, sweep=[{"seed": 0}]))
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "sweep")]) == 3
    with open(tmp_path / "sweep" / "summary.csv", encoding="utf-8") as fh:
        assert [r["status"] for r in csv.DictReader(fh)] == ["3"]


_HUGE_DIMENSION = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1_500_000_000, 1_500_000_000))
from ultragrid.cli import main
sys.exit(main(sys.argv[1:]))
"""


def test_huge_sign_perturbed_dimension_exits_2_and_writes_nothing(tmp_path):
    # level 0 of the unit box has 2**dimension nodes: a dimension over 24 is
    # refused before the domain is built; in a child capped at 1.5 GB of
    # address space, so that building a dimension-long tuple fails fast
    cfg = write_config(tmp_path, {"problem": "sign_perturbed", "levels": "3..5",
                                  "params": {"dimension": 10**9}})
    src = str(pathlib.Path(cli.__file__).parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-c", _HUGE_DIMENSION, "solve", "--config", cfg, "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    assert "dimension 1000000000: level 0 has 2**1000000000 nodes" in proc.stderr
    assert not out.exists()


def test_solver_value_error_is_an_internal_error(tmp_path, capsys, monkeypatch):
    # only a ConfigError exits 2: a ValueError, or a RuntimeError other than
    # the node cap's, raised inside the solver is a fault of the program,
    # exit 1 and one stderr line
    cfg = write_config(tmp_path, SAW)
    out = tmp_path / "out"
    out.mkdir()
    for error in (ValueError, RuntimeError):
        def broken(*args, **kwargs):
            raise error("injected solver fault")

        monkeypatch.setattr(solver, "minimize_level", broken)
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == "internal error: injected solver fault\n"


@pytest.mark.parametrize("command", ["solve", "calculus-check"])
def test_out_naming_a_file_exits_2(tmp_path, capsys, command):
    # calculus-check reads no problem
    cfg = write_config(tmp_path, dict(SAW if command == "solve" else {}, levels="3..6"))
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
