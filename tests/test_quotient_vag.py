"""``scripts/quotient_vag.py``: the quotient kernel timings that change notes report."""

import importlib.util
import pathlib

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "quotient_vag.py"


def test_main_prints_quartiles_per_level(capsys):
    spec = importlib.util.spec_from_file_location("_quotient_vag", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.main(["--levels", "2..3", "--repeats", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("ultragrid from ")
    assert lines[1].split() == ["level", "median", "ms", "q1", "ms", "q3", "ms"]
    rows = [line.split() for line in lines[2:]]
    assert [row[0] for row in rows] == ["2", "3"]
    # median, first and third quartile in ms
    assert all(0.0 < float(q1) <= float(median) <= float(q3) for _, median, q1, q3 in rows)
