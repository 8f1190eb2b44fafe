"""The quotient kernel timings that change notes report: the ``quotient_vag``
rows of ``scripts/measure_kernels.py``."""

import importlib.util
import pathlib

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "measure_kernels.py"


def test_main_prints_quartiles_per_level(capsys):
    spec = importlib.util.spec_from_file_location("_measure_kernels", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.main(["--levels", "2..2", "--repeats", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("ultragrid from ")
    rows = [line.split() for line in lines[2:] if line.split()[2] == "quotient_vag"]
    assert [row[:2] for row in rows] == [["3", str(n)] for n in module.QUOTIENT_LEVELS]
    # median, first and third quartile in ms
    assert all(0.0 < float(q1) <= float(median) <= float(q3) for *_, median, q1, q3, _peak in rows)
