"""``scripts/measure_kernels.py``: the kernel timings and memory peaks that
change notes report."""

import importlib.util
import pathlib

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "measure_kernels.py"


def test_main_prints_quartiles_and_peaks_per_kernel(capsys):
    spec = importlib.util.spec_from_file_location("_measure_kernels", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.main(["--levels", "2..3", "--repeats", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("ultragrid from ")
    assert lines[1].split() == [
        "dim", "level", "kernel", "median", "ms", "q1", "ms", "q3", "ms", "peak", "nodes"
    ]
    rows = [line.split() for line in lines[2:]]
    kernels = ["density", "perimeter", "gauss_check", "diffop"]
    assert [row[:3] for row in rows] == [
        [dim, n, kernel] for dim in ("1", "2") for n in ("2", "3") for kernel in kernels
    ] + [["3", n, "box_density"] for n in ("2", "3", "4")] + [
        ["3", n, kernel]
        for kernel in ("restrict", "quotient_vag", "quotient_vag_well")
        for n in ("3", "4", "5", "6")
    ]
    # median, first and third quartile in ms, then the traced peak
    for _dim, _n, _kernel, median, q1, q3, peak in rows:
        assert 0.0 < float(q1) <= float(median) <= float(q3)
        assert float(peak) > 0.0
