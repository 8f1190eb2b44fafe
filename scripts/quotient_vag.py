#!/usr/bin/env python3
"""Time one quotient ``value_and_grad`` per 3D level.

Usage, from the root of a checkout::

    python3 scripts/quotient_vag.py [--levels 3..6] [--repeats 21] [--src DIR]

For each level this builds the free 3D critical quotient
(``sign_perturbed_spec().build``), pins its first bubble start and times
``value_and_grad`` there ``--repeats`` times after one warm-up evaluation.
Prints per level the median and the quartiles in milliseconds.

OpenBLAS and OpenMP are pinned to one thread before numpy loads, as in the
test suite and the benchmark; a value set in the environment wins.  ``--src``
names the directory the ``ultragrid`` package is imported from (default:
this checkout's ``src``), so two trees can be timed in alternating runs.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import statistics
import sys
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


def _levels(text: str) -> range:
    lo, _, hi = text.partition("..")
    return range(int(lo), int(hi or lo) + 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--levels", type=_levels, default=_levels("3..6"))
    parser.add_argument("--repeats", type=int, default=21)
    parser.add_argument(
        "--src", default=str(pathlib.Path(__file__).resolve().parents[1] / "src")
    )
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)

    from ultragrid import build_level, problems, sign_perturbed_spec

    print(f"ultragrid from {pathlib.Path(problems.__file__).parent}")
    print(f"{'level':>5} {'median ms':>10} {'q1 ms':>8} {'q3 ms':>8}")
    spec = sign_perturbed_spec()
    for n in args.levels:
        level = build_level(spec.domain, n)
        obj = spec.build(level)
        u = obj.pin(spec.initial_guesses(level, None)[0])
        obj.value_and_grad(u)  # warm-up
        samples = []
        for _ in range(args.repeats):
            start = time.perf_counter()
            obj.value_and_grad(u)
            samples.append((time.perf_counter() - start) * 1e3)
        q1, median, q3 = statistics.quantiles(samples, n=4)
        print(f"{n:>5} {median:>10.3f} {q1:>8.3f} {q3:>8.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
