#!/usr/bin/env python3
"""Time the measure kernels, the SBP derivative, ``restrict`` and the
quotient's ``value_and_grad`` and trace their memory.

Usage, from the root of a checkout::

    python3 scripts/measure_kernels.py [--levels 3..8] [--repeats 21] [--src DIR]

For each dimension 1 and 2 and each level this draws one random half-filled
``NodeMask`` and one random field ``phi`` and runs ``density`` of the mask,
``perimeter`` of the mask, ``gauss_check`` of ``phi`` on it and ``diffop``,
the level's SBP derivative ``D`` and then ``D^T`` applied along axis 0 to
``phi``'s first component, each ``--repeats`` times after one warm-up call.  Then it runs ``density`` of
one fixed 3D box (``box_density``, its sampled path) the same way at 3D
levels 2..4, whatever ``--levels`` says, and ``restrict`` of the first bump
of the standard battery at 3D levels 3..6, each call on a freshly built level
(so nothing a level caches is reused).  Last, ``quotient_vag`` evaluates the
free 3D critical quotient (``sign_perturbed_spec().build``, cube-symmetric
data: it folds every axis, so its kernels run on one octant), and
``quotient_vag_well`` the quotient with the strength-500 well at
(0.4, 0.45, 0.6), which is centred in no axis and so folds none (its
kernels run on the full grid), each at 3D levels 3..6.  Each times the
evaluation L-BFGS makes: ``value_and_grad`` of the optimizer's vector of
its first pinned bubble start, mapped by ``obj.dofs`` once, outside the
timed calls.  Prints per kernel the median and
the quartiles in milliseconds, and the traced peak of one more call above
its entry in node vectors (``tracemalloc`` bytes over 8 bytes per node),
taken apart from the timed calls.

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
import tracemalloc

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


#: The 3D levels of the box density rows.
BOX_LEVELS = range(2, 5)
#: The 3D levels of the restrict rows and of the two quotient rows.
RESTRICT_LEVELS = QUOTIENT_LEVELS = range(3, 7)


def _levels(text: str) -> range:
    lo, _, hi = text.partition("..")
    return range(int(lo), int(hi or lo) + 1)


def _peak_node_vectors(call, node_count: int) -> float:
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - entry) / (8 * node_count)


def _time(dim: int, n: int, name: str, call, node_count: int, repeats: int) -> None:
    """Print the timing quartiles and the traced peak of one kernel."""
    call()  # warm-up
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        samples.append((time.perf_counter() - start) * 1e3)
    q1, median, q3 = statistics.quantiles(samples, n=4)
    peak = _peak_node_vectors(call, node_count)
    print(
        f"{dim:>3} {n:>5} {name:<17} {median:>10.3f} {q1:>8.3f}"
        f" {q3:>8.3f} {peak:>10.2f}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--levels", type=_levels, default=_levels("3..8"))
    parser.add_argument("--repeats", type=int, default=21)
    parser.add_argument(
        "--src", default=str(pathlib.Path(__file__).resolve().parents[1] / "src")
    )
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)

    import numpy as np

    from ultragrid import (
        Box,
        Domain,
        GridFunction,
        NodeMask,
        QuadraticWell,
        build_level,
        density,
        diff_op,
        gauss_check,
        measure,
        perimeter,
        restrict,
        sign_perturbed_spec,
        standard_battery,
    )

    print(f"ultragrid from {pathlib.Path(measure.__file__).parent}")
    print(
        f"{'dim':>3} {'level':>5} {'kernel':<17} {'median ms':>10} {'q1 ms':>8}"
        f" {'q3 ms':>8} {'peak nodes':>10}"
    )
    for dim in (1, 2):
        domain = Domain(((0.0, 1.0),) * dim)
        for n in args.levels:
            level = build_level(domain, n)
            rng = np.random.default_rng(n)
            region = NodeMask(level, rng.random(level.node_count) < 0.5)
            phi = tuple(
                GridFunction(level, rng.standard_normal(level.node_count))
                for _ in range(dim)
            )
            op, u = diff_op(level), phi[0].values
            kernels = {
                "density": lambda: density(region, level),
                "perimeter": lambda: perimeter(region, level),
                "gauss_check": lambda: gauss_check(phi, region),
                "diffop": lambda: (op.apply(u, 0), op.apply_transpose(u, 0)),
            }
            for name, call in kernels.items():
                _time(dim, n, name, call, level.node_count, args.repeats)
    box = Box(((0.2, 0.65), (0.1, 0.7), (0.3, 0.9)))
    for n in BOX_LEVELS:
        level = build_level(Domain(((0.0, 1.0),) * 3), n)
        _time(3, n, "box_density", lambda: density(box, level), level.node_count, args.repeats)
    cube = Domain(((0.0, 1.0),) * 3)
    bump = standard_battery(cube)[0]
    for n in RESTRICT_LEVELS:
        count = build_level(cube, n).node_count
        _time(3, n, "restrict", lambda: restrict(bump, build_level(cube, n)), count, args.repeats)
    well = QuadraticWell((0.4, 0.45, 0.6), 500.0)
    for name, spec in (("quotient_vag", sign_perturbed_spec()),
                       ("quotient_vag_well", sign_perturbed_spec(a=well))):
        for n in QUOTIENT_LEVELS:
            level = build_level(spec.domain, n)
            obj = spec.build(level)
            x = obj.dofs(obj.pin(spec.initial_guesses(level)[0]))
            _time(3, n, name, lambda: obj.value_and_grad(x), level.node_count, args.repeats)
    return 0


if __name__ == "__main__":
    sys.exit(main())
