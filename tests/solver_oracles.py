"""References for the solver, kept with the tests.

``check_gradient`` compares an objective's analytic gradient with central
differences of its value; the study tests hold every packaged objective to
it.  ``remainders`` forms the remainders that ``split`` reports on and does
not keep.
"""

import numpy as np

from ultragrid import GridFunction, prolong


def remainders(net, w):
    """``(n, u_n - prolong(w))`` for each entry ``(n, u_n)`` of a minimizer net."""
    return [(n, GridFunction(u.level, u.values - prolong(w, u.level).values))
            for n, u in net.entries]


def check_gradient(problem, level):
    """Max relative error of the analytic gradient against central differences.

    Probes five random directions supported on the free dofs, with step
    ``1e-6`` times the start's scale, around the problem's last initializer
    (nudged to stay feasible).
    """
    obj = problem.build(level)
    rng = np.random.default_rng([0, 97, level.n])
    guesses = problem.initial_guesses(level)
    u = obj.pin(np.asarray(guesses[-1], dtype=float))
    scale = max(1.0, float(np.max(np.abs(u))))
    # nudge off any symmetry point of the functional, staying feasible
    bumped = u.copy()
    bumped[obj.free_mask] += 0.05 * scale * rng.standard_normal(int(obj.free_mask.sum()))
    if obj.feasible(bumped):
        u = bumped

    worst = 0.0
    g = obj.value_and_grad(u)[1]
    for _ in range(5):
        v = rng.standard_normal(u.size)
        v[obj.fixed_mask] = 0.0
        v /= max(np.linalg.norm(v), 1e-300)
        step = 1e-6 * scale
        up = u + step * v
        dn = u - step * v
        if not (obj.feasible(up) and obj.feasible(dn)):
            continue
        fd = (obj.value_and_grad(up)[0] - obj.value_and_grad(dn)[0]) / (2.0 * step)
        an = float(g @ v)
        denom = max(abs(fd), abs(an), 1e-10)
        worst = max(worst, abs(fd - an) / denom)
    return worst
