"""References for the solver, kept with the tests.

``check_gradient`` compares an objective's analytic gradient with central
differences of its value; the study tests hold every packaged objective to
it.  ``remainders`` forms the remainders that ``split`` reports on and does
not keep.  ``node_value_and_grad`` evaluates an objective at a node vector
through its optimizer vector and returns the gradient on the nodes.
"""

import numpy as np

from ultragrid import GridFunction, prolong


def remainders(net, w):
    """``(n, u_n - prolong(w))`` for each entry ``(n, u_n)`` of a minimizer net."""
    return [(n, GridFunction(u.level, u.values - prolong(w, u.level).values))
            for n, u in net.entries]


def mirror_counts(obj):
    """The number of nodes each entry of ``obj``'s optimizer vector stands
    for: its weight over its node's."""
    return obj.dof_weights / obj.dofs(obj.level.weights)


def node_gradient(obj, g):
    """The node vector of the gradient ``g`` in ``obj``'s optimizer vector:
    each node's share of its dof's, the dof's over its mirror count."""
    return obj.nodes(g / mirror_counts(obj))


def node_value_and_grad(obj, u):
    """``obj``'s value at the node vector ``u`` (through ``dofs``) and its
    gradient there on the nodes: for the quotient, the full grid's at its
    free nodes and zero on the boundary."""
    value, g = obj.value_and_grad(obj.dofs(u))
    return value, node_gradient(obj, g)


def check_gradient(problem, level):
    """Max relative error of the analytic gradient against central differences.

    Probes five random directions of the optimizer's vector supported on its
    free entries, with step ``1e-6`` times the start's scale, around the
    problem's last initializer (nudged to stay feasible).
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

    x = obj.dofs(u)
    worst = 0.0
    g = obj.value_and_grad(x)[1]
    for _ in range(5):
        v = rng.standard_normal(x.size)
        v[~obj.dof_free] = 0.0
        v /= max(np.linalg.norm(v), 1e-300)
        step = 1e-6 * scale
        up = x + step * v
        dn = x - step * v
        if not (obj.feasible(obj.nodes(up)) and obj.feasible(obj.nodes(dn))):
            continue
        fd = (obj.value_and_grad(up)[0] - obj.value_and_grad(dn)[0]) / (2.0 * step)
        an = float(g @ v)
        denom = max(abs(fd), abs(an), 1e-10)
        worst = max(worst, abs(fd - an) / denom)
    return worst
