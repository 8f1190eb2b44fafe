"""Internal optimizers: variable-metric L-BFGS and damped Newton.

Both optimizers work on the free degrees of freedom of a nodal vector (fixed
entries are pinned) and measure convergence in the quadrature-weighted dual
norm ``||g||_* = sqrt(sum g_i^2 / d_i)`` (the L2 norm of the Riesz residual
``g / d``).  Newton takes a step-acceptance predicate, so that a feasibility
constraint (the singular study's frozen sign pattern) can reject trial points
during its line search; L-BFGS evaluates every trial point.  The tolerance
``gtol`` is a function of the current value ``f``, so a relative test such
as ``||g||_* <= 1e-8 (1 + |f|)`` is evaluated where the run is, not where it
started.  ``converged`` means that this gradient test passed and nothing
else: a run that stalls, exhausts its line search or its iterations reports
``converged`` only if its last gradient meets the test.

L-BFGS starts each two-loop recursion from ``H0 = gamma * P^-1``, where
``P`` is an SPD metric on the free dofs given as the solve ``g -> P^-1 g``.
The caller names it: ``P = diag(d)`` is the mesh-dependent L2 metric; an
objective may supply a Sobolev metric instead (Neuberger, *Sobolev
Gradients and Differential Equations*, 1997), under which the iteration
count need not grow with the level.  The stopping test stays in the
``diag(d)`` dual norm whatever the metric.

The L-BFGS line search backtracks from the unit step and accepts a trial
point that satisfies the Armijo condition ``f_new <= f + 1e-4 t g.p`` or,
failing that, the approximate Wolfe conditions of Hager & Zhang (SIAM J.
Optim. 16, 2005) with ``delta = 0.1``, ``sigma = 0.9``:
``f_new <= f + FTOL max(|f|, 1)`` and
``0.9 g.p <= g_new.p <= -0.8 g.p``.  Near a minimum the predicted decrease
``1e-4 t g.p`` falls far below the rounding of ``f`` (1e-20 against 1e-16
relative on the 3D quotient in its H1 metric), so Armijo rejects good steps
on noise and backtracks dozens of times; the gradient is still accurate
there, and the approximate Wolfe test decides from it.  Its curvature half
keeps ``s.y > 0``, so the L-BFGS update stays positive definite.

L-BFGS stores its ``MEMORY`` correction pairs ``(s, y)`` in two preallocated
``(MEMORY, n_free)`` arrays that are overwritten circularly (Nocedal, Math.
Comp. 35, 1980), and otherwise works in fixed buffers (see :func:`lbfgs`),
with the same arithmetic in the same order as a history kept in lists of
fresh arrays.

Newton solves its steps by banded Cholesky, one independent diagonal block
of the Hessian at a time: the objective lists the blocks and orders each for
a narrow band (George & Liu, *Computer Solution of Large Sparse Positive
Definite Systems*, 1981).  The only sparse LU left is
:func:`minimize_quadratic`, for semidefinite quadratic minimizations such as
a harmonic extension.

L-BFGS is numpy only.  :func:`newton` and :func:`minimize_quadratic` import
scipy (LAPACK, SuperLU) when first called, so a process that never runs them
never loads scipy.  ``spla`` (``scipy.sparse.linalg``) is a module attribute
resolved on first access.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.linalg import LinAlgError

__all__ = ["OptimizeResult", "lbfgs", "newton", "minimize_quadratic"]


def __getattr__(name: str):
    # PEP 562: ``spla`` loads scipy.sparse.linalg on first access and is then
    # an ordinary module global (which a caller may replace)
    if name == "spla":
        import scipy.sparse.linalg

        globals()["spla"] = scipy.sparse.linalg
        return scipy.sparse.linalg
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


#: L-BFGS correction pairs kept.
MEMORY = 10
#: Relative value slack of L-BFGS: the approximate Wolfe test's
#: ``f_new <= f + FTOL max(|f|, 1)`` and the stall test's decrease floor.
FTOL = 1e-12
#: Consecutive stalled iterations after which L-BFGS stops unconverged.
PATIENCE = 10


@dataclass
class OptimizeResult:
    x: np.ndarray
    value: float
    grad_norm: float
    iterations: int
    converged: bool


def _dual_norm(g: np.ndarray, d: np.ndarray) -> float:
    return float(np.sqrt(np.sum(g * g / d)))


def lbfgs(
    value_and_grad: Callable[[np.ndarray], tuple[float, np.ndarray]],
    x0: np.ndarray,
    weights: np.ndarray,
    free: np.ndarray,
    gtol: Callable[[float], float],
    max_iter: int,
    precondition: Callable[[np.ndarray], np.ndarray],
) -> OptimizeResult:
    """Two-loop-recursion L-BFGS over the free dofs of ``x0``, the entries
    where the boolean mask ``free`` is set.

    The initial inverse-Hessian guess is ``H0 = gamma * P^-1``, where
    ``precondition(v)`` returns ``P^-1 v`` for a free-dof vector ``v``
    (``v / d`` over the free weights ``d`` is the L2 metric, which
    preconditions the mesh-dependent scaling of nodal gradients).  The same
    solve gives the steepest-descent reset ``-P^-1 g`` and the scaling
    ``gamma = s.y / (y . P^-1 y)``.  A trial point that fails Armijo is
    still taken when it meets the approximate Wolfe conditions (see the
    module docstring), whose value slack is ``FTOL max(|f|, 1)``.  No trial
    point is vetoed: every one is evaluated.

    Stops when ``||g||_* <= gtol(f)`` at the current ``f``, and early after
    ``PATIENCE`` consecutive stalled iterations (functionals with a flat
    direction, such as scale-invariant quotients, can otherwise grind at
    machine precision without the gradient norm ever reaching the
    tolerance); such a stall is not convergence.  An iteration is stalled
    when its decrease of ``f`` falls below ``FTOL max(|f|, |f_new|, 1)`` and
    ``||g||_*`` does not fall below its lowest value so far: at a large
    ``|f|`` the decrease alone says nothing, since a run that still
    converges decreases ``f`` by less than its rounding.

    Stored, besides ``x0``: the ``2 * MEMORY`` history vectors of the free
    dofs in two ring arrays, with each pair's ``1 / (y.s)``, taken once when
    the pair is stored, ``x`` and the trial point (full length, swapped
    on each accepted step), and on the free dofs the weights, the gradient,
    the trial gradient, one scratch vector and the direction.  The
    two-loop's ``q`` and the trial point's gathered ``x[free]`` use the
    trial gradient's buffer until an evaluation fills it.  A new pair
    ``(s, y)`` is formed in the direction's buffer and the scratch vector
    and copied into the ring only if the curvature test keeps it, so a
    skipped pair leaves the history untouched.  The objective's full
    gradient is not kept past its evaluation.  Beyond the objective's and
    the metric's own allocations, an iteration allocates only the direction
    and the dual norm's temporaries, none of them inside an evaluation,
    where the run's memory peaks.
    """
    x = x0.copy()
    x_new = x0.copy()  # the trial point; its pinned entries are x's for good
    d = weights[free]
    # the gradient at x, the trial gradient and a scratch vector, on the free
    # dofs; the correction pairs in two rings, overwritten circularly, the
    # oldest of ``count`` pairs in row ``oldest``
    g, g_new, tmp = np.empty((3, d.size))
    s_ring = np.empty((MEMORY, d.size))
    y_ring = np.empty((MEMORY, d.size))
    rho_ring = [0.0] * MEMORY  # 1 / (y.s) of each stored pair
    count = oldest = 0
    gamma = 1.0

    def evaluate(point: np.ndarray, grad: np.ndarray) -> float:
        """``f(point)``, with the free entries of its gradient put into
        ``grad``: the full gradient is not kept."""
        f, g_full = value_and_grad(point)
        np.compress(free, g_full, out=grad)
        return f

    f = evaluate(x, g)
    gnorm = best_gnorm = _dual_norm(g, d)
    it = 0
    stalled = 0
    while it < max_iter:
        if gnorm <= gtol(f):
            return OptimizeResult(x, f, gnorm, it, True)
        if stalled >= PATIENCE:
            return OptimizeResult(x, f, gnorm, it, False)

        # two-loop recursion with H0 = gamma * P^-1, newest pair first; q
        # lives in g_new's buffer, which only the line search fills
        rows = [(oldest + j) % MEMORY for j in range(count)]
        q = g_new
        np.copyto(q, g)
        alphas = []
        for j in reversed(rows):
            s, y, rho = s_ring[j], y_ring[j], rho_ring[j]
            a = rho * (s @ q)
            q -= np.multiply(y, a, out=tmp)
            alphas.append((a, rho))
        r = gamma * precondition(q)
        for (a, rho), j in zip(reversed(alphas), rows):
            s, y = s_ring[j], y_ring[j]
            b = rho * (y @ r)
            r += np.multiply(s, a - b, out=tmp)
        p = np.negative(r, out=r)
        slope = p @ g
        if slope >= 0.0:  # not a descent direction: reset memory
            count = oldest = 0
            p = -precondition(g)
            slope = p @ g

        # backtracking: Armijo, else approximate Wolfe
        slack = FTOL * max(abs(f), 1.0)
        step = 1.0
        accepted = False
        for _bt in range(60):
            # x[free] + step p, with x[free] gathered into g_new's buffer
            # until the evaluation fills it
            np.compress(free, x, out=g_new)
            x_new[free] = np.add(g_new, np.multiply(p, step, out=tmp), out=tmp)
            f_new = evaluate(x_new, g_new)
            if np.isfinite(f_new) and (
                f_new <= f + 1e-4 * step * slope
                or (f_new <= f + slack and 0.9 * slope <= g_new @ p <= -0.8 * slope)
            ):
                accepted = True
                break
            step *= 0.5
        if not accepted:
            return OptimizeResult(x, f, gnorm, it, gnorm <= gtol(f))

        # the pair (s, y) in p's buffer and the scratch vector; copied into
        # the ring only if it is kept, so a skipped pair destroys none
        s = np.multiply(p, step, out=p)
        y = np.subtract(g_new, g, out=tmp)
        sy = s @ y
        if sy > 1e-14 * float(np.linalg.norm(s) * np.linalg.norm(y) + 1e-300):
            # near the underflow range (a gradient that keeps falling towards
            # 1e-160) 1 / (y.s) or the scaling overflow; such a pair is skipped
            with np.errstate(over="ignore", divide="ignore"):
                rho, scaling = 1.0 / sy, sy / (y @ precondition(y))
            if np.isfinite(rho) and np.isfinite(scaling):
                j = (oldest + count) % MEMORY
                s_ring[j] = s
                y_ring[j] = y
                rho_ring[j] = rho
                if count < MEMORY:
                    count += 1
                else:
                    oldest = (oldest + 1) % MEMORY
                gamma = scaling

        flat = f - f_new <= FTOL * max(abs(f), abs(f_new), 1.0)
        x, x_new = x_new, x
        f = f_new
        g, g_new = g_new, g
        gnorm = _dual_norm(g, d)
        stalled = stalled + 1 if flat and gnorm >= best_gnorm else 0
        best_gnorm = min(best_gnorm, gnorm)
        it += 1

    return OptimizeResult(x, f, gnorm, it, gnorm <= gtol(f))


def newton(
    value_and_grad: Callable[[np.ndarray], tuple[float, np.ndarray]],
    hessian: Callable[[np.ndarray], tuple[Sequence, np.ndarray]],
    x0: np.ndarray,
    weights: np.ndarray,
    free: np.ndarray,
    gtol: Callable[[float], float],
    max_iter: int,
    accept: Callable[[np.ndarray, np.ndarray], bool],
) -> OptimizeResult:
    """Damped Newton on the free dofs with an SPD Hessian ``K + diag(c(x))``.

    ``hessian(x)`` returns the pair ``(blocks, c)``.  ``c`` is the full-length
    array of the ``x``-dependent diagonal.  ``blocks`` splits ``K``'s free
    block into diagonal blocks with no coupling between them: a list of
    pairs ``(nodes, band)``, where ``nodes`` lists the dofs of one block (every
    free dof lies in exactly one block) and ``band`` is the upper band of
    ``K[nodes][:, nodes]`` in the storage of ``scipy.linalg.solveh_banded``,
    held as a scipy sparse matrix (a variable band is mostly zeros), the
    same at every ``x`` of the run.  Each step copies each block's band
    into one reused Fortran-ordered buffer, adds ``c`` to its diagonal row,
    and factors and solves it in place with banded Cholesky (LAPACK
    ``pbsv``, or ``ptsv`` when the band is tridiagonal).

    A step falls back to the preconditioned gradient step ``-g / d``
    whenever the Hessian is not positive definite (Cholesky fails) or the
    solve does not produce a finite descent direction.  No packaged study
    reaches this: the singular potential's ``W'' = 6 t**-4`` is positive, so
    the fallback is error handling for an objective whose Hessian is not.
    Line search halves the step until the value decreases and the acceptance
    predicate ``accept(x, x_new)`` passes.  Stops when
    ``||g||_* <= gtol(f)`` at the current ``f``.
    """
    from scipy.linalg import solveh_banded

    x = x0.copy()
    d = weights[free]
    f, g_full = value_and_grad(x)
    g = g_full[free]
    gnorm = _dual_norm(g, d)
    buf = None

    for it in range(max_iter):
        if gnorm <= gtol(f):
            return OptimizeResult(x, f, gnorm, it, True)

        blocks, diag = hessian(x)
        if buf is None:
            buf = np.empty(max(np.prod(band.shape) for _nodes, band in blocks))
        p = np.zeros(x.size)
        try:
            for nodes, band in blocks:
                ab = buf[: np.prod(band.shape)].reshape(band.shape, order="F")
                band.toarray(out=ab)
                ab[-1] += diag[nodes]
                p[nodes] = solveh_banded(
                    ab, -g_full[nodes], overwrite_ab=True, overwrite_b=True,
                    check_finite=False,
                )
            p = p[free]
            if not np.all(np.isfinite(p)) or p @ g >= 0.0:
                p = -g / d
        except LinAlgError:
            p = -g / d

        step = 1.0
        accepted = False
        for _bt in range(60):
            x_new = x.copy()
            x_new[free] = x[free] + step * p
            if not accept(x, x_new):
                step *= 0.5
                continue
            f_new, g_new_full = value_and_grad(x_new)
            if np.isfinite(f_new) and f_new <= f + 1e-4 * step * (p @ g):
                accepted = True
                break
            step *= 0.5
        if not accepted:
            return OptimizeResult(x, f, gnorm, it, gnorm <= gtol(f))

        x, f, g_full = x_new, f_new, g_new_full
        g = g_full[free]
        gnorm = _dual_norm(g, d)

    return OptimizeResult(x, f, gnorm, max_iter, gnorm <= gtol(f))


def minimize_quadratic(K, x: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Minimize ``1/2 y^T K y`` over ``y[nodes]``, the rest pinned to ``x``.

    Returns ``y``: it solves ``K_nn y_n = -K_np x_p`` for a scipy CSR matrix
    ``K`` by sparse LU (SuperLU with its default COLAMD column ordering,
    through the module's ``spla``).  A right-hand side that is identically
    zero gives ``y_n = 0`` without a solve, so ``K_nn`` may then be singular:
    on the parity block of the singular study with every index odd, which
    never touches the boundary, SuperLU would meet an exactly singular
    matrix and return NaN.
    """
    y = x.copy()
    y[nodes] = 0.0
    rows = K[nodes]
    rhs = -rows @ y
    if rhs.any():
        # looked up on the module, so that the first access loads it
        y[nodes] = sys.modules[__name__].spla.spsolve(rows[:, nodes].tocsc(), rhs)
    return y
