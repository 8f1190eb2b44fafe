"""Internal optimizers: variable-metric L-BFGS and damped Newton.

Both optimizers work on the free degrees of freedom of a nodal vector (fixed
entries are pinned), measure convergence in the quadrature-weighted dual norm
``||g||_* = sqrt(sum g_i^2 / d_i)`` (the L2 norm of the Riesz residual
``g / d``), and support a step-acceptance predicate so that feasibility
constraints (for instance a frozen sign pattern) can reject trial points
during the line search.  The tolerance ``gtol`` is a number or a function of
the current value ``f``, so a relative test such as
``||g||_* <= 1e-8 (1 + |f|)`` is evaluated where the run is, not where it
started.  ``converged`` means that this gradient test passed and nothing
else: a run that stalls, exhausts its line search or its iterations reports
``converged`` only if its last gradient meets the test.

L-BFGS starts each two-loop recursion from ``H0 = gamma * P^-1``, where
``P`` is an SPD metric on the free dofs given as the solve ``g -> P^-1 g``.
The default ``P = diag(d)`` is the mesh-dependent L2 metric; an objective
may supply a Sobolev metric instead (Neuberger, *Sobolev Gradients and
Differential Equations*, 1997), under which the iteration count need not
grow with the level.  The stopping test stays in the ``diag(d)`` dual norm
whatever the metric.

The L-BFGS line search backtracks from the unit step and accepts a trial
point that satisfies the Armijo condition ``f_new <= f + 1e-4 t g.p`` or,
failing that, the approximate Wolfe conditions of Hager & Zhang (SIAM J.
Optim. 16, 2005) with ``delta = 0.1``, ``sigma = 0.9``:
``f_new <= f + ftol max(|f|, 1)`` and
``0.9 g.p <= g_new.p <= -0.8 g.p``.  Near a minimum the predicted decrease
``1e-4 t g.p`` falls far below the rounding of ``f`` (1e-20 against 1e-16
relative on the 3D quotient in its H1 metric), so Armijo rejects good steps
on noise and backtracks dozens of times; the gradient is still accurate
there, and the approximate Wolfe test decides from it.  Its curvature half
keeps ``s.y > 0``, so the L-BFGS update stays positive definite.

Newton solves its steps by in-place banded Cholesky on a reverse
Cuthill-McKee ordering of the free dofs (George & Liu, *Computer Solution of
Large Sparse Positive Definite Systems*, 1981).  The only sparse LU left is
:func:`minimize_quadratic`, for semidefinite quadratic minimizations such as
a harmonic extension.

L-BFGS is numpy only.  :func:`newton` and :func:`minimize_quadratic` import
scipy (LAPACK, the sparse ordering, SuperLU) when first called, so a process
that never runs them never loads scipy.  ``spla`` (``scipy.sparse.linalg``)
is a module attribute resolved on first access.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Callable, Optional

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


Tolerance = float | Callable[[float], float]


@dataclass
class OptimizeResult:
    x: np.ndarray
    value: float
    grad_norm: float
    iterations: int
    converged: bool


def _dual_norm(g: np.ndarray, d: np.ndarray) -> float:
    return float(np.sqrt(np.sum(g * g / d)))


def _tolerance(gtol: Tolerance) -> Callable[[float], float]:
    """``gtol`` as a function of the current value."""
    return gtol if callable(gtol) else (lambda f: gtol)


def lbfgs(
    value_and_grad: Callable[[np.ndarray], tuple[float, np.ndarray]],
    x0: np.ndarray,
    weights: np.ndarray,
    free: np.ndarray,
    gtol: Tolerance,
    max_iter: int = 10_000,
    memory: int = 10,
    accept: Optional[Callable[[np.ndarray, np.ndarray], bool]] = None,
    ftol: float = 1e-12,
    patience: int = 10,
    precondition: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> OptimizeResult:
    """Two-loop-recursion L-BFGS over the free dofs of ``x0``.

    The initial inverse-Hessian guess is ``H0 = gamma * P^-1``, where
    ``precondition(v)`` returns ``P^-1 v`` for a free-dof vector ``v``; the
    default ``P = diag(d)`` over the free weights ``d`` preconditions the
    mesh-dependent scaling of nodal gradients.  The same solve gives the
    steepest-descent reset ``-P^-1 g`` and the scaling
    ``gamma = s.y / (y . P^-1 y)``.  ``accept(x_old, x_new)`` may veto a
    trial point; vetoed steps shrink the line-search parameter like an
    Armijo failure.  A trial point that fails Armijo is still taken when it
    meets the approximate Wolfe conditions (see the module docstring), whose
    value slack is ``ftol max(|f|, 1)``.

    Stops when ``||g||_* <= gtol(f)`` at the current ``f``, and early after
    ``patience`` consecutive stalled iterations (functionals with a flat
    direction, such as scale-invariant quotients, can otherwise grind at
    machine precision without the gradient norm ever reaching the
    tolerance); such a stall is not convergence.  An iteration is stalled
    when its decrease of ``f`` falls below ``ftol max(|f|, |f_new|, 1)`` and
    ``||g||_*`` does not fall below its lowest value so far: at a large
    ``|f|`` the decrease alone says nothing, since a run that still
    converges decreases ``f`` by less than its rounding.
    """
    tol = _tolerance(gtol)
    x = x0.copy()
    d = weights[free]
    if precondition is None:
        def precondition(v: np.ndarray) -> np.ndarray:
            return v / d
    f, g_full = value_and_grad(x)
    g = g_full[free]
    s_list: list[np.ndarray] = []
    y_list: list[np.ndarray] = []
    gamma = 1.0

    gnorm = best_gnorm = _dual_norm(g, d)
    it = 0
    stalled = 0
    while it < max_iter:
        if gnorm <= tol(f):
            return OptimizeResult(x, f, gnorm, it, True)
        if stalled >= patience:
            return OptimizeResult(x, f, gnorm, it, False)

        # two-loop recursion with H0 = gamma * P^-1
        q = g.copy()
        alphas = []
        for s, y in zip(reversed(s_list), reversed(y_list)):
            rho = 1.0 / (y @ s)
            a = rho * (s @ q)
            q -= a * y
            alphas.append((a, rho))
        r = gamma * precondition(q)
        for (a, rho), (s, y) in zip(reversed(alphas), zip(s_list, y_list)):
            b = rho * (y @ r)
            r += (a - b) * s
        p = -r
        if p @ g >= 0.0:  # not a descent direction: reset memory
            s_list.clear()
            y_list.clear()
            p = -precondition(g)

        # backtracking with feasibility veto: Armijo, else approximate Wolfe
        slope = p @ g
        slack = ftol * max(abs(f), 1.0)
        step = 1.0
        accepted = False
        for _bt in range(60):
            x_new = x.copy()
            x_new[free] = x[free] + step * p
            if accept is not None and not accept(x, x_new):
                step *= 0.5
                continue
            f_new, g_new_full = value_and_grad(x_new)
            g_new = g_new_full[free]
            if np.isfinite(f_new) and (
                f_new <= f + 1e-4 * step * slope
                or (f_new <= f + slack and 0.9 * slope <= g_new @ p <= -0.8 * slope)
            ):
                accepted = True
                break
            step *= 0.5
        if not accepted:
            return OptimizeResult(x, f, gnorm, it, gnorm <= tol(f))

        s = step * p
        y = g_new - g
        sy = s @ y
        if sy > 1e-14 * float(np.linalg.norm(s) * np.linalg.norm(y) + 1e-300):
            # near the underflow range (a gradient that keeps falling towards
            # 1e-160) 1 / (y.s) or the scaling overflow; such a pair is skipped
            with np.errstate(over="ignore", divide="ignore"):
                rho, scaling = 1.0 / sy, sy / (y @ precondition(y))
            if np.isfinite(rho) and np.isfinite(scaling):
                s_list.append(s)
                y_list.append(y)
                if len(s_list) > memory:
                    s_list.pop(0)
                    y_list.pop(0)
                gamma = scaling

        flat = f - f_new <= ftol * max(abs(f), abs(f_new), 1.0)
        x, f, g = x_new, f_new, g_new
        gnorm = _dual_norm(g, d)
        stalled = stalled + 1 if flat and gnorm >= best_gnorm else 0
        best_gnorm = min(best_gnorm, gnorm)
        it += 1

    return OptimizeResult(x, f, gnorm, it, gnorm <= tol(f))


def newton(
    value_and_grad: Callable[[np.ndarray], tuple[float, np.ndarray]],
    hessian: Callable[[np.ndarray], tuple[object, np.ndarray]],
    x0: np.ndarray,
    weights: np.ndarray,
    free: np.ndarray,
    gtol: Tolerance,
    max_iter: int = 200,
    accept: Optional[Callable[[np.ndarray, np.ndarray], bool]] = None,
) -> OptimizeResult:
    """Damped Newton on the free dofs with an SPD Hessian ``K + diag(c(x))``.

    ``hessian(x)`` returns the pair ``(K, c)``: a scipy sparse matrix ``K``
    that is the same at every ``x`` of the run, and the array ``c`` of the
    ``x``-dependent diagonal.  The free block of the Hessian is renumbered
    once per call by reverse Cuthill-McKee on its pattern at ``x0``, and the
    upper-band entries of ``K``'s free block are scattered once into lists
    of their band positions.  Each step refills one Fortran-ordered band
    buffer from those lists, adds ``c`` to its diagonal row, and factors and
    solves it in place with banded Cholesky (LAPACK ``pbsv``, or ``ptsv``
    when the band is tridiagonal).  The masked central-difference stiffness
    of the singular study couples only nodes two apart, so its free block
    splits into ``2**dim`` parity blocks that the ordering separates: at
    level 7 in 2D the bandwidth is 64 instead of 254.

    A step falls back to the preconditioned gradient step ``-g / d``
    whenever the Hessian is not positive definite (Cholesky fails; in the
    packaged studies only a custom singular potential with ``W'' < 0`` can
    cause this) or the solve does not produce a finite descent direction.  Line search halves the step
    until the value decreases and the acceptance predicate (if any) passes.
    Stops when ``||g||_* <= gtol(f)`` at the current ``f``.
    """
    import scipy.sparse as sp
    from scipy.linalg import solveh_banded
    from scipy.sparse.csgraph import reverse_cuthill_mckee

    tol = _tolerance(gtol)
    x = x0.copy()
    d = weights[free]
    f, g_full = value_and_grad(x)
    g = g_full[free]
    gnorm = _dual_norm(g, d)
    free_idx = np.flatnonzero(free)
    nf = free_idx.size
    band = None

    for it in range(max_iter):
        if gnorm <= tol(f):
            return OptimizeResult(x, f, gnorm, it, True)

        K, diag = hessian(x)
        if band is None:
            H = sp.csr_matrix(K + sp.diags(diag))
            H.sum_duplicates()
            # pos[k]: place of dof k in the ordering of the free block, -1 if fixed
            pos = np.full(x.size, -1, dtype=np.intp)
            rcm = reverse_cuthill_mckee(H[free_idx][:, free_idx], symmetric_mode=True)
            pos[free_idx[rcm]] = np.arange(nf)
            order = pos[free_idx]
            by_place = free_idx[rcm]  # the dof at each place
            K = sp.coo_matrix(K)
            K.sum_duplicates()
            i, j = pos[K.row], pos[K.col]
            upper = (i >= 0) & (j >= i)
            i, j = i[upper], j[upper]
            rows = int((j - i).max(initial=0)) + 1
            band = np.zeros((rows, nf), order="F")
            # upper band storage: A[i, j] goes to band[-1 - (j - i), j]
            at = (rows - 1 - (j - i), j)
            entries = K.data[upper]
        else:
            band.fill(0.0)
        band[at] = entries
        band[-1] += diag[by_place]
        rhs = np.empty(nf)
        rhs[order] = -g
        try:
            p = solveh_banded(
                band, rhs, overwrite_ab=True, overwrite_b=True, check_finite=False
            )[order]
            if not np.all(np.isfinite(p)) or p @ g >= 0.0:
                p = -g / d
        except LinAlgError:
            p = -g / d

        step = 1.0
        accepted = False
        for _bt in range(60):
            x_new = x.copy()
            x_new[free] = x[free] + step * p
            if accept is not None and not accept(x, x_new):
                step *= 0.5
                continue
            f_new, g_new_full = value_and_grad(x_new)
            if np.isfinite(f_new) and f_new <= f + 1e-4 * step * (p @ g):
                accepted = True
                break
            step *= 0.5
        if not accepted:
            return OptimizeResult(x, f, gnorm, it, gnorm <= tol(f))

        x, f, g = x_new, f_new, g_new_full[free]
        gnorm = _dual_norm(g, d)

    return OptimizeResult(x, f, gnorm, max_iter, gnorm <= tol(f))


def minimize_quadratic(K, x: np.ndarray, free: np.ndarray) -> np.ndarray:
    """Minimize ``1/2 y^T K y`` over the free entries, the rest pinned to ``x``.

    Solves ``K_ff y_f = -K_fc x_c`` by sparse LU (SuperLU, through the
    module's ``spla``).  Unlike the Newton Hessians, ``K_ff`` may be only
    semidefinite, for instance the masked stiffness of the singular study,
    whose odd-odd parity block never touches the boundary: LU returns 0 on
    that block for its zero right-hand side, where Cholesky would meet a
    pivot that is zero up to round-off.  A free entry whose row of ``K`` is
    zero (the one free node of that block at level 1) leaves the quadratic
    unchanged and gets the minimum-norm value 0 without entering the solve.
    """
    import scipy.sparse as sp

    K = sp.csr_matrix(K)
    free_idx = np.flatnonzero(free & (abs(K).sum(axis=1).A1 > 0.0))
    fixed_idx = np.flatnonzero(~free)
    y = np.zeros(x.size)
    y[fixed_idx] = x[fixed_idx]
    rhs = -K[free_idx][:, fixed_idx] @ y[fixed_idx]
    # looked up on the module, so that the first access loads it
    spla = sys.modules[__name__].spla
    y[free_idx] = spla.spsolve(K[free_idx][:, free_idx].tocsc(), rhs)
    return y
