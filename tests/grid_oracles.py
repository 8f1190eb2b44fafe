"""The former coordinate table, interface extraction and monads of a
level, kept as oracles.

A level evaluates functions on the open mesh of its axes and builds no
``(node_count, N)`` table of node coordinates; the tests build that table
here, as the level once did, and compare against it bit for bit.  The
package reads the singular study's interface through its perimeter alone;
the tests read the sign-robust node sets and the monads here.
"""

from types import SimpleNamespace

import numpy as np

from ultragrid import NodeMask, perimeter


def coordinate_table(level):
    """Flat ``(node_count, N)`` array of node coordinates, in C order."""
    mesh = np.meshgrid(*level.axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def monad(level, node):
    """Sorted flat indices of the nodes within one cell of ``node`` on every
    axis, ``node`` included: its finite-level monad."""
    multi = np.unravel_index(node, level.shape)
    ranges = [np.arange(max(i - 1, 0), min(i + 1, m - 1) + 1)
              for i, m in zip(multi, level.shape)]
    return np.ravel_multi_index(np.ix_(*ranges), level.shape).ravel()


def interface(u, reference_distance):
    """The former interface extraction of ``u``: boolean masks ``omega1``
    (the ``3^N`` block around the node is > 0), ``omega2`` (< 0) and ``xi``
    (the rest), the largest ``reference_distance`` of an ``xi`` node's
    coordinates, and ``measure``, the perimeter of the ``{u > 0}`` node mask.
    """
    # imported here: csr_oracles imports measure_oracles, which imports this
    from csr_oracles import max_filter3, min_filter3

    omega1 = (min_filter3(u.grid_values) > 0.0).ravel()
    omega2 = (max_filter3(u.grid_values) < 0.0).ravel()
    xi = ~(omega1 | omega2)
    return SimpleNamespace(
        omega1=omega1, omega2=omega2, xi=xi,
        xi_max_distance=float(np.max(reference_distance(u.level.coordinates_of(np.flatnonzero(xi))))),
        measure=perimeter(NodeMask(u.level, u.values > 0.0), u.level),
    )
