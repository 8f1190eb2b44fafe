"""Density functions, perimeter, and the Gauss identity.

The density of a region at a node is the volume fraction of the ball
``B_h(node)`` covered by the region: the ball is one grid step ``h`` in
radius.  It is computed in closed form (exact volume fractions) for
half-spaces (1D/2D/3D), balls (1D/2D/3D) and boxes (1D/2D); 3D boxes and
explicit node masks use a fixed midpoint sampling rule (20 sample points
per axis over the bounding cube of the ball, restricted to the ball, which
yields at least ``16**N`` effective samples in every supported dimension).

A node-mask region is the union of the nearest-node (Voronoi) cells of the
masked nodes, with the nearest-node rule extended to all of space: points
beyond the domain box belong to the cell of the closest boundary node.  A
full-domain mask therefore has density one everywhere and zero perimeter,
which lets interface lengths be read directly from mask perimeters.

The sampling rule is counted, not evaluated point by point.  One table per
dimension holds the prefix sums of the ball test over the lattice of tick
indices, so the samples whose ticks lie in a box of index ranges are one
inclusion-exclusion over its corners.  A sample in a 3D box is a box of
tick ranges, one per axis, since ``x + tau h`` grows with ``tau``.  A
sample taken at a mask node lands on a node at the shift ``rint(tau)`` of
-1, 0 or +1 per axis, the same at every node, so the hits are an integer
sum of the edge-padded mask shifted by each shift, times the count of the
samples with that shift.  Both counts are exact integers, with no size cap.

Because the derivative operator is summation-by-parts with a fully
antisymmetric weighted matrix, the divergence-theorem identity returned by
:func:`gauss_check` holds to rounding for arbitrary masks and fields.
``|D theta|``, the normals and the Gauss flux are built in place in the
per-axis derivative rows, in the operation order of the stacked-array
formulas they replaced.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence, Union

import numpy as np

from .calculus import GridFunction, diff_op, divergence
from .grid import GridLevel

__all__ = [
    "HalfSpace",
    "Box",
    "Ball",
    "NodeMask",
    "Region",
    "GaussResult",
    "density",
    "perimeter",
    "gauss_check",
    "SAMPLES_PER_AXIS",
]

#: Midpoint samples per axis for the sampled density path (fixed for
#: reproducibility).
SAMPLES_PER_AXIS = 20


@dataclass(frozen=True)
class HalfSpace:
    """The half-space ``x_axis <= threshold``."""

    axis: int
    threshold: float


@dataclass(frozen=True)
class Box:
    """An axis-aligned box region."""

    bounds: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "bounds", tuple((float(a), float(b)) for a, b in self.bounds)
        )
        for a, b in self.bounds:
            if b <= a:
                raise ValueError("box extents must be positive")


@dataclass(frozen=True)
class Ball:
    """A Euclidean ball region."""

    center: tuple[float, ...]
    radius: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))
        if self.radius <= 0:
            raise ValueError("ball radius must be positive")


@dataclass(frozen=True, eq=False)
class NodeMask:
    """An explicit node mask: the union of Voronoi cells of the masked nodes."""

    level: GridLevel
    mask: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.mask, dtype=bool).ravel()
        if m.size != self.level.node_count:
            raise ValueError("mask length does not match the level")
        object.__setattr__(self, "mask", m)


Region = Union[HalfSpace, Box, Ball, NodeMask]


# ---------------------------------------------------------------------------
# closed-form volume fractions
# ---------------------------------------------------------------------------


def _cap_fraction(t: np.ndarray, dim: int) -> np.ndarray:
    """Fraction of the unit ball on the side ``X <= t`` of a hyperplane at
    signed distance ``t`` from the center (``t`` in ball radii)."""
    t = np.clip(t, -1.0, 1.0)
    if dim == 1:
        return (t + 1.0) / 2.0
    if dim == 2:
        return (np.arccos(-t) + t * np.sqrt(np.maximum(1.0 - t * t, 0.0))) / np.pi
    if dim == 3:
        return (1.0 + t) ** 2 * (2.0 - t) / 4.0
    raise ValueError("cap fraction implemented for dimensions 1-3")


def _phi_primitive(x: np.ndarray) -> np.ndarray:
    """Antiderivative of ``sqrt(1 - x^2)`` on [-1, 1]."""
    x = np.clip(x, -1.0, 1.0)
    return 0.5 * (x * np.sqrt(np.maximum(1.0 - x * x, 0.0)) + np.arcsin(x))


def _disk_quadrant(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Area of ``{X^2 + Y^2 <= 1, X <= p, Y <= q}`` (vectorized)."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    p, q = np.broadcast_arrays(p, q)
    P = np.clip(p, -1.0, 1.0)
    out = np.zeros(P.shape)

    # q >= 1: full vertical extent -> integral of 2*sqrt(1-x^2)
    full = q >= 1.0
    out = np.where(full, 2.0 * (_phi_primitive(P) - _phi_primitive(-1.0)), out)

    mid = (~full) & (q > -1.0)
    if np.any(mid):
        qm = np.clip(q, -1.0 + 1e-300, 1.0)
        xq = np.sqrt(np.maximum(1.0 - qm * qm, 0.0))
        val = np.zeros(P.shape)

        # left lobe x in [-1, min(P, -xq)], integrand 2*sqrt(1-x^2), only q >= 0
        b1 = np.minimum(P, -xq)
        left = 2.0 * (_phi_primitive(b1) - _phi_primitive(-1.0))
        val += np.where((qm >= 0.0) & (b1 > -1.0), left, 0.0)

        # middle band x in [-xq, clip(P, -xq, xq)], integrand q + sqrt(1-x^2)
        b2 = np.clip(P, -xq, xq)
        middle = qm * (b2 - (-xq)) + (_phi_primitive(b2) - _phi_primitive(-xq))
        val += np.where(b2 > -xq, middle, 0.0)

        # right lobe x in [xq, P], integrand 2*sqrt(1-x^2), only q >= 0
        right = 2.0 * (_phi_primitive(P) - _phi_primitive(xq))
        val += np.where((qm >= 0.0) & (P > xq), right, 0.0)

        out = np.where(mid, val, out)
    return out


def _ball_overlap_fraction(dist: np.ndarray, eta: float, radius: float, dim: int) -> np.ndarray:
    """Fraction of ``B_eta`` covered by a ball of ``radius`` at center
    distance ``dist``."""
    d = np.asarray(dist, dtype=float)
    r1, r2 = eta, radius
    if dim == 1:
        lo = np.maximum(-r1, d - r2)
        hi = np.minimum(r1, d + r2)
        return np.clip(hi - lo, 0.0, 2.0 * r1) / (2.0 * r1)

    frac = np.zeros(d.shape)
    disjoint = d >= r1 + r2
    contained_small = d <= r2 - r1  # B_eta inside the region ball
    contains_region = d <= r1 - r2  # region ball inside B_eta
    lens = ~(disjoint | contained_small | contains_region)

    if dim == 2:
        full_small = np.pi * r2**2 / (np.pi * r1**2)
        if np.any(lens):
            dd = np.where(lens, d, 1.0)  # avoid /0 in masked-out lanes
            a1 = np.clip((dd * dd + r1 * r1 - r2 * r2) / (2.0 * dd * r1), -1.0, 1.0)
            a2 = np.clip((dd * dd + r2 * r2 - r1 * r1) / (2.0 * dd * r2), -1.0, 1.0)
            term = (
                r1 * r1 * np.arccos(a1)
                + r2 * r2 * np.arccos(a2)
                - 0.5
                * np.sqrt(
                    np.maximum(
                        (-dd + r1 + r2)
                        * (dd + r1 - r2)
                        * (dd - r1 + r2)
                        * (dd + r1 + r2),
                        0.0,
                    )
                )
            )
            frac = np.where(lens, term / (np.pi * r1**2), frac)
    elif dim == 3:
        full_small = r2**3 / r1**3
        if np.any(lens):
            dd = np.where(lens, d, 1.0)
            inter = (
                np.pi
                * (r1 + r2 - dd) ** 2
                * (dd * dd + 2.0 * dd * (r1 + r2) - 3.0 * (r1 - r2) ** 2)
                / (12.0 * dd)
            )
            frac = np.where(lens, inter / (4.0 / 3.0 * np.pi * r1**3), frac)
    else:
        raise ValueError("ball overlap implemented for dimensions 1-3")

    frac = np.where(contained_small, 1.0, frac)
    frac = np.where(contains_region, full_small, frac)
    frac = np.where(disjoint, 0.0, frac)
    return frac


def _box_fraction(level: GridLevel, box: Box, eta: float) -> np.ndarray:
    dim = level.dimension
    if dim == 1:
        a, b = box.bounds[0]
        (x,) = level.axes
        lo = np.maximum(x - eta, a)
        hi = np.minimum(x + eta, b)
        return np.clip(hi - lo, 0.0, 2.0 * eta) / (2.0 * eta)
    if dim == 2:
        (a1, b1), (a2, b2) = box.bounds
        x1, x2 = np.ix_(*level.axes)
        A1 = (a1 - x1) / eta
        B1 = (b1 - x1) / eta
        A2 = (a2 - x2) / eta
        B2 = (b2 - x2) / eta
        area = (
            _disk_quadrant(B1, B2)
            - _disk_quadrant(A1, B2)
            - _disk_quadrant(B1, A2)
            + _disk_quadrant(A1, A2)
        )
        return (area / np.pi).ravel()
    return _sampled_box_fraction(level, box, eta)  # 3D boxes


# ---------------------------------------------------------------------------
# sampled fractions for 3D boxes and explicit masks
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _ball_table(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The sampling rule of one dimension (read-only: the cache shares it).

    Returns the :data:`SAMPLES_PER_AXIS` midpoint ticks ``tau`` of [-1, 1]
    and the prefix sums ``P`` of the ball test over the tick lattice:
    ``P[i_1, ..., i_N]`` counts the samples ``(tau[k_1], ..., tau[k_N])``
    with every ``k_j < i_j`` and ``sum_j tau[k_j]**2 <= 1``.
    """
    m = SAMPLES_PER_AXIS
    ticks = (np.arange(m) + 0.5) / m * 2.0 - 1.0
    lattice = np.stack(np.meshgrid(*([ticks] * dim), indexing="ij"), axis=-1)
    table = np.zeros((m + 1,) * dim, dtype=np.int64)
    table[(slice(1, None),) * dim] = np.sum(lattice**2, axis=-1) <= 1.0
    for axis in range(dim):
        table = table.cumsum(axis)
    ticks.flags.writeable = table.flags.writeable = False
    return ticks, table


def _on_axis(index: np.ndarray, axis: int, dim: int) -> np.ndarray:
    """A 1D ``index`` laid along ``axis`` of ``dim`` axes, to broadcast."""
    return index.reshape((-1,) + (1,) * (dim - 1 - axis))


def _ball_count(table: np.ndarray, lo: Sequence[np.ndarray], hi: Sequence[np.ndarray]) -> np.ndarray:
    """Samples whose tick index lies in ``[lo[j], hi[j])`` on every axis
    ``j``, by inclusion-exclusion over the corners of that index box.  The
    per-axis index arrays broadcast against each other."""
    count = table[tuple(hi)]
    for picks in itertools.product((False, True), repeat=table.ndim):
        if any(picks):
            corner = table[tuple(a if low else b for low, a, b in zip(picks, lo, hi))]
            if sum(picks) % 2:
                count -= corner
            else:
                count += corner
    return count


def _sampled_box_fraction(level: GridLevel, box: Box, eta: float) -> np.ndarray:
    """The sampling rule for a box.

    ``x + tau * eta`` grows with ``tau``, so the ticks that put a sample
    inside ``[a, b]`` along an axis are one range per node coordinate.
    """
    dim = level.dimension
    ticks, table = _ball_table(dim)
    lo, hi = [], []
    for axis, (x, (a, b)) in enumerate(zip(level.axes, box.bounds)):
        pts = x[:, None] + ticks * eta
        first = np.count_nonzero(pts < a, axis=1)
        stop = np.maximum(np.count_nonzero(pts <= b, axis=1), first)
        lo.append(_on_axis(first, axis, dim))
        hi.append(_on_axis(stop, axis, dim))
    return (_ball_count(table, lo, hi) / int(table.flat[-1])).ravel()


def _mask_fraction(region: NodeMask) -> np.ndarray:
    """The sampling rule for a node mask.

    From node ``i``, sample ``tau`` lands on node ``clip(i + rint(tau), 0,
    m - 1)`` along each axis: one of the shifts -1, 0 and +1, whose samples
    are the ball count over the ticks that round to it.  The number of
    samples that hit the mask is the sum over the ``3**N`` shifts of that
    count times the mask shifted by it, read from the mask padded by one
    copy of its edge nodes, which is the clip.  The sum is an integer count,
    divided by the sample count once, so the result is exact.
    """
    level = region.level
    dim = level.dimension
    ticks, table = _ball_table(dim)
    edges = np.searchsorted(np.rint(ticks), (-1.0, 0.0, 1.0, 2.0))
    stencil = _ball_count(
        table,
        [_on_axis(edges[:-1], axis, dim) for axis in range(dim)],
        [_on_axis(edges[1:], axis, dim) for axis in range(dim)],
    )
    padded = np.pad(region.mask.reshape(level.shape), 1, mode="edge")
    hits = np.zeros(level.shape, dtype=np.int32)
    term = np.empty_like(hits)
    for start in np.ndindex(stencil.shape):
        count = int(stencil[start])
        if count:
            window = padded[tuple(slice(a, a + m) for a, m in zip(start, level.shape))]
            hits += np.multiply(window, count, out=term, dtype=np.int32)
    return hits.ravel() / int(table.flat[-1])


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def density(region: Region, level: GridLevel) -> GridFunction:
    """Ball-averaged indicator of ``region`` at every node (values in [0, 1]).

    The ball ``B_h(node)`` is one grid step in radius.  Half-spaces, balls
    and 1D/2D boxes take their exact volume fractions; 3D boxes and node
    masks, which must live on ``level``, take the fraction of the unit-ball
    samples (:func:`_ball_table`, scaled by ``h``) inside the region,
    counted exactly.
    """
    eta = level.h
    dim = level.dimension

    if isinstance(region, HalfSpace):
        s = region.threshold - np.ix_(*level.axes)[region.axis]
        values = np.broadcast_to(_cap_fraction(s / eta, dim), level.shape).copy().ravel()
    elif isinstance(region, Ball):
        dist = level.distance(region.center)
        values = _ball_overlap_fraction(dist, eta, region.radius, dim)
    elif isinstance(region, Box):
        values = _box_fraction(level, region, eta)
    elif isinstance(region, NodeMask):
        if region.level != level:
            raise ValueError("node mask must live on the evaluation level")
        values = _mask_fraction(region)
    else:
        raise TypeError(f"unsupported region type {type(region).__name__}")

    # every path above builds a fresh array, so it is clipped in place
    return GridFunction(level, np.clip(values, 0.0, 1.0, out=values))


def _magnitude(rows: Sequence[np.ndarray]) -> np.ndarray:
    """Euclidean magnitude of the per-axis rows, their squares summed in axis
    order into one new array; the rows are left as they are."""
    mag = np.square(rows[0])
    for row in rows[1:]:
        mag += np.square(row)
    return np.sqrt(mag, out=mag)


def _outward_normals(rows: Sequence[np.ndarray], mag: np.ndarray) -> None:
    """Overwrite each gradient row with ``-row / mag``, and with ``+0.0``
    where ``mag`` is not above ``1e-14`` of its maximum."""
    floor = 1e-14 * (mag.max() if mag.size else 0.0)
    keep = mag > floor
    drop = ~keep
    for row in rows:
        np.divide(row, mag, out=row, where=keep)
        np.negative(row, out=row)
        np.copyto(row, 0.0, where=drop)


def _consistent_gradient(theta: GridFunction) -> Iterator[np.ndarray]:
    """The per-axis consistent derivative rows, made one axis at a time.

    Central differences inside, one-sided at the box faces.  The
    antisymmetric closure rows of the summation-by-parts derivative read a
    spurious ``theta/h`` at boundary nodes where the density is nonzero, so
    the perimeter of a region meeting the box boundary uses this stencil
    instead.  As :func:`perimeter` sums their squares, only ``theta``,
    ``|D theta|`` and one row are alive.

    Each row equals ``np.gradient(theta, h, axis=axis)`` byte for byte,
    with no temporary beside it.  The central differences are written into
    the row and divided there, on the flat arrays, where the nodes one
    stride of the axis apart are the axis neighbours.  That also reaches the
    axis's faces, which the one-sided differences then overwrite.
    """
    level = theta.level
    flat, grid = theta.values, theta.grid_values
    for axis in range(level.dimension):
        stride = math.prod(level.shape[axis + 1 :])
        row = np.empty(flat.size)
        inner = row[stride : flat.size - stride]
        np.subtract(flat[2 * stride :], flat[: flat.size - 2 * stride], out=inner)
        np.divide(inner, 2.0 * level.h, out=inner)
        lead = (slice(None),) * axis
        for face, up, lo in ((slice(0, 1), slice(1, 2), slice(0, 1)),
                             (slice(-1, None), slice(-1, None), slice(-2, -1))):
            out = row.reshape(level.shape)[lead + (face,)]
            np.subtract(grid[lead + (up,)], grid[lead + (lo,)], out=out)
            np.divide(out, level.h, out=out)
        yield row


def perimeter(region: Region, level: GridLevel) -> float:
    """``sum_a |D theta(a)| d(a)``: the total-variation perimeter of the region.

    ``|D theta|`` rounds as :func:`_magnitude` does, but each row is squared
    in place and the first holds the sum: nothing else reads the rows.
    """
    rows = _consistent_gradient(density(region, level))
    mag = next(rows)
    np.square(mag, out=mag)
    for row in rows:
        mag += np.square(row, out=row)
        del row  # freed before the next row is made
    return float(np.sqrt(mag, out=mag) @ level.weights)


@dataclass(frozen=True)
class GaussResult:
    """Both sides of the divergence-theorem identity."""

    lhs: float
    rhs: float

    @property
    def gap(self) -> float:
        return abs(self.lhs - self.rhs)


def gauss_check(phi: Sequence[GridFunction], region: Region) -> GaussResult:
    """Evaluate ``sum (div phi) theta d`` and ``sum phi . n |D theta| d``.

    Both sides are computed independently; they agree to rounding because the
    weighted derivative matrix is antisymmetric (the identity is algebraic).
    The right-hand side is built in place in the summation-by-parts
    derivative rows of ``theta``: each becomes ``phi_i`` times
    ``-D_i theta / |D theta|`` (zero below the floor of :func:`_outward_normals`)
    and the rows are summed in axis order onto ``+0.0``, holding only the
    rows and ``|D theta|``.
    """
    level = phi[0].level
    if len(phi) != level.dimension:
        raise ValueError("field component count must equal the dimension")
    theta = density(region, level)
    lhs = divergence(phi).values
    lhs = float(np.multiply(lhs, theta.values, out=lhs) @ level.weights)

    op = diff_op(level)
    rows = [op.apply(theta.values, axis) for axis in range(level.dimension)]
    del theta  # not read again: freed before |D theta| is built
    mag = _magnitude(rows)
    _outward_normals(rows, mag)
    for component, row in zip(phi, rows):
        np.multiply(row, component.values, out=row)
    flux = np.add(rows[0], 0.0, out=rows[0])  # sum() starts from +0.0
    for row in rows[1:]:
        flux += row
    return GaussResult(lhs=lhs, rhs=float(np.multiply(flux, mag, out=flux) @ level.weights))
