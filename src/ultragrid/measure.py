"""Density functions, perimeter, surface integrals, and the Gauss identity.

The density of a region at a node is the volume fraction of the ball
``B_eta(node)`` covered by the region, with ``eta = eta_factor * h``.  It is
computed in closed form (exact volume fractions) for half-spaces (1D/2D/3D),
balls (1D/2D/3D) and boxes (1D/2D); 3D boxes and explicit node masks use a
fixed midpoint sampling rule (20 sample points per axis over the bounding
cube of the ball, restricted to the ball, which yields at least ``16**N``
effective samples in every supported dimension).

A node-mask region is the union of the nearest-node (Voronoi) cells of the
masked nodes, with the nearest-node rule extended to all of space: points
beyond the domain box belong to the cell of the closest boundary node.  A
full-domain mask therefore has density one everywhere and zero perimeter,
which lets interface lengths be read directly from mask perimeters.

For a node mask every sample lands on a node at a fixed index shift from
the node it is taken at, so the rule is evaluated as one correlation of the
mask with the integer count of samples per shift: exact, with no size cap
and no cache.  A sample ``t`` of the unit ball is shifted by
``rint(t * eta_factor)`` per axis, rounded once for all nodes, so a
half-integer ``t * eta_factor`` (``eta_factor = 2`` has some) rounds half
to even.

Because the derivative operator is summation-by-parts with a fully
antisymmetric weighted matrix, the divergence-theorem identity returned by
:func:`gauss_check` holds to rounding for arbitrary masks and fields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence, Union

import numpy as np
from scipy import ndimage

from .calculus import GridFunction, diff_op, divergence
from .grid import GridLevel, NodeSet

__all__ = [
    "HalfSpace",
    "Box",
    "Ball",
    "NodeMask",
    "Region",
    "GaussResult",
    "density",
    "perimeter",
    "surface_integral",
    "normal_field",
    "gauss_check",
    "SAMPLES_PER_AXIS",
]

#: Midpoint samples per axis for the sampled density path (fixed for
#: reproducibility).
SAMPLES_PER_AXIS = 20


@dataclass(frozen=True)
class HalfSpace:
    """The region on one side of an axis-aligned hyperplane."""

    axis: int
    threshold: float
    side: str = "below"  # "below": x_axis <= threshold; "above": >=

    def __post_init__(self) -> None:
        if self.side not in ("below", "above"):
            raise ValueError("side must be 'below' or 'above'")

    def indicator(self, points: np.ndarray) -> np.ndarray:
        x = points[..., self.axis]
        return x <= self.threshold if self.side == "below" else x >= self.threshold


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

    def indicator(self, points: np.ndarray) -> np.ndarray:
        inside = np.ones(points.shape[:-1], dtype=bool)
        for axis, (a, b) in enumerate(self.bounds):
            inside &= (points[..., axis] >= a) & (points[..., axis] <= b)
        return inside


@dataclass(frozen=True)
class Ball:
    """A Euclidean ball region."""

    center: tuple[float, ...]
    radius: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))
        if self.radius <= 0:
            raise ValueError("ball radius must be positive")

    def indicator(self, points: np.ndarray) -> np.ndarray:
        c = np.asarray(self.center)
        return np.sum((points - c) ** 2, axis=-1) <= self.radius**2


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

    def indicator(self, points: np.ndarray) -> np.ndarray:
        idx = _nearest_node(self.level, points)
        return self.mask[idx]


Region = Union[HalfSpace, Box, Ball, NodeMask]


def _nearest_node(level: GridLevel, points: np.ndarray) -> np.ndarray:
    """Flat index of the nearest node, clipping outside-the-box points."""
    multi = []
    for axis, (lo, _hi) in enumerate(level.domain.bounds):
        i = np.rint((points[..., axis] - lo) / level.h).astype(np.int64)
        multi.append(np.clip(i, 0, level.shape[axis] - 1))
    return np.ravel_multi_index(tuple(multi), level.shape)


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
    coords = level.coordinates
    dim = level.dimension
    if dim == 1:
        a, b = box.bounds[0]
        x = coords[:, 0]
        lo = np.maximum(x - eta, a)
        hi = np.minimum(x + eta, b)
        return np.clip(hi - lo, 0.0, 2.0 * eta) / (2.0 * eta)
    if dim == 2:
        (a1, b1), (a2, b2) = box.bounds
        A1 = (a1 - coords[:, 0]) / eta
        B1 = (b1 - coords[:, 0]) / eta
        A2 = (a2 - coords[:, 1]) / eta
        B2 = (b2 - coords[:, 1]) / eta
        area = (
            _disk_quadrant(B1, B2)
            - _disk_quadrant(A1, B2)
            - _disk_quadrant(B1, A2)
            + _disk_quadrant(A1, A2)
        )
        return area / np.pi
    # 3D boxes: sampled (documented fallback)
    return _sampled_fraction(level, box, eta)


# ---------------------------------------------------------------------------
# sampled fractions for 3D boxes and explicit masks
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _unit_ball_samples(dim: int) -> np.ndarray:
    """Midpoint samples of the unit ball, fixed count per axis (read-only)."""
    m = SAMPLES_PER_AXIS
    ticks = (np.arange(m) + 0.5) / m * 2.0 - 1.0  # midpoints of [-1, 1]
    mesh = np.meshgrid(*([ticks] * dim), indexing="ij")
    pts = np.stack([g.ravel() for g in mesh], axis=-1)
    pts = pts[np.sum(pts**2, axis=-1) <= 1.0]
    pts.flags.writeable = False
    return pts


def _sampled_fraction(level: GridLevel, region, eta: float) -> np.ndarray:
    offsets = _unit_ball_samples(level.dimension) * eta
    nodes = level.coordinates
    n_nodes, n_samples = nodes.shape[0], offsets.shape[0]
    out = np.empty(n_nodes)
    chunk = max(1, 4_000_000 // max(n_samples, 1))
    for start in range(0, n_nodes, chunk):
        stop = min(start + chunk, n_nodes)
        pts = nodes[start:stop, None, :] + offsets[None, :, :]
        out[start:stop] = region.indicator(pts).mean(axis=1)
    return out


def _mask_fraction(region: NodeMask, eta_factor: float) -> np.ndarray:
    """The sampling rule of :func:`_sampled_fraction` for a node mask.

    From node ``i``, unit-ball sample ``t`` lands on node
    ``clip(i + rint(t * eta_factor), 0, m - 1)`` along each axis.  The shift
    does not depend on ``i``, so the sample mean is the mask correlated with
    the count of samples per shift, ``mode="nearest"`` being the clip.
    Shifts beyond ``m - 1`` clip to the same node and are cut there, which
    bounds the stencil.  The counts and their sums are small integers, so the
    result is exact.
    """
    level = region.level
    reach = np.array(level.shape) - 1
    shifts = np.rint(_unit_ball_samples(level.dimension) * eta_factor)
    shifts = np.clip(shifts, -reach, reach).astype(np.int64)
    radius = np.abs(shifts).max(axis=0)
    counts = np.zeros(tuple(2 * radius + 1))
    np.add.at(counts, tuple((shifts + radius).T), 1.0)
    mask = region.mask.reshape(level.shape).astype(float)
    hits = ndimage.correlate(mask, counts, mode="nearest")
    return hits.ravel() / len(shifts)


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def density(region: Region, level: GridLevel, eta_factor: float = 1.0) -> GridFunction:
    """Ball-averaged indicator of ``region`` at every node (values in [0, 1]).

    ``eta_factor`` (finite, at least 1) scales the ball radius
    ``eta = eta_factor * h``.  A node mask must live on ``level``; its
    samples shift by ``rint(t * eta_factor)`` nodes, and a tie (a
    half-integer ``t * eta_factor``) rounds half to even, the same way at
    every node.
    """
    if not math.isfinite(eta_factor) or eta_factor < 1.0:
        raise ValueError("eta_factor must be finite and >= 1")
    eta = eta_factor * level.h
    dim = level.dimension

    if isinstance(region, HalfSpace):
        x = level.coordinates[:, region.axis]
        s = (region.threshold - x) if region.side == "below" else (x - region.threshold)
        values = _cap_fraction(s / eta, dim)
    elif isinstance(region, Ball):
        dist = np.linalg.norm(level.coordinates - np.asarray(region.center), axis=1)
        values = _ball_overlap_fraction(dist, eta, region.radius, dim)
    elif isinstance(region, Box):
        values = _box_fraction(level, region, eta)
    elif isinstance(region, NodeMask):
        if region.level is not level:
            raise ValueError("node mask must live on the evaluation level")
        values = _mask_fraction(region, eta_factor)
    else:
        raise TypeError(f"unsupported region type {type(region).__name__}")

    return GridFunction(level, np.clip(values, 0.0, 1.0))


def _density_gradient(theta: GridFunction) -> tuple[np.ndarray, np.ndarray]:
    """Per-axis summation-by-parts derivative stack and Euclidean magnitude.

    Used by :func:`gauss_check`, whose two sides agree algebraically only
    when the density gradient comes from the antisymmetric derivative.
    """
    op = diff_op(theta.level)
    comps = np.stack(
        [op.apply(theta.values, axis) for axis in range(theta.level.dimension)]
    )
    mag = np.sqrt(np.sum(comps**2, axis=0))
    return comps, mag


def _consistent_gradient(theta: GridFunction) -> tuple[np.ndarray, np.ndarray]:
    """Per-axis consistent derivative stack and Euclidean magnitude.

    Central differences inside, one-sided at the box faces.  The
    antisymmetric closure rows of the summation-by-parts derivative read a
    spurious ``theta/h`` at boundary nodes where the density is nonzero, so
    measure-theoretic quantities (perimeter, surface sums, normals) of
    regions meeting the box boundary use this stencil instead.
    """
    level = theta.level
    grids = np.gradient(theta.grid_values, *([level.h] * level.dimension))
    if level.dimension == 1:
        grids = [grids]
    comps = np.stack([g.ravel() for g in grids])
    mag = np.sqrt(np.sum(comps**2, axis=0))
    return comps, mag


def perimeter(region: Region, level: GridLevel, eta_factor: float = 1.0) -> float:
    """``sum_a |D theta(a)| d(a)``: the total-variation perimeter of the region."""
    theta = density(region, level, eta_factor)
    _comps, mag = _consistent_gradient(theta)
    return float(mag @ level.weights)


def surface_integral(
    v: GridFunction, region: Region, eta_factor: float = 1.0
) -> float:
    """``sum_a v(a) |D theta(a)| d(a)`` — the density-weighted surface sum.

    Note this is not the plain nodal sum over boundary nodes; the weight
    ``|D theta|`` carries the surface measure.
    """
    theta = density(region, v.level, eta_factor)
    _comps, mag = _consistent_gradient(theta)
    return float((v.values * mag) @ v.level.weights)


def normal_field(
    region: Region, level: GridLevel, eta_factor: float = 1.0
) -> tuple[GridFunction, ...]:
    """Outward unit normal ``-D theta / |D theta|`` (zero where the gradient
    magnitude is below ``1e-14`` of its maximum)."""
    theta = density(region, level, eta_factor)
    comps, mag = _consistent_gradient(theta)
    floor = 1e-14 * (mag.max() if mag.size else 0.0)
    safe = np.where(mag > floor, mag, 1.0)
    normals = np.where(mag > floor, -comps / safe, 0.0)
    return tuple(GridFunction(level, normals[i]) for i in range(level.dimension))


@dataclass(frozen=True)
class GaussResult:
    """Both sides of the divergence-theorem identity plus the normal field."""

    lhs: float
    rhs: float
    normal: tuple[GridFunction, ...]

    @property
    def gap(self) -> float:
        return abs(self.lhs - self.rhs)


def gauss_check(
    phi: Sequence[GridFunction], region: Region, eta_factor: float = 1.0
) -> GaussResult:
    """Evaluate ``sum (div phi) theta d`` and ``sum phi . n |D theta| d``.

    Both sides are computed independently; they agree to rounding because the
    weighted derivative matrix is antisymmetric (the identity is algebraic).
    """
    level = phi[0].level
    if len(phi) != level.dimension:
        raise ValueError("field component count must equal the dimension")
    theta = density(region, level, eta_factor)
    lhs = float((divergence(phi).values * theta.values) @ level.weights)

    comps, mag = _density_gradient(theta)
    floor = 1e-14 * (mag.max() if mag.size else 0.0)
    safe = np.where(mag > floor, mag, 1.0)
    normals = np.where(mag > floor, -comps / safe, 0.0)
    flux = sum(phi[i].values * normals[i] for i in range(level.dimension))
    rhs = float((flux * mag) @ level.weights)
    normal = tuple(GridFunction(level, normals[i]) for i in range(level.dimension))
    return GaussResult(lhs=lhs, rhs=rhs, normal=normal)
