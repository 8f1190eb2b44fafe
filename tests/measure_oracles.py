"""The former forms of the measure layer, kept as oracles.

``measure`` counts the sampling rule of 3D boxes and node masks from one
prefix-summed table; ``sampled_fraction`` evaluates a region's indicator at
every sample point, as the rule was first written.  ``measure`` takes the
closed forms of half-spaces and 1D/2D boxes on the open mesh of the level's
axes; ``closed_form_density`` takes them on the columns of the coordinate
table, as they were first written.  ``measure`` builds
``|D theta|``, the outward normals and the Gauss flux in place, row by row;
the rest are the stacked-array formulas it replaced.  The tests compare the
two bit for bit, signed zeros included.
"""

from functools import lru_cache

import numpy as np
from grid_oracles import coordinate_table

from ultragrid.calculus import diff_op, divergence
from ultragrid.measure import (
    SAMPLES_PER_AXIS,
    Ball,
    Box,
    HalfSpace,
    NodeMask,
    _cap_fraction,
    _disk_quadrant,
    density,
)


@lru_cache(maxsize=None)
def unit_ball_samples(dim):
    """Midpoint samples of the unit ball, fixed count per axis (read-only)."""
    m = SAMPLES_PER_AXIS
    ticks = (np.arange(m) + 0.5) / m * 2.0 - 1.0  # midpoints of [-1, 1]
    mesh = np.meshgrid(*([ticks] * dim), indexing="ij")
    pts = np.stack([g.ravel() for g in mesh], axis=-1)
    pts = pts[np.sum(pts**2, axis=-1) <= 1.0]
    pts.flags.writeable = False
    return pts


def nearest_node(level, points):
    """Flat index of the nearest node, clipping outside-the-box points."""
    multi = []
    for axis, (lo, _hi) in enumerate(level.domain.bounds):
        i = np.rint((points[..., axis] - lo) / level.h)
        # clip in float before the cast, so a far point cannot wrap in int64
        multi.append(np.clip(i, 0, level.shape[axis] - 1).astype(np.int64))
    return np.ravel_multi_index(tuple(multi), level.shape)


def indicator(region, points):
    """Whether each point (last axis: coordinates) lies in ``region``."""
    if isinstance(region, HalfSpace):
        return points[..., region.axis] <= region.threshold
    if isinstance(region, Box):
        inside = np.ones(points.shape[:-1], dtype=bool)
        for axis, (a, b) in enumerate(region.bounds):
            inside &= (points[..., axis] >= a) & (points[..., axis] <= b)
        return inside
    if isinstance(region, Ball):
        return np.sum((points - np.asarray(region.center)) ** 2, axis=-1) <= region.radius**2
    assert isinstance(region, NodeMask)
    return region.mask[nearest_node(region.level, points)]


def sampled_fraction(region, level, nodes=slice(None)):
    """Mean of ``indicator`` over the unit-ball samples of radius ``h`` at
    ``nodes``, taken in chunks of about ``2**18`` sample points."""
    offsets = unit_ball_samples(level.dimension) * level.h
    coords = coordinate_table(level)[nodes]
    out = np.empty(len(coords))
    chunk = max(1, (1 << 18) // len(offsets))
    for start in range(0, len(coords), chunk):
        pts = coords[start:start + chunk, None] + offsets
        out[start:start + chunk] = indicator(region, pts).mean(axis=1)
    return out


def closed_form_density(region, level):
    """``density`` of a half-space or a 1D/2D box, evaluated on the columns
    of the former coordinate table, as it once was."""
    coords = coordinate_table(level)
    eta, dim = level.h, level.dimension
    if isinstance(region, HalfSpace):
        values = _cap_fraction((region.threshold - coords[:, region.axis]) / eta, dim)
    elif dim == 1:
        ((a, b),) = region.bounds
        x = coords[:, 0]
        lo = np.maximum(x - eta, a)
        hi = np.minimum(x + eta, b)
        values = np.clip(hi - lo, 0.0, 2.0 * eta) / (2.0 * eta)
    else:
        (a1, b1), (a2, b2) = region.bounds
        A1, B1 = (a1 - coords[:, 0]) / eta, (b1 - coords[:, 0]) / eta
        A2, B2 = (a2 - coords[:, 1]) / eta, (b2 - coords[:, 1]) / eta
        area = (
            _disk_quadrant(B1, B2) - _disk_quadrant(A1, B2)
            - _disk_quadrant(B1, A2) + _disk_quadrant(A1, A2)
        )
        values = area / np.pi
    return np.clip(values, 0.0, 1.0)


def _stack_and_magnitude(comps):
    comps = np.stack(comps)
    return comps, np.sqrt(np.sum(comps**2, axis=0))


def below_floor(mag):
    """Where ``mag`` is not above ``1e-14`` of its maximum (normal zero)."""
    return ~(mag > 1e-14 * (mag.max() if mag.size else 0.0))


def _normals(comps, mag):
    floor = 1e-14 * (mag.max() if mag.size else 0.0)
    safe = np.where(mag > floor, mag, 1.0)
    return np.where(mag > floor, -comps / safe, 0.0)


def consistent_gradient(theta):
    """Stacked central/one-sided derivative rows and their magnitude."""
    level = theta.level
    grids = np.gradient(theta.grid_values, *([level.h] * level.dimension))
    if level.dimension == 1:
        grids = [grids]
    return _stack_and_magnitude([g.ravel() for g in grids])


def sbp_gradient(theta):
    """Stacked summation-by-parts derivative rows and their magnitude."""
    op = diff_op(theta.level)
    return _stack_and_magnitude(
        [op.apply(theta.values, axis) for axis in range(theta.level.dimension)]
    )


def perimeter(region, level):
    _comps, mag = consistent_gradient(density(region, level))
    return float(mag @ level.weights)


def gauss_check(phi, region):
    """``(lhs, rhs)`` of the Gauss identity."""
    level = phi[0].level
    theta = density(region, level)
    lhs = float((divergence(phi).values * theta.values) @ level.weights)
    comps, mag = sbp_gradient(theta)
    normals = _normals(comps, mag)
    flux = sum(phi[i].values * normals[i] for i in range(level.dimension))
    return lhs, float((flux * mag) @ level.weights)
