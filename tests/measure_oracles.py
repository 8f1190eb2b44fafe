"""The former whole-array forms of the measure layer's gradient sums, kept as
oracles.

``measure`` builds ``|D theta|``, the outward normals and the Gauss flux in
place, row by row; these are the stacked-array formulas it replaced.  The
tests compare the two bit for bit, signed zeros included.
"""

import numpy as np

from ultragrid.calculus import diff_op, divergence
from ultragrid.measure import density


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


def perimeter(region, level, eta_factor=1.0):
    _comps, mag = consistent_gradient(density(region, level, eta_factor))
    return float(mag @ level.weights)


def surface_integral(v, region, eta_factor=1.0):
    _comps, mag = consistent_gradient(density(region, v.level, eta_factor))
    return float((v.values * mag) @ v.level.weights)


def normal_field(region, level, eta_factor=1.0):
    """The normal components as plain arrays."""
    comps, mag = consistent_gradient(density(region, level, eta_factor))
    return tuple(_normals(comps, mag))


def gauss_check(phi, region, eta_factor=1.0):
    """``(lhs, rhs)`` of the Gauss identity."""
    level = phi[0].level
    theta = density(region, level, eta_factor)
    lhs = float((divergence(phi).values * theta.values) @ level.weights)
    comps, mag = sbp_gradient(theta)
    normals = _normals(comps, mag)
    flux = sum(phi[i].values * normals[i] for i in range(level.dimension))
    return lhs, float((flux * mag) @ level.weights)
