"""Nested dyadic tensor-product grids with trapezoid quadrature weights.

A :class:`Domain` is an axis-aligned box.  A :class:`GridLevel` is the uniform
lattice over that box at refinement level ``n``, with spacing
``h_n = h_0 * 2**-n`` where ``h_0`` is the smallest axis extent.  Levels are
dyadically nested: every node of level ``n`` is a node of level ``n + 1``.

Quadrature weights follow the composite trapezoid rule (tensor product of the
1D weights ``h/2, h, ..., h, h/2``) so that constants and per-axis linear
functions integrate exactly at every level.  Only dyadic-rational points are
eventually resolved by the family; this is the best a finite nested chain can
do.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "DEFAULT_NODE_CAP",
    "Domain",
    "GridLevel",
    "NodeSet",
    "ResourceLimitError",
    "build_level",
    "boundary_nodes",
    "monad_neighbors",
    "level_to_csv",
]

#: Default cap on the node count of a single level.
DEFAULT_NODE_CAP = 2**24


class ResourceLimitError(RuntimeError):
    """Raised when building a level would exceed the node-count cap."""


@dataclass(frozen=True)
class Domain:
    """An axis-aligned box ``[lo_1, hi_1] x ... x [lo_N, hi_N]``.

    Attributes
    ----------
    bounds:
        Tuple of per-axis ``(lo, hi)`` pairs.  Each extent must be finite and
        strictly positive, and every extent must be an integer multiple of the
        smallest one (so a single uniform spacing fits all axes).
    """

    bounds: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        bounds = tuple((float(lo), float(hi)) for lo, hi in self.bounds)
        object.__setattr__(self, "bounds", bounds)
        if not bounds:
            raise ValueError("domain needs at least one axis")
        for lo, hi in bounds:
            if not (np.isfinite(lo) and np.isfinite(hi)):
                raise ValueError("domain bounds must be finite")
            if hi <= lo:
                raise ValueError(f"axis extent must be positive, got [{lo}, {hi}]")
        base = min(hi - lo for lo, hi in bounds)
        for lo, hi in bounds:
            ratio = (hi - lo) / base
            if abs(ratio - round(ratio)) > 1e-12:
                raise ValueError(
                    "axis extents must be integer multiples of the smallest extent"
                )

    @property
    def dimension(self) -> int:
        return len(self.bounds)

    @property
    def base_spacing(self) -> float:
        """Level-0 spacing ``h_0`` (the smallest axis extent)."""
        return min(hi - lo for lo, hi in self.bounds)

    @property
    def volume(self) -> float:
        vol = 1.0
        for lo, hi in self.bounds:
            vol *= hi - lo
        return vol

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Vectorized membership test for an ``(..., N)`` array of points."""
        pts = np.asarray(points, dtype=float)
        inside = np.ones(pts.shape[:-1], dtype=bool)
        for axis, (lo, hi) in enumerate(self.bounds):
            inside &= (pts[..., axis] >= lo) & (pts[..., axis] <= hi)
        return inside


@dataclass(frozen=True)
class GridLevel:
    """The uniform lattice over ``domain`` at refinement level ``n``.

    Nodes form the tensor product of per-axis coordinates including both box
    faces.  Flat node indices are C-ordered (last axis fastest).

    A level is a value: levels built from the same ``(domain, n)`` are equal
    and hash alike, so they can be mixed freely and used as cache keys.
    """

    domain: Domain
    n: int
    h: float
    shape: tuple[int, ...]

    @property
    def dimension(self) -> int:
        return self.domain.dimension

    @property
    def node_count(self) -> int:
        return int(np.prod(self.shape))

    @cached_property
    def axes(self) -> tuple[np.ndarray, ...]:
        """Per-axis node coordinates."""
        out = []
        for (lo, _hi), m in zip(self.domain.bounds, self.shape):
            out.append(lo + self.h * np.arange(m))
        return tuple(out)

    @cached_property
    def axis_weights(self) -> tuple[np.ndarray, ...]:
        """Per-axis 1D trapezoid weights ``h/2, h, ..., h, h/2``."""
        out = []
        for m in self.shape:
            w = np.full(m, self.h)
            w[0] = w[-1] = 0.5 * self.h
            out.append(w)
        return tuple(out)

    @cached_property
    def weights(self) -> np.ndarray:
        """Flat per-node quadrature weights ``d(a)`` (tensor product)."""
        grid = self.axis_weights[0]
        for w in self.axis_weights[1:]:
            grid = np.multiply.outer(grid, w)
        return np.ascontiguousarray(grid).ravel()

    @cached_property
    def coordinates(self) -> np.ndarray:
        """Flat ``(node_count, N)`` array of node coordinates."""
        mesh = np.meshgrid(*self.axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    @cached_property
    def boundary_mask(self) -> np.ndarray:
        """Flat boolean mask of nodes on the box boundary."""
        mask = np.zeros(self.shape, dtype=bool)
        for axis, m in enumerate(self.shape):
            sl_lo = [slice(None)] * self.dimension
            sl_lo[axis] = 0
            mask[tuple(sl_lo)] = True
            sl_lo[axis] = m - 1
            mask[tuple(sl_lo)] = True
        return mask.ravel()

    def meshgrid(self) -> tuple[np.ndarray, ...]:
        """Coordinate arrays of shape ``self.shape``, one per axis."""
        return tuple(np.meshgrid(*self.axes, indexing="ij"))

    def multi_index(self, flat: np.ndarray | int) -> tuple[np.ndarray, ...]:
        return np.unravel_index(flat, self.shape)

    def flat_index(self, multi: tuple) -> np.ndarray:
        return np.ravel_multi_index(multi, self.shape)


@dataclass(frozen=True, eq=False)
class NodeSet:
    """A subset of the nodes of one level, by sorted flat index."""

    level: GridLevel
    indices: np.ndarray

    def __post_init__(self) -> None:
        idx = np.unique(np.asarray(self.indices, dtype=np.int64))
        if idx.size and (idx[0] < 0 or idx[-1] >= self.level.node_count):
            raise ValueError("node index out of range for level")
        object.__setattr__(self, "indices", idx)

    def __len__(self) -> int:
        return int(self.indices.size)

    def __contains__(self, index: int) -> bool:
        pos = np.searchsorted(self.indices, index)
        return bool(pos < self.indices.size and self.indices[pos] == index)

    def mask(self) -> np.ndarray:
        m = np.zeros(self.level.node_count, dtype=bool)
        m[self.indices] = True
        return m


def build_level(domain: Domain, n: int, node_cap: int = DEFAULT_NODE_CAP) -> GridLevel:
    """Build level ``n`` of the dyadic family over ``domain``.

    Raises
    ------
    ResourceLimitError
        If the level would have more than ``node_cap`` nodes.
    ValueError
        If ``n`` is negative.
    """
    if n < 0:
        raise ValueError("level index must be non-negative")
    h = domain.base_spacing * 2.0**-n
    shape = []
    count = 1
    for lo, hi in domain.bounds:
        m = round((hi - lo) / h) + 1
        shape.append(m)
        count *= m
    if count > node_cap:
        raise ResourceLimitError(
            f"level {n} requires {count} nodes, exceeding the cap of {node_cap}"
        )
    return GridLevel(domain=domain, n=n, h=h, shape=tuple(shape))


def boundary_nodes(level: GridLevel) -> NodeSet:
    """Nodes lying on the boundary of the domain box."""
    return NodeSet(level, np.flatnonzero(level.boundary_mask))


def monad_neighbors(level: GridLevel, node: int) -> NodeSet:
    """The stencil neighborhood of ``node``: all nodes within one cell per axis.

    This is the finite-level monad; it includes the node itself and is
    symmetric (``j in monad(i)`` iff ``i in monad(j)``).
    """
    if not 0 <= node < level.node_count:
        raise ValueError(f"node index {node} out of range")
    multi = np.unravel_index(node, level.shape)
    ranges = []
    for idx, m in zip(multi, level.shape):
        lo = max(int(idx) - 1, 0)
        hi = min(int(idx) + 1, m - 1)
        ranges.append(np.arange(lo, hi + 1))
    mesh = np.meshgrid(*ranges, indexing="ij")
    flat = np.ravel_multi_index(tuple(g.ravel() for g in mesh), level.shape)
    return NodeSet(level, flat)


def level_to_csv(level: GridLevel, path) -> None:
    """Write the node table: index, per-axis coordinates, weight, boundary tag."""
    coords = level.coordinates
    weights = level.weights
    boundary = level.boundary_mask
    header = (
        ["index"]
        + [f"x{i}" for i in range(level.dimension)]
        + ["weight", "boundary"]
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(level.node_count):
            row = [str(i)]
            row += [f"{c:.17g}" for c in coords[i]]
            row.append(f"{weights[i]:.17g}")
            row.append("1" if boundary[i] else "0")
            fh.write(",".join(row) + "\n")
