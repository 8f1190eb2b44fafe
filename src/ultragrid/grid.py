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

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

__all__ = [
    "DEFAULT_NODE_CAP",
    "Domain",
    "GridLevel",
    "NodeSet",
    "ResourceLimitError",
    "build_level",
    "check_level_index",
]

#: Cap on the node count of a single level.
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


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class GridLevel:
    """The uniform lattice over ``domain`` at refinement level ``n``.

    Nodes form the tensor product of per-axis coordinates including both box
    faces.  Flat node indices are C-ordered (last axis fastest).  Functions
    of the nodes are evaluated on the open mesh ``np.ix_(*axes)``, which
    broadcasts to the lattice shape.

    A level is a value: levels built from the same ``(domain, n)`` are equal
    and hash alike, so they can be mixed freely and used as cache keys.  Its
    cached arrays are read-only, so every holder may share them.
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
        return math.prod(self.shape)

    @cached_property
    def axes(self) -> tuple[np.ndarray, ...]:
        """Per-axis node coordinates."""
        return tuple(_read_only(lo + self.h * np.arange(m))
                     for (lo, _hi), m in zip(self.domain.bounds, self.shape))

    @cached_property
    def axis_weights(self) -> tuple[np.ndarray, ...]:
        """Per-axis 1D trapezoid weights ``h/2, h, ..., h, h/2``."""
        out = []
        for m in self.shape:
            w = np.full(m, self.h)
            w[0] = w[-1] = 0.5 * self.h
            out.append(_read_only(w))
        return tuple(out)

    @cached_property
    def weights(self) -> np.ndarray:
        """Flat per-node quadrature weights ``d(a)`` (tensor product)."""
        grid = self.axis_weights[0]
        for w in self.axis_weights[1:]:
            grid = np.multiply.outer(grid, w)
        return _read_only(np.ascontiguousarray(grid).ravel())

    def coordinates_of(self, nodes) -> np.ndarray:
        """Coordinates of the flat node indices ``nodes``: ``(k, N)`` for
        ``k`` indices, ``(N,)`` for one."""
        multi = np.unravel_index(nodes, self.shape)
        return np.stack([x[i] for x, i in zip(self.axes, multi)], axis=-1)

    def distance(self, center: Sequence[float]) -> np.ndarray:
        """``|x - center|`` at every node, flat in C order.

        The squares are taken on the open mesh ``np.ix_(*axes)`` and summed
        in axis order, ``((x0 - c0)^2 + (x1 - c1)^2) + ...``: bit for bit the
        row norms of the node coordinates, without building them.
        """
        mesh = np.ix_(*self.axes)
        total = sum((x - float(c)) ** 2 for x, c in zip(mesh, center, strict=True))
        return np.sqrt(total, out=total).ravel()

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
        return _read_only(mask.ravel())


@dataclass(frozen=True, eq=False)
class NodeSet:
    """A subset of the nodes of one level, by sorted flat index."""

    level: GridLevel
    indices: np.ndarray

    def __post_init__(self) -> None:
        # sorted, adjacent duplicates dropped: np.unique's result, without the
        # numpy.ma import its masked-array check costs (~13 ms per process)
        idx = np.sort(np.asarray(self.indices, dtype=np.int64), axis=None)
        keep = np.ones(idx.size, dtype=bool)
        np.not_equal(idx[1:], idx[:-1], out=keep[1:])
        idx = idx[keep]
        if idx.size and (idx[0] < 0 or idx[-1] >= self.level.node_count):
            raise ValueError("node index out of range for level")
        object.__setattr__(self, "indices", idx)

    def __len__(self) -> int:
        return int(self.indices.size)

    def mask(self) -> np.ndarray:
        m = np.zeros(self.level.node_count, dtype=bool)
        m[self.indices] = True
        return m


def check_level_index(n: int) -> None:
    """Raise :class:`ResourceLimitError` if level ``n`` is over the node cap
    in any domain: from level ``log2(cap)`` up, its smallest axis alone has
    ``2**n + 1`` nodes, more than ``DEFAULT_NODE_CAP`` (read at call time).
    Decided from ``n`` alone, before ``2.0**-n`` underflows, or ``2**n``
    grows, for a huge ``n``."""
    cap = DEFAULT_NODE_CAP
    if n >= (cap - 1).bit_length():
        raise ResourceLimitError(f"level {n} requires more than {cap} nodes, exceeding the cap")


def build_level(domain: Domain, n: int) -> GridLevel:
    """Build level ``n`` of the dyadic family over ``domain``.

    Raises
    ------
    ResourceLimitError
        If the level would have more than ``DEFAULT_NODE_CAP`` nodes (read
        at call time).
    ValueError
        If ``n`` is negative.
    """
    if n < 0:
        raise ValueError("level index must be non-negative")
    check_level_index(n)
    cap = DEFAULT_NODE_CAP
    h = domain.base_spacing * 2.0**-n
    shape = []
    count = 1
    for lo, hi in domain.bounds:
        m = round((hi - lo) / h) + 1
        shape.append(m)
        count *= m
    if count > cap:
        raise ResourceLimitError(
            f"level {n} requires {count} nodes, exceeding the cap of {cap}"
        )
    return GridLevel(domain=domain, n=n, h=h, shape=tuple(shape))
