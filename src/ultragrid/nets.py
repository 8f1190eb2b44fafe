"""Level-indexed nets and standard-part classification.

A :class:`Net` is a finite increasing family ``(n, payload)`` of at least
three entries, where the payload is either a real number or a
:class:`~ultragrid.calculus.GridFunction`.  Classification inspects the tail
(the last three entries) and decides whether the net converges to a real
number (``Standard``), diverges (``InfinitePlus`` / ``InfiniteMinus``) or
cannot be classified, with diagnostics attached.

The decision rules, in order:

1. *raw Cauchy*: the last increment satisfies
   ``|d2| <= ATOL + RTOL * |x_last|`` — the Richardson-extrapolated value is
   reported when the increment ratio is geometric, otherwise the last entry
   (checked first so settled nets keep small nonzero values);
2. *infinitesimal snap*: all tail entries satisfy ``|x_n| <= KAPPA * h_n``
   — the scale-aware zero test — giving ``Standard(0)``;
3. *geometric tail*: increment ratio ``rho = d2/d1`` with ``|rho| < 1`` and
   fitted order ``p = -log2|rho|`` in ``[0.3, 6]`` gives the extrapolated
   limit ``x_last + d2 * rho / (1 - rho)`` (snapped to 0 when below the
   ``KAPPA * h`` floor); an unstable fit (``p`` outside the band) reports the
   raw last entry with a low-confidence flag;
4. *divergence*: ``|x_n|`` strictly increasing over the tail and either above
   ``DIVERGENCE_CUTOFF`` (1e6) or growing in ``1/h`` with a fitted exponent
   above ``GROWTH_MIN`` (0.3);
5. otherwise ``Unclassified`` with a monotone-growth diagnostic.

For number nets with no grid attached, ``h_n = 2**-n`` by convention.
Every classification reads the module constants ``RTOL``, ``ATOL`` and
``KAPPA``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .calculus import GridFunction
from .grid import NodeSet

__all__ = [
    "Kind",
    "Classification",
    "Net",
    "classify",
    "coarse_values",
    "pointwise_standard_part",
]

#: The raw Cauchy test's relative tolerance, on ``|x_last|``.
RTOL = 1e-6
#: The raw Cauchy test's absolute tolerance.
ATOL = 1e-9
#: A tail within ``KAPPA * h_n`` of zero is infinitesimal.
KAPPA = 10.0
#: A growing tail whose last entry exceeds this in magnitude diverges.
DIVERGENCE_CUTOFF = 1e6
#: A growing tail diverges when its growth exponent in ``1/h`` exceeds this.
GROWTH_MIN = 0.3
#: A node of :func:`pointwise_standard_part` whose values grow strictly in
#: magnitude over the tail is singular once it reaches
#: ``SINGULAR_SCALE * h**-SINGULAR_EXPONENT`` at the finest level.
SINGULAR_SCALE = 1.0
SINGULAR_EXPONENT = 0.5


class Kind(enum.Enum):
    STANDARD = "standard"
    INFINITE_PLUS = "infinite_plus"
    INFINITE_MINUS = "infinite_minus"
    UNCLASSIFIED = "unclassified"


@dataclass(frozen=True)
class Classification:
    """Outcome of :func:`classify` with diagnostics.

    ``value`` is the standard value (finite) when ``kind`` is ``STANDARD``.
    ``increments`` are the last two tail increments, ``exponent`` the fitted
    convergence/growth order when available, ``confidence`` is ``"high"`` or
    ``"low"``, and ``monotone_growth`` records whether ``|x_n|`` was strictly
    increasing over the tail.
    """

    kind: Kind
    value: Optional[float] = None
    increments: tuple[float, ...] = ()
    exponent: Optional[float] = None
    confidence: str = "high"
    monotone_growth: bool = False

    def __post_init__(self) -> None:
        if self.kind is Kind.STANDARD:
            if self.value is None or not math.isfinite(self.value):
                raise ValueError("standard classification requires a finite value")

    def as_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "value": self.value,
            "increments": list(self.increments),
            "exponent": self.exponent,
            "confidence": self.confidence,
            "monotone_growth": self.monotone_growth,
        }


@dataclass(frozen=True)
class Net:
    """Ordered ``(level, payload)`` entries with strictly increasing levels."""

    entries: tuple[tuple[int, object], ...]

    def __post_init__(self) -> None:
        entries = tuple((int(n), payload) for n, payload in self.entries)
        object.__setattr__(self, "entries", entries)
        if len(entries) < 3:
            raise ValueError("a net needs at least three entries")
        levels = [n for n, _ in entries]
        if any(b <= a for a, b in zip(levels, levels[1:])):
            raise ValueError("levels must be strictly increasing")
        kinds = {isinstance(p, GridFunction) for _, p in entries}
        if len(kinds) != 1:
            raise ValueError("payloads must all be numbers or all grid functions")
        if not kinds.pop():
            for n, p in entries:
                if not math.isfinite(float(p)):
                    raise ValueError(f"non-finite payload at level {n}")

    @property
    def levels(self) -> tuple[int, ...]:
        return tuple(n for n, _ in self.entries)

    @property
    def payloads(self) -> tuple:
        return tuple(p for _, p in self.entries)

    @property
    def is_grid_net(self) -> bool:
        return isinstance(self.entries[0][1], GridFunction)

    def spacings(self) -> tuple[float, ...]:
        """Per-entry spacing ``h_n`` (from the grid when present, else 2**-n)."""
        if self.is_grid_net:
            return tuple(p.level.h for _, p in self.entries)
        return tuple(2.0 ** -n for n, _ in self.entries)


def _classify_values(xs: np.ndarray, hs: np.ndarray) -> Classification:
    x1, x2, x3 = xs[-3], xs[-2], xs[-1]
    h1, h2, h3 = hs[-3], hs[-2], hs[-1]
    d1, d2 = x2 - x1, x3 - x2
    mags = np.abs(xs[-3:])
    growing = bool(mags[0] < mags[1] < mags[2])

    rho = d2 / d1 if d1 != 0.0 else math.inf
    p = -math.log2(abs(rho)) if (rho != 0.0 and math.isfinite(rho)) else None

    def extrapolate() -> float:
        if d2 != 0.0 and math.isfinite(rho) and 0.0 < abs(rho) < 1.0:
            return float(x3 + d2 * rho / (1.0 - rho))
        return float(x3)

    # 1. raw Cauchy tail (checked first so settled nets keep their value even
    #    when it sits below the KAPPA*h floor)
    if abs(d2) <= ATOL + RTOL * abs(x3):
        return Classification(
            Kind.STANDARD,
            extrapolate(),
            increments=(d1, d2),
            exponent=p,
            monotone_growth=growing,
        )

    # 2. scale-aware zero
    if abs(x1) <= KAPPA * h1 and abs(x2) <= KAPPA * h2 and abs(x3) <= KAPPA * h3:
        return Classification(
            Kind.STANDARD, 0.0, increments=(d1, d2), monotone_growth=growing
        )

    # 3. geometric tail
    if math.isfinite(rho) and abs(rho) < 1.0 and d2 != 0.0:
        if p is not None and 0.3 <= p <= 6.0:
            limit = extrapolate()
            if abs(limit) <= KAPPA * h3:
                limit = 0.0
            return Classification(
                Kind.STANDARD,
                limit,
                increments=(d1, d2),
                exponent=p,
                monotone_growth=growing,
            )
        if not growing:
            # unstable order fit but bounded tail: raw last entry, flagged
            return Classification(
                Kind.STANDARD,
                float(x3),
                increments=(d1, d2),
                exponent=p,
                confidence="low",
                monotone_growth=growing,
            )
        # growing magnitude with a near-unit ratio: treat as non-convergent

    # 4. divergence
    if growing:
        # growth exponent fitted against 1/h over the last two entries
        g = math.log(mags[2] / mags[1]) / math.log(h2 / h3) if mags[1] > 0 else math.inf
        if abs(x3) > DIVERGENCE_CUTOFF or g > GROWTH_MIN:
            kind = Kind.INFINITE_PLUS if x3 > 0 else Kind.INFINITE_MINUS
            return Classification(
                kind, increments=(d1, d2), exponent=g, monotone_growth=True
            )
        return Classification(
            Kind.UNCLASSIFIED, increments=(d1, d2), exponent=g, monotone_growth=True
        )

    return Classification(
        Kind.UNCLASSIFIED, increments=(d1, d2), exponent=p, monotone_growth=False
    )


def classify(net: Net) -> Classification:
    """Classify a number net (see the module docstring for the rule order)."""
    if net.is_grid_net:
        raise ValueError("classify expects a net of numbers")
    xs = np.array([float(p) for p in net.payloads])
    hs = np.array(net.spacings())
    return _classify_values(xs, hs)


def coarse_values(net: Net) -> np.ndarray:
    """Values of a grid-function net at the coarsest level's nodes.

    Returns an array of shape ``(n_levels, n_coarse_nodes)`` using the dyadic
    nesting of the levels (each coarse node persists at every finer level).
    """
    if not net.is_grid_net:
        raise ValueError("coarse_values expects a net of grid functions")
    coarse = net.entries[0][1].level
    columns = []
    for _n, u in net.entries:
        lvl = u.level
        if lvl.domain != coarse.domain:
            raise ValueError("net levels must share a domain")
        step = round(math.log2(coarse.h / lvl.h))
        if step < 0 or abs(coarse.h - lvl.h * 2**step) > 1e-12 * coarse.h:
            raise ValueError("net levels are not dyadically nested")
        # the coarse nodes are every 2**step-th fine node along each axis
        columns.append(u.grid_values[(slice(None, None, 2**step),) * lvl.dimension].ravel())
    return np.stack(columns)


def pointwise_standard_part(net: Net) -> tuple[GridFunction, NodeSet]:
    """Per-node standard part of a grid-function net over the coarsest level.

    For each node of the coarsest level, the net of values at that fixed
    spatial point is classified.  The node is singular when it classifies
    infinite, or when its magnitude grows strictly over the tail and it is
    either unclassified or at least ``SINGULAR_SCALE * h**-SINGULAR_EXPONENT``
    at the finest level (the finite-level blow-up criterion).  The returned
    function ``w`` carries the standard value of every other node that has
    one and zero elsewhere; the node set ``S`` collects the singular nodes.
    """
    if not net.is_grid_net:
        raise ValueError("pointwise_standard_part expects a net of grid functions")
    coarse = net.entries[0][1].level
    hs = np.array(net.spacings())
    values = coarse_values(net)
    blowup = SINGULAR_SCALE * hs[-1] ** -SINGULAR_EXPONENT

    w = np.zeros(coarse.node_count)
    singular = []
    for j in range(coarse.node_count):
        c = _classify_values(values[:, j], hs)
        if c.kind in (Kind.INFINITE_PLUS, Kind.INFINITE_MINUS) or (c.monotone_growth and (
            c.kind is Kind.UNCLASSIFIED or abs(values[-1, j]) >= blowup
        )):
            singular.append(j)
        elif c.kind is Kind.STANDARD:
            w[j] = c.value
        # unclassified without growth: no standard value; w stays 0
    return GridFunction(coarse, w), NodeSet(coarse, np.array(singular, dtype=np.int64))
