"""Plane sectors, polysectors, and the sampling grids built on them.

A multidirection is a plain tuple of angles, one per axis.

Angles are stored unreduced (no mod 2*pi) so that openings close to pi stay
unambiguous; the sine and circle formulas elsewhere depend on signed angle
differences.  Membership tests pick the branch of arg(z) nearest the sector
bisector, which keeps sectors crossing the principal cut well defined.
"""

from __future__ import annotations

import cmath
import itertools
import math
from typing import Iterable, Sequence

from .errors import DimensionMismatchError, GeometryError, Record

TWO_PI = 2.0 * math.pi


class Sector(Record):
    """Open sector ``0 < |z| < rho``, ``arg z`` in ``(alpha, beta)``."""

    alpha: float
    beta: float
    rho: float

    def __init__(self, alpha: float, beta: float, rho: float = math.inf):
        self._set(alpha, beta, rho)
        if not self.alpha < self.beta:
            raise GeometryError(f"sector needs alpha < beta, got ({self.alpha}, {self.beta})")
        if not self.rho > 0:
            raise GeometryError(f"sector radius must be positive, got {self.rho}")

    @property
    def opening(self) -> float:
        return self.beta - self.alpha

    @property
    def bisector(self) -> float:
        return 0.5 * (self.alpha + self.beta)

    @property
    def bounded(self) -> bool:
        return math.isfinite(self.rho)

    def arg_nearest_branch(self, z: complex) -> float:
        """Branch of arg(z) closest to the bisector (z != 0)."""
        theta = cmath.phase(z)
        k = round((self.bisector - theta) / TWO_PI)
        return theta + k * TWO_PI

    def contains(self, z: complex) -> bool:
        r = abs(z)
        if not 0.0 < r < self.rho:
            return False
        theta = self.arg_nearest_branch(z)
        return self.alpha < theta < self.beta

    def boundary_distance(self, z: complex) -> float:
        """Distance from an interior point to the sector boundary."""
        r = abs(z)
        theta = self.arg_nearest_branch(z)
        dist = math.inf
        for edge in (self.alpha, self.beta):
            gap = abs(theta - edge)
            dist = min(dist, r * math.sin(gap) if gap < 0.5 * math.pi else r)
        if self.bounded:
            dist = min(dist, self.rho - r)
        return dist


class Polysector(Record):
    """Cartesian product of sectors.  Dimension 0 is allowed only as the
    domain of constant family elements; a config's polysector needs dim >= 1."""

    sectors: tuple[Sector, ...]

    def __init__(self, sectors: Iterable[Sector]):
        self._set(tuple(sectors))

    @property
    def dim(self) -> int:
        return len(self.sectors)

    def contains(self, zs: Sequence[complex]) -> bool:
        if len(zs) != self.dim:
            raise DimensionMismatchError(f"point has {len(zs)} coordinates, polysector {self.dim}")
        return all(s.contains(z) for s, z in zip(self.sectors, zs))

    def axes_subset(self, axes: Iterable[int]) -> "Polysector":
        return Polysector(self.sectors[j] for j in sorted(axes))


EMPTY_POLYSECTOR = Polysector(())


def geometric_radii(r0: float, ratio: float, count: int) -> tuple[float, ...]:
    """The geometric grid r_k = r0 * ratio**k, k < count: a config's radius grid and the ladder's rungs."""
    if not (r0 > 0 and 0 < ratio < 1 and count >= 1):
        raise GeometryError("need r0 > 0, ratio in (0,1), count >= 1")
    return tuple(r0 * ratio**k for k in range(count))


def ray_points(
    s: Polysector,
    thetas: Sequence[float],
    radii: Sequence[Sequence[float]],
) -> list[tuple[complex, ...]]:
    """Cartesian product of per-axis points r * e^{i theta_j}, all inside ``s``.

    ``thetas`` is the multidirection: one angle per axis, each inside its sector.
    """
    if len(thetas) != s.dim:
        raise DimensionMismatchError(f"direction has {len(thetas)} angles, polysector {s.dim}")
    if not all(sec.alpha < t < sec.beta for sec, t in zip(s.sectors, thetas)):
        raise GeometryError("direction lies outside the polysector")
    if len(radii) != s.dim:
        raise DimensionMismatchError("one radius list per axis required")
    per_axis: list[list[complex]] = []
    for sec, theta, axis in zip(s.sectors, thetas, radii):
        pts = []
        for r in axis:
            if not 0 < r < sec.rho:
                raise GeometryError(f"radius {r} outside (0, {sec.rho})")
            pts.append(r * cmath.exp(1j * theta))
        per_axis.append(pts)
    return [tuple(p) for p in itertools.product(*per_axis)]


def _sector_boundary_points(sec: Sector, density: int) -> list[complex]:
    if not sec.bounded:
        raise GeometryError("distinguished boundary sampling needs a bounded sector")
    if density < 1:
        raise GeometryError("density must be >= 1")
    pts: list[complex] = []
    for edge in (sec.alpha, sec.beta):
        phase = cmath.exp(1j * edge)
        for i in range(density):
            pts.append(sec.rho * (i + 1) / density * phase)
    for i in range(density):
        theta = sec.alpha + sec.opening * (i + 1) / (density + 1)
        pts.append(sec.rho * cmath.exp(1j * theta))
    return pts


def distinguished_boundary_points(s: Polysector, density: int) -> list[tuple[complex, ...]]:
    """Points with every coordinate on its sector boundary; the vertex is excluded."""
    per_axis = [_sector_boundary_points(sec, density) for sec in s.sectors]
    return [tuple(p) for p in itertools.product(*per_axis)]
