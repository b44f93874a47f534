"""Explicit direction-dependent type formulas, as pure evaluations.

Everything here is a closed formula or a 1-D optimization: the loss factor
g(delta), the cos^2 profile it produces, the three-branch sine law for
one-variable expansions, the two-branch sine law for flat types, the circle
construction that interpolates flat rates between two edges, and the final
combined profile that merges all of them.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache
from typing import Callable, Sequence

from .errors import DomainError, GeometryError, Record

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def scan_max(fn: Callable[[float], float], lo: float, hi: float, n: int, xtol: float) -> float:
    """Max of ``fn`` on [lo, hi]: the best of ``n`` equispaced samples, refined by golden section
    between that sample's two neighbours to a bracket of ``xtol``."""
    xs = [lo + (hi - lo) * k / (n - 1) for k in range(n)]
    vals = [fn(x) for x in xs]
    k = max(range(n), key=vals.__getitem__)
    a, b = xs[max(0, k - 1)], xs[min(n - 1, k + 1)]
    x1, x2 = b - _INV_GOLDEN * (b - a), a + _INV_GOLDEN * (b - a)
    f1, f2 = fn(x1), fn(x2)
    while b - a > xtol:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INV_GOLDEN * (b - a)
            f2 = fn(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INV_GOLDEN * (b - a)
            f1 = fn(x1)
    return max(f1, f2, vals[k])


def _g_objective(delta: float) -> Callable[[float], float]:
    root_flat = math.sqrt(max(0.0, 1.0 - delta * delta))

    def fn(c: float) -> float:
        return c * (math.sqrt(max(0.0, 1.0 - c * c * delta * delta)) - c * root_flat) / (1.0 + c * delta)

    return fn


@lru_cache(maxsize=4096)
def g_of_delta(delta: float) -> float:
    """sup over c in (0,1) of c(sqrt(1-c^2 d^2) - c sqrt(1-d^2))/(1+cd).

    :func:`scan_max` over c in [1e-6, 1 - 1e-6]: 64 samples, refined to 1e-8.
    The objective looks unimodal empirically; the scan guards against flat
    stretches as delta -> 0.
    """
    if not 0.0 < delta <= 1.0:
        raise DomainError(f"delta must lie in (0, 1], got {delta}")
    return scan_max(_g_objective(delta), 1e-6, 1.0 - 1e-6, 64, 1e-8)


def gamma_constant() -> float:
    """g evaluated at delta = 1 (direction aligned with the segment), ~0.30028.

    The share of a type that the derivative-bound step of the Gevrey case
    keeps in the direction of z0 (:func:`r_tilde` at delta = 1);
    :func:`final_type` caps each axis's spread type at gamma times its sup.
    """
    return g_of_delta(1.0)


def r_tilde(z0_mod: float, theta: float, theta0: float) -> tuple[float, float, float]:
    """Derivative-bound type |z0| delta^2 g(delta) with its cos^2/4.7 .. cos^2/2 bracket."""
    if z0_mod <= 0:
        raise DomainError("z0 modulus must be positive")
    gap = theta - theta0
    if not abs(gap) < 0.5 * math.pi:
        raise DomainError(f"direction {theta} outside the half-plane around {theta0}")
    delta = math.cos(gap)
    value = z0_mod * delta * delta * g_of_delta(delta)
    lower = z0_mod * delta * delta / 4.7
    upper = z0_mod * delta * delta / 2.0
    return value, lower, upper


def fz_type(theta: float, alpha: float, beta: float, theta0: float, r0: float) -> float:
    """Three-branch sine law spreading a one-variable type across the sector.

    The plateau [alpha', beta'] with alpha' = min(theta0, alpha + pi/2) and
    beta' = max(theta0, beta - pi/2) keeps the type constant; outside it the
    type falls off like sin(theta - edge).  Continuous on [alpha, beta], zero
    at the edges, equal to r0 on the plateau.
    """
    if not alpha < theta0 < beta:
        raise DomainError(f"theta0={theta0} not interior to ({alpha}, {beta})")
    if not alpha <= theta <= beta:
        raise DomainError(f"theta={theta} outside [{alpha}, {beta}]")
    if r0 < 0:
        raise DomainError("r0 must be nonnegative")
    a_prime = min(theta0, alpha + 0.5 * math.pi)
    b_prime = max(theta0, beta - 0.5 * math.pi)
    if theta < a_prime:
        return r0 * math.sin(theta - alpha) / math.sin(a_prime - alpha)
    if theta > b_prime:
        return r0 * math.sin(theta - beta) / math.sin(b_prime - beta)
    return r0


def sine_type(theta: float, alpha: float, beta: float, theta0: float, r: float) -> float:
    """Two-branch sine ratio for flat types on a sector of opening < pi."""
    if not beta - alpha < math.pi:
        raise DomainError("sine law needs opening < pi")
    if not alpha < theta0 < beta:
        raise DomainError(f"theta0={theta0} not interior to ({alpha}, {beta})")
    if not alpha <= theta <= beta:
        raise DomainError(f"theta={theta} outside [{alpha}, {beta}]")
    if r < 0:
        raise DomainError("r must be nonnegative")
    if theta >= theta0:
        return r * math.sin(theta - beta) / math.sin(theta0 - beta)
    return r * math.sin(theta - alpha) / math.sin(theta0 - alpha)


def circle_type(r_alpha: float, r_beta: float, alpha: float, beta: float, theta: float) -> float:
    """Second intersection of the ray ``theta`` with the edge-interpolating circle.

    Both radii positive: circumcircle of the vertex and the two edge points.
    One radius zero: circle through the remaining point, tangent at the vertex
    to the vanishing edge (closed form, no iterative geometry).  Both zero: 0.
    Any circle through 0 with center w meets the ray at 2 Re(e^{i theta} conj w).
    """
    if not beta - alpha < math.pi:
        raise DomainError("circle law needs opening < pi")
    if not alpha <= theta <= beta:
        raise DomainError(f"theta={theta} outside [{alpha}, {beta}]")
    if r_alpha < 0 or r_beta < 0:
        raise DomainError("edge radii must be nonnegative")
    span = math.sin(beta - alpha)
    if abs(span) < 1e-12:
        raise GeometryError("degenerate circumcircle: edge points collinear with the vertex")
    if r_alpha == 0.0 and r_beta == 0.0:
        return 0.0
    if r_beta == 0.0:
        return max(0.0, r_alpha * math.sin(beta - theta) / span)
    if r_alpha == 0.0:
        return max(0.0, r_beta * math.sin(theta - alpha) / span)
    # solve 2(wx cos e + wy sin e) = R(e) at both edges for the center w
    det = span
    rhs_a, rhs_b = 0.5 * r_alpha, 0.5 * r_beta
    wx = (rhs_a * math.sin(beta) - rhs_b * math.sin(alpha)) / det
    wy = (rhs_b * math.cos(alpha) - rhs_a * math.cos(beta)) / det
    return max(0.0, 2.0 * (wx * math.cos(theta) + wy * math.sin(theta)))


class TypeProfile(Record):
    """Direction-dependent type on one axis: theta -> R(theta) > 0 on (alpha, beta)."""

    alpha: float
    beta: float
    fn: Callable[[float], float]

    def __init__(self, alpha: float, beta: float, fn: Callable[[float], float]):
        self._set(alpha, beta, fn)
        if not self.alpha < self.beta:
            raise GeometryError("profile domain needs alpha < beta")

    @classmethod
    def constant(cls, alpha: float, beta: float, value: float) -> "TypeProfile":
        if value <= 0:
            raise DomainError("constant profile must be positive")
        return cls(alpha, beta, lambda _theta: value)

    @cached_property
    def sup(self) -> float:
        """Approximate sup over the open domain (:func:`scan_max`, 1024 samples), kept by the profile."""
        margin = (self.beta - self.alpha) * 1e-9
        return scan_max(self.fn, self.alpha + margin, self.beta - margin, 1024, 1e-10)


def final_type(
    thetas: Sequence[float],
    theta0s: Sequence[float],
    r0s: Sequence[float],
    profiles: Sequence[TypeProfile],
) -> tuple[float, ...]:
    """Combined per-axis type of the full expansion.

    Per axis: min of the sine-law spread (:func:`sine_type`) of
    t_j = min(R0_j, gamma_j*gamma, R_j(theta0_j)), the profile itself, and
    the cos^2 derivative-bound term (:func:`r_tilde` with |z0| = gamma_j),
    where gamma_j is the profile sup and gamma = g(1).
    """
    n = len(thetas)
    if not (len(theta0s) == len(r0s) == len(profiles) == n):
        raise DomainError("per-axis argument lengths disagree")
    gamma = gamma_constant()
    out = []
    for theta, theta0, r0, prof in zip(thetas, theta0s, r0s, profiles):
        alpha, beta = prof.alpha, prof.beta
        if not (theta0 - 0.5 * math.pi < alpha < theta0 < beta < theta0 + 0.5 * math.pi):
            raise DomainError(
                f"need theta0-pi/2 < alpha < theta0 < beta < theta0+pi/2 on axis with theta0={theta0}"
            )
        if r0 <= 0:
            raise DomainError("r0 must be positive")
        gamma_j = prof.sup
        t_j = min(r0, gamma_j * gamma, prof.fn(theta0))
        spread = sine_type(theta, alpha, beta, theta0, t_j)
        out.append(min(spread, prof.fn(theta), r_tilde(gamma_j, theta, theta0)[0]))
    return tuple(out)
