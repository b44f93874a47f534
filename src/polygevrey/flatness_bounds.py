"""Exponential-flatness fits, the Gevrey envelope, and the maximum-principle
step of the paper's argument: its comparison function and bound, a sampled
check of the principle, and of the null expansion it concludes.

The flat <-> null-Gevrey correspondence is type-exact: only the prefactors
move, and those are existential, so a flat rate is the null-Gevrey type as it
stands and needs no conversion.
"""

from __future__ import annotations

import cmath
import itertools
import math
from typing import Sequence

import numpy as np

from .errors import DimensionMismatchError, DomainError, Record, SeriesError
from .geometry import Polysector, Sector, distinguished_boundary_points, ray_points
from .series import _log_factorials, rate_fit
from .transforms import SampledFunction


class FlatFit(Record):
    """Per-axis exponential decay rates fitted along a ray grid, and the fit's rms residual.

    A zero rate means "merely bounded along this axis": the axis contributes
    no decaying exponential and its term drops from the envelope.
    """

    rates: tuple[float, ...]
    residual: float

    def __init__(self, rates, residual: float):
        self._set(rates, residual)
        if any(r < 0 for r in self.rates):
            raise SeriesError("flat rates must be nonnegative")
        if self.residual < 0:
            raise SeriesError("negative residual")


def fit_flat_type(samples: Sequence[tuple[Sequence[float], float]]) -> FlatFit:
    """Regress -log|f| against (1/r_1, ..., 1/r_n): slopes are the flat rates.

    ``samples`` holds (per-axis radii, |f|) pairs gathered along a ray grid.
    The radii must vary independently per axis (a cartesian grid does) or the
    regression is singular; spanning at least a decade keeps the slopes well
    conditioned.  Exact zeros carry no slope information and are excluded.
    """
    kept = []
    dim = None
    for radii, mag in samples:
        radii = tuple(float(r) for r in radii)
        if dim is None:
            dim = len(radii)
        elif len(radii) != dim:
            raise DomainError("inconsistent sample dimensions")
        if any(r <= 0 for r in radii):
            raise DomainError("radii must be positive")
        if mag != 0:
            kept.append((radii, float(mag)))
    if dim is None or len(kept) < dim + 1:
        raise DomainError("need at least n+1 samples with |f| > 0")
    preds = [[1.0 / r for r in radii] for radii, _ in kept]
    slopes, rms = rate_fit(preds, [-math.log(mag) for _, mag in kept])
    # model: -log|f| = R . (1/r) - log M; slopes at roundoff scale mean
    # "merely bounded", same as genuinely negative ones
    return FlatFit(tuple(0.0 if s < 1e-12 else float(s) for s in slopes), rms)


def gevrey_envelope_log(c: float, a: float, r: float) -> float:
    """log of min over N <= N_cap of C A^N N! r^N.

    The continuous minimizer sits near 1/(A e r); the cap N_cap =
    ceil(2/(A r)) + 10 brackets it with margin.  The log is the primitive:
    the envelope itself underflows doubles once 1/(A r) passes ~700.
    """
    if c <= 0 or a <= 0 or r <= 0:
        raise DomainError("c, a, r must be positive")
    n_cap = math.ceil(2.0 / (a * r)) + 10
    logs = math.log(c) + np.arange(n_cap + 1) * (math.log(a) + math.log(r)) + _log_factorials(n_cap)
    return float(np.min(logs))


def h_aux(z: complex, alpha: float, beta: float, lam: float, c: float) -> complex:
    """Auxiliary exponent with |e^{h(z)}| = (C/|z|^lambda)^{(beta-theta)/(beta-alpha)}.

    The comparison function of the maximum-principle (Phragmen-Lindelof)
    step: f e^{h} is bounded on both edges when |f| = O(|z|^lambda) on the
    edge alpha and f is bounded on the edge beta, so up to a constant
    |e^{-h}| bounds f inside.  The log branch is pinned so arg z lies
    nearest the wedge [alpha, beta].
    """
    if z == 0:
        raise DomainError("h is undefined at the vertex")
    if not (alpha < beta and lam > 0 and c > 0):
        raise DomainError("need alpha < beta, lambda > 0, C > 0")
    logz = complex(math.log(abs(z)), Sector(alpha, beta).arg_nearest_branch(z))
    width = beta - alpha
    return (
        (-1j * lam / (2.0 * width)) * logz * logz
        + ((-lam * beta + 1j * math.log(c)) / width) * logz
        + beta * math.log(c) / width
    )


def wedge_bound(
    z: Sequence[complex],
    alphas: Sequence[float],
    betas: Sequence[float],
    lams: Sequence[float],
    c: float,
    eps: float,
) -> float:
    """Bound kernel (C |z|^lambda)^{(1-eps)^n prod mu_j}, mu_j = (beta_j - arg z_j)/(beta_j - alpha_j).

    The bound the maximum-principle step gives inside the polysector, each
    axis giving up a factor (1 - eps) of the exponent; on one axis it is
    |e^{-h}| of :func:`h_aux` with C -> 1/C and eps -> 0.  The
    multiplicative constant in front is existential and not computed.
    """
    if not 0.0 < eps < 1.0:
        raise DomainError("eps must lie in (0, 1)")
    if c <= 0:
        raise DomainError("C must be positive")
    n = len(z)
    if not (len(alphas) == len(betas) == len(lams) == n):
        raise DomainError("per-axis argument lengths disagree")
    mu = 1.0
    base = c
    for zj, aj, bj, lj in zip(z, alphas, betas, lams):
        if zj == 0:
            raise DomainError("wedge bound undefined at the vertex")
        theta = Sector(aj, bj).arg_nearest_branch(zj)
        if not aj - 1e-12 <= theta <= bj + 1e-12:
            raise DomainError(f"arg z = {theta} outside the wedge [{aj}, {bj}]")
        mu *= (bj - min(max(theta, aj), bj)) / (bj - aj)
        base *= abs(zj) ** lj
    return base ** ((1.0 - eps) ** n * mu)


#: density of pl_check's grids: points on each edge and on the arc of a
#: sector's boundary, and rays plus radii of its interior grid
PL_SAMPLES = 6


class BoundReport(Record):
    """Boundary sup versus interior sup, with the offending points if any."""

    boundary_max: float
    interior_max: float
    violations: tuple
    tolerance: float
    eval_failures: int

    def __init__(self, boundary_max: float, interior_max: float, violations: tuple, tolerance: float,
                 eval_failures: int = 0):
        self._set(boundary_max, interior_max, violations, tolerance, eval_failures)

    def ok(self) -> bool:
        return not self.violations


def _interior_grid(s: Polysector, per_axis: int) -> list[tuple[complex, ...]]:
    axes = []
    for sec in s.sectors:
        pts = []
        n_ang = max(2, per_axis // 2)
        n_rad = max(2, per_axis - n_ang)
        for i in range(n_ang):
            theta = sec.alpha + sec.opening * (i + 1) / (n_ang + 1)
            for k in range(n_rad):
                r = sec.rho * 0.9 * (0.55**k)
                pts.append(r * cmath.exp(1j * theta))
        axes.append(pts)
    return [tuple(p) for p in itertools.product(*axes)]


def pl_check(f: SampledFunction, s: Polysector, tol: float = 1e-9) -> BoundReport:
    """Compare |f| on the distinguished boundary against interior samples.

    Both grids are products over the axes at density PL_SAMPLES: the
    distinguished boundary (:func:`~polygevrey.geometry.distinguished_boundary_points`,
    whose GeometryError rejects an unbounded sector) and interior rays and radii of each sector.

    The subexponential-growth hypothesis that makes the principle valid is
    the caller's responsibility (``pl.json`` records a config's attestation).
    ``f`` is evaluated twice, once on the boundary grid and once on the
    interior grid.  When a grid's call raises DomainError or
    ArithmeticError, that grid is evaluated again one point at a time, and
    each point that raises one of those is counted as an evaluation failure;
    any other exception propagates.
    """
    if s.dim != f.domain.dim:
        raise DimensionMismatchError(
            f"polysector has {s.dim} axes, the function's domain has {f.domain.dim}"
        )
    boundary = distinguished_boundary_points(s, PL_SAMPLES)
    interior = _interior_grid(s, PL_SAMPLES)

    failures = 0

    def probe(points):
        nonlocal failures
        try:
            return list(zip(points, np.abs(f.eval_many(points)).tolist()))
        except (DomainError, ArithmeticError):
            pass
        vals = []
        for pt in points:
            try:
                vals.append((pt, float(np.abs(f.eval_many([pt]))[0])))
            except (DomainError, ArithmeticError):
                failures += 1
        return vals

    bvals = probe(boundary)
    ivals = probe(interior)
    if not bvals:
        raise DomainError("no boundary samples could be evaluated")
    boundary_max = max(v for _, v in bvals)
    interior_max = max((v for _, v in ivals), default=0.0)
    violations = tuple(
        sorted(
            ((pt, v) for pt, v in ivals if v > boundary_max + tol),
            key=lambda t: -t[1],
        )
    )
    return BoundReport(boundary_max, interior_max, violations, tol, failures)


class NullFitEntry(Record):
    """Sup constant for |f| <= c |z|^N along a ray grid, and whether the ratio decays."""

    n_index: tuple[int, ...]
    c_sup: float
    decaying: bool

    def __init__(self, n_index, c_sup: float, decaying: bool):
        self._set(n_index, c_sup, bool(decaying))


def null_expansion_check(
    f: SampledFunction,
    thetas: Sequence[float],
    n_list: Sequence[Sequence[int]],
    radii: Sequence[Sequence[float]],
) -> list[NullFitEntry]:
    """Per-N constants c(N) with |f(z)| <= c(N) |z|^N along the ray grid.

    ``thetas`` is the multidirection, a tuple of one angle per axis, and
    ``radii`` one radius list per axis (:func:`~polygevrey.geometry.ray_points`).

    Tests the conclusion of the argument on samples: run along several
    multidirections, it shows a null expansion holding along each of them.

    ``c_sup`` is the grid supremum of |f|/|z|^N (the bound the definition
    asks for).  ``decaying`` is False when the ratio grows toward the
    vertex, i.e. the claimed power is not actually attained.
    """
    pts = np.asarray(ray_points(f.domain, thetas, radii), dtype=complex)
    vals = np.abs(f.eval_many(pts))
    rad = np.abs(pts)
    out = []
    for n_index in n_list:
        n_index = tuple(int(k) for k in n_index)
        weight = np.prod(rad ** np.asarray(n_index, dtype=float), axis=1)
        nonzero = vals > 0
        ratio = np.where(nonzero, vals / weight, 0.0)
        c_sup = float(np.max(ratio))
        logs = np.log(ratio[nonzero])
        # growing toward the vertex: correlate log-ratio against -log min radius
        min_rad = np.min(rad, axis=1)[nonzero]
        decaying = True
        if logs.size >= 2 and np.ptp(np.log(min_rad)) > 0:
            slopes, _ = rate_fit(np.log(min_rad)[:, None], logs)
            decaying = slopes[0] >= -1e-6
        out.append(NullFitEntry(n_index, c_sup, decaying))
    return out
