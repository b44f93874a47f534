"""Truncated Laplace transforms and the interpolation constructions built on them.

Every Borel sum the package integrates is a stored polynomial, and for a
polynomial the truncated transform is exact: t^n/n! maps to z^n P(n+1, z0/z),
with P the regularized lower incomplete gamma function (DLMF 8.2, 8.4).
:func:`laplace_monomials` evaluates that kernel.  The Borel image of z^N is
t^N/N!, so the transform of a series' Borel sum is its own coefficients
contracted against the kernel's tables, one axis at a time
(:meth:`LaplaceTables.transform`); no factorial is formed.

No library path integrates numerically.  Adaptive composite Gauss-Legendre
quadrature (15-point panels, recursive bisection on the segment parameter) is
kept as the reference implementation the tests hold the closed forms to;
the benchmark's tracer also looks its functions up by name.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .errors import (
    CoherenceError,
    DimensionMismatchError,
    DomainError,
    ProbeError,
    QuadratureError,
    Record,
    SeriesError,
    TailError,
)
from .geometry import EMPTY_POLYSECTOR, Polysector, Sector
from .series import MultiIndexSeries, _contract, _dense, _log_factorials, _powers, fit_gevrey_type, gamma1_norm

_EPS = float(np.finfo(float).eps)

# The 15-point Gauss-Legendre rule on [-1, 1], bit for bit as
# scipy.special.roots_legendre(15) returns it.  Do not swap in
# numpy.polynomial.legendre.leggauss(15): its weights differ by up to 1.2e-15,
# and at tight tolerances the adaptive quadrature sits at its round-off floor,
# so the swap changes refinement decisions.
_GL_NODES = np.array([
    -0.9879925180204854, -0.937273392400706, -0.8482065834104272, -0.7244177313601701,
    -0.5709721726085388, -0.3941513470775634, -0.20119409399743454, 0.0,
    0.20119409399743454, 0.3941513470775634, 0.5709721726085388, 0.7244177313601701,
    0.8482065834104272, 0.937273392400706, 0.9879925180204854,
])
_GL_WEIGHTS = np.array([
    0.030753241996118154, 0.07036604748810715, 0.10715922046717176, 0.13957067792615432,
    0.16626920581699411, 0.18616100001556224, 0.19843148532711163, 0.20257824192556137,
    0.19843148532711163, 0.18616100001556224, 0.16626920581699411, 0.13957067792615432,
    0.10715922046717176, 0.07036604748810715, 0.030753241996118154,
])


class SampledFunction(Record):
    """Holomorphic function on a polysector: a domain plus a batch callback.

    ``fn`` receives a complex array of shape (k, dim), one point per row, and
    returns k values; callbacks must be pure.  :meth:`eval_many` is the only
    way to evaluate.  A constant (an all-axes element of a total family) is a
    callback on the 0-dimensional polysector, whose points are the rows of a
    (k, 0) array.  ``provenance`` records how the values are made.
    """

    domain: Polysector
    fn: Callable
    provenance: str

    def __init__(self, domain: Polysector, fn: Callable, provenance: str = "closed-form"):
        self._set(domain, fn, provenance)

    @classmethod
    def constant(cls, value: complex, provenance: str = "closed-form") -> "SampledFunction":
        value = complex(value)
        return cls(EMPTY_POLYSECTOR, lambda pts: np.full(len(pts), value, dtype=complex), provenance)

    def eval_many(self, pts: np.ndarray) -> np.ndarray:
        return np.asarray(self.fn(np.asarray(pts, dtype=complex)), dtype=complex)


def _gl_panel(fvec, a: float, b: float):
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    vals = fvec(mid + half * _GL_NODES)
    return half * np.tensordot(_GL_WEIGHTS, vals, axes=(0, 0))


def adaptive_panel_quad(
    fvec: Callable[[np.ndarray], np.ndarray],
    a: float = 0.0,
    b: float = 1.0,
    tol: float = 1e-10,
    max_depth: int = 30,
):
    """Adaptive composite 15-point Gauss-Legendre on [a, b].

    ``fvec`` maps an (m,) array of abscissae to an (m, ...) array of complex
    integrand values; trailing axes are integrated in one shared refinement
    tree (a panel is split while any batch column still fails its share of
    the tolerance budget).  Returns (value, error_estimate).
    """
    total_len = b - a
    eps = float(np.finfo(float).eps)
    whole = _gl_panel(fvec, a, b)
    value = np.zeros_like(whole)
    err = np.zeros(np.shape(whole), dtype=float)
    # roundoff floor: panel estimates cannot beat eps * (integrand scale) * length
    scale = float(np.max(np.abs(whole))) / total_len
    stack = [(a, b, whole, 0)]
    while stack:
        lo, hi, coarse, depth = stack.pop()
        mid = 0.5 * (lo + hi)
        left = _gl_panel(fvec, lo, mid)
        right = _gl_panel(fvec, mid, hi)
        fine = left + right
        panel_len = hi - lo
        scale = max(scale, float(np.max(np.abs(fine))) / panel_len)
        panel_err = np.abs(fine - coarse)
        budget = panel_len * max(tol / total_len, 8.0 * eps * scale)
        if np.max(panel_err) <= budget or depth >= max_depth:
            if depth >= max_depth and np.max(panel_err) > budget:
                raise QuadratureError(
                    f"quadrature stalled at depth {depth} with error {np.max(panel_err):.3e}",
                    partial=value + fine,
                    error=float(np.max(err + panel_err)),
                )
            value = value + fine
            err = err + panel_err
        else:
            stack.append((lo, mid, left, depth + 1))
            stack.append((mid, hi, right, depth + 1))
    return value, err


def _require_half_plane(z0: complex, z: np.ndarray):
    w = z0 / z
    if np.any(w.real <= 0):
        raise DomainError(
            "z outside the half-plane sector: need |arg z - arg z0| < pi/2 on every point"
        )
    return w


def truncated_laplace_with_error(
    phi: Callable[[np.ndarray], np.ndarray],
    z0: complex,
    z,
    tol: float = 1e-10,
):
    """(1/z) * integral of phi(t) e^{-t/z} dt over the segment [0, z0], to error ``tol``.

    Parametrized as t = s z0, s in [0, 1].  ``phi`` maps an array of t values
    to an array of the same shape.  ``z`` may be a scalar or a 1-D array; the
    quadrature refinement tree is shared across the batch.
    """
    z0 = complex(z0)
    z_arr = np.atleast_1d(np.asarray(z, dtype=complex))
    if np.any(z_arr == 0):
        raise DomainError("z must be nonzero")
    w = _require_half_plane(z0, z_arr)

    def fvec(s: np.ndarray) -> np.ndarray:
        ph = np.asarray(phi(s * z0), dtype=complex)
        kern = w[None, :] * np.exp(-np.multiply.outer(s, w))
        return ph[:, None] * kern

    val, err = adaptive_panel_quad(fvec, 0.0, 1.0, tol)
    if np.isscalar(z) or np.asarray(z).ndim == 0:
        return complex(val[0]), float(err[0])
    return val, err


def truncated_laplace_nd(
    phi: Callable[[np.ndarray], np.ndarray],
    z0: Sequence[complex],
    z: Sequence[complex],
    tol: float = 1e-10,
) -> complex:
    """Iterated truncated Laplace transform over all axes of ``z0``, each level to error ``tol``.

    ``phi`` maps an array of points with shape (k, n) to a (k,) array.  Axis 0
    is integrated outermost, the last axis innermost; each level runs the 1-D
    adaptive quadrature with the inner levels evaluated at its panel nodes.
    """
    n = len(z0)
    zt = tuple(complex(w) for w in z)
    if len(zt) != n:
        raise DomainError(f"point has {len(zt)} coordinates, z0 has {n}")
    ws = []
    for j in range(n):
        if zt[j] == 0:
            raise DomainError("z components must be nonzero")
        ws.append(_require_half_plane(z0[j], np.asarray([zt[j]]))[0])

    def level(j: int, prefix: np.ndarray) -> np.ndarray:
        nb = prefix.shape[0]
        wj = ws[j]
        z0j = complex(z0[j])

        def fvec(s: np.ndarray) -> np.ndarray:
            m = s.size
            tj = s * z0j
            pts = np.empty((m * nb, j + 1), dtype=complex)
            pts[:, :j] = np.tile(prefix, (m, 1))
            pts[:, j] = np.repeat(tj, nb)
            inner = phi(pts) if j == n - 1 else level(j + 1, pts)
            kern = wj * np.exp(-s * wj)
            return np.asarray(inner, dtype=complex).reshape(m, nb) * kern[:, None]

        val, _ = adaptive_panel_quad(fvec, 0.0, 1.0, tol)
        return val

    start = np.zeros((1, 0), dtype=complex)
    return complex(level(0, start)[0])


@lru_cache(maxsize=None)
def _tail_terms(top: int) -> int:
    """Terms of the tail series sum_j prod_{i<=j} w/(top+1+i) that :func:`laplace_monomials` sums.

    On the tail branch |w| < top+1, so term j is at most b_j = prod_{i<=j} (top+1)/(top+1+i)
    and the terms past j = k add at most b_k (top+2+k)/(k+1).  The count is the least k that
    keeps this below eps/8.  The series' sum exceeds 1/sqrt 2 in modulus there (it approaches
    that value at w = +-i(top+1) as top grows; the tests check a grid), so the dropped part
    stays below eps/4 of the sum.
    """
    k, b = 0, 1.0
    while b * (top + 2 + k) / (k + 1) > 0.125 * _EPS:
        k += 1
        b *= (top + 1) / (top + 1 + k)
    return k


def laplace_monomials(z0: complex, z, top: int) -> np.ndarray:
    """(1/z) * integral of t^n/n! e^{-t/z} dt over [0, z0], for n = 0..top.

    That is z^n P(n+1, z0/z), P the regularized lower incomplete gamma
    function.  ``z`` is a scalar or a 1-D array of k points with
    |arg z - arg z0| < pi/2; the result has shape (top+1, k).

    With w = z0/z and t_k = e^{-w} w^k / k! (formed in log space), P(n+1, w)
    is 1 - sum_{k<=n} t_k where |w| >= n+1, and the decreasing tail
    sum_{k>n} t_k below that.  The tail runs backward from n = top, whose sum
    past t_{top+1} is the series sum_j prod_{i<=j} w/(top+1+i); the factor z^n
    rides along in s_n = z^n t_{n+1} = e^{-w} z0^{n+1} / ((n+1)! z), one
    exponential per point.  The series is cut after a number of terms that
    depends on ``top`` alone (:func:`_tail_terms`: 34, 47 and 71 at top 6, 16
    and 45), which bounds the dropped part by eps/4 of the sum, and its terms
    are multiplied and added in a fixed order.  So each point's values are
    the same bits whatever other points share the call.  The sums over these
    tables keep that: :meth:`LaplaceTables.transform`, ``series.evaluate_many``
    and the :func:`interpolate_first_order` interpolant add their terms in the
    fixed order of an einsum without ``optimize`` (``series._contract``).
    """
    z0 = complex(z0)
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    if np.any(z == 0):
        raise DomainError("z must be nonzero")
    w = _require_half_plane(z0, z)
    n = np.arange(top + 1)
    lgam = _log_factorials(top + 1)
    t = np.exp(-w - lgam[: top + 1, None] + np.multiply.outer(n, np.log(w)))
    vals = _powers(z, top) * (1.0 - np.cumsum(t, axis=0))
    cols = np.flatnonzero(np.abs(w) < top + 1)
    if cols.size == 0:
        return vals
    wt, zt = w[cols], z[cols]
    ratios = np.ones((_tail_terms(top), cols.size), dtype=complex)
    ratios[1:] = wt / np.arange(top + 2, top + 1 + len(ratios))[:, None]
    # cumsum adds each column's terms in order; a sum over the axis would not for one column
    rest = np.cumsum(np.cumprod(ratios, axis=0), axis=0)[-1]
    s = np.exp((n + 1) * np.log(z0) - lgam[1:])[:, None] * (np.exp(-wt) / zt)
    u = np.empty((top + 1, cols.size), dtype=complex)
    u[top] = s[top] * rest
    for m in range(top - 1, -1, -1):
        u[m] = u[m + 1] / zt + s[m]
    use = (n[:, None] + 1) > np.abs(wt)
    vals[:, cols] = np.where(use, u, vals[:, cols])
    return vals


def laplace_monomial_errors(z0: complex, z, top: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`laplace_monomials` and a bound on the rounding error of each of its values.

    Every term the kernel sums is an exponential whose exponent has parts of
    size |w|, n |log w| and log n! (head), or |w|, (n+1) |log z0|, |log z| and
    log (n+1)! (tail).  Each part is rounded, and so is w = z0/z, so a term
    carries a relative error below kappa eps, with kappa three times the
    parts' sum plus the number of rounded additions behind the value (n+2 for
    the head sum, top+2 for the backward recursion).  Both act on the
    magnitudes the kernel sums, which are its own terms at real arguments:
    |z|^n sum_{k<=n} |t_k| directly, and |z|^n sum_{k>n} |t_k| =
    e^{|w| - Re w} |z|^n P(n+1, |w|).  The powers of z add (n+2) eps of the
    value.  Only reports need the bound, so evaluation never computes it.
    """
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    vals = laplace_monomials(z0, z, top)
    w = complex(z0) / z
    aw, az = np.abs(w), np.abs(z)
    n = np.arange(top + 1)[:, None]
    lgam = _log_factorials(top + 1)
    head = az**n * np.cumsum(np.exp(n * np.log(aw) - lgam[: top + 1, None] - w.real), axis=0)
    tail = laplace_monomials(abs(z0), az, top).real * np.exp(np.where(aw < top + 1, aw - w.real, 0.0))
    in_tail = n + 1 > aw
    kappa = np.where(
        in_tail,
        3.0 * (aw + (n + 1) * abs(np.log(complex(z0))) + np.abs(np.log(z)) + lgam[1:, None]) + top + 2,
        3.0 * (aw + n * np.abs(np.log(w)) + lgam[: top + 1, None]) + n + 2,
    )
    return vals, _EPS * ((n + 2) * np.abs(vals) + kappa * np.where(in_tail, tail, head))


def brg_type(z0: Sequence[complex], theta: Sequence[float]) -> tuple[float, ...]:
    """Per-axis type |z0_j| cos(theta_j - arg z0_j) of the truncated-Laplace expansion.

    The Laplace-transform step of the Gevrey case: the truncated transform
    differs from the full one by O(e^{-Re(z0/z)}), which is e^{-type/|z|}
    along theta.  The ``euler`` and ``brg_const`` type profiles are this law.
    """
    z0 = tuple(complex(w) for w in z0)
    thetas = tuple(float(t) for t in theta)
    if len(z0) != len(thetas):
        raise DomainError("one direction per axis required")
    out = []
    for w, t in zip(z0, thetas):
        gap = t - cmath.phase(w)
        if not abs(gap) < 0.5 * math.pi:
            raise DomainError(f"direction {t} outside the half-plane around arg z0 = {cmath.phase(w)}")
        out.append(abs(w) * math.cos(gap))
    return tuple(out)


def half_plane_polysector(z0: Sequence[complex]) -> Polysector:
    """Product of the half-plane sectors bisected by the arguments of z0."""
    return Polysector(
        Sector(cmath.phase(w) - 0.5 * math.pi, cmath.phase(w) + 0.5 * math.pi, math.inf)
        for w in z0
    )


def _borel_tail_bound(fhat: MultiIndexSeries, types: Sequence[float], t_mods: Sequence[float]) -> float:
    """Gamma^1-envelope bound on the Borel-sum tail past the stored degree; requires each t_j / R_j <= 0.9."""
    weights = [min(r, 1e12) for r in types]
    norm = gamma1_norm(fhat, weights)
    if norm == 0:
        return 0.0
    qs = [tm / r for tm, r in zip(t_mods, types)]
    full = math.prod(1.0 / (1.0 - q) for q in qs)
    stored = math.prod((1.0 - q ** (d + 1)) / (1.0 - q) for q, d in zip(qs, fhat.degree_bound))
    return norm * (full - stored)


def _require_endpoints(z0: Sequence[complex], dim: int):
    """DimensionMismatchError unless ``z0`` has ``dim`` endpoints; DomainError for a zero endpoint."""
    if len(z0) != dim:
        raise DimensionMismatchError(f"one endpoint per axis required: {len(z0)} for {dim} axes")
    if any(w == 0 for w in z0):
        raise DomainError("integration endpoints must be nonzero")


def borel_disc_types(fhat: MultiIndexSeries, z0: Sequence[complex]) -> tuple[float, ...]:
    """Fitted Gevrey type of ``fhat`` per axis, after the checks every endpoint tuple passes.

    DimensionMismatchError unless there is one endpoint per axis; DomainError
    for a zero endpoint or when some |z0_j| is not inside the type.  A series
    with too few nonzero coefficients to fit counts as unbounded; one whose
    fitted rate underflows has type 0.0, and no z0 lies inside it.
    """
    _require_endpoints(z0, fhat.dim)
    try:
        types = fit_gevrey_type(fhat)
    except SeriesError:
        types = (math.inf,) * fhat.dim
    for j, w in enumerate(z0):
        if not abs(w) < types[j]:
            raise DomainError(
                f"z0 outside the Borel disc on axis {j}: |z0|={abs(w):.6g}, type={types[j]:.6g}"
            )
    return types


def brg_function(fhat: MultiIndexSeries, z0: Sequence[complex], tol: float = 1e-10) -> SampledFunction:
    """Truncated Laplace transform of the Borel sum of a 1-Gevrey series, from endpoints ``z0``.

    The result is holomorphic on the product of half-planes around the
    arguments of z0 and carries the series' family as its expansion, with the
    cosine type law of :func:`brg_type`.  It is the closed-form transform of
    the stored part of the Borel sum, :meth:`LaplaceTables.transform` of the
    series itself.  The checks keep the dropped part small: |z0_j| <= 0.9 R_j
    on every axis, and the a-posteriori bound on the dropped tail (from the
    fitted Gevrey envelope) must clear ``tol``.
    """
    if not tol > 0:
        raise DomainError("tolerance must be positive")
    types = borel_disc_types(fhat, z0)
    for w, r in zip(z0, types):
        if abs(w) > 0.9 * r:
            raise TailError(
                f"Borel sum restricted to |t| <= 0.9 R: |z0|={abs(w):.6g} vs R={r:.6g}"
            )
    tail = _borel_tail_bound(fhat, types, [abs(w) for w in z0])
    if not tail <= tol:
        raise TailError(
            f"Borel-sum tail bound {tail:.3e} exceeds tolerance {tol:.3e}"
        )
    return LaplaceTables(z0, fhat.degree_bound).transform(fhat, tuple(range(fhat.dim)))


class LaplaceTables:
    """Shared :func:`laplace_monomials` tables for axes with endpoints ``z0`` and degrees ``tops``.

    :meth:`transform` contracts a series' own coefficients against them.  Each axis keeps the
    table of its last point column and rebuilds it when a column differs in some bit, so the
    transforms of one instance build one table per axis and point set.  A table is built on the
    distinct values of its column, with the bits each has alone, and gathered back to the points.
    Values that compare equal count as one, so two points that differ only in a signed zero
    share one column.
    """

    def __init__(self, z0: Sequence[complex], tops: Sequence[int]):
        self.z0, self.tops = tuple(z0), tuple(tops)
        self._last: dict[int, tuple[bytes, np.ndarray]] = {}

    def table(self, axis: int, z: np.ndarray) -> np.ndarray:
        key = z.tobytes()
        hit = self._last.get(axis)
        if hit is None or hit[0] != key:
            values, back = np.unique(z, return_inverse=True)
            hit = self._last[axis] = (key, laplace_monomials(self.z0[axis], values, self.tops[axis])[:, back])
            hit[1].flags.writeable = False  # every caller reads the same array
        return hit[1]

    def transform(self, fhat: MultiIndexSeries, axes: tuple[int, ...]) -> SampledFunction:
        """Truncated Laplace transform over ``axes`` of the Borel sum of ``fhat``.

        The sum over N of f_N prod_j L_j[N_j], with L_j[n] the transform of t^n/n!
        along axis j: the series' own coefficients weight the tables.  The result
        lives on the half-planes around the endpoints of ``axes``.
        """
        coef = _dense(fhat)

        def fn(pts: np.ndarray) -> np.ndarray:
            return _contract(coef, [self.table(a, pts[:, j]) for j, a in enumerate(axes)])

        domain = half_plane_polysector([self.z0[a] for a in axes])
        return SampledFunction(domain, fn, provenance="closed-form")


def laplace_bound(fhat: MultiIndexSeries, z0: Sequence[complex], pts) -> np.ndarray:
    """Per-point bound on the rounding error of :func:`brg_function` from ``z0`` at ``pts``.

    The same contraction in magnitudes, with every monomial widened by its
    bound from :func:`laplace_monomial_errors`, minus the unwidened one, plus
    the rounding of the products over axes and the sums.
    """
    coef_abs = np.abs(_dense(fhat))
    pts = np.asarray(pts, dtype=complex).reshape(len(pts), -1)
    tabs = [
        laplace_monomial_errors(w, pts[:, j], d)
        for j, (w, d) in enumerate(zip(z0, fhat.degree_bound))
    ]
    mag = _contract(coef_abs, [np.abs(vals) for vals, _ in tabs]).real
    widened = _contract(coef_abs, [np.abs(vals) + errs for vals, errs in tabs]).real
    gamma = _EPS * (sum(coef_abs.shape) + 2 * fhat.dim + 2)
    return widened - (1.0 - gamma) * mag


# ---------------------------------------------------------------------------
# first-order interpolation (two variables)

_PRECHECK_TOL = 1e-3  # of the coherence check every family passes before interpolation


def interpolate_first_order(fam, z0: Sequence[complex], coeff_cap: int) -> SampledFunction:
    """Interpolate the coherent first-order family of a two-variable total family.

    Only the #J = 1 elements of ``fam`` are read (:meth:`TotalFamily.sequence`).
    Two passes, both closed-form truncated Laplace transforms, with L_j[n] the
    transform of t^n/n! along axis j (:func:`laplace_monomials`).  The first
    pass transforms the exponential generating series of the axis-0 sequence,
    h1 = sum_n f_{1n}(z2) L_1[n](z1).  Its m-th axis-1 coefficient is
    sum_n a_{m,n} L_1[n](z1), where a_{m,n} is the m-th coefficient of f_{1n}
    at the vertex; the constants come from one radius ladder over every
    f_{1n} at once, on the construction's own probe (128-node circles,
    tol 1e-11).  The second pass transforms the corrected axis-1 sequence,
    h2 = sum_m c_m(z1) L_2[m](z2) with c_m = f_{2m} - sum_n a_{m,n} L_1[n].
    The sum h1 + h2 has the given family as its first-order family, which is
    the postcondition contract tested by extraction.  Every factor depends on
    one variable, so the interpolant evaluates each element, each table and
    the corrected sequence on the distinct values of its coordinate and
    gathers them to the points only for the two final sums (a ladder of 20
    rungs of 128 circle nodes paired with three fixed values costs 2,560 + 3
    points, not 2 x 7,680).

    The endpoints' one hypothesis: each host sector lies in the half-plane
    around arg z0_j (DomainError otherwise), so its opening is at most pi.  A
    finite family needs no bound on |z0_j|, since each pass transforms a
    polynomial Borel sum exactly; the Borel-Ritt-type theorem for an infinite
    family needs |z0_j| below the family's type.

    The ladder extracts the constants of the corrected orders m <= ``coeff_cap``
    (and m below the axis-1 sequence's length), and the interpolant uses only
    the orders m <= m*, where m* is the last order such that every a_{m',n}
    with m' <= m* converged (its ladder error at most 1e-11 * max(1, |a|)).
    High orders of a_{m,n} are numerically fragile to extract; at a wide
    opening the weights L_2[m] damp an unconverged one, at a narrow one it
    would spoil the interpolant.  The family must first
    pass :func:`check_coherence` on its first-order family
    (:meth:`TotalFamily.first_order`) at tolerance 1e-3 over orders <= 1, on
    that check's own probe (CoherenceError unless its report is ``ok()``).
    Raises ProbeError when the ladder leaves orders 0 and 1 of the constants
    unconverged; the result's ``provenance`` counts the unconverged constants,
    gives their worst probe error, and names m*.
    """
    from .families import ProbeSpec, check_coherence, element_coefficients

    if fam.dim != 2:
        raise DomainError("interpolation implemented for two variables")
    f1, f2 = fam.sequence(0), fam.sequence(1)
    if not (f1 and f2):
        raise DomainError("interpolation needs at least one first-order element per axis")
    host = fam.host
    z0 = tuple(complex(w) for w in z0)
    _require_endpoints(z0, 2)
    for j, (sec, t0) in enumerate(zip(host.sectors, map(cmath.phase, z0))):
        if sec.alpha < t0 - 0.5 * math.pi - 1e-12 or sec.beta > t0 + 0.5 * math.pi + 1e-12:
            raise DomainError(f"axis {j} sector not contained in the half-plane around arg z0")
    if coeff_cap < 0:
        raise DomainError(f"coeff_cap must be >= 0, got {coeff_cap}")

    report = check_coherence(fam.first_order(1), _PRECHECK_TOL, 1)
    if not report.ok():
        raise CoherenceError(
            f"first-order family fails coherence at {_PRECHECK_TOL:g}: "
            f"max residual {report.max_residual:.3e}, "
            f"{len(report.probe_failures)} pair(s) unconverged",
            report=report,
        )

    n_cap = len(f1) - 1
    m_cap = min(len(f2) - 1, coeff_cap)
    probe = ProbeSpec(tol=1e-11, circle_nodes=128)
    consts, errs, conv, _ = (
        a[..., 0] for a in element_coefficients(f1, (0,), [(m,) for m in range(m_cap + 1)], probe)
    )
    low = min(2, m_cap + 1)
    if not np.all(conv[:low]):
        raise ProbeError(
            f"low-order axis-1 constants unconverged (error {float(np.max(errs[:low])):.3e})"
        )
    bad = ~conv
    provenance = f"closed-form; {int(np.count_nonzero(bad))} of {conv.size} constants a_(m,n) unconverged"
    if bad.any():
        provenance += f", worst probe error {float(np.max(errs[bad])):.3e}"
    m_cap = int(np.cumprod(conv.all(axis=1)).sum()) - 1  # m*: every constant of each order m <= m* converged
    consts = consts[: m_cap + 1]
    provenance += f"; corrected orders m <= {m_cap} used"

    def fn(pts: np.ndarray) -> np.ndarray:
        (z1, back1), (z2, back2) = (np.unique(pts[:, a], return_inverse=True) for a in (0, 1))
        lap1, lap2 = laplace_monomials(z0[0], z1, n_cap), laplace_monomials(z0[1], z2, m_cap)
        f1vals = np.stack([el.eval_many(z2[:, None]) for el in f1])
        corrected = np.stack([el.eval_many(z1[:, None]) for el in f2[: m_cap + 1]])
        corrected -= np.einsum("mn,nk->mk", consts, lap1)
        h1 = np.einsum("nk,nk->k", f1vals[:, back2], lap1[:, back1])
        return h1 + np.einsum("mk,mk->k", corrected[:, back1], lap2[:, back2])

    return SampledFunction(host, fn, provenance=provenance)
