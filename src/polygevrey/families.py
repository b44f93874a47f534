"""Total families of expansion coefficients and the limits that extract them.

A total family stores one coefficient function per (variable subset J,
multi-index over J); the subset-indexed inclusion-exclusion sum App_N built
from it approximates the underlying function.  Coefficients are recovered
from a function by Cauchy-integral derivatives taken along a radius ladder
shrinking to the vertex, with windowed polynomial extrapolation to radius
zero: finite differences are unstable near the vertex, circles are not.
"""

from __future__ import annotations

import cmath
import itertools
import math
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import (
    DimensionMismatchError,
    DomainError,
    FamilyError,
    ProbeError,
    Record,
)
from .geometry import Polysector, Sector, ray_points
from .series import MultiIndexSeries, rate_fit
from .transforms import LaplaceTables, SampledFunction, borel_disc_types, half_plane_polysector


# ---------------------------------------------------------------------------
# elements and families


def _subset_key(axes: Iterable[int]) -> tuple[int, ...]:
    key = tuple(sorted(int(a) for a in axes))
    if not key:
        raise FamilyError("subset J must be nonempty")
    if len(set(key)) != len(key):
        raise FamilyError(f"repeated axes in subset {key}")
    return key


def nonempty_subsets(n: int) -> list[tuple[int, ...]]:
    """All nonempty subsets of range(n), by cardinality then lexicographic."""
    out: list[tuple[int, ...]] = []
    for size in range(1, n + 1):
        out.extend(itertools.combinations(range(n), size))
    return out


class TotalFamily(Record):
    """Map (J, N_J) -> coefficient function on the complementary axes.

    The first-order family is the part with #J = 1, not a separate type:
    :meth:`sequence` reads it one axis at a time.
    """

    dim: int
    host: Polysector
    elements: dict
    index_bound: tuple[int, ...]

    def __init__(self, dim, host, elements, index_bound):
        dim = int(dim)
        if host.dim != dim:
            raise DimensionMismatchError("host polysector dimension mismatch")
        index_bound = tuple(int(b) for b in index_bound)
        if len(index_bound) != dim:
            raise DimensionMismatchError("index_bound length must equal dim")
        clean = {}
        for (axes, idx), elem in elements.items():
            key = _subset_key(axes)
            idx = tuple(int(i) for i in idx)
            if len(idx) != len(key):
                raise FamilyError(f"index {idx} does not match subset {key}")
            rest = len([a for a in range(dim) if a not in key])
            if elem.domain.dim != rest:
                raise FamilyError(
                    f"element for J={key} must live on {rest} axes, has {elem.domain.dim}"
                )
            clean[(key, idx)] = elem
        self._set(dim, host, clean, index_bound)

    def element(self, axes: Iterable[int], idx: Sequence[int]) -> SampledFunction:
        key = (_subset_key(axes), tuple(int(i) for i in idx))
        try:
            return self.elements[key]
        except KeyError:
            raise FamilyError(f"missing family element J={key[0]}, N_J={key[1]}") from None

    def has_element(self, axes, idx) -> bool:
        return (_subset_key(axes), tuple(int(i) for i in idx)) in self.elements

    def stored_indices(self, axes: Iterable[int]) -> list[tuple[int, ...]]:
        key = _subset_key(axes)
        return sorted(idx for (j, idx) in self.elements if j == key)

    def rest_axes(self, axes: Iterable[int]) -> tuple[int, ...]:
        key = set(_subset_key(axes))
        return tuple(a for a in range(self.dim) if a not in key)

    def sequence(self, axis: int) -> tuple[SampledFunction, ...]:
        """The #J = 1 elements f_{j,0}, f_{j,1}, ... for J = {axis}, up to the first index not stored."""
        seq = []
        while ((axis,), (len(seq),)) in self.elements:
            seq.append(self.elements[(axis,), (len(seq),)])
        return tuple(seq)


# ---------------------------------------------------------------------------
# App_N


def app_n_many(fam: TotalFamily, n_indices: Sequence[Sequence[int]], pts: np.ndarray) -> np.ndarray:
    """Inclusion-exclusion approximant App_N at the rows of ``pts``, one row of the result per N.

    App_N(z) = sum over nonempty J of (-1)^(#J+1) sum_{H_J < N_J} f_{H_J}(z_{J'}) z_J^{H_J}.
    ``pts`` (k, dim) holds points of the host polysector and the result is (len(n_indices), k);
    each element is evaluated once, on all k points, whichever truncation indices need it.
    """
    n_indices = [tuple(int(k) for k in n_index) for n_index in n_indices]
    for n_index in n_indices:
        if len(n_index) != fam.dim:
            raise DimensionMismatchError("truncation index length must equal dim")
        if any(k < 0 for k in n_index):
            raise FamilyError("truncation index must be nonnegative")
        if any(k > b + 1 for k, b in zip(n_index, fam.index_bound)):
            raise FamilyError(f"truncation {n_index} exceeds index bound {fam.index_bound} + 1")
    pts = np.asarray(pts, dtype=complex)
    if pts.ndim != 2 or pts.shape[1] != fam.dim:
        raise DimensionMismatchError("points must have one column per axis")
    for p in pts:
        if not fam.host.contains(tuple(p)):
            raise DomainError(f"point {tuple(p)} outside the host polysector")
    # z_a^h by repeated products: the same values whatever the top power
    tops = [max((n[a] for n in n_indices), default=0) - 1 for a in range(fam.dim)]
    ptabs = [_powers_vec(pts[:, a], top) for a, top in enumerate(tops)]
    values = {}
    out = np.zeros((len(n_indices), len(pts)), dtype=complex)
    for row, n_index in zip(out, n_indices):
        for axes in nonempty_subsets(fam.dim):
            if any(n_index[a] == 0 for a in axes):
                continue
            sign = -1.0 if len(axes) % 2 == 0 else 1.0
            rest_pts = pts[:, list(fam.rest_axes(axes))]
            for idx in itertools.product(*(range(n_index[a]) for a in axes)):
                if (axes, idx) not in values:
                    values[axes, idx] = fam.element(axes, idx).eval_many(rest_pts)
                mono = np.ones(len(pts), dtype=complex)
                for a, h in zip(axes, idx):
                    mono = mono * ptabs[a][h]
                row += sign * values[axes, idx] * mono
    return out


def _powers_vec(col: np.ndarray, top: int) -> list[np.ndarray]:
    out = [np.ones_like(col)]
    for _ in range(top):
        out.append(out[-1] * col)
    return out


# ---------------------------------------------------------------------------
# radius ladders

_WINDOW, _AGREE = 5, 3  # rungs per extrapolant; successive extrapolants that must match


class ProbeSpec(Record):
    """Radius ladder and Cauchy-circle controls for coefficient extraction.

    The ladder walks r_k = r0 * ratio**k toward the vertex; at each rung the
    derivative is read off a trapezoid-sampled circle of radius
    circle_frac * (distance to the sector boundary).  Extrapolants come from
    Neville interpolation to radius zero over a five-rung window, and the
    ladder is declared converged when three successive extrapolants match
    within tol (mixed absolute/relative).  The reported value is the
    extrapolant with the smallest error estimate seen along the ladder.
    ``direction`` gives the ray of each probed axis, one angle per axis
    (default: the sector bisectors).
    """

    r0: float
    ratio: float
    steps: int
    tol: float
    circle_frac: float
    circle_nodes: int
    direction: tuple[float, ...] | None

    def __init__(self, r0: float = 0.3, ratio: float = 0.7, steps: int = 14, tol: float = 1e-8,
                 circle_frac: float = 0.5, circle_nodes: int = 64, direction: tuple[float, ...] | None = None):
        self._set(r0, ratio, steps, tol, circle_frac, circle_nodes, direction)
        rules = (
            (self.r0 > 0, "r0 > 0"),
            (0 < self.ratio < 1, "0 < ratio < 1"),
            (self.steps >= _WINDOW, f"steps >= {_WINDOW}"),
            (self.tol > 0, "tol > 0"),
            (0 < self.circle_frac < 1, "0 < circle_frac < 1"),
            (self.circle_nodes >= 2, "circle_nodes >= 2"),
        )
        broken = [rule for ok, rule in rules if not ok]
        if broken:
            raise DomainError(f"invalid probe {self}: need {', '.join(broken)}")

    def radii(self) -> list[float]:
        return [self.r0 * self.ratio**k for k in range(self.steps)]


class ExtractResult(Record):
    value: complex
    error: float
    converged: bool
    radius: float

    def __init__(self, value: complex, error: float, converged: bool, radius: float):
        self._set(value, error, converged, radius)


def _neville_zero(xs: Sequence[float], ys: list[np.ndarray]) -> np.ndarray:
    p = np.asarray(ys, dtype=complex)
    x = np.asarray(xs, dtype=float).reshape((-1,) + (1,) * (p.ndim - 1))
    for j in range(1, len(xs)):
        p = (p[:-1] * x[j:] - p[1:] * x[:-j]) / (x[j:] - x[:-j])
    return p[0]


class _LadderTracker:
    """Windowed Richardson state for a (n_orders, batch) grid of limits."""

    def __init__(self, shape: tuple[int, ...], probe: ProbeSpec):
        self.probe = probe
        self.radii: list[float] = []
        self.samples: list[np.ndarray] = []
        self.extrap: list[np.ndarray] = []
        self.best = np.zeros(shape, dtype=complex)
        self.best_err = np.full(shape, np.inf)
        self.best_radius = np.zeros(shape)
        self.converged = np.zeros(shape, dtype=bool)
        self._agree_count = np.zeros(shape, dtype=int)

    def push(self, r: float, values: np.ndarray):
        self.radii.append(r)
        self.samples.append(values)
        if len(self.radii) < _WINDOW:
            return
        est = _neville_zero(self.radii[-_WINDOW:], self.samples[-_WINDOW:])
        self.extrap.append(est)
        if len(self.extrap) < 2:
            return
        diff = np.abs(est - self.extrap[-2])
        scale = np.maximum(1.0, np.abs(est))
        ok = diff <= self.probe.tol * scale
        self._agree_count = np.where(ok, self._agree_count + 1, 0)
        newly = (self._agree_count >= _AGREE - 1) & ~self.converged
        self.converged |= newly
        if len(self.extrap) >= 3:
            err = np.maximum(diff, np.abs(self.extrap[-2] - self.extrap[-3]))
        else:
            err = diff
        better = err < self.best_err
        self.best = np.where(better, est, self.best)
        self.best_err = np.where(better, err, self.best_err)
        self.best_radius = np.where(better, r, self.best_radius)

    @property
    def all_converged(self) -> bool:
        return bool(np.all(self.converged))


def _circle_orders(evalfn, centers, rhos, orders: np.ndarray, unit: np.ndarray) -> np.ndarray:
    """D^N g(centers)/N! for each row N of ``orders`` from one product of circles with nodes ``unit``."""
    p, nodes = len(centers), len(unit)
    rings = [c + rho * unit for c, rho in zip(centers, rhos)]
    grids = np.meshgrid(*rings, indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=-1)
    vals = np.asarray(evalfn(pts), dtype=complex).reshape((nodes,) * p + (-1,))
    spec = np.fft.fftn(vals, axes=tuple(range(p))) / nodes**p
    coeff = spec[tuple(orders.T)]
    for m, rho in zip(orders.T.tolist(), rhos):
        coeff = coeff * np.array([rho ** -k for k in m])[:, None]
    return coeff  # (n_orders, B)


def axis_coefficient_ladder(
    evalfn: Callable[[np.ndarray], np.ndarray],
    sectors: Sequence[Sector],
    orders: Sequence[Sequence[int]],
    probe: ProbeSpec,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Limits of D^N g / N! as p variables tend to 0 jointly, one ray per axis.

    ``sectors`` and ``probe.direction`` (default: the bisectors) give the p
    axes and their rays; ``orders`` lists multi-indices of length p.
    ``evalfn`` maps an (mm, p) array of points to an (mm, B) array; all
    orders and batch columns share one product of circles per rung.  Returns
    arrays of shape (n_orders, B): values, error estimates, convergence
    flags, and the radius of the winning window.
    """
    orders = [tuple(int(m) for m in order) for order in orders]
    if max(max(order) for order in orders) > probe.circle_nodes // 2:
        raise DomainError("requested order exceeds the circle-node anti-aliasing bound")
    p = len(sectors)
    thetas = [s.bisector for s in sectors] if probe.direction is None else probe.direction
    if len(thetas) != p:
        raise DimensionMismatchError(f"probe direction has {len(thetas)} angles for {p} probed axes")
    if not all(s.alpha < t < s.beta for s, t in zip(sectors, thetas)):
        raise DomainError("probe direction outside the sector")
    tracker = None
    pure_value = orders == [(0,) * p]
    order_arr = np.asarray(orders, dtype=int).reshape(len(orders), p)
    unit = np.exp(1j * (2.0 * math.pi * np.arange(probe.circle_nodes) / probe.circle_nodes))
    for r in probe.radii():
        centers = [r * cmath.exp(1j * t) for t in thetas]
        if not all(s.contains(c) for s, c in zip(sectors, centers)):
            continue
        if pure_value:
            sample = np.asarray(evalfn(np.asarray([centers])), dtype=complex).reshape(1, -1)
        else:
            rhos = [probe.circle_frac * s.boundary_distance(c) for s, c in zip(sectors, centers)]
            sample = _circle_orders(evalfn, centers, rhos, order_arr, unit)
        if tracker is None:
            tracker = _LadderTracker(sample.shape, probe)
        tracker.push(r, sample)
        if tracker.all_converged:
            break
    if tracker is None or not tracker.extrap:
        raise ProbeError("radius ladder produced no extrapolants (probe outside sector?)")
    return tracker.best, tracker.best_err, tracker.converged, tracker.best_radius


def element_coefficients(
    elems: Sequence[SampledFunction],
    axes: Sequence[int],
    orders: Sequence[Sequence[int]],
    probe: ProbeSpec,
    fixed: Sequence[Sequence[complex]] = ((),),
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Limits of D^N f / N! as the ``axes`` columns tend to 0, for every element and fixed point.

    The elements share one domain.  Each point of ``fixed`` gives the other
    columns, in increasing order, and must lie in their sectors.  One radius
    ladder (:func:`axis_coefficient_ladder`) serves every (element, fixed
    point) pair as a batch column.  Returns the ladder's four arrays, shaped
    (n_orders, len(elems), len(fixed)).
    """
    domain = elems[0].domain
    if any(e.domain != domain for e in elems):
        raise FamilyError("batched elements must share one domain")
    axes = list(axes)
    rest = [a for a in range(domain.dim) if a not in axes]
    for z_rest in fixed:
        if not domain.axes_subset(rest).contains(z_rest):
            raise DomainError(f"fixed point {tuple(z_rest)} outside the sectors of axes {rest}")
    fixed_pts = np.asarray(fixed, dtype=complex).reshape(len(fixed), len(rest))
    n_cols = len(elems) * len(fixed)

    def evalfn(sub: np.ndarray) -> np.ndarray:
        pts = np.empty((len(fixed), len(sub), domain.dim), dtype=complex)
        pts[:, :, axes] = sub
        pts[:, :, rest] = fixed_pts[:, None, :]
        pts = pts.reshape(-1, domain.dim)
        return np.stack([e.eval_many(pts) for e in elems]).reshape(n_cols, len(sub)).T

    ladder = axis_coefficient_ladder(evalfn, [domain.sectors[a] for a in axes], orders, probe)
    return tuple(a.reshape(len(orders), len(elems), len(fixed)) for a in ladder)


def extract_element(
    f: SampledFunction,
    axes: Iterable[int],
    n_index: Sequence[int],
    z_rest: Sequence[complex],
    probe: ProbeSpec | None = None,
) -> ExtractResult:
    """Coefficient f_{N_J}(z_rest): limit of D^{(N_J, 0)} f / N_J! as z_J -> 0.

    ``z_rest`` lists the fixed coordinates for the complementary axes in
    increasing axis order.  When the extrapolants never settle, the result
    holds the least-uncertain one with ``converged`` False; the caller reads
    that flag.
    """
    probe = probe or ProbeSpec()
    key = _subset_key(axes)
    n_index = tuple(int(m) for m in n_index)
    if len(n_index) != len(key):
        raise DimensionMismatchError("index length must match subset size")
    vals, errs, conv, radii = element_coefficients([f], key, [n_index], probe, [tuple(z_rest)])
    return ExtractResult(
        complex(vals[0, 0, 0]), float(errs[0, 0, 0]), bool(conv[0, 0, 0]), float(radii[0, 0, 0])
    )


# ---------------------------------------------------------------------------
# coherence


class CoherenceReport(Record):
    """Aggregate of derivative-limit consistency checks over a family."""

    checked_pairs: int
    max_residual: float
    failures: tuple
    probe_failures: tuple
    tolerance: float
    missing: int

    def __init__(self, checked_pairs: int, max_residual: float, failures: tuple, probe_failures: tuple,
                 tolerance: float, missing: int = 0):
        self._set(checked_pairs, max_residual, failures, probe_failures, tolerance, missing)

    def ok(self) -> bool:
        """The one verdict: at least one checked pair, no failure and no probe failure."""
        return self.checked_pairs > 0 and not self.failures and not self.probe_failures


def _coherence_probe(tol: float) -> ProbeSpec:
    """The probe of both coherence checks: 20 rungs at agreement ``tol`` (see :func:`check_coherence`)."""
    return ProbeSpec(steps=20, tol=tol)


def _rest_samples(host: Polysector, axes: Sequence[int]):
    """Two points per axis on its bisector, at 0.35 (at most rho/2) and 0.55 times that."""
    grids = []
    for a in axes:
        sec = host.sectors[a]
        cap = min(0.35, 0.5 * sec.rho)
        grids.append([cap * (0.55**i) * cmath.exp(1j * sec.bisector) for i in range(2)])
    return [tuple(p) for p in itertools.product(*grids)]


def _merge_index(j_axes, n_j, l_axes, n_l) -> tuple[int, ...]:
    mapping = dict(zip(j_axes, n_j))
    mapping.update(zip(l_axes, n_l))
    return tuple(mapping[a] for a in sorted(mapping))


def check_coherence(fam: TotalFamily, tol: float, max_order: int = 3) -> CoherenceReport:
    """Compare derivative limits of stored elements against deeper elements.

    For each disjoint pair of nonempty subsets (J, L), each stored N_J and
    each N_L up to ``max_order``, the L-derivative limit of f_{N_J} is checked
    against the stored f_{(N_J, N_L)} at sampled complementary points.
    Residuals are relative to max(1, |target|).  Probe non-convergence is
    recorded per pair, not fatal.  One radius ladder per (J, L) serves every
    stored f_{N_J}, every sampled point and every N_L, and each target is
    evaluated in one call on all the sampled points.

    The ladders take 20 rungs and tie their agreement tolerance to ``tol``
    (both are relative): demanding extrapolant agreement far below the
    asserted residual only wastes ladder rungs on double-precision noise.
    """
    if max_order < 0:
        return CoherenceReport(0, 0.0, (), (), tol)
    probe = _coherence_probe(tol)
    failures = []
    probe_failures = []
    max_residual = 0.0
    checked = 0
    missing = 0
    subsets = nonempty_subsets(fam.dim)
    for j_axes in subsets:
        stored = fam.stored_indices(j_axes)
        if not stored:
            continue
        cols = fam.rest_axes(j_axes)  # the axis of each column of f_{N_J}
        for l_axes in subsets:
            if set(j_axes) & set(l_axes):
                continue
            union = _subset_key(set(j_axes) | set(l_axes))
            rest = [a for a in cols if a not in l_axes]
            z_rests = _rest_samples(fam.host, rest)
            l_ranges = [range(min(max_order, fam.index_bound[a]) + 1) for a in l_axes]
            n_ls = list(itertools.product(*l_ranges))
            try:
                vals, errs, conv, _ = element_coefficients(
                    [fam.element(j_axes, n_j) for n_j in stored],
                    [cols.index(a) for a in l_axes],
                    n_ls,
                    probe,
                    z_rests,
                )
                note = None
            except ProbeError as exc:
                note = str(exc)
            for e, n_j in enumerate(stored):
                for o, n_l in enumerate(n_ls):
                    union_idx = _merge_index(j_axes, n_j, l_axes, n_l)
                    if not fam.has_element(union, union_idx):
                        missing += 1
                        continue
                    pair = (j_axes, l_axes, n_j, n_l)
                    if note is not None:
                        probe_failures.extend([pair + (note,)] * len(z_rests))
                        continue
                    targets = fam.element(union, union_idx).eval_many(z_rests).tolist()
                    for k, target in enumerate(targets):
                        if not conv[o, e, k]:
                            probe_failures.append(pair + (f"unconverged ({errs[o, e, k]:.3e})",))
                            continue
                        checked += 1
                        residual = abs(complex(vals[o, e, k]) - target) / max(1.0, abs(target))
                        max_residual = max(max_residual, residual)
                        if residual > tol:
                            failures.append(pair + (residual,))
    failures.sort()
    probe_failures.sort(key=lambda t: t[:4])
    return CoherenceReport(
        checked, max_residual, tuple(failures), tuple(probe_failures), tol, missing
    )


def check_first_order_coherence(fam: TotalFamily, tol: float, max_order: int = 2) -> CoherenceReport:
    """Cross-consistency of the first-order (#J = 1) elements of a two-variable family.

    The m-th coefficient of f_{1n} and the n-th coefficient of f_{2m} must
    agree (both equal the (n, m) constant of the underlying total family).
    Two ladders on the probe of :func:`check_coherence`: one over every f_{1n}
    with orders m <= m_cap, one over every f_{2m} with orders n <= n_cap.
    """
    if fam.dim != 2:
        raise DimensionMismatchError("first-order coherence check implemented for dim 2")
    probe = _coherence_probe(tol)
    seq1, seq2 = fam.sequence(0), fam.sequence(1)
    n_cap = min(len(seq1) - 1, max_order)
    m_cap = min(len(seq2) - 1, max_order)
    if n_cap < 0 or m_cap < 0:
        return CoherenceReport(0, 0.0, (), (), tol)
    vals1, errs1, conv1, _ = (
        a[..., 0]
        for a in element_coefficients(
            seq1[: n_cap + 1], (0,), [(m,) for m in range(m_cap + 1)], probe
        )
    )
    vals2, errs2, conv2, _ = (
        a[..., 0]
        for a in element_coefficients(
            seq2[: m_cap + 1], (0,), [(n,) for n in range(n_cap + 1)], probe
        )
    )
    failures = []
    probe_failures = []
    max_residual = 0.0
    checked = 0
    for n in range(n_cap + 1):
        for m in range(m_cap + 1):
            if not (conv1[m, n] and conv2[n, m]):
                probe_failures.append(
                    ((0,), (1,), (n,), (m,), f"unconverged ({float(errs1[m, n]):.3e}/{float(errs2[n, m]):.3e})")
                )
                continue
            checked += 1
            a = complex(vals1[m, n])
            b = complex(vals2[n, m])
            residual = abs(a - b) / max(1.0, abs(a))
            max_residual = max(max_residual, residual)
            if residual > tol:
                failures.append(((0,), (1,), (n,), (m,), residual))
    return CoherenceReport(
        checked, max_residual, tuple(sorted(failures)), tuple(probe_failures), tol
    )


# ---------------------------------------------------------------------------
# families from series


def slice_family(
    series: MultiIndexSeries,
    host: Polysector,
    element: Callable[[MultiIndexSeries, tuple[int, ...]], SampledFunction],
    provenance: str,
) -> TotalFamily:
    """Total family whose (J, N_J) element is made from the slice of ``series`` at N_J.

    The slice is the series over the complementary axes ``rest`` with the
    J-indices frozen at N_J; ``element(slice, rest)`` turns it into a function
    on ``host.axes_subset(rest)``.  The all-axes elements are the
    coefficients themselves, marked ``provenance``.
    """
    bound = series.degree_bound
    full = tuple(range(series.dim))
    elements: dict = {}
    for axes in nonempty_subsets(series.dim):
        rest = tuple(a for a in full if a not in axes)
        for idx in itertools.product(*(range(bound[a] + 1) for a in axes)):
            if axes == full:
                elements[(axes, idx)] = SampledFunction.constant(series[idx], provenance=provenance)
                continue
            coeffs = {
                rest_idx: series[_merge_index(axes, idx, rest, rest_idx)]
                for rest_idx in itertools.product(*(range(bound[a] + 1) for a in rest))
            }
            sub = MultiIndexSeries(len(rest), coeffs, tuple(bound[a] for a in rest))
            elements[(axes, idx)] = element(sub, rest)
    return TotalFamily(series.dim, host, elements, bound)


def family_from_series(fhat: MultiIndexSeries, z0: Sequence[complex]) -> TotalFamily:
    """Total family of the truncated-Laplace interpolant, in closed form.

    For each subset J and index a_J, the element is the truncated Laplace
    transform (over the complementary axes) of the Borel sum of the slice
    with the J-indices frozen at a_J; the all-axes elements are the series
    coefficients themselves.  The elements share one :class:`LaplaceTables`:
    evaluated at one point set, the elements of a slice build one monomial
    table per axis between them.
    """
    z0 = tuple(complex(w) for w in z0)
    if len(z0) != fhat.dim:
        raise DimensionMismatchError("one endpoint per axis required")
    borel_disc_types(fhat, z0)
    tables = LaplaceTables(z0, fhat.degree_bound)
    return slice_family(fhat, half_plane_polysector(z0), tables.transform, "series")


# ---------------------------------------------------------------------------
# empirical type fitting from remainders


def remainder_constants(
    f: SampledFunction,
    fam: TotalFamily,
    direction: Sequence[float],
    radii: Sequence[Sequence[float]],
    n_indices: Sequence[Sequence[int]],
    noise_floor: float = 0.0,
) -> dict[tuple[int, ...], float]:
    """sup over a ray grid of |f - App_N| / |z|^N, per truncation index.

    Grid points where |f - App_N| falls below ``noise_floor`` are excluded:
    there the computed difference is evaluation noise, and dividing it by a
    tiny |z|^N would fabricate spurious constants.  Indices whose every grid
    point is noise-dominated are omitted from the result.
    """
    pts = np.asarray(ray_points(f.domain, direction, radii), dtype=complex)
    fvals = f.eval_many(pts)
    rad = np.abs(pts)
    n_indices = [tuple(int(k) for k in n_index) for n_index in n_indices]
    out = {}
    for n_index, app in zip(n_indices, app_n_many(fam, n_indices, pts)):
        diff = np.abs(fvals - app)
        keep = diff > noise_floor
        if not np.any(keep):
            continue
        weight = np.prod(rad ** np.asarray(n_index, dtype=float), axis=1)
        out[n_index] = float(np.max(diff[keep] / weight[keep]))
    return out


def fit_type_from_remainders(
    constants: dict[tuple[int, ...], float],
    window: tuple[int, int],
) -> tuple[tuple[float, ...], float]:
    """Per-axis rate from log(c(N)/N!) ~ log C - sum N_j log R_j, and the fit's rms residual.

    Only the indices N whose every component lies in ``window`` (inclusive)
    and whose constant is positive enter the fit.
    """
    indices = []
    logvals = []
    for n_index, c in sorted(constants.items()):
        if c <= 0 or not all(window[0] <= k <= window[1] for k in n_index):
            continue
        indices.append(n_index)
        logvals.append(math.log(c) - sum(math.lgamma(k + 1) for k in n_index))
    if not indices or len(indices) < len(indices[0]) + 1:
        raise DomainError("too few remainder constants for a rate fit")
    slopes, rms = rate_fit(indices, logvals)
    return tuple(math.exp(-s) for s in slopes), rms
