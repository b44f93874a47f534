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
import functools
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
from .series import MultiIndexSeries, _lgamma_sum, _powers, rate_fit
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
    :meth:`sequence` reads it one axis at a time, :meth:`first_order` as a family.
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

    def first_order(self, max_order: int) -> TotalFamily:
        """The #J = 1 family: each :meth:`sequence` up to ``max_order``, index bound len(sequence) - 1."""
        seqs = [self.sequence(axis) for axis in range(self.dim)]
        elements = {((a,), (n,)): el for a, seq in enumerate(seqs) for n, el in enumerate(seq[: max_order + 1])}
        return TotalFamily(self.dim, self.host, elements, [len(seq) - 1 for seq in seqs])


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
    ptabs = [_powers(pts[:, a], top) for a, top in enumerate(tops)]
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


# ---------------------------------------------------------------------------
# radius ladders

_WINDOW, _RUNGS, _CIRCLE_FRAC = 5, 20, 0.75  # rungs per extrapolant and per ladder; circle radius / boundary distance


class ProbeSpec(Record):
    """Radius ladder and Cauchy-circle controls for coefficient extraction.

    The ladder walks r_k = r0 * ratio**k, k < 20, toward the vertex; at
    each rung the derivative is read off a trapezoid-sampled circle of
    radius 0.75 * (distance to the sector boundary).  Both are constants:
    the rounding floor below grows like rho^-N, so smaller circles cannot
    settle order-3 limits (at 0.5, criterion 7's coherence recipe failed
    at 5 of seeds 0..24), and each extra in-sector rung is one more
    candidate for the least-error pick (rat2 ``interpolate``'s worst error
    is the same bits at 16 and 20 rungs on 22 seeds).  The fields stay
    because measurements need them: any (r0, ratio) but (0.2, 0.75) made
    ``interpolate``'s outer probe worse on 8 to 16 of 22 seeds, and 128
    ``circle_nodes`` everywhere would give a two-axis ladder 4x the
    points.  The in-sector rungs are consecutive: their centres lie on
    fixed rays inside the sectors, so a rung is in exactly when its radius
    is below every sector's rho.  Extrapolation to radius zero does not
    change when every node is scaled by one factor, so each five-rung
    window's extrapolant is the fixed sum of w_i g_{j+i}, with w_i =
    prod_{l != i} q^l / (q^l - q^i) and q = ratio: (0.370, -3.901, 14.652,
    -23.212, 13.091) at q = 0.7 and (1.303, -11.259, 35.265, -47.444,
    23.135) at 0.75.  Their Lebesgue constant Lambda = sum |w_i|, 55.227
    and 118.405, bounds how much an extrapolant amplifies rounding in the
    samples.  Each limit, on its own column, takes the first extrapolant
    of least error estimate over all windows, and is converged when that
    estimate is at most tol * max(1, |value|); so its value, error, flag
    and radius do not depend on the other orders and columns of the
    ladder.  The estimate of e_j is the larger of its last two extrapolant
    differences (e_1 shares e_2's: a limit needs three extrapolants),
    raised, in the error returned, to the window's rounding floor
    Lambda * eps * max over its five rungs of max|g on the circles|
    * prod_a rho_a^-N_a (Bornemann, Found. Comput. Math. 11, 2011).  The
    floor neither picks the window nor sets the flag: growing as rho
    shrinks, it would keep a limit on an early, truncation-dominated
    window (rat2 ``interpolate`` at opening 0.03 then fails), and flags
    read from it leave criterion 7's recipe unconverged.  ``direction``
    gives the ray of each probed axis (default: the sector bisectors).
    """

    r0: float
    ratio: float
    tol: float
    circle_nodes: int
    direction: tuple[float, ...] | None

    def __init__(self, r0: float = 0.3, ratio: float = 0.7, tol: float = 1e-8, circle_nodes: int = 64,
                 direction: tuple[float, ...] | None = None):
        self._set(r0, ratio, tol, circle_nodes, direction)
        rules = (
            (self.r0 > 0, "r0 > 0"),
            (0 < self.ratio < 1, "0 < ratio < 1"),
            (self.tol > 0, "tol > 0"),
            (self.circle_nodes >= 2, "circle_nodes >= 2"),
        )
        broken = [rule for ok, rule in rules if not ok]
        if broken:
            raise DomainError(f"invalid probe {self}: need {', '.join(broken)}")

    def radii(self) -> list[float]:
        return [self.r0 * self.ratio**k for k in range(_RUNGS)]


class ExtractResult(Record):
    value: complex
    error: float
    converged: bool
    radius: float

    def __init__(self, value: complex, error: float, converged: bool, radius: float):
        self._set(value, error, converged, radius)


def axis_coefficient_ladder(
    evalfn: Callable[[np.ndarray], np.ndarray],
    sectors: Sequence[Sector],
    orders: Sequence[Sequence[int]],
    probe: ProbeSpec,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Limits of D^N g / N! as p variables tend to 0 jointly, one ray per axis.

    ``sectors`` and ``probe.direction`` (default: the bisectors) give the p
    axes and their rays; ``orders`` lists multi-indices of length p.
    ``evalfn`` maps an (mm, p) array of points to an (mm, B) array.  One
    ``evalfn`` call evaluates every rung whose centres lie in their sectors:
    each rung's product of circles, stacked in rung order, with all orders
    and batch columns read off one FFT, order 0 included.  Each limit is read
    off every rung of its own column, as :class:`ProbeSpec` says.  Returns
    arrays of shape (n_orders, B): values, error estimates (at least the
    rounding floor), convergence flags, and the radius of the winning
    window's last rung.
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
    radii, centers = [], []
    for r in probe.radii():
        rung = [r * cmath.exp(1j * t) for t in thetas]
        if all(s.contains(c) for s, c in zip(sectors, rung)):
            radii.append(r)
            centers.append(rung)
    if len(radii) < _WINDOW:
        raise ProbeError("radius ladder produced no extrapolants (probe outside sector?)")
    nodes = probe.circle_nodes
    unit = np.exp(1j * (2.0 * math.pi * np.arange(nodes) / nodes))
    rhos = [[_CIRCLE_FRAC * s.boundary_distance(c) for s, c in zip(sectors, rung)] for rung in centers]
    rings = [[c + rho * unit for c, rho in zip(rung, rs)] for rung, rs in zip(centers, rhos)]
    pts = np.concatenate([np.stack([g.ravel() for g in np.meshgrid(*r, indexing="ij")], -1) for r in rings])
    vals = np.asarray(evalfn(pts), dtype=complex).reshape((len(radii),) + (nodes,) * p + (-1,))
    spec = np.fft.fftn(vals, axes=tuple(range(1, p + 1))) / nodes**p
    samples = spec[(slice(None),) + tuple(np.asarray(orders).T)]  # (rungs, n_orders, B)
    size = np.abs(vals).max(axis=tuple(range(1, p + 1)))[:, None]  # max |g| on each rung's circles
    for a, m in enumerate(zip(*orders)):
        scale = np.array([[rs[a] ** -k for k in m] for rs in rhos])[:, :, None]
        samples, size = samples * scale, size * scale
    # row j: extrapolant e_j to radius 0 from rungs j .. j + _WINDOW - 1, with the weights of ProbeSpec
    q, n = probe.ratio, len(radii) - _WINDOW + 1
    w = [math.prod(q**l / (q**l - q**i) for l in range(_WINDOW) if l != i) for i in range(_WINDOW)]
    est = sum(w[i] * samples[i : i + n] for i in range(_WINDOW))  # in a fixed order, left to right
    # rounding floor of e_j: Lebesgue constant * eps * the window's largest max|g| / rho^N
    floor = sum(abs(x) for x in w) * np.finfo(float).eps * np.max([size[i : i + n] for i in range(_WINDOW)], 0)
    diff = np.abs(np.diff(est, axis=0))  # row k: |e_{k+1} - e_k|
    # candidate j >= 2 is e_j, of error max(|e_j - e_{j-1}|, |e_{j-1} - e_{j-2}|); e_1 shares e_2's and wins their
    # tie; candidate 0 stands for no estimate (value 0, error inf, radius 0), the only one below three extrapolants
    err = np.maximum(diff[1:], diff[:-1])
    err = np.concatenate([np.full((1,) + err.shape[1:], np.inf), err[:1], err])
    err = np.where(np.isnan(err), np.inf, err)
    pick = np.argmin(err, axis=0)[None]  # the first of least error, over every window of the column
    est[0] = 0.0
    value, picked, low = (np.take_along_axis(a, pick, 0)[0] for a in (est, err, floor))
    flags = picked <= probe.tol * np.maximum(1.0, np.abs(value))  # the picked window's own error, unfloored
    return value, np.fmax(picked, low), flags, np.asarray([0.0] + radii[_WINDOW:])[pick[0]]


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


def _rest_samples(host: Polysector, axes: Sequence[int]):
    """Two points per axis on its bisector, at 0.35 (at most rho/2) and 0.55 times that."""
    sub = host.axes_subset(axes)
    caps = [min(0.35, 0.5 * sec.rho) for sec in sub.sectors]
    return ray_points(sub, [sec.bisector for sec in sub.sectors], [[cap, cap * 0.55] for cap in caps])


def _merge_index(j_axes, n_j, l_axes, n_l) -> tuple[int, ...]:
    mapping = dict(zip(j_axes, n_j))
    mapping.update(zip(l_axes, n_l))
    return tuple(mapping[a] for a in sorted(mapping))


def check_coherence(fam: TotalFamily, tol: float, max_order: int = 3) -> CoherenceReport:
    """Compare derivative limits of stored elements with deeper elements or with each other.

    For each disjoint pair of nonempty subsets (J, L), each stored N_J and
    each N_L up to ``max_order``, the L-derivative limit of f_{N_J} at sampled
    complementary points is checked against the stored f_{(N_J, N_L)}.  Where
    that element is not stored but f_{N_L} is, and N_J is within
    ``max_order``, the L-limit of f_{N_J} is checked against the J-limit of
    f_{N_L} instead (both equal f_{(N_J, N_L)} there), once per unordered
    pair; a pair with neither counts as ``missing``.  Residuals are relative
    to max(1, |reference|), the reference being the stored element or the
    L-limit of f_{N_J}.  Probe non-convergence is recorded per pair, not
    fatal.  One radius ladder per (J, L), run only when some pair needs it,
    serves every stored f_{N_J}, every sampled point and every N_L, and each
    target is evaluated in one call on all the sampled points.

    The ladders run at ``tol`` (a limit converges when its picked error
    estimate is at most tol * max(1, |limit|)): a tolerance far below the
    asserted residual only leaves limits unconverged on rounding noise.
    """
    subsets = nonempty_subsets(fam.dim)
    stored = {axes: fam.stored_indices(axes) for axes in subsets}
    tops = [min(max_order, b) for b in fam.index_bound]
    orders = {axes: list(itertools.product(*(range(tops[a] + 1) for a in axes))) for axes in subsets}
    probe = ProbeSpec(tol=tol)

    @functools.cache
    def ladder(j_axes, l_axes):
        """(points, values, errors, flags, ProbeError text or None) of the one (J, L) ladder.

        The L-limits at ``orders[l_axes]`` of every stored f_{N_J}, shaped (N_L, N_J, point); no flag
        is set when the ladder produced no extrapolant.
        """
        cols = fam.rest_axes(j_axes)  # the axis of each column of f_{N_J}
        z_rests = _rest_samples(fam.host, [a for a in cols if a not in l_axes])
        elems = [fam.element(j_axes, n_j) for n_j in stored[j_axes]]
        try:
            found = element_coefficients(elems, [cols.index(a) for a in l_axes], orders[l_axes], probe, z_rests)
        except ProbeError as exc:
            shape = (len(orders[l_axes]), len(elems), len(z_rests))
            return z_rests, np.zeros(shape), np.full(shape, np.inf), np.zeros(shape, dtype=bool), str(exc)
        return (z_rests,) + found[:3] + (None,)

    failures, probe_failures, max_residual, checked, missing = [], [], 0.0, 0, 0
    for j_axes, l_axes in itertools.permutations(subsets, 2):
        if set(j_axes) & set(l_axes):
            continue
        union = _subset_key(j_axes + l_axes)
        for e, n_j in enumerate(stored[j_axes]):
            for o, n_l in enumerate(orders[l_axes]):
                pair = (j_axes, l_axes, n_j, n_l)
                joint = _merge_index(j_axes, n_j, l_axes, n_l)
                if fam.has_element(union, joint):
                    z_rests, vals, errs, conv, note = ladder(j_axes, l_axes)
                    refs = fam.element(union, joint).eval_many(z_rests).tolist()
                    others, flags, err_rows = vals[o, e], conv[o, e], (errs[o, e],)
                elif n_l in stored[l_axes] and n_j in orders[j_axes]:
                    if j_axes > l_axes:  # the pair met already, as (f_{N_L}, f_{N_J})
                        continue
                    _, vals1, errs1, conv1, note1 = ladder(j_axes, l_axes)
                    _, vals2, errs2, conv2, note2 = ladder(l_axes, j_axes)
                    e2, o2 = stored[l_axes].index(n_l), orders[j_axes].index(n_j)
                    refs, others, flags = vals1[o, e].tolist(), vals2[o2, e2], conv1[o, e] & conv2[o2, e2]
                    err_rows, note = (errs1[o, e], errs2[o2, e2]), note1 or note2
                else:
                    missing += 1
                    continue
                for k, ref in enumerate(refs):
                    if not flags[k]:
                        errs_k = "/".join(f"{row[k]:.3e}" for row in err_rows)
                        probe_failures.append(pair + (note or f"unconverged ({errs_k})",))
                        continue
                    checked += 1
                    residual = abs(ref - complex(others[k])) / max(1.0, abs(ref))
                    max_residual = max(max_residual, residual)
                    if residual > tol:
                        failures.append(pair + (residual,))
    failures.sort()
    probe_failures.sort(key=lambda t: t[:4])
    return CoherenceReport(checked, max_residual, tuple(failures), tuple(probe_failures), tol, missing)


def check_first_order_coherence(fam: TotalFamily, tol: float, max_order: int = 2) -> CoherenceReport:
    """:func:`check_coherence` on ``fam.first_order(max_order)``; kept while the benchmark tracer binds it."""
    return check_coherence(fam.first_order(max_order), tol, max_order)


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
        logvals.append(math.log(c) - _lgamma_sum(n_index))
    if not indices or len(indices) < len(indices[0]) + 1:
        raise DomainError("too few remainder constants for a rate fit")
    slopes, rms = rate_fit(indices, logvals)
    return tuple(math.exp(-s) for s in slopes), rms
