"""Sparse multivariate formal power series, Gevrey-norm machinery, and the one polynomial kernel.

Norms and fits work in log space: coefficients of 1-Gevrey series grow like
N!, which overflows doubles past N ~ 170, while the ratios |f_N| A^N / N!
they consume stay tame.  Every sum sum_N c_N prod_j T_j[N_j, k] is :func:`_contract`.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

import numpy as np

from .errors import DimensionMismatchError, Record, SeriesError

#: fitted rates above this are reported as an unbounded (convergent) type
TYPE_INFINITY_THRESHOLD = 1e6

#: lower-half vs upper-half slope gap (in log units) that flags a diverging slope
TAIL_STEEPENING_THRESHOLD = 0.5


def _lgamma_sum(index: Sequence[int]) -> float:
    return sum(math.lgamma(n + 1) for n in index)


def _log_factorials(k_max: int) -> np.ndarray:
    """log k! for k = 0..k_max."""
    return np.array([math.lgamma(k + 1.0) for k in range(k_max + 1)])


class MultiIndexSeries(Record):
    """Finite map multi-index -> complex coefficient.

    Absent indices are zero up to ``degree_bound`` componentwise; beyond the
    bound the coefficients are unknown, not zero.
    """

    dim: int
    coeffs: Mapping[tuple[int, ...], complex]
    degree_bound: tuple[int, ...]

    def __init__(self, dim, coeffs, degree_bound=None):
        dim = int(dim)
        if dim < 1:
            raise SeriesError("series dimension must be >= 1")
        clean: dict[tuple[int, ...], complex] = {}
        for index, value in dict(coeffs).items():
            index = tuple(int(k) for k in index)
            if len(index) != dim:
                raise DimensionMismatchError(f"index {index} has wrong length for dim {dim}")
            if any(k < 0 for k in index):
                raise SeriesError(f"negative multi-index {index}")
            value = complex(value)
            if value != 0:
                clean[index] = value
        if degree_bound is None:
            if clean:
                degree_bound = tuple(max(ix[j] for ix in clean) for j in range(dim))
            else:
                degree_bound = (0,) * dim
        degree_bound = tuple(int(b) for b in degree_bound)
        if len(degree_bound) != dim:
            raise DimensionMismatchError("degree_bound length must equal dim")
        for index in clean:
            if any(k > b for k, b in zip(index, degree_bound)):
                raise SeriesError(f"index {index} exceeds degree bound {degree_bound}")
        self._set(dim, clean, degree_bound)

    def __getitem__(self, index: Sequence[int]) -> complex:
        return self.coeffs.get(tuple(index), 0j)

    def items(self):
        return sorted(self.coeffs.items())


def gamma1_norm(a: MultiIndexSeries, weights: Sequence[float]) -> float:
    """sup over stored indices of |a_N| * A^N / N!, computed in log space."""
    if len(weights) != a.dim:
        raise DimensionMismatchError("one weight per axis required")
    if any(w <= 0 for w in weights):
        raise SeriesError("Gamma^1 weights must be positive")
    best = -math.inf
    for ix, c in a.coeffs.items():
        log_term = (
            math.log(abs(c))
            + sum(k * math.log(w) for k, w in zip(ix, weights))
            - _lgamma_sum(ix)
        )
        best = max(best, log_term)
    return 0.0 if best == -math.inf else math.exp(best)


def _powers(z: np.ndarray, top: int) -> np.ndarray:
    """z**k for k = 0..top as a (top+1, *z.shape) table, by repeated products."""
    tab = np.ones((top + 1,) + np.shape(z), dtype=complex)
    for k in range(1, top + 1):
        tab[k] = tab[k - 1] * z
    return tab


def _dense(f: MultiIndexSeries) -> np.ndarray:
    """The coefficients of ``f`` as a dense tensor over its degree box."""
    coef = np.zeros(tuple(d + 1 for d in f.degree_bound), dtype=complex)
    for ix, c in f.coeffs.items():
        coef[ix] = c
    return coef


def _contract(tensor: np.ndarray, tabs: list) -> np.ndarray:
    """Sum over N of tensor[N] prod_j tabs[j][N_j, k], one axis at a time; (k,) complex out."""
    # no optimize: einsum's complex loops add each point's terms in one order, whatever the batch
    out = np.einsum("nk,n...->k...", tabs[0], tensor, dtype=complex)
    for tab in tabs[1:]:
        out = np.einsum("kn...,nk->k...", out, tab, dtype=complex)
    return out


def evaluate_many(f: MultiIndexSeries, pts: np.ndarray) -> np.ndarray:
    """f(z) at points of shape (..., dim): the dense coefficients :func:`_contract`-ed with power tables."""
    pts = np.asarray(pts, dtype=complex)
    if pts.shape[-1] != f.dim:
        raise DimensionMismatchError("last axis of pts must equal series dim")
    rows = pts.reshape(-1, f.dim)
    tabs = [_powers(rows[:, j], top) for j, top in enumerate(f.degree_bound)]
    return _contract(_dense(f), tabs).reshape(pts.shape[:-1])


def rate_fit(indices: Sequence[Sequence[int]], logvals: Sequence[float]) -> tuple[np.ndarray, float]:
    """OLS of logvals against multi-indices with an intercept: returns (slopes, rms residual)."""
    idx = np.asarray(indices, dtype=float)
    y = np.asarray(logvals, dtype=float)
    design = np.hstack([idx, np.ones((idx.shape[0], 1))])
    sol, *_ = np.linalg.lstsq(design, y, rcond=None)
    rms = float(np.sqrt(np.mean((design @ sol - y) ** 2)))
    return sol[:-1], rms


def _half_window_slopes(idx: np.ndarray, y: np.ndarray, axis: int) -> tuple[float, float] | None:
    """Per-axis slopes on the lower and upper halves of the index range."""
    vals = idx[:, axis]
    lo, hi = vals.min(), vals.max()
    if hi - lo < 3:
        return None
    mid = 0.5 * (lo + hi)
    lower = vals <= mid
    upper = vals >= mid
    if lower.sum() < 3 or upper.sum() < 3:
        return None
    s_lo, _ = rate_fit(idx[lower], y[lower])
    s_hi, _ = rate_fit(idx[upper], y[upper])
    return float(s_lo[axis]), float(s_hi[axis])


def fit_gevrey_type(f: MultiIndexSeries) -> tuple[float, ...]:
    """Per-axis types R_j from a least-squares fit of log(|f_N|/N!) ~ log C - sum_j N_j log R_j.

    An axis is reported as unbounded (math.inf) when the fitted rate exceeds
    TYPE_INFINITY_THRESHOLD, when the slope is steep enough to underflow the
    machine range within the stored degree, or when the upper-half slope keeps
    steepening past the lower-half slope (the signature of a convergent
    series, whose log ratio is concave).  A rate that underflows is reported
    as 0.0: the coefficients grow too fast for any Borel disc.  Raises
    SeriesError when there are fewer than dim + 1 nonzero coefficients.
    """
    entries = [(ix, math.log(abs(c)) - _lgamma_sum(ix)) for ix, c in f.items()]
    if not entries:
        raise SeriesError("all-zero series cannot be fitted")
    if len(entries) < f.dim + 1:
        raise SeriesError(f"need at least {f.dim + 1} nonzero coefficients, have {len(entries)}")
    indices = [ix for ix, _ in entries]
    logvals = [v for _, v in entries]
    slopes, _ = rate_fit(indices, logvals)

    idx_arr = np.asarray(indices, dtype=float)
    y_arr = np.asarray(logvals, dtype=float)
    types = []
    for j, slope in enumerate(slopes):
        bound = max(1, f.degree_bound[j])
        if slope <= -math.log(np.finfo(float).max) / bound:
            types.append(math.inf)
            continue
        rate = math.exp(-slope)
        if rate > TYPE_INFINITY_THRESHOLD:
            types.append(math.inf)
            continue
        halves = _half_window_slopes(idx_arr, y_arr, j)
        if halves is not None and halves[1] <= halves[0] - TAIL_STEEPENING_THRESHOLD:
            types.append(math.inf)
            continue
        types.append(rate)
    return tuple(types)
