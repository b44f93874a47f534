import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from polygevrey import (
    DimensionMismatchError,
    MultiIndexSeries,
    SeriesError,
    fit_gevrey_type,
    gamma1_norm,
)
from polygevrey.series import _half_window_slopes, evaluate_many, rate_fit


def evaluate_partial(f: MultiIndexSeries, z) -> complex:
    """Reference for ``evaluate_many``: sum over stored indices f_N z^N, Horner-style per axis."""
    return _horner(dict(f.coeffs), tuple(complex(w) for w in z), 0)


def _horner(coeffs: dict, z: tuple, axis: int) -> complex:
    if not coeffs:
        return 0j
    if axis == len(z) - 1:
        table = {ix[axis]: c for ix, c in coeffs.items()}
        acc = 0j
        for k in range(max(table), -1, -1):
            acc = acc * z[axis] + table.get(k, 0j)
        return acc
    groups: dict = {}
    for ix, c in coeffs.items():
        groups.setdefault(ix[axis], {})[ix] = c
    acc = 0j
    for k in range(max(groups), -1, -1):
        sub = groups.get(k)
        acc = acc * z[axis] + (_horner(sub, z, axis + 1) if sub else 0j)
    return acc


def factorial_series(n_max=20, rate=1.0, prefactor=1.0):
    return MultiIndexSeries(
        1,
        {(n,): prefactor * math.factorial(n) * rate ** (-n) for n in range(n_max + 1)},
        (n_max,),
    )


coeff_st = st.dictionaries(
    st.tuples(st.integers(0, 8)),
    st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=12,
)


class TestGamma1Norm:
    def test_factorials_unit_weight(self):
        assert gamma1_norm(factorial_series(), (1.0,)) == pytest.approx(1.0)

    def test_zero_series(self):
        zero = MultiIndexSeries(1, {}, (5,))
        assert gamma1_norm(zero, (2.0,)) == 0.0

    def test_scaled_factorials_collapse(self):
        ser = factorial_series(rate=0.5)  # coefficients N! 2^N
        assert gamma1_norm(ser, (0.5,)) == pytest.approx(1.0)

    def test_large_indices_no_overflow(self):
        ser = MultiIndexSeries(1, {(300,): 1.0}, (300,))
        # A^N / N! for N=300 must go through log space, not a float factorial
        val = gamma1_norm(ser, (1.0,))
        assert val == pytest.approx(math.exp(-math.lgamma(301)))

    @given(coeff_st, st.floats(0.1, 2.0), st.floats(1.0, 3.0))
    def test_inclusion_monotonicity(self, coeffs, a, factor):
        ser = MultiIndexSeries(1, coeffs, (8,))
        b = a * factor
        assert gamma1_norm(ser, (a,)) <= gamma1_norm(ser, (b,)) * (1 + 1e-12)

    def test_weight_validation(self):
        with pytest.raises(SeriesError):
            gamma1_norm(factorial_series(), (0.0,))
        with pytest.raises(DimensionMismatchError):
            gamma1_norm(factorial_series(), (1.0, 1.0))


class TestEvaluate:
    def test_cross_term(self):
        ser = MultiIndexSeries(2, {(1, 1): 1.0}, (1, 1))
        assert evaluate_partial(ser, (2.0, 3.0)) == pytest.approx(6.0)
        assert evaluate_many(ser, [(2.0, 3.0)])[0] == pytest.approx(6.0)

    def test_zero(self):
        assert evaluate_partial(MultiIndexSeries(1, {}, (0,)), (0.3,)) == 0
        assert evaluate_many(MultiIndexSeries(1, {}, (0,)), [(0.3,)])[0] == 0

    def test_geometric_partial_sum(self):
        ser = MultiIndexSeries(1, {(n,): 1.0 for n in range(4)}, (3,))
        assert evaluate_partial(ser, (0.5,)) == pytest.approx(1.875)
        assert evaluate_many(ser, [(0.5,)])[0] == pytest.approx(1.875)

    def test_point_dimension_checked(self):
        with pytest.raises(DimensionMismatchError, match="last axis of pts"):
            evaluate_many(MultiIndexSeries(2, {(1, 1): 1.0}), [(0.3,)])

    def test_vectorized_matches_scalar(self):
        ser = MultiIndexSeries(2, {(0, 0): 1.5, (2, 1): -0.5j, (1, 3): 2.0}, (2, 3))
        pts = np.array([[0.3 + 0.1j, 0.2], [0.5, -0.4j], [1.0, 1.0]])
        vec = evaluate_many(ser, pts)
        for k, p in enumerate(pts):
            assert vec[k] == pytest.approx(evaluate_partial(ser, tuple(p)), rel=1e-13)


class TestFit:
    def test_exact_factorials(self):
        assert fit_gevrey_type(factorial_series()) == pytest.approx((1.0,), rel=1e-12)

    def test_rate_half(self):
        assert fit_gevrey_type(factorial_series(rate=0.5)) == pytest.approx((0.5,), rel=1e-12)

    def test_recovery_to_1e10(self):
        for rate, pref in [(0.7, 3.0), (2.5, 0.01)]:
            (fit,) = fit_gevrey_type(factorial_series(25, rate, pref))
            assert abs(fit - rate) / rate < 1e-10

    def test_recovery_two_axes(self):
        coeffs = {
            (h, k): 2.0 * math.factorial(h) * math.factorial(k) * 1.3 ** (-h) * 0.8 ** (-k)
            for h in range(8)
            for k in range(8)
        }
        r1, r2 = fit_gevrey_type(MultiIndexSeries(2, coeffs, (7, 7)))
        assert abs(r1 - 1.3) < 1e-10
        assert abs(r2 - 0.8) < 1e-10

    def test_convergent_series_flagged_unbounded(self):
        ser = MultiIndexSeries(1, {(n,): 1.0 for n in range(41)}, (40,))
        assert math.isinf(fit_gevrey_type(ser)[0])
        # brute-force oracle: window slopes of -log N! keep steepening
        slopes = []
        for lo in (0, 10, 20, 30):
            ns = np.arange(lo, lo + 11, dtype=float)
            ys = -np.array([math.lgamma(n + 1) for n in ns])
            slopes.append(np.polyfit(ns, ys, 1)[0])
        assert all(b < a for a, b in zip(slopes, slopes[1:]))

    def test_steep_slope_is_unbounded(self):
        # log(|f_1|/|f_0|) = -1381 would underflow |f_N| within the stored degree
        assert fit_gevrey_type(MultiIndexSeries(1, {(0,): 1e300, (1,): 1e-10})) == (math.inf,)

    def test_rate_past_threshold_is_unbounded(self):
        # f_N = N! 1e-7^N: rate 1e7, above TYPE_INFINITY_THRESHOLD
        ser = MultiIndexSeries(1, {(n,): math.factorial(n) * 1e-7**n for n in range(6)}, (5,))
        assert fit_gevrey_type(ser) == (math.inf,)

    def test_underflowed_rate_is_zero(self):
        # log(|f_1|/|f_0|) = 1381: the fitted rate exp(-1381) underflows to 0.0
        assert fit_gevrey_type(MultiIndexSeries(1, {(0,): 1e-300, (1,): 1e300})) == (0.0,)

    def test_convex_log_ratio_is_zero(self):
        # f_(h,k) = (h! k!)^2, h, k <= 6: log(|f_N|/N!) = log(h! k!) is convex, its upper-half
        # slope 0.99 above the lower-half one on each axis, so the type is 0.0, not the
        # exp(-slope) = 0.321 of the full-window average
        ser = MultiIndexSeries(2, {(h, k): (math.factorial(h) * math.factorial(k)) ** 2
                                   for h in range(7) for k in range(7)}, (6, 6))
        idx = np.asarray([ix for ix, _ in ser.items()], dtype=float)
        y = np.asarray([math.log(abs(c)) - math.lgamma(h + 1) - math.lgamma(k + 1) for (h, k), c in ser.items()])
        for axis in range(2):
            lower, upper = _half_window_slopes(idx, y, axis)
            assert upper - lower == pytest.approx(0.99, abs=0.005)
        slopes, _ = rate_fit(idx, y)
        assert np.exp(-slopes) == pytest.approx([0.321] * 2, abs=5e-4)
        assert fit_gevrey_type(ser) == (0.0, 0.0)

    def test_sparse_degrees_skip_the_half_window_test(self):
        # f_N = N! at N in {0, 1, 2, 10, 11}: the upper half window [5.5, 11] holds two
        # indices, too few for a slope, so the type is the full fit's exp(0) = 1; so does
        # the lower half at {0, 1, 9, 10, 11}
        lower = MultiIndexSeries(1, {(n,): math.factorial(n) for n in (0, 1, 9, 10, 11)})
        assert fit_gevrey_type(lower) == pytest.approx((1.0,), rel=1e-12)
        ser = MultiIndexSeries(1, {(n,): math.factorial(n) for n in (0, 1, 2, 10, 11)})
        assert fit_gevrey_type(ser) == pytest.approx((1.0,), rel=1e-12)

    def test_too_few_points(self):
        with pytest.raises(SeriesError):
            fit_gevrey_type(MultiIndexSeries(1, {(0,): 1.0}, (0,)))
        with pytest.raises(SeriesError):
            fit_gevrey_type(MultiIndexSeries(1, {}, (5,)))


class TestRateFit:
    def test_plane_recovery(self):
        idx = [(h, k) for h in range(4) for k in range(4)]
        logs = [2.0 - 0.5 * h + 0.25 * k for h, k in idx]
        slopes, rms = rate_fit(idx, logs)
        assert slopes[0] == pytest.approx(-0.5, abs=1e-12)
        assert slopes[1] == pytest.approx(0.25, abs=1e-12)
        assert rms < 1e-12


class TestStructure:
    def test_invariants(self):
        with pytest.raises(SeriesError):
            MultiIndexSeries(1, {(3,): 1.0}, (2,))
        with pytest.raises(SeriesError):
            MultiIndexSeries(1, {(-1,): 1.0})
        with pytest.raises(DimensionMismatchError):
            MultiIndexSeries(2, {(1,): 1.0})
        with pytest.raises(SeriesError, match="dimension must be >= 1"):
            MultiIndexSeries(0, {})
        with pytest.raises(DimensionMismatchError, match="degree_bound length"):
            MultiIndexSeries(2, {(1, 1): 1.0}, (1,))

    def test_zero_series_degree_bound(self):
        # with no nonzero coefficient and no stated bound, the bound is 0 on every axis
        assert MultiIndexSeries(2, {(3, 1): 0.0}).degree_bound == (0, 0)

    def test_json_roundtrip(self):
        # a config's series object, as the CLI reads it
        from polygevrey import cli

        obj = {
            "dim": 2,
            "degree_bound": [3, 2],
            "coeffs": [{"index": [0, 1], "re": 1.0, "im": 2.0}, {"index": [3, 2], "re": -0.5}],
        }
        raw = {"suite": "coherence", "series": obj}
        ser = cli._read(raw, cli._table("verify", raw))["series"]
        assert ser == MultiIndexSeries(2, {(0, 1): 1 + 2j, (3, 2): -0.5}, (3, 2))
        del obj["degree_bound"]  # defaults to the largest index per axis
        assert cli._read(raw, cli._table("verify", raw))["series"].degree_bound == (3, 2)

    def test_csv_rows(self, tmp_path):
        # transform writes one series.csv row (N, |f_N|, |f_N|/N!) per stored coefficient
        from polygevrey.cli import EXIT_OK, main

        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "series": {"dim": 1, "coeffs": [{"index": [2], "re": 4.0}], "degree_bound": [2]},
            "z0": [0.5], "direction": [0.0], "radii": [0.2, 0.1],
        }))
        assert main(["transform", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OK
        header, row = (tmp_path / "series.csv").read_text().splitlines()
        assert header == "N,abs_coeff,abs_coeff_over_factorial"
        label, mag, ratio = row.split(",")
        assert label == "2"
        assert float(mag) == pytest.approx(4.0)
        assert float(ratio) == pytest.approx(2.0)

    def test_zero_coefficients_dropped(self):
        ser = MultiIndexSeries(1, {(0,): 0.0, (1,): 2.0}, (1,))
        assert ser.coeffs == {(1,): 2.0}
