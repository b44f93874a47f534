import cmath
import math

import mpmath
import numpy as np
import pytest

from polygevrey import (
    DomainError,
    LaplaceSpec,
    MultiIndexSeries,
    PolygevreyError,
    QuadratureError,
    TailError,
    borel_transform,
    brg_function,
    brg_type,
    testbed,
    truncated_laplace,
    truncated_laplace_nd,
)
from polygevrey.series import evaluate_many
from polygevrey.transforms import (
    _GL_NODES,
    _GL_WEIGHTS,
    adaptive_panel_quad,
    half_plane_polysector,
    laplace_bound,
    laplace_monomial_errors,
    laplace_monomials,
    laplace_of_polynomial,
    truncated_laplace_with_error,
)

PI = math.pi


def laplace_poly_closed(k: int, z0: complex, z: complex) -> complex:
    """(1/z) * integral_0^z0 t^k e^{-t/z} dt via the antiderivative."""
    if k == 0:
        return 1 - cmath.exp(-z0 / z)
    if k == 1:
        return z - cmath.exp(-z0 / z) * (z0 + z)
    if k == 2:
        return 2 * z * z - cmath.exp(-z0 / z) * (z0 * z0 + 2 * z * z0 + 2 * z * z)
    raise ValueError(k)


def adaptive_simpson(f, a, b, tol, depth=40):
    """Independent oracle quadrature (different node scheme entirely)."""

    def simp(lo, hi):
        mid = 0.5 * (lo + hi)
        return (hi - lo) / 6 * (f(lo) + 4 * f(mid) + f(hi)), mid

    def rec(lo, hi, whole, d):
        s1, m = simp(lo, hi)
        left, _ = simp(lo, m)
        right, _ = simp(m, hi)
        if abs(left + right - whole) < tol * (hi - lo) or d <= 0:
            return left + right
        return rec(lo, m, left, d - 1) + rec(m, hi, right, d - 1)

    whole, _ = simp(a, b)
    return rec(a, b, whole, depth)


class TestTruncatedLaplace:
    @pytest.mark.parametrize("z0", [1.0, 0.5, 0.8 * cmath.exp(0.4j)])
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_polynomial_closed_forms(self, k, z0):
        spec = LaplaceSpec((z0,), tol=1e-12)
        theta0 = cmath.phase(complex(z0))
        for r in (0.05, 0.2, 1.0, 3.0):
            for dth in (-1.2, 0.0, 0.9):
                z = r * cmath.exp(1j * (theta0 + dth))
                got = truncated_laplace(lambda t: t**k, spec, z)
                want = laplace_poly_closed(k, complex(z0), z)
                assert abs(got - want) <= 1e-10 * max(1.0, abs(want))

    def test_exponential_integrand(self):
        # phi = e^{-a t}: (1 - e^{-(a + 1/z) z0}) / (a z + 1)
        a, z0, z = 2.0, 1.0, 0.4
        spec = LaplaceSpec((z0,), tol=1e-12)
        got = truncated_laplace(lambda t: np.exp(-a * t), spec, z)
        want = (1 - math.exp(-(a + 1 / z) * z0)) / (a * z + 1)
        assert got == pytest.approx(want, rel=1e-11)

    def test_quoted_values(self):
        spec = LaplaceSpec((1.0,), tol=1e-12)
        assert truncated_laplace(lambda t: np.ones_like(t), spec, 0.1) == pytest.approx(
            1 - math.exp(-10), rel=1e-12
        )
        assert truncated_laplace(lambda t: t, spec, 0.5) == pytest.approx(
            0.5 - 1.5 * math.exp(-2), rel=1e-12
        )
        assert truncated_laplace(lambda t: np.zeros_like(t), spec, 0.3) == 0

    def test_batch_matches_scalar(self):
        spec = LaplaceSpec((0.7,), tol=1e-12)
        zs = np.array([0.1, 0.3 + 0.2j, 2.0 - 0.5j])
        batch, errs = truncated_laplace_with_error(lambda t: 1 / (1 + t), spec, zs)
        for z, b in zip(zs, batch):
            assert truncated_laplace(lambda t: 1 / (1 + t), spec, z) == pytest.approx(
                complex(b), rel=1e-11
            )
        assert np.all(errs >= 0)

    def test_half_plane_enforced(self):
        spec = LaplaceSpec((1.0,), tol=1e-10)
        with pytest.raises(DomainError):
            truncated_laplace(lambda t: t, spec, -0.3)
        with pytest.raises(DomainError):
            truncated_laplace(lambda t: t, spec, 0.4 * cmath.exp(1.6j))

    def test_scheme_independence(self):
        # same integral through an unrelated quadrature scheme
        z0, z = 0.5, 0.17
        spec = LaplaceSpec((z0,), tol=1e-12)
        got = truncated_laplace(lambda t: 1 / (1 + t), spec, z)
        want = adaptive_simpson(
            lambda s: z0 / z * math.exp(-s * z0 / z) / (1 + s * z0), 0.0, 1.0, 1e-13
        )
        assert got == pytest.approx(want, rel=1e-10)


class TestTruncatedLaplaceND:
    def test_separable_constant(self):
        spec = LaplaceSpec((0.5, 0.5), tol=1e-11)
        z = (0.2, 0.3)
        got = truncated_laplace_nd(lambda p: np.ones(len(p)), spec, z)
        want = (1 - math.exp(-0.5 / 0.2)) * (1 - math.exp(-0.5 / 0.3))
        assert got == pytest.approx(want, rel=1e-9)

    def test_separable_linear_factor(self):
        spec = LaplaceSpec((1.0, 0.6), tol=1e-11)
        z = (0.5, 0.4)
        got = truncated_laplace_nd(lambda p: p[:, 0], spec, z)
        want = laplace_poly_closed(1, 1.0, 0.5) * laplace_poly_closed(0, 0.6, 0.4)
        assert got == pytest.approx(want, rel=1e-9)

    def test_zero(self):
        spec = LaplaceSpec((1.0, 1.0), tol=1e-10)
        assert truncated_laplace_nd(lambda p: np.zeros(len(p)), spec, (0.3, 0.3)) == 0

    def test_dimension_check(self):
        spec = LaplaceSpec((1.0, 1.0), tol=1e-10)
        with pytest.raises(DomainError):
            truncated_laplace_nd(lambda p: np.ones(len(p)), spec, (0.3,))


def mp_monomial(n: int, z0: complex, z: complex):
    """z^n P(n+1, z0/z) at 40 digits from the exact double inputs."""
    w = mpmath.mpc(z0) / mpmath.mpc(z)
    return mpmath.mpc(z) ** n * mpmath.gammainc(n + 1, 0, w, regularized=True)


class TestLaplaceMonomials:
    def test_matches_mpmath_gammainc(self):
        top = 24
        sides = set()
        with mpmath.workdps(40):
            for z0 in (1.0, 0.5, 0.8 * cmath.exp(0.4j)):
                theta0 = cmath.phase(complex(z0))
                zs = np.asarray(
                    [
                        r * cmath.exp(1j * (theta0 + dth))
                        for r in np.geomspace(1e-3, 5.0, 13)
                        for dth in (-1.5, -0.8, 0.0, 0.6, 1.5)
                    ]
                )
                got = laplace_monomials(z0, zs, top)
                assert got.shape == (top + 1, zs.size)
                for j, z in enumerate(zs):
                    for n in range(top + 1):
                        want = mp_monomial(n, z0, z)
                        rel = float(abs(complex(got[n, j]) - want) / abs(want))
                        assert rel <= 1e-12, (n, z0, z, rel)
                        sides.add(abs(z0 / z) >= n + 1)
        assert sides == {True, False}  # both the head and the tail branch ran

    def test_matches_quadrature(self):
        spec = LaplaceSpec((0.7 * cmath.exp(-0.3j),), tol=1e-13)
        zs = np.asarray([0.05, 0.3 + 0.2j, 1.5 * cmath.exp(-1.2j), 4.0])
        got = laplace_monomials(spec.z0[0], zs, 6)
        for n in range(7):
            want = truncated_laplace(lambda t: t**n / math.factorial(n), spec, zs)
            assert np.allclose(got[n], want, rtol=1e-10, atol=0)

    def test_scalar_point(self):
        got = laplace_monomials(0.5, 0.2, 2)
        assert got.shape == (3, 1)
        assert complex(got[0, 0]) == pytest.approx(1 - math.exp(-2.5), rel=1e-14)

    def test_domain(self):
        with pytest.raises(DomainError):
            laplace_monomials(1.0, 0.0, 3)
        with pytest.raises(DomainError):
            laplace_monomials(1.0, np.asarray([0.2, -0.3]), 3)


class TestLaplaceOfPolynomial:
    def test_two_axes_match_iterated_quadrature(self):
        phi = MultiIndexSeries(
            2, {(0, 0): 1.0, (1, 0): -0.5j, (0, 2): 0.25, (2, 1): 0.3 - 0.1j}, (2, 2)
        )
        z0 = (0.5, 0.6 * cmath.exp(0.3j))
        spec = LaplaceSpec(z0, tol=1e-12)
        func = laplace_of_polynomial(phi, spec, half_plane_polysector(z0))
        assert func.provenance == "closed-form"
        pts = np.asarray([(0.2, 0.3), (0.05 + 0.04j, 0.5j + 0.4), (1.1, 0.08)])
        got = func.eval_many(pts)
        for p, g in zip(pts, got):
            want = truncated_laplace_nd(lambda q: evaluate_many(phi, q), spec, p)
            assert abs(g - want) <= 1e-10 * max(1.0, abs(want))

    def test_dimension_check(self):
        phi = MultiIndexSeries(1, {(0,): 1.0}, (0,))
        with pytest.raises(DomainError):
            laplace_of_polynomial(phi, LaplaceSpec((0.5, 0.5)), half_plane_polysector((0.5, 0.5)))


class TestErrorBound:
    """The reported bound covers the distance to a 40-digit evaluation of the same sum."""

    @staticmethod
    def mp_transform(phi: MultiIndexSeries, z0, p):
        total = mpmath.mpc(0)
        for ix, c in phi.coeffs.items():
            term = mpmath.mpc(c) * mpmath.fprod(mpmath.factorial(k) for k in ix)
            for j, k in enumerate(ix):
                term *= mp_monomial(k, z0[j], p[j])
            total += term
        return total

    def check(self, ser: MultiIndexSeries, z0, pts):
        spec = LaplaceSpec(z0, tol=1e-12)
        func = brg_function(ser, spec)
        phi = borel_transform(ser)
        vals = func.eval_many(pts)
        bounds = laplace_bound(phi, spec, pts)
        assert np.all(bounds > 0)
        with mpmath.workdps(40):
            for p, v, b in zip(pts, vals, bounds):
                err = float(abs(v - self.mp_transform(phi, z0, p)))
                assert err <= b, (p, err, b)
        return bounds

    def test_euler(self):
        entry = testbed.get("euler")
        z0 = entry.known["z0"]
        pts = np.asarray(
            [
                [r * cmath.exp(1j * th)]
                for r in (0.4 * 0.7**k for k in range(12))
                for th in (0.0, 0.5236, -1.0, 1.45)
            ]
        )
        bounds = self.check(entry.known["series"], z0, pts)
        assert np.max(bounds) < 1e-12

    def test_brg_const2(self):
        entry = testbed.get("brg_const2")
        z0 = entry.known["z0"]
        radii = (0.4, 0.1, 0.02)
        pts = np.asarray(
            [
                (r1 * cmath.exp(1j * a), r2 * cmath.exp(1j * b))
                for r1 in radii
                for r2 in radii
                for a, b in ((0.0, 0.0), (1.2, -0.7), (-1.45, 1.45))
            ]
        )
        bounds = self.check(entry.known["series"], z0, pts)
        assert np.max(bounds) < 1e-14
        # the same values as the testbed's closed form
        func = brg_function(entry.known["series"], LaplaceSpec(z0))
        assert np.allclose(func.eval_many(pts), entry.fn.eval_many(pts), rtol=1e-14, atol=1e-15)


    def test_monomials_on_random_points(self):
        # single monomials up to degree 40 on both branches: a bound that only
        # scales eps by |L[n]| misses the ~200 eps relative error of the
        # log-space terms at high n
        rng = np.random.default_rng(7)
        sides = set()
        worst = 0.0
        with mpmath.workdps(40):
            for _ in range(40):
                top = int(rng.integers(0, 41))
                z0 = rng.uniform(0.2, 2.0) * cmath.exp(1j * rng.uniform(-1.5, 1.5))
                zs = np.asarray(
                    [
                        10 ** rng.uniform(-3, math.log10(5))
                        * cmath.exp(1j * (cmath.phase(z0) + rng.uniform(-1.5, 1.5)))
                        for _ in range(3)
                    ]
                )
                vals, errs = laplace_monomial_errors(z0, zs, top)
                assert np.array_equal(vals, laplace_monomials(z0, zs, top))
                for j, z in enumerate(zs):
                    for n in range(top + 1):
                        err = float(abs(complex(vals[n, j]) - mp_monomial(n, z0, z)))
                        assert err <= errs[n, j], (n, top, z0, z, err, errs[n, j])
                        worst = max(worst, err / (2.2e-16 * abs(complex(vals[n, j]))))
                        sides.add(abs(z0 / z) >= n + 1)
        assert sides == {True, False}
        assert worst > 50  # the high-degree error this bound exists for did occur


class TestBrgType:
    def test_aligned(self):
        assert brg_type((0.5,), (0.0,)) == pytest.approx((0.5,))

    def test_sixty_degrees(self):
        assert brg_type((2.0,), (PI / 3,))[0] == pytest.approx(1.0)

    def test_near_edge_small(self):
        val = brg_type((1.0,), (PI / 2 - 1e-6,))[0]
        assert 0 < val < 2e-6

    def test_outside_half_plane(self):
        with pytest.raises(DomainError):
            brg_type((1.0,), (PI / 2,))

    def test_componentwise(self):
        z0 = (0.5, 1.0 * cmath.exp(0.3j))
        got = brg_type(z0, (0.2, 0.5))
        assert got[0] == pytest.approx(0.5 * math.cos(0.2))
        assert got[1] == pytest.approx(1.0 * math.cos(0.5 - 0.3))


def euler_series(n_max=40):
    return MultiIndexSeries(
        1, {(n,): (-1.0) ** n * math.factorial(n) for n in range(n_max + 1)}, (n_max,)
    )


class TestBrgFunction:
    def test_euler_vs_direct_quadrature(self):
        spec = LaplaceSpec((0.5,), tol=1e-12)
        func = brg_function(euler_series(), spec)
        z = 0.2
        got = func((z,))
        want = adaptive_simpson(
            lambda s: 0.5 / z * math.exp(-s * 0.5 / z) / (1 + s * 0.5), 0.0, 1.0, 1e-14
        )
        assert got == pytest.approx(want, rel=1e-10)

    def test_constant_series_closed_form(self):
        spec = LaplaceSpec((0.5,), tol=1e-12)
        func = brg_function(MultiIndexSeries(1, {(0,): 1.0}, (0,)), spec)
        for z in (0.1, 0.4 * cmath.exp(0.7j)):
            assert func((z,)) == pytest.approx(1 - cmath.exp(-0.5 / z), rel=1e-10)

    def test_zero_series(self):
        spec = LaplaceSpec((0.5,), tol=1e-10)
        func = brg_function(MultiIndexSeries(1, {}, (5,)), spec)
        assert func((0.2,)) == 0

    def test_two_axes_product(self):
        spec = LaplaceSpec((0.4, 0.4), tol=1e-10)
        func = brg_function(MultiIndexSeries(2, {(0, 0): 1.0}, (0, 0)), spec)
        z = (0.15, 0.25)
        want = (1 - math.exp(-0.4 / 0.15)) * (1 - math.exp(-0.4 / 0.25))
        assert func(z) == pytest.approx(want, rel=1e-8)

    def test_outside_borel_disc(self):
        with pytest.raises(DomainError):
            brg_function(euler_series(), LaplaceSpec((1.1,), tol=1e-10))

    def test_tail_guard(self):
        with pytest.raises(TailError):
            brg_function(euler_series(), LaplaceSpec((0.95,), tol=1e-10))

    def test_remainder_decay_bound(self):
        # |F - App_N| <= C_hat N! (|z|/R(theta))^N with a single fitted C_hat
        from polygevrey import family_from_series, remainder_constants

        spec = LaplaceSpec((0.5,), tol=1e-12)
        func = brg_function(euler_series(), spec)
        fam = family_from_series(euler_series(), (0.5,))
        theta = 0.3
        radius_grid = [0.4 * 0.8**k for k in range(16)]
        cons = remainder_constants(
            func, fam, (theta,), [radius_grid], [(n,) for n in range(15)], noise_floor=1e-9
        )
        r_theta = brg_type((0.5,), (theta,))[0]
        normalized = [
            math.log(c) - math.lgamma(n[0] + 1) + n[0] * math.log(r_theta)
            for n, c in cons.items()
        ]
        c_hat = max(normalized)
        # the law holds with one constant: no normalized value wildly exceeds the fit,
        # and the sequence does not drift upward past the fitted envelope
        assert c_hat < 50
        tail = [v for n, v in zip(sorted(cons), normalized) if n[0] >= 4]
        assert max(tail) - min(tail) < 4.0


class TestSpecJson:
    def test_validation(self):
        with pytest.raises(DomainError):
            LaplaceSpec((0.0,))
        with pytest.raises(DomainError):
            LaplaceSpec((1.0,), tol=-1)


class TestGaussLegendreRule:
    def test_matches_mpmath_legendre_roots(self):
        # Newton on P_15 at 40 digits from the standard cosine initial guesses
        n = 15
        with mpmath.workdps(40):

            def p_and_dp(x):
                p = mpmath.legendre(n, x)
                return p, n * (x * p - mpmath.legendre(n - 1, x)) / (x * x - 1)

            nodes, weights = [], []
            for i in range(n):
                x = mpmath.cos(mpmath.pi * (i + mpmath.mpf(3) / 4) / (n + mpmath.mpf(1) / 2))
                for _ in range(100):
                    p, dp = p_and_dp(x)
                    x -= p / dp
                    if abs(p / dp) < mpmath.mpf(10) ** -38:
                        break
                nodes.append(x)
                weights.append(2 / ((1 - x * x) * p_and_dp(x)[1] ** 2))
            order = sorted(range(n), key=lambda i: nodes[i])
            for got, i in zip(_GL_NODES, order):
                assert abs(nodes[i] - float(got)) <= 2e-16
            for got, i in zip(_GL_WEIGHTS, order):
                assert abs(weights[i] - float(got)) <= 1e-15

    def test_exact_on_polynomials_to_degree_29(self):
        for k in range(30):
            want = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            assert abs(float(np.dot(_GL_WEIGHTS, _GL_NODES**k)) - want) <= 2e-15
        # and no further: degree 30 is where a 15-point rule stops being exact
        assert abs(float(np.dot(_GL_WEIGHTS, _GL_NODES**30)) - 2.0 / 31) > 1e-10


class TestAdaptivePanels:
    def test_smooth_integral(self):
        val, err = adaptive_panel_quad(lambda s: np.exp(-3 * s), 0.0, 1.0, 1e-12, 30)
        assert complex(val) == pytest.approx((1 - math.exp(-3)) / 3, rel=1e-12)

    def test_batch_columns(self):
        rates = np.array([1.0, 10.0, 120.0])
        val, err = adaptive_panel_quad(
            lambda s: np.exp(-np.multiply.outer(s, rates)), 0.0, 1.0, 1e-12, 30
        )
        want = (1 - np.exp(-rates)) / rates
        assert np.allclose(val, want, rtol=1e-11)

    @pytest.mark.parametrize(
        "fvec",
        [lambda s: np.where(s < 1 / 3, 1.0, 0.0), lambda s: 1 / np.sqrt(np.abs(s - 1 / 3))],
        ids=["jump", "inverse-sqrt"],
    )
    def test_stall_raises_with_partial(self, fvec):
        # the reference quadrature's failure path: a panel that cannot meet its budget by max_depth
        with pytest.raises(QuadratureError) as info:
            adaptive_panel_quad(fvec, 0.0, 1.0, 1e-12, max_depth=4)
        exc = info.value
        assert exc.partial is not None and np.isfinite(exc.partial)
        assert exc.error is not None and exc.error > 1e-12

    def test_tail_error_is_not_a_quadrature_failure(self):
        assert not issubclass(TailError, QuadratureError)
        assert issubclass(TailError, PolygevreyError) and issubclass(TailError, RuntimeError)
