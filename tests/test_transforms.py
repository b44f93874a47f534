import cmath
import json
import math
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

from polygevrey import (
    DimensionMismatchError,
    DomainError,
    MultiIndexSeries,
    PolygevreyError,
    QuadratureError,
    TailError,
    brg_function,
    brg_type,
    testbed,
    truncated_laplace_nd,
)
from polygevrey.series import evaluate_many
from polygevrey.transforms import (
    _GL_NODES,
    _GL_WEIGHTS,
    LaplaceTables,
    _borel_tail_bound,
    _tail_terms,
    adaptive_panel_quad,
    borel_disc_types,
    half_plane_polysector,
    laplace_bound,
    laplace_monomial_errors,
    laplace_monomials,
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
        theta0 = cmath.phase(complex(z0))
        for r in (0.05, 0.2, 1.0, 3.0):
            for dth in (-1.2, 0.0, 0.9):
                z = r * cmath.exp(1j * (theta0 + dth))
                got = truncated_laplace_with_error(lambda t: t**k, z0, z, 1e-12)[0]
                want = laplace_poly_closed(k, complex(z0), z)
                assert abs(got - want) <= 1e-10 * max(1.0, abs(want))

    def test_exponential_integrand(self):
        # phi = e^{-a t}: (1 - e^{-(a + 1/z) z0}) / (a z + 1)
        a, z0, z = 2.0, 1.0, 0.4
        got = truncated_laplace_with_error(lambda t: np.exp(-a * t), z0, z, 1e-12)[0]
        want = (1 - math.exp(-(a + 1 / z) * z0)) / (a * z + 1)
        assert got == pytest.approx(want, rel=1e-11)

    def test_quoted_values(self):
        assert truncated_laplace_with_error(lambda t: np.ones_like(t), 1.0, 0.1, 1e-12)[0] == pytest.approx(
            1 - math.exp(-10), rel=1e-12
        )
        assert truncated_laplace_with_error(lambda t: t, 1.0, 0.5, 1e-12)[0] == pytest.approx(
            0.5 - 1.5 * math.exp(-2), rel=1e-12
        )
        assert truncated_laplace_with_error(lambda t: np.zeros_like(t), 1.0, 0.3, 1e-12)[0] == 0

    def test_batch_matches_scalar(self):
        zs = np.array([0.1, 0.3 + 0.2j, 2.0 - 0.5j])
        batch, errs = truncated_laplace_with_error(lambda t: 1 / (1 + t), 0.7, zs, 1e-12)
        for z, b in zip(zs, batch):
            assert truncated_laplace_with_error(lambda t: 1 / (1 + t), 0.7, z, 1e-12)[0] == pytest.approx(
                complex(b), rel=1e-11
            )
        assert np.all(errs >= 0)

    def test_half_plane_enforced(self):
        with pytest.raises(DomainError):
            truncated_laplace_with_error(lambda t: t, 1.0, -0.3, 1e-10)
        with pytest.raises(DomainError, match="z must be nonzero"):
            truncated_laplace_with_error(lambda t: t, 1.0, np.array([0.3, 0.0]), 1e-10)
        with pytest.raises(DomainError):
            truncated_laplace_with_error(lambda t: t, 1.0, 0.4 * cmath.exp(1.6j), 1e-10)

    def test_benchmark_tracer_reads_the_arguments(self):
        # the benchmark's tracer counts the points z at argument position 2; its
        # install() rebinds module globals, so it runs in a fresh interpreter
        root = Path(__file__).resolve().parents[1]
        code = (
            "import json, sys\n"
            f"sys.path[:0] = [{str(root / 'src')!r}, {str(root / 'bench')!r}]\n"
            "import numpy as np\n"
            "from tracer import Tracer, install\n"
            "from polygevrey import transforms\n"
            "tracer = Tracer()\n"
            "install(tracer)\n"
            "transforms.truncated_laplace_with_error(lambda t: t, 0.5, np.array([0.1, 0.2, 0.3]), 1e-8)\n"
            "print(json.dumps(tracer.counts))\n"
        )
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        counts = json.loads(res.stdout)
        assert counts["transforms.laplace.points"] == 3
        assert counts["transforms.quad.panels"] > 0

    def test_scheme_independence(self):
        # same integral through an unrelated quadrature scheme
        z0, z = 0.5, 0.17
        got = truncated_laplace_with_error(lambda t: 1 / (1 + t), z0, z, 1e-12)[0]
        want = adaptive_simpson(
            lambda s: z0 / z * math.exp(-s * z0 / z) / (1 + s * z0), 0.0, 1.0, 1e-13
        )
        assert got == pytest.approx(want, rel=1e-10)


class TestTruncatedLaplaceND:
    def test_separable_constant(self):
        z = (0.2, 0.3)
        got = truncated_laplace_nd(lambda p: np.ones(len(p)), (0.5, 0.5), z, 1e-11)
        want = (1 - math.exp(-0.5 / 0.2)) * (1 - math.exp(-0.5 / 0.3))
        assert got == pytest.approx(want, rel=1e-9)

    def test_separable_linear_factor(self):
        z = (0.5, 0.4)
        got = truncated_laplace_nd(lambda p: p[:, 0], (1.0, 0.6), z, 1e-11)
        want = laplace_poly_closed(1, 1.0, 0.5) * laplace_poly_closed(0, 0.6, 0.4)
        assert got == pytest.approx(want, rel=1e-9)

    def test_zero(self):
        assert truncated_laplace_nd(lambda p: np.zeros(len(p)), (1.0, 1.0), (0.3, 0.3), 1e-10) == 0

    def test_dimension_check(self):
        with pytest.raises(DomainError):
            truncated_laplace_nd(lambda p: np.ones(len(p)), (1.0, 1.0), (0.3,), 1e-10)
        with pytest.raises(DomainError, match="z components must be nonzero"):
            truncated_laplace_nd(lambda p: np.ones(len(p)), (1.0, 1.0), (0.3, 0.0), 1e-10)


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
        z0 = 0.7 * cmath.exp(-0.3j)
        zs = np.asarray([0.05, 0.3 + 0.2j, 1.5 * cmath.exp(-1.2j), 4.0])
        got = laplace_monomials(z0, zs, 6)
        for n in range(7):
            want = truncated_laplace_with_error(lambda t: t**n / math.factorial(n), z0, zs, 1e-13)[0]
            assert np.allclose(got[n], want, rtol=1e-10, atol=0)

    def test_scalar_point(self):
        got = laplace_monomials(0.5, 0.2, 2)
        assert got.shape == (3, 1)
        assert complex(got[0, 0]) == pytest.approx(1 - math.exp(-2.5), rel=1e-14)

    def test_values_do_not_depend_on_the_batch(self):
        # half the points have a nearly real w, where one part of the tail sum
        # is small and its last bits notice every extra term; a term count that
        # followed the batch's largest |w| moved such a point at top 6
        z0 = 0.5 * cmath.exp(0.4j)
        rng = np.random.default_rng(2)
        for top in (6, 16, 45):
            mod = (top + 1) * rng.uniform(0.02, 1.6, 60)
            arg = rng.uniform(-1.5, 1.5, 60) * rng.choice([1e-3, 1.0], 60)
            zs = z0 / (mod * np.exp(1j * arg))
            assert 0 < np.count_nonzero(mod < top + 1) < 60  # both branches
            batch = laplace_monomials(z0, zs, top)
            alone = np.stack([laplace_monomials(z0, z, top)[:, 0] for z in zs], axis=1)
            split = np.hstack([laplace_monomials(z0, zs[:23], top), laplace_monomials(z0, zs[23:], top)])
            assert np.array_equal(batch, alone), top
            assert np.array_equal(batch, split), top

    def test_tail_terms_suffice(self):
        # the fixed count drops less than eps/4 of the tail series on |w| < top+1,
        # Re w > 0, whose sum stays above 1/sqrt 2 in modulus.  The reference sum
        # has terms j <= k, k = 2 * count + 10; by the b_j bound of _tail_terms the
        # terms it drops add at most b_k (top+2+k)/(k+1), which must stay below eps**2
        eps = np.finfo(float).eps
        for top in range(46):
            count = _tail_terms(top)
            k = 2 * count + 10
            b_k = np.prod((top + 1) / np.arange(top + 2, top + 2 + k))
            assert b_k * (top + 2 + k) / (k + 1) <= eps**2, top
            w = (top + 1) * np.outer(np.linspace(0.0, 1.0, 41)[1:] * (1 - 1e-12),
                                     np.exp(1j * np.linspace(-PI / 2, PI / 2, 41))).ravel()
            ratios = w / np.arange(top + 2, top + 2 + k)[:, None]
            sums = np.cumsum(np.cumprod(np.vstack([np.ones_like(w), ratios]), axis=0), axis=0)
            full, cut = sums[-1], sums[count - 1]
            assert np.all(np.abs(full) > 2**-0.5), top
            assert np.all(np.abs(full - cut) <= 0.25 * eps * np.abs(full)), top

    def test_domain(self):
        with pytest.raises(DomainError):
            laplace_monomials(1.0, 0.0, 3)
        with pytest.raises(DomainError):
            laplace_monomials(1.0, np.asarray([0.2, -0.3]), 3)


class TestLaplaceOfPolynomial:
    """``LaplaceTables.transform`` of a series is the transform of its polynomial Borel sum."""

    def test_two_axes_match_iterated_quadrature(self):
        # the Borel sum phi has the coefficients f_N / N!
        phi = MultiIndexSeries(
            2, {(0, 0): 1.0, (1, 0): -0.5j, (0, 2): 0.25, (2, 1): 0.3 - 0.1j}, (2, 2)
        )
        ser = MultiIndexSeries(
            2, {ix: c * math.factorial(ix[0]) * math.factorial(ix[1]) for ix, c in phi.items()}, (2, 2)
        )
        z0 = (0.5, 0.6 * cmath.exp(0.3j))
        func = LaplaceTables(z0, ser.degree_bound).transform(ser, (0, 1))
        assert func.provenance == "closed-form"
        assert func.domain == half_plane_polysector(z0)
        pts = np.asarray([(0.2, 0.3), (0.05 + 0.04j, 0.5j + 0.4), (1.1, 0.08)])
        got = func.eval_many(pts)
        for p, g in zip(pts, got):
            want = truncated_laplace_nd(lambda q: evaluate_many(phi, q), z0, p, 1e-12)
            assert abs(g - want) <= 1e-10 * max(1.0, abs(want))

    def test_dimension_check(self):
        ser = MultiIndexSeries(1, {(0,): 1.0}, (0,))
        with pytest.raises(DimensionMismatchError):
            brg_function(ser, (0.5, 0.5))


class TestErrorBound:
    """The reported bound covers the distance to a 40-digit evaluation of the same sum."""

    @staticmethod
    def mp_transform(ser: MultiIndexSeries, z0, p):
        total = mpmath.mpc(0)
        for ix, c in ser.coeffs.items():
            term = mpmath.mpc(c)
            for j, k in enumerate(ix):
                term *= mp_monomial(k, z0[j], p[j])
            total += term
        return total

    def check(self, ser: MultiIndexSeries, z0, pts):
        func = brg_function(ser, z0, 1e-12)
        vals = func.eval_many(pts)
        bounds = laplace_bound(ser, z0, pts)
        assert np.all(bounds > 0)
        with mpmath.workdps(40):
            for p, v, b in zip(pts, vals, bounds):
                err = float(abs(v - self.mp_transform(ser, z0, p)))
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
        func = brg_function(entry.known["series"], z0)
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
        with pytest.raises(DomainError, match="one direction per axis"):
            brg_type((1.0, 1.0), (0.0,))

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
        func = brg_function(euler_series(), (0.5,), 1e-12)
        z = 0.2
        got = func.eval_many([(z,)])[0]
        want = adaptive_simpson(
            lambda s: 0.5 / z * math.exp(-s * 0.5 / z) / (1 + s * 0.5), 0.0, 1.0, 1e-14
        )
        assert got == pytest.approx(want, rel=1e-10)

    def test_constant_series_closed_form(self):
        func = brg_function(MultiIndexSeries(1, {(0,): 1.0}, (0,)), (0.5,), 1e-12)
        for z in (0.1, 0.4 * cmath.exp(0.7j)):
            assert func.eval_many([(z,)])[0] == pytest.approx(1 - cmath.exp(-0.5 / z), rel=1e-10)

    def test_zero_series(self):
        func = brg_function(MultiIndexSeries(1, {}, (5,)), (0.5,), 1e-10)
        assert func.eval_many([(0.2,)])[0] == 0

    def test_two_axes_product(self):
        func = brg_function(MultiIndexSeries(2, {(0, 0): 1.0}, (0, 0)), (0.4, 0.4), 1e-10)
        z = (0.15, 0.25)
        want = (1 - math.exp(-0.4 / 0.15)) * (1 - math.exp(-0.4 / 0.25))
        assert func.eval_many([z])[0] == pytest.approx(want, rel=1e-8)

    def test_outside_borel_disc(self):
        with pytest.raises(DomainError):
            brg_function(euler_series(), (1.1,), 1e-10)

    def test_tail_guard(self):
        with pytest.raises(TailError):
            brg_function(euler_series(), (0.95,), 1e-10)

    @pytest.mark.parametrize("degree", [10, 20, 30, 45])
    def test_tail_bound_margins(self, degree):
        # euler's Borel sum is 1/(1+t); the degree-d series drops (-t)^(d+1)/(1+t), whose
        # largest modulus on the path [0, z0] is z0^(d+1)/(1+z0).  Measured on these
        # points: the bound is 3.000x that tail at every degree, and 83x to 2,392x the
        # true error of the function (30-digit mpmath); pinned to [2.5, 4] and [40, 5,000]
        z0, pts = 0.5, [0.1, 0.3, 0.5 + 0.2j, 0.8 - 0.3j, 1.2]
        ser = euler_series(degree)
        bound = _borel_tail_bound(ser, borel_disc_types(ser, (z0,)), [z0])
        with mpmath.workdps(30):
            tail = mpmath.mpf(z0) ** (degree + 1) / (1 + mpmath.mpf(z0))
            assert 2.5 <= bound / tail <= 4.0
            values = brg_function(ser, (z0,), tol=bound).eval_many(np.asarray(pts, dtype=complex)[:, None])
            for z, value in zip(pts, values.tolist()):
                z = mpmath.mpc(z)
                true = mpmath.quad(lambda t: mpmath.exp(-t / z) / (1 + t), [0, z0]) / z
                assert 40 <= bound / abs(mpmath.mpc(value) - true) <= 5000

    def test_remainder_decay_bound(self):
        # |F - App_N| <= C_hat N! (|z|/R(theta))^N with a single fitted C_hat
        from polygevrey import family_from_series, remainder_constants

        func = brg_function(euler_series(), (0.5,), 1e-12)
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
        with pytest.raises(DomainError, match="integration endpoints must be nonzero"):
            brg_function(euler_series(), (0.0,))
        with pytest.raises(DomainError, match="tolerance must be positive"):
            brg_function(euler_series(), (0.5,), tol=-1)


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
