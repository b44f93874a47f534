import math

import mpmath
import numpy as np
import pytest

from polygevrey import (
    DomainError,
    GeometryError,
    TypeProfile,
    circle_type,
    final_type,
    fz_type,
    g_of_delta,
    gamma_constant,
    r_tilde,
    sine_type,
)
from polygevrey.typecalc import scan_max

PI = math.pi


def g_dense(delta, m=400001):
    """Brute-force oracle: dense c-grid maximum."""
    c = np.linspace(1e-9, 1 - 1e-9, m)
    vals = c * (np.sqrt(1 - c * c * delta * delta) - c * np.sqrt(1 - delta * delta)) / (1 + c * delta)
    return float(vals.max())


def g_mpmath(delta):
    """Independent oracle: 30-digit maximisation, a stationary point of the objective."""
    with mpmath.workdps(30):
        d = mpmath.mpf(delta)

        def obj(c):
            return c * (mpmath.sqrt(1 - c**2 * d**2) - c * mpmath.sqrt(1 - d**2)) / (1 + c * d)

        grid = [mpmath.mpf(k) / 200 for k in range(1, 200)]
        k = max(range(len(grid)), key=lambda i: obj(grid[i]))
        c = mpmath.findroot(lambda c: mpmath.diff(obj, c), (grid[k - 1], grid[k + 1]), solver="anderson")
        return float(obj(c))


class TestG:
    def test_gamma_value(self):
        assert abs(g_of_delta(1.0) - 0.30028) < 1e-4
        assert gamma_constant() == g_of_delta(1.0)
        assert gamma_constant() == pytest.approx(g_mpmath(1.0), rel=1e-12, abs=0)

    @pytest.mark.parametrize("delta", [1e-3, 0.1, 0.5, 0.9, 1.0])
    def test_against_mpmath(self, delta):
        assert g_of_delta(delta) == pytest.approx(g_mpmath(delta), rel=1e-12, abs=0)

    def test_against_dense_grid(self):
        for delta in (0.05, 0.3, 0.5, 0.77, 1.0):
            assert g_of_delta(delta) == pytest.approx(g_dense(delta), abs=5e-9)

    def test_bracket(self):
        for k in range(1, 41):
            d = k / 40
            g = g_of_delta(d)
            assert 1 / 4.7 - 1e-9 <= g <= 0.5 + 1e-9

    def test_c_half_lower_bound(self):
        for k in range(1, 41):
            d = k / 40
            lower = (2 * math.sqrt(1 - d * d / 4) - math.sqrt(1 - d * d)) / (4 + 2 * d)
            assert g_of_delta(d) >= lower - 1e-9

    def test_small_delta_limit(self):
        # objective degenerates to c(1-c) with max 1/4
        assert g_of_delta(1e-6) == pytest.approx(0.25, abs=1e-5)

    def test_domain(self):
        with pytest.raises(DomainError):
            g_of_delta(0.0)
        with pytest.raises(DomainError):
            g_of_delta(1.2)


class TestScanMax:
    def test_bracket_below_xtol_is_not_refined(self):
        # the best sample's neighbours lie 0.2 apart, inside xtol = 0.5: the n samples and
        # the two golden-section points are all the calls, and the best of them is returned
        calls = []

        def fn(x):
            calls.append(x)
            return -(x - 0.37) ** 2

        best = scan_max(fn, 0.0, 1.0, 11, 0.5)
        assert len(calls) == 11 + 2
        assert best == max(-(x - 0.37) ** 2 for x in calls)


class TestRTilde:
    def test_aligned_direction(self):
        value, lower, upper = r_tilde(1.0, 0.3, 0.3)
        assert value == pytest.approx(g_of_delta(1.0))
        assert lower == pytest.approx(1 / 4.7)
        assert upper == pytest.approx(0.5)
        assert lower <= value <= upper

    def test_sixty_degrees(self):
        value, lower, upper = r_tilde(2.0, PI / 3, 0.0)
        # delta = 1/2; oracle via the dense grid
        assert value == pytest.approx(2.0 * 0.25 * g_dense(0.5), abs=1e-7)
        assert lower == pytest.approx(2.0 / 18.8)
        assert upper == pytest.approx(2.0 / 8)
        assert lower <= value <= upper

    def test_vanishes_toward_half_plane_edge(self):
        value, _, _ = r_tilde(1.0, PI / 2 - 1e-4, 0.0)
        assert value < 1e-7

    def test_domain(self):
        with pytest.raises(DomainError):
            r_tilde(1.0, PI / 2, 0.0)
        with pytest.raises(DomainError):
            r_tilde(-1.0, 0.0, 0.0)


class TestFZ:
    def test_plateau(self):
        # wide sector: plateau [alpha', beta'] strictly between the edges
        a, b, t0 = -1.4, 1.4, 0.1
        ap, bp = min(t0, a + PI / 2), max(t0, b - PI / 2)
        for theta in np.linspace(ap, bp, 7):
            assert fz_type(theta, a, b, t0, 2.0) == pytest.approx(2.0)

    def test_quoted_example(self):
        val = fz_type(PI / 8, -PI / 4, PI / 4, 0.0, 1.0)
        assert val == pytest.approx(math.sin(PI / 8) / math.sin(PI / 4), abs=1e-12)
        assert val == pytest.approx(0.5412, abs=1e-4)

    def test_symmetry(self):
        for theta in (0.05, 0.3, 0.6):
            left = fz_type(-theta, -0.7, 0.7, 0.0, 1.0)
            right = fz_type(theta, -0.7, 0.7, 0.0, 1.0)
            assert left == pytest.approx(right, abs=1e-13)

    def test_edges_vanish(self):
        assert fz_type(-PI / 4, -PI / 4, PI / 4, 0.0, 1.0) == 0.0
        assert fz_type(PI / 4, -PI / 4, PI / 4, 0.0, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_continuity_at_plateau_edges(self):
        a, b, t0, r0 = -1.4, 1.4, 0.1, 1.0
        ap = min(t0, a + PI / 2)
        eps = 1e-9
        assert fz_type(ap - eps, a, b, t0, r0) == pytest.approx(r0, abs=1e-8)
        assert fz_type(ap + eps, a, b, t0, r0) == pytest.approx(r0, abs=1e-8)

    def test_domain(self):
        with pytest.raises(DomainError):
            fz_type(0.0, -1.0, 1.0, 2.0, 1.0)
        with pytest.raises(DomainError):
            fz_type(1.5, -1.0, 1.0, 0.0, 1.0)
        with pytest.raises(DomainError, match="not interior to"):
            fz_type(0.0, -1.0, 1.0, -1.0, 1.0)
        with pytest.raises(DomainError, match="outside"):
            fz_type(-1.5, -1.0, 1.0, 0.0, 1.0)
        with pytest.raises(DomainError, match="r0 must be nonnegative"):
            fz_type(0.0, -1.0, 1.0, 0.0, -1.0)


class TestSine:
    def test_at_theta0(self):
        assert sine_type(0.3, 0.0, PI / 2, 0.3, 2.5) == pytest.approx(2.5)

    def test_edges(self):
        assert sine_type(0.0, 0.0, PI / 2, 0.3, 2.5) == pytest.approx(0.0, abs=1e-15)
        assert sine_type(PI / 2, 0.0, PI / 2, 0.3, 2.5) == pytest.approx(0.0, abs=1e-15)

    def test_quoted_example(self):
        val = sine_type(PI / 3, 0.0, PI / 2, PI / 4, 1.0)
        assert val == pytest.approx(math.sin(PI / 6) / math.sin(PI / 4), abs=1e-12)
        assert val == pytest.approx(0.7071, abs=1e-4)

    def test_matches_tangent_circle(self):
        # the sine law on [theta0, beta] is the circle through 0 and R e^{i theta0}
        # tangent at 0 to the beta edge
        a, b, t0, r = 0.0, PI / 2, PI / 4, 1.3
        for theta in np.linspace(t0, b, 9):
            circ = circle_type(r, 0.0, t0, b, theta)
            assert sine_type(theta, a, b, t0, r) == pytest.approx(circ, abs=1e-12)

    def test_opening_validation(self):
        with pytest.raises(DomainError):
            sine_type(0.0, -2.0, 2.0, 0.0, 1.0)

    @pytest.mark.parametrize(
        "theta, theta0, r, message",
        [(0.0, 1.0, 1.0, "not interior to"), (1.0, 0.0, 1.0, "outside"), (0.0, 0.0, -1.0, "r must be nonnegative"),
         (0.0, -0.5, 1.0, "not interior to"), (-1.0, 0.0, 1.0, "outside")],
        ids=["theta0-outside", "theta-outside", "r-negative", "theta0-at-alpha", "theta-below-alpha"],
    )
    def test_domain(self, theta, theta0, r, message):
        with pytest.raises(DomainError, match=message):
            sine_type(theta, -0.5, 0.5, theta0, r)


class TestCircle:
    def test_right_angle_unit(self):
        assert circle_type(1.0, 1.0, 0.0, PI / 2, PI / 4) == pytest.approx(math.sqrt(2), abs=1e-12)

    def test_boundary_consistency(self):
        for ra, rb, a, b in [(1.0, 1.0, 0.0, PI / 2), (0.3, 2.0, -0.4, 1.1), (2.0, 0.0, 0.0, 1.0)]:
            assert circle_type(ra, rb, a, b, a) == pytest.approx(ra, abs=1e-12)
            assert circle_type(ra, rb, a, b, b) == pytest.approx(rb, abs=1e-12)

    def test_zero_case(self):
        assert circle_type(0.0, 0.0, 0.0, 1.0, 0.5) == 0.0

    def test_points_on_solved_circle(self):
        # independent residual check: the three defining points satisfy
        # |z - w| = |w| for the chord formula's implied center
        ra, rb, a, b = 0.7, 1.9, -0.3, 0.9
        thetas = np.linspace(a, b, 11)
        vals = [circle_type(ra, rb, a, b, t) for t in thetas]
        # recover the center from two chords: t(theta) = 2(wx cos + wy sin)
        m = np.array([[math.cos(a), math.sin(a)], [math.cos(b), math.sin(b)]])
        w = np.linalg.solve(m, [ra / 2, rb / 2])
        for t, v in zip(thetas, vals):
            z = v * complex(math.cos(t), math.sin(t))
            assert abs(abs(z - complex(w[0], w[1])) - math.hypot(*w)) < 1e-12

    def test_tangent_case_formula(self):
        # one vanishing edge: closed form R_a sin(b-theta)/sin(b-a), and R_b sin(theta-a)/sin(b-a)
        r, a, b = 1.5, 0.0, 1.2
        for t in np.linspace(a, b, 7):
            assert circle_type(r, 0.0, a, b, t) == pytest.approx(
                r * math.sin(b - t) / math.sin(b - a), abs=1e-13
            )
            assert circle_type(0.0, r, a, b, t) == pytest.approx(
                r * math.sin(t - a) / math.sin(b - a), abs=1e-13
            )

    def test_opening_validation(self):
        with pytest.raises(DomainError):
            circle_type(1.0, 1.0, 0.0, PI, PI / 2)

    def test_domain(self):
        with pytest.raises(DomainError, match="outside"):
            circle_type(1.0, 1.0, 0.0, 1.0, 1.5)
        with pytest.raises(DomainError, match="outside"):
            circle_type(1.0, 1.0, 0.0, 1.0, -0.5)
        with pytest.raises(DomainError, match="edge radii must be nonnegative"):
            circle_type(-1.0, 1.0, 0.0, 1.0, 0.5)
        with pytest.raises(DomainError, match="edge radii must be nonnegative"):
            circle_type(1.0, -1.0, 0.0, 1.0, 0.5)
        # a zero opening puts both edge points on one ray through the vertex
        with pytest.raises(GeometryError, match="degenerate circumcircle"):
            circle_type(1.0, 1.0, 0.5, 0.5, 0.5)


class TestFinalType:
    def setup_method(self):
        self.alpha, self.beta, self.theta0 = -0.6, 0.8, 0.1
        self.prof = TypeProfile.constant(self.alpha, self.beta, 2.0)

    def test_at_theta0(self):
        (val,) = final_type((self.theta0,), (self.theta0,), (1.5,), (self.prof,))
        gamma = gamma_constant()
        assert val == pytest.approx(min(1.5, 2.0 * gamma, 2.0))

    def test_vanishes_at_edge(self):
        (val,) = final_type((self.alpha,), (self.theta0,), (1.5,), (self.prof,))
        assert val == pytest.approx(0.0, abs=1e-15)

    def test_even_symmetry(self):
        prof = TypeProfile.constant(-0.7, 0.7, 1.0)
        for t in (0.1, 0.3, 0.55):
            (left,) = final_type((-t,), (0.0,), (0.8,), (prof,))
            (right,) = final_type((t,), (0.0,), (0.8,), (prof,))
            assert left == pytest.approx(right, rel=1e-9)

    def test_dominated_by_profile_and_r0(self):
        gamma = gamma_constant()
        for t in np.linspace(self.alpha + 1e-6, self.beta - 1e-6, 21):
            (val,) = final_type((t,), (self.theta0,), (1.5,), (self.prof,))
            assert val <= 2.0 + 1e-12
        (at0,) = final_type((self.theta0,), (self.theta0,), (1.5,), (self.prof,))
        assert at0 <= 1.5 + 1e-12
        assert at0 <= 2.0 * gamma + 1e-12

    def test_one_sup_per_profile(self):
        # a many-angle sweep with one profile evaluates the profile for its sup
        # once, then at theta0 and at theta for each angle
        seen = []

        def fn(t):
            seen.append(t)
            return 1.0 + 0.2 * math.cos(t - 0.1)

        sup = TypeProfile(self.alpha, self.beta, fn).sup
        one_sup = len(seen)
        seen.clear()
        prof = TypeProfile(self.alpha, self.beta, fn)
        thetas = np.linspace(self.alpha + 1e-6, self.beta - 1e-6, 181)
        sweep = [final_type((float(t),), (self.theta0,), (1.5,), (prof,))[0] for t in thetas]
        assert len(seen) == one_sup + 2 * len(thetas)
        assert prof.sup == sup
        fresh = [
            final_type((float(t),), (self.theta0,), (1.5,), (TypeProfile(self.alpha, self.beta, fn),))[0]
            for t in thetas[::30]
        ]
        assert sweep[::30] == fresh

    def test_hypothesis_validation(self):
        wide = TypeProfile.constant(-2.0, 2.0, 1.0)
        with pytest.raises(DomainError):
            final_type((0.0,), (0.0,), (1.0,), (wide,))
        with pytest.raises(DomainError, match="r0 must be positive"):
            final_type((self.theta0,), (self.theta0,), (0.0,), (self.prof,))
        with pytest.raises(DomainError, match="per-axis argument lengths disagree"):
            final_type((self.theta0,), (self.theta0, self.theta0), (1.5,), (self.prof,))
        with pytest.raises(DomainError, match="per-axis argument lengths disagree"):
            final_type((self.theta0,), (self.theta0,), (1.5,), (self.prof, self.prof))
        with pytest.raises(DomainError, match="per-axis argument lengths disagree"):
            final_type((self.theta0, self.theta0), (self.theta0,), (1.5,), (self.prof,))
        # theta0 at or past either edge of the profile's sector
        for theta0 in (self.alpha - 0.1, self.beta + 0.1):
            with pytest.raises(DomainError, match="need theta0-pi/2 < alpha < theta0 < beta"):
                final_type((0.0,), (theta0,), (1.5,), (self.prof,))


class TestTypeProfile:
    def test_sup(self):
        prof = TypeProfile(-1.0, 1.0, lambda t: math.cos(t))
        assert prof.sup == pytest.approx(1.0, abs=1e-9)

    def test_constant_must_be_positive(self):
        with pytest.raises(DomainError, match="constant profile must be positive"):
            TypeProfile.constant(-1.0, 1.0, 0.0)


class TestContinuityProperties:
    def test_g_sampled_continuity(self):
        # g has a square-root cusp at delta = 1, so a fixed jump bound is the
        # wrong test; continuity shows as increments shrinking under grid
        # refinement (Hoelder-1/2 halves them per 4x refinement)
        def max_jump(n):
            deltas = np.linspace(0.01, 1.0, n)
            vals = [g_of_delta(float(d)) for d in deltas]
            return float(np.max(np.abs(np.diff(vals))))

        coarse, fine = max_jump(200), max_jump(800)
        assert fine < coarse / 1.7
        # away from the cusp the increments are plainly small
        deltas = np.linspace(0.01, 0.95, 400)
        vals = [g_of_delta(float(d)) for d in deltas]
        assert float(np.max(np.abs(np.diff(vals)))) < 1e-3

    def test_sine_sampled_continuity(self):
        a, b, t0, r = 0.0, PI / 2, PI / 4, 1.0
        grid = np.linspace(a, b, 2000)
        vals = [sine_type(float(t), a, b, t0, r) for t in grid]
        assert float(np.max(np.abs(np.diff(vals)))) < 2e-3
        assert sine_type(t0, a, b, t0, r) == pytest.approx(r)
