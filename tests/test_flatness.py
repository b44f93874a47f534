import cmath
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polygevrey import (
    DimensionMismatchError,
    DomainError,
    GeometryError,
    Polysector,
    SampledFunction,
    Sector,
    distinguished_boundary_points,
    fit_flat_type,
    gevrey_envelope_log,
    h_aux,
    null_expansion_check,
    pl_check,
    wedge_bound,
)
from polygevrey.flatness_bounds import PL_SAMPLES

PI = math.pi


def grid_samples(fn, radii1, radii2=None):
    if radii2 is None:
        return [((r,), abs(fn(r))) for r in radii1]
    return [((r1, r2), abs(fn(r1, r2))) for r1 in radii1 for r2 in radii2]


class TestFitFlatType:
    def test_exact_one_axis(self):
        radii = [0.5 * 0.7**k for k in range(12)]
        fit = fit_flat_type(grid_samples(lambda r: math.exp(-2.0 / r), radii))
        assert fit.rates[0] == pytest.approx(2.0, rel=1e-12)
        assert fit.residual < 1e-12

    def test_exact_two_axes(self):
        r1 = [0.4 * 0.75**k for k in range(7)]
        r2 = [0.3 * 0.8**k for k in range(7)]
        fit = fit_flat_type(
            grid_samples(lambda a, b: math.exp(-1.0 / a - 3.0 / b), r1, r2)
        )
        assert fit.rates[0] == pytest.approx(1.0, rel=1e-11)
        assert fit.rates[1] == pytest.approx(3.0, rel=1e-11)

    def test_recovery_to_1e10(self):
        radii = [1.0 * 0.6**k for k in range(10)]
        for rate in (0.25, 5.0):
            fit = fit_flat_type(
                grid_samples(lambda r, _R=rate: 3.0 * math.exp(-_R / r), radii)
            )
            assert abs(fit.rates[0] - rate) / rate < 1e-10

    def test_bounded_not_decaying(self):
        radii = [0.5 * 0.7**k for k in range(8)]
        fit = fit_flat_type(grid_samples(lambda r: 0.7, radii))
        assert fit.rates == (0.0,)

    def test_zero_samples_excluded(self):
        radii = [0.5, 0.4, 0.3, 0.2, 0.1]
        samples = grid_samples(lambda r: math.exp(-1.0 / r), radii)
        samples.append(((0.05,), 0.0))
        fit = fit_flat_type(samples)
        assert fit == fit_flat_type(samples[:-1])
        assert fit.rates[0] == pytest.approx(1.0, rel=1e-10)

    def test_too_few(self):
        with pytest.raises(DomainError):
            fit_flat_type([((0.5,), 1.0)])

    def test_sample_validation(self):
        with pytest.raises(DomainError, match="inconsistent sample dimensions"):
            fit_flat_type([((0.5,), 1.0), ((0.5, 0.4), 1.0)])
        with pytest.raises(DomainError, match="radii must be positive"):
            fit_flat_type([((0.5,), 1.0), ((0.0,), 1.0)])


class TestGevreyEnvelope:
    def test_quoted_minimum(self):
        # min over N of N! 10^{-N}; brute force over N <= 100 agrees
        got = math.exp(gevrey_envelope_log(1.0, 1.0, 0.1))
        brute = min(math.factorial(n) * 0.1**n for n in range(101))
        assert got == pytest.approx(brute, rel=1e-12)
        assert got == pytest.approx(3.6288e-4, rel=1e-4)

    def test_large_radius_constant(self):
        assert math.exp(gevrey_envelope_log(2.5, 1.0, 50.0)) == pytest.approx(2.5)

    def test_stirling_cross_check(self):
        # e * sqrt(2 pi / (A r)) * e^{-1/(A r)} tracks the discrete minimum
        r, a = 1e-3, 1.0
        got = math.exp(gevrey_envelope_log(1.0, a, r))
        stirling = math.e * math.sqrt(2 * PI / (a * r)) * math.exp(-1.0 / (a * r))
        assert got == pytest.approx(stirling, rel=0.01)

    def test_nonincreasing_in_r(self):
        vals = [math.exp(gevrey_envelope_log(1.0, 1.0, r)) for r in (0.5, 0.2, 0.1, 0.05, 0.01)]
        assert all(b <= a * (1 + 1e-12) for a, b in zip(vals, vals[1:]))

    def test_exponential_law(self):
        for r in (1e-2, 1e-3, 1e-4):
            val = gevrey_envelope_log(1.0, 1.0, r) * r
            assert abs(val - (-1.0)) < 0.1

    def test_log_matches_exp_form(self):
        # min over N of 3 * 2^N N! 20^{-N} = 3 N! / 10^N, in exact integers
        exact = min(Fraction(3 * math.factorial(n), 10**n) for n in range(101))
        assert gevrey_envelope_log(3.0, 2.0, 0.05) == pytest.approx(math.log(exact), rel=1e-14)

    @pytest.mark.parametrize("c, a, r", [(1.0, 1.0, 0.1), (3.0, 2.0, 0.05), (0.7, 0.3, 0.9), (5.0, 1.5, 1e-3)])
    def test_matches_plain_lgamma_min(self, c, a, r):
        # bit for bit the minimum over N <= ceil(2/(A r)) + 10 of log C + N log(A r) + lgamma(N + 1)
        n_cap = math.ceil(2.0 / (a * r)) + 10
        step = math.log(a) + math.log(r)
        plain = min(math.log(c) + n * step + math.lgamma(n + 1.0) for n in range(n_cap + 1))
        assert gevrey_envelope_log(c, a, r) == plain

    def test_validation(self):
        with pytest.raises(DomainError):
            gevrey_envelope_log(0.0, 1.0, 0.1)


class TestHAux:
    def test_modulus_identity_quoted(self):
        z = 3.0 * cmath.exp(1j * PI / 4)
        h = h_aux(z, 0.0, PI / 2, 1.0, 2.0)
        assert abs(cmath.exp(h)) == pytest.approx(math.sqrt(2.0 / 3.0), rel=1e-12)

    def test_beta_edge(self):
        z = 0.7 * cmath.exp(1j * 1.1)
        h = h_aux(z, 0.3, 1.1, 2.0, 5.0)
        assert abs(cmath.exp(h)) == pytest.approx(1.0, rel=1e-12)

    def test_alpha_edge(self):
        z = 0.7 * cmath.exp(1j * 0.3)
        h = h_aux(z, 0.3, 1.1, 2.0, 5.0)
        assert abs(cmath.exp(h)) == pytest.approx(5.0 / 0.7**2, rel=1e-12)

    @given(
        st.floats(0.05, 4.0),
        st.floats(-2.0, 2.0),
        st.floats(0.1, 2.5),
        st.floats(0.2, 3.0),
        st.floats(0.1, 10.0),
        st.floats(0.0, 1.0),
    )
    @settings(max_examples=200)
    def test_modulus_identity_random(self, r, alpha, width, lam, c, frac):
        beta = alpha + width
        theta = alpha + frac * width
        z = r * cmath.exp(1j * theta)
        h = h_aux(z, alpha, beta, lam, c)
        want = (c / r**lam) ** ((beta - theta) / (beta - alpha))
        assert abs(cmath.exp(h)) == pytest.approx(want, rel=1e-11)

    def test_vertex_rejected(self):
        with pytest.raises(DomainError):
            h_aux(0.0, 0.0, 1.0, 1.0, 1.0)

    @pytest.mark.parametrize("alpha, beta, lam, c", [(1.0, 1.0, 1.0, 1.0), (0.0, 1.0, 0.0, 1.0), (0.0, 1.0, 1.0, 0.0)],
                             ids=["empty-wedge", "lambda-0", "C-0"])
    def test_parameters_rejected(self, alpha, beta, lam, c):
        with pytest.raises(DomainError, match="need alpha < beta, lambda > 0, C > 0"):
            h_aux(0.5, alpha, beta, lam, c)


class TestWedgeBound:
    def test_alpha_edges(self):
        val = wedge_bound(
            (0.5 * cmath.exp(-0.4j), 0.25 * cmath.exp(-0.1j)),
            (-0.4, -0.1),
            (0.4, 0.1),
            (1.0, 2.0),
            2.0,
            0.25,
        )
        base = 2.0 * 0.5 * 0.25**2
        assert val == pytest.approx(base ** ((0.75) ** 2), rel=1e-12)

    def test_beta_edge_gives_one(self):
        val = wedge_bound((0.5 * cmath.exp(0.4j),), (-0.4,), (0.4,), (1.0,), 2.0, 0.25)
        assert val == pytest.approx(1.0)

    def test_quoted_midpoint(self):
        val = wedge_bound((0.5,), (-PI / 8,), (PI / 8,), (2.0,), 1.0, 0.5)
        assert val == pytest.approx(0.25**0.25, rel=1e-12)
        assert val == pytest.approx(0.7071, abs=1e-4)

    def test_eps_to_zero_matches_mu(self):
        z = (0.5 * cmath.exp(0.1j),)
        a, b, lam, c = -PI / 8, PI / 8, 2.0, 1.0
        mu = (b - 0.1) / (b - a)
        val = wedge_bound(z, (a,), (b,), (lam,), c, 1e-12)
        assert val == pytest.approx((c * 0.5**lam) ** mu, rel=1e-9)

    def test_outside_wedge(self):
        with pytest.raises(DomainError):
            wedge_bound((0.5 * cmath.exp(1.0j),), (-0.4,), (0.4,), (1.0,), 1.0, 0.5)

    @pytest.mark.parametrize(
        "z, alphas, c, eps, message",
        [
            ((0.5,), (-0.4,), 1.0, 1.0, "eps must lie in"),
            ((0.5,), (-0.4,), 0.0, 0.5, "C must be positive"),
            ((0.5,), (-0.4, -0.4), 1.0, 0.5, "per-axis argument lengths disagree"),
            ((0.0,), (-0.4,), 1.0, 0.5, "undefined at the vertex"),
        ],
        ids=["eps-1", "C-0", "lengths", "vertex"],
    )
    def test_arguments_rejected(self, z, alphas, c, eps, message):
        with pytest.raises(DomainError, match=message):
            wedge_bound(z, alphas, (0.4,), (1.0,), c, eps)

    @pytest.mark.parametrize("alpha, beta", [(0.4, 0.4), (0.5, 0.3)])
    def test_empty_wedge_rejected(self, alpha, beta):
        # an axis with alpha >= beta is not a sector, even for z on its edge
        with pytest.raises(GeometryError, match="sector needs alpha < beta"):
            wedge_bound((0.5 * cmath.exp(0.4j),), (alpha,), (beta,), (1.0,), 1.0, 0.5)


class TestPLCheck:
    def test_polynomial_no_violations(self):
        host = Polysector([Sector(-PI / 4, PI / 4, 1.0)] * 2)
        f = SampledFunction(host, lambda p: p[:, 0] * p[:, 1])
        rep = pl_check(f, host)
        assert rep.ok()
        assert rep.interior_max <= rep.boundary_max + rep.tolerance

    def test_growth_violation_flagged(self):
        # e^{1/z^2} has modulus 1 on both edges and at most e on the arc, but
        # grows like e^{1/r^2} on the bisector: order-2 growth in a sector of
        # opening pi/2 breaks the principle
        host = Polysector([Sector(-PI / 4, PI / 4, 1.0)])
        f = SampledFunction(host, lambda p: np.exp(1.0 / p[:, 0] ** 2))
        rep = pl_check(f, host)
        assert not rep.ok()
        assert rep.interior_max > rep.boundary_max

    def test_constant(self):
        host = Polysector([Sector(0.0, 1.0, 2.0)])
        f = SampledFunction(host, lambda p: np.full(len(p), 3.0 + 0j))
        rep = pl_check(f, host)
        assert rep.boundary_max == pytest.approx(3.0)
        assert rep.interior_max == pytest.approx(3.0)
        assert rep.ok()

    def test_several_polynomials(self):
        host = Polysector([Sector(-0.7, 0.4, 1.0), Sector(0.0, 1.0, 0.8)])
        rng = np.random.default_rng(3)
        for _ in range(4):
            c = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            f = SampledFunction(
                host,
                lambda p, c=c: c[0] + c[1] * p[:, 0] + c[2] * p[:, 1] + c[3] * p[:, 0] * p[:, 1] ** 2,
            )
            assert pl_check(f, host).ok()

    def test_eval_failures_counted(self):
        host = Polysector([Sector(-0.5, 0.5, 1.0)])

        def fragile(p):
            if np.any(np.real(p) > 0.95):
                raise FloatingPointError("synthetic failure")
            return np.ones(len(p), dtype=complex)

        f = SampledFunction(host, fragile)
        rep = pl_check(f, host)
        assert rep.eval_failures > 0

    def test_one_call_per_grid(self):
        host = Polysector([Sector(-PI / 4, PI / 4, 1.0)] * 2)
        rows = []

        def counted(p):
            rows.append(len(p))
            return p[:, 0] * p[:, 1]

        assert pl_check(SampledFunction(host, counted), host).ok()
        # the boundary grid (6 edge points per edge, 6 on the arc: 18 per axis), then the interior (3 x 3 per axis)
        assert rows == [18 * 18, 9 * 9]

    def test_bad_row_matches_pointwise_reference(self):
        # one interior point raises: the interior is evaluated again one point at
        # a time, and the report is the one a pointwise evaluation gives
        # (e^{1/z^2}, as in test_growth_violation_flagged, so some interior points violate)
        host = Polysector([Sector(-PI / 4, PI / 4, 1.0)])
        batches = []

        def partial(p):
            batches.append(p.copy())
            if np.any((np.abs(np.abs(p[:, 0]) - 0.495) < 0.01) & (np.abs(np.angle(p[:, 0]) - PI / 8) < 0.05)):
                raise DomainError("one interior point outside the domain")
            return np.exp(1.0 / p[:, 0] ** 2)

        f = SampledFunction(host, partial)
        rep = pl_check(f, host)
        boundary, interior = batches[0], batches[1]
        assert len(batches) == 2 + len(interior)

        def pointwise(points):
            vals, failures = [], 0
            for pt in points:
                try:
                    vals.append((tuple(pt), float(np.abs(f.eval_many([pt]))[0])))
                except DomainError:
                    failures += 1
            return vals, failures

        bvals, bfail = pointwise(boundary)
        ivals, ifail = pointwise(interior)
        assert (bfail, ifail) == (0, 1)
        assert rep.eval_failures == 1
        assert rep.boundary_max == max(v for _, v in bvals)
        assert rep.interior_max == max(v for _, v in ivals)
        want = sorted(((pt, v) for pt, v in ivals if v > rep.boundary_max + rep.tolerance), key=lambda t: -t[1])
        assert want and rep.violations == tuple(want)
        assert [tuple(pt) for pt in boundary] == distinguished_boundary_points(host, PL_SAMPLES)

    def test_callback_bug_propagates(self):
        # a bug in a callback is not a sampling gap
        host = Polysector([Sector(-0.5, 0.5, 1.0)])

        def broken(p):
            raise RuntimeError("bug in the callback")

        with pytest.raises(RuntimeError, match="bug in the callback"):
            pl_check(SampledFunction(host, broken), host)

    def test_domain_error_counted(self):
        host = Polysector([Sector(-0.5, 0.5, 1.0)])

        def partial(p):
            if np.any(np.imag(p) > 0):
                raise DomainError("upper half outside the domain")
            return np.ones(len(p), dtype=complex)

        rep = pl_check(SampledFunction(host, partial), host)
        assert rep.eval_failures > 0

    def test_unbounded_sector_rejected(self):
        # the maximum-principle step samples the arc |z| = rho, so every sector must be bounded
        host = Polysector([Sector(-0.5, 0.5, 1.0), Sector(-0.5, 0.5, math.inf)])
        f = SampledFunction(host, lambda p: p[:, 0] * p[:, 1])
        with pytest.raises(GeometryError, match="needs a bounded sector"):
            pl_check(f, host)

    def test_no_boundary_value(self):
        # a function that raises DomainError at every boundary point leaves nothing to compare with
        host = Polysector([Sector(-0.5, 0.5, 1.0)])

        def nowhere(p):
            raise DomainError("outside the domain")

        with pytest.raises(DomainError, match="no boundary samples could be evaluated"):
            pl_check(SampledFunction(host, nowhere), host)

    def test_dimension_mismatch(self):
        host = Polysector([Sector(-0.5, 0.5, 1.0)] * 2)
        f = SampledFunction(host, lambda p: p[:, 0] * p[:, 1])
        with pytest.raises(DimensionMismatchError, match="1 axes.*has 2"):
            pl_check(f, Polysector([Sector(-0.5, 0.5, 1.0)]))

    def test_attestation_recorded(self, tmp_path, monkeypatch):
        # verify pl copies the config's growth_attestation into pl.json
        from polygevrey import testbed
        from polygevrey.cli import EXIT_OK, main
        from polygevrey.testbed import RegistryEntry

        host = Polysector([Sector(-0.5, 0.5, 1.0)])
        f = SampledFunction(host, lambda p: np.ones(len(p), dtype=complex))
        monkeypatch.setattr(testbed, "get", lambda entry_id: RegistryEntry(entry_id, 1, f, {}, {}))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "suite": "pl", "testbed": "ones", "growth_attestation": "bounded by 1, subexponential",
            "polysector": {"sectors": [{"alpha": -0.5, "beta": 0.5, "rho": 1.0}]},
        }))
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OK
        report = json.loads((tmp_path / "pl.json").read_text())["report"]
        assert report["growth_attestation"] == "bounded by 1, subexponential"


class TestNullExpansion:
    def test_flat_two_axes(self):
        dom = Polysector([Sector(-0.5, 0.5, math.inf)] * 2)
        f = SampledFunction(dom, lambda p: np.exp(-1.0 / p[:, 0] - 1.0 / p[:, 1]))
        radii = [1.0 * 0.8**k for k in range(20)]
        entries = null_expansion_check(
            f, (0.0, 0.0), [(n, n) for n in range(5)], [radii, radii]
        )
        assert all(e.decaying for e in entries)
        assert all(math.isfinite(e.c_sup) and e.c_sup > 0 for e in entries)

    def test_exact_power(self):
        dom = Polysector([Sector(-0.5, 0.5, 1.5)] * 2)
        f = SampledFunction(dom, lambda p: p[:, 0] ** 3)
        entries = null_expansion_check(
            f, (0.0, 0.0), [(2, 0)], [[1.0, 0.5, 0.25], [1.0, 0.5]]
        )
        assert entries[0].c_sup == pytest.approx(1.0)
        assert entries[0].decaying

    def test_decaying_is_a_bool(self):
        # z1^3 against |z|^2 decays toward the vertex, against |z|^4 grows
        dom = Polysector([Sector(-0.5, 0.5, 1.5)] * 2)
        f = SampledFunction(dom, lambda p: p[:, 0] ** 3)
        entries = null_expansion_check(f, (0.0, 0.0), [(2, 0), (4, 0)], [[1.0, 0.5, 0.25], [1.0]])
        assert [e.decaying for e in entries] == [True, False]
        assert all(type(e.decaying) is bool for e in entries)

    @pytest.mark.parametrize("frac, decaying", [(0.0, True), (0.2, True), (0.4, True), (0.6, False), (0.7, False)])
    def test_exp_minus_one_over_z_trap(self, frac, decaying):
        # e^{-1/z} on |arg z| < 3 pi/4 is flat along 0 but unbounded past pi/2: every N decays at
        # theta <= 0.4 pi and none does from 0.6 pi on, where |f| = e^{-cos(theta)/r} blows up
        dom = Polysector([Sector(-0.75 * PI, 0.75 * PI, math.inf)])
        f = SampledFunction(dom, lambda p: np.exp(-1.0 / p[:, 0]))
        radii = [0.5**k for k in range(1, 8)]
        entries = null_expansion_check(f, (frac * PI,), [(n,) for n in range(5)], [radii])
        assert [e.decaying for e in entries] == [decaying] * 5
        assert entries[0].c_sup == pytest.approx(max(math.exp(-math.cos(frac * PI) / r) for r in radii), rel=1e-12)

    def test_nondecay_flagged(self):
        dom = Polysector([Sector(-0.5, 0.5, 1.5)] * 2)
        f = SampledFunction(dom, lambda p: np.ones(len(p), dtype=complex))
        entries = null_expansion_check(
            f, (0.0, 0.0), [(1, 0)], [[1.0, 0.5, 0.25, 0.125], [1.0]]
        )
        assert not entries[0].decaying
        assert entries[0].c_sup == pytest.approx(8.0)
