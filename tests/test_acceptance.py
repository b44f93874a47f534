"""Acceptance gate: every criterion at its stated tolerance and budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Each test prints PASS only after its assertions hold; a failing
assertion leaves the FAIL line in the captured output.
"""

import cmath
import math
import time

import numpy as np
import pytest

import polygevrey as pg
from polygevrey import testbed
from polygevrey.families import ProbeSpec
from polygevrey.flatness_bounds import gevrey_envelope_log

PI = math.pi


def report(n, elapsed, budget, detail):
    print(f"[criterion {n:2d}] PASS in {elapsed:6.2f}s (budget {budget:.0f}s): {detail}")


def test_criterion_01_gamma_constant():
    pg.g_of_delta.cache_clear()
    t0 = time.perf_counter()
    gamma = pg.g_of_delta(1.0)
    elapsed = time.perf_counter() - t0
    assert abs(gamma - 0.30028) <= 1e-4
    assert elapsed < 1.0
    report(1, elapsed, 1, f"g(1) = {gamma:.6f} within 1e-4 of 0.30028")


def test_criterion_02_g_bracket():
    t0 = time.perf_counter()
    lo, hi = math.inf, -math.inf
    for k in range(1, 201):
        g = pg.g_of_delta(k / 200)
        lo, hi = min(lo, g), max(hi, g)
        assert 1 / 4.7 - 1e-9 <= g <= 0.5 + 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report(2, elapsed, 5, f"g in [{lo:.6f}, {hi:.6f}] subset [1/4.7, 1/2] on 200 deltas")


def test_criterion_03_h_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(12345)
    worst = worst_kernel = 0.0
    for _ in range(10_000):
        r = math.exp(rng.uniform(math.log(0.05), math.log(5.0)))
        alpha = rng.uniform(-3.0, 3.0)
        width = rng.uniform(0.1, 2.5)
        beta = alpha + width
        theta = rng.uniform(alpha, beta)
        lam = rng.uniform(0.1, 3.0)
        c = math.exp(rng.uniform(math.log(0.1), math.log(10.0)))
        z = r * cmath.exp(1j * theta)
        h = pg.h_aux(z, alpha, beta, lam, c)
        want = (c / r**lam) ** ((beta - theta) / width)
        rel = abs(abs(cmath.exp(h)) - want) / want
        worst = max(worst, rel)
        assert rel < 1e-12
        # the comparison function's reciprocal is the wedge bound (C -> 1/C, eps -> 0)
        kernel = pg.wedge_bound((z,), (alpha,), (beta,), (lam,), 1.0 / c, 1e-12)
        rel_kernel = abs(kernel - abs(cmath.exp(-h))) / kernel
        worst_kernel = max(worst_kernel, rel_kernel)
        assert rel_kernel < 1e-10
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report(
        3, elapsed, 5,
        f"modulus identity on 10^4 draws, worst rel err {worst:.2e}; wedge bound {worst_kernel:.2e}",
    )


def test_criterion_04_laplace_closed_forms():
    t0 = time.perf_counter()
    z0 = 1.0

    def closed(k, z):
        if k == 0:
            return 1 - cmath.exp(-z0 / z)
        if k == 1:
            return z - cmath.exp(-z0 / z) * (z0 + z)
        return 2 * z * z - cmath.exp(-z0 / z) * (z0 * z0 + 2 * z * z0 + 2 * z * z)

    radii = [0.05 * (3.0 / 0.05) ** (i / 9) for i in range(10)]
    angles = [-1.35 + 2.7 * j / 9 for j in range(10)]
    grid = [r * cmath.exp(1j * a) for r in radii for a in angles]
    assert len(grid) == 100
    worst = 0.0
    for k, phi in ((0, lambda t: np.ones_like(t)), (1, lambda t: t), (2, lambda t: t * t)):
        got = pg.transforms.truncated_laplace_with_error(phi, z0, np.asarray(grid), 1e-13)[0]
        for z, g in zip(grid, got):
            want = closed(k, z)
            rel = abs(g - want) / max(1e-30, abs(want))
            worst = max(worst, rel)
            assert rel < 1e-10
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(4, elapsed, 10, f"phi in {{1, t, t^2}} on 100-point grid, worst rel err {worst:.2e}")


def test_criterion_05_brg_type_law():
    t0 = time.perf_counter()
    entry = testbed.get("euler")
    fam = pg.family_from_series(entry.known["series"], (0.5,))
    radii = [0.5 * 0.82**k for k in range(22)]
    details = []
    for theta in (0.0, PI / 6, -PI / 6, PI / 3, -PI / 3):
        target = pg.brg_type(entry.known["z0"], (theta,))[0]
        cons = pg.remainder_constants(
            entry.fn, fam, (theta,), [radii], [(n,) for n in range(23)], noise_floor=1e-9
        )
        rates, _ = pg.fit_type_from_remainders(cons, window=(4, 16))
        rel = abs(rates[0] - target) / target
        details.append(rel)
        assert rel < 0.10
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(5, elapsed, 60, f"cosine law on 5 directions, worst rel err {max(details):.3f}")


def test_criterion_06_app_exactness():
    t0 = time.perf_counter()
    entry = testbed.get("poly")
    fam = entry.known["total_family"]
    rng = np.random.default_rng(99)
    zs = []
    for _ in range(100):
        r = 0.02 + 0.93 * rng.random(2)
        th = (-PI / 3 + 2 * PI / 3 * rng.random(2)) * 0.999
        zs.append(r * np.exp(1j * th))
    diff = np.abs(pg.app_n_many(fam, [(3, 4)], zs)[0] - entry.fn.eval_many(zs))
    worst = float(np.max(diff))
    assert worst < 1e-13
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report(6, elapsed, 5, f"polynomial App identity at 100 points, worst |diff| {worst:.2e}")


def test_criterion_07_series_family_coherence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20250808)
    r1, r2 = 1.3, 1.1
    coeffs = {}
    for h in range(7):
        for k in range(7):
            u = 0.6 + 0.8 * rng.random()
            coeffs[(h, k)] = u * math.factorial(h) * math.factorial(k) * r1 ** (-h) * r2 ** (-k)
    ser = pg.MultiIndexSeries(2, coeffs, (6, 6))
    assert all(t >= 1.0 for t in pg.fit_gevrey_type(ser))
    fam = pg.family_from_series(ser, (0.5, 0.45))
    rep = pg.check_coherence(fam, 1e-6, max_order=3)
    elapsed = time.perf_counter() - t0
    assert rep.checked_pairs > 0
    assert not rep.probe_failures
    assert rep.ok()
    assert rep.max_residual < 1e-6
    assert elapsed < 120.0
    report(
        7,
        elapsed,
        120,
        f"{rep.checked_pairs} derivative-limit checks, max residual {rep.max_residual:.2e}",
    )


def test_criterion_08_flat_fit_and_envelope():
    t0 = time.perf_counter()
    radii = [0.8 * 0.65**k for k in range(10)]
    fit = pg.fit_flat_type([((r,), math.exp(-2.0 / r)) for r in radii])
    assert abs(fit.rates[0] - 2.0) / 2.0 < 1e-10
    r2 = [0.5 * 0.7**k for k in range(7)]
    fit2 = pg.fit_flat_type(
        [((a, b), 2.0 * math.exp(-1.0 / a - 3.0 / b)) for a in r2 for b in radii[:7]]
    )
    assert abs(fit2.rates[0] - 1.0) < 1e-10
    assert abs(fit2.rates[1] - 3.0) < 3e-10
    law = gevrey_envelope_log(1.0, 1.0, 1e-4) * 1e-4
    assert abs(law - (-1.0)) < 0.1
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report(8, elapsed, 5, f"flat rates exact to 1e-10; envelope law log*r = {law:.4f}")


def test_criterion_09_circle_construction():
    t0 = time.perf_counter()
    val = pg.circle_type(1.0, 1.0, 0.0, PI / 2, PI / 4)
    assert abs(val - math.sqrt(2)) <= 1e-10
    for ra, rb, a, b in [(1.0, 1.0, 0.0, PI / 2), (0.4, 1.7, -0.8, 0.9), (2.0, 0.0, 0.1, 1.2)]:
        assert abs(pg.circle_type(ra, rb, a, b, a) - ra) <= 1e-12
        assert abs(pg.circle_type(ra, rb, a, b, b) - rb) <= 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(9, elapsed, 1, f"right-angle chord = {val:.12f}; edge values exact to 1e-12")


def test_criterion_10_fz_law():
    t0 = time.perf_counter()
    # narrow plateau
    a, b, t0_, r0 = -1.2, 1.0, -0.1, 1.0
    grid = np.linspace(a, b, 10_000)
    vals = np.asarray([pg.fz_type(t, a, b, t0_, r0) for t in grid])
    jump = float(np.max(np.abs(np.diff(vals))))
    assert jump < 1e-3
    assert abs(vals[0]) <= 1e-10 and abs(vals[-1]) <= 1e-10
    # wide sector plateau is an interval where the law is exactly R0
    a2, b2, t02 = -2.4, 2.4, 0.0
    ap = min(t02, a2 + PI / 2)
    bp = max(t02, b2 - PI / 2)
    for t in np.linspace(ap, bp, 501):
        assert pg.fz_type(t, a2, b2, t02, r0) == r0
    grid2 = np.linspace(a2, b2, 10_000)
    vals2 = np.asarray([pg.fz_type(t, a2, b2, t02, r0) for t in grid2])
    jump2 = float(np.max(np.abs(np.diff(vals2))))
    assert jump2 < 1e-3
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report(10, elapsed, 5, f"continuity jumps {jump:.2e}/{jump2:.2e}; plateau exact; edges vanish")


def test_criterion_11_interpolation_pipeline():
    t0 = time.perf_counter()
    fam = testbed.rat2_total_family(opening=1.2, cap=16)
    func = pg.interpolate_first_order(fam, (0.92, 0.92), coeff_cap=10)
    probe = ProbeSpec(r0=0.2, ratio=0.75, tol=1e-5, circle_nodes=128)
    samples = [0.02 * 1.13**k for k in range(10)]
    worst = 0.0
    for axis in (0, 1):
        for order in range(4):
            for sv in samples:
                res = pg.extract_element(func, (axis,), (order,), (sv,), probe=probe)
                err = abs(res.value - (-1.0) ** order / (1.0 + sv))
                worst = max(worst, err)
                assert err <= 1e-4
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    report(11, elapsed, 600, f"extracted orders <= 3 at 10 points per axis, worst err {worst:.2e}")


def test_criterion_12_null_expansion_propagation():
    t0 = time.perf_counter()
    dom = pg.Polysector([pg.Sector(-0.5, 0.5, math.inf)] * 2)
    f = pg.SampledFunction(dom, lambda p: np.exp(-1.0 / p[:, 0] - 1.0 / p[:, 1]))
    radii = [1.2 * 0.85**k for k in range(32)]
    n_list = [(h, k) for h in range(11) for k in range(11)]
    details = []
    for theta in (0.0, PI / 8):
        entries = pg.null_expansion_check(f, (theta, theta), n_list, [radii, radii])
        assert all(e.decaying for e in entries)
        assert all(math.isfinite(e.c_sup) and e.c_sup > 0 for e in entries)
        cons = {e.n_index: e.c_sup for e in entries}
        rates, _ = pg.fit_type_from_remainders(cons, window=(3, 10))
        for rate in rates:
            assert abs(rate - 1.0) < 0.15
        details.append(tuple(rates))
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(
        12,
        elapsed,
        60,
        "fitted rates "
        + ", ".join(f"({a:.3f}, {b:.3f})" for a, b in details)
        + " within 15% of (1, 1) on both rays",
    )
