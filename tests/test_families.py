import cmath
import functools
import itertools
import json
import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from polygevrey import (
    CoherenceReport,
    DimensionMismatchError,
    DomainError,
    FamilyError,
    MultiIndexSeries,
    Polysector,
    ProbeError,
    ProbeSpec,
    SampledFunction,
    Sector,
    TotalFamily,
    app_n_many,
    brg_function,
    check_coherence,
    check_first_order_coherence,
    extract_element,
    family_from_series,
    fit_type_from_remainders,
    interpolate_first_order,
    remainder_constants,
)
from polygevrey import families, testbed
from polygevrey.families import (
    _CIRCLE_FRAC,
    _WINDOW,
    axis_coefficient_ladder,
    element_coefficients,
    nonempty_subsets,
    slice_family,
)
from polygevrey.transforms import LaplaceTables, laplace_bound

PI = math.pi


def xy_family(host=None):
    ser = MultiIndexSeries(2, {(1, 1): 1.0}, (1, 1))
    host = host or Polysector([Sector(-PI / 3, PI / 3, 1.0)] * 2)
    return testbed.polynomial_family(ser, host)


def three_variable_series():
    # coefficients (-1)^|N| N! 1.3^(-N_1) on a 3x3x3 index box
    coeffs = {
        n: (-1) ** sum(n) * math.prod(math.factorial(k) for k in n) * 1.3 ** (-n[0])
        for n in itertools.product(range(3), repeat=3)
    }
    return MultiIndexSeries(3, coeffs, (2, 2, 2))


def three_variable_family():
    return family_from_series(three_variable_series(), (0.5, 0.5, 0.5))


def criterion_seven_series(seed=20250808):
    """Criterion 7's 7x7 two-variable Gevrey series, coefficients drawn from ``seed`` as the benchmark draws them."""
    rng = np.random.default_rng(seed)
    coeffs = {}
    for h in range(7):
        for k in range(7):
            u = 0.6 + 0.8 * rng.random()
            coeffs[(h, k)] = u * math.factorial(h) * math.factorial(k) * 1.3 ** (-h) * 1.1 ** (-k)
    return MultiIndexSeries(2, coeffs, (6, 6))


def criterion_seven_family(seed=20250808):
    return family_from_series(criterion_seven_series(seed), (0.5, 0.45))


# three points in C^3, every coordinate within 1.3 of the positive real axis
polar_grid = st.lists(
    st.builds(lambda r, t: r * cmath.exp(1j * t), st.floats(0.05, 2.0), st.floats(-1.3, 1.3)),
    min_size=9,
    max_size=9,
).map(lambda zs: np.asarray(zs).reshape(3, 3))


def count_tables(monkeypatch) -> list:
    """Record the number of points of every closed-form monomial table built from now on."""
    from polygevrey import transforms

    calls = []
    kernel = transforms.laplace_monomials

    def counted(z0, z, top):
        calls.append(np.size(z))
        return kernel(z0, z, top)

    monkeypatch.setattr(transforms, "laplace_monomials", counted)
    return calls


def count_ladders(monkeypatch) -> list:
    """Record the number of orders of every radius ladder run from now on."""
    from polygevrey import families

    calls = []
    ladder = families.axis_coefficient_ladder

    def counted(evalfn, sectors, orders, probe):
        calls.append(len(orders))
        return ladder(evalfn, sectors, orders, probe)

    monkeypatch.setattr(families, "axis_coefficient_ladder", counted)
    return calls


class TestAppN:
    def test_cross_product_exact(self):
        fam = xy_family()
        assert app_n_many(fam, [(2, 2)], [(0.3, 0.4)])[0, 0] == pytest.approx(0.12, abs=1e-15)

    def test_zero_truncation(self):
        fam = xy_family()
        assert app_n_many(fam, [(0, 0)], [(0.3, 0.4)])[0, 0] == 0

    def test_one_variable_partial_sum(self):
        ser = MultiIndexSeries(1, {(n,): 1.0 for n in range(4)}, (3,))
        host = Polysector([Sector(-0.5, 0.5, 1.0)])
        fam = testbed.polynomial_family(ser, host)
        assert app_n_many(fam, [(4,)], [(0.5,)])[0, 0] == pytest.approx(1.875)

    def test_one_row_per_truncation_index(self):
        fam = xy_family()
        got = app_n_many(fam, [(0, 0), (2, 2), (1, 1)], [(0.3, 0.4), (0.5, 0.1)])
        assert got.shape == (3, 2)
        assert np.allclose(got, [[0, 0], [0.12, 0.05], [0, 0]], rtol=0, atol=1e-15)

    def test_polynomial_identity_at_random_points(self):
        entry = testbed.get("poly")
        fam = entry.known["total_family"]
        rng = np.random.default_rng(7)
        zs = []
        for _ in range(50):
            r = 0.05 + 0.85 * rng.random(2)
            th = (-PI / 3 + 2 * PI / 3 * rng.random(2)) * 0.999
            zs.append(r * np.exp(1j * th))
        want = entry.fn.eval_many(zs)
        got = app_n_many(fam, [(3, 4)], zs)[0]
        assert np.all(np.abs(got - want) < 1e-13)

    def test_missing_element(self):
        fam = xy_family()
        with pytest.raises(FamilyError):
            fam.element((0,), (5,))
        with pytest.raises(FamilyError):
            app_n_many(fam, [(3, 3)], [(0.1, 0.1)])

    def test_truncation_bound_validation(self):
        fam = xy_family()
        with pytest.raises(FamilyError):
            app_n_many(fam, [(4, 0)], [(0.1, 0.1)])
        with pytest.raises(DimensionMismatchError, match="truncation index length"):
            app_n_many(fam, [(1,)], [(0.1, 0.1)])
        with pytest.raises(FamilyError, match="must be nonnegative"):
            app_n_many(fam, [(1, -1)], [(0.1, 0.1)])
        with pytest.raises(DimensionMismatchError, match="one column per axis"):
            app_n_many(fam, [(1, 1)], [(0.1, 0.1, 0.1)])

    def test_family_invariants(self):
        fam = xy_family()
        one = fam.element((0,), (1,))
        with pytest.raises(FamilyError, match="must be nonempty"):
            fam.element((), ())
        with pytest.raises(FamilyError, match="repeated axes"):
            fam.element((0, 0), (1, 1))
        with pytest.raises(DimensionMismatchError, match="host polysector"):
            TotalFamily(3, fam.host, {}, (1, 1, 1))
        with pytest.raises(DimensionMismatchError, match="index_bound length"):
            TotalFamily(2, fam.host, {}, (1,))
        with pytest.raises(FamilyError, match="does not match subset"):
            TotalFamily(2, fam.host, {((0,), (1, 1)): one}, (1, 1))
        with pytest.raises(FamilyError, match="must live on 0 axes, has 1"):
            TotalFamily(2, fam.host, {((0, 1), (1, 1)): one}, (1, 1))

    def test_outside_host(self):
        fam = xy_family()
        with pytest.raises(DomainError):
            app_n_many(fam, [(1, 1)], [(2.0, 0.1)])

    def test_subset_order(self):
        assert nonempty_subsets(2) == [(0,), (1,), (0, 1)]


class TestExtract:
    def test_cross_term_coefficient(self):
        host = Polysector([Sector(-PI / 3, PI / 3, 1.0)] * 2)
        f = SampledFunction(host, lambda p: p[:, 0] * p[:, 1])
        res = extract_element(f, (0,), (1,), (0.5,))
        assert res.value == pytest.approx(0.5, abs=1e-9)
        assert res.converged

    def test_flat_function_vanishes(self):
        entry = testbed.get("flat1")
        for order in (0, 1, 3):
            res = extract_element(entry.fn, (0,), (order,), ())
            assert abs(res.value) < 1e-9

    def test_rational_coefficient(self):
        entry = testbed.get("rat2")
        res = extract_element(entry.fn, (0,), (2,), (0.25,))
        assert res.value == pytest.approx(0.8, abs=1e-7)

    def test_multi_axis(self):
        host = Polysector([Sector(-PI / 3, PI / 3, 1.0)] * 2)
        f = SampledFunction(host, lambda p: p[:, 0] * p[:, 1] + 2.0)
        res = extract_element(f, (0, 1), (1, 1), ())
        assert res.value == pytest.approx(1.0, abs=1e-8)
        res0 = extract_element(f, (0, 1), (0, 0), ())
        assert res0.value == pytest.approx(2.0, abs=1e-9)

    def test_unconverged_returns_best(self):
        # a ladder that never settles is reported, not raised: the caller reads converged
        host = Polysector([Sector(-0.5, 0.5, 1.0)])
        noisy = SampledFunction(
            host, lambda p: 1.0 / (1 + p[:, 0]) + 1e-5 * np.sin(1e4 * np.abs(p[:, 0]))
        )
        probe = ProbeSpec(tol=1e-12)
        res = extract_element(noisy, (0,), (1,), (), probe=probe)
        assert not res.converged
        assert math.isfinite(res.error) and res.error > probe.tol
        assert res.radius in probe.radii()

    def test_z_rest_validation(self):
        entry = testbed.get("rat2")
        with pytest.raises(DomainError):
            extract_element(entry.fn, (0,), (1,), (5.0 * cmath.exp(2j),))

    def test_one_index_per_probed_axis(self):
        with pytest.raises(DimensionMismatchError, match="index length must match subset size"):
            extract_element(testbed.get("rat2").fn, (0,), (1, 0), (0.25,))

    def test_batched_fixed_points(self):
        # f = z1 z2 + z2^2: order-1 coefficient in z1 is z2, order 0 is z2^2
        host = Polysector([Sector(-PI / 3, PI / 3, 1.0)] * 2)
        f = SampledFunction(host, lambda p: p[:, 0] * p[:, 1] + p[:, 1] ** 2)
        g = SampledFunction(host, lambda p: 2.0 * p[:, 0] * p[:, 1])
        fixed = [(0.2,), (0.5,)]
        vals, _, conv, _ = element_coefficients([f, g], (0,), [(0,), (1,)], ProbeSpec(), fixed)
        assert vals.shape == (2, 2, 2)
        assert np.all(conv)
        want = np.array([[[0.04, 0.25], [0.0, 0.0]], [[0.2, 0.5], [0.4, 1.0]]])
        assert np.max(np.abs(vals - want)) < 1e-9

    def test_batched_fixed_point_outside_sector(self):
        host = Polysector([Sector(-PI / 3, PI / 3, 1.0)] * 2)
        f = SampledFunction(host, lambda p: p[:, 0] * p[:, 1])
        with pytest.raises(DomainError):
            element_coefficients([f], (0,), [(1,)], ProbeSpec(), [(0.2,), (-0.03,)])

    def test_batched_elements_on_different_domains(self):
        f = SampledFunction(Polysector([Sector(-PI / 3, PI / 3, 1.0)] * 2), lambda p: p[:, 0] * p[:, 1])
        g = SampledFunction(Polysector([Sector(-PI / 4, PI / 4, 1.0)] * 2), lambda p: p[:, 0] * p[:, 1])
        with pytest.raises(FamilyError, match="share one domain"):
            element_coefficients([f, g], (0,), [(1,)], ProbeSpec(), [(0.2,)])

    def test_order_past_half_the_circle_nodes(self):
        # order 33 on 64 nodes would alias onto order -31
        sectors = [Sector(-PI / 3, PI / 3, 1.0)]
        with pytest.raises(DomainError, match="anti-aliasing"):
            axis_coefficient_ladder(lambda p: p, sectors, [(33,)], ProbeSpec(circle_nodes=64))


# the default probe and the README verify probe
HONESTY_PROBES = pytest.mark.parametrize(
    "probe",
    [
        ProbeSpec(),
        ProbeSpec(r0=0.2, ratio=0.75, tol=1e-5, circle_nodes=128),
    ],
    ids=["default", "readme"],
)
HONESTY_POINTS = [0.05, 0.1 + 0.03j, 0.2 - 0.05j]


def assert_honest(f, axis, fixed, truth, probe, factor=1.0):
    """True error <= factor * reported error, batched and solo, for orders 0-3.

    ``truth(z_rest)`` gives the exact coefficients of orders 0-3 at one fixed point.
    """
    orders = [(k,) for k in range(4)]
    vals, errs, _, _ = (a[:, 0, :] for a in element_coefficients([f], (axis,), orders, probe, fixed))
    for i, z_rest in enumerate(fixed):
        true = truth(z_rest)
        for k in range(4):
            assert abs(vals[k, i] - true[k]) <= factor * errs[k, i]
            # one column alone, on a ladder of its own
            res = extract_element(f, (axis,), (k,), z_rest, probe=probe)
            assert abs(res.value - true[k]) <= factor * res.error


def taylor30(fn, top=3):
    """The first top+1 Taylor coefficients of ``fn`` at 0, to 30 digits."""
    with mpmath.workdps(30):
        return [complex(c) for c in mpmath.taylor(fn, 0, top)]


class TestExtractErrorHonesty:
    """Reported ladder errors against 30-digit Taylor coefficients of rat2."""

    # true error <= FACTOR * reported error; the worst ratio observed is 0.171
    # with the default probe and 0.094 with the README verify probe
    FACTOR = 1.0

    @HONESTY_PROBES
    @pytest.mark.parametrize("axis", [0, 1])
    def test_true_error_within_reported(self, probe, axis):
        def truth(z_rest):
            w = mpmath.mpc(z_rest[0])
            return taylor30(lambda z: 1 / ((1 + z) * (1 + w)))

        fixed = [(w,) for w in HONESTY_POINTS]
        assert_honest(testbed.get("rat2").fn, axis, fixed, truth, probe, self.FACTOR)


def _poly_truth(axis):
    def truth(z_rest):
        w = mpmath.mpc(z_rest[0])

        def f(z):
            z1, z2 = (z, w) if axis == 0 else (w, z)
            return 2 + z1 * z2 - z1**2 * z2 / 2 + z2**3 / 4

        return taylor30(f)

    return truth


class TestExtractErrorHonestyOtherEntries:
    """The same honesty check on euler, flat1 and poly, whose coefficients are exact.

    Worst true/reported ratios observed: euler 0.078, flat1 2e-90, poly 0.43.
    On poly the extrapolant differences alone fall below the true error (on
    axis 1, by up to a factor of 3072); the ladder's rounding floor covers it.
    """

    @HONESTY_PROBES
    @pytest.mark.parametrize(
        "name, axis, fixed, truth",
        [
            ("euler", 0, [()], lambda _: [(-1.0) ** k * math.factorial(k) for k in range(4)]),
            ("flat1", 0, [()], lambda _: [0.0] * 4),
            ("poly", 0, [(w,) for w in HONESTY_POINTS], _poly_truth(0)),
            ("poly", 1, [(w,) for w in HONESTY_POINTS], _poly_truth(1)),
        ],
        ids=["euler", "flat1", "poly-axis0", "poly-axis1"],
    )
    def test_true_error_within_reported(self, probe, name, axis, fixed, truth):
        assert_honest(testbed.get(name).fn, axis, fixed, truth, probe)


def coherence_pair_ratios(fam, tol, max_order):
    """True over reported error of each pair :func:`check_coherence` checks against a stored joint element.

    The ladders are the check's own: ``ProbeSpec(tol=tol)`` at
    ``_rest_samples``, one per (J, L) over every stored f_{N_J}.  Returns
    {(J, L, N_J, N_L, point): ratio} over the converged limits.
    """
    probe = ProbeSpec(tol=tol)
    tops = [min(max_order, b) for b in fam.index_bound]
    ratios = {}
    for j_axes, l_axes in itertools.permutations(nonempty_subsets(fam.dim), 2):
        if set(j_axes) & set(l_axes):
            continue
        cols = fam.rest_axes(j_axes)
        z_rests = families._rest_samples(fam.host, [a for a in cols if a not in l_axes])
        n_js = fam.stored_indices(j_axes)
        orders = list(itertools.product(*(range(tops[a] + 1) for a in l_axes)))
        elems = [fam.element(j_axes, n_j) for n_j in n_js]
        vals, errs, conv, _ = element_coefficients(elems, [cols.index(a) for a in l_axes], orders, probe, z_rests)
        union = families._subset_key(j_axes + l_axes)
        for (e, n_j), (o, n_l) in itertools.product(enumerate(n_js), enumerate(orders)):
            joint = families._merge_index(j_axes, n_j, l_axes, n_l)
            if not fam.has_element(union, joint):
                continue
            for k, ref in enumerate(fam.element(union, joint).eval_many(z_rests)):
                if conv[o, e, k]:
                    ratios[(j_axes, l_axes, n_j, n_l, k)] = abs(vals[o, e, k] - ref) / errs[o, e, k]
    return ratios


class TestCoherencePairHonesty:
    """The coherence workloads' own ladders: each checked pair's true error against the ladder's report.

    Worst true/reported ratios observed: criterion 7 0.073, rat2 0.435.
    """

    FACTOR = 1.0

    @pytest.mark.parametrize(
        "make", [criterion_seven_family, lambda: testbed.rat2_total_family(cap=8)], ids=["criterion-7", "rat2"]
    )
    def test_true_error_within_reported(self, make):
        fam = make()
        ratios = coherence_pair_ratios(fam, 1e-6, 3)
        assert len(ratios) == check_coherence(fam, 1e-6, max_order=3).checked_pairs
        under = {pair: r for pair, r in ratios.items() if not r <= self.FACTOR}
        assert not under, under


# a fixed point of rat2's other variable, inside its sector (-1.2, 1.2)
rat2_fixed_point = st.builds(lambda r, t: (r * cmath.exp(1j * t),), st.floats(0.02, 0.6), st.floats(-1.1, 1.1))
ladder_tol = st.sampled_from([1e-5, 1e-8, 1e-11])


def assert_columns_alone(elems, axis, orders, probe, fixed):
    """Each (order, element, fixed point) limit of one batched ladder equals its solo extract_element."""
    vals, errs, conv, radii = element_coefficients(elems, (axis,), [(k,) for k in orders], probe, fixed)
    for (o, k), (e, elem), (i, z_rest) in itertools.product(enumerate(orders), enumerate(elems), enumerate(fixed)):
        res = extract_element(elem, (axis,), (k,), z_rest, probe=probe)
        assert (res.value, res.error, res.converged, res.radius) == (
            vals[o, e, i], errs[o, e, i], conv[o, e, i], radii[o, e, i]
        ), (k, e, z_rest)


class TestLadderColumnsAlone:
    """A limit's value, error, flag and radius do not depend on the orders and columns that share its ladder."""

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(axis=st.sampled_from([0, 1]), orders=st.lists(st.integers(0, 12), min_size=1, max_size=13, unique=True),
           fixed=st.lists(rat2_fixed_point, min_size=1, max_size=3), tol=ladder_tol)
    # order 2 at z2 = 0.1+0.03j: alone, the ladder once stopped at radius 0.0121 (true error 1.46e-7);
    # batched with orders 0..12, at 0.0029 (1.86e-10)
    @example(axis=0, orders=list(range(13)), fixed=[(0.1 + 0.03j,)], tol=1e-5)
    def test_rat2(self, axis, orders, fixed, tol):
        assert_columns_alone([testbed.get("rat2").fn], axis, orders, ProbeSpec(tol=tol), fixed)

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(columns=st.lists(st.integers(0, 6), min_size=1, max_size=4, unique=True),
           orders=st.lists(st.integers(0, 6), min_size=1, max_size=7, unique=True), tol=ladder_tol)
    def test_criterion_seven_family(self, columns, orders, tol):
        seq = criterion_seven_family().sequence(0)
        assert_columns_alone([seq[h] for h in columns], 0, orders, ProbeSpec(tol=tol), [()])


class TestSingleMultidirection:
    """Coefficient limits taken along one multidirection, as the paper states them."""

    @pytest.mark.parametrize("theta", [0.7, -0.9])
    def test_limit_along_one_ray(self, theta):
        f = testbed.get("rat2").fn
        z2 = 0.1 + 0.03j
        probe = ProbeSpec(direction=(theta,))
        for k in range(4):
            res = extract_element(f, (0,), (k,), (z2,), probe=probe)
            assert abs(res.value - (-1.0) ** k / (1.0 + z2)) <= res.error
            assert res.converged or k == 3

    def test_direction_outside_the_opening(self):
        # rat2's sectors open to |arg z| < 1.2
        probe = ProbeSpec(direction=(1.3,))
        with pytest.raises(DomainError):
            extract_element(testbed.get("rat2").fn, (0,), (0,), (0.1 + 0.03j,), probe=probe)

    @pytest.mark.parametrize(
        "axes, n_index, z_rest, direction",
        [((0,), (0,), (0.1,), (0.3, 5.0)), ((0,), (0,), (0.1,), ()), ((0, 1), (1, 0), (), (0.2,))],
        ids=["too-long", "empty", "too-short"],
    )
    def test_one_angle_per_probed_axis(self, axes, n_index, z_rest, direction):
        probe = ProbeSpec(direction=direction)
        with pytest.raises(DimensionMismatchError):
            extract_element(testbed.get("rat2").fn, axes, n_index, z_rest, probe=probe)


class TestCoherence:
    @pytest.mark.parametrize("seed", range(25))
    def test_criterion_seven_recipe_at_every_seed(self, seed):
        # on circles at half the boundary distance, seeds 4, 7, 14, 16 and 24 left one or two
        # order-3 pairs unconverged: rounding in their extrapolants, which grows like rho^-3, exceeded tol
        rep = check_coherence(criterion_seven_family(seed), 1e-6, max_order=3)
        assert rep.ok(), rep.probe_failures + rep.failures

    def test_series_family_passes(self):
        fam = family_from_series(testbed.rat2_series(cap=4), (0.5, 0.5))
        rep = check_coherence(fam, 1e-6, max_order=2)
        assert rep.checked_pairs > 0
        assert rep.max_residual < 1e-6
        assert rep.ok()
        assert not rep.probe_failures

    def test_injected_inconsistency_flagged(self):
        fam = family_from_series(testbed.rat2_series(cap=3), (0.5, 0.5))
        els = dict(fam.elements)
        els[((0, 1), (1, 1))] = SampledFunction.constant(els[((0, 1), (1, 1))].eval_many([()])[0] + 1.0)
        bad = TotalFamily(2, fam.host, els, fam.index_bound)
        rep = check_coherence(bad, 1e-6, max_order=1)
        assert not rep.ok()
        assert any(nj == (1,) and nl == (1,) for (_, _, nj, nl, _) in rep.failures)

    def test_one_variable_vacuous(self):
        ser = MultiIndexSeries(1, {(n,): 1.0 for n in range(3)}, (2,))
        fam = family_from_series(ser, (0.5,))
        rep = check_coherence(fam, 1e-8)
        assert rep.checked_pairs == 0
        assert rep.max_residual == 0.0
        # a check that compared nothing has not shown coherence
        assert not rep.ok()

    def test_report_json(self, tmp_path):
        # verify coherence writes the report of check_coherence on the same family
        from polygevrey.cli import EXIT_OK, main

        ser = testbed.rat2_series(cap=2)
        fam = family_from_series(ser, (0.5, 0.5))
        rep = check_coherence(fam, 1e-6, max_order=1)
        coeffs = [{"index": list(ix), "re": c.real, "im": c.imag} for ix, c in ser.items()]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "suite": "coherence", "z0": [0.5, 0.5], "tol": 1e-6, "max_order": 1,
            "series": {"dim": 2, "coeffs": coeffs, "degree_bound": list(ser.degree_bound)},
        }))
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OK
        obj = json.loads((tmp_path / "coherence.json").read_text())["report"]
        assert obj["checked_pairs"] == rep.checked_pairs
        assert obj["failures"] == []

    def test_three_variables_one_ladder_per_pair(self, monkeypatch):
        # 9 (J, L) pairs with #J = 1 and 3 with #J = 2; the sampled points on
        # the rest axis are batch columns of the same ladder
        calls = count_ladders(monkeypatch)
        rep = check_coherence(three_variable_family(), 1e-6, max_order=1)
        assert len(calls) == 12
        assert rep.checked_pairs == 162
        assert not rep.probe_failures
        assert rep.ok()
        assert rep.max_residual < 1e-8

    def test_three_variables_injected_error_named(self):
        fam = three_variable_family()
        els = dict(fam.elements)
        good = els[((0, 1), (1, 0))]
        els[((0, 1), (1, 0))] = SampledFunction(good.domain, lambda p: good.eval_many(p) + 0.01)
        rep = check_coherence(TotalFamily(3, fam.host, els, fam.index_bound), 1e-6, max_order=1)
        assert not rep.ok()
        assert ((0, 1), (2,), (1, 0), (0,)) in [f[:4] for f in rep.failures]

    def test_three_variables_one_target_call_per_pair(self, monkeypatch):
        # each non-constant target f_{(N_J, N_L)} (one rest axis) is evaluated in
        # one call on the pair's two sampled points, not once per point
        from polygevrey import transforms

        ser = MultiIndexSeries(3, {n: 1.0 + sum(n) for n in itertools.product(range(2), repeat=3)}, (1, 1, 1))
        fam = testbed.polynomial_family(ser, Polysector([Sector(-PI / 3, PI / 3, 1.0)] * 3))
        want = {}
        for j_axes in nonempty_subsets(3):
            for l_axes in nonempty_subsets(3):
                if set(j_axes) & set(l_axes) or len(j_axes) + len(l_axes) == 3:
                    continue
                union = tuple(sorted(j_axes + l_axes))
                for n_j in fam.stored_indices(j_axes):
                    for n_l in itertools.product(range(2), repeat=len(l_axes)):
                        index = dict(zip(j_axes, n_j)) | dict(zip(l_axes, n_l))
                        target = fam.element(union, tuple(index[a] for a in union))
                        want[id(target)] = want.get(id(target), 0) + 1
        rows = {}
        eval_many = transforms.SampledFunction.eval_many

        def counted(self, pts):
            # a ladder evaluates some targets too, on its 64 circle nodes per point
            if id(self) in want and len(pts) < 64:
                rows.setdefault(id(self), []).append(len(pts))
            return eval_many(self, pts)

        monkeypatch.setattr(transforms.SampledFunction, "eval_many", counted)
        rep = check_coherence(fam, 1e-6, max_order=1)
        assert rep.ok() and not rep.probe_failures
        assert rows == {key: [2] * n for key, n in want.items()}

    def test_criterion_seven_family_one_ladder_per_pair(self, monkeypatch):
        fam = criterion_seven_family()
        calls = count_ladders(monkeypatch)
        rep = check_coherence(fam, 1e-6, max_order=3)
        assert len(calls) == 2
        assert rep.checked_pairs == 56
        assert rep.ok() and not rep.probe_failures

    @pytest.mark.parametrize("max_order", [-1, -3])
    def test_negative_max_order_checks_no_pair(self, monkeypatch, max_order):
        # no order lies below 0: no ladder runs, no pair is checked or missing, and ok() is False
        calls = count_ladders(monkeypatch)
        rep = check_coherence(testbed.rat2_total_family(cap=4), 1e-6, max_order)
        assert rep == CoherenceReport(0, 0.0, (), (), 1e-6, 0)
        assert calls == [] and not rep.ok()

    def test_tolerance_checked_without_orders(self):
        # the coherence probe rejects a tolerance of 0 even when no pair would use it
        with pytest.raises(DomainError, match="tol > 0"):
            check_coherence(testbed.rat2_total_family(cap=4), 0, -1)


def first_order_reference(fam, tol, max_order=2):
    """The two-variable first-order check as written before it covered every pair of axes.

    Two ladders on the coherence probe: one over every f_{1n} with orders
    m <= m_cap, one over every f_{2m} with orders n <= n_cap; the m-th
    coefficient of f_{1n} must match the n-th coefficient of f_{2m}.
    """
    assert fam.dim == 2
    probe = ProbeSpec(tol=tol)
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


def constant_first_order_family(values, noisy=False):
    """Two-variable first-order family of constants: f_{j,n} = values[j][n].

    With ``noisy``, f_{1,0} carries noise no radius ladder settles.
    """
    host = Polysector([Sector(-1.0, 1.0, math.inf)] * 2)

    def const(axis, v):
        return SampledFunction(
            host.axes_subset((1 - axis,)), lambda p, _v=v: np.full(len(p), _v, dtype=complex)
        )

    elements = {((axis,), (n,)): const(axis, v) for axis, vs in enumerate(values) for n, v in enumerate(vs)}
    if noisy:
        elements[(0,), (0,)] = SampledFunction(
            host.axes_subset((1,)), lambda p: 1.0 + 1e-5 * np.sin(1e4 * np.abs(p[:, 0]))
        )
    return TotalFamily(2, host, elements, (1, 1))


def three_variable_polynomial_family():
    coeffs = {(0, 0, 0): 2.0, (1, 1, 0): 1.0, (2, 1, 1): -0.5, (0, 3, 1): 0.25, (1, 0, 2): 0.7}
    ser = MultiIndexSeries(3, coeffs, (2, 3, 2))
    return testbed.polynomial_family(ser, Polysector([Sector(-PI / 3, PI / 3, 1.0)] * 3))


class TestFirstOrder:
    def test_two_variable_selection(self):
        fam = family_from_series(testbed.rat2_series(cap=3), (0.5, 0.5))
        seqs = [fam.sequence(axis) for axis in range(2)]
        assert all(len(seq) == 4 for seq in seqs)
        # matches the worked two-variable shape: one sequence per axis, each
        # element a function of the other variable
        assert seqs[0][0].domain.dim == 1
        assert seqs[1] == tuple(fam.element((1,), (n,)) for n in range(4))

    def test_one_variable(self):
        ser = MultiIndexSeries(1, {(n,): float(n + 1) for n in range(3)}, (2,))
        fam = family_from_series(ser, (0.5,))
        assert [el.eval_many([()])[0] for el in fam.sequence(0)] == [1.0, 2.0, 3.0]

    def test_empty_cap(self):
        host = Polysector([Sector(-0.5, 0.5, 1.0)] * 2)
        fam = TotalFamily(2, host, {}, (0, 0))
        assert fam.sequence(0) == fam.sequence(1) == ()
        assert check_coherence(fam.first_order(2), 1e-6, 2).checked_pairs == 0

    def test_first_order_coherence_rat2(self):
        fam = testbed.rat2_total_family(cap=4)
        rep = check_coherence(fam.first_order(2), 1e-6, 2)
        assert rep.ok()
        assert rep.checked_pairs == 9

    def test_first_order_coherence_runs_two_ladders(self, monkeypatch):
        calls = count_ladders(monkeypatch)
        fam = testbed.rat2_total_family(cap=4)
        rep = check_coherence(fam.first_order(2), 1e-6, 2)
        assert rep.checked_pairs == 9
        assert calls == [3, 3]

    def test_unconverged_pairs_fail_the_verdict(self):
        # coherent constants, but f_{10} carries noise no radius ladder settles:
        # the pairs it enters are probe failures, the others pass
        fam = constant_first_order_family(((1.0, 0.0), (1.0, 0.0)), noisy=True)
        rep = check_coherence(fam.first_order(1), 1e-4, 1)
        assert rep.checked_pairs > 0
        assert rep.probe_failures
        assert not rep.failures
        assert not rep.ok()

    def test_first_order_incoherent_pair_named(self):
        # f_{11} says the (1, 0) constant is 2; f_{20} says it is 0
        fam = constant_first_order_family(((1.0, 2.0), (1.0, 0.0)))
        rep = check_coherence(fam.first_order(1), 1e-6, 1)
        assert rep.checked_pairs == 4
        assert [f[:4] for f in rep.failures] == [((0,), (1,), (1,), (0,))]

    @pytest.mark.parametrize("max_order", [0, 1, 2])
    def test_two_variables_match_reference_rat2(self, max_order):
        fam = testbed.rat2_total_family(cap=4)
        rep = check_coherence(fam.first_order(max_order), 1e-6, max_order)
        assert rep == first_order_reference(fam, 1e-6, max_order=max_order)

    @pytest.mark.parametrize(
        "make, tol",
        [
            (lambda: testbed.get("poly").known["total_family"], 1e-6),
            (lambda: constant_first_order_family(((1.0, 2.0), (1.0, 0.0))), 1e-6),
            (lambda: constant_first_order_family(((1.0, 0.0), (1.0, 0.0)), noisy=True), 1e-4),
        ],
        ids=["poly", "incoherent-pair", "noisy-element"],
    )
    def test_two_variables_match_reference(self, make, tol):
        # the whole report, failures and probe failures included, as the two-variable check gave it
        fam = make()
        rep = check_coherence(fam.first_order(1), tol, 1)
        assert rep == first_order_reference(fam, tol, max_order=1)

    def test_three_variables_every_axis_pair(self, monkeypatch):
        # 3 axis pairs x 3 x 3 orders x 2 sampled points on the third axis, two ladders per pair
        calls = count_ladders(monkeypatch)
        rep = check_coherence(three_variable_polynomial_family().first_order(2), 1e-6, 2)
        assert rep.checked_pairs == 54
        assert calls == [3] * 6
        assert rep.ok() and not rep.probe_failures
        assert rep.max_residual < 1e-9

    def test_three_variables_injected_error_named(self):
        # f_{(0),(1)} + 0.01 moves its order-0 limit along both other axes
        fam = three_variable_polynomial_family()
        els = dict(fam.elements)
        good = els[((0,), (1,))]
        els[((0,), (1,))] = SampledFunction(good.domain, lambda p: good.eval_many(p) + 0.01)
        rep = check_coherence(TotalFamily(3, fam.host, els, fam.index_bound).first_order(2), 1e-6, 2)
        assert not rep.ok()
        assert {f[:4] for f in rep.failures} == {((0,), (1,), (1,), (0,)), ((0,), (2,), (1,), (0,))}

    @pytest.mark.parametrize(
        "first_order, pairs", [(False, 8), (True, 4)], ids=["check_coherence-8", "check_first_order_coherence-4"]
    )
    def test_no_extrapolant_is_a_probe_failure(self, first_order, pairs):
        # sectors of radius 1e-3 leave 4 of the 20 rungs inside, fewer than one
        # window: each pair of the ladder is a probe failure naming why
        ser = MultiIndexSeries(2, {(0, 0): 2.0, (1, 1): 1.0}, (1, 1))
        fam = testbed.polynomial_family(ser, Polysector([Sector(-1.0, 1.0, 1e-3)] * 2))
        rep = check_coherence(fam.first_order(1) if first_order else fam, 1e-6, 1)
        assert rep.checked_pairs == 0 and not rep.ok()
        assert len(rep.probe_failures) == pairs
        assert all("no extrapolants" in f[4] for f in rep.probe_failures)

    def test_one_variable_checks_no_pair(self):
        ser = MultiIndexSeries(1, {(n,): float(n + 1) for n in range(3)}, (2,))
        rep = check_coherence(family_from_series(ser, (0.5,)).first_order(2), 1e-6, 2)
        assert rep.checked_pairs == 0
        assert not rep.ok()

    def test_first_order_family(self):
        # the #J = 1 elements up to max_order; the index bound keeps each sequence's length
        fam = testbed.rat2_total_family(cap=4)
        first = fam.first_order(2)
        assert sorted(first.elements) == [((a,), (n,)) for a in range(2) for n in range(3)]
        assert first.index_bound == (4, 4)
        assert all(first.elements[key] is fam.elements[key] for key in first.elements)
        assert fam.first_order(-1).elements == {}

    @pytest.mark.parametrize("max_order", [0, 1, 2])
    def test_old_name_is_one_call(self, max_order):
        fam = testbed.rat2_total_family(cap=4)
        rep = check_coherence(fam.first_order(max_order), 1e-6, max_order)
        assert check_first_order_coherence(fam, 1e-6, max_order=max_order) == rep

    def test_three_variables_pairs_of_one_axis_with_two_missing(self):
        # the first-order family stores no f_{N_L} with #L = 2: 3 axes x 3 orders x 9 N_L
        rep = check_coherence(three_variable_polynomial_family().first_order(2), 1e-6, 2)
        assert rep.checked_pairs == 54
        assert rep.missing == 81


def no_strong_expansion_family(cap=3):
    """The exact first-order family of z1/(z1+z2) on (|arg z_j| < pi/4)^2.

    The function is holomorphic and bounded there (|f| <= sqrt 2) but has no
    strong expansion: its limit at the vertex depends on how z1 and z2 tend
    to 0.  f_{1,0} = 0, f_{1,n} = (-1)^(n-1) z2^(-n) and f_{2,m} = (-1)^m z1^(-m),
    so the (0, 0) constant is 0 along axis 1 and 1 along axis 2.
    """
    host = Polysector([Sector(-PI / 4, PI / 4, math.inf)] * 2)

    def element(axis, n):
        sign = (-1.0) ** (n - 1 if axis == 0 else n)
        if axis == 0 and n == 0:
            return SampledFunction(host.axes_subset((1,)), lambda p: np.zeros(len(p), dtype=complex))
        return SampledFunction(host.axes_subset((1 - axis,)), lambda p: sign * p[:, 0] ** (-n))

    elements = {((axis,), (n,)): element(axis, n) for axis in range(2) for n in range(cap + 1)}
    return TotalFamily(2, host, elements, (cap, cap))


class TestNoStrongExpansion:
    def test_cross_limits_fail_the_vertex_constant(self):
        # no f_{(N_1, N_2)} is stored: the check compares the cross-limits, and the
        # (0, 0) constant reads 0 from f_{1,0} but 1 from f_{2,0}
        rep = check_coherence(no_strong_expansion_family(), 1e-6, max_order=1)
        assert rep.checked_pairs > 0
        assert [f[:4] for f in rep.failures] == [((0,), (1,), (0,), (0,))]
        assert rep.failures[0][4] == pytest.approx(1.0, abs=1e-9)
        # f_{1,2}, f_{1,3} and f_{2,2}, f_{2,3} lie past max_order on their own axis
        assert rep.missing == 8
        assert not rep.ok()


class TestFamilyFromSeries:
    def test_one_variable_constants(self):
        ser = MultiIndexSeries(1, {(0,): 2.0, (1,): -1.0}, (1,))
        fam = family_from_series(ser, (0.5,))
        assert fam.element((0,), (0,)).eval_many([()])[0] == 2.0
        assert fam.element((0,), (1,)).eval_many([()])[0] == -1.0

    def test_constant_series_closed_forms(self):
        # fhat = 1 on two axes: each first-order zero-index element is the
        # one-variable truncated Laplace of 1 in its own variable
        ser = MultiIndexSeries(2, {(0, 0): 1.0}, (0, 0))
        z0 = (0.5, 0.4)
        fam = family_from_series(ser, z0)
        for z in (0.1, 0.2 * cmath.exp(0.5j)):
            want2 = 1 - cmath.exp(-z0[1] / z)
            assert fam.element((0,), (0,)).eval_many([(z,)])[0] == pytest.approx(want2, rel=1e-9)
            want1 = 1 - cmath.exp(-z0[0] / z)
            assert fam.element((1,), (0,)).eval_many([(z,)])[0] == pytest.approx(want1, rel=1e-9)

    def test_constants_equal_coefficients(self):
        ser = testbed.rat2_series(cap=3)
        fam = family_from_series(ser, (0.5, 0.5))
        for h in range(4):
            for k in range(4):
                assert fam.element((0, 1), (h, k)).eval_many([()])[0] == ser[(h, k)]

    @pytest.mark.parametrize("build", [family_from_series, brg_function])
    def test_endpoint_checks(self, build):
        # both builders check their endpoints in borel_disc_types
        ser = testbed.rat2_series(cap=3)
        with pytest.raises(DomainError, match="integration endpoints must be nonzero"):
            build(ser, (0.0, 0.3))
        with pytest.raises(DimensionMismatchError, match="one endpoint per axis required"):
            build(ser, (0.5,))
        with pytest.raises(DomainError, match="integration endpoints must be nonzero"):
            build(testbed.euler_entry().known["series"], (0.0,))

    def test_borel_disc_guard(self):
        with pytest.raises(DomainError):
            family_from_series(testbed.euler_entry().known["series"], (1.2,))

    def test_bug_in_type_fit_propagates(self, monkeypatch):
        # only a SeriesError (too few coefficients) means "type unbounded"
        from polygevrey import transforms

        def broken(_fhat):
            raise RuntimeError("bug in the fit")

        monkeypatch.setattr(transforms, "fit_gevrey_type", broken)
        with pytest.raises(RuntimeError, match="bug in the fit"):
            family_from_series(testbed.rat2_series(cap=3), (0.5, 0.5))

    def test_extraction_recovers_elements(self):
        # coefficients of the assembled transform match the family elements
        ser = testbed.rat2_series(cap=6)
        z0 = (0.5, 0.5)
        fam = family_from_series(ser, z0)
        func = brg_function(ser, z0, tol=1e-12)
        probe = ProbeSpec(tol=1e-6)
        for idx in ((0,), (1,)):
            res = extract_element(func, (0,), idx, (0.12,), probe=probe)
            want = fam.element((0,), idx).eval_many([(0.12,)])[0]
            assert abs(res.value - want) <= max(5 * res.error, 1e-6)

    def test_manifest(self):
        # each element says how it was made
        fam = family_from_series(testbed.rat2_series(cap=1), (0.5, 0.5))
        assert fam.dim == 2
        assert fam.element((0,), (1,)).provenance == "closed-form"
        assert fam.element((1,), (0,)).provenance == "closed-form"
        assert fam.element((0, 1), (1, 0)).provenance == "series"


class TestSharedTables:
    def test_criterion_seven_one_table_per_ladder(self, monkeypatch):
        # 2 ladders x 1 rest axis; the 7 stored elements of each (J, L) share
        # its one evaluation, 20 rungs of 64 circle nodes, so they share its table
        fam = criterion_seven_family()
        tables = count_tables(monkeypatch)
        rep = check_coherence(fam, 1e-6, max_order=3)
        assert rep.checked_pairs == 56 and rep.ok() and not rep.probe_failures
        assert tables == [1280] * 2

    def test_app_n_one_table_per_axis(self, monkeypatch):
        # every element on a rest axis reads the same column of the grid
        fam = three_variable_family()
        pts = np.asarray([(0.2, 0.1 + 0.05j, 0.3), (0.1, 0.2, 0.15 - 0.1j)])
        tables = count_tables(monkeypatch)
        app_n_many(fam, [(3, 3, 3)], pts)
        assert tables == [2] * 3
        app_n_many(fam, [(2, 2, 2)], pts)
        assert len(tables) == 3

    @settings(max_examples=40, deadline=None)
    @given(polar_grid, polar_grid, st.lists(st.booleans(), min_size=3, max_size=3))
    def test_no_stale_table(self, a, b, keep):
        # point sets A, B, A, where B keeps A's column on the axes ``keep``
        # marks: every element equals the transform of its slice built alone
        ser = three_variable_series()
        z0 = (0.5, 0.45 * cmath.exp(0.2j), 0.4)
        fam = family_from_series(ser, z0)

        def alone(sub, rest):
            return LaplaceTables(z0, ser.degree_bound).transform(sub, rest)

        b[:, keep] = a[:, keep]
        for pts in (a, b, a):
            ref = slice_family(ser, fam.host, alone, "series")
            for key, elem in fam.elements.items():
                rest = fam.rest_axes(key[0])
                if rest:
                    got = elem.eval_many(pts[:, rest])
                    assert np.array_equal(got, ref.elements[key].eval_many(pts[:, rest]))


    def test_product_grid_one_table_per_distinct_coordinate(self, monkeypatch):
        # a ladder rung's grid: 128 circle nodes on axis 0, each paired with 3 fixed values on axis 1
        ser = criterion_seven_series()
        func = LaplaceTables((0.5, 0.45), ser.degree_bound).transform(ser, (0, 1))
        nodes = 0.1 + 0.04 * np.exp(2j * np.pi * np.arange(128) / 128)
        pts = np.asarray([(z1, z2) for z2 in (0.05, 0.08 + 0.01j, 0.12) for z1 in nodes])
        tables = count_tables(monkeypatch)
        batch = func.eval_many(pts)
        assert sorted(tables) == [3, 128]  # not 2 x 384
        alone = np.asarray([func.eval_many(pts[k : k + 1])[0] for k in range(len(pts))])
        assert np.array_equal(batch, alone)


def per_index_constants(f, fam, direction, radii, n_indices, noise_floor):
    """The remainder constants with one app_n_many call per truncation index."""
    from polygevrey.geometry import ray_points

    pts = np.asarray(ray_points(f.domain, direction, radii), dtype=complex)
    fvals = f.eval_many(pts)
    out = {}
    for n_index in n_indices:
        diff = np.abs(fvals - app_n_many(fam, [n_index], pts)[0])
        keep = diff > noise_floor
        if np.any(keep):
            weight = np.prod(np.abs(pts) ** np.asarray(n_index, dtype=float), axis=1)
            out[n_index] = float(np.max(diff[keep] / weight[keep]))
    return out


README_TYPE_FIT = {"testbed": "euler", "mode": "gevrey", "directions": [0.0, 0.5236],
                   "radii": {"r0": 0.5, "ratio": 0.82, "count": 22}, "n_max": 22, "window": [4, 16],
                   "noise_floor": 1e-9}


class TestRemainderFits:
    def test_constants_equal_per_index_sums(self):
        # evaluating each element once per grid keeps every App_N sum, bit for bit
        entry = testbed.get("euler")
        fam = family_from_series(entry.known["series"], entry.known["z0"])
        radii = [[0.5 * 0.82**k for k in range(22)]]
        n_indices = [(n,) for n in range(23)]
        for theta in (0.0, 0.5236):
            args = (entry.fn, fam, (theta,), radii, n_indices, 1e-9)
            assert remainder_constants(*args[:5], noise_floor=1e-9) == per_index_constants(*args)
        rat2 = testbed.get("rat2")
        fam2 = family_from_series(testbed.rat2_series(cap=4), (0.5, 0.5))
        radii2 = [[0.3 * 0.8**k for k in range(6)]] * 2
        n_indices2 = [(n, m) for n in range(6) for m in range(6)]
        args = (rat2.fn, fam2, (0.3, -0.4), radii2, n_indices2, 0.0)
        got = remainder_constants(*args[:5])
        assert got == per_index_constants(*args)
        assert len(got) == 36

    def test_one_evaluation_per_element_and_direction(self, tmp_path, monkeypatch):
        # the README type-fit config: per direction, f once and f_0 ... f_21 once
        from polygevrey import cli, transforms

        calls = []
        eval_many = transforms.SampledFunction.eval_many

        def counted(self, pts):
            calls.append(len(pts))
            return eval_many(self, pts)

        monkeypatch.setattr(transforms.SampledFunction, "eval_many", counted)
        cfg = tmp_path / "type_fit.json"
        cfg.write_text(json.dumps(README_TYPE_FIT))
        assert cli.main(["type-fit", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert len(calls) == 2 * (1 + 22)

    def test_exact_rate_recovery(self):
        cons = {(n,): math.factorial(n) * 2.0**n for n in range(3, 15)}
        rates, rms = fit_type_from_remainders(cons, window=(3, 14))
        assert rates[0] == pytest.approx(0.5, rel=1e-10)
        assert rms < 1e-10

    def test_window_and_floor(self):
        entry = testbed.get("brg_const")
        # constant series padded with explicit zeros up to degree 9
        ser = MultiIndexSeries(1, {(0,): 1.0}, (9,))
        fam = family_from_series(ser, entry.known["z0"])
        radii = [0.4 * 0.8**k for k in range(14)]
        cons = remainder_constants(
            entry.fn, fam, (0.0,), [radii], [(n,) for n in range(10)], noise_floor=1e-10
        )
        # the function minus its constant term is exactly -e^{-z0/z}: every
        # c(N) is the flat sup, consistent with rate |z0| = 0.5
        rates, _ = fit_type_from_remainders(cons, window=(2, 9))
        assert rates[0] == pytest.approx(0.5, rel=0.15)


def family_elements(fam) -> list:
    # the all-axes elements are constants of no variable
    return [(el.eval_many, el.domain.dim) for el in fam.elements.values() if el.domain.dim]


def rat2_interpolant():
    # the interpolate subcommand's construction (rat2, z0 = (0.92, 0.92)) at cap 8, coeff_cap 4
    fam = testbed.rat2_total_family(opening=1.2, cap=8)
    return interpolate_first_order(fam, (0.92, 0.92), coeff_cap=4)


# each target: the (function of a (k, dim) point array, dim) pairs it checks; the
# tail tolerances of the criterion-7 and three-variable transforms only let them be built
_BATCH_TARGETS = {
    "euler": lambda: [(testbed.get("euler").fn.eval_many, 1)],
    "criterion-7-series": lambda: [(brg_function(criterion_seven_series(), (0.5, 0.45), tol=0.1).eval_many, 2)],
    "three-variable-series": lambda: [
        (brg_function(three_variable_series(), (0.3, 0.3, 0.3), tol=1.0).eval_many, 3)
    ],
    "criterion-7-family": lambda: family_elements(criterion_seven_family()),
    "poly-family": lambda: family_elements(
        testbed.polynomial_family(testbed.poly_series(), Polysector([Sector(-PI / 3, PI / 3, 1.0)] * 2))
    ),
    "laplace-bound": lambda: [(functools.partial(laplace_bound, criterion_seven_series(), (0.5, 0.45)), 2)],
    "rat2-interpolant": lambda: [(rat2_interpolant().eval_many, 2)],
}


@functools.cache
def batch_targets(name: str) -> list:
    return _BATCH_TARGETS[name]()


# batches of points in C^3, every coordinate within 1.2 of the positive real axis
point_rows = st.lists(
    st.tuples(*[st.builds(lambda r, t: r * cmath.exp(1j * t), st.floats(0.02, 0.6), st.floats(-1.2, 1.2))] * 3),
    min_size=2,
    max_size=12,
).map(lambda rows: np.asarray(rows, dtype=complex))


class TestBatchInvariance:
    """A point's value is the same bits whether it is evaluated alone or in any batch."""

    @pytest.mark.parametrize("target", list(_BATCH_TARGETS))
    @settings(max_examples=25, deadline=None)
    @given(rows=point_rows)
    def test_each_row_alone_equals_its_batched_value(self, target, rows):
        for fn, dim in batch_targets(target):
            pts = rows[:, :dim]
            batched = fn(pts)
            alone = np.asarray([fn(pts[i : i + 1])[0] for i in range(len(pts))])
            assert np.array_equal(batched, alone), np.flatnonzero(batched != alone)


# ---------------------------------------------------------------------------
# the reference radius ladder: one evalfn call and one tracker push per rung,
# reading every in-sector rung


def window_weights(q):
    """The extrapolant weights of a five-rung window of radii r q^i, written as the ladder writes them."""
    return [math.prod(q**l / (q**l - q**i) for l in range(_WINDOW) if l != i) for i in range(_WINDOW)]


class _LadderTracker:
    """Windowed Richardson state for a (n_orders, batch) grid of limits."""

    def __init__(self, shape, probe):
        self.probe = probe
        self.weights = window_weights(probe.ratio)
        self.lebesgue = sum(abs(w) for w in self.weights)
        self.radii = []
        self.samples = []
        self.sizes = []
        self.extrap = []
        self.floors = []
        self.best = np.zeros(shape, dtype=complex)
        self.best_err = np.full(shape, np.inf)
        self.best_floor = np.zeros(shape)
        self.best_radius = np.zeros(shape)

    def push(self, r, values, size):
        """One rung: its samples, and max |g| on its circles times rho^-N, both shaped (n_orders, B)."""
        self.radii.append(r)
        self.samples.append(values)
        self.sizes.append(size)
        if len(self.radii) < _WINDOW:
            return
        self.extrap.append(sum(w * sample for w, sample in zip(self.weights, self.samples[-_WINDOW:])))
        self.floors.append(self.lebesgue * np.finfo(float).eps * np.max(self.sizes[-_WINDOW:], 0))
        if len(self.extrap) < 3:
            return
        e = self.extrap
        err = np.maximum(np.abs(e[-1] - e[-2]), np.abs(e[-2] - e[-3]))
        # the first error estimate is also e_1's, and e_1 is offered before e_2
        for j in [1, 2] if len(e) == 3 else [len(e) - 1]:
            better = err < self.best_err
            self.best = np.where(better, e[j], self.best)
            self.best_err = np.where(better, err, self.best_err)
            self.best_floor = np.where(better, self.floors[j], self.best_floor)
            self.best_radius = np.where(better, self.radii[j + _WINDOW - 1], self.best_radius)

    @property
    def converged(self):
        """Each best extrapolant's own error estimate is within tol, relative to max(1, |value|)."""
        return self.best_err <= self.probe.tol * np.maximum(1.0, np.abs(self.best))

    @property
    def error(self):
        """The best extrapolants' errors, each at least its window's rounding floor."""
        return np.fmax(self.best_err, self.best_floor)


def _circle_orders(evalfn, centers, rhos, orders, unit):
    """D^N g(centers)/N! for each row N of ``orders`` from one product of circles with nodes ``unit``,
    and max |g| on the circles times rho^-N."""
    p, nodes = len(centers), len(unit)
    rings = [c + rho * unit for c, rho in zip(centers, rhos)]
    grids = np.meshgrid(*rings, indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=-1)
    vals = np.asarray(evalfn(pts), dtype=complex).reshape((nodes,) * p + (-1,))
    spec = np.fft.fftn(vals, axes=tuple(range(p))) / nodes**p
    coeff = spec[tuple(orders.T)]
    size = np.abs(vals).max(axis=tuple(range(p)))[None]
    for m, rho in zip(orders.T.tolist(), rhos):
        scale = np.array([rho ** -k for k in m])[:, None]
        coeff, size = coeff * scale, size * scale
    return coeff, size  # each (n_orders, B)


def per_rung_tracker(evalfn, sectors, orders, probe):
    """The reference loop's tracker after its last in-sector rung."""
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
    order_arr = np.asarray(orders, dtype=int).reshape(len(orders), p)
    unit = np.exp(1j * (2.0 * math.pi * np.arange(probe.circle_nodes) / probe.circle_nodes))
    for r in probe.radii():
        centers = [r * cmath.exp(1j * t) for t in thetas]
        if not all(s.contains(c) for s, c in zip(sectors, centers)):
            continue
        rhos = [_CIRCLE_FRAC * s.boundary_distance(c) for s, c in zip(sectors, centers)]
        sample, size = _circle_orders(evalfn, centers, rhos, order_arr, unit)
        if tracker is None:
            tracker = _LadderTracker(sample.shape, probe)
        tracker.push(r, sample, size)
    if tracker is None or not tracker.extrap:
        raise ProbeError("radius ladder produced no extrapolants (probe outside sector?)")
    return tracker


def per_rung_ladder(evalfn, sectors, orders, probe):
    """The reference for ``axis_coefficient_ladder``: the same four arrays, rung by rung."""
    tracker = per_rung_tracker(evalfn, sectors, orders, probe)
    return tracker.best, tracker.error, tracker.converged, tracker.best_radius


def assert_identical(got, want):
    """Equal reports, with every array of the same dtype and the same bits."""
    if isinstance(want, (tuple, list)):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert_identical(g, w)
    elif isinstance(want, np.ndarray):
        assert got.dtype == want.dtype and np.array_equal(got, want), np.argwhere(got != want)
    else:
        assert got == want


def linear_form_callback(weights, ripple):
    """Columns 1 / (1 - z . w), one per column w of ``weights``.

    The last column adds ``ripple`` times a term no ladder settles.
    """

    def evalfn(pts):
        vals = 1.0 / (1.0 - pts @ weights)
        vals[:, -1] += ripple * np.cos(40.0 / np.abs(pts).sum(axis=1))
        return vals

    return evalfn


@st.composite
def ladder_cases(draw):
    """(evalfn, sectors, orders, probe) over 1 or 2 axes, 1-3 columns and bounded or unbounded sectors."""
    p = draw(st.sampled_from([1, 2]))
    cols = draw(st.integers(1, 3))
    nodes = draw(st.sampled_from([12, 24, 48, 64, 100, 128]))
    half = st.floats(0.3, 1.5)
    rho = st.one_of(st.just(math.inf), st.floats(0.15, 1.0))
    sectors = [Sector(-h, h, r) for h, r in draw(st.lists(st.tuples(half, rho), min_size=p, max_size=p))]
    weight = st.builds(lambda m, t: m * cmath.exp(1j * t), st.floats(0.1, 0.6), st.floats(-PI, PI))
    weights = np.asarray(draw(st.lists(weight, min_size=p * cols, max_size=p * cols))).reshape(p, cols)
    ripple = draw(st.sampled_from([0.0, 0.0, 1e-9, 1e-5]))
    index = st.tuples(*[st.integers(0, 5)] * p)
    orders = [(0,) * p] if draw(st.integers(0, 3)) == 0 else draw(st.lists(index, min_size=1, max_size=4, unique=True))
    probe = ProbeSpec(tol=10.0 ** draw(st.floats(-13, -4)), circle_nodes=nodes)
    return linear_form_callback(weights, ripple), sectors, orders, probe


def rat2_interpolant_ladders():
    """The interpolate subcommand's ladders: the interpolant's constants, then its outer ladder per axis."""
    func = rat2_interpolant()
    outer = ProbeSpec(r0=0.2, ratio=0.75, circle_nodes=128)
    points = [(0.1,), (0.2 + 0.1j,), (0.3,)]
    found = [element_coefficients([func], (axis,), [(k,) for k in range(5)], outer, points) for axis in (0, 1)]
    return func.provenance, found


# workload callbacks, each run once through the array pass and once through the reference
_WORKLOAD_LADDERS = {
    "rat2-slice-orders-0-12": lambda: element_coefficients(
        [testbed.get("rat2").fn], (0,), [(k,) for k in range(13)], ProbeSpec(tol=1e-5), [(0.1 + 0.03j,), (0.25,)]
    ),
    "rat2-value": lambda: element_coefficients([testbed.get("rat2").fn], (0,), [(0,)], ProbeSpec(), [(0.1,)]),
    "rat2-joint": lambda: element_coefficients(
        [testbed.get("rat2").fn], (0, 1), list(itertools.product(range(3), repeat=2)), ProbeSpec(), [()]
    ),
    "rat2-first-order-elements": lambda: element_coefficients(
        testbed.rat2_total_family(cap=4).sequence(0), (0,), [(k,) for k in range(4)], ProbeSpec(), [()]
    ),
    "criterion-7-coherence": lambda: check_coherence(criterion_seven_family(), 1e-6, max_order=3),
    "rat2-interpolant": rat2_interpolant_ladders,
}


def neville_zero(xs, ys):
    """Neville's recursion to radius 0 over every five consecutive rungs (xs, ys), along the first axis."""
    p = np.asarray(ys, dtype=complex)
    x = np.asarray(xs, dtype=float).reshape((-1,) + (1,) * (p.ndim - 1))
    for j in range(1, _WINDOW):
        p = (p[:-1] * x[j:] - p[1:] * x[:-j]) / (x[j:] - x[:-j])
    return p


class TestWindowWeights:
    """The ladder's fixed extrapolation weights against 30-digit arithmetic and against Neville's recursion."""

    @pytest.mark.parametrize("q, lebesgue", [(0.7, 55.227), (0.75, 118.405)])
    def test_against_mpmath(self, q, lebesgue):
        # the weights that extrapolate every polynomial of degree < 5 exactly to 0, from the
        # Vandermonde system sum_i w_i x_i^k = [k == 0] on the nodes x_i = q^i
        with mpmath.workdps(30):
            x = [mpmath.mpf(q) ** i for i in range(_WINDOW)]
            exact = mpmath.lu_solve(mpmath.matrix([[xi**k for xi in x] for k in range(_WINDOW)]),
                                    mpmath.matrix([1] + [0] * (_WINDOW - 1)))
            assert abs(sum(exact) - 1) < mpmath.mpf(10) ** -28
            assert round(float(sum(abs(w) for w in exact)), 3) == lebesgue
            for w, want in zip(window_weights(q), exact):
                assert abs(w - want) <= 8 * np.finfo(float).eps * abs(want)

    @pytest.mark.parametrize("probe", [ProbeSpec(), ProbeSpec(r0=0.2, ratio=0.75)],
                             ids=["ratio-0.7", "ratio-0.75"])
    def test_match_neville_on_the_ladder_radii(self, probe):
        # the weights assume exactly geometric nodes; the ladder's radii r0 * ratio**k are rounded
        rng = np.random.default_rng(20250808)
        radii = probe.radii()
        weights = window_weights(probe.ratio)
        lebesgue = sum(abs(w) for w in weights)
        n = len(radii) - _WINDOW + 1
        for _ in range(50):
            y = rng.uniform(-1, 1, (len(radii), 8)) + 1j * rng.uniform(-1, 1, (len(radii), 8))
            fixed = sum(w * y[i : i + n] for i, w in enumerate(weights))
            bound = 4 * lebesgue * np.finfo(float).eps * np.abs(y).max()
            assert np.abs(fixed - neville_zero(radii, y)).max() <= bound


class TestLadderReference:
    """The array-pass ladder returns the per-rung loop's four arrays, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(ladder_cases())
    def test_equals_per_rung_loop(self, case):
        try:
            want = per_rung_ladder(*case)
        except ProbeError:
            with pytest.raises(ProbeError):
                axis_coefficient_ladder(*case)
            return
        assert_identical(axis_coefficient_ladder(*case), want)

    @pytest.mark.parametrize("name", list(_WORKLOAD_LADDERS))
    def test_workload_ladders(self, name, monkeypatch):
        got = _WORKLOAD_LADDERS[name]()
        monkeypatch.setattr(families, "axis_coefficient_ladder", per_rung_ladder)
        assert_identical(got, _WORKLOAD_LADDERS[name]())

    def test_five_rungs_read_nothing_and_four_raise(self):
        # five in-sector rungs (0.3 * 0.7**k for k = 15..19 lie below 0.0017) make one
        # extrapolant and no difference: nothing is read
        evalfn = linear_form_callback(np.asarray([[0.5]]), 0.0)
        five = [Sector(-1.0, 1.0, 0.0017)]
        got = axis_coefficient_ladder(evalfn, five, [(1,)], ProbeSpec())
        assert_identical(got, per_rung_ladder(evalfn, five, [(1,)], ProbeSpec()))
        assert_identical(got, (np.zeros((1, 1), complex), np.full((1, 1), np.inf), np.zeros((1, 1), bool),
                               np.zeros((1, 1))))
        # four in-sector rungs (k = 16..19) make no extrapolant
        with pytest.raises(ProbeError, match="no extrapolants"):
            axis_coefficient_ladder(evalfn, [Sector(-1.0, 1.0, 0.0012)], [(1,)], ProbeSpec())

    def test_two_extrapolants_never_converge(self):
        # six in-sector rungs (k = 14..19 lie below 0.0025) make two extrapolants that agree far
        # within tol, and one difference: no window has an error estimate, so nothing is read
        evalfn = linear_form_callback(np.asarray([[0.5]]), 0.0)
        six = [Sector(-1.0, 1.0, 0.0025)]
        extrap = np.asarray(per_rung_tracker(evalfn, six, [(0,)], ProbeSpec()).extrap)
        assert len(extrap) == 2 and abs(extrap[1] - extrap[0]).max() <= 1e-4 * ProbeSpec().tol
        got = axis_coefficient_ladder(evalfn, six, [(0,)], ProbeSpec())
        assert_identical(got, per_rung_ladder(evalfn, six, [(0,)], ProbeSpec()))
        assert_identical(got, (np.zeros((1, 1), complex), np.full((1, 1), np.inf), np.zeros((1, 1), bool),
                               np.zeros((1, 1))))

    def test_diverging_column_stays_unconverged(self):
        # e_1 - e_0 is within tol, but every later difference is larger and they grow past 1e5
        # as the circles' rounding grows like rho^-6: e_1 is picked, with error |e_2 - e_1|
        sectors = [Sector(-1.0, 1.0, math.inf), Sector(-1.0, 1.0, 0.1875)]
        evalfn, probe = linear_form_callback(np.asarray([[0.25], [0.45j]]), 0.0), ProbeSpec(tol=1e-5, circle_nodes=12)
        tracker = per_rung_tracker(evalfn, sectors, [(2, 4)], probe)
        diffs = np.abs(np.diff(np.asarray(tracker.extrap)[:, 0, 0]))
        assert diffs[0] <= probe.tol < diffs[1:].min() and diffs.max() > 1e5
        value, _, flags, radius = axis_coefficient_ladder(evalfn, sectors, [(2, 4)], probe)
        assert radius[0, 0] == tracker.radii[_WINDOW] and value[0, 0] == tracker.extrap[1][0, 0]
        assert not flags[0, 0]

    @settings(max_examples=60, deadline=None)
    @given(ladder_cases())
    def test_flag_is_the_picked_estimate_within_tol(self, case):
        # window j's estimate is the larger of the two extrapolant differences ending at e_j, e_1
        # taking e_2's; the first window of least estimate gives the value, and its estimate the flag
        try:
            tracker = per_rung_tracker(*case)
        except ProbeError:
            return
        e, tol = np.asarray(tracker.extrap), case[3].tol

        def estimate(j, o, b):
            k = max(j, 2)
            worst = max(abs(e[k, o, b] - e[k - 1, o, b]), abs(e[k - 1, o, b] - e[k - 2, o, b]))
            return math.inf if math.isnan(worst) else worst

        value, _, flags, radius = axis_coefficient_ladder(*case)
        for o, b in np.ndindex(flags.shape):
            estimates = [estimate(j, o, b) for j in range(1, len(e))] if len(e) >= 3 else []
            if not estimates or min(estimates) == math.inf:
                assert radius[o, b] == 0 and value[o, b] == 0 and not flags[o, b]
                continue
            j = tracker.radii.index(radius[o, b]) - (_WINDOW - 1)
            assert j == 1 + estimates.index(min(estimates)) and value[o, b] == e[j, o, b]
            assert flags[o, b] == (estimates[j - 1] <= tol * max(1.0, abs(value[o, b])))


class TestLadderEvaluation:
    """A ladder evaluates every in-sector rung in one call, whatever its orders."""

    weights = np.asarray([[0.5, 0.3j], [0.2, -0.4]])

    def counted(self, calls):
        evalfn = linear_form_callback(self.weights, 0.0)

        def counting(pts):
            calls.append(len(pts))
            return evalfn(pts)

        return counting

    @pytest.mark.parametrize(
        "rho, rungs, orders",
        [(math.inf, 20, [(1, 0), (0, 2)]), (0.25, 19, [(1, 0), (0, 2)]), (0.25, 19, [(0, 0)])],
        ids=["inf-20", "0.25-19", "value-0.25-19"],
    )
    def test_one_call_per_circle_ladder(self, rho, rungs, orders):
        # r0 = 0.3 lies outside the bounded sector: its rung is not evaluated;
        # a pure-value ladder reads order 0 off the same circles
        calls = []
        probe = ProbeSpec(circle_nodes=16, tol=1e-15)
        axis_coefficient_ladder(self.counted(calls), [Sector(-1.0, 1.0, rho)] * 2, orders, probe)
        assert calls == [rungs * 16**2]
