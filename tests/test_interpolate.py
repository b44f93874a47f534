import cmath
import math

import numpy as np
import pytest

from polygevrey import (
    CoherenceError,
    DomainError,
    MultiIndexSeries,
    Polysector,
    ProbeError,
    ProbeSpec,
    SampledFunction,
    Sector,
    TotalFamily,
    check_coherence,
    extract_element,
    interpolate_first_order,
)
from polygevrey import testbed
from polygevrey.families import element_coefficients
from polygevrey.transforms import laplace_monomials

PI = math.pi
OPENING = 1.2
# the probe of interpolate_first_order's ladder for the constants a_{m,n}
CONSTRUCTION_PROBE = ProbeSpec(tol=1e-11, circle_nodes=128)


def host2(opening=OPENING):
    return Polysector([Sector(-opening, opening, math.inf)] * 2)


def constant_sequences(host, values0, values1):
    """A total family whose only elements are the constants f_{1n} = values0[n] and f_{2m} = values1[m]."""

    def mk(axis, v):
        return SampledFunction(host.axes_subset((1 - axis,)), lambda p, _v=v: np.full(len(p), _v, dtype=complex))

    elements = {
        ((axis,), (n,)): mk(axis, v) for axis, values in enumerate((values0, values1)) for n, v in enumerate(values)
    }
    return TotalFamily(2, host, elements, (len(values0) - 1, len(values1) - 1))


class TestTrivialFamilies:
    def test_zero_family(self):
        fam = constant_sequences(host2(), [0.0] * 6, [0.0] * 6)
        func = interpolate_first_order(fam, (0.9, 0.9), coeff_cap=4)
        assert abs(func.eval_many([(0.1, 0.1)])[0]) < 1e-10
        res = extract_element(func, (0,), (0,), (0.1,))
        assert abs(res.value) < 1e-8

    def test_delta_family_interpolates_one(self):
        fam = constant_sequences(host2(), [1.0, 0, 0, 0, 0, 0], [1.0, 0, 0, 0, 0, 0])
        func = interpolate_first_order(fam, (0.9, 0.9), coeff_cap=4)
        assert func.provenance == "closed-form; 0 of 30 constants a_(m,n) unconverged; corrected orders m <= 4 used"
        res0 = extract_element(func, (0,), (0,), (0.1,))
        assert res0.value == pytest.approx(1.0, abs=1e-6)
        res1 = extract_element(func, (1,), (0,), (0.1,))
        assert res1.value == pytest.approx(1.0, abs=1e-6)
        # closed form of the two passes for this family
        z1, z2 = 0.17, 0.23
        h1 = 1 - math.exp(-0.9 / z1)
        h2 = math.exp(-0.9 / z1) * (1 - math.exp(-0.9 / z2))
        assert func.eval_many([(z1, z2)])[0] == pytest.approx(h1 + h2, rel=1e-9)

    def test_two_passes_in_closed_form(self):
        # the family of P = sum p_{hk} z1^h z2^k, coherent as the precheck asks:
        # f_{1n}(z2) = sum_k p_{nk} z2^k, f_{2m}(z1) = sum_h p_{hm} z1^h and a_{m,n} = p_{nm}, so
        # h1 = sum_n f_{1n}(z2) L1[n](z1) and h2 = sum_m (f_{2m}(z1) - sum_n p_{nm} L1[n](z1)) L2[m](z2)
        p = {(0, 0): 0.7, (1, 0): -0.2, (2, 0): 0.05, (0, 1): 0.3, (1, 1): 0.4, (0, 2): -0.1, (2, 3): 0.02}
        coef = np.zeros((4, 4))
        for hk, v in p.items():
            coef[hk] = v
        fam = testbed.polynomial_family(MultiIndexSeries(2, p, (3, 3)), host2())
        func = interpolate_first_order(fam, (0.9, 0.8), coeff_cap=3)
        assert func.provenance == "closed-form; 0 of 16 constants a_(m,n) unconverged; corrected orders m <= 3 used"
        z1, z2 = 0.21 + 0.05j, 0.13 - 0.02j
        lap1 = laplace_monomials(0.9, z1, 3)[:, 0]
        lap2 = laplace_monomials(0.8, z2, 3)[:, 0]
        h1 = coef @ z2 ** np.arange(4) @ lap1
        corrected = z1 ** np.arange(4) @ coef - coef.T @ lap1
        assert func.eval_many([(z1, z2)])[0] == pytest.approx(h1 + corrected @ lap2, rel=1e-12)


class TestValidation:
    def test_dimension(self):
        host = Polysector([Sector(-0.5, 0.5, math.inf)])
        fam = TotalFamily(1, host, {((0,), (0,)): SampledFunction.constant(1.0)}, (0,))
        with pytest.raises(DomainError):
            interpolate_first_order(fam, (0.9, 0.9), coeff_cap=8)

    def test_opening_exceeds_pi(self):
        # no sector wider than pi fits in a half-plane
        wide = Polysector([Sector(-1.7, 1.7, math.inf)] * 2)
        fam = constant_sequences(wide, [1.0], [1.0])
        with pytest.raises(DomainError, match="half-plane"):
            interpolate_first_order(fam, (0.9, 0.9), coeff_cap=8)

    def test_negative_coeff_cap(self, monkeypatch):
        probes = record_probes(monkeypatch)
        fam = constant_sequences(host2(), [1.0], [1.0])
        with pytest.raises(DomainError, match="coeff_cap must be >= 0, got -1"):
            interpolate_first_order(fam, (0.9, 0.9), coeff_cap=-1)
        assert probes == []

    def test_sector_outside_half_plane(self, monkeypatch):
        # arg z0 = 0.5 on axis 0 puts its half-plane at (-1.07, 2.07), which misses -1.2; no ladder starts
        probes = record_probes(monkeypatch)
        fam = constant_sequences(host2(), [1.0], [1.0])
        with pytest.raises(DomainError, match="axis 0 sector not contained in the half-plane"):
            interpolate_first_order(fam, (0.9 * cmath.exp(0.5j), 0.9), coeff_cap=8)
        assert probes == []

    @pytest.mark.parametrize("values0, values1", [([1.0], []), ([], [1.0])])
    def test_empty_axis_rejected(self, values0, values1):
        fam = constant_sequences(host2(), values0, values1)
        with pytest.raises(DomainError, match="at least one first-order element per axis"):
            interpolate_first_order(fam, (0.9, 0.9), coeff_cap=8)

    def test_incoherent_family_rejected(self):
        # axis-0 data says the (0,0) constant is 1; axis-1 data says 2
        fam = constant_sequences(host2(), [1.0, 0.0], [2.0, 0.0])
        with pytest.raises(CoherenceError):
            interpolate_first_order(fam, (0.9, 0.9), coeff_cap=8)

    def test_unconverged_precheck_rejected(self):
        # coherent values, but f_{10} carries noise no radius ladder can settle:
        # a precheck that converged on no pair has verified nothing
        host = host2()
        fam = constant_sequences(host, [1.0, 0.0], [1.0, 0.0])
        noisy = SampledFunction(
            host.axes_subset((1,)),
            lambda p: 1.0 + 1e-4 * np.sin(1e4 * np.abs(p[:, 0])),
        )
        fam = TotalFamily(2, host, {**fam.elements, ((0,), (0,)): noisy}, fam.index_bound)
        with pytest.raises(CoherenceError) as info:
            interpolate_first_order(fam, (0.9, 0.9), coeff_cap=8)
        assert info.value.report.probe_failures
        assert not info.value.report.failures

    def test_unconverged_constants_rejected(self):
        # noise a hundred times smaller passes the precheck at 1e-3 but not the
        # ladder for the a_{m,n}, which runs at tolerance 1e-11
        host = host2()
        fam = constant_sequences(host, [1.0, 0.0], [1.0, 0.0])
        noisy = SampledFunction(
            host.axes_subset((1,)),
            lambda p: 1.0 + 1e-6 * np.sin(1e4 * np.abs(p[:, 0])),
        )
        fam = TotalFamily(2, host, {**fam.elements, ((0,), (0,)): noisy}, fam.index_bound)
        with pytest.raises(ProbeError, match="low-order axis-1 constants unconverged"):
            interpolate_first_order(fam, (0.9, 0.9), coeff_cap=8)


class TestRat2Smoke:
    def test_axis_constants(self):
        # a_{m,n}, the m-th coefficient of f_{1n} = (-1)^n / (1 + z2), is (-1)^(n+m);
        # one ladder with the construction probe, every f_{1n} a batch column
        fam = testbed.rat2_total_family(opening=OPENING, cap=16)
        vals, errs, conv, _ = (
            a[..., 0]
            for a in element_coefficients(fam.sequence(0), (0,), [(m,) for m in range(11)], CONSTRUCTION_PROBE)
        )
        assert vals.shape == (11, 17)
        assert np.all(conv[:2])
        exact = (-1.0) ** np.add.outer(np.arange(11), np.arange(17))
        # orders 0..2 at 1e-9; higher orders lose about two digits per order
        assert np.max(np.abs(vals[:3] - exact[:3])) <= 1e-9
        assert np.max(np.abs(vals - exact)) <= 0.1

    def test_provenance_counts_unconverged_constants(self):
        # the README interpolate config: the ladder leaves many a_{m,n} of orders
        # m >= 2 unconverged, so the interpolant stops at order 1 and says so
        fam = testbed.rat2_total_family(opening=OPENING, cap=16)
        func = interpolate_first_order(fam, (0.92, 0.92), coeff_cap=10)
        _, errs, conv, _ = (
            a[..., 0]
            for a in element_coefficients(fam.sequence(0), (0,), [(m,) for m in range(11)], CONSTRUCTION_PROBE)
        )
        assert np.all(conv[:2])
        bad = int(np.count_nonzero(~conv))
        assert bad > 0
        assert not np.all(conv[2])
        assert func.provenance == (
            f"closed-form; {bad} of {conv.size} constants a_(m,n) unconverged, "
            f"worst probe error {float(np.max(errs[~conv])):.3e}; corrected orders m <= 1 used"
        )

    def test_low_order_extraction(self):
        # smoke-scale version of the full pipeline: low caps, order <= 1
        fam = testbed.rat2_total_family(opening=OPENING, cap=10)
        func = interpolate_first_order(fam, (0.9, 0.9), coeff_cap=6)
        probe = ProbeSpec(r0=0.2, ratio=0.75, tol=1e-5, circle_nodes=128)
        for axis in (0, 1):
            for order in (0, 1):
                res = extract_element(func, (axis,), (order,), (0.05,), probe=probe)
                want = (-1.0) ** order / 1.05
                assert res.value == pytest.approx(want, abs=5e-5)

    def test_endpoints_beyond_one(self):
        # a finite family needs no bound on |z0|: from z0 = (3, 3) the README
        # construction gives back orders 0-2 on both axes within its tol 1e-4
        fam = testbed.rat2_total_family(opening=OPENING, cap=16)
        func = interpolate_first_order(fam, (3.0, 3.0), coeff_cap=10)
        outer = ProbeSpec(r0=0.2, ratio=0.75, tol=1e-5, circle_nodes=128)
        points = [(0.02,), (0.026,), (0.034,)]
        for axis in (0, 1):
            vals, _, _, _ = element_coefficients([func], (axis,), [(k,) for k in range(3)], outer, points)
            for k, elem in enumerate(fam.sequence(axis)[:3]):
                assert np.max(np.abs(vals[k, 0] - elem.eval_many(points))) <= 1e-4

    def test_value_close_to_target_function(self):
        fam = testbed.rat2_total_family(opening=OPENING, cap=12)
        func = interpolate_first_order(fam, (0.9, 0.9), coeff_cap=6)
        # differs from 1/((1+z1)(1+z2)) only by terms flat in each variable
        z = (0.09, 0.11)
        target = 1.0 / ((1 + z[0]) * (1 + z[1]))
        flat_scale = math.exp(-0.9 / z[0]) + math.exp(-0.9 / z[1])
        assert abs(func.eval_many([z])[0] - target) < 10 * flat_scale


class TestDistinctCoordinates:
    """The interpolant builds each table and evaluates each element once per distinct coordinate."""

    @staticmethod
    def ladder_grid():
        # one rung of a ladder along axis 0: 128 circle nodes, each paired with 3 fixed z2
        nodes = 0.05 + 0.02 * np.exp(2j * np.pi * np.arange(128) / 128)
        return np.asarray([(z1, z2) for z2 in (0.02, 0.026, 0.034) for z1 in nodes])

    @staticmethod
    def rat2_interpolant():
        fam = testbed.rat2_total_family(opening=OPENING, cap=10)
        return interpolate_first_order(fam, (0.9, 0.9), coeff_cap=6)

    def test_one_table_per_distinct_coordinate(self, monkeypatch):
        from polygevrey import transforms

        func = self.rat2_interpolant()
        calls = []
        kernel = transforms.laplace_monomials

        def counted(z0, z, top):
            calls.append(np.size(z))
            return kernel(z0, z, top)

        monkeypatch.setattr(transforms, "laplace_monomials", counted)
        func.eval_many(self.ladder_grid())
        assert sorted(calls) == [3, 128]  # not 2 x 384

    def test_elements_on_distinct_coordinates(self, monkeypatch):
        # the axis-0 elements live on axis 1 (3 distinct values), the axis-1 elements on axis 0 (128)
        func = self.rat2_interpolant()
        sizes = []
        eval_many = SampledFunction.eval_many

        def counted(self, pts):
            sizes.append(np.shape(pts))
            return eval_many(self, pts)

        monkeypatch.setattr(SampledFunction, "eval_many", counted)
        func.eval_many(self.ladder_grid())
        assert sizes[0] == (384, 2) and set(sizes[1:]) == {(3, 1), (128, 1)}  # the interpolant, then its elements

    @staticmethod
    def scattered_points():
        # not a product grid: some coordinates repeat across rows, some occur once
        z1 = [0.05, 0.05 + 0.01j, 0.03, 0.05, 0.041 - 0.004j, 0.03, 0.05 + 0.01j, 0.062]
        z2 = [0.02, 0.02, 0.035 + 0.002j, 0.027, 0.02, 0.044, 0.027, 0.035 + 0.002j]
        return np.asarray(list(zip(z1, z2)))

    def test_matches_pointwise_evaluation(self):
        # bit for bit, on a ladder rung and on scattered points: every sum over orders runs in einsum's fixed order
        func = self.rat2_interpolant()
        for pts in (self.ladder_grid(), self.scattered_points()):
            batch = func.eval_many(pts)
            alone = np.asarray([func.eval_many([p])[0] for p in pts])
            assert np.array_equal(batch, alone)

    def test_no_shared_tables_and_one_unique_per_column(self, monkeypatch):
        # the interpolant builds its own two tables: no LaplaceTables, and one np.unique per column and call
        from polygevrey.transforms import LaplaceTables

        builds, uniques = [], []
        init, unique = LaplaceTables.__init__, np.unique

        def counted_init(self, *args):
            builds.append(args)
            init(self, *args)

        def counted_unique(*args, **kwargs):
            uniques.append(np.shape(args[0]))
            return unique(*args, **kwargs)

        monkeypatch.setattr(LaplaceTables, "__init__", counted_init)
        func = self.rat2_interpolant()
        monkeypatch.setattr(np, "unique", counted_unique)
        func.eval_many(self.ladder_grid())
        assert builds == [] and uniques == [(384,), (384,)]


def record_probes(monkeypatch) -> list:
    """Record the probe of every radius ladder run from now on."""
    from polygevrey import families

    probes = []
    ladder = families.axis_coefficient_ladder

    def recorded(evalfn, sectors, orders, probe):
        probes.append(probe)
        return ladder(evalfn, sectors, orders, probe)

    monkeypatch.setattr(families, "axis_coefficient_ladder", recorded)
    return probes


class TestProbes:
    """Every coherence check probes by one rule; the constants ladder by the construction's own."""

    @pytest.mark.parametrize("tol", [1e-3, 1e-6])
    def test_coherence_checks_probe_at_their_tolerance(self, monkeypatch, tol):
        fam = testbed.rat2_total_family(opening=OPENING, cap=4)
        probes = record_probes(monkeypatch)
        assert check_coherence(fam, tol, max_order=1).ok()
        n_coherence = len(probes)
        assert check_coherence(fam.first_order(1), tol, 1).ok()
        assert n_coherence > 0 and len(probes) == n_coherence + 2
        assert probes == [ProbeSpec(tol=tol)] * (n_coherence + 2)

    def test_precheck_default(self, monkeypatch):
        # the precheck probes at its fixed tolerance 1e-3, then the construction's ladder runs
        fam = testbed.rat2_total_family(opening=OPENING, cap=4)
        probes = record_probes(monkeypatch)
        interpolate_first_order(fam, (0.9, 0.9), coeff_cap=2)
        assert probes == [ProbeSpec(tol=1e-3)] * 2 + [CONSTRUCTION_PROBE]
