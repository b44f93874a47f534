import math

import numpy as np
import pytest

from polygevrey import (
    CoherenceError,
    DomainError,
    Polysector,
    ProbeError,
    ProbeSpec,
    SampledFunction,
    Sector,
    TotalFamily,
    TypeProfile,
    check_coherence,
    check_first_order_coherence,
    extract_element,
    interpolate_first_order,
)
from polygevrey import testbed
from polygevrey.families import element_coefficients
from polygevrey.transforms import laplace_monomials

PI = math.pi
OPENING = 1.2
# the probe of interpolate_first_order's ladder for the constants a_{m,n}
CONSTRUCTION_PROBE = ProbeSpec(r0=0.3, ratio=0.7, steps=20, tol=1e-11, circle_frac=0.75, circle_nodes=128)


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


def profiles(opening=OPENING, value=1.0):
    return [TypeProfile.constant(-opening, opening, value)] * 2


class TestTrivialFamilies:
    def test_zero_family(self):
        fam = constant_sequences(host2(), [0.0] * 6, [0.0] * 6)
        func = interpolate_first_order(
            fam, profiles(), (0.9, 0.9), coeff_cap=4, precheck_tol=None
        )
        assert abs(func.eval_many([(0.1, 0.1)])[0]) < 1e-10
        res = extract_element(func, (0,), (0,), (0.1,))
        assert abs(res.value) < 1e-8

    def test_delta_family_interpolates_one(self):
        fam = constant_sequences(host2(), [1.0, 0, 0, 0, 0, 0], [1.0, 0, 0, 0, 0, 0])
        func = interpolate_first_order(
            fam, profiles(), (0.9, 0.9), coeff_cap=4, precheck_tol=None
        )
        assert func.provenance == "closed-form; 0 of 30 constants a_(m,n) unconverged"
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
        # f_{1n} = c_n and f_{2m} = d_m constant: h1 = sum_n c_n L1[n](z1) and
        # h2 = sum_m (d_m - [m == 0] sum_n c_n L1[n](z1)) L2[m](z2)
        c = [0.7, -0.2, 0.05, 0.0]
        d = [0.7, 0.3, -0.1, 0.02]
        fam = constant_sequences(host2(), c, d)
        func = interpolate_first_order(fam, profiles(), (0.9, 0.8), coeff_cap=3, precheck_tol=None)
        z1, z2 = 0.21 + 0.05j, 0.13 - 0.02j
        lap1 = laplace_monomials(0.9, z1, 3)[:, 0]
        lap2 = laplace_monomials(0.8, z2, 3)[:, 0]
        h1 = np.dot(c, lap1)
        corrected = np.asarray(d, dtype=complex)
        corrected[0] -= h1
        assert func.eval_many([(z1, z2)])[0] == pytest.approx(h1 + np.dot(corrected, lap2), rel=1e-12)


class TestValidation:
    def test_dimension(self):
        host = Polysector([Sector(-0.5, 0.5, math.inf)])
        fam = TotalFamily(1, host, {((0,), (0,)): SampledFunction.constant(1.0)}, (0,))
        with pytest.raises(DomainError):
            interpolate_first_order(fam, profiles(), (0.9, 0.9))

    def test_opening_exceeds_pi(self):
        wide = Polysector([Sector(-1.7, 1.7, math.inf)] * 2)
        fam = constant_sequences(wide, [1.0], [1.0])
        prof = [TypeProfile.constant(-1.7, 1.7, 1.0)] * 2
        with pytest.raises(DomainError):
            interpolate_first_order(fam, prof, (0.9, 0.9))

    def test_z0_exceeds_profile_sup(self):
        fam = constant_sequences(host2(), [1.0], [1.0])
        with pytest.raises(DomainError):
            interpolate_first_order(fam, profiles(value=0.5), (0.9, 0.9))

    @pytest.mark.parametrize("values0, values1", [([1.0], []), ([], [1.0])])
    def test_empty_axis_rejected(self, values0, values1):
        fam = constant_sequences(host2(), values0, values1)
        with pytest.raises(DomainError, match="at least one first-order element per axis"):
            interpolate_first_order(fam, profiles(), (0.9, 0.9))

    def test_incoherent_family_rejected(self):
        # axis-0 data says the (0,0) constant is 1; axis-1 data says 2
        fam = constant_sequences(host2(), [1.0, 0.0], [2.0, 0.0])
        with pytest.raises(CoherenceError):
            interpolate_first_order(
                fam, profiles(), (0.9, 0.9), precheck_tol=1e-4
            )

    def test_unconverged_precheck_rejected(self):
        # coherent values, but f_{10} carries noise no radius ladder can settle:
        # a precheck that converged on no pair has verified nothing
        host = host2()
        fam = constant_sequences(host, [1.0, 0.0], [1.0, 0.0])
        noisy = SampledFunction(
            host.axes_subset((1,)),
            lambda p: 1.0 + 1e-5 * np.sin(1e4 * np.abs(p[:, 0])),
        )
        fam = TotalFamily(2, host, {**fam.elements, ((0,), (0,)): noisy}, fam.index_bound)
        with pytest.raises(CoherenceError) as info:
            interpolate_first_order(
                fam, profiles(), (0.9, 0.9), precheck_tol=1e-4
            )
        assert info.value.report.probe_failures
        assert not info.value.report.failures

    def test_unconverged_constants_rejected(self):
        # without the precheck, f_{10}'s noise reaches the ladder for the a_{m,n}
        host = host2()
        fam = constant_sequences(host, [1.0, 0.0], [1.0, 0.0])
        noisy = SampledFunction(
            host.axes_subset((1,)),
            lambda p: 1.0 + 1e-5 * np.sin(1e4 * np.abs(p[:, 0])),
        )
        fam = TotalFamily(2, host, {**fam.elements, ((0,), (0,)): noisy}, fam.index_bound)
        with pytest.raises(ProbeError, match="unconverged"):
            interpolate_first_order(fam, profiles(), (0.9, 0.9), precheck_tol=None)


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
        # the README interpolate config: orders >= 2 of the a_{m,n} are used
        # although the ladder leaves many unconverged, and the result says so
        fam = testbed.rat2_total_family(opening=OPENING, cap=16)
        func = interpolate_first_order(fam, profiles(), (0.92, 0.92), coeff_cap=10, precheck_tol=None)
        _, errs, conv, _ = (
            a[..., 0]
            for a in element_coefficients(fam.sequence(0), (0,), [(m,) for m in range(11)], CONSTRUCTION_PROBE)
        )
        assert np.all(conv[:2])
        bad = int(np.count_nonzero(~conv))
        assert bad > 0
        assert func.provenance == (
            f"closed-form; {bad} of {conv.size} constants a_(m,n) unconverged, "
            f"worst probe error {float(np.max(errs[~conv])):.3e}"
        )

    def test_low_order_extraction(self):
        # smoke-scale version of the full pipeline: low caps, order <= 1
        fam = testbed.rat2_total_family(opening=OPENING, cap=10)
        func = interpolate_first_order(fam, profiles(), (0.9, 0.9), coeff_cap=6, precheck_tol=None)
        probe = ProbeSpec(r0=0.2, ratio=0.75, steps=14, tol=1e-5, circle_frac=0.75, circle_nodes=128)
        for axis in (0, 1):
            for order in (0, 1):
                res = extract_element(func, (axis,), (order,), (0.05,), probe=probe)
                want = (-1.0) ** order / 1.05
                assert res.value == pytest.approx(want, abs=5e-5)

    def test_value_close_to_target_function(self):
        fam = testbed.rat2_total_family(opening=OPENING, cap=12)
        func = interpolate_first_order(fam, profiles(), (0.9, 0.9), coeff_cap=6, precheck_tol=None)
        # differs from 1/((1+z1)(1+z2)) only by terms flat in each variable
        z = (0.09, 0.11)
        target = 1.0 / ((1 + z[0]) * (1 + z[1]))
        flat_scale = math.exp(-0.9 / z[0]) + math.exp(-0.9 / z[1])
        assert abs(func.eval_many([z])[0] - target) < 10 * flat_scale


class TestDistinctCoordinates:
    """The interpolant evaluates its one-variable factors once per distinct coordinate."""

    @staticmethod
    def ladder_grid():
        # one rung of a ladder along axis 0: 128 circle nodes, each paired with 3 fixed z2
        nodes = 0.05 + 0.02 * np.exp(2j * np.pi * np.arange(128) / 128)
        return np.asarray([(z1, z2) for z2 in (0.02, 0.026, 0.034) for z1 in nodes])

    @staticmethod
    def rat2_interpolant():
        fam = testbed.rat2_total_family(opening=OPENING, cap=10)
        return interpolate_first_order(fam, profiles(), (0.9, 0.9), coeff_cap=6, precheck_tol=None)

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

    def test_matches_pointwise_evaluation(self):
        # not bit for bit: consts @ lap1 runs through BLAS and the sums over
        # orders through numpy reductions, whose summation order both change
        # with the number of points
        func = self.rat2_interpolant()
        pts = self.ladder_grid()
        batch = func.eval_many(pts)
        alone = np.asarray([func.eval_many([p])[0] for p in pts])
        assert np.all(np.abs(batch - alone) <= 1e-14 * np.abs(alone))


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
        assert check_first_order_coherence(fam, tol, max_order=1).ok()
        assert n_coherence > 0 and len(probes) == n_coherence + 2
        interpolate_first_order(fam, profiles(), (0.9, 0.9), coeff_cap=2, precheck_tol=tol)
        rule = ProbeSpec(steps=20, tol=tol)
        assert probes == [rule] * (n_coherence + 4) + [CONSTRUCTION_PROBE]

    def test_precheck_default(self, monkeypatch):
        fam = testbed.rat2_total_family(opening=OPENING, cap=4)
        probes = record_probes(monkeypatch)
        interpolate_first_order(fam, profiles(), (0.9, 0.9), coeff_cap=2)
        assert probes == [ProbeSpec(steps=20, tol=1e-3)] * 2 + [CONSTRUCTION_PROBE]
