import math

import mpmath
import numpy as np
import pytest

from polygevrey import UnknownEntryError, check_coherence
from polygevrey import testbed
from polygevrey.catalogue import CATALOGUE
from polygevrey.transforms import truncated_laplace_with_error

PI = math.pi


class TestRegistry:
    def test_ids(self):
        assert set(testbed.ids()) >= {"flat1", "euler", "rat2", "poly", "brg_const"}

    def test_unknown(self):
        with pytest.raises(UnknownEntryError):
            testbed.get("nope")

    def test_notes_cover_known(self):
        for entry_id in testbed.ids():
            entry = testbed.get(entry_id)
            assert set(entry.known) == set(entry.notes)

    def test_entries_match_catalogue(self):
        # every builder is listed, and takes its dim and notes from the table
        assert testbed.ids() == sorted(CATALOGUE) == sorted(testbed._BUILDERS)
        for entry_id, (dim, notes) in CATALOGUE.items():
            entry = testbed.get(entry_id)
            assert (entry.id, entry.dim, entry.notes) == (entry_id, dim, notes)
            assert entry.fn.domain.dim == dim

    def test_a_type_law_comes_with_a_series_and_z0(self):
        # type-fit gevrey and verify remainder build the family of any entry with a law from these
        with_law = [e for e in map(testbed.get, testbed.ids()) if "type_profile" in e.known]
        assert [e.id for e in with_law] == ["brg_const", "euler"]
        assert all({"series", "z0"} <= set(e.known) for e in with_law)

    def test_known_without_note_rejected(self):
        entry = testbed.get("euler")
        with pytest.raises(ValueError):
            testbed.RegistryEntry(entry.id, entry.dim, entry.fn, {**entry.known, "extra": 1}, entry.notes)
        with pytest.raises(ValueError):
            testbed.RegistryEntry(entry.id, entry.dim, entry.fn, {}, entry.notes)


class TestFlat1:
    def test_eval(self):
        entry = testbed.get("flat1")
        assert entry.fn.eval_many([(0.1,)])[0] == pytest.approx(math.exp(-20.0), rel=1e-12)

    def test_rate_fit_matches_known(self):
        from polygevrey import fit_flat_type

        entry = testbed.get("flat1")
        radii = [0.5 * 0.7**k for k in range(10)]
        mags = np.abs(entry.fn.eval_many([(r,) for r in radii]))
        samples = [((r,), mag) for r, mag in zip(radii, mags)]
        fit = fit_flat_type(samples)
        assert fit.rates[0] == pytest.approx(entry.known["flat_rates"][0], rel=1e-10)


class TestRat2:
    def test_family_slices(self):
        entry = testbed.get("rat2")
        fam = entry.known["total_family"]
        el = fam.element((0,), (2,))
        assert el.eval_many([(0.25,)])[0] == pytest.approx(0.8)
        el1 = fam.element((0,), (1,))
        assert el1.eval_many([(0.25,)])[0] == pytest.approx(-0.8)
        assert fam.element((0, 1), (1, 1)).eval_many([()])[0] == 1.0

    def test_known_family_coherent_tight(self):
        fam = testbed.rat2_total_family(cap=3)
        rep = check_coherence(fam, 1e-8, max_order=2)
        assert rep.ok()
        assert not rep.probe_failures
        assert rep.max_residual < 1e-8

    def test_eval(self):
        entry = testbed.get("rat2")
        assert entry.fn.eval_many([(1.0, 1.0)])[0] == pytest.approx(0.25)


class TestPoly:
    def test_family_coherent(self):
        entry = testbed.get("poly")
        rep = check_coherence(entry.known["total_family"], 1e-8, max_order=2)
        assert rep.ok()
        assert rep.max_residual < 1e-8

    def test_app_identity(self):
        from polygevrey import app_n_many

        entry = testbed.get("poly")
        fam = entry.known["total_family"]
        z = [(0.3 * np.exp(0.2j), 0.5 * np.exp(-0.4j))]
        assert app_n_many(fam, [(3, 4)], z)[0, 0] == pytest.approx(entry.fn.eval_many(z)[0], abs=1e-14)


class TestBrgConst:
    def test_closed_form(self):
        entry = testbed.get("brg_const")
        z0 = entry.known["z0"][0]
        for z in (0.1, 0.3):
            assert entry.fn.eval_many([(z,)])[0] == pytest.approx(1 - math.exp(-z0.real / z), rel=1e-12)

    def test_product_form(self):
        entry = testbed.get("brg_const2")
        z = (0.2, 0.4)
        want = (1 - math.exp(-0.5 / 0.2)) * (1 - math.exp(-0.5 / 0.4))
        assert entry.fn.eval_many([z])[0] == pytest.approx(want, rel=1e-12)


class TestEuler:
    def test_series_alternating_factorials(self):
        ser = testbed.get("euler").known["series"]
        assert ser[(3,)] == pytest.approx(-6.0)
        assert ser[(4,)] == pytest.approx(24.0)

    def test_profile_cosine(self):
        prof = testbed.get("euler").known["type_profile"][0]
        assert prof.fn(0.0) == pytest.approx(0.5)
        assert prof.fn(PI / 3) == pytest.approx(0.25)

    def test_eval_against_series_asymptotics(self):
        # F(z) ~ 1 - z + 2 z^2 - ... near 0; crude check at a small radius
        entry = testbed.get("euler")
        z = 0.02
        val = complex(entry.fn.eval_many([(z,)])[0])
        partial = 1 - z + 2 * z * z - 6 * z**3
        assert abs(val - partial) < 24 * z**4 * 2

    def test_closed_form_against_mpmath_and_reference_quadrature(self):
        # 60 seeded points, |z| in [1e-3, 50] (log-uniform), |arg z| < 1.55.  The degree-45
        # closed form is within 2e-15 of the 30-digit integral (1.2e-15); degree 40 is not
        # (4.0e-14).
        entry = testbed.get("euler")
        assert entry.fn.provenance == "closed-form"
        rng = np.random.default_rng(20251018)
        log_r = rng.uniform(math.log(1e-3), math.log(50.0), 60)
        zs = np.exp(log_r + 1j * rng.uniform(-1.55, 1.55, 60))
        got = entry.fn.eval_many(zs[:, None])
        with mpmath.workdps(30):
            want = np.array([
                complex(mpmath.quad(lambda t: mpmath.exp(-t / z) / (1 + t), [0, 0.5]) / z)
                for z in map(mpmath.mpc, zs)
            ])
        assert np.max(np.abs(got - want) / np.abs(want)) <= 2e-15
        gl15, _ = truncated_laplace_with_error(lambda t: 1 / (1 + t), 0.5, zs, 1e-12)
        assert np.max(np.abs(got - gl15) / np.abs(gl15)) <= 1e-14


class TestTypeConsistency:
    def test_no_wide_sector_claims_positive_flat_rate(self):
        # a flat rate > 0 on an axis of opening >= pi would force the zero
        # function; no registry entry may claim that combination
        for entry_id in testbed.ids():
            entry = testbed.get(entry_id)
            rates = entry.known.get("flat_rates")
            if rates is None:
                continue
            for sec, rate in zip(entry.fn.domain.sectors, rates):
                if rate > 0:
                    assert sec.opening < PI
