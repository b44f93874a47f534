import math

import numpy as np
import pytest

from polygevrey import UnknownEntryError, check_coherence
from polygevrey import testbed
from polygevrey.catalogue import CATALOGUE
from polygevrey.families import ProbeSpec

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

    def test_known_without_note_rejected(self):
        entry = testbed.get("euler")
        with pytest.raises(ValueError):
            testbed.RegistryEntry(entry.id, entry.dim, entry.fn, {**entry.known, "extra": 1}, entry.notes)
        with pytest.raises(ValueError):
            testbed.RegistryEntry(entry.id, entry.dim, entry.fn, {}, entry.notes)


class TestFlat1:
    def test_eval(self):
        entry = testbed.get("flat1")
        assert entry.fn((0.1,)) == pytest.approx(math.exp(-20.0), rel=1e-12)

    def test_rate_fit_matches_known(self):
        from polygevrey import fit_flat_type

        entry = testbed.get("flat1")
        radii = [0.5 * 0.7**k for k in range(10)]
        samples = [((r,), abs(entry.fn((r,)))) for r in radii]
        fit = fit_flat_type(samples)
        assert fit.rates[0] == pytest.approx(entry.known["flat_rates"][0], rel=1e-10)


class TestRat2:
    def test_family_slices(self):
        entry = testbed.get("rat2")
        fam = entry.known["total_family"]
        el = fam.element((0,), (2,))
        assert el((0.25,)) == pytest.approx(0.8)
        el1 = fam.element((0,), (1,))
        assert el1((0.25,)) == pytest.approx(-0.8)
        assert fam.element((0, 1), (1, 1))() == 1.0

    def test_known_family_coherent_tight(self):
        fam = testbed.rat2_total_family(cap=3)
        probe = ProbeSpec(steps=18, tol=1e-8)
        rep = check_coherence(fam, 1e-8, probe=probe, max_order=2)
        assert rep.ok()
        assert not rep.probe_failures
        assert rep.max_residual < 1e-8

    def test_eval(self):
        entry = testbed.get("rat2")
        assert entry.fn((1.0, 1.0)) == pytest.approx(0.25)


class TestPoly:
    def test_family_coherent(self):
        entry = testbed.get("poly")
        rep = check_coherence(entry.known["total_family"], 1e-8, max_order=2)
        assert rep.ok()
        assert rep.max_residual < 1e-8

    def test_app_identity(self):
        from polygevrey import app_n

        entry = testbed.get("poly")
        fam = entry.known["total_family"]
        z = (0.3 * np.exp(0.2j), 0.5 * np.exp(-0.4j))
        assert app_n(fam, (3, 4), z) == pytest.approx(complex(entry.fn(z)), abs=1e-14)


class TestBrgConst:
    def test_closed_form(self):
        entry = testbed.get("brg_const")
        z0 = entry.known["z0"][0]
        for z in (0.1, 0.3):
            assert entry.fn((z,)) == pytest.approx(1 - math.exp(-z0.real / z), rel=1e-12)

    def test_product_form(self):
        entry = testbed.get("brg_const2")
        z = (0.2, 0.4)
        want = (1 - math.exp(-0.5 / 0.2)) * (1 - math.exp(-0.5 / 0.4))
        assert entry.fn(z) == pytest.approx(want, rel=1e-12)


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
        val = complex(entry.fn((z,)))
        partial = 1 - z + 2 * z * z - 6 * z**3
        assert abs(val - partial) < 24 * z**4 * 2


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
