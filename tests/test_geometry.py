import cmath
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from polygevrey import (
    DimensionMismatchError,
    GeometryError,
    Polysector,
    ProbeSpec,
    Sector,
    distinguished_boundary_points,
    geometric_radii,
    ray_points,
)
from polygevrey.families import axis_coefficient_ladder

PI = math.pi


def sector(a=-PI / 4, b=PI / 4, rho=1.0):
    return Sector(a, b, rho)


class TestContains:
    def test_bisector_point(self):
        assert sector().contains(0.5)

    def test_vertex_excluded(self):
        assert not sector().contains(0)

    def test_argument_outside(self):
        assert not sector().contains(0.5 * cmath.exp(1j * PI / 3))

    def test_radius_boundary_excluded(self):
        assert not sector().contains(1.0)
        assert sector().contains(0.999999)

    def test_branch_across_cut(self):
        # sector straddling the principal-arg cut at +-pi
        s = Sector(3 * PI / 4, 5 * PI / 4, 2.0)
        assert s.contains(-1.0)
        assert s.contains(cmath.exp(1j * (PI + 0.3)))
        assert not s.contains(1.0)

    def test_unreduced_angles(self):
        s = Sector(2 * PI - 0.1, 2 * PI + 0.1, 1.0)
        assert s.contains(0.5)


class TestRayPoints:
    def test_one_axis(self):
        s = Polysector([sector()])
        pts = ray_points(s, (0.0,), [[0.1, 0.01]])
        assert pts == [(0.1 + 0j,), (0.01 + 0j,)]

    def test_two_axes_single(self):
        s = Polysector([sector(), Sector(-PI / 4, PI / 2, 1.0)])
        pts = ray_points(s, (0.0, PI / 6), [[0.5], [0.25]])
        assert len(pts) == 1
        z1, z2 = pts[0]
        assert abs(z1 - 0.5) < 1e-15
        assert abs(z2 - 0.25 * cmath.exp(1j * PI / 6)) < 1e-15

    def test_radius_too_large(self):
        s = Polysector([sector()])
        with pytest.raises(GeometryError):
            ray_points(s, (0.0,), [[1.0]])

    def test_direction_outside(self):
        s = Polysector([sector()])
        with pytest.raises(GeometryError):
            ray_points(s, (1.0,), [[0.1]])

    def test_wrong_length_direction(self):
        s = Polysector([sector(), sector()])
        with pytest.raises(DimensionMismatchError):
            ray_points(s, (0.0,), [[0.1], [0.1]])

    def test_one_radius_list_per_axis(self):
        s = Polysector([sector(), sector()])
        with pytest.raises(DimensionMismatchError, match="one radius list per axis"):
            ray_points(s, (0.0, 0.0), [[0.1]])

    def test_all_points_contained(self):
        s = Polysector([sector(), sector(-0.3, 0.9, 2.0)])
        pts = ray_points(s, (0.1, 0.4), [[0.9, 0.3, 0.1], [1.5, 0.5]])
        assert len(pts) == 6
        for pt in pts:
            assert s.contains(pt)


class TestDistinguishedBoundary:
    def test_count_one_axis(self):
        s = Polysector([Sector(0.0, PI / 2, 1.0)])
        pts = distinguished_boundary_points(s, 2)
        assert len(pts) == 6

    def test_cartesian_two_axes(self):
        s = Polysector([Sector(0.0, PI / 2, 1.0), Sector(-0.5, 0.5, 2.0)])
        pts = distinguished_boundary_points(s, 2)
        assert len(pts) == 36

    def test_unbounded_rejected(self):
        s = Polysector([Sector(0.0, PI / 2, math.inf)])
        with pytest.raises(GeometryError):
            distinguished_boundary_points(s, 2)

    def test_density_validation(self):
        with pytest.raises(GeometryError, match="density must be >= 1"):
            distinguished_boundary_points(Polysector([Sector(0.0, PI / 2, 1.0)]), 0)

    def test_disjoint_from_interior(self):
        s = Polysector([Sector(0.0, PI / 2, 1.0), Sector(-0.4, 0.4, 1.0)])
        for pt in distinguished_boundary_points(s, 3):
            assert not s.contains(pt)

    def test_vertex_excluded(self):
        s = Polysector([Sector(0.0, PI / 2, 1.0)])
        for (z,) in distinguished_boundary_points(s, 4):
            assert z != 0


class TestGrids:
    def test_geometric_radii(self):
        r = geometric_radii(0.5, 0.5, 4)
        assert r == (0.5, 0.25, 0.125, 0.0625)

    @pytest.mark.parametrize("r0, ratio, count", [(0.0, 0.5, 4), (0.5, 1.0, 4), (0.5, 0.5, 0)])
    def test_geometric_radii_validation(self, r0, ratio, count):
        with pytest.raises(GeometryError, match="need r0 > 0"):
            geometric_radii(r0, ratio, count)


def read_polysector(obj) -> Polysector:
    """``obj`` as the CLI reads the ``polysector`` of a ``verify pl`` config."""
    from polygevrey import cli

    raw = {"suite": "pl", "testbed": "poly", "polysector": obj}
    return cli._read(raw, cli._table("verify", raw))["polysector"]


class TestJson:
    def test_roundtrip(self):
        obj = {"sectors": [{"alpha": -0.2, "beta": 0.3, "rho": 1.5}, {"alpha": 0.0, "beta": 1.0, "rho": None}]}
        s = read_polysector(obj)
        assert s == Polysector([Sector(-0.2, 0.3, 1.5), Sector(0.0, 1.0, math.inf)])

    def test_inf_radius_spelling(self):
        obj = {"sectors": [{"alpha": 0.0, "beta": 1.0, "rho": "inf"}]}
        s = read_polysector(obj)
        assert not s.sectors[0].bounded
        assert s.sectors[0].rho == math.inf

    def test_bad_descriptor(self, tmp_path, capsys):
        # exit 2 naming the rule, and no report
        from polygevrey.cli import EXIT_SCHEMA, main

        for obj, message in [
            ({"sectors": []}, "polysector key 'sectors' lists no sector"),
            ({"sectors": [{"alpha": 0.0}]}, "sector key 'beta' is required"),
        ]:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"suite": "pl", "testbed": "poly", "polysector": obj}))
            out = tmp_path / "out"
            assert main(["verify", "--config", str(cfg), "--out", str(out)]) == EXIT_SCHEMA
            assert f"config error: {message}" in capsys.readouterr().err
            assert not out.exists()


class TestInvariants:
    def test_sector_invariants(self):
        with pytest.raises(GeometryError):
            Sector(1.0, 1.0, 1.0)
        with pytest.raises(GeometryError):
            Sector(0.0, 1.0, 0.0)

    def test_point_dimension_checked(self):
        with pytest.raises(DimensionMismatchError, match="point has 1 coordinates, polysector 2"):
            Polysector([sector(), sector()]).contains((0.1,))

    def test_boundary_distance_on_bisector(self):
        s = Sector(-PI / 4, PI / 4, 1.0)
        z = 0.5
        expected = min(0.5 * math.sin(PI / 4), 0.5)
        assert abs(s.boundary_distance(z) - expected) < 1e-14

    def test_boundary_distance_wide_sector(self):
        s = Sector(-2.0, 2.0, math.inf)
        # far from both edges: distance limited by |z| via the vertex
        assert abs(s.boundary_distance(1.0) - 1.0) < 1e-14


# sectors crossing the cut at (2k+1) pi, k in {-1, 0, 1}, stored unreduced
cut_sectors = st.builds(
    lambda k, lo, hi, rho: Sector((2 * k + 1) * PI - lo, (2 * k + 1) * PI + hi, rho),
    st.integers(-1, 1),
    st.floats(0.05, 3.0),
    st.floats(0.05, 3.0),
    st.one_of(st.just(math.inf), st.floats(0.5, 4.0)),
)


def ray_distance(z, edge):
    """Distance from z to the closed ray from 0 at angle ``edge``."""
    u = cmath.exp(1j * edge)
    return abs(z - max(0.0, (z * u.conjugate()).real) * u)


class TestCutCrossingSectors:
    @given(cut_sectors, st.floats(-0.999, 0.999), st.floats(0.01, 0.99))
    def test_contains_matches_unwrapped_branch(self, s, u, f):
        # phi runs over the branch of arg centred on the bisector
        phi = s.bisector + u * PI
        assume(min(abs(phi - s.alpha), abs(phi - s.beta)) > 1e-9)
        r = f * min(s.rho, 3.0)
        assert s.contains(r * cmath.exp(1j * phi)) == (s.alpha < phi < s.beta)

    @given(cut_sectors, st.floats(0.001, 0.999), st.floats(0.01, 0.99))
    def test_boundary_distance_bounded_by_edges_and_arc(self, s, u, f):
        r = f * min(s.rho, 3.0)
        z = r * cmath.exp(1j * (s.alpha + u * s.opening))
        assert s.contains(z)
        dist = s.boundary_distance(z)
        assert dist > 0
        for edge in (s.alpha, s.beta):
            assert dist <= ray_distance(z, edge) * (1 + 1e-12) + 1e-15
        if s.bounded:
            assert dist <= s.rho - r + 1e-15

    @given(cut_sectors, st.floats(0.02, 0.98))
    def test_ladder_circles_inside(self, s, u):
        # the circles a radius ladder samples along theta stay in the sector
        theta = s.alpha + u * s.opening
        seen = []

        def evalfn(pts):
            seen.append(pts[:, 0])
            return np.exp(pts[:, :1])

        axis_coefficient_ladder(evalfn, [s], [(1,)], ProbeSpec(direction=(theta,)))
        assert seen
        assert all(s.contains(complex(z)) for pts in seen for z in pts)
